package repro.core

import scala.collection.mutable

/** Result of one engine run. */
final case class RunStats(
    iterations: Int,
    activations: Long,
    wallMs: Long,
    phases: Seq[(String, Long)] = Nil,
) {
  def +(o: RunStats): RunStats =
    RunStats(iterations + o.iterations, activations + o.activations, wallMs + o.wallMs, phases ++ o.phases)
}

final case class LocalRun(states: mutable.LongMap[Double], stats: RunStats)

/** Single-threaded accumulative engine over an in-memory flat [[Adjacency]].
  *
  * This is the workhorse of Layph's *local* computations: shortcut
  * deduction (Equation 6), revision-message upload, and per-subgraph
  * recomputation all run this engine inside executor tasks — disjoint
  * subgraphs are processed in parallel as Spark tasks, exactly the
  * parallelism structure the paper describes; there it reads an
  * [[Adjacency]] over the subgraph's local indices. It is also the
  * reference implementation the Spark engine is tested against: both read
  * out-rows through the same `Bsp.propagate`.
  *
  * Semantics (both kinds): pending messages are aggregated per vertex
  * with G; applying a message to `x_v` either lowers it (MinPlus, emitting
  * the improved value) or adds to it (SumTimes, emitting the delta when
  * `|delta| >= emitThreshold`). Messages generated towards absorbing
  * vertices are dropped before aggregation (PHP kills walks re-entering
  * the root), while explicit seeds are always delivered — that is how the
  * root's initial message M0 pins its own state. This is the accumulative
  * model of Equation 1.
  */
object LocalEngine {

  /** @param adj     the propagation graph; a vertex without a row emits nothing
    * @param states  initial vertex states, mutated in place
    * @param seeds   initial pending messages (vertex -> message), G-aggregated
    * @return        the mutated states plus iteration/activation counts
    */
  def run(
      algo: VCAlgo,
      adj: Adjacency,
      states: mutable.LongMap[Double],
      seeds: Iterable[(Long, Double)],
      emitThreshold: Double = Double.NaN,
      absorbing: Set[Long] = Set.empty,
      maxIter: Int = Int.MaxValue,
  ): LocalRun = {
    val t0  = System.nanoTime()
    val thr = if (emitThreshold.isNaN) algo.eps else emitThreshold
    var frontier = Bsp.combine(algo, seeds)
    var acts  = 0L
    var iters = 0

    while (frontier.nonEmpty && iters < maxIter) {
      iters += 1
      val next = mutable.LongMap.empty[Double]
      frontier.foreachEntry { (v, m) =>
        val emit = Bsp.applyMsg(algo, states, v, m, thr)
        if (emit != algo.zero) acts += Bsp.propagate(algo, adj, v, emit, absorbing, next)
      }
      frontier = next
    }
    LocalRun(states, RunStats(iters, acts, (System.nanoTime() - t0) / 1000000))
  }

  /** Batch run from the algorithm's own M0 (Equation 1 until convergence). */
  def batch(algo: VCAlgo, g: GraphState, maxIter: Int = Int.MaxValue): LocalRun = {
    val states = mutable.LongMap.empty[Double]
    g.vertices.foreach(v => states(v) = algo.defaultState)
    val seeds = algo.roots match {
      case Some(rs) => rs.toSeq.map(v => v -> algo.initMsg(v))
      case None     => g.vertices.toSeq.map(v => v -> algo.initMsg(v))
    }
    run(algo, g.adjacency(algo), states, seeds,
      absorbing = algo.absorbing, maxIter = maxIter)
  }
}

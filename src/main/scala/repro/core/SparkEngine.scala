package repro.core

import scala.collection.mutable
import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.SparkSession

final case class SparkRun(states: mutable.LongMap[Double], stats: RunStats)

/** Distributed accumulative engine: Pregel-style BSP rounds on Spark.
  *
  * Vertex states stay in the driver, where every caller already holds them
  * before and after a run; the (algorithm-weighted) flat [[Adjacency]] is
  * broadcast once per run, before its first job, and destroyed when the
  * run ends. A round applies G to the aggregated frontier in the driver,
  * which costs O(|frontier|), then runs one Spark job of one stage and no
  * shuffle, `sc.runJob` over the sliced emitting vertices with a single
  * closure: each of at most `numPartitions` tasks applies F over the
  * broadcast adjacency and G-combines its messages per destination, and
  * the driver G-merges the task results, in partition order, into the next
  * frontier. A round in which no vertex emits launches no job. Both halves
  * are the [[Bsp]] helpers that [[LocalEngine]] runs inline, so the two
  * engines take the same rounds and count the same activations. Every
  * engine in this repo — batch, Ingress, the modeled competitors, and
  * Layph's upper-layer iteration — runs through this loop, so
  * response-time and edge-activation comparisons are apples-to-apples.
  */
final class SparkEngine(spark: SparkSession, val numPartitions: Int = 8) extends Serializable {
  private val sc = spark.sparkContext

  /** Runs to fixpoint (or `maxIter`) from the given states and seeds.
    *
    * @param adj           the propagation graph, broadcast by this run
    * @param states0       initial state map; not mutated (the result is a copy)
    * @param seeds         initial pending messages, G-aggregated per vertex
    * @param emitThreshold SumTimes messages below it are not re-emitted
    * @param maxIter       cap on rounds (GraphBolt/DZiG epoch alignment)
    */
  def run(
      algo: VCAlgo,
      adj: Adjacency,
      states0: mutable.LongMap[Double],
      seeds: Iterable[(Long, Double)],
      emitThreshold: Double = Double.NaN,
      absorbing: Set[Long] = Set.empty,
      maxIter: Int = Int.MaxValue,
  ): SparkRun = {
    val t0  = System.nanoTime()
    val thr = if (emitThreshold.isNaN) algo.eps else emitThreshold
    var frontier = Bsp.combine(algo, seeds)
    val states = states0.clone()
    var acts  = 0L
    var iters = 0
    var adjBc: Broadcast[Adjacency] = null // made by the first job, if any

    try {
      while (frontier.nonEmpty && iters < maxIter) {
        iters += 1
        val vs = mutable.ArrayBuilder.make[Long]
        val es = mutable.ArrayBuilder.make[Double]
        frontier.foreachEntry { (v, m) =>
          val emit = Bsp.applyMsg(algo, states, v, m, thr)
          if (emit != algo.zero) { vs += v; es += emit }
        }
        frontier = mutable.LongMap.empty[Double]
        if (vs.length > 0) {
          if (adjBc == null) adjBc = sc.broadcast(adj)
          val bc = adjBc
          val (v, e) = (vs.result(), es.result())
          val k = math.min(numPartitions, v.length)
          val slices = (0 until k).map { i =>
            val (from, until) = (v.length * i / k, v.length * (i + 1) / k)
            (v.slice(from, until), e.slice(from, until))
          }
          val results = sc.runJob(sc.parallelize(slices, k), (it: Iterator[(Array[Long], Array[Double])]) => {
            val (sv, se) = it.next()
            val adj = bc.value
            val next = mutable.LongMap.empty[Double]
            var a = 0L
            for (i <- sv.indices) a += Bsp.propagate(algo, adj, sv(i), se(i), absorbing, next)
            val (dv, dm) = (new Array[Long](next.size), new Array[Double](next.size))
            var j = 0
            next.foreachEntry { (d, m) => dv(j) = d; dm(j) = m; j += 1 }
            (a, dv, dm)
          })
          results.foreach { case (a, dv, dm) =>
            acts += a
            for (i <- dv.indices) Bsp.offer(algo, frontier, dv(i), dm(i))
          }
        }
      }
    } finally if (adjBc != null) adjBc.destroy()
    SparkRun(states, RunStats(iters, acts, (System.nanoTime() - t0) / 1000000))
  }

  /** Batch run of Equation 1 on the full graph from the algorithm's M0. */
  def batch(algo: VCAlgo, g: GraphState, maxIter: Int = Int.MaxValue): SparkRun = {
    val states0 = mutable.LongMap.empty[Double]
    g.vertices.foreach(v => states0(v) = algo.defaultState)
    val seeds = algo.roots match {
      case Some(rs) => rs.toSeq.map(v => v -> algo.initMsg(v))
      case None     => g.vertices.toSeq.map(v => v -> algo.initMsg(v))
    }
    run(algo, g.adjacency(algo), states0, seeds, absorbing = algo.absorbing, maxIter = maxIter)
  }
}

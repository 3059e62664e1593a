package repro.core

import scala.collection.mutable

/** The two halves of one BSP round of the accumulative model (Equation 1),
  * shared by [[LocalEngine]] and [[SparkEngine]] so that both engines run
  * the same schedule over the same flat [[Adjacency]]. They differ only in
  * where [[propagate]] runs: inline in `LocalEngine`, inside executor tasks
  * over the broadcast adjacency in `SparkEngine`.
  */
object Bsp {

  /** G-combines message `m` for vertex `v` into `into`. */
  @inline def offer(algo: VCAlgo, into: mutable.LongMap[Double], v: Long, m: Double): Unit =
    into(v) = algo.agg(into.getOrElse(v, algo.zero), m)

  /** Pending messages G-aggregated per vertex. */
  def combine(algo: VCAlgo, msgs: Iterable[(Long, Double)]): mutable.LongMap[Double] = {
    val into = mutable.LongMap.empty[Double]
    msgs.foreach { case (v, m) => offer(algo, into, v, m) }
    into
  }

  /** Applies G: folds the aggregated message `m` into `v`'s state and
    * returns what `v` re-emits, or `algo.zero` for nothing. MinPlus lowers
    * the state and emits the improved value; SumTimes adds to it and emits
    * the delta when `|m| >= thr`. A vertex missing from `states` starts at
    * `algo.defaultState`, so a vertex first reached by a message is added.
    */
  @inline def applyMsg(algo: VCAlgo, states: mutable.LongMap[Double], v: Long, m: Double, thr: Double): Double =
    if (algo.kind == MinPlus) {
      val x = states.getOrElse(v, algo.defaultState)
      if (m < x) { states(v) = m; m } else algo.zero
    } else {
      states(v) = states.getOrElse(v, algo.defaultState) + m
      if (math.abs(m) >= thr) m else algo.zero
    }

  /** F then G: sends `emit` over `v`'s out-row of `adj` (none when `v` has
    * no row), drops messages towards absorbing vertices (PHP kills walks
    * re-entering the root), and G-combines the rest per destination into
    * `next`.
    *
    * @return edge activations: one per out-edge, absorbing targets included
    */
  def propagate(
      algo: VCAlgo,
      adj: Adjacency,
      v: Long,
      emit: Double,
      absorbing: Set[Long],
      next: mutable.LongMap[Double],
  ): Int = {
    val r = adj.rowOf(v)
    if (r < 0) return 0
    val (from, until) = (adj.off(r), adj.off(r + 1))
    var i = from
    while (i < until) {
      val d = adj.dst(i)
      if (!absorbing.contains(d)) offer(algo, next, d, algo.gen(emit, adj.w(i)))
      i += 1
    }
    until - from
  }
}

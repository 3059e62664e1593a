package repro.core

import scala.collection.mutable

/** Dependency-tree ("memoization path") machinery for MinPlus algorithms.
  *
  * KickStarter, RisGraph and Ingress's memo-path engine all memoize the
  * critical path of each converged state: `parent(v)` is the in-neighbor
  * whose message fixed `x_v`. On edge deletions the states supported
  * through the deleted edge (the parent-tree subtree) become unsafe and
  * are reset; fresh candidates are pulled from the surviving in-edges and
  * then propagated to a new fixpoint. The same machinery drives Layph's
  * upper-layer incremental computation, where shortcuts act as ordinary
  * skeleton edges.
  *
  * The tree itself is driver-side metadata (as in the real systems, where
  * it lives in shared memory); the fixpoint propagation runs on the
  * distributed [[SparkEngine]]. Both directions are [[Adjacency]]s; a
  * reverse row is in source-id order, and every read of one takes a
  * minimum (smallest supporting parent, best pulled candidate).
  */
object MemoPath {

  private val RelTol = 1e-9

  @inline private def supports(xu: Double, w: Double, xv: Double): Boolean =
    xu.isFinite && math.abs(xu + w - xv) <= RelTol * math.max(1.0, math.abs(xv))

  /** parent(v) = the smallest in-neighbor u with x_u + w_{u,v} = x_v.
    * Roots and unreachable vertices have no parent.
    */
  def computeParents(
      radj: Adjacency,
      states: mutable.LongMap[Double],
  ): mutable.LongMap[Long] = {
    val parents = mutable.LongMap.empty[Long]
    states.foreach { case (v, xv) =>
      if (xv.isFinite && xv != 0.0) {
        var best = -1L
        radj.foreachOut(v) { (u, w) =>
          if (states.get(u).exists(xu => supports(xu, w, xv)) && (best == -1L || u < best)) best = u
        }
        if (best >= 0) parents(v) = best
      }
    }
    parents
  }

  /** Closure of tree descendants of `seeds` (inclusive). */
  def treeClosure(parents: mutable.LongMap[Long], seeds: Set[Long]): Set[Long] = {
    val children = mutable.LongMap.empty[mutable.ArrayBuffer[Long]]
    parents.foreach { case (v, p) => children.getOrElseUpdate(p, mutable.ArrayBuffer.empty) += v }
    val out = mutable.Set.empty[Long]
    val queue = mutable.Queue.empty[Long]
    seeds.foreach { s => if (out.add(s)) queue += s }
    while (queue.nonEmpty) {
      val v = queue.dequeue()
      children.get(v).foreach(_.foreach { c => if (out.add(c)) queue += c })
    }
    out.toSet
  }

  /** Forward-reachability closure of `seeds` over the plain adjacency —
    * the conservative invalidation region modeling KickStarter's trimming.
    */
  def forwardClosure(
      adj: Adjacency,
      seeds: Set[Long],
      cap: Int = Int.MaxValue,
  ): Set[Long] = {
    val out = mutable.Set.empty[Long]
    val queue = mutable.Queue.empty[Long]
    seeds.foreach { s => if (out.add(s)) queue += s }
    while (queue.nonEmpty && out.size < cap) {
      val v = queue.dequeue()
      adj.foreachOut(v)((c, _) => if (out.add(c)) queue += c)
    }
    out.toSet
  }

  final case class IncResult(
      states: mutable.LongMap[Double],
      parents: mutable.LongMap[Long],
      stats: RunStats,
  )

  /** One incremental MinPlus round: invalidate, reseed, propagate, re-memoize.
    * A diff with a finite `wOld` over `dst`'s memoized parent edge makes
    * `dst` unsafe; a diff with a finite `wNew` seeds a compensation
    * message over the new weight.
    *
    * @param adj          updated forward adjacency
    * @param radj         updated reverse adjacency (for reseeding pulls)
    * @param diffs        net weighted edge diffs of the batch, as
    *                     [[GraphState.applyDelta]] returns them
    * @param conservative invalidate the forward-reachable region instead of
    *                     the exact tree subtree (KickStarter's trimming)
    * @param extraInvalid additional vertices to invalidate (Layph: skeleton
    *                     vertices whose shortcut support weakened)
    * @param extraSeeds   additional revision messages (Layph: new shortcut
    *                     candidates uploaded from updated subgraphs)
    */
  def incremental(
      algo: VCAlgo,
      engine: SparkEngine,
      adj: Adjacency,
      radj: Adjacency,
      states: mutable.LongMap[Double],
      parents: mutable.LongMap[Long],
      diffs: Seq[EdgeDiff],
      conservative: Boolean = false,
      extraInvalid: Set[Long] = Set.empty,
      extraSeeds: Seq[(Long, Double)] = Nil,
  ): IncResult = {
    val t0 = System.nanoTime()
    var pullActs = 0L

    // 1. vertices whose memoized support disappeared
    val unsafe = diffs.iterator
      .filter(d => d.wOld.isFinite && parents.get(d.dst).contains(d.src))
      .map(_.dst)
      .toSet ++ extraInvalid

    val invalid = {
      val raw =
        if (unsafe.isEmpty) Set.empty[Long]
        else {
          val tree = treeClosure(parents, unsafe)
          if (conservative)
            // KickStarter's value-based trimming over-approximates the unsafe
            // region; the cap models tags dying out once values stop changing.
            // The exact tree is always included so correctness is never lost.
            tree ++ forwardClosure(adj, unsafe, 24 * tree.size + 64)
          else tree
        }
      // roots are supported by their initial message M0, never by an edge —
      // they must not be reset (their reseed would be lost)
      raw -- algo.roots.getOrElse(Set.empty)
    }

    // 2. reset invalidated states (cancellation: ⊥ per Example 3)
    invalid.foreach(v => states(v) = algo.defaultState)

    // 3. reseed: pull surviving candidates into invalidated vertices,
    //    push compensation messages over inserted or lightened edges
    val seeds = mutable.LongMap.empty[Double]
    def offer(v: Long, m: Double): Unit =
      seeds.updateWith(v) { case Some(a) => Some(algo.agg(a, m)); case None => Some(m) }

    invalid.foreach { v =>
      radj.foreachOut(v) { (u, w) =>
        pullActs += 1
        if (!invalid.contains(u)) {
          val xu = states.getOrElse(u, algo.defaultState)
          if (xu.isFinite) offer(v, algo.gen(xu, w))
        }
      }
    }
    diffs.foreach { d =>
      if (d.wNew.isFinite && !invalid.contains(d.dst)) {
        val xu = states.getOrElse(d.src, algo.defaultState)
        if (xu.isFinite) { pullActs += 1; offer(d.dst, algo.gen(xu, d.wNew)) }
      }
    }
    extraSeeds.foreach { case (v, m) => offer(v, m) }

    // 4. propagate to the new fixpoint on the distributed engine
    val run = engine.run(algo, adj, states, seeds.toSeq, absorbing = algo.absorbing)

    // 5. re-memoize the dependency tree over the new states
    val newParents = computeParents(radj, run.states)

    val wall = (System.nanoTime() - t0) / 1000000
    IncResult(run.states, newParents,
      RunStats(run.stats.iterations, run.stats.activations + pullActs, wall))
  }
}

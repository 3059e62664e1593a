package repro.layph

import scala.collection.mutable
import repro.core.{Adjacency, LocalEngine, MinPlus, VCAlgo}

/** One dense subgraph of the lower layer, plus Layph's memoized per-
  * subgraph decomposition.
  *
  * For every tracked entry e and member v we memoize the shortcut weight
  * `rows(e)(v)` of Definition 3 (for v = e it includes the k = 0 identity
  * term, i.e. `one` plus any returning mass), the local contribution
  * `lvec(v)` of the subgraph's own root messages M0 propagated strictly
  * inside E_i, and the accumulated external inbox `mHist(e)` of each entry.
  * Both semirings then satisfy the exact decomposition
  *
  *   x_v = lvec(v) (+) SUM_e mHist(e) (x) rows(e)(v)
  *
  * ((+)=G, (x)=F) which is how revision-message upload (Equation 7) and
  * assignment (Equation 10) are computed without touching internal edges.
  * E_i itself is a flat [[Adjacency]] over local indices, which is what
  * the deduction tasks receive and what [[LocalEngine]] reads.
  */
final case class SubgraphData(
    id: Int,
    verts: Array[Long],                 // sorted members (incl. proxies)
    idx: Map[Long, Int],                // global id -> local index
    adj: Adjacency,                     // algo-weighted E_i over local indices
    entries: Array[Long],               // tracked entries (monotone growing)
    exits: Array[Long],                 // tracked exits (monotone growing)
    rows: Array[Array[Double]],         // rows(k)(j): shortcut entries(k) -> verts(j)
    lvec: Array[Double],                // L(j)
    mHist: Array[Double],               // accumulated external inbox per entry k
)

object Subgraphs {

  /** Extracts the structural part of subgraph `i` from the effective
    * adjacency: the edges with both endpoints in the subgraph, as an
    * [[Adjacency]] over local indices (member `verts(j)` is id `j`), each
    * row in its effective-row order.
    */
  def structure(
      i: Int,
      members: Array[Long],
      effAdj: Adjacency,
      memb: mutable.LongMap[Int],
  ): (Array[Long], Map[Long, Int], Adjacency) = {
    val verts = members.sorted
    val idx = verts.zipWithIndex.map { case (v, j) => v -> j }.toMap
    val adj = Adjacency.newBuilder
    verts.indices.foreach { j =>
      effAdj.foreachOut(verts(j))((t, w) => if (memb.get(t).contains(i)) adj.add(j, idx(t), w))
    }
    (verts, idx, adj.result())
  }

  /** Shortcut rows (Equation 6) and the local root-mass vector L of one
    * subgraph, by local iterative computation with [[LocalEngine]]. Pure
    * function of the subgraph structure and its memo — it is what executors
    * run in parallel, offline for every subgraph and in "layered graph
    * update" for the subgraphs hit by ΔG.
    *
    * An empty memoized row (a new entry, or every entry offline) or an
    * empty L is deduced fresh from the unit message (resp. M0). A memoized
    * one is revised against the subgraph's local edge changes (Section
    * IV-B, "weight update") instead of rebuilt:
    *
    *  - SumTimes rows (and L) are linear in the messages, so the exact
    *    revision is a local delta propagation seeded with
    *    `row(u) * (w_new - w_old)` per changed edge (u, v) — Ingress's
    *    memoization-free scheme applied *inside* the subgraph.
    *  - MinPlus rows re-run from the entry only when a removed/upweighted
    *    edge actually supported the row (`row(u) + w_old = row(v)`);
    *    insertions/decreases are just local seeds.
    *
    * This is what keeps Layph's layered-graph-update activations
    * proportional to the change, not to the subgraph count (the paper's
    * Figure 6 behaviour).
    *
    * @param n       number of members; `adj` has ids 0 until n
    * @param oldRows memoized row per entry of `entryIdxs`, empty to deduce it
    * @param oldL    memoized L, empty to deduce it
    * @param changes local-index edge diffs (u, v, wOld, wNew) with the
    *                no-edge weight being the semiring zero-weight
    *                (+inf for MinPlus, 0 for SumTimes)
    * @param m0vec   per-local-vertex root message M0 (PageRank's 1-d for real
    *                vertices, 0 for proxies — phantoms carry no mass); empty
    *                when no subgraph member roots (MinPlus, PHP)
    * @return        (rows, lvec, edge activations spent)
    */
  def deduce(
      algo: VCAlgo,
      n: Int,
      adj: Adjacency,
      entryIdxs: Array[Int],
      oldRows: Array[Array[Double]],
      oldL: Array[Double],
      changes: Array[(Int, Int, Double, Double)],
      m0vec: Array[Double],
  ): (Array[Array[Double]], Array[Double], Long) = {
    val minPlus = algo.kind == MinPlus
    var acts = 0L
    @inline def tol(x: Double) = 1e-9 * math.max(1.0, math.abs(x))

    // reverse NEW adjacency + OLD adjacency (changes undone), built lazily:
    // only MinPlus rows with broken support need them, and both are read
    // order-free (a closure, and a minimum over pulled candidates)
    lazy val radj = adj.reverse
    lazy val oldAdj: Adjacency = {
      val changed = changes.iterator.map { case (u, v, _, _) => (u.toLong, v.toLong) }.toSet
      val b = Adjacency.newBuilder
      adj.edges.foreach { case (u, v, w) => if (!changed((u, v))) b.add(u, v, w) }
      changes.foreach { case (u, v, wo, _) => if (wo.isFinite && wo != 0.0) b.add(u, v, wo) }
      b.result()
    }

    def reviseVector(vec: Array[Double], entry: Int): Array[Double] = {
      if (minPlus) {
        // cancellation (⊥ of Example 3): a removed/upweighted edge broke the
        // row iff it supported its head — invalidate the old-graph tight
        // closure and re-derive it, the memoization-path scheme applied
        // locally inside the subgraph
        val broken = changes.collect {
          case (u, v, wo, wn) if wn > wo && vec(u).isFinite &&
            math.abs(vec(u) + wo - vec(v)) <= tol(vec(v)) => v
        }
        val states = mutable.LongMap.empty[Double]
        vec.indices.foreach(j => states(j.toLong) = vec(j))
        val seeds = mutable.LongMap.empty[Double]
        def offer(v: Long, m: Double): Unit =
          seeds.updateWith(v) { case Some(a) => Some(math.min(a, m)); case None => Some(m) }

        if (broken.nonEmpty) {
          val invalid = mutable.Set.empty[Int]
          val queue = mutable.Queue.empty[Int]
          broken.foreach { v => if (invalid.add(v)) queue += v }
          while (queue.nonEmpty) {
            val a = queue.dequeue()
            oldAdj.foreachOut(a) { (bl, w) =>
              val b = bl.toInt
              if (!invalid.contains(b) && vec(a).isFinite &&
                  math.abs(vec(a) + w - vec(b)) <= tol(vec(b))) {
                invalid += b; queue += b
              }
            }
          }
          invalid.foreach(j => states(j.toLong) = algo.defaultState)
          if (entry >= 0 && invalid.contains(entry)) states(entry.toLong) = 0.0
          invalid.foreach { b =>
            if (b != entry) {
              radj.foreachOut(b) { (a, w) =>
                acts += 1
                if (!invalid.contains(a.toInt)) {
                  val xa = states.getOrElse(a, algo.defaultState)
                  if (xa.isFinite) offer(b.toLong, xa + w)
                }
              }
            }
          }
        }
        changes.foreach { case (u, v, _, wn) =>
          if (wn.isFinite && states.getOrElse(u.toLong, algo.defaultState).isFinite)
            offer(v.toLong, states(u.toLong) + wn)
        }
        if (seeds.isEmpty && broken.isEmpty) vec
        else {
          val run = LocalEngine.run(algo, adj, states, seeds.toSeq)
          acts += run.stats.activations + changes.length
          Array.tabulate(n)(j => states.getOrElse(j.toLong, algo.defaultState))
        }
      } else {
        val seeds = changes.collect {
          case (u, v, wo, wn) if vec(u) * (wn - wo) != 0.0 => v.toLong -> vec(u) * (wn - wo)
        }
        if (seeds.isEmpty) vec
        else {
          val states = mutable.LongMap.empty[Double]
          vec.indices.foreach(j => states(j.toLong) = vec(j))
          val run = LocalEngine.run(algo, adj, states, seeds)
          acts += run.stats.activations + changes.length
          Array.tabulate(n)(j => states.getOrElse(j.toLong, 0.0))
        }
      }
    }

    def fresh(seeds: Seq[(Long, Double)]): Array[Double] = {
      val states = mutable.LongMap.empty[Double]
      acts += LocalEngine.run(algo, adj, states, seeds).stats.activations
      Array.tabulate(n)(j => states.getOrElse(j.toLong, algo.defaultState))
    }

    val rows = entryIdxs.indices.map { k =>
      if (oldRows(k).isEmpty) fresh(Seq(entryIdxs(k).toLong -> algo.one))
      else reviseVector(oldRows(k), entryIdxs(k))
    }.toArray

    val lvec =
      if (minPlus || m0vec.isEmpty) Array.fill(n)(algo.defaultState)
      else if (oldL.isEmpty) fresh((0 until n).collect { case j if m0vec(j) != 0.0 => j.toLong -> m0vec(j) })
      else reviseVector(oldL, -1)
    (rows, lvec, acts)
  }

  /** Assignment (Equation 10): revises internal states straight through the
    * shortcuts, with no iterative computation. Reads only the subgraph's
    * decomposition: `rows(k)(j)` per entry k (so `rows.length` is the entry
    * count) and `lvec(j)`.
    *
    * @param internalIdxs local indices of the internal vertices
    * @param mNew         per-entry total external inbox (mHist + this round's ΔM)
    * @param deltaM       this round's per-entry inbox change
    * @param affected     whether E_i changed this round (forces full recompute
    *                     from the decomposition instead of a delta update)
    * @param current      current states of the internal vertices (delta path)
    * @return             new state per internal vertex, in `internalIdxs`
    *                     order, + activations spent
    */
  def assignInternal(
      algo: VCAlgo,
      rows: Array[Array[Double]],
      lvec: Array[Double],
      internalIdxs: Array[Int],
      mNew: Array[Double],
      deltaM: Array[Double],
      affected: Boolean,
      current: Array[Double],
  ): (Array[Double], Long) = {
    val minPlus = algo.kind == MinPlus
    val nEnt = rows.length
    var acts = 0L
    val out = new Array[Double](internalIdxs.length)
    var jj = 0
    while (jj < internalIdxs.length) {
      val j = internalIdxs(jj)
      out(jj) =
        if (minPlus) {
          var best = lvec(j)
          var k = 0
          while (k < nEnt) {
            val cand = algo.gen(mNew(k), rows(k)(j))
            if (cand < best) best = cand
            k += 1
          }
          acts += nEnt
          best
        } else if (affected) {
          var s = lvec(j)
          var k = 0
          while (k < nEnt) { s += mNew(k) * rows(k)(j); k += 1 }
          acts += nEnt
          s
        } else {
          var s = current(jj)
          var k = 0
          while (k < nEnt) {
            if (deltaM(k) != 0.0) { s += deltaM(k) * rows(k)(j); acts += 1 }
            k += 1
          }
          s
        }
      jj += 1
    }
    (out, acts)
  }
}

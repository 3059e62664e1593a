package repro.layph

import scala.collection.mutable
import scala.reflect.ClassTag
import org.apache.spark.sql.SparkSession
import repro.core._

/** Layph (ICDE'23): two-layered incremental graph processing.
  *
  * Offline, the graph is split into a small upper-layer skeleton L_up
  * (boundary vertices + outliers, connected by cross edges and deduced
  * shortcuts) and disjoint lower-layer dense subgraphs L_low. Each
  * incremental round then runs the paper's four phases:
  *
  *   1. layered graph update  — deduce or revise shortcuts/L of the
  *      subgraphs hit by ΔG, in one job of per-subgraph Spark tasks
  *      (Section IV-B);
  *   2. revision upload       — derive boundary revision messages from the
  *      per-subgraph decomposition (Equation 7);
  *   3. upper iteration       — fixpoint on the skeleton only (Equation 8),
  *      via [[SparkEngine]] (+ dependency-tree invalidation for MinPlus);
  *   4. assignment            — push each entry's accumulated inbox to the
  *      internal vertices straight through shortcuts (Equation 10), in one
  *      job of per-subgraph Spark tasks.
  *
  * The offline run is the same path: `initialize` builds the layering,
  * deduces every shortcut row, and runs phases 2-4 (`propagate`) from an
  * empty memo — every state at X0, no upper dependency tree, and M0 at
  * the outlier roots — as the paper's offline phase does (§III).
  *
  * SumTimes skeleton encoding: every skeleton vertex v is split into an
  * inbox node 2v (receives external messages, forwards over cross edges
  * AND own-subgraph shortcuts) and an interior node 2v+1 (receives own-
  * subgraph shortcut mass, forwards over cross edges only). The split
  * prevents double counting of interior paths — shortcut weights already
  * contain every continuation through the subgraph. MinPlus is idempotent
  * and needs no split.
  */
final class LayphEngine(
    spark: SparkSession,
    cfg: LayphConfig = LayphConfig(),
    partitions: Int = 8,
) extends IncrementalSystem {
  val name = "Layph"
  private val engine = new SparkEngine(spark, partitions)
  private val sc = spark.sparkContext

  private var g: GraphState = _
  private var algo: VCAlgo = _
  private var minPlus = false
  private var memb: mutable.LongMap[Int] = _
  private var repl: Replication = Replication.none
  private var hostInProxies: Map[Long, Seq[(Int, Long)]] = Map.empty
  private var numSg = 0
  private var sgs: Array[SubgraphData] = _
  private var rolesArr: Array[Roles] = _ // tracked boundary, grows monotonically
  private var effAdj: Adjacency = _
  private var states: mutable.LongMap[Double] = _
  private var skelAdj: Adjacency = _
  private var upperParents: mutable.LongMap[Long] = _

  /** An effective-edge weight diff (u, v, wOld, wNew). */
  private type Diff = (Long, Long, Double, Double)

  /** One-off layered-graph construction cost (Figure 11b). */
  var offlinePreprocessMs: Long = 0
  var lastPhases: Seq[(String, Long)] = Nil

  // ---------------------------------------------------------------- helpers

  @inline private def inN(v: Long): Long = 2 * v       // SumTimes inbox node
  @inline private def outN(v: Long): Long = 2 * v + 1  // SumTimes interior node

  private def sameSg(u: Long, v: Long): Boolean = {
    val a = memb.get(u); a.isDefined && a == memb.get(v)
  }

  private def boundaryOf(i: Int): Array[Long] =
    (sgs(i).entries ++ sgs(i).exits).distinct

  private def skeletonVerts: Set[Long] = {
    val b = Set.newBuilder[Long]
    states.keysIterator.foreach { v =>
      memb.get(v) match {
        case None    => b += v
        case Some(i) => if (rolesArr(i).boundary.contains(v)) b += v
      }
    }
    b.result()
  }

  /** L_up: cross edges of the effective graph + deduced shortcuts from each
    * entry to every boundary vertex of its subgraph (paper: entry -> exit;
    * we include entry -> entry so in-subgraph support of boundary states
    * flows on the skeleton too, which Theorems 1-2 implicitly need).
    */
  private def buildSkeleton(): Adjacency = {
    val acc = Adjacency.newBuilder
    effAdj.edges.foreach { case (u, v, w) =>
      if (!sameSg(u, v)) {
        if (minPlus) acc.add(u, v, w)
        else { acc.add(inN(u), inN(v), w); acc.add(outN(u), inN(v), w) }
      }
    }
    (0 until numSg).foreach { i =>
      val sg = sgs(i)
      val bnd = boundaryOf(i)
      sg.entries.indices.foreach { k =>
        val e = sg.entries(k)
        bnd.foreach { b =>
          val w = sg.rows(k)(sg.idx(b))
          if (b != e) {
            if (minPlus) { if (w.isFinite) acc.add(e, b, w) }
            else if (w != 0.0) acc.add(inN(e), outN(b), w)
          } else if (!minPlus) {
            val ret = w - 1.0 // strip the k = 0 identity term; keep returning mass
            if (math.abs(ret) > 1e-300) acc.add(inN(e), outN(e), ret)
          }
        }
      }
    }
    acc.result()
  }

  private def skeletonAbsorbing: Set[Long] =
    if (minPlus) algo.absorbing else algo.absorbing.flatMap(v => Seq(inN(v), outN(v)))

  /** Runs `f` on one payload per subgraph as parallel Spark tasks of one
    * job, with `f` as its only closure, and returns the results in payload
    * order: the runner of phase 1's shortcut deduction and of phase 4's
    * assignment.
    */
  private def perSubgraph[P: ClassTag, R: ClassTag](payload: Seq[P])(f: P => R): Array[R] =
    if (payload.isEmpty) Array.empty[R]
    else sc.runJob(sc.parallelize(payload, math.min(math.max(1, partitions), payload.size)),
      (it: Iterator[P]) => it.map(f).toArray).flatten

  // ---------------------------------------------------------------- offline

  def initialize(g0: GraphState, a: VCAlgo): SparkRun = {
    val t0 = System.nanoTime()
    g = g0.copyGraph(); algo = a; minPlus = algo.kind == MinPlus

    // dense subgraph discovery: candidates from Community.detectMap (capped
    // LPA + fragment merge), then Definition 2
    val cand = cfg.fixedMembership.getOrElse(
      Community.detectMap(spark, g.toDF(spark), cfg.lpaRounds, cfg.maxCommunitySize))
    val protectedVerts = algo.roots.getOrElse(Set.empty) ++ algo.absorbing
    memb = Layering.selectDense(g, cand, cfg, protectedVerts)
    numSg = if (memb.isEmpty) 0 else memb.values.max + 1

    // vertex replication (Section IV-A1)
    repl = Layering.planReplication(g, memb, cfg)
    repl.proxies.foreach(p => memb(p.id) = p.sg)
    hostInProxies = repl.inProxy.toSeq.groupBy(_._1._1)
      .view.mapValues(_.map { case ((_, i), p) => (i, p) }).toMap

    effAdj = Layering.effectiveAdjacency(g, algo, memb, repl)
    rolesArr = Layering.roles(effAdj, memb, numSg)

    // subgraph structures, with every shortcut row and L still empty
    val members = Array.fill(numSg)(mutable.ArrayBuffer.empty[Long])
    memb.foreach { case (v, i) => members(i) += v }
    sgs = Array.tabulate(numSg) { i =>
      val (verts, idx, adj) = Subgraphs.structure(i, members(i).toArray, effAdj, memb)
      val ent = rolesArr(i).entries.toArray.sorted
      val exi = rolesArr(i).exits.toArray.sorted
      SubgraphData(i, verts, idx, adj, ent, exi, rows = Array.fill(ent.length)(Array.empty[Double]),
        lvec = Array.empty, mHist = Array.fill(ent.length)(0.0))
    }

    // shortcut deduction (Equation 6): every row and L is deduced fresh
    val shortcutActs = deduceShortcuts(Map.empty)
    skelAdj = buildSkeleton()
    offlinePreprocessMs = (System.nanoTime() - t0) / 1000000

    // phases 2-4 from the empty memo: every state at X0, no upper
    // dependency tree, and M0 at the outlier roots
    states = mutable.LongMap.empty[Double]
    g.vertices.foreach(v => states(v) = algo.defaultState)
    repl.proxies.foreach(p => states(p.id) = algo.defaultState)
    upperParents = mutable.LongMap.empty[Long]
    propagate(t0, "layered_construction" -> offlinePreprocessMs, shortcutActs,
      affected = (0 until numSg).toSet, crossDiffs = Nil, oldRowsBySg = Map.empty,
      newBoundary = Set.empty, fresh = g.vertices)
  }

  // ------------------------------------------------------------ incremental

  def update(delta: GraphDelta): SparkRun = {
    val t0 = System.nanoTime()

    def effSources(u: Long): Seq[Long] =
      u +: hostInProxies.getOrElse(u, Nil).map(_._2)

    // snapshot pre-update effective rows of every possibly-affected source
    val rawSrcs = delta.updates.map(_.src).distinct
    val touchedEff = rawSrcs.flatMap(effSources).distinct
    val oldRows: Map[Long, Map[Long, Double]] =
      touchedEff.map(u => u -> effAdj.row(u).toMap).toMap

    val newVerts = delta.touchedVertices.filterNot(g.verts.contains)
    val effective = g.applyDelta(delta)
    delta.touchedVertices.foreach { v =>
      if (!states.contains(v)) states(v) = algo.defaultState
    }
    if (effective.isEmpty) {
      lastPhases = Seq("layer_update" -> 0L, "upload" -> 0L, "upper_iteration" -> 0L, "assignment" -> 0L)
      return SparkRun(resultStates, RunStats(0, 0, (System.nanoTime() - t0) / 1000000, lastPhases))
    }

    // ---- phase 1: layered graph update ------------------------------------
    val tA0 = System.nanoTime()
    effAdj = Layering.effectiveAdjacency(g, algo, memb, repl)

    // effective weighted diffs per touched source
    val diffs = mutable.ArrayBuffer.empty[Diff]
    val noW = if (minPlus) Double.PositiveInfinity else 0.0
    effective.map(_.src).distinct.flatMap(effSources).distinct.foreach { u =>
      val o = oldRows.getOrElse(u, Map.empty)
      val n = effAdj.row(u).toMap
      (o.keySet ++ n.keySet).foreach { v =>
        val wo = o.getOrElse(v, noW); val wn = n.getOrElse(v, noW)
        if (wo != wn) diffs += ((u, v, wo, wn))
      }
    }

    // a subgraph with a diff inside E_i is affected
    val crossDiffs = mutable.ArrayBuffer.empty[Diff]
    val sgChanges = mutable.Map.empty[Int, mutable.ArrayBuffer[Diff]]
    diffs.foreach { case d @ (u, v, _, _) =>
      if (sameSg(u, v)) sgChanges.getOrElseUpdate(memb(u), mutable.ArrayBuffer.empty) += d
      else crossDiffs += d
    }

    // role growth (monotone): new entries get empty shortcut rows, deduced
    // below; new exits and new entries gain skeleton shortcut links after
    // the rebuild
    val newRoles = Layering.roles(effAdj, memb, numSg)
    val newBoundary = mutable.Set.empty[Long]
    (0 until numSg).foreach { i =>
      val addEnt = newRoles(i).entries -- rolesArr(i).entries
      val addExi = newRoles(i).exits -- rolesArr(i).exits
      if (addEnt.nonEmpty || addExi.nonEmpty) {
        newBoundary ++= (addEnt ++ addExi) -- rolesArr(i).boundary
        rolesArr(i) = Roles(rolesArr(i).entries ++ addEnt, rolesArr(i).exits ++ addExi)
        val sg = sgs(i)
        sgs(i) = sg.copy(
          entries = sg.entries ++ addEnt.toArray.sorted,
          exits = (sg.exits ++ addExi).distinct.sorted,
          rows = sg.rows ++ Array.fill(addEnt.size)(Array.empty[Double]),
          mHist = sg.mHist ++ Array.fill(addEnt.size)(0.0))
      }
    }
    // affected subgraphs: refresh structure, then revise the memoized rows
    // incrementally against the local edge diffs (Section IV-B)
    sgChanges.keysIterator.foreach { i =>
      val sg = sgs(i)
      val (verts, idx, adj) = Subgraphs.structure(i, sg.verts, effAdj, memb)
      sgs(i) = sg.copy(verts = verts, idx = idx, adj = adj)
    }
    val oldRowsBySg = sgChanges.keysIterator.map(i => i -> ((sgs(i).entries, sgs(i).rows, sgs(i).idx))).toMap
    val shortcutActs = deduceShortcuts(sgChanges.view.mapValues(_.toArray).toMap)
    skelAdj = buildSkeleton()
    val tAMs = (System.nanoTime() - tA0) / 1000000

    propagate(t0, "layer_update" -> tAMs, shortcutActs, sgChanges.keySet.toSet, crossDiffs.toSeq,
      oldRowsBySg, newBoundary.toSet, newVerts)
  }

  /** Phases 2-4 (upload, upper iteration, assignment) over the layered
    * graph that phase 1 left in place; records `lastPhases`.
    *
    * @param phase1      name and wall ms of the phase that built the layers
    * @param affected    subgraphs whose E_i changed: their boundary states
    *                    are re-uploaded and they are assigned in full
    * @param crossDiffs  effective cross-edge diffs (u, v, wOld, wNew); the
    *                    no-edge weight is the semiring zero-weight
    * @param oldRowsBySg (entries, rows, idx) of the subgraphs whose MinPlus
    *                    shortcut diffs are uploaded, as before phase 1
    * @param newBoundary vertices that joined a subgraph's boundary in phase 1
    * @param fresh       vertices new to the memo; the outlier roots among
    *                    them carry M0
    */
  private def propagate(
      t0: Long,
      phase1: (String, Long),
      shortcutActs: Long,
      affected: Set[Int],
      crossDiffs: Seq[Diff],
      oldRowsBySg: Map[Int, (Array[Long], Array[Array[Double]], Map[Long, Int])],
      newBoundary: Set[Long],
      fresh: Iterable[Long],
  ): SparkRun = {
    // ---- phases 2+3: upload + upper-layer iteration -----------------------
    val tB0 = System.nanoTime()
    val m0 = fresh.iterator.filter(v => !memb.contains(v) && algo.roots.forall(_.contains(v)))
      .map(v => v -> algo.initMsg(v)).toSeq
    var uploadActs = 0L
    var upperStats = RunStats(0, 0, 0)
    var deltaM: Array[Array[Double]] = Array.empty
    var tBMs = 0L
    var tCMs = 0L

    if (minPlus) {
      val changes = mutable.ArrayBuffer.empty[MemoPath.EdgeChange]
      crossDiffs.foreach { case (u, v, wo, wn) =>
        if (wo.isFinite) changes += MemoPath.EdgeChange(u, v, wo, isAdd = false)
        if (wn.isFinite) changes += MemoPath.EdgeChange(u, v, wn, isAdd = true)
      }
      // shortcut weight diffs of affected subgraphs (upload, Eq. 7)
      oldRowsBySg.foreach { case (i, (oldEnt, oldR, oldIdx)) =>
        val sg = sgs(i)
        val bnd = boundaryOf(i)
        sg.entries.indices.foreach { k =>
          val e = sg.entries(k)
          val ko = oldEnt.indexOf(e)
          bnd.foreach { b =>
            if (b != e) {
              val wn = sg.rows(k)(sg.idx(b))
              val wo =
                if (ko >= 0 && oldR(ko).nonEmpty && oldIdx.contains(b)) oldR(ko)(oldIdx(b))
                else Double.PositiveInfinity
              if (wo != wn) {
                uploadActs += 1
                if (wo.isFinite) changes += MemoPath.EdgeChange(e, b, wo, isAdd = false)
                if (wn.isFinite) changes += MemoPath.EdgeChange(e, b, wn, isAdd = true)
              }
            }
          }
        }
      }
      tBMs = (System.nanoTime() - tB0) / 1000000

      val tC0 = System.nanoTime()
      val skelV = skeletonVerts
      val sub = mutable.LongMap.empty[Double]
      skelV.foreach(v => sub(v) = states.getOrElse(v, algo.defaultState))
      val entryOld = mutable.LongMap.empty[Double]
      (0 until numSg).foreach { i =>
        sgs(i).entries.foreach(e => entryOld(e) = sub.getOrElse(e, algo.defaultState))
      }
      // vertices promoted to the boundary this round are not in the upper
      // dependency tree yet, so subtree invalidation cannot reach them —
      // re-derive their states from scratch (pulls see the new shortcut
      // in-edges, so in-subgraph support is recovered)
      val r = MemoPath.incremental(algo, engine, skelAdj, skelAdj.reverse, sub,
        upperParents, changes.toSeq, extraInvalid = newBoundary, extraSeeds = m0)
      upperParents = r.parents
      r.states.foreach { case (v, x) => states(v) = x }
      upperStats = r.stats
      deltaM = sgs.map { sg =>
        Array.tabulate(sg.entries.length) { k =>
          val e = sg.entries(k)
          val now = states.getOrElse(e, algo.defaultState)
          sg.mHist(k) = now // MinPlus inbox == converged entry state
          if (now != entryOld.getOrElse(e, algo.defaultState)) 1.0 else 0.0
        }
      }
      tCMs = (System.nanoTime() - tC0) / 1000000
    } else {
      // upload: outlier roots seed M0 on their inbox node; boundary vertices
      // upload the change of their decomposition on the interior node (Eq. 7)
      val seeds = mutable.ArrayBuffer.empty[(Long, Double)]
      m0.foreach { case (v, m) => seeds += ((inN(v), m)) }
      crossDiffs.foreach { case (u, v, wo, wn) =>
        if (!algo.absorbing.contains(v)) {
          val xu = states.getOrElse(u, 0.0)
          val d = xu * (wn - wo)
          if (d != 0.0) seeds += ((inN(v), d))
        }
      }
      affected.foreach { i =>
        val sg = sgs(i)
        boundaryOf(i).foreach { b =>
          val j = sg.idx(b)
          var nb = sg.lvec(j)
          var k = 0
          while (k < sg.entries.length) { nb += sg.mHist(k) * sg.rows(k)(j); k += 1 }
          uploadActs += sg.entries.length
          val d = nb - states.getOrElse(b, 0.0)
          if (d != 0.0 && !algo.absorbing.contains(b)) seeds += ((outN(b), d))
        }
      }
      tBMs = (System.nanoTime() - tB0) / 1000000

      val tC0 = System.nanoTime()
      val skelV = skeletonVerts
      val sub = mutable.LongMap.empty[Double]
      skelV.foreach { v => sub(inN(v)) = 0.0; sub(outN(v)) = 0.0 }
      val run = engine.run(algo, skelAdj, sub, seeds.toSeq, absorbing = skeletonAbsorbing)
      upperStats = run.stats
      // an absorbing vertex receives nothing but its own M0 seed, so PHP's
      // root is pinned at M0 offline and left as it is by every update
      skelV.foreach { v =>
        val d = run.states.getOrElse(inN(v), 0.0) + run.states.getOrElse(outN(v), 0.0)
        if (d != 0.0) states(v) = states.getOrElse(v, 0.0) + d
      }
      deltaM = sgs.map(sg => sg.entries.map(e => run.states.getOrElse(inN(e), 0.0)))
      tCMs = (System.nanoTime() - tC0) / 1000000
    }

    // ---- phase 4: assignment (Equation 10) --------------------------------
    val tD0 = System.nanoTime()
    val a = algo
    // tasks get the decomposition (rows, L) and internal indices only; the
    // driver maps the returned states back to vertex ids
    val assigned = (0 until numSg).flatMap { i =>
      val sg = sgs(i)
      val dm = deltaM(i)
      if (!minPlus) sg.entries.indices.foreach(k => sg.mHist(k) += dm(k))
      val isAff = affected.contains(i)
      if (isAff || dm.exists(d => math.abs(d) > (if (minPlus) 0.0 else algo.eps / 10))) {
        val bnd = rolesArr(i).boundary
        val internal = sg.verts.indices.filter(j => !bnd.contains(sg.verts(j))).toArray
        val cur = internal.map(j => states.getOrElse(sg.verts(j), algo.defaultState))
        Some((sg.verts, internal, (sg.rows, sg.lvec, internal, sg.mHist.clone(), dm, isAff, cur)))
      } else None
    }
    var assignActs = 0L
    perSubgraph(assigned.map(_._3)) { case (rows, lvec, internal, mNew, dm, aff, cur) =>
      Subgraphs.assignInternal(a, rows, lvec, internal, mNew, dm, aff, cur)
    }.iterator.zip(assigned).foreach { case ((xs, ac), (verts, internal, _)) =>
      assignActs += ac
      var jj = 0
      while (jj < internal.length) { states(verts(internal(jj))) = xs(jj); jj += 1 }
    }
    val tDMs = (System.nanoTime() - tD0) / 1000000

    lastPhases = Seq(phase1, "upload" -> tBMs, "upper_iteration" -> tCMs, "assignment" -> tDMs)
    SparkRun(resultStates,
      RunStats(upperStats.iterations,
        shortcutActs + uploadActs + upperStats.activations + assignActs,
        (System.nanoTime() - t0) / 1000000, lastPhases))
  }

  // ------------------------------------------------------------------ parts

  /** Phase 1's shortcut work, as one job of per-subgraph tasks: a subgraph
    * with local edge diffs revises every row and L against them (Section
    * IV-B); any other subgraph deduces only its empty rows (new entries,
    * or every entry offline) and an empty L. Stores the results and
    * returns the activations spent.
    */
  private def deduceShortcuts(changesBySg: Map[Int, Array[Diff]]): Long = {
    val a = algo
    val payload = (0 until numSg).flatMap { i =>
      val sg = sgs(i)
      val changes = changesBySg.get(i)
      val ks = sg.entries.indices.filter(k => changes.isDefined || sg.rows(k).isEmpty).toArray
      if (ks.isEmpty && changes.isEmpty && sg.lvec.nonEmpty) None
      else {
        // proxies are phantoms: they never carry root messages M0
        val m0vec =
          if (a.roots.isEmpty) sg.verts.map(v => if (repl.isProxy(v)) 0.0 else a.initMsg(v))
          else Array.empty[Double]
        val local = changes.getOrElse(Array.empty).collect {
          case (u, v, wo, wn) if sg.idx.contains(u) && sg.idx.contains(v) => (sg.idx(u), sg.idx(v), wo, wn)
        }
        Some((i, ks, sg.verts.length, sg.adj, ks.map(k => sg.idx(sg.entries(k))), ks.map(sg.rows), sg.lvec,
          local, m0vec))
      }
    }
    var acts = 0L
    perSubgraph(payload) { case (i, ks, n, adj, entryIdxs, rows, lvec, local, m0vec) =>
      val (r, l, ac) = Subgraphs.deduce(a, n, adj, entryIdxs, rows, lvec, local, m0vec)
      (i, ks, r, l, ac)
    }.foreach { case (i, ks, rows, lvec, ac) =>
      acts += ac
      val sg = sgs(i)
      val newRows = sg.rows.clone()
      ks.indices.foreach(x => newRows(ks(x)) = rows(x))
      sgs(i) = sg.copy(rows = newRows, lvec = lvec)
    }
    acts
  }

  /** States of the real (non-proxy) vertices. */
  def resultStates: mutable.LongMap[Double] = {
    val out = mutable.LongMap.empty[Double]
    states.foreach { case (v, x) => if (!repl.isProxy(v)) out(v) = x }
    out
  }

  /** Upper-layer size (vertices, edges incl. shortcuts) — Figure 8a. For
    * SumTimes the split nodes carry each cross edge twice (from the inbox
    * and the interior node) and a returning-mass link per entry; it counts
    * what MinPlus counts: each cross edge once and each `b != e` shortcut
    * `inN(e) -> outN(b)` once.
    */
  def upperLayerSize: (Int, Long) = {
    val nE =
      if (minPlus) skelAdj.dst.length.toLong
      else skelAdj.edges.count { case (u, v, _) => u % 2 == 0 && v != u + 1 }.toLong
    (skeletonVerts.size, nE)
  }

  def subgraphStats: Seq[(Int, Int, Int, Int)] =
    (0 until numSg).map(i => (i, sgs(i).verts.length, sgs(i).entries.length, sgs(i).exits.length))
}

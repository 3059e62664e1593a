package repro.layph

import scala.collection.mutable
import org.apache.spark.sql.SparkSession
import repro.core._

/** Layph (ICDE'23): two-layered incremental graph processing.
  *
  * Offline, the graph is split into a small upper-layer skeleton L_up
  * (boundary vertices + outliers, connected by cross edges and deduced
  * shortcuts) and disjoint lower-layer dense subgraphs L_low. Each
  * incremental round then runs the paper's four phases:
  *
  *   1. layered graph update  — recompute shortcuts/L of subgraphs hit by
  *      ΔG, in parallel Spark tasks (Section IV-B);
  *   2. revision upload       — derive boundary revision messages from the
  *      per-subgraph decomposition (Equation 7);
  *   3. upper iteration       — fixpoint on the skeleton only (Equation 8),
  *      via [[SparkEngine]] (+ dependency-tree invalidation for MinPlus);
  *   4. assignment            — push each entry's accumulated inbox to the
  *      internal vertices straight through shortcuts (Equation 10).
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
  private var effAdj: Map[Long, Array[(Long, Double)]] = _
  private var states: mutable.LongMap[Double] = _
  private var skelAdj: Map[Long, Array[(Long, Double)]] = _
  private var upperParents: mutable.LongMap[Long] = _

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
  private def buildSkeleton(): Map[Long, Array[(Long, Double)]] = {
    val acc = mutable.LongMap.empty[mutable.ArrayBuffer[(Long, Double)]]
    def add(u: Long, v: Long, w: Double): Unit =
      acc.getOrElseUpdate(u, mutable.ArrayBuffer.empty) += ((v, w))

    effAdj.foreach { case (u, outs) =>
      outs.foreach { case (v, w) =>
        if (!sameSg(u, v)) {
          if (minPlus) add(u, v, w)
          else { add(inN(u), inN(v), w); add(outN(u), inN(v), w) }
        }
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
            if (minPlus) { if (w.isFinite) add(e, b, w) }
            else if (w != 0.0) add(inN(e), outN(b), w)
          } else if (!minPlus) {
            val ret = w - 1.0 // strip the k = 0 identity term; keep returning mass
            if (math.abs(ret) > 1e-300) add(inN(e), outN(e), ret)
          }
        }
      }
    }
    acc.iterator.map { case (u, b) => (u, b.toArray) }.toMap
  }

  private def reverse(adj: Map[Long, Array[(Long, Double)]]): Map[Long, Array[(Long, Double)]] = {
    val acc = mutable.LongMap.empty[mutable.ArrayBuffer[(Long, Double)]]
    adj.foreach { case (u, outs) =>
      outs.foreach { case (v, w) => acc.getOrElseUpdate(v, mutable.ArrayBuffer.empty) += ((u, w)) }
    }
    acc.iterator.map { case (v, b) => (v, b.toArray) }.toMap
  }

  private def skeletonAbsorbing: Set[Long] =
    if (minPlus) algo.absorbing else algo.absorbing.flatMap(v => Seq(inN(v), outN(v)))

  // ---------------------------------------------------------------- offline

  def initialize(g0: GraphState, a: VCAlgo): SparkRun = {
    g = g0.copyGraph(); algo = a; minPlus = algo.kind == MinPlus
    val tDetect0 = System.nanoTime()

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

    // subgraph structures
    val members = Array.fill(numSg)(mutable.ArrayBuffer.empty[Long])
    memb.foreach { case (v, i) => members(i) += v }
    sgs = Array.tabulate(numSg) { i =>
      val (verts, idx, adj) = Subgraphs.structure(i, members(i).toArray, effAdj, memb)
      val ent = rolesArr(i).entries.toArray.sorted
      val exi = rolesArr(i).exits.toArray.sorted
      SubgraphData(i, verts, idx, adj, ent, exi,
        rows = Array.empty, lvec = Array.empty, mHist = Array.fill(ent.length)(0.0))
    }
    val tDetectMs = (System.nanoTime() - tDetect0) / 1000000

    // shortcut deduction (Equation 6), one Spark task per subgraph
    val tRows0 = System.nanoTime()
    val shortcutActs = recomputeSubgraphData((0 until numSg).map(i => (i, sgs(i).entries.indices.toArray, true)))
    val tRowsMs = (System.nanoTime() - tRows0) / 1000000
    offlinePreprocessMs = tDetectMs + tRowsMs

    // initial states
    states = mutable.LongMap.empty[Double]
    g.vertices.foreach(v => states(v) = algo.defaultState)
    repl.proxies.foreach(p => states(p.id) = algo.defaultState)

    skelAdj = buildSkeleton()
    val tUpper0 = System.nanoTime()
    val upperStats: RunStats =
      if (minPlus) {
        val skelV = skeletonVerts
        val sub = mutable.LongMap.empty[Double]
        skelV.foreach(v => sub(v) = algo.defaultState)
        val seeds = algo.roots.get.toSeq.map(v => v -> algo.initMsg(v))
        val adjBc = sc.broadcast(skelAdj)
        val run = engine.run(algo, adjBc, sub, seeds, absorbing = algo.absorbing)
        adjBc.destroy()
        run.states.foreach { case (v, x) => states(v) = x }
        upperParents = MemoPath.computeParents(reverse(skelAdj), run.states)
        (0 until numSg).foreach { i =>
          val sg = sgs(i)
          sg.entries.indices.foreach(k => sg.mHist(k) = states.getOrElse(sg.entries(k), algo.defaultState))
        }
        run.stats
      } else {
        val skelV = skeletonVerts
        val sub = mutable.LongMap.empty[Double]
        skelV.foreach { v => sub(inN(v)) = 0.0; sub(outN(v)) = 0.0 }
        val seeds = mutable.ArrayBuffer.empty[(Long, Double)]
        // outliers seed their own M0 on the inbox node; boundary vertices
        // upload their local contribution L on the interior node (Eq. 7)
        skelV.foreach { v =>
          memb.get(v) match {
            case None =>
              val isRoot = algo.roots.forall(_.contains(v))
              if (isRoot) seeds += ((inN(v), algo.initMsg(v)))
            case Some(i) =>
              val l = sgs(i).lvec(sgs(i).idx(v))
              if (l != 0.0) seeds += ((outN(v), l))
          }
        }
        val adjBc = sc.broadcast(skelAdj)
        val run = engine.run(algo, adjBc, sub, seeds, absorbing = skeletonAbsorbing)
        adjBc.destroy()
        skelV.foreach { v =>
          states(v) = run.states.getOrElse(inN(v), 0.0) + run.states.getOrElse(outN(v), 0.0)
        }
        algo.absorbing.foreach(v => states(v) = algo.initMsg(v))
        (0 until numSg).foreach { i =>
          val sg = sgs(i)
          sg.entries.indices.foreach(k => sg.mHist(k) = run.states.getOrElse(inN(sg.entries(k)), 0.0))
        }
        run.stats
      }
    val tUpperMs = (System.nanoTime() - tUpper0) / 1000000

    // assignment of all subgraphs (Equation 10)
    val tAssign0 = System.nanoTime()
    val assignActs = runAssignment((0 until numSg).map { i =>
      val sg = sgs(i)
      i -> (sg.mHist.clone(), Array.fill(sg.entries.length)(0.0), true)
    }.toMap)
    val tAssignMs = (System.nanoTime() - tAssign0) / 1000000

    lastPhases = Seq(
      "layered_construction" -> (tDetectMs + tRowsMs),
      "upper_iteration" -> tUpperMs,
      "assignment" -> tAssignMs)
    SparkRun(resultStates,
      RunStats(upperStats.iterations, upperStats.activations + shortcutActs + assignActs,
        tDetectMs + tRowsMs + tUpperMs + tAssignMs, lastPhases))
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
      touchedEff.map(u => u -> effAdj.get(u).map(_.toMap).getOrElse(Map.empty)).toMap

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
    val diffs = mutable.ArrayBuffer.empty[(Long, Long, Double, Double)] // u, v, wOld (0/inf if none), wNew
    val noW = if (minPlus) Double.PositiveInfinity else 0.0
    effective.map(_.src).distinct.flatMap(effSources).distinct.foreach { u =>
      val o = oldRows.getOrElse(u, Map.empty)
      val n = effAdj.get(u).map(_.toMap).getOrElse(Map.empty)
      (o.keySet ++ n.keySet).foreach { v =>
        val wo = o.getOrElse(v, noW); val wn = n.getOrElse(v, noW)
        if (wo != wn) diffs += ((u, v, wo, wn))
      }
    }

    val affected = mutable.Set.empty[Int]
    val crossDiffs = mutable.ArrayBuffer.empty[(Long, Long, Double, Double)]
    val sgChanges = mutable.Map.empty[Int, mutable.ArrayBuffer[(Long, Long, Double, Double)]]
    diffs.foreach { case d @ (u, v, _, _) =>
      if (sameSg(u, v)) {
        val i = memb(u)
        affected += i
        sgChanges.getOrElseUpdate(i, mutable.ArrayBuffer.empty) += d
      } else crossDiffs += d
    }

    // role growth (monotone): new entries need shortcut rows; new exits and
    // new entries gain skeleton shortcut links after the rebuild
    val newRoles = Layering.roles(effAdj, memb, numSg)
    val newBoundary = mutable.Map.empty[Int, Set[Long]]
    val rowTasks = mutable.ArrayBuffer.empty[(Int, Array[Int], Boolean)]
    (0 until numSg).foreach { i =>
      val addEnt = newRoles(i).entries -- rolesArr(i).entries
      val addExi = newRoles(i).exits -- rolesArr(i).exits
      if (addEnt.nonEmpty || addExi.nonEmpty) {
        newBoundary(i) = (addEnt ++ addExi) -- rolesArr(i).boundary
        rolesArr(i) = Roles(rolesArr(i).entries ++ addEnt, rolesArr(i).exits ++ addExi)
        val sg = sgs(i)
        val keep = sg.entries.length
        val entries2 = sg.entries ++ addEnt.toArray.sorted
        sgs(i) = sg.copy(
          entries = entries2,
          exits = (sg.exits ++ addExi).distinct.sorted,
          rows = sg.rows ++ Array.fill(addEnt.size)(Array.empty[Double]),
          mHist = sg.mHist ++ Array.fill(addEnt.size)(0.0))
        if (addEnt.nonEmpty && !affected.contains(i))
          rowTasks += ((i, (keep until entries2.length).toArray, false))
      }
    }
    // affected subgraphs: refresh structure, then revise the memoized rows
    // incrementally against the local edge diffs (Section IV-B)
    affected.foreach { i =>
      val sg = sgs(i)
      val (verts, idx, adj) = Subgraphs.structure(i, sg.verts, effAdj, memb)
      sgs(i) = sg.copy(verts = verts, idx = idx, adj = adj)
    }
    val oldRowsBySg: Map[Int, (Array[Long], Array[Array[Double]], Map[Long, Int])] =
      affected.iterator.map(i => i -> ((sgs(i).entries, sgs(i).rows, sgs(i).idx))).toMap
    val shortcutActs = recomputeSubgraphData(rowTasks.toSeq) +
      updateSubgraphDataIncremental(affected.toSeq.sorted,
        sgChanges.view.mapValues(_.toArray).toMap)
    val oldSkel = skelAdj
    skelAdj = buildSkeleton()
    val tAMs = (System.nanoTime() - tA0) / 1000000

    // ---- phases 2+3: upload + upper-layer iteration -----------------------
    val tB0 = System.nanoTime()
    var uploadActs = 0L
    var upperStats = RunStats(0, 0, 0)
    var deltaM: Map[Int, Array[Double]] = Map.empty
    var tBMs = 0L
    var tCMs = 0L

    if (minPlus) {
      val changes = mutable.ArrayBuffer.empty[MemoPath.EdgeChange]
      crossDiffs.foreach { case (u, v, wo, wn) =>
        if (wo.isFinite) changes += MemoPath.EdgeChange(u, v, wo, isAdd = false)
        if (wn.isFinite) changes += MemoPath.EdgeChange(u, v, wn, isAdd = true)
      }
      // shortcut weight diffs of affected subgraphs (upload, Eq. 7)
      affected.foreach { i =>
        val sg = sgs(i)
        val (oldEnt, oldR, oldIdx) = oldRowsBySg(i)
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
      // vertices promoted to the boundary this round are not in the upper
      // dependency tree yet, so subtree invalidation cannot reach them —
      // re-derive their states from scratch (pulls see the new shortcut
      // in-edges, so in-subgraph support is recovered)
      val extraInvalid = newBoundary.valuesIterator.flatten.toSet
      tBMs = (System.nanoTime() - tB0) / 1000000

      val tC0 = System.nanoTime()
      val skelV = skeletonVerts
      val sub = mutable.LongMap.empty[Double]
      skelV.foreach(v => sub(v) = states.getOrElse(v, algo.defaultState))
      val skelRadj = reverse(skelAdj)
      val adjBc = sc.broadcast(skelAdj)
      val entryOld = mutable.LongMap.empty[Double]
      (0 until numSg).foreach { i =>
        sgs(i).entries.foreach(e => entryOld(e) = sub.getOrElse(e, algo.defaultState))
      }
      val r = MemoPath.incremental(algo, engine, skelAdj, adjBc, skelRadj, sub, upperParents,
        changes.toSeq, extraInvalid = extraInvalid)
      adjBc.destroy()
      upperParents = r.parents
      r.states.foreach { case (v, x) => states(v) = x }
      upperStats = r.stats
      deltaM = (0 until numSg).iterator.map { i =>
        val sg = sgs(i)
        val dm = Array.tabulate(sg.entries.length) { k =>
          val e = sg.entries(k)
          val now = states.getOrElse(e, algo.defaultState)
          sg.mHist(k) = now // MinPlus inbox == converged entry state
          if (now != entryOld.getOrElse(e, algo.defaultState)) 1.0 else 0.0
        }
        i -> dm
      }.toMap
      tCMs = (System.nanoTime() - tC0) / 1000000
    } else {
      // upload: boundary revision deltas from the decomposition (Eq. 7)
      val seeds = mutable.ArrayBuffer.empty[(Long, Double)]
      // vertices that joined the graph carry fresh root messages M0
      if (algo.roots.isEmpty) newVerts.foreach(v => seeds += ((inN(v), algo.initMsg(v))))
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
      val adjBc = sc.broadcast(skelAdj)
      val run = engine.run(algo, adjBc, sub, seeds.toSeq, absorbing = skeletonAbsorbing)
      adjBc.destroy()
      upperStats = run.stats
      skelV.foreach { v =>
        val d = run.states.getOrElse(inN(v), 0.0) + run.states.getOrElse(outN(v), 0.0)
        if (d != 0.0 && !algo.absorbing.contains(v))
          states(v) = states.getOrElse(v, 0.0) + d
      }
      deltaM = (0 until numSg).iterator.map { i =>
        val sg = sgs(i)
        val dm = Array.tabulate(sg.entries.length)(k => run.states.getOrElse(inN(sg.entries(k)), 0.0))
        i -> dm
      }.toMap
      tCMs = (System.nanoTime() - tC0) / 1000000
    }

    // ---- phase 4: assignment ---------------------------------------------
    val tD0 = System.nanoTime()
    val trigger = (0 until numSg).flatMap { i =>
      val sg = sgs(i)
      val dm = deltaM.getOrElse(i, Array.fill(sg.entries.length)(0.0))
      if (!minPlus) sg.entries.indices.foreach(k => sg.mHist(k) += dm(k))
      val isAff = affected.contains(i)
      val hasDm = dm.exists(d => math.abs(d) > (if (minPlus) 0.0 else algo.eps / 10))
      if (isAff || hasDm) Some(i -> ((sg.mHist.clone(), dm, isAff))) else None
    }.toMap
    val assignActs = runAssignment(trigger)
    val tDMs = (System.nanoTime() - tD0) / 1000000

    lastPhases = Seq(
      "layer_update" -> tAMs, "upload" -> tBMs,
      "upper_iteration" -> tCMs, "assignment" -> tDMs)
    SparkRun(resultStates,
      RunStats(upperStats.iterations,
        shortcutActs + uploadActs + upperStats.activations + assignActs,
        (System.nanoTime() - t0) / 1000000, lastPhases))
  }

  // ------------------------------------------------------------------ parts

  /** Runs shortcut/L computation for the given (sgId, entryRowIdxs, needL)
    * tasks as parallel Spark tasks, stores results, returns activations.
    */
  private def recomputeSubgraphData(tasks: Seq[(Int, Array[Int], Boolean)]): Long = {
    if (tasks.isEmpty) return 0L
    val a = algo
    val everyVertexRoots = algo.roots.isEmpty
    val payload = tasks.map { case (i, ks, needL) =>
      val sg = sgs(i)
      // proxies are phantoms: they never carry root messages M0
      val m0vec =
        if (needL && everyVertexRoots)
          sg.verts.map(v => if (repl.isProxy(v)) 0.0 else algo.initMsg(v))
        else Array.empty[Double]
      (i, sg.adj, ks.map(k => sg.idx(sg.entries(k))), ks, needL, m0vec)
    }
    val results = sc.parallelize(payload, math.min(math.max(1, partitions), payload.size))
      .map { case (i, adj, entryIdxs, ks, needL, m0vec) =>
        val (rows, lvec, acts) = Subgraphs.computeRowsAndL(a, adj, entryIdxs, m0vec)
        (i, ks, rows, if (needL) Some(lvec) else None, acts)
      }
      .collect()
    var acts = 0L
    results.foreach { case (i, ks, rows, lvecOpt, ac) =>
      acts += ac
      val sg = sgs(i)
      val newRows = if (sg.rows.length == sg.entries.length) sg.rows.clone()
        else Array.fill(sg.entries.length)(Array.empty[Double])
      ks.zipWithIndex.foreach { case (k, x) => newRows(k) = rows(x) }
      sgs(i) = sg.copy(rows = newRows, lvec = lvecOpt.getOrElse(
        if (sg.lvec.nonEmpty) sg.lvec
        else Array.fill(sg.verts.length)(if (minPlus) algo.defaultState else 0.0)))
    }
    acts
  }

  /** Revises rows/L of the given subgraphs against their local edge diffs
    * (incremental shortcut update, Section IV-B), as parallel Spark tasks.
    * Brand-new entries (empty memoized rows) are deduced fresh inside the
    * same task. Returns activations spent.
    */
  private def updateSubgraphDataIncremental(
      ids: Seq[Int],
      changesBySg: Map[Int, Array[(Long, Long, Double, Double)]],
  ): Long = {
    if (ids.isEmpty) return 0L
    val a = algo
    val everyVertexRoots = algo.roots.isEmpty
    val payload = ids.map { i =>
      val sg = sgs(i)
      val m0vec =
        if (everyVertexRoots) sg.verts.map(v => if (repl.isProxy(v)) 0.0 else a.initMsg(v))
        else Array.empty[Double]
      val localChanges = changesBySg.getOrElse(i, Array.empty).collect {
        case (u, v, wo, wn) if sg.idx.contains(u) && sg.idx.contains(v) =>
          (sg.idx(u), sg.idx(v), wo, wn)
      }
      val rows = if (sg.rows.length == sg.entries.length) sg.rows
        else Array.fill(sg.entries.length)(Array.empty[Double])
      val lvec = if (sg.lvec.nonEmpty) sg.lvec
        else Array.fill(sg.verts.length)(if (minPlus) a.defaultState else 0.0)
      (i, sg.adj, sg.entries.map(sg.idx), rows, lvec, localChanges, m0vec)
    }
    val results = sc.parallelize(payload, math.min(math.max(1, partitions), payload.size))
      .map { case (i, adj, entryIdxs, rows, lvec, localChanges, m0vec) =>
        val (r2, l2, acts) = Subgraphs.updateRowsAndL(a, adj, entryIdxs, rows, lvec, localChanges, m0vec)
        (i, r2, l2, acts)
      }
      .collect()
    var acts = 0L
    results.foreach { case (i, rows, lvec, ac) =>
      acts += ac
      sgs(i) = sgs(i).copy(rows = rows, lvec = lvec)
    }
    acts
  }

  /** Parallel assignment; returns activations spent. */
  private def runAssignment(trigger: Map[Int, (Array[Double], Array[Double], Boolean)]): Long = {
    if (trigger.isEmpty) return 0L
    val a = algo
    val payload = trigger.toSeq.map { case (i, (mNew, dm, aff)) =>
      val sg = sgs(i)
      val internal = sg.verts.indices.filter { j =>
        !rolesArr(i).boundary.contains(sg.verts(j))
      }.toArray
      val cur = internal.map(j => states.getOrElse(sg.verts(j), a.defaultState))
      (sg, internal, mNew, dm, aff, cur)
    }
    val results = sc.parallelize(payload, math.min(math.max(1, partitions), payload.size))
      .map { case (sg, internal, mNew, dm, aff, cur) =>
        Subgraphs.assignInternal(a, sg, internal, mNew, dm, aff, cur)
      }
      .collect()
    var acts = 0L
    results.foreach { case (updates, ac) =>
      acts += ac
      updates.foreach { case (v, x) => states(v) = x }
    }
    acts
  }

  /** States of the real (non-proxy) vertices. */
  def resultStates: mutable.LongMap[Double] = {
    val out = mutable.LongMap.empty[Double]
    states.foreach { case (v, x) => if (!repl.isProxy(v)) out(v) = x }
    out
  }

  /** Upper-layer size (vertices, edges incl. shortcuts) — Figure 8a. */
  def upperLayerSize: (Int, Long) = {
    val nV = skeletonVerts.size
    val nE = skelAdj.valuesIterator.map(_.length.toLong).sum
    (nV, if (minPlus) nE else nE / 2) // split nodes double-count sum edges
  }

  def subgraphStats: Seq[(Int, Int, Int, Int)] =
    (0 until numSg).map(i => (i, sgs(i).verts.length, sgs(i).entries.length, sgs(i).exits.length))
}

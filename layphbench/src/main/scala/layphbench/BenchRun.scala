package layphbench

import scala.collection.mutable
import org.apache.spark.sql.SparkSession
import org.apache.spark.util.SizeEstimator
import repro.bench.{Harness, Workloads}
import repro.core._
import repro.ingress.IngressEngine
import repro.layph.{Community, Layering, LayphConfig, LayphEngine, Replication}

/** What one run prints and stores. */
final case class RunResult(
    fingerprint: Fingerprint,
    report: Seq[String], // human-readable lines printed before the result line
    line: String,        // the result line
    record: String,      // fingerprint, ungated figures and result line, stored per run
)

/** The layer state Layph builds at initialize, rebuilt by the benchmark
  * with the same public calls on its own copy of the graph.
  */
final case class OwnLayers(memb: mutable.LongMap[Int], repl: Replication, numSg: Int)

/** One system's view of one update. */
final case class UpdateSample(
    wallMs: Double,
    deltaSize: Int,
    rounds: Int,
    activations: Long,
    err: Double,
    failed: Boolean,
    trace: Option[UpdateTrace],
)

/** Listener figures of one traced update of one system. */
final case class UpdateTrace(spark: JobTotals, driverMs: Double, subgraphTasks: JobTotals, phases: Map[String, Double])

/** One run: set up, then a closed loop with one client that applies the
  * next ΔG to Layph and to Ingress once both returned from the previous
  * one, and checks both results against `LocalEngine.batch` on the
  * benchmark's own copy of the graph.
  *
  * Untraced runs report the end-to-end metrics. Traced runs report the
  * per-layer metrics: they alternate untraced and traced updates, and only
  * traced updates carry the Spark listener and the benchmark's own timed
  * calls into layer functions, which all happen outside the timed
  * `update`. The difference between the two kinds of update is the
  * tracing overhead.
  */
final class BenchRun(spark: SparkSession, wl: Workload, opts: Options) {
  private val sc = spark.sparkContext
  private val algo = wl.algo
  private val cfg = LayphConfig()
  private val started = System.nanoTime()
  /** No new update starts after this, so a run ends well within 180 s. */
  private val HardStopS = 110.0
  /** ΔGs per run: one per `SecondsPerDelta` of `--seconds`, at least two.
    * The count depends on `--seconds` alone, so every run of a seed times
    * the same ΔGs however busy the host is. A loop bounded by time would
    * fit fewer ΔGs on a slow host, and since update costs drift along the
    * stream, its medians would move with the count as well as the host.
    */
  private val deltaCount = math.max(2, opts.seconds / BenchRun.SecondsPerDelta)

  private def sinceS(t0: Long): Double = (System.nanoTime() - t0) / 1e9
  private def timedMs[A](f: => A): (A, Double) = {
    val t0 = System.nanoTime(); val a = f; (a, (System.nanoTime() - t0) / 1e6)
  }

  private final class Setup(val g: GraphState, val layph: LayphEngine, val ingress: IngressEngine,
                            val seconds: Double, val layphInitMs: Double, val ingressInitMs: Double,
                            val initErr: Double)

  /** Graph generation plus both `initialize` calls: what `setup_s` times. */
  private def setUp(): Setup = {
    val t0 = System.nanoTime()
    val g = Workloads.build(spark, wl.graph)
    val layph = new LayphEngine(spark, cfg)
    val (li, lMs) = timedMs(layph.initialize(g, algo))
    val ingress = new IngressEngine(spark)
    val (ii, iMs) = timedMs(ingress.initialize(g, algo))
    val s = sinceS(t0)
    val ref = LocalEngine.batch(algo, g).states
    val err = math.max(Harness.maxErr(ref, li.states), Harness.maxErr(ref, ii.states))
    new Setup(g, layph, ingress, s, lMs, iMs, err)
  }

  def execute(): RunResult = {
    val su = setUp()
    val ref = su.g.copyGraph()
    val values = mutable.LinkedHashMap.empty[String, Double]
    val progress = mutable.ArrayBuffer.empty[String]

    // the benchmark's own layering of its copy, for timing layer functions
    val listener = if (opts.trace) Some(new JobListener(sc)) else None
    val ownLayers = if (opts.trace) Some(layerOwnCopy(ref, values)) else None

    val samples = Map("layph" -> mutable.ArrayBuffer.empty[UpdateSample],
                      "ingress" -> mutable.ArrayBuffer.empty[UpdateSample])
    val probes = mutable.ArrayBuffer.empty[Map[String, Double]]
    val series = mutable.ArrayBuffer.empty[String]
    val batchMs = mutable.ArrayBuffer.empty[Double]
    val applyMs = mutable.ArrayBuffer.empty[Double]
    val deltaHashes = mutable.ArrayBuffer.empty[Int]
    // The heap is read after the second ΔG, a fixed point of the stream.
    val HeapAfter = 2
    var heapMb = Double.NaN

    // Set-up leaves garbage behind; collect it before the first timed update
    // rather than during it.
    System.gc()
    var i = 0
    while (i < deltaCount && sinceS(started) < HardStopS) {
      val d = wl.delta(ref, opts.seed, i)
      deltaHashes += Fingerprint.deltaHash(d)
      applyMs += timedMs(ref.applyDelta(d))._2
      val (expect, bMs) = timedMs(LocalEngine.batch(algo, ref).states)
      batchMs += bMs
      val traced = opts.trace && i % 2 == 1
      listener.filter(_ => traced).foreach(sc.addSparkListener)
      val order = if (i % 2 == 0) Seq("layph", "ingress") else Seq("ingress", "layph")
      val windows = order.map { name =>
        val system: IncrementalSystem = if (name == "layph") su.layph else su.ingress
        val from = System.currentTimeMillis()
        val t0 = System.nanoTime()
        val run = try Right(system.update(d)) catch { case e: Exception => Left(e) }
        val wall = (System.nanoTime() - t0) / 1e6
        val to = System.currentTimeMillis()
        val sample = run match {
          case Right(r) =>
            val err = Harness.maxErr(expect, r.states)
            UpdateSample(wall, d.size, r.stats.iterations, r.stats.activations, err, !(err <= wl.tol), None)
          case Left(e) =>
            System.err.println(s"$name update $i failed: $e")
            UpdateSample(wall, d.size, 0, 0, Double.PositiveInfinity, failed = true, None)
        }
        samples(name) += sample
        progress += f"update $i%3d $name%-7s dG=${d.size}%4d wall_ms=${sample.wallMs}%9.1f " +
          f"rounds=${sample.rounds}%3d activations=${sample.activations}%9d max_err=${sample.err}%.3g" +
          (if (traced) " traced" else "")
        name -> (from, to)
      }.toMap
      if (traced) listener.foreach { l =>
        l.drain()
        sc.removeSparkListener(l)
        windows.foreach { case (name, (from, to)) =>
          val jobs = l.jobsBetween(from, to)
          val buf = samples(name)
          val s = buf.last
          val phases = if (name == "layph") su.layph.lastPhases.map { case (k, v) => k -> v.toDouble }.toMap else Map.empty[String, Double]
          val sparkMs = Stats.coveredMs(jobs.map(j => (j.startMs.toDouble, j.endMs.toDouble)), from.toDouble, to.toDouble)
          buf(buf.length - 1) = s.copy(trace = Some(UpdateTrace(
            spark = JobTotals.of(jobs.filter(_.layer == "SparkEngine"), l.stage),
            driverMs = s.wallMs - sparkMs,
            subgraphTasks = JobTotals.of(jobs.filter(_.layer == "LayphEngine"), l.stage),
            phases = phases)))
          progress += f"  accounting $name%-7s wall_ms=${s.wallMs}%.1f = driver_ms ${s.wallMs - sparkMs}%.1f + " +
            f"spark_job_ms $sparkMs%.1f over ${jobs.size} jobs " +
            jobs.groupBy(_.layer).view.mapValues(_.size).toSeq.sorted.mkString("(", ", ", ")")
        }
        probes += probeLayers(ref, expect, ownLayers.get)
      }
      if (opts.trace) {
        val (skV, skE) = su.layph.upperLayerSize
        series += Json.obj(Seq("update" -> i.toString, "skeleton_v" -> skV.toString,
          "skeleton_e" -> skE.toString, "subgraphs" -> su.layph.subgraphStats.size.toString))
      }
      i += 1
      if (i == HeapAfter) heapMb = heapInUseMb()
    }

    val all = samples.values.flatten.toSeq
    val failed = all.count(_.failed)
    values("failed_share") = failed.toDouble / all.size
    Metrics.systems.foreach { s =>
      val xs = samples(s).toSeq
      values(s"$s.max_err") = xs.map(_.err).max
      values(s"$s.update_ms_p50") = Stats.hdMedian(xs.map(_.wallMs))
      values(s"$s.updates_per_s") = Stats.throughput(xs.map(_.deltaSize), xs.map(_.wallMs))
      values(s"$s.activations") = Stats.mean(xs.map(_.activations.toDouble))
    }
    values("setup_s") = su.seconds
    values("heap_mb") = heapMb

    if (opts.trace) traceValues(samples.view.mapValues(_.toSeq).toMap, probes.toSeq, su, values)
    values("LocalEngine.batch_ms") = Stats.median(batchMs.toSeq)
    values("GraphState.apply_delta_ms") = Stats.mean(applyMs.toSeq)
    values("layph.init_ms") = su.layphInitMs
    values("ingress.init_ms") = su.ingressInitMs
    values("layph.offline_ms") = su.layph.offlinePreprocessMs.toDouble
    val (skV, skE) = su.layph.upperLayerSize
    values("layph.skeleton_v") = skV
    values("layph.skeleton_e") = skE.toDouble
    values("layph.subgraphs") = su.layph.subgraphStats.size

    val initOk = su.initErr <= wl.tol
    val correct = initOk && failed == 0
    val fp = Fingerprint(wl.name, opts.seed, su.g.numVertices, su.g.numEdges, Fingerprint.edgeHash(su.g),
      deltaHashes.toSeq, Runtime.getRuntime.availableProcessors(), sc.master, sc.defaultParallelism)

    val shown = Metrics.endToEnd ++ Metrics.ungated ++ (if (opts.trace) Metrics.perLayer else Nil)
    val table = shown.distinct.map(m => f"  ${m.name}%-40s ${values.getOrElse(m.name, Double.NaN)}%16.6g ${m.unit}")
    val report =
      Seq(s"fingerprint ${fp.toJson}") ++ progress ++
        series.map("series " + _) ++
        Seq(s"workload ${wl.name} seed ${opts.seed}: ${samples("layph").size} updates per system, " +
          f"set-up ${su.seconds}%.2f s (layph init ${su.layphInitMs / 1000}%.2f s), " +
          s"initial states ${if (initOk) "correct" else "WRONG"}") ++ table
    val line = Metrics.resultLine(correct, all.size, failed, values.toMap, opts.trace)
    val ungated = Json.obj(Metrics.ungated.map(m => m.name -> Json.num(values(m.name))))
    val record = Json.obj(Seq("fingerprint" -> fp.toJson, "ungated" -> ungated, "result" -> Json.str(line)))
    RunResult(fp, report, line, record)
  }

  /** Driver heap in use after a full collection, with both systems live. */
  private def heapInUseMb(): Double = {
    System.gc(); System.gc()
    val rt = Runtime.getRuntime
    (rt.totalMemory() - rt.freeMemory()) / (1024.0 * 1024.0)
  }

  private def layerOwnCopy(g: GraphState, values: mutable.Map[String, Double]): OwnLayers = {
    val (detected, detectMs) = timedMs(Community.detectMap(spark, g.toDF(spark), cfg.lpaRounds, cfg.maxCommunitySize))
    val (cand, aggMs) = timedMs(Community.agglomerate(g.edges, detected, cfg.maxCommunitySize))
    val protectedVerts = algo.roots.getOrElse(Set.empty) ++ algo.absorbing
    val (memb, selMs) = timedMs(Layering.selectDense(g, cand, cfg, protectedVerts))
    val numSg = if (memb.isEmpty) 0 else memb.values.max + 1
    val repl = Layering.planReplication(g, memb, cfg)
    repl.proxies.foreach(p => memb(p.id) = p.sg)
    values("Community.detect_ms") = detectMs
    values("Community.agglomerate_ms") = aggMs
    values("Layering.select_dense_ms") = selMs
    OwnLayers(memb, repl, numSg)
  }

  /** Times the per-update rebuilds the engines make, on the benchmark's copy. */
  private def probeLayers(g: GraphState, states: mutable.LongMap[Double], own: OwnLayers): Map[String, Double] = {
    val (adj, adjMs) = timedMs(g.adjacency(algo))
    val (radj, radjMs) = timedMs(g.reverseAdjacency(algo))
    val (_, parentsMs) = timedMs(MemoPath.computeParents(radj, states))
    val (eff, effMs) = timedMs(Layering.effectiveAdjacency(g, algo, own.memb, own.repl))
    val (_, rolesMs) = timedMs(Layering.roles(eff, own.memb, own.numSg))
    Map(
      "GraphState.adjacency_ms" -> adjMs,
      "GraphState.reverse_adjacency_ms" -> radjMs,
      "GraphState.adjacency_bytes" -> SizeEstimator.estimate(adj).toDouble,
      "MemoPath.compute_parents_ms" -> parentsMs,
      "Layering.effective_adjacency_ms" -> effMs,
      "Layering.roles_ms" -> rolesMs)
  }

  /** Per-layer values: means over the traced updates. */
  private def traceValues(samples: Map[String, Seq[UpdateSample]], probes: Seq[Map[String, Double]],
                          su: Setup, values: mutable.Map[String, Double]): Unit = {
    Metrics.systems.foreach { s =>
      val tr = samples(s).filter(_.trace.isDefined)
      def avg(f: UpdateSample => Double): Double = Stats.mean(tr.map(f))
      def sp(f: JobTotals => Double): Double = avg(u => f(u.trace.get.spark))
      val p = s"$s.SparkEngine"
      values(s"$p.rounds") = avg(_.rounds.toDouble)
      values(s"$p.jobs") = sp(_.jobs.toDouble)
      values(s"$p.round_ms_p50") = sp(_.jobMsP50)
      values(s"$p.job_ms") = sp(_.jobMs)
      values(s"$p.sched_ms") = sp(_.schedMs)
      values(s"$p.tasks") = sp(_.stages.tasks.toDouble)
      values(s"$p.task_run_ms") = sp(_.stages.runMs.toDouble)
      values(s"$p.task_cpu_ms") = sp(_.stages.cpuNs / 1e6)
      values(s"$p.task_deser_ms") = sp(_.stages.deserMs.toDouble)
      values(s"$p.shuffle_bytes") = sp(_.stages.shuffleBytes.toDouble)
      values(s"$p.shuffle_records") = sp(_.stages.shuffleRecords.toDouble)
      values(s"$p.result_bytes") = sp(_.stages.resultBytes.toDouble)
      values(s"$p.gc_ms") = sp(_.stages.gcMs.toDouble)
      values(s"$s.driver_ms") = avg(_.trace.get.driverMs)
    }
    val lt = samples("layph").filter(_.trace.isDefined).map(_.trace.get)
    Seq("layer_update", "upload", "upper_iteration", "assignment").foreach { ph =>
      values(s"layph.phase.${ph}_ms") = Stats.mean(lt.map(_.phases.getOrElse(ph, 0.0)))
    }
    values("layph.subgraph_tasks.jobs") = Stats.mean(lt.map(_.subgraphTasks.jobs.toDouble))
    values("layph.subgraph_tasks.job_ms") = Stats.mean(lt.map(_.subgraphTasks.jobMs))
    values("layph.subgraph_tasks.task_run_ms") = Stats.mean(lt.map(_.subgraphTasks.stages.runMs.toDouble))
    values("layph.subgraph_tasks.result_bytes") = Stats.mean(lt.map(_.subgraphTasks.stages.resultBytes.toDouble))
    probes.headOption.foreach(_.keys.foreach(k => values(k) = Stats.mean(probes.map(_(k)))))
    val (traced, untraced) = samples("layph").partition(_.trace.isDefined)
    values("trace_overhead_ms") = Stats.hdMedian(traced.map(_.wallMs)) - Stats.hdMedian(untraced.map(_.wallMs))
  }
}

object BenchRun {
  /** About what one Layph update plus one Ingress update of ~1000 changes
    * take on 4 cores.
    */
  val SecondsPerDelta = 5
}

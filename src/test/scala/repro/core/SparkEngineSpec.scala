package repro.core

import scala.collection.mutable
import org.apache.spark.scheduler._
import repro.{Oracle, SparkSpec}
import repro.TestUtil.assertClose
import repro.ingress.Revision

/** The distributed engine must agree with the local reference engine on
  * every algorithm, batch and seeded, and with DuckDB's recursive-CTE
  * shortest paths; each BSP round must stay one shuffle-free Spark job.
  */
class SparkEngineSpec extends SparkSpec {
  private lazy val engine = new SparkEngine(spark, 4)

  private val algos: Seq[(String, GraphState => VCAlgo)] = Seq(
    ("SSSP", _ => SSSP(0)),
    ("BFS", _ => BFS(0)),
    ("PageRank", _ => PageRank(eps = 1e-7)),
    ("PHP", _ => PHP(0, eps = 1e-7)),
  )

  for ((name, mk) <- algos; seed <- 1 to 4) {
    test(s"SparkEngine batch == LocalEngine batch: $name seed $seed") {
      val g = GraphGen.random(70, 3.0, seed * 31)
      val algo = mk(g)
      val s = engine.batch(algo, g)
      val l = LocalEngine.batch(algo, g)
      assertClose(l.states, s.states, 1e-6, s"$name/$seed")
    }
  }

  test("SparkEngine counts exactly LocalEngine's SSSP batch activations") {
    val g = GraphGen.random(80, 3.0, 99)
    val s = engine.batch(SSSP(0), g)
    val l = LocalEngine.batch(SSSP(0), g)
    // BSP schedules coincide: both engines process the same frontier
    assert(s.stats.activations == l.stats.activations)
  }

  /** Converged states on a random graph, then a ΔG applied to the graph and
    * the revision messages an incremental system seeds for it: MinPlus
    * pushes over inserted edges, SumTimes sends Ingress's revision deltas.
    */
  private def seededCase(algo: VCAlgo, seed: Int): (GraphState, mutable.LongMap[Double], Seq[(Long, Double)]) = {
    val g = GraphGen.random(70, 3.0, seed * 31)
    val states = LocalEngine.batch(algo, g).states
    val delta = GraphGen.delta(g, 10, if (algo.selective) 0 else 10, seed)
    val diffs = g.applyDelta(delta, algo)
    val seeds = algo.kind match {
      case MinPlus =>
        diffs.filter(d => d.wNew.isFinite && states(d.src).isFinite)
          .map(d => d.dst -> algo.gen(states(d.src), d.wNew))
      case SumTimes => Revision.sumSeeds(diffs, states, algo.absorbing)
    }
    assert(seeds.nonEmpty && states.valuesIterator.exists(x => x.isFinite && x != 0.0))
    (g, states, seeds)
  }

  /** Runs both engines from the same states and seeds; returns (local, spark). */
  private def both(algo: VCAlgo, g: GraphState, states: mutable.LongMap[Double],
                   seeds: Seq[(Long, Double)], emitThreshold: Double = Double.NaN,
                   maxIter: Int = Int.MaxValue): (RunStats, RunStats) = {
    val adj = g.adjacency(algo)
    val l = LocalEngine.run(algo, adj, states.clone(), seeds,
      emitThreshold, algo.absorbing, maxIter)
    val s = engine.run(algo, adj, states, seeds, emitThreshold, algo.absorbing, maxIter)
    val tol = if (algo.selective) 0.0 else 1e-9
    assertClose(l.states, s.states, tol, s"${algo.name} maxIter $maxIter")
    (l.stats, s.stats)
  }

  for ((name, mk) <- algos; seed <- 1 to 3) {
    test(s"seeded incremental run: SparkEngine == LocalEngine: $name seed $seed") {
      val algo = mk(GraphState.empty)
      val (g, states, seeds) = seededCase(algo, seed)
      val (l, s) = both(algo, g, states, seeds)
      assert(l.iterations > 1)
      if (algo.selective) {
        assert(s.iterations == l.iterations, "rounds")
        assert(s.activations == l.activations, "activations")
      }
    }
  }

  // GraphBolt/DZiG refine a capped number of epochs with threshold 0
  for ((algo, thr) <- Seq[(VCAlgo, Double)]((SSSP(0), Double.NaN), (PageRank(eps = 1e-7), 0.0))) {
    test(s"maxIter-capped seeded run: SparkEngine == LocalEngine: ${algo.name}") {
      val (g, states, seeds) = seededCase(algo, 2)
      val (l, s) = both(algo, g, states, seeds, emitThreshold = thr, maxIter = 2)
      assert(l.iterations == 2 && s.iterations == 2)
      if (algo.selective) assert(s.activations == l.activations)
    }
  }

  /** Jobs launched inside `body`: (stages per job, shuffle bytes read and
    * written). A marker job flushes the listener bus before reading.
    */
  private def jobsOf[A](body: => A): (A, Seq[Int], Long) = {
    val sc = spark.sparkContext
    val stagesPerJob = mutable.ArrayBuffer.empty[Int]
    var shuffleBytes = 0L
    val markerDone = new java.util.concurrent.CountDownLatch(1)
    val listener = new SparkListener {
      private def group(p: java.util.Properties) =
        Option(p).map(_.getProperty("spark.jobGroup.id")).orNull
      private var groupStages = Set.empty[Int]
      override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
        group(e.properties) match {
          case "round-shape" =>
            stagesPerJob += e.stageInfos.size; groupStages ++= e.stageIds
          case "round-shape-marker" => markerDone.countDown()
          case _ =>
        }
      }
      override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
        if (groupStages.contains(e.stageId) && e.taskMetrics != null)
          shuffleBytes += e.taskMetrics.shuffleReadMetrics.totalBytesRead +
            e.taskMetrics.shuffleWriteMetrics.bytesWritten
      }
    }
    sc.addSparkListener(listener)
    try {
      sc.setJobGroup("round-shape", "SparkEngine round shape")
      val a = try body finally sc.clearJobGroup()
      sc.setJobGroup("round-shape-marker", "listener flush")
      try sc.parallelize(Seq(0), 1).count() finally sc.clearJobGroup()
      assert(markerDone.await(30, java.util.concurrent.TimeUnit.SECONDS), "listener bus did not drain")
      listener.synchronized((a, stagesPerJob.toList, shuffleBytes))
    } finally sc.removeSparkListener(listener)
  }

  test("each BSP round is at most one Spark job of one stage with no shuffle") {
    val (run, stages, shuffle) = jobsOf(engine.batch(SSSP(0), GraphGen.random(80, 3.0, 99)))
    assert(run.stats.iterations > 4 && stages.nonEmpty)
    assert(stages.size <= run.stats.iterations, s"${stages.size} jobs for ${run.stats.iterations} rounds")
    assert(stages.forall(_ == 1), s"stages per job: $stages")
    assert(shuffle == 0L)
  }

  test("a round in which no vertex emits launches no Spark job") {
    val g = GraphState.fromEdges(Seq(RawEdge(0, 1, 2), RawEdge(1, 2, 2)))
    val states = mutable.LongMap(0L -> 0.0, 1L -> 2.0, 2L -> 4.0)
    // the only message does not improve v1, so nothing is emitted
    val (run, stages, _) = jobsOf(engine.run(SSSP(0), g.adjacency(SSSP(0)), states, Seq(1L -> 5.0)))
    assert(run.stats.iterations == 1 && run.stats.activations == 0)
    assert(stages.isEmpty, s"${stages.size} jobs launched")
  }

  test("a frontier vertex with no out-row emits over no edge") {
    val g = GraphState.fromEdges(Seq(RawEdge(0, 1, 2), RawEdge(1, 2, 2)))
    val states = mutable.LongMap(0L -> 0.0, 1L -> 2.0, 2L -> 4.0)
    // sink v2 and v7, which is not in the graph, improve and emit next to v1
    val (l, s) = both(SSSP(0), g, states, Seq(2L -> 3.0, 7L -> 1.0, 1L -> 1.0))
    assert(l.iterations == 2 && l.activations == 1)
    assert(s.iterations == 2 && s.activations == 1)
  }

  test("run leaves the caller's states untouched and adds vertices first reached by a message") {
    val g = GraphState.fromEdges(Seq(RawEdge(0, 1, 2), RawEdge(1, 2, 2)))
    val states = mutable.LongMap(0L -> 7.0)
    val run = engine.run(SSSP(0), g.adjacency(SSSP(0)), states, Seq(0L -> 0.0))
    assert(states == mutable.LongMap(0L -> 7.0))
    assert(run.states == mutable.LongMap(0L -> 0.0, 1L -> 2.0, 2L -> 4.0))
  }

  for (seed <- 1 to 3) {
    test(s"SSSP distances match DuckDB recursive CTE (seed $seed)") {
      val g = GraphGen.random(12, 1.6, seed * 7)
      val run = engine.batch(SSSP(0), g)
      val rows = run.states.toSeq.filter(_._2.isFinite).map { case (v, d) => (v, d) }
      val df = spark.createDataFrame(rows).toDF("v", "dist")
      Oracle.assertEquivalent(df,
        s"""WITH RECURSIVE r(v, d, hops) AS (
           |  SELECT CAST(0 AS BIGINT), CAST(0 AS DOUBLE), 0
           |  UNION
           |  SELECT CAST(e.dst AS BIGINT), r.d + CAST(e.w AS DOUBLE), r.hops + 1
           |  FROM r JOIN edges e ON CAST(e.src AS BIGINT) = r.v
           |  WHERE r.hops < ${g.numVertices}
           |)
           |SELECT v, MIN(d) AS dist FROM r GROUP BY v""".stripMargin,
        "edges" -> g.toDF(spark))
    }
    test(s"BFS hops match DuckDB recursive CTE (seed $seed)") {
      val g = GraphGen.random(12, 1.6, seed * 13)
      val run = engine.batch(BFS(0), g)
      val rows = run.states.toSeq.filter(_._2.isFinite).map { case (v, d) => (v, d) }
      val df = spark.createDataFrame(rows).toDF("v", "hops")
      Oracle.assertEquivalent(df,
        s"""WITH RECURSIVE r(v, d) AS (
           |  SELECT CAST(0 AS BIGINT), CAST(0 AS DOUBLE)
           |  UNION
           |  SELECT CAST(e.dst AS BIGINT), r.d + 1
           |  FROM r JOIN edges e ON CAST(e.src AS BIGINT) = r.v
           |  WHERE r.d < ${g.numVertices}
           |)
           |SELECT v, MIN(d) AS hops FROM r GROUP BY v""".stripMargin,
        "edges" -> g.toDF(spark))
    }
  }

  test("seeded run continues from existing states (incremental semantics)") {
    val g = GraphState.fromEdges(Seq(RawEdge(0, 1, 2), RawEdge(1, 2, 2)))
    val algo = SSSP(0)
    val states = mutable.LongMap(0L -> 0.0, 1L -> 2.0, 2L -> 4.0)
    // a better path to v1 appears: distance 1
    val run = engine.run(algo, g.adjacency(algo), states, Seq(1L -> 1.0))
    assert(run.states(1L) == 1.0 && run.states(2L) == 3.0)
  }

  test("empty seeds return untouched states at zero cost") {
    val g = GraphGen.random(20, 2.0, 5)
    val algo = SSSP(0)
    val states = mutable.LongMap(0L -> 0.0)
    val run = engine.run(algo, g.adjacency(algo), states, Nil)
    assert(run.stats.iterations == 0 && run.stats.activations == 0)
  }
}

package repro.layph

import scala.collection.mutable
import org.apache.spark.scheduler._
import repro.SparkSpec
import repro.TestUtil.assertClose
import repro.core._

/** End-to-end Layph correctness: Theorems 1 and 2 (layered == whole-graph
  * computation) offline and across incremental rounds, with and without
  * vertex replication, on graphs with real dense subgraphs.
  */
class LayphEngineSpec extends SparkSpec {

  private val commSize = 30
  private def graph(seed: Long) = GraphGen.community(4, commSize, 8.0, 24, seed, nBursts = 8)
  private def plantedCfg = LayphConfig(
    fixedMembership = Some((0 until 4 * commSize).map(v => v.toLong -> (v / commSize).toLong).toMap),
    replicationThreshold = 2)

  private def mk(name: String): VCAlgo = name match {
    case "SSSP"     => SSSP(0)
    case "BFS"      => BFS(0)
    case "PageRank" => PageRank(eps = 1e-7)
    case "PHP"      => PHP(0, eps = 1e-7)
  }
  private def tol(a: VCAlgo): Double = if (a.kind == MinPlus) 1e-9 else 2e-3

  for (name <- Seq("SSSP", "BFS", "PageRank", "PHP"); seed <- 1 to 2) {
    test(s"Theorems 1+2: offline layered run == batch run ($name seed $seed)") {
      val g = graph(seed * 81)
      val algo = mk(name)
      val sys = new LayphEngine(spark, plantedCfg, 4)
      val run = sys.initialize(g, algo)
      val expect = LocalEngine.batch(algo, g)
      assertClose(expect.states, run.states, tol(algo), s"offline/$name/$seed")
    }
  }

  for (name <- Seq("SSSP", "BFS", "PageRank", "PHP"); seed <- 1 to 3) {
    test(s"incremental layered run == batch on updated graph ($name seed $seed)") {
      val g = graph(seed * 91)
      val algo = mk(name)
      val sys = new LayphEngine(spark, plantedCfg, 4)
      sys.initialize(g, algo)
      var last: SparkRun = null
      (1 to 2).foreach { k =>
        val delta = GraphGen.delta(g, 6, 6, seed * 97 + k)
        last = sys.update(delta)
        g.applyDelta(delta)
      }
      val expect = LocalEngine.batch(algo, g)
      assertClose(expect.states, last.states, tol(algo), s"inc/$name/$seed")
    }
  }

  for (name <- Seq("SSSP", "PageRank")) {
    test(s"incremental correctness without vertex replication ($name)") {
      val g = graph(123)
      val algo = mk(name)
      val sys = new LayphEngine(spark, plantedCfg.copy(useReplication = false), 4)
      sys.initialize(g, algo)
      val delta = GraphGen.delta(g, 8, 8, 17)
      val run = sys.update(delta)
      g.applyDelta(delta)
      assertClose(LocalEngine.batch(algo, g).states, run.states, tol(algo), name)
    }
    test(s"incremental correctness with detected (LPA) communities ($name)") {
      val g = graph(321)
      val algo = mk(name)
      val sys = new LayphEngine(spark, LayphConfig(maxCommunitySize = 60), 4)
      sys.initialize(g, algo)
      val delta = GraphGen.delta(g, 6, 6, 19)
      val run = sys.update(delta)
      g.applyDelta(delta)
      assertClose(LocalEngine.batch(algo, g).states, run.states, tol(algo), name)
    }
  }

  test("vertex updates (adds with edges, deletes with all edges) stay correct") {
    val g = graph(555)
    val algo = PageRank(eps = 1e-7)
    val sys = new LayphEngine(spark, plantedCfg, 4)
    sys.initialize(g, algo)
    val delta = repro.bench.Workloads.vertexDelta(g, nAddV = 3, nDelV = 3, edgesPer = 2, seed = 5)
    val run = sys.update(delta)
    g.applyDelta(delta)
    assertClose(LocalEngine.batch(algo, g).states, run.states, 2e-3, "vertex-delta")
  }

  // On this graph 119's exit proxy in subgraph 2 carries only 66->119
  // (77->119 is routed through 77's entry proxy): deleting the edge drops
  // the proxy's transparent link to 119, whose row must be diffed too.
  for (name <- Seq("PageRank", "PHP")) {
    test(s"deleting the only edge through an exit proxy cancels the proxy's link ($name)") {
      val g = graph(4242)
      assert(g.hasEdge(66, 119))
      val algo = mk(name)
      val sys = new LayphEngine(spark, plantedCfg, 4)
      sys.initialize(g, algo)
      val delta = GraphDelta(Seq(EdgeUpdate(66, 119, 0.0, isAdd = false)))
      val run = sys.update(delta)
      g.applyDelta(delta)
      assertClose(LocalEngine.batch(algo, g).states, run.states, tol(algo), s"exit-proxy/$name")
    }
  }

  test("Figure 2 graph end-to-end: incremental states match Example 4-6") {
    val g = GraphGen.figure2
    val cfg = LayphConfig(
      fixedMembership = Some(Map(0L -> 0L, 1L -> 0L, 2L -> 0L, 3L -> 0L, 4L -> 0L,
        5L -> 1L, 6L -> 1L, 7L -> 1L, 8L -> 1L)),
      useReplication = false, minCommunitySize = 3)
    val sys = new LayphEngine(spark, cfg, 4)
    val init = sys.initialize(g, SSSP(0))
    assertClose(GraphGen.fig2States, init.states, 1e-12, "fig2 offline")
    val run = sys.update(GraphGen.figure2Delta)
    assertClose(GraphGen.fig2UpdatedStates, run.states, 1e-12, "fig2 incremental")
  }

  test("the upper layer is smaller than the original graph") {
    val g = graph(777)
    val sys = new LayphEngine(spark, plantedCfg, 4)
    sys.initialize(g, SSSP(0))
    val (nv, ne) = sys.upperLayerSize
    assert(nv < g.numVertices, s"skeleton $nv vs ${g.numVertices}")
    assert(sys.subgraphStats.nonEmpty)
  }

  test("SumTimes and MinPlus report the same upper layer for the same layering") {
    // both algorithms protect vertex 0, so membership and roles match
    val g = graph(777)
    val sizes = Seq[VCAlgo](SSSP(0), PHP(0, eps = 1e-12)).map { algo =>
      val sys = new LayphEngine(spark, plantedCfg, 4)
      sys.initialize(g, algo)
      sys.upperLayerSize
    }
    assert(sizes.head == sizes(1), s"(|V|, |E|) of SSSP vs PHP: $sizes")
  }

  /** Layer of each Spark job that `body` launches, in launch order: the
    * source file of the first `repro` frame of its call site.
    */
  private def jobLayersOf[A](body: => A): (A, Seq[String]) = {
    val sc = spark.sparkContext
    val frame = """repro\.[\w.$]+\((\w+)\.scala:\d+\)""".r
    val layers = mutable.ArrayBuffer.empty[String]
    val markerDone = new java.util.concurrent.CountDownLatch(1)
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
        Option(e.properties).map(_.getProperty("spark.jobGroup.id")).orNull match {
          case "job-shape" =>
            val site = e.stageInfos.maxBy(_.stageId).details
            layers += frame.findFirstMatchIn(site).map(_.group(1)).getOrElse("other")
          case "job-shape-marker" => markerDone.countDown()
          case _ =>
        }
      }
    }
    sc.addSparkListener(listener)
    try {
      sc.setJobGroup("job-shape", "Layph job shape")
      val a = try body finally sc.clearJobGroup()
      sc.setJobGroup("job-shape-marker", "listener flush")
      try sc.parallelize(Seq(0), 1).count() finally sc.clearJobGroup()
      assert(markerDone.await(30, java.util.concurrent.TimeUnit.SECONDS), "listener bus did not drain")
      listener.synchronized((a, layers.toList))
    } finally sc.removeSparkListener(listener)
  }

  test("an update launches at most one per-subgraph job in layer_update and one in assignment") {
    val g = graph(424)
    val algo = SSSP(0)
    val cfg = plantedCfg.copy(useReplication = false)
    // the engine's layering, rebuilt with the same public calls
    val memb = Layering.selectDense(g, cfg.fixedMembership.get, cfg, Set(0L))
    val numSg = memb.values.max + 1
    val roles = Layering.roles(Layering.effectiveAdjacency(g, algo, memb, Replication.none), memb, numSg)
    assert(numSg >= 2)
    // subgraph 0 gains an entry: an edge from the root into one of its
    // internal vertices; subgraph 1 loses one of its internal edges
    val internal = memb.keys.toSeq.sorted
      .find(v => memb(v) == 0 && !roles(0).boundary.contains(v) && !g.hasEdge(0, v)).get
    val inner = g.edges.toSeq.sortBy(e => (e.src, e.dst))
      .find(e => memb.get(e.src).contains(1) && memb.get(e.dst).contains(1)).get
    val delta = GraphDelta(Seq(
      EdgeUpdate(0, internal, 0.5, isAdd = true),
      EdgeUpdate(inner.src, inner.dst, 0.0, isAdd = false)))

    val sys = new LayphEngine(spark, cfg, 4)
    sys.initialize(g, algo)
    val (run, layers) = jobLayersOf(sys.update(delta))
    g.applyDelta(delta)
    assertClose(LocalEngine.batch(algo, g).states, run.states, 1e-9, "job-shape update")

    val upper = layers.indices.filter(layers(_) == "SparkEngine")
    val perSg = layers.indices.filter(layers(_) == "LayphEngine")
    assert(upper.nonEmpty, s"no upper-layer round: $layers")
    assert(perSg.forall(j => j < upper.min || j > upper.max), s"per-subgraph job amid the upper iteration: $layers")
    val (layerUpdate, assignment) = perSg.partition(_ < upper.min)
    assert(layerUpdate.size == 1, s"per-subgraph jobs in layer_update: $layers")
    assert(assignment.size <= 1, s"per-subgraph jobs in assignment: $layers")
  }

  test("localized update activates fewer edges than Ingress") {
    val g = GraphGen.community(6, 40, 8.0, 40, 888)
    val cfg = LayphConfig(
      fixedMembership = Some((0 until 240).map(v => v.toLong -> (v / 40).toLong).toMap))
    val algo = SSSP(0)
    val layph = new LayphEngine(spark, cfg, 4)
    val ingress = new repro.ingress.IngressEngine(spark, 4)
    layph.initialize(g, algo); ingress.initialize(g, algo)
    // a deletion strictly inside one dense subgraph
    val inner = g.edges.find(e => e.src / 40 == 2 && e.dst / 40 == 2 && e.src != 0 && e.dst != 0).get
    val delta = GraphDelta(Seq(EdgeUpdate(inner.src, inner.dst, 0.0, isAdd = false)))
    val a = layph.update(delta).stats.activations
    val b = ingress.update(delta).stats.activations
    assert(a > 0)
    // both must stay correct
    g.applyDelta(delta)
    assertClose(LocalEngine.batch(algo, g).states, layph.resultStates, 1e-9, "layph")
  }

  test("phase timings are recorded for the runtime breakdown") {
    val g = graph(999)
    val sys = new LayphEngine(spark, plantedCfg, 4)
    sys.initialize(g, SSSP(0))
    sys.update(GraphGen.delta(g, 3, 3, 7))
    assert(sys.lastPhases.map(_._1) ==
      Seq("layer_update", "upload", "upper_iteration", "assignment"))
  }

  test("repeated updates keep the decomposition consistent (PageRank, 4 rounds)") {
    val g = graph(1313)
    val algo = PageRank(eps = 1e-7)
    val sys = new LayphEngine(spark, plantedCfg, 4)
    sys.initialize(g, algo)
    var last: SparkRun = null
    (1 to 4).foreach { k =>
      val delta = GraphGen.delta(g, 4, 4, 131 + k)
      last = sys.update(delta)
      g.applyDelta(delta)
    }
    assertClose(LocalEngine.batch(algo, g).states, last.states, 5e-3, "4 rounds")
  }
}

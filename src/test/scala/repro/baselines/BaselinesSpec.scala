package repro.baselines

import repro.SparkSpec
import repro.TestUtil.assertClose
import repro.core._
import repro.ingress.IngressEngine

/** Every modeled competitor must still satisfy Equation 4 (incremental ==
  * batch on the updated graph); their *cost* differences are what the
  * benchmarks measure, their *results* must all be right.
  */
class BaselinesSpec extends SparkSpec {

  private def minSystems = Seq(
    () => new KickStarterEngine(spark, 4),
    () => new RisGraphEngine(spark, 4),
    () => new RestartEngine(spark, 4))
  private def sumSystems = Seq(
    () => new GraphBoltEngine(spark, 4),
    () => new DZiGEngine(spark, 4),
    () => new RestartEngine(spark, 4))

  for (mkSys <- minSystems; algoName <- Seq("SSSP", "BFS"); seed <- 1 to 3) {
    val sysName = mkSys().name
    test(s"$sysName incremental == batch: $algoName seed $seed") {
      val g = GraphGen.random(80, 3.0, seed * 13)
      val algo: VCAlgo = if (algoName == "SSSP") SSSP(0) else BFS(0)
      val sys = mkSys()
      sys.initialize(g, algo)
      val delta = GraphGen.delta(g, 6, 6, seed * 37)
      val run = sys.update(delta)
      g.applyDelta(delta)
      assertClose(LocalEngine.batch(algo, g).states, run.states, 1e-9, s"$sysName/$algoName")
    }
  }

  for (mkSys <- sumSystems; algoName <- Seq("PageRank", "PHP"); seed <- 1 to 3) {
    val sysName = mkSys().name
    test(s"$sysName incremental == batch: $algoName seed $seed") {
      val g = GraphGen.random(70, 3.0, seed * 41)
      val algo: VCAlgo = if (algoName == "PageRank") PageRank(eps = 1e-7) else PHP(0, eps = 1e-7)
      val sys = mkSys()
      sys.initialize(g, algo)
      val delta = GraphGen.delta(g, 6, 6, seed * 43)
      val run = sys.update(delta)
      g.applyDelta(delta)
      assertClose(LocalEngine.batch(algo, g).states, run.states, 2e-3, s"$sysName/$algoName")
    }
  }

  // Graph 0->1 (1), 1->4 (2), 4->2 (3), 0->3 (1): x2 = 6 (3 hops) through
  // 1. A batch that inserts 3->2 and then deletes or overwrites it must not
  // leave the superseded insertion's compensation (x2 = 2) behind.
  private def memoSystems = Seq(
    () => new IngressEngine(spark, 4),
    () => new KickStarterEngine(spark, 4),
    () => new RisGraphEngine(spark, 4))
  private val netCases = Seq(
    ("a pair added and deleted in one batch seeds nothing",
      Seq(EdgeUpdate(3, 2, 1.0, isAdd = true), EdgeUpdate(3, 2, 0.0, isAdd = false)), 6.0),
    ("a pair added twice in one batch seeds only its last weight",
      Seq(EdgeUpdate(3, 2, 1.0, isAdd = true), EdgeUpdate(3, 2, 4.0, isAdd = true)), 5.0))

  for (mkSys <- memoSystems; algoName <- Seq("SSSP", "BFS"); (what, ups, x2) <- netCases) {
    val sysName = mkSys().name
    test(s"$sysName: $what ($algoName)") {
      val g = GraphState.fromEdges(Seq(RawEdge(0, 1, 1), RawEdge(1, 4, 2), RawEdge(4, 2, 3), RawEdge(0, 3, 1)))
      val algo: VCAlgo = if (algoName == "SSSP") SSSP(0) else BFS(0)
      val sys = mkSys()
      sys.initialize(g, algo)
      val run = sys.update(GraphDelta(ups))
      g.applyDelta(GraphDelta(ups))
      val expect = LocalEngine.batch(algo, g).states
      if (algoName == "SSSP") assert(expect(2L) == x2)
      assertClose(expect, run.states, 1e-9, s"$sysName/$algoName")
    }
  }

  test("KickStarter's conservative trimming activates at least as much as Ingress") {
    val g = GraphGen.community(6, 40, 4.0, 80, 7)
    val algo = SSSP(0)
    val ks = new KickStarterEngine(spark, 4)
    val ing = new IngressEngine(spark, 4)
    ks.initialize(g, algo); ing.initialize(g, algo)
    val delta = GraphGen.delta(g, 5, 5, 9)
    val a = ks.update(delta).stats.activations
    val b = ing.update(delta).stats.activations
    assert(a >= b, s"KickStarter $a vs Ingress $b")
  }

  test("GraphBolt tracks at least as many activations as Ingress (PageRank)") {
    val g = GraphGen.community(5, 40, 4.0, 60, 8)
    val algo = PageRank(eps = 1e-6)
    val gb = new GraphBoltEngine(spark, 4)
    val ing = new IngressEngine(spark, 4)
    gb.initialize(g, algo); ing.initialize(g, algo)
    val delta = GraphGen.delta(g, 5, 5, 10)
    val a = gb.update(delta).stats.activations
    val b = ing.update(delta).stats.activations
    assert(a >= b, s"GraphBolt $a vs Ingress $b")
  }

  test("Restart recomputes everything: activations match a fresh batch run") {
    val g = GraphGen.random(60, 3.0, 3)
    val algo = SSSP(0)
    val rs = new RestartEngine(spark, 4)
    rs.initialize(g, algo)
    val delta = GraphGen.delta(g, 4, 4, 6)
    val run = rs.update(delta)
    g.applyDelta(delta)
    assert(run.stats.activations == LocalEngine.batch(algo, g).stats.activations)
  }
}

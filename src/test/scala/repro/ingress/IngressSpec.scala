package repro.ingress

import repro.SparkSpec
import repro.TestUtil.assertClose
import repro.core._

/** The golden incremental equation (Equation 4): for every algorithm and
  * random (graph, ΔG) pair, Ingress's incremental result must equal a
  * batch run on the updated graph.
  */
class IngressSpec extends SparkSpec {

  private def mk(name: String): VCAlgo = name match {
    case "SSSP"     => SSSP(0)
    case "BFS"      => BFS(0)
    case "PageRank" => PageRank(eps = 1e-7)
    case "PHP"      => PHP(0, eps = 1e-7)
  }
  private def tol(a: VCAlgo): Double = if (a.kind == MinPlus) 1e-9 else 1e-4

  for (name <- Seq("SSSP", "BFS", "PageRank", "PHP"); seed <- 1 to 4) {
    test(s"Ingress incremental == batch on updated graph: $name seed $seed") {
      val g = GraphGen.random(90, 3.0, seed * 19)
      val algo = mk(name)
      val sys = new IngressEngine(spark, 4)
      sys.initialize(g, algo)
      val delta = GraphGen.delta(g, 8, 8, seed * 23)
      val run = sys.update(delta)
      g.applyDelta(delta)
      val expect = LocalEngine.batch(algo, g)
      assertClose(expect.states, run.states, tol(algo), s"$name/$seed")
    }
  }

  for (name <- Seq("SSSP", "PageRank"); seed <- 1 to 2) {
    test(s"Ingress handles a sequence of deltas: $name seed $seed") {
      val g = GraphGen.random(80, 3.0, seed * 29)
      val algo = mk(name)
      val sys = new IngressEngine(spark, 4)
      sys.initialize(g, algo)
      var last: SparkRun = null
      (1 to 3).foreach { k =>
        val delta = GraphGen.delta(g, 5, 5, seed * 31 + k)
        last = sys.update(delta)
        g.applyDelta(delta)
      }
      val expect = LocalEngine.batch(algo, g)
      assertClose(expect.states, last.states, tol(algo), s"$name/$seed")
    }
  }

  test("Ingress handles vertex additions with fresh root mass (PageRank)") {
    val g = GraphGen.random(60, 3.0, 77)
    val algo = PageRank(eps = 1e-7)
    val sys = new IngressEngine(spark, 4)
    sys.initialize(g, algo)
    val delta = GraphDelta(Seq(
      EdgeUpdate(1000, 3, 1.0, isAdd = true),
      EdgeUpdate(5, 1000, 1.0, isAdd = true)))
    val run = sys.update(delta)
    g.applyDelta(delta)
    val expect = LocalEngine.batch(algo, g)
    assertClose(expect.states, run.states, 1e-4, "new-vertex")
  }

  test("Ingress incremental activates far fewer edges than Restart (SSSP)") {
    val g = GraphGen.community(6, 40, 4.0, 80, 42)
    val algo = SSSP(0)
    val ing = new IngressEngine(spark, 4)
    ing.initialize(g, algo)
    val delta = GraphGen.delta(g, 3, 3, 5)
    val incActs = ing.update(delta).stats.activations
    g.applyDelta(delta)
    val restartActs = LocalEngine.batch(algo, g).stats.activations
    assert(incActs < restartActs, s"$incActs vs $restartActs")
  }

  test("no-op delta is free") {
    val g = GraphGen.random(40, 2.0, 1)
    val algo = SSSP(0)
    val sys = new IngressEngine(spark, 4)
    sys.initialize(g, algo)
    val e = g.edges.next()
    val run = sys.update(GraphDelta(Seq(EdgeUpdate(e.src, e.dst, e.w, isAdd = true))))
    assert(run.stats.activations == 0 && run.stats.iterations == 0)
  }

  test("revision deduction cancels and compensates degree changes exactly") {
    // u gains an out-edge: every old neighbor's weight drops from d/1 to d/2
    val g = GraphState.fromEdges(Seq(RawEdge(0, 1, 1)))
    val algo = PageRank(eps = 1e-9)
    val old = g.weightedRow(0, algo).toMap
    g.addEdge(0, 2, 1.0)
    val now = g.weightedRow(0, algo).toMap
    val states = scala.collection.mutable.LongMap(0L -> 1.0)
    val seeds = Revision.sumSeeds(Map(0L -> old), Map(0L -> now), states, Set.empty).toMap
    assert(math.abs(seeds(1L) - (0.85 / 2 - 0.85)) < 1e-12)
    assert(math.abs(seeds(2L) - 0.85 / 2) < 1e-12)
  }
}

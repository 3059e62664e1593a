package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestUtil.assertClose

/** LocalEngine (the per-subgraph workhorse) against independent textbook
  * references on batches of random graphs.
  */
class LocalEngineSpec extends AnyFunSuite {

  for (seed <- 1 to 10) {
    test(s"SSSP matches Dijkstra (seed $seed)") {
      val g = GraphGen.random(80, 3.0, seed)
      val run = LocalEngine.batch(SSSP(0), g)
      assertClose(RefAlgos.dijkstra(g, 0), run.states, 1e-9)
    }
    test(s"BFS matches reference hops (seed $seed)") {
      val g = GraphGen.random(80, 3.0, seed + 100)
      val run = LocalEngine.batch(BFS(0), g)
      assertClose(RefAlgos.bfsHops(g, 0), run.states, 1e-9)
    }
  }

  for (seed <- 1 to 6) {
    test(s"PageRank matches power iteration (seed $seed)") {
      val g = GraphGen.random(60, 3.0, seed + 200)
      val run = LocalEngine.batch(PageRank(eps = 1e-10), g)
      assertClose(RefAlgos.pageRank(g), run.states, 1e-6)
    }
    test(s"PHP matches reference fixed point (seed $seed)") {
      val g = GraphGen.random(50, 3.0, seed + 300)
      val run = LocalEngine.batch(PHP(0, eps = 1e-10), g)
      assertClose(RefAlgos.php(g, 0), run.states, 1e-6)
    }
  }

  test("Figure 2 SSSP converged states match the paper") {
    val run = LocalEngine.batch(SSSP(0), GraphGen.figure2)
    assertClose(GraphGen.fig2States, run.states, 1e-12)
  }

  test("Figure 2 updated graph SSSP states match the paper (Example 4-6)") {
    val g = GraphGen.figure2
    g.applyDelta(GraphGen.figure2Delta)
    val run = LocalEngine.batch(SSSP(0), g)
    assertClose(GraphGen.fig2UpdatedStates, run.states, 1e-12)
  }

  test("activations equal F applications: one per scanned out-edge") {
    // line graph 0 -> 1 -> 2 -> 3: each vertex improves once and scans its
    // single out-edge once => 3 activations
    val g = GraphState.fromEdges(Seq(RawEdge(0, 1, 1), RawEdge(1, 2, 1), RawEdge(2, 3, 1)))
    val run = LocalEngine.batch(SSSP(0), g)
    assert(run.stats.activations == 3)
    assert(run.stats.iterations == 4)
  }

  test("PHP root absorbs: no mass re-enters the source") {
    val g = GraphState.fromEdges(Seq(RawEdge(0, 1, 1), RawEdge(1, 0, 1), RawEdge(1, 2, 1)))
    val run = LocalEngine.batch(PHP(0, eps = 1e-12), g)
    assert(math.abs(run.states(0L) - 1.0) < 1e-12, "root pinned to its initial message")
    // v1 receives 0.85 once (no echo through the root)
    assert(math.abs(run.states(1L) - 0.85) < 1e-9)
  }

  test("PageRank total mass equals |V| within truncation tolerance on a cycle") {
    // 3-cycle: no dangling leakage, sum of ranks must be n * (1-d) / (1-d) = 3
    val g = GraphState.fromEdges(Seq(RawEdge(0, 1, 1), RawEdge(1, 2, 1), RawEdge(2, 0, 1)))
    val run = LocalEngine.batch(PageRank(eps = 1e-12), g)
    assert(math.abs(run.states.values.sum - 3.0) < 1e-6)
  }

  test("empty seeds converge immediately") {
    val g = GraphGen.random(10, 2.0, 1)
    val adj = g.adjacency(SSSP(0))
    val r = LocalEngine.run(SSSP(0), adj,
      scala.collection.mutable.LongMap.empty, Nil)
    assert(r.stats.iterations == 0 && r.stats.activations == 0)
  }
}

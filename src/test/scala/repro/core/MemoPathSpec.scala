package repro.core

import scala.collection.mutable
import repro.SparkSpec
import repro.TestUtil.assertClose

/** Dependency-tree machinery: memoized parents must actually support the
  * converged states, closures must be sound, and one incremental round
  * must land exactly on the batch fixpoint of the updated graph.
  */
class MemoPathSpec extends SparkSpec {
  private lazy val engine = new SparkEngine(spark, 4)

  test("every reachable non-root vertex has a supporting parent") {
    val g = GraphGen.random(80, 3.0, 5)
    val algo = SSSP(0)
    val run = LocalEngine.batch(algo, g)
    val parents = MemoPath.computeParents(g.reverseAdjacency(algo), run.states)
    run.states.foreach { case (v, x) =>
      if (v != 0L && x.isFinite) {
        val p = parents.get(v)
        assert(p.isDefined, s"vertex $v lacks a parent")
        val w = g.adjacency(algo).row(p.get).find(_._1 == v).get._2
        assert(math.abs(run.states(p.get) + w - x) < 1e-9)
      }
    }
  }

  test("treeClosure returns exactly the subtree") {
    val parents = mutable.LongMap[Long](2L -> 1L, 3L -> 2L, 4L -> 2L, 5L -> 0L)
    assert(MemoPath.treeClosure(parents, Set(2L)) == Set(2L, 3L, 4L))
    assert(MemoPath.treeClosure(parents, Set(5L)) == Set(5L))
  }

  test("forwardClosure follows edges and respects the cap") {
    val g = GraphState.fromEdges(Seq(RawEdge(0, 1, 1), RawEdge(1, 2, 1), RawEdge(2, 3, 1)))
    val adj = g.adjacency(SSSP(0))
    assert(MemoPath.forwardClosure(adj, Set(0L)) == Set(0L, 1L, 2L, 3L))
    assert(MemoPath.forwardClosure(adj, Set(0L), cap = 2).size == 2)
  }

  for (seed <- 1 to 6; conservative <- Seq(false, true)) {
    val label = if (conservative) "conservative" else "exact"
    test(s"incremental round reaches the batch fixpoint ($label, seed $seed)") {
      val g = GraphGen.random(90, 3.0, seed * 11)
      val algo = SSSP(0)
      val batch = LocalEngine.batch(algo, g)
      val parents = MemoPath.computeParents(g.reverseAdjacency(algo), batch.states)
      val delta = GraphGen.delta(g, 6, 6, seed * 17)
      val eff = g.applyDelta(delta)
      val changes = eff.map(u => MemoPath.EdgeChange(u.src, u.dst, algo.edgeWeight(u.w, 1, u.w), u.isAdd))
      val r = MemoPath.incremental(algo, engine, g.adjacency(algo), g.reverseAdjacency(algo),
        batch.states, parents, changes, conservative = conservative)
      val expect = LocalEngine.batch(algo, g)
      assertClose(expect.states, r.states, 1e-9, s"$label/$seed")
    }
  }
}

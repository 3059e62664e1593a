package repro.layph

import scala.collection.mutable
import org.scalatest.funsuite.AnyFunSuite
import repro.core._

/** Shortcut deduction (Definition 3 / Equation 6), including the paper's
  * worked Examples 2 and 3 with their exact numbers.
  */
class ShortcutSpec extends AnyFunSuite {

  /** Builds the local structure of a subgraph given global membership. */
  private def structureOf(g: GraphState, members: Set[Long], algo: VCAlgo) = {
    val memb = mutable.LongMap.empty[Int]
    members.foreach(v => memb(v) = 0)
    val adj = Layering.effectiveAdjacency(g, algo, memb, Replication.none)
    Subgraphs.structure(0, members.toArray, adj, memb)
  }

  /** Rows and L deduced fresh: no memoized row or L, no edge changes. */
  private def deduceFresh(algo: VCAlgo, n: Int, adj: Adjacency, entryIdxs: Array[Int],
                          m0vec: Array[Double]) =
    Subgraphs.deduce(algo, n, adj, entryIdxs, entryIdxs.map(_ => Array.empty[Double]), Array.empty, Array.empty, m0vec)

  test("Example 2: shortcut weights of G2 from entry v0 are {0,1,4,1,2}") {
    val g = GraphGen.figure2
    val algo = SSSP(0)
    val (verts, idx, adj) = structureOf(g, Set(0L, 1L, 2L, 3L, 4L), algo)
    val (rows, _, _) = deduceFresh(algo, idx.size, adj, Array(idx(0L)), Array.empty[Double])
    val row = rows(0)
    assert(row(idx(0L)) == 0.0)
    assert(row(idx(1L)) == 1.0, "w(v0,v1)")
    assert(row(idx(2L)) == 4.0, "w(v0,v2)")
    assert(row(idx(3L)) == 1.0, "w(v0,v3)")
    assert(row(idx(4L)) == 2.0, "w(v0,v4)")
    assert(verts.length == 5)
  }

  test("Example 3: after ΔG the shortcut weights become {0,1,3,1,4}") {
    val g = GraphGen.figure2
    g.applyDelta(GraphGen.figure2Delta)
    val algo = SSSP(0)
    val (_, idx, adj) = structureOf(g, Set(0L, 1L, 2L, 3L, 4L), algo)
    val (rows, _, _) = deduceFresh(algo, idx.size, adj, Array(idx(0L)), Array.empty[Double])
    val row = rows(0)
    assert(row(idx(1L)) == 1.0 && row(idx(2L)) == 3.0 && row(idx(3L)) == 1.0 && row(idx(4L)) == 4.0)
  }

  test("G1 shortcuts from entry v5 are {1,2,2} (used by Example 6)") {
    val g = GraphGen.figure2
    val algo = SSSP(0)
    val (_, idx, adj) = structureOf(g, Set(5L, 6L, 7L, 8L), algo)
    val (rows, _, _) = deduceFresh(algo, idx.size, adj, Array(idx(5L)), Array.empty[Double])
    val row = rows(0)
    assert(row(idx(6L)) == 1.0 && row(idx(7L)) == 2.0 && row(idx(8L)) == 2.0)
  }

  for (seed <- 1 to 5) {
    test(s"MinPlus shortcut weight == in-subgraph Dijkstra distance (seed $seed)") {
      val g = GraphGen.random(40, 3.0, seed * 61)
      val algo = SSSP(0)
      val members = g.vertices // whole graph as one "subgraph"
      val (verts, idx, adj) = structureOf(g, members, algo)
      val entry = verts(seed % verts.length)
      val (rows, _, _) = deduceFresh(algo, idx.size, adj, Array(idx(entry)), Array.empty[Double])
      val dist = RefAlgos.dijkstra(g, entry)
      verts.foreach { v =>
        assert(math.abs(rows(0)(idx(v)) - dist(v)) < 1e-9 || (rows(0)(idx(v)).isInfinite && dist(v).isInfinite),
          s"w($entry,$v)")
      }
    }
  }

  for (seed <- 1 to 4) {
    test(s"SumTimes shortcut row satisfies the path-sum fixed point (seed $seed)") {
      val g = GraphGen.random(25, 2.5, seed * 71)
      val algo = PageRank(eps = 1e-12)
      val (verts, idx, adj) = structureOf(g, g.vertices, algo)
      val entry = verts(seed % verts.length)
      val e = idx(entry)
      val (rows, _, _) = deduceFresh(algo, idx.size, adj, Array(e), Array.empty[Double])
      val row = rows(0)
      // w(e,v) = [v == e] + sum_u w(e,u) * A(u,v)  — all paths, split on last edge
      val expect = Array.fill(verts.length)(0.0)
      expect(e) = 1.0
      verts.indices.foreach { u =>
        adj.row(u).foreach { case (v, w) => expect(v.toInt) += row(u) * w }
      }
      verts.indices.foreach { j =>
        assert(math.abs(row(j) - expect(j)) < 1e-6, s"fixed point at local $j")
      }
    }
    test(s"L vector satisfies the root-mass fixed point (seed $seed)") {
      val g = GraphGen.random(25, 2.5, seed * 73)
      val algo = PageRank(eps = 1e-12)
      val (verts, idx, adj) = structureOf(g, g.vertices, algo)
      val (_, lvec, _) = deduceFresh(algo, verts.length, adj, Array.empty, Array.fill(verts.length)(1.0 - 0.85))
      // L(v) = m0 + sum_u L(u) * A(u,v)
      val expect = Array.fill(verts.length)(1.0 - 0.85)
      verts.indices.foreach { u =>
        adj.row(u).foreach { case (v, w) => expect(v.toInt) += lvec(u) * w }
      }
      verts.indices.foreach { j =>
        assert(math.abs(lvec(j) - expect(j)) < 1e-5, s"L fixed point at local $j")
      }
    }
  }

  test("shortcut computation reports its activations") {
    val g = GraphGen.figure2
    val (_, idx, adj) = structureOf(g, Set(0L, 1L, 2L, 3L, 4L), SSSP(0))
    val (_, _, acts) = deduceFresh(SSSP(0), idx.size, adj, Array(idx(0L)), Array.empty[Double])
    assert(acts > 0)
  }
}

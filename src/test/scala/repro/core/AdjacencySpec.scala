package repro.core

import org.apache.spark.util.SizeEstimator
import org.scalatest.funsuite.AnyFunSuite

/** The one weighted-graph representation: its builder must keep every row
  * in insertion order for any id, its reverse must hold the same edges,
  * and it must stay flat in memory.
  */
class AdjacencySpec extends AnyFunSuite {

  private def build(edges: (Long, Long, Double)*): Adjacency = {
    val b = Adjacency.newBuilder
    edges.foreach { case (u, v, w) => b.add(u, v, w) }
    b.result()
  }

  test("rows keep their insertion order when sources interleave") {
    val adj = build((5, 1, 0.1), (2, 9, 0.2), (5, 0, 0.3), (2, 3, 0.4), (5, 7, 0.5), (5, 1, 0.6))
    assert(adj.ids.sameElements(Array(2L, 5L)))
    assert(adj.row(2L).sameElements(Array((9L, 0.2), (3L, 0.4))))
    assert(adj.row(5L).sameElements(Array((1L, 0.1), (0L, 0.3), (7L, 0.5), (1L, 0.6))))
    assert(adj.edges.toSeq == Seq((2L, 9L, 0.2), (2L, 3L, 0.4),
      (5L, 1L, 0.1), (5L, 0L, 0.3), (5L, 7L, 0.5), (5L, 1L, 0.6)))
  }

  test("a graph's adjacency gives back every weighted row in order") {
    val g = GraphGen.random(60, 3.0, 5)
    val adj = g.adjacency(PageRank())
    assert(adj.ids.length == g.out.count(_._2.nonEmpty))
    g.out.keysIterator.foreach(u => assert(adj.row(u).sameElements(g.weightedRow(u, PageRank())), s"row $u"))
  }

  test("reverse.reverse has the same rows as edge multisets") {
    val adj = build((1, 2, 0.5), (3, 2, 1.5), (1, 4, 2.0), (4, 1, 3.0), (1, 2, 0.5), (2, 3, 4.0))
    val rev = adj.reverse
    assert(rev.row(2L).sorted.sameElements(Array((1L, 0.5), (1L, 0.5), (3L, 1.5))))
    val back = rev.reverse
    assert(back.ids.sameElements(adj.ids))
    adj.ids.foreach(u => assert(back.row(u).sorted.sameElements(adj.row(u).sorted), s"row $u"))
  }

  test("an empty build, and an absent id, give empty rows") {
    val adj = build((3, 4, 1.0))
    assert(adj.row(2L).isEmpty && adj.row(5L).isEmpty && adj.rowOf(2L) == -1)
    val empty = Adjacency.newBuilder.result()
    assert(empty.row(0L).isEmpty && empty.edges.isEmpty && empty.reverse.ids.isEmpty)
  }

  test("proxy ids past 2^41 and odd split-node ids resolve") {
    val p = (1L << 41) + 7
    val adj = build((p, 2L * p + 1, 0.5), (p, 4L, 1.0), (2L * p + 1, p, 2.0), (9L, 2L * 9 + 1, 3.0))
    assert(adj.row(p).sameElements(Array((2L * p + 1, 0.5), (4L, 1.0))))
    assert(adj.row(2L * p + 1).sameElements(Array((p, 2.0))))
    assert(adj.row(9L).sameElements(Array((2L * 9 + 1, 3.0))))
    assert(adj.row(2L * 9 + 1).isEmpty && adj.row(2L * p).isEmpty)
  }

  test("local indexes rows by position") {
    val adj = build((0, 1, 0.5), (0, 2, 1.5), (2, 0, 2.0))
    assert(adj.row(0L).sameElements(Array((1L, 0.5), (2L, 1.5))))
    assert(adj.row(1L).isEmpty && adj.row(2L).sameElements(Array((0L, 2.0))) && adj.row(3L).isEmpty)
  }

  test("the estimated size stays within 1.25x of its four primitive arrays") {
    val adj = GraphGen.community(4, 30, 4.0, 20, 7).adjacency(SSSP(0))
    val arrays = 8L * adj.ids.length + 4L * adj.off.length + 8L * adj.dst.length + 8L * adj.w.length
    assert(adj.dst.length > 400)
    val est = SizeEstimator.estimate(adj)
    assert(est <= 1.25 * arrays, s"$est bytes estimated for $arrays bytes of arrays")
  }
}

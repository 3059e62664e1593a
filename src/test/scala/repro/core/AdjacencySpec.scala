package repro.core

import org.apache.spark.util.SizeEstimator
import org.scalatest.funsuite.AnyFunSuite

/** The flat adjacency the engines read and broadcast must hold exactly the
  * map it was built from, for any id, and stay flat in memory.
  */
class AdjacencySpec extends AnyFunSuite {

  test("of gives back every row of the map in order") {
    val m = GraphGen.random(60, 3.0, 5).adjacency(PageRank())
    val adj = Adjacency.of(m)
    assert(adj.ids.length == m.size)
    m.foreach { case (u, out) => assert(adj.row(u).sameElements(out), s"row $u") }
  }

  test("an absent id, or an empty map, gives an empty row") {
    val adj = Adjacency.of(Map(3L -> Array((4L, 1.0))))
    assert(adj.row(2L).isEmpty && adj.row(5L).isEmpty && adj.rowOf(2L) == -1)
    assert(Adjacency.of(Map.empty).row(0L).isEmpty)
  }

  test("proxy ids past 2^41 and odd split-node ids resolve") {
    val p = (1L << 41) + 7
    val m = Map(
      p -> Array((2L * p + 1, 0.5), (4L, 1.0)),
      2L * p + 1 -> Array((p, 2.0)),
      9L -> Array((2L * 9 + 1, 3.0)),
      2L * 9 + 1 -> Array.empty[(Long, Double)])
    val adj = Adjacency.of(m)
    m.foreach { case (u, out) => assert(adj.row(u).sameElements(out), s"row $u") }
    assert(adj.rowOf(2L * 9 + 1) >= 0 && adj.row(2L * p).isEmpty)
  }

  test("local indexes rows by position") {
    val adj = Adjacency.local(Array(Array((1, 0.5), (2, 1.5)), Array.empty, Array((0, 2.0))))
    assert(adj.row(0L).sameElements(Array((1L, 0.5), (2L, 1.5))))
    assert(adj.row(1L).isEmpty && adj.row(2L).sameElements(Array((0L, 2.0))) && adj.row(3L).isEmpty)
  }

  test("the estimated size stays within 1.25x of its four primitive arrays") {
    val adj = Adjacency.of(GraphGen.community(4, 30, 4.0, 20, 7).adjacency(SSSP(0)))
    val arrays = 8L * adj.ids.length + 4L * adj.off.length + 8L * adj.dst.length + 8L * adj.w.length
    assert(adj.dst.length > 400)
    val est = SizeEstimator.estimate(adj)
    assert(est <= 1.25 * arrays, s"$est bytes estimated for $arrays bytes of arrays")
  }
}

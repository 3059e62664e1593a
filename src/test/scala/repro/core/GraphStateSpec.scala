package repro.core

import repro.{Oracle, SparkSpec}

class GraphStateSpec extends SparkSpec {

  test("applyDelta inserts, deletes, and reports only effective updates") {
    val g = GraphState.fromEdges(Seq(RawEdge(0, 1, 1), RawEdge(1, 2, 2)))
    val eff = g.applyDelta(GraphDelta(Seq(
      EdgeUpdate(0, 1, 1.0, isAdd = true),   // duplicate: no-op
      EdgeUpdate(5, 6, 3.0, isAdd = true),   // new edge + new vertices
      EdgeUpdate(1, 2, 0.0, isAdd = false),  // real deletion
      EdgeUpdate(7, 8, 0.0, isAdd = false),  // missing: no-op
    )))
    assert(eff.size == 2)
    assert(g.hasEdge(5, 6) && !g.hasEdge(1, 2) && g.hasEdge(0, 1))
    assert(g.vertices.contains(6L))
  }

  test("deletion reports the old weight so revision messages can cancel it") {
    val g = GraphState.fromEdges(Seq(RawEdge(0, 1, 7)))
    val eff = g.applyDelta(GraphDelta(Seq(EdgeUpdate(0, 1, 0.0, isAdd = false))))
    assert(eff.head.w == 7.0)
  }

  test("weight change = delete + add") {
    val g = GraphState.fromEdges(Seq(RawEdge(0, 1, 7)))
    g.applyDelta(GraphDelta(Seq(
      EdgeUpdate(0, 1, 0.0, isAdd = false), EdgeUpdate(0, 1, 3.0, isAdd = true))))
    assert(g.weight(0, 1).contains(3.0))
  }

  test("adjacency folds PageRank d/N_u into edge weights") {
    val g = GraphState.fromEdges(Seq(RawEdge(0, 1, 1), RawEdge(0, 2, 1), RawEdge(2, 1, 5)))
    val adj = g.adjacency(PageRank())
    assert(adj.row(0L).forall(_._2 == 0.85 / 2))
    assert(adj.row(2L).head._2 == 0.85)
  }

  test("adjacency folds PHP d*w/W_u into edge weights") {
    val g = GraphState.fromEdges(Seq(RawEdge(0, 1, 1), RawEdge(0, 2, 3)))
    val adj = g.adjacency(PHP(9)).row(0L).toMap
    assert(math.abs(adj(1L) - 0.85 * 0.25) < 1e-12)
    assert(math.abs(adj(2L) - 0.85 * 0.75) < 1e-12)
  }

  test("reverse adjacency mirrors the forward one") {
    val g = GraphGen.random(40, 3.0, 3)
    val algo = SSSP(0)
    val fwd = g.adjacency(algo)
    val rev = g.reverseAdjacency(algo)
    val fwdPairs = fwd.edges.toSet
    val revPairs = rev.edges.map { case (v, u, w) => (u, v, w) }.toSet
    assert(fwdPairs == revPairs)
  }

  test("copyGraph isolates mutations") {
    val g = GraphState.fromEdges(Seq(RawEdge(0, 1, 1)))
    val c = g.copyGraph()
    c.applyDelta(GraphDelta(Seq(EdgeUpdate(0, 1, 0.0, isAdd = false))))
    assert(g.hasEdge(0, 1) && !c.hasEdge(0, 1))
  }

  test("out-degree stats match DuckDB over the exported edge list") {
    val g = GraphGen.random(60, 3.0, 17)
    val rows = g.out.toSeq.collect { case (u, m) if m.nonEmpty => (u, m.size.toLong, m.valuesIterator.sum) }
    val df = spark.createDataFrame(rows).toDF("src", "deg", "sw")
    Oracle.assertEquivalent(df,
      """SELECT CAST(src AS BIGINT) AS src, COUNT(*) AS deg, SUM(CAST(w AS DOUBLE)) AS sw
        |FROM edges GROUP BY src""".stripMargin,
      "edges" -> g.toDF(spark))
  }

  test("edge count round-trips through the DataFrame export") {
    val g = GraphGen.random(60, 3.0, 23)
    assert(g.toDF(spark).count() == g.numEdges)
  }
}

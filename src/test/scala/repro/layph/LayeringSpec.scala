package repro.layph

import scala.collection.mutable
import repro.{Oracle, SparkSpec}
import repro.TestUtil.assertClose
import repro.core._

class LayeringSpec extends SparkSpec {

  /** Planted membership: community c = v / commSize. */
  private def planted(g: GraphState, commSize: Int): Map[Long, Long] =
    g.vertices.map(v => v -> v / commSize).toMap

  test("Definition 2 dense-subgraph selection matches the SQL oracle") {
    val g = GraphGen.community(5, 30, 4.0, 120, 21)
    val cfg = LayphConfig(minCommunitySize = 3)
    val cand = planted(g, 30)
    val memb = Layering.selectDense(g, cand, cfg, Set.empty)
    // original labels of the kept communities
    val kept = memb.iterator.map { case (v, _) => cand(v) }.toSeq.distinct.sorted
    val keptDf = spark.createDataFrame(kept.map(Tuple1(_))).toDF("comm")
    val membDf = spark.createDataFrame(cand.toSeq).toDF("v", "c")
    Oracle.assertEquivalent(keptDf,
      """WITH e AS (SELECT CAST(src AS BIGINT) src, CAST(dst AS BIGINT) dst FROM edges),
        |m AS (SELECT CAST(v AS BIGINT) v, CAST(c AS BIGINT) c FROM memb),
        |inner_e AS (
        |  SELECT m1.c c, COUNT(*) ne FROM e
        |  JOIN m m1 ON e.src = m1.v JOIN m m2 ON e.dst = m2.v AND m1.c = m2.c
        |  GROUP BY m1.c),
        |ins AS (
        |  SELECT m2.c c, COUNT(DISTINCT e.dst) n FROM e
        |  JOIN m m2 ON e.dst = m2.v JOIN m m1 ON e.src = m1.v
        |  WHERE m1.c <> m2.c GROUP BY m2.c),
        |outs AS (
        |  SELECT m1.c c, COUNT(DISTINCT e.src) n FROM e
        |  JOIN m m1 ON e.src = m1.v JOIN m m2 ON e.dst = m2.v
        |  WHERE m1.c <> m2.c GROUP BY m1.c),
        |sz AS (SELECT c, COUNT(*) n FROM m GROUP BY c)
        |SELECT i.c AS comm FROM inner_e i
        |JOIN sz ON sz.c = i.c
        |LEFT JOIN ins ON ins.c = i.c LEFT JOIN outs ON outs.c = i.c
        |WHERE COALESCE(ins.n, 0) * COALESCE(outs.n, 0) < i.ne AND sz.n >= 3
        |""".stripMargin,
      "edges" -> g.toDF(spark), "memb" -> membDf)
  }

  test("protected vertices (roots) are never inside a subgraph") {
    val g = GraphGen.community(4, 30, 4.0, 60, 22)
    val memb = Layering.selectDense(g, planted(g, 30), LayphConfig(), Set(0L, 31L))
    assert(!memb.contains(0L) && !memb.contains(31L))
  }

  test("entry/exit classification matches the SQL oracle (Definition 1)") {
    val g = GraphGen.community(4, 25, 4.0, 80, 23)
    val memb = Layering.selectDense(g, planted(g, 25), LayphConfig(), Set.empty)
    val n = if (memb.isEmpty) 0 else memb.values.max + 1
    val adj = Layering.effectiveAdjacency(g, SSSP(0), memb, Replication.none)
    val roles = Layering.roles(adj, memb, n)
    val ours = (0 until n).flatMap { i =>
      roles(i).entries.toSeq.map(v => (i.toLong, v, "entry")) ++
        roles(i).exits.toSeq.map(v => (i.toLong, v, "exit"))
    }
    val oursDf = spark.createDataFrame(ours).toDF("sg", "v", "kind")
    val membDf = spark.createDataFrame(memb.toSeq.map { case (v, c) => (v, c.toLong) }).toDF("v", "c")
    Oracle.assertEquivalent(oursDf,
      """WITH e AS (SELECT CAST(src AS BIGINT) src, CAST(dst AS BIGINT) dst FROM edges),
        |m AS (SELECT CAST(v AS BIGINT) v, CAST(c AS BIGINT) c FROM memb),
        |x AS (SELECT e.src, e.dst, m1.c sc, m2.c dc
        |      FROM e LEFT JOIN m m1 ON e.src = m1.v LEFT JOIN m m2 ON e.dst = m2.v)
        |SELECT dc AS sg, dst AS v, 'entry' AS kind FROM x
        |WHERE dc IS NOT NULL AND (sc IS NULL OR sc <> dc)
        |GROUP BY dc, dst
        |UNION
        |SELECT sc AS sg, src AS v, 'exit' AS kind FROM x
        |WHERE sc IS NOT NULL AND (dc IS NULL OR dc <> sc)
        |GROUP BY sc, src
        |""".stripMargin,
      "edges" -> g.toDF(spark), "memb" -> membDf)
  }

  test("replication plan triggers exactly on the threshold") {
    // host 100 fires 3 edges into community 0, host 101 only 2
    val g = GraphState.fromEdges(Seq(
      RawEdge(0, 1, 1), RawEdge(1, 2, 1), RawEdge(2, 0, 1), RawEdge(0, 2, 1),
      RawEdge(100, 0, 1), RawEdge(100, 1, 1), RawEdge(100, 2, 1),
      RawEdge(101, 0, 1), RawEdge(101, 1, 1)))
    val memb = mutable.LongMap[Int](0L -> 0, 1L -> 0, 2L -> 0)
    val r = Layering.planReplication(g, memb, LayphConfig(replicationThreshold = 3))
    assert(r.inProxy.contains((100L, 0)) && !r.inProxy.contains((101L, 0)))
  }

  test("replication reduces the number of entry vertices") {
    val g = GraphState.fromEdges(Seq(
      RawEdge(0, 1, 1), RawEdge(1, 2, 1), RawEdge(2, 3, 2), RawEdge(3, 0, 1), RawEdge(1, 3, 4),
      RawEdge(100, 0, 1), RawEdge(100, 1, 1), RawEdge(100, 2, 1)))
    val memb = mutable.LongMap[Int](0L -> 0, 1L -> 0, 2L -> 0, 3L -> 0)
    val bare = Layering.roles(
      Layering.effectiveAdjacency(g, SSSP(100), memb, Replication.none), memb, 1)
    val repl = Layering.planReplication(g, memb, LayphConfig(replicationThreshold = 3))
    repl.proxies.foreach(p => memb(p.id) = p.sg)
    val shaped = Layering.roles(
      Layering.effectiveAdjacency(g, SSSP(100), memb, repl), memb, 1)
    assert(bare(0).entries.size == 3)
    assert(shaped(0).entries.size == 1, s"expected 1 proxy entry, got ${shaped(0).entries}")
  }

  for (name <- Seq("SSSP", "BFS", "PageRank", "PHP"); seed <- 1 to 2) {
    test(s"effective (replicated) graph preserves semantics: $name seed $seed") {
      val g = GraphGen.community(4, 30, 8.0, 24, seed * 51, nBursts = 8)
      val algo: VCAlgo = name match {
        case "SSSP" => SSSP(0); case "BFS" => BFS(0)
        case "PageRank" => PageRank(eps = 1e-9); case "PHP" => PHP(0, eps = 1e-9)
      }
      val memb = Layering.selectDense(g, planted(g, 30), LayphConfig(),
        algo.roots.getOrElse(Set.empty))
      val repl = Layering.planReplication(g, memb, LayphConfig(replicationThreshold = 2))
      repl.proxies.foreach(p => memb(p.id) = p.sg)
      assert(repl.proxies.nonEmpty, "fixture should trigger replication")
      val adj = Layering.effectiveAdjacency(g, algo, memb, repl)

      val states = mutable.LongMap.empty[Double]
      val seeds: Seq[(Long, Double)] = algo.roots match {
        case Some(rs) => rs.toSeq.map(v => v -> algo.initMsg(v))
        case None     => g.vertices.toSeq.map(v => v -> algo.initMsg(v)) // proxies carry no M0
      }
      g.vertices.foreach(v => states(v) = algo.defaultState)
      repl.proxies.foreach(p => states(p.id) = algo.defaultState)
      val run = LocalEngine.run(algo, adj, states, seeds,
        absorbing = algo.absorbing)
      val raw = LocalEngine.batch(algo, g)
      val real = mutable.LongMap.empty[Double]
      run.states.foreach { case (v, x) => if (!repl.isProxy(v)) real(v) = x }
      assertClose(raw.states, real, 1e-6, s"$name/$seed")
    }
  }
}

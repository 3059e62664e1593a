package repro.layph

import org.apache.spark.sql.functions.{col, hash, lit, pmod, when}
import repro.{SparkSpec, SynthData}
import repro.core.RawEdge

class CommunitySpec extends SparkSpec {

  private def plantedGraph = SynthData.communityGraph(spark,
    nComm = 6, commSize = 30, intraDegree = 5.0, nBursts = 10, burstFan = 3, nSingles = 30, seed = 3)

  test("label propagation recovers planted communities with high purity") {
    val m = Community.detectMap(spark, plantedGraph, rounds = 6, maxSize = 200)
    val purity = (0 until 6).map { c =>
      val members = (0 until 30).map(j => (c * 30 + j).toLong).filter(m.contains)
      val top = members.groupBy(m).values.map(_.size).max
      top.toDouble / members.size
    }
    // synchronous LPA occasionally splits a community in two; detectMap
    // merges such fragments, and the 0.6 floor still leaves room for a split
    // that is harmless for layering (both halves can be dense subgraphs)
    assert(purity.forall(_ >= 0.6), s"low purity: $purity")
    assert(purity.sum / purity.size >= 0.8, s"low average purity: $purity")
  }

  test("size cap splits oversized communities") {
    val m = Community.detectMap(spark, plantedGraph, rounds = 6, maxSize = 12)
    val sizes = m.groupBy(_._2).values.map(_.size)
    assert(sizes.max <= 24, s"community above cap tolerance: ${sizes.max}")
  }

  test("every vertex with an edge is assigned exactly one community") {
    val df = plantedGraph
    val m = Community.detectMap(spark, df, rounds = 4, maxSize = 200)
    val verts = df.select("src").union(df.select("dst")).distinct().count()
    assert(m.size == verts)
  }

  test("detection is deterministic") {
    val a = Community.detectMap(spark, plantedGraph, rounds = 4, maxSize = 200)
    val b = Community.detectMap(spark, plantedGraph, rounds = 4, maxSize = 200)
    assert(a == b)
  }

  test("a label cut into more than 1000 parts keeps apart from the next label") {
    import spark.implicits._
    // LPA labels the star on 0 and 2..1102 as 0, and the cap cuts it into
    // 1102 parts; the pair {1, 5000} is labelled 1 and shares no community
    // with the star
    val edges = ((2L to 1102L).map(v => (0L, v, 1.0)) :+ ((1L, 5000L, 1.0))).toDF("src", "dst", "w")
    val m = Community.detectMap(spark, edges, rounds = 2, maxSize = 1)
    val star = (0L +: (2L to 1102L)).map(m).toSet
    assert(!star.contains(m(1L)) && !star.contains(m(5000L)))
  }

  test("community ids are dense from 0") {
    val m = Community.detectMap(spark, plantedGraph, rounds = 4, maxSize = 200)
    val ids = m.values.toSet
    assert(ids == (0L until ids.size).toSet)
  }

  test("the cap split is Spark SQL's pmod(hash(v), parts)") {
    import spark.implicits._
    val ids = Seq(0L, 1L, -1L, -42L, Int.MaxValue.toLong, 1L << 31, (1L << 31) + 7, 3000000019L,
      1L << 40, (1L << 40) + 5, (1L << 41) + 1, Long.MinValue, Long.MaxValue)
    Seq(1L, 2L, 3L, 7L, 1102L).foreach { parts =>
      val sql = ids.toDF("v").select(col("v"),
        when(lit(parts) <= 1, lit(0L)).otherwise(pmod(hash(col("v")).cast("long"), lit(parts))))
        .collect().map(r => r.getLong(0) -> r.getLong(1)).toMap
      assert(ids.map(v => v -> Community.part(v, parts)).toMap == sql, s"parts = $parts")
    }
  }

  test("a vote tie goes to the smallest label, whatever the edge order") {
    // 5 and 9 each see one vote for 5 and one for 9, so both take 5; the
    // pair {7, 8} takes 7, which ranks it after {5, 9}. Had the tie gone to
    // the larger label, {7, 8} (label 8) would rank before {5, 9} (label 9)
    val edges = Seq(RawEdge(5, 9, 1.0), RawEdge(8, 7, 1.0), RawEdge(7, 8, 1.0), RawEdge(5, 5, 1.0))
    val want = Map(5L -> 0L, 9L -> 0L, 7L -> 1L, 8L -> 1L)
    assert(Community.detectMap(edges.iterator, rounds = 6, maxSize = 200) == want)
    assert(Community.detectMap(edges.reverseIterator, rounds = 6, maxSize = 200) == want)
  }
}

package repro.layph

import repro.{SparkSpec, SynthData}

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
}

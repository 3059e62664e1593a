package repro

import org.apache.spark.sql.functions._

class SynthDataSpec extends SparkSpec {

  private def small = SynthData.communityGraph(spark,
    nComm = 5, commSize = 20, intraDegree = 4.0, nBursts = 8, burstFan = 3, nSingles = 20, seed = 9)

  test("communityGraph has no self loops (SQL oracle)") {
    val cnt = spark.createDataFrame(Seq(Tuple1(0L))).toDF("n")
      .select(lit(small.where(col("src") === col("dst")).count()).as("n"))
    Oracle.assertEquivalent(cnt,
      "SELECT COUNT(*) * 0 AS n FROM edges WHERE src = dst",
      "edges" -> small)
  }

  test("communityGraph has no duplicate (src, dst) pairs") {
    val df = small.cache()
    assert(df.count() == df.select("src", "dst").distinct().count())
  }

  test("communityGraph weights are integers in [1, 10] (SQL oracle)") {
    val stats = small.agg(
      min(col("w")).as("lo"), max(col("w")).as("hi"),
      sum(when(col("w") =!= floor(col("w")), 1).otherwise(0)).cast("double").as("frac"))
    Oracle.assertEquivalent(stats,
      """SELECT MIN(CAST(w AS DOUBLE)) AS lo, MAX(CAST(w AS DOUBLE)) AS hi,
        |CAST(0 AS DOUBLE) AS frac FROM edges""".stripMargin,
      "edges" -> small)
    val r = small.agg(min("w"), max("w")).collect()(0)
    assert(r.getDouble(0) >= 1.0 && r.getDouble(1) <= 10.0)
  }

  test("communityGraph vertex ids stay inside [0, nComm*commSize)") {
    val r = small.agg(min(least(col("src"), col("dst"))), max(greatest(col("src"), col("dst")))).collect()(0)
    assert(r.getLong(0) >= 0L && r.getLong(1) < 100L)
  }

  test("communityGraph is deterministic in the seed") {
    val a = small.orderBy("src", "dst").collect().toSeq
    val b = small.orderBy("src", "dst").collect().toSeq
    assert(a == b)
  }

  test("most edges are intra-community (planted locality)") {
    val total = small.count()
    val intra = small.where((col("src") / 20).cast("long") === (col("dst") / 20).cast("long")).count()
    assert(intra.toDouble / total > 0.6, s"$intra/$total")
  }

  test("bench profiles build non-trivial graphs") {
    val g = repro.bench.Workloads.build(spark, repro.bench.Workloads.UK, scale = 0.1)
    assert(g.numVertices > 500 && g.numEdges > 2000)
  }
}

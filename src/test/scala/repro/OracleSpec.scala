package repro

import org.apache.spark.sql.functions._

class OracleSpec extends SparkSpec {

  private def edges = SynthData.communityGraph(spark,
    nComm = 3, commSize = 10, intraDegree = 3.0, nBursts = 2, burstFan = 3, nSingles = 5)
  private val outDegrees = "SELECT src, COUNT(*) AS n FROM edges GROUP BY src"

  test("oracle accepts a matching aggregate") {
    val df = edges
    val got = df.groupBy("src").agg(count(lit(1)).as("n"))
    Oracle.assertEquivalent(got, outDegrees, "edges" -> df)
  }

  test("oracle rejects a wrong result") {
    val df = edges
    val wrong = df.groupBy("src").agg((count(lit(1)) + 1).as("n"))
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(wrong, outDegrees, "edges" -> df)
    }
  }

  test("oracle rejects a column mismatch") {
    val df = edges
    val got = df.groupBy("src").agg(count(lit(1)).as("wrong_name"))
    intercept[IllegalArgumentException] {
      Oracle.assertEquivalent(got, outDegrees, "edges" -> df)
    }
  }
}

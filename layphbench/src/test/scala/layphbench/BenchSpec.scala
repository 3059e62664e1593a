package layphbench

import java.nio.file.{Files, Paths}
import scala.jdk.CollectionConverters._
import com.fasterxml.jackson.databind.ObjectMapper
import org.apache.spark.sql.SparkSession
import org.scalatest.funsuite.AnyFunSuite
import repro.bench.{GraphProfile, Workloads}
import repro.core.{SSSP, SparkEngine}
import repro.layph.{Community, LayphConfig, LayphEngine}

/** The benchmark's own code, on a tiny graph: job attribution, the
  * arithmetic behind the reported numbers, and the agreement between the
  * printed metric names and `BENCHMARK.json`.
  */
class BenchSpec extends AnyFunSuite {
  private lazy val spark = SparkSession.builder()
    .master("local[2]").appName("layphbench-test")
    .config("spark.ui.enabled", "false")
    .config("spark.sql.shuffle.partitions", "4")
    .getOrCreate()

  private val tinyGraph = GraphProfile("tiny", 4, 20, 4.0, 6, 3, 10, 1)
  private val tiny = Workload("tiny-sssp", tinyGraph, SSSP(0), 1e-9,
    (g, s) => Workloads.randomDelta(g, 2, 2, s))

  private val spec = new ObjectMapper().readTree(Files.readAllBytes(Paths.get("..", "BENCHMARK.json")))
  private def specMetrics(key: String): Seq[(String, String)] =
    spec.get(key).elements().asScala.map(m => m.get("name").asText -> m.get("unit").asText).toSeq

  test("median, throughput and covered time") {
    assert(Stats.median(Seq(3.0, 1.0, 2.0)) == 2.0)
    assert(Stats.median(Seq(4.0, 1.0, 2.0, 3.0)) == 2.5)
    // Harrell–Davis: for 5 samples the weights are the Beta(3, 3) masses of
    // the fifths of [0, 1], from its CDF 10x^3 - 15x^4 + 6x^5
    val beta33 = Seq(0.05792, 0.25952, 0.36512, 0.25952, 0.05792)
    val skewed = Seq(100.0, 1.0, 3.0, 2.0, 4.0)
    assert(math.abs(Stats.hdMedian(skewed) - beta33.zip(skewed.sorted).map { case (w, x) => w * x }.sum) < 1e-6)
    assert(math.abs(Stats.hdMedian(Seq(4.0, 1.0, 2.0, 3.0)) - 2.5) < 1e-9)
    assert(Stats.hdMedian(Seq(7.0)) == 7.0)
    // 30 unit updates in 1.5 s of update time
    assert(Stats.throughput(Seq(10, 20), Seq(500.0, 1000.0)) == 20.0)
    // overlapping jobs count once; parts outside the update are clipped
    assert(Stats.coveredMs(Seq((0.0, 10.0), (5.0, 20.0), (30.0, 40.0), (50.0, 60.0)), 2.0, 35.0) == 23.0)
    assert(Stats.coveredMs(Nil, 0.0, 10.0) == 0.0)
  }

  test("scheduling time is job wall time minus each stage's longest task") {
    val stages = Map(1 -> StageTotals(tasks = 4, runMs = 40, longestTaskMs = 30),
                     2 -> StageTotals(tasks = 2, runMs = 10, longestTaskMs = 20))
    val jobs = Seq(JobRecord("SparkEngine", 1000, 1100, Seq(1, 2)),
                   JobRecord("SparkEngine", 1200, 1220, Nil))
    val t = JobTotals.of(jobs, stages)
    assert(t.jobs == 2 && t.jobMs == 120.0 && t.jobMsP50 == 60.0)
    assert(t.schedMs == 50.0 + 20.0)
    assert(t.stages.tasks == 6 && t.stages.runMs == 50)
  }

  test("jobs are attributed to SparkEngine, LayphEngine and Community") {
    val g = Workloads.build(spark, tinyGraph)
    val l = new JobListener(spark.sparkContext)
    spark.sparkContext.addSparkListener(l)
    def layersOf(f: => Unit): Set[String] = {
      val from = System.currentTimeMillis(); f; val to = System.currentTimeMillis()
      l.drain()
      l.jobsBetween(from, to).map(_.layer).toSet
    }
    try {
      assert(layersOf(new SparkEngine(spark, 2).batch(SSSP(0), g)) == Set("SparkEngine"))
      // Spark SQL runs broadcast-exchange jobs on its own threads, whose
      // stacks hold no repro frame; engines use RDDs and never do that
      val lpa = layersOf(Community.detectMap(spark, g.toDF(spark)))
      assert(lpa.contains("Community") && lpa.subsetOf(Set("Community", "other")))
      val memb = g.vertices.map(v => v -> v / tinyGraph.commSize).toMap
      val layph = new LayphEngine(spark, LayphConfig(fixedMembership = Some(memb)), 2)
      assert(layersOf(layph.initialize(g, SSSP(0))) == Set("SparkEngine", "LayphEngine"))
    } finally spark.sparkContext.removeSparkListener(l)
    assert(JobListener.layerOf("collect at Community.scala:76") == "Community")
    assert(JobListener.layerOf("no repro frame here") == "other")
  }

  test("the metric lists match BENCHMARK.json") {
    assert(Metrics.endToEnd.map(m => m.name -> m.unit) == specMetrics("end_to_end"))
    assert(Metrics.perLayer.map(m => m.name -> m.unit) == specMetrics("per_layer"))
    assert(spec.get("workloads").elements().asScala.map(_.get("name").asText).toSet
      .subsetOf(Workload.all.map(_.name).toSet))
  }

  test("runs on a tiny graph print exactly the metrics BENCHMARK.json names") {
    Seq(false -> "end_to_end", true -> "per_layer").foreach { case (trace, key) =>
      val out = Files.createTempDirectory("layphbench-test").toString
      val res = new BenchRun(spark, tiny, Options(tiny.name, 3, 0, trace, outDir = out)).execute()
      val line = new ObjectMapper().readTree(res.line)
      assert(line.fieldNames().asScala.toSet == Set("correct", "attempted", "failed", "metrics"))
      assert(line.get("correct").asBoolean, res.report.mkString("\n"))
      assert(line.get("attempted").asInt >= 4) // two ΔGs, each to both systems
      assert(line.get("failed").asInt == 0)
      val metrics = line.get("metrics")
      val printed = metrics.fieldNames().asScala.map(k => k -> metrics.get(k).get("unit").asText).toSeq
      assert(printed == specMetrics(key))
      assert(res.fingerprint.deltaHashes.size == line.get("attempted").asInt / 2)
      // a fingerprint from other inputs is refused, a longer stream is not
      assert(FingerprintStore.admit(Paths.get(out), res.fingerprint))
      assert(FingerprintStore.admit(Paths.get(out), res.fingerprint.copy(deltaHashes = res.fingerprint.deltaHashes :+ 1)))
      assert(!FingerprintStore.admit(Paths.get(out), res.fingerprint.copy(edgeHash = res.fingerprint.edgeHash + 1)))
    }
  }
}

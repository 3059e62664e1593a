package repro.bench

import repro.SparkSpec

/** Figure 9 analog: scaling with worker parallelism (`partitions`, the F
  * tasks per BSP round, stands in for the paper's 1-32 threads).
  */
class T5ScalingBench extends SparkSpec {
  test("Figure 9: thread/partition scaling") {
    val out = Tables.threadScaling(spark, Harness.benchScale)
    println(out)
    assert(out.contains("Partitions"))
  }
}

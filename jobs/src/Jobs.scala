package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.bench.{Harness, Tables}

/** spark-submit entrypoints, one per reproduced table/figure.
  *
  *   sbt "jobs/runMain repro.jobs.OverallJob [scale]"
  *
  * Each prints the same markdown table its bench-suite twin produces.
  */
object Jobs {
  def session(): SparkSession = SparkSession.builder()
    .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
    .appName("layph-repro")
    .config("spark.sql.shuffle.partitions", "64")
    .config("spark.sql.autoBroadcastJoinThreshold", -1)
    .getOrCreate()

  def scaleOf(args: Array[String]): Double =
    args.headOption.map(_.toDouble).getOrElse(Harness.benchScale)
}

object DatasetStatsJob {
  def main(args: Array[String]): Unit = { val s = Jobs.session(); println(Tables.datasets(s, Jobs.scaleOf(args))); s.stop() }
}

object OverallJob {
  def main(args: Array[String]): Unit = {
    val s = Jobs.session()
    println(Tables.overall(s, Jobs.scaleOf(args)))
    println(Tables.vertexUpdates(s, Jobs.scaleOf(args)))
    s.stop()
  }
}

object BreakdownJob {
  def main(args: Array[String]): Unit = { val s = Jobs.session(); println(Tables.breakdown(s, Jobs.scaleOf(args))); s.stop() }
}

object ReplicationJob {
  def main(args: Array[String]): Unit = { val s = Jobs.session(); println(Tables.replication(s, Jobs.scaleOf(args))); s.stop() }
}

/** Figure 9 analog: runtime vs `partitions`, n in 1..16, inside one
  * SparkSession. `partitions` is the number of F tasks per BSP round (and
  * of Layph's per-subgraph tasks), the stand-in for the paper's 1-32
  * worker threads; the session's core count stays fixed.
  */
object ThreadScalingJob {
  def main(args: Array[String]): Unit = {
    val s = Jobs.session()
    println(Tables.threadScaling(s, Jobs.scaleOf(args)))
    s.stop()
  }
}

object BatchSizeJob {
  def main(args: Array[String]): Unit = { val s = Jobs.session(); println(Tables.batchSize(s, Jobs.scaleOf(args))); s.stop() }
}

object OverheadJob {
  def main(args: Array[String]): Unit = { val s = Jobs.session(); println(Tables.overhead(s, Jobs.scaleOf(args))); s.stop() }
}

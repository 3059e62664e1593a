package layphbench

import java.nio.file.{Files, Path, Paths}
import java.nio.charset.StandardCharsets.UTF_8
import org.apache.spark.sql.SparkSession

/** Command line of one benchmark run. */
final case class Options(
    workload: String = "",
    seed: Long = 1,
    seconds: Int = 10,
    trace: Boolean = false,
    outDir: String = ".bench_out",
)

object Options {
  def parse(args: Seq[String]): Options = args match {
    case Seq() => Options()
    case "--workload" +: v +: rest => parse(rest).copy(workload = v)
    case "--seed" +: v +: rest     => parse(rest).copy(seed = v.toLong)
    case "--seconds" +: v +: rest  => parse(rest).copy(seconds = v.toInt)
    case "--trace" +: v +: rest    => parse(rest).copy(trace = v == "1")
    case "--out" +: v +: rest      => parse(rest).copy(outDir = v)
    case other => throw new IllegalArgumentException(s"unexpected arguments: ${other.mkString(" ")}")
  }
}

/** Entry point: `layphbench.Main --workload <name> --seed <n> --seconds <s>
  * --trace <0|1>`. Prints progress, then a table of every metric, then the
  * result line (the last line of standard output). Exit code 0 only when a
  * result was printed.
  */
object Main {
  /** Fixed, so the generated graph does not depend on the machine: the
    * generator draws one random stream per `spark.range` partition.
    */
  val Master = "local[4]"

  def session(outDir: String): SparkSession = {
    val s = SparkSession.builder()
      .master(Master)
      .appName("layphbench")
      .config("spark.ui.enabled", "false")
      .config("spark.sql.shuffle.partitions", "8")
      .config("spark.local.dir", Paths.get(outDir, "spark-local").toAbsolutePath.toString)
      .config("spark.sql.warehouse.dir", Paths.get(outDir, "warehouse").toAbsolutePath.toString)
      .getOrCreate()
    s.sparkContext.setLogLevel("ERROR")
    s
  }

  def main(args: Array[String]): Unit = {
    val opts = Options.parse(args.toSeq)
    val wl = Workload.byName(opts.workload)
    Files.createDirectories(Paths.get(opts.outDir))
    val spark = session(opts.outDir)
    val code =
      try {
        val res = new BenchRun(spark, wl, opts).execute()
        if (!FingerprintStore.admit(Paths.get(opts.outDir), res.fingerprint)) 3
        else {
          val dir = Files.createDirectories(Paths.get(opts.outDir, "results"))
          Files.write(dir.resolve(s"${wl.name}-seed${opts.seed}-trace${if (opts.trace) 1 else 0}.json"),
            res.record.getBytes(UTF_8))
          res.report.foreach(println)
          println(res.line)
          0
        }
      } finally spark.stop()
    sys.exit(code)
  }
}

/** Keeps the first fingerprint seen per workload and seed, and refuses a
  * later run of the same workload and seed whose inputs or set-up differ.
  */
object FingerprintStore {
  def admit(outDir: Path, fp: Fingerprint): Boolean = {
    val dir = Files.createDirectories(outDir.resolve("fingerprints"))
    val file = dir.resolve(s"${fp.workload}-seed${fp.seed}.json")
    if (Files.exists(file)) {
      val old = Fingerprint.fromJson(new String(Files.readAllBytes(file), UTF_8))
      if (!Fingerprint.comparable(old, fp)) {
        System.err.println(s"refusing the run: fingerprint differs from $file\n  was ${old.toJson}\n  now ${fp.toJson}")
        return false
      }
      if (old.deltaHashes.length >= fp.deltaHashes.length) return true
    }
    Files.write(file, fp.toJson.getBytes(UTF_8))
    true
  }
}

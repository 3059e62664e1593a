package repro

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

/** Synthetic input graphs, generated as Spark DataFrames so that the
  * graph and its DuckDB oracle checks see identical rows.
  */
object SynthData {

  /** Partitions of every range that `communityGraph` draws from. */
  private val Slices = 4

  /** Directed weighted graph with planted community structure — the
    * synthetic stand-in for the paper's web/social graphs (UK/IT/SK/WB),
    * scaled to laptop size. Vertices 0..nComm*commSize-1 are grouped into
    * contiguous communities; most edges stay inside a community, and the
    * cross-community edges come in two flavors:
    *
    *  - "bursts": one source vertex firing `burstFan` edges into a single
    *    foreign community — the high-degree boundary pattern of Figure 4
    *    that makes vertex replication pay off;
    *  - single random cross edges.
    *
    * Deterministic in the seed; integer weights in [1, 10]. Self loops and
    * duplicate (src, dst) pairs are dropped. `rand` draws one stream per
    * partition, so every generating range has a fixed `Slices` partitions
    * and the graph does not move with the core count. The output still
    * depends on the join plan Spark picks for the bursts' `crossJoin`:
    * with 4 slices the planted test graph of `CommunitySpec` has 873 edges
    * with broadcast joins off and 872 with them on, and the `UK` profile
    * has 67,163 and 67,158.
    *
    * @return DataFrame (src: long, dst: long, w: double)
    */
  def communityGraph(
      spark: SparkSession,
      nComm: Int,
      commSize: Int,
      intraDegree: Double,
      nBursts: Int,
      burstFan: Int,
      nSingles: Int,
      seed: Long = 7,
  ): DataFrame = {
    val nV = nComm.toLong * commSize
    val nIntra = (nV * intraDegree).toLong

    val intra = spark.range(0, nIntra, 1, Slices).select(
      (col("id") % nComm) as "c",
      (rand(seed)     * commSize).cast(LongType) as "so",
      (rand(seed + 1) * commSize).cast(LongType) as "do",
      (rand(seed + 2) * 10 + 1).cast(IntegerType).cast(DoubleType) as "w",
    ).select(
      (col("c") * commSize + col("so")) as "src",
      (col("c") * commSize + col("do")) as "dst",
      col("w"),
    )

    val bursts = spark.range(0, nBursts.toLong, 1, Slices).select(
      (rand(seed + 3) * nV).cast(LongType) as "src",
      (rand(seed + 4) * nComm).cast(LongType) as "tc",
      col("id"),
    ).crossJoin(spark.range(0, burstFan.toLong, 1, Slices).select(col("id") as "j")).select(
      col("src"),
      (col("tc") * commSize +
        (rand(seed + 5) * commSize).cast(LongType)) as "dst",
      (rand(seed + 6) * 10 + 1).cast(IntegerType).cast(DoubleType) as "w",
    )

    val singles = spark.range(0, nSingles.toLong, 1, Slices).select(
      (rand(seed + 7) * nV).cast(LongType) as "src",
      (rand(seed + 8) * nV).cast(LongType) as "dst",
      (rand(seed + 9) * 10 + 1).cast(IntegerType).cast(DoubleType) as "w",
    )

    intra.unionByName(bursts).unionByName(singles)
      .where(col("src") =!= col("dst"))
      .groupBy("src", "dst").agg(min(col("w")) as "w")
  }
}

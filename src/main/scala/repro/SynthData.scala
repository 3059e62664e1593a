package repro

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

/** Synthetic OLAP data at a configurable scale factor.
  *
  * SF=1.0 is roughly TPC-H SF1 (~1 GB across tables). Tests use SF<=0.01;
  * benchmarks use SF~=0.1. Generators are deterministic in (sf, seed) so
  * the DuckDB oracle sees identical input.
  */
object SynthData {
  private val NLineitemPerSf = 6_000_000L
  private val NOrdersPerSf   = 1_500_000L
  private val NCustomerPerSf =   150_000L
  private val NPartPerSf     =   200_000L

  private def n(base: Long, sf: Double): Long = math.max(1L, (base * sf).toLong)

  def lineitem(spark: SparkSession, sf: Double = 0.01, seed: Long = 0): DataFrame = {
    import spark.implicits._
    val nOrders = n(NOrdersPerSf, sf); val nPart = n(NPartPerSf, sf)
    spark.range(n(NLineitemPerSf, sf)).select(
      (rand(seed)     * nOrders + 1).cast(LongType)    as "l_orderkey",
      (rand(seed + 1) * nPart   + 1).cast(LongType)    as "l_partkey",
      (rand(seed + 2) * 7 + 1).cast(IntegerType)       as "l_linenumber",
      (rand(seed + 3) * 50 + 1).cast(DoubleType)       as "l_quantity",
      round(rand(seed + 4) * 90000 + 900, 2)           as "l_extendedprice",
      round(rand(seed + 5) * 0.10, 2)                  as "l_discount",
      round(rand(seed + 6) * 0.08, 2)                  as "l_tax",
      element_at(array(lit("N"), lit("R"), lit("A")),
                 (rand(seed + 7) * 3 + 1).cast("int")) as "l_returnflag",
      element_at(array(lit("O"), lit("F")),
                 (rand(seed + 8) * 2 + 1).cast("int")) as "l_linestatus",
      date_add(lit("1992-01-01").cast(DateType),
               (rand(seed + 9) * 2557).cast("int"))    as "l_shipdate",
    )
  }

  def orders(spark: SparkSession, sf: Double = 0.01, seed: Long = 1): DataFrame = {
    import spark.implicits._
    val nCust = n(NCustomerPerSf, sf)
    spark.range(1, n(NOrdersPerSf, sf) + 1).toDF("o_orderkey").select(
      $"o_orderkey",
      (rand(seed)     * nCust + 1).cast(LongType)             as "o_custkey",
      element_at(array(lit("O"), lit("F"), lit("P")),
                 (rand(seed + 1) * 3 + 1).cast("int"))         as "o_orderstatus",
      round(rand(seed + 2) * 500000 + 1000, 2)                 as "o_totalprice",
      date_add(lit("1992-01-01").cast(DateType),
               (rand(seed + 3) * 2406).cast("int"))            as "o_orderdate",
    )
  }

  def customer(spark: SparkSession, sf: Double = 0.01, seed: Long = 2): DataFrame = {
    import spark.implicits._
    spark.range(1, n(NCustomerPerSf, sf) + 1).toDF("c_custkey").select(
      $"c_custkey",
      (rand(seed) * 25).cast(IntegerType)                as "c_nationkey",
      round(rand(seed + 1) * 10000 - 1000, 2)            as "c_acctbal",
      element_at(array(lit("BUILDING"), lit("AUTOMOBILE"), lit("MACHINERY"),
                       lit("HOUSEHOLD"), lit("FURNITURE")),
                 (rand(seed + 2) * 5 + 1).cast("int"))   as "c_mktsegment",
    )
  }

  def part(spark: SparkSession, sf: Double = 0.01, seed: Long = 5): DataFrame = {
    import spark.implicits._
    spark.range(1, n(NPartPerSf, sf) + 1).toDF("p_partkey").select(
      $"p_partkey",
      element_at(array(lit("STANDARD"), lit("SMALL"), lit("MEDIUM"),
                       lit("LARGE"), lit("ECONOMY"), lit("PROMO")),
                 (rand(seed) * 6 + 1).cast("int"))              as "p_type",
      (rand(seed + 1) * 50 + 1).cast(IntegerType)               as "p_size",
      round(lit(900.0) + ($"p_partkey" % 1000) / 10.0, 2)       as "p_retailprice",
    )
  }

  /** Skewed key column — for join-skew / cardinality-estimation papers. */
  def zipfKeys(spark: SparkSession, rows: Long, nKeys: Long,
               alpha: Double = 1.1, seed: Long = 3): DataFrame = {
    import spark.implicits._
    // Inverse-CDF draw over rank weights 1/k^alpha; good enough for skew.
    val norm = (1L to math.min(nKeys, 10000L)).map(k => 1.0 / math.pow(k, alpha)).sum
    spark.range(rows).select(
      least(lit(nKeys),
            greatest(lit(1L),
              pow(lit(1.0) / (rand(seed) * norm + 1e-9), lit(1.0 / alpha)).cast(LongType)
            )) as "k",
      rand(seed + 1) as "v",
    )
  }

  def uniformKeys(spark: SparkSession, rows: Long, nKeys: Long, seed: Long = 4): DataFrame = {
    import spark.implicits._
    spark.range(rows).select(
      (rand(seed) * nKeys + 1).cast(LongType) as "k",
      rand(seed + 1)                          as "v",
    )
  }

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
    import spark.implicits._
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
    ).crossJoin(spark.range(0, burstFan.toLong, 1, Slices).toDF("j")).select(
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

package repro.layph

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import repro.core.RawEdge

/** Dense-subgraph candidate discovery.
  *
  * The paper discovers candidates with a community detection algorithm
  * (Louvain) and caps community sizes at a threshold K. Distributed
  * Louvain is notoriously sequential; we substitute synchronous *label
  * propagation* with a deterministic tie-break and the same size cap K —
  * it optimizes the same objective the paper actually relies on (many
  * internal edges, few boundary vertices) and runs as pure Catalyst
  * DataFrame operations. Synchronous LPA can split a community into
  * fragments, so [[detectMap]], the one detection path, follows it with the
  * greedy fragment merge of [[agglomerate]] and returns dense ids. The
  * substitution is recorded in DESIGN.md.
  */
object Community {

  /** Capped LPA.
    *
    * @param edgesDF   (src: long, dst: long, w: double) edge list
    * @param rounds    synchronous LPA rounds
    * @param maxSize   community size cap K (oversized groups are hash-split)
    * @return          vertex -> community, the community being the rank of
    *                  the vertex's (label, part) pair among the distinct
    *                  pairs in sorted order; every vertex of the edge list
    *                  appears exactly once
    */
  private def detect(spark: SparkSession, edgesDF: DataFrame, rounds: Int, maxSize: Int): Map[Long, Long] = {
    // Undirected view: community structure ignores edge direction.
    val und = edgesDF.select(col("src").as("a"), col("dst").as("b"))
      .union(edgesDF.select(col("dst").as("a"), col("src").as("b")))
      .where(col("a") =!= col("b"))
      .distinct()
      .cache()

    // localCheckpoint each round: iterative self-joins otherwise grow the
    // logical plan exponentially and Catalyst analysis dominates runtime
    var labels = und.select(col("a").as("v")).distinct()
      .withColumn("label", col("v"))
      .localCheckpoint()

    for (_ <- 1 to rounds) {
      // each vertex votes its label to its neighbors; vertices keep a self
      // vote so singleton oscillation dies out deterministically
      val votes = und.join(labels, und("a") === labels("v"))
        .select(col("b").as("v"), col("label"))
        .union(labels.select(col("v"), col("label")))
      val counted = votes.groupBy("v", "label").agg(count(lit(1)).as("n"))
      val w = Window.partitionBy("v").orderBy(col("n").desc, col("label").asc)
      val next = counted
        .withColumn("rk", row_number().over(w))
        .where(col("rk") === 1)
        .select(col("v"), col("label"))
        .localCheckpoint()
      labels.unpersist(blocking = false)
      labels = next
    }

    // size cap K: hash-split oversized communities into ceil(size/K) buckets
    val sizes = labels.groupBy("label").agg(count(lit(1)).as("sz"))
    val vlp = labels.join(sizes, "label")
      .withColumn("parts", ceil(col("sz") / lit(maxSize.toDouble)).cast("long"))
      .withColumn("part",
        when(col("parts") <= 1, lit(0L)).otherwise(pmod(hash(col("v")).cast("long"), col("parts"))))
      .select(col("v"), col("label"), col("part"))
      .collect().map(r => (r.getLong(0), (r.getLong(1), r.getLong(2))))
    und.unpersist(blocking = false)
    labels.unpersist(blocking = false)
    // a community is the pair (label, part), numbered densely in that order
    val cid = vlp.map(_._2).distinct.sorted.zipWithIndex.toMap
    vlp.iterator.map { case (v, lp) => v -> cid(lp).toLong }.toMap
  }

  /** Dense-subgraph candidates: capped LPA ([[detect]]), then the driver-side
    * fragment merge of [[agglomerate]] over the directed (src, dst) rows of `edgesDF`
    * under the same cap, renumbered densely from 0 in the order of the
    * merged ids.
    *
    * @return vertex -> community id; every vertex of the edge list appears
    *         exactly once, and the ids are 0 until the number of communities
    */
  def detectMap(spark: SparkSession, edgesDF: DataFrame, rounds: Int = 6, maxSize: Int = 1500): Map[Long, Long] = {
    val lpa = detect(spark, edgesDF, rounds, maxSize)
    val edges = edgesDF.select("src", "dst").collect().iterator.map(r => RawEdge(r.getLong(0), r.getLong(1), 0.0))
    val merged = agglomerate(edges, lpa, maxSize)
    val dense = merged.values.toSeq.distinct.sorted.zipWithIndex.map { case (c, i) => c -> i.toLong }.toMap
    merged.map { case (v, c) => v -> dense(c) }
  }

  /** Louvain-flavored agglomeration: synchronous LPA fragments large sparse
    * communities; this pass greedily merges a fragment into its strongest
    * partner whenever their connecting edges outnumber half the fragment's
    * internal edges (and the size cap allows it). Deterministic.
    */
  def agglomerate(
      edges: Iterator[RawEdge],
      cand0: Map[Long, Long],
      maxSize: Int,
      passes: Int = 4,
  ): Map[Long, Long] = {
    val edgeList = edges.toArray
    var cand = cand0
    var done = false
    var pass = 0
    while (!done && pass < passes) {
      pass += 1
      val intra = scala.collection.mutable.Map.empty[Long, Long]
      val pair = scala.collection.mutable.Map.empty[(Long, Long), Long]
      val szm = scala.collection.mutable.Map.empty[Long, Int]
      cand.valuesIterator.foreach(c => szm.update(c, szm.getOrElse(c, 0) + 1))
      edgeList.foreach { e =>
        (cand.get(e.src), cand.get(e.dst)) match {
          case (Some(a), Some(b)) if a == b => intra.update(a, intra.getOrElse(a, 0L) + 1)
          case (Some(a), Some(b)) =>
            val k = (math.min(a, b), math.max(a, b))
            pair.update(k, pair.getOrElse(k, 0L) + 1)
          case _ =>
        }
      }
      val best = scala.collection.mutable.Map.empty[Long, (Long, Long)]
      pair.foreach { case ((a, b), n) =>
        if (best.get(a).forall(p => p._2 < n || (p._2 == n && p._1 < b))) best(a) = (b, n)
        if (best.get(b).forall(p => p._2 < n || (p._2 == n && p._1 < a))) best(b) = (a, n)
      }
      val remap = scala.collection.mutable.Map.empty[Long, Long]
      def root(c: Long): Long = remap.get(c).map(root).getOrElse(c)
      szm.keys.toSeq.sorted.foreach { a =>
        best.get(a).foreach { case (b, n) =>
          val ra = root(a); val rb = root(b)
          if (ra != rb && n > intra.getOrElse(a, 0L) / 2 &&
              szm.getOrElse(ra, 0) + szm.getOrElse(rb, 0) <= maxSize) {
            szm(rb) = szm.getOrElse(ra, 0) + szm.getOrElse(rb, 0)
            szm.remove(ra)
            remap(ra) = rb
          }
        }
      }
      if (remap.isEmpty) done = true
      else cand = cand.map { case (v, c) => v -> root(c) }
    }
    cand
  }
}

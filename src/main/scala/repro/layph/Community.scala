package repro.layph

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.unsafe.hash.Murmur3_x86_32
import repro.core.RawEdge

/** Dense-subgraph candidate discovery.
  *
  * The paper discovers candidates with a community detection algorithm
  * (Louvain) and caps community sizes at a threshold K. We substitute
  * synchronous *label propagation* with a deterministic tie-break and the
  * same size cap K — it optimizes the same objective the paper actually
  * relies on (many internal edges, few boundary vertices). It runs in the
  * driver, over the edge list the driver already holds, in one
  * single-threaded pass per round. Synchronous LPA can split a community
  * into fragments, so [[detectMap]], the one detection path, follows it
  * with the greedy fragment merge of [[agglomerate]] and returns dense ids.
  * The substitution is recorded in DESIGN.md.
  */
object Community {

  /** Capped synchronous LPA over the undirected, distinct non-self-loop
    * pairs of `edges`; the result does not depend on edge order.
    *
    * Each vertex with a non-self-loop edge starts labelled by its own id.
    * Each round, it counts one vote for its own label and one for the label
    * of each distinct neighbour, and takes the label with the most votes,
    * the smallest on a tie. A label of `size` vertices is then cut into
    * `parts = ceil(size / maxSize)` parts by `pmod(hash(v), parts)`, where
    * `hash` is Spark SQL's (Murmur3 with seed 42); with one part, the part
    * is 0.
    *
    * @return vertex -> community, the community being the rank of the
    *         vertex's (label, part) pair among the distinct pairs in sorted
    *         order; vertices with only self loops are left out
    */
  private def detect(edges: Array[RawEdge], rounds: Int, maxSize: Int): Map[Long, Long] = {
    val nbrs = edges.iterator.filter(e => e.src != e.dst)
      .flatMap(e => Iterator(e.src -> e.dst, e.dst -> e.src)).toArray.distinct
      .groupMap(_._1)(_._2)
    var label = nbrs.keys.map(v => v -> v).toMap
    for (_ <- 1 to rounds) label = nbrs.map { case (v, ns) =>
      val votes = (v +: ns).groupMapReduce(label)(_ => 1)(_ + _)
      v -> votes.minBy { case (l, n) => (-n, l) }._1
    }
    val size = label.values.groupMapReduce(identity)(_ => 1)(_ + _)
    val lp = label.map { case (v, l) => v -> (l, part(v, math.ceil(size(l) / maxSize.toDouble).toLong)) }
    val cid = lp.values.toSeq.distinct.sorted.zipWithIndex.toMap
    lp.map { case (v, p) => v -> cid(p).toLong }
  }

  /** The part of `v` in a label cut into `parts` parts: 0 for one part,
    * else Spark SQL's `pmod(hash(v), parts)`.
    */
  private[layph] def part(v: Long, parts: Long): Long =
    if (parts <= 1) 0L else Math.floorMod(Murmur3_x86_32.hashLong(v, 42).toLong, parts)

  /** Dense-subgraph candidates: capped LPA ([[detect]]), then the fragment
    * merge of [[agglomerate]] over the directed (src, dst) edges under the
    * same cap, renumbered densely from 0 in the order of the merged ids.
    *
    * @return vertex -> community id; every vertex with a non-self-loop edge
    *         appears exactly once, and the ids are 0 until the number of
    *         communities
    */
  def detectMap(edges: Iterator[RawEdge], rounds: Int, maxSize: Int): Map[Long, Long] = {
    val edgeList = edges.toArray
    val merged = agglomerate(edgeList.iterator, detect(edgeList, rounds, maxSize), maxSize)
    val dense = merged.values.toSeq.distinct.sorted.zipWithIndex.map { case (c, i) => c -> i.toLong }.toMap
    merged.map { case (v, c) => v -> dense(c) }
  }

  /** [[detectMap]] over the (src, dst) rows of an edge DataFrame, collected
    * to the driver in one job. It stays for the generators' DataFrames and
    * for the benchmark, which calls this signature and attributes the
    * collect's job to `Community`; `spark` is not used.
    */
  def detectMap(spark: SparkSession, edgesDF: DataFrame, rounds: Int = 6, maxSize: Int = 1500): Map[Long, Long] =
    detectMap(edgesDF.select("src", "dst").collect().iterator.map(r => RawEdge(r.getLong(0), r.getLong(1), 0.0)),
      rounds, maxSize)

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

package repro.core

import scala.collection.mutable
import org.apache.spark.sql.{DataFrame, Row, SparkSession}

/** A raw directed weighted edge of the input graph. */
final case class RawEdge(src: Long, dst: Long, w: Double)

/** A unit update of Section II-B: insertion or deletion of a single edge.
  * A weight change is a deletion plus an insertion, as in the paper, or an
  * insertion over the existing edge; either nets to one [[EdgeDiff]].
  */
final case class EdgeUpdate(src: Long, dst: Long, w: Double, isAdd: Boolean)

/** A batch of input changes ΔG. */
final case class GraphDelta(updates: Seq[EdgeUpdate]) {
  def size: Int = updates.size
}

/** The net change of one algorithm-weighted edge over a batch: its weight
  * before (`wOld`) and after (`wNew`), an absent edge weighing the
  * semiring's `zero` (+∞ for MinPlus, 0 for SumTimes). A finite MinPlus
  * `wOld` is a cancellation, a finite `wNew` a compensation; a SumTimes
  * diff revises by `x_src * (wNew - wOld)`. Every system turns ΔG into
  * revision messages from these alone.
  */
final case class EdgeDiff(src: Long, dst: Long, wOld: Double, wNew: Double)

object EdgeDiff {

  /** Diffs of the out-rows of `srcs` between `before` and `after`, per
    * source in `srcs` order, then in `before`'s row order, then the
    * targets new in `after`. A target absent from a row weighs `none`.
    */
  def rows(
      srcs: Seq[Long],
      before: Long => Array[(Long, Double)],
      after: Long => Array[(Long, Double)],
      none: Double,
  ): Seq[EdgeDiff] = {
    val out = Seq.newBuilder[EdgeDiff]
    srcs.foreach { u =>
      val row = after(u)
      val now = mutable.LongMap.from(row)
      before(u).foreach { case (v, wo) =>
        val wn = now.remove(v).getOrElse(none)
        if (wo != wn) out += EdgeDiff(u, v, wo, wn)
      }
      row.foreach { case (v, wn) => if (now.contains(v) && wn != none) out += EdgeDiff(u, v, none, wn) }
    }
    out.result()
  }
}

/** Mutable driver-side topology of the evolving graph.
  *
  * The driver owns the graph *metadata* (adjacency, degrees) — the same
  * split real incremental systems use (a master that tracks topology,
  * workers that propagate). [[SparkEngine]] broadcasts the flat
  * [[Adjacency]] built here, and runs each round's message
  * generation (F) in executor tasks, while vertex states stay in the
  * driver; per-subgraph local work runs inside executor tasks (see
  * `repro.layph.Subgraphs`).
  */
final class GraphState private (
    val out: mutable.LongMap[mutable.LongMap[Double]],
    val verts: mutable.Set[Long],
) extends Serializable {

  def vertices: Set[Long] = verts.toSet
  def numVertices: Int = verts.size
  def numEdges: Long = out.valuesIterator.map(_.size.toLong).sum

  def outDeg(u: Long): Int = out.get(u).map(_.size).getOrElse(0)
  def sumW(u: Long): Double = out.get(u).map(_.valuesIterator.sum).getOrElse(0.0)
  def hasEdge(u: Long, v: Long): Boolean = out.get(u).exists(_.contains(v))
  def weight(u: Long, v: Long): Option[Double] = out.get(u).flatMap(_.get(v))

  def edges: Iterator[RawEdge] =
    out.iterator.flatMap { case (u, m) => m.iterator.map { case (v, w) => RawEdge(u, v, w) } }

  def addEdge(u: Long, v: Long, w: Double): Unit = {
    verts += u; verts += v
    out.getOrElseUpdate(u, mutable.LongMap.empty).update(v, w)
  }

  def removeEdge(u: Long, v: Long): Unit = out.get(u).foreach(_.remove(v))

  /** Vertices that ΔG's insertions add to the graph (a deletion adds none). */
  def newVertices(delta: GraphDelta): Set[Long] =
    delta.updates.iterator.filter(_.isAdd).flatMap(u => Iterator(u.src, u.dst)).filterNot(verts.contains).toSet

  /** Applies ΔG's unit updates in order: an insertion sets the edge's
    * weight, a deletion removes the edge if it is there.
    */
  def applyDelta(delta: GraphDelta): Unit =
    delta.updates.foreach(up => if (up.isAdd) addEdge(up.src, up.dst, up.w) else removeEdge(up.src, up.dst))

  /** Applies ΔG and returns its net effect as `algo`-weighted [[EdgeDiff]]s:
    * the weighted rows of the batch's sources before and after it, diffed
    * with [[EdgeDiff.rows]]. A pair added and then deleted, or added twice,
    * nets out; an update that leaves a weighted weight as it was (a
    * duplicate insertion, a deletion of a missing edge, a BFS weight
    * change) yields nothing; a degree change at a source of PageRank or
    * PHP revises its whole row.
    */
  def applyDelta(delta: GraphDelta, algo: VCAlgo): Seq[EdgeDiff] = {
    val srcs = delta.updates.map(_.src).distinct
    val before = srcs.iterator.map(u => u -> weightedRow(u, algo)).toMap
    applyDelta(delta)
    EdgeDiff.rows(srcs, before, weightedRow(_, algo), algo.zero)
  }

  /** Algorithm-weighted out-row of u: [(v, F-weight of (u,v))] from the raw
    * weights and u's out-degree stats, empty when u has no out-edge.
    */
  def weightedRow(u: Long, algo: VCAlgo): Array[(Long, Double)] =
    out.get(u) match {
      case Some(m) if m.nonEmpty =>
        val n = m.size; val sw = m.valuesIterator.sum
        m.iterator.map { case (v, w) => (v, algo.edgeWeight(w, n, sw)) }.toArray
      case _ => Array.empty
    }

  /** Algorithm-weighted forward adjacency, each row in `weightedRow` order. */
  def adjacency(algo: VCAlgo): Adjacency = {
    val b = Adjacency.newBuilder
    out.keysIterator.foreach(u => weightedRow(u, algo).foreach { case (v, w) => b.add(u, v, w) })
    b.result()
  }

  /** Algorithm-weighted reverse adjacency: v -> [(u, F-weight of (u,v))]. */
  def reverseAdjacency(algo: VCAlgo): Adjacency = adjacency(algo).reverse

  def copyGraph(): GraphState = {
    val o2 = mutable.LongMap.empty[mutable.LongMap[Double]]
    out.foreach { case (u, m) => o2(u) = m.clone() }
    new GraphState(o2, verts.clone())
  }

  /** Edge list as a DataFrame, for SQL-side checks against the oracle. */
  def toDF(spark: SparkSession): DataFrame = {
    import org.apache.spark.sql.types._
    val schema = StructType(Seq(
      StructField("src", LongType), StructField("dst", LongType), StructField("w", DoubleType)))
    spark.createDataFrame(
      spark.sparkContext.parallelize(edges.map(e => Row(e.src, e.dst, e.w)).toSeq, 4), schema)
  }
}

object GraphState {
  def empty: GraphState = new GraphState(mutable.LongMap.empty, mutable.Set.empty)

  def fromEdges(edges: Iterable[RawEdge], extraVertices: Iterable[Long] = Nil): GraphState = {
    val g = empty
    edges.foreach(e => g.addEdge(e.src, e.dst, e.w))
    extraVertices.foreach(g.verts += _)
    g
  }

  /** Builds from a (src, dst, w) DataFrame produced by the generators. */
  def fromDF(df: DataFrame): GraphState = {
    val rows = df.select("src", "dst", "w").collect()
    fromEdges(rows.iterator.map(r => RawEdge(r.getLong(0), r.getLong(1), r.getDouble(2))).toSeq)
  }
}

package repro.core

import scala.collection.mutable
import org.apache.spark.sql.{DataFrame, Row, SparkSession}

/** A raw directed weighted edge of the input graph. */
final case class RawEdge(src: Long, dst: Long, w: Double)

/** A unit update of Section II-B: insertion or deletion of a single edge.
  * Weight modifications are encoded as delete + add, as in the paper.
  */
final case class EdgeUpdate(src: Long, dst: Long, w: Double, isAdd: Boolean)

/** A batch of input changes ΔG. */
final case class GraphDelta(updates: Seq[EdgeUpdate]) {
  def size: Int = updates.size
  /** Vertices incident to any unit update. */
  def touchedVertices: Set[Long] =
    updates.iterator.flatMap(u => Iterator(u.src, u.dst)).toSet
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

  def removeEdge(u: Long, v: Long): Boolean =
    out.get(u).exists { m => val had = m.remove(v).isDefined; had }

  /** Applies ΔG in order; returns the updates that actually changed the
    * graph (an add of an existing identical edge or a delete of a missing
    * edge is a no-op and must not trigger revision messages). Inserting
    * over an existing edge is a weight change and is reported as
    * delete(old) + add(new), as Section II-B prescribes — the deletion half
    * is what lets dependency-tree engines invalidate stale support.
    */
  def applyDelta(delta: GraphDelta): Seq[EdgeUpdate] = {
    val effective = Seq.newBuilder[EdgeUpdate]
    delta.updates.foreach { up =>
      if (up.isAdd) {
        val old = weight(up.src, up.dst)
        if (!old.contains(up.w)) {
          old.foreach(ow => effective += EdgeUpdate(up.src, up.dst, ow, isAdd = false))
          addEdge(up.src, up.dst, up.w)
          effective += up
        }
      } else {
        val old = weight(up.src, up.dst)
        if (old.isDefined && removeEdge(up.src, up.dst)) effective += up.copy(w = old.get)
      }
    }
    effective.result()
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

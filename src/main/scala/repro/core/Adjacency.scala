package repro.core

import scala.collection.mutable

/** A flat, algorithm-weighted adjacency: the one weighted-graph type.
  * The engines read and broadcast it, [[MemoPath]] walks it both ways, and
  * Layph's effective graph, skeleton and local subgraphs are all one.
  *
  * Four primitive arrays instead of a map of boxed tuples: the out-row of
  * `ids(r)` is the edges `off(r) until off(r + 1)` of `dst`/`w`. Ids are
  * sorted, so a row is found by binary search, and may be any `Long`
  * (proxies past 2^40, SumTimes split nodes 2v and 2v + 1). Only sources
  * with an edge have a row. Serializing and size-estimating it walks four
  * arrays, not one object per edge.
  */
final class Adjacency private (
    val ids: Array[Long],
    val off: Array[Int],
    val dst: Array[Long],
    val w: Array[Double],
) extends Serializable {

  /** Index of `u`'s row, or -1 when `u` has no row. */
  def rowOf(u: Long): Int = {
    val r = java.util.Arrays.binarySearch(ids, u)
    if (r >= 0) r else -1
  }

  /** `u`'s out-row as (dst, w) pairs in stored order; empty when absent. */
  def row(u: Long): Array[(Long, Double)] = {
    val r = rowOf(u)
    if (r < 0) Array.empty
    else Array.tabulate(off(r + 1) - off(r))(i => (dst(off(r) + i), w(off(r) + i)))
  }

  /** Calls `f(v, w)` for each edge of `u`'s out-row, in stored order. */
  @inline def foreachOut(u: Long)(f: (Long, Double) => Unit): Unit = {
    val r = rowOf(u)
    if (r >= 0) for (i <- off(r) until off(r + 1)) f(dst(i), w(i))
  }

  /** Every edge as (src, dst, w), rows in id order, each row in stored order. */
  def edges: Iterator[(Long, Long, Double)] =
    ids.indices.iterator.flatMap(r => (off(r) until off(r + 1)).iterator.map(i => (ids(r), dst(i), w(i))))

  /** The transpose: v -> [(u, w)] for every u -> (v, w). A row lists its
    * sources in id order, not in the order the edges were added, so only
    * readers that ignore row order (MinPlus minimums) use it.
    */
  def reverse: Adjacency = {
    val b = Adjacency.newBuilder
    for (r <- ids.indices; i <- off(r) until off(r + 1)) b.add(dst(i), ids(r), w(i))
    b.result()
  }
}

object Adjacency {

  def newBuilder: Builder = new Builder

  /** The one builder: collects edges, then groups them by source stably,
    * so every row keeps the order in which its edges were added.
    */
  final class Builder {
    private val src = new mutable.ArrayBuilder.ofLong
    private val dst = new mutable.ArrayBuilder.ofLong
    private val w   = new mutable.ArrayBuilder.ofDouble

    def add(u: Long, v: Long, x: Double): Unit = { src.addOne(u); dst.addOne(v); w.addOne(x) }

    def result(): Adjacency = {
      val (s, d, x) = (src.result(), dst.result(), w.result())
      val ids = s.sorted
      var n = 0
      for (i <- ids.indices) if (n == 0 || ids(i) != ids(n - 1)) { ids(n) = ids(i); n += 1 }
      val rows = java.util.Arrays.copyOf(ids, n)
      val r = new Array[Int](s.length)
      val off = new Array[Int](n + 1)
      for (i <- s.indices) { r(i) = java.util.Arrays.binarySearch(rows, s(i)); off(r(i) + 1) += 1 }
      for (k <- 0 until n) off(k + 1) += off(k)
      val next = off.clone()
      val (dst2, w2) = (new Array[Long](s.length), new Array[Double](s.length))
      for (i <- s.indices) { val j = next(r(i)); next(r(i)) += 1; dst2(j) = d(i); w2(j) = x(i) }
      new Adjacency(rows, off, dst2, w2)
    }
  }
}

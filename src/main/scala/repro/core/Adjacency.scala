package repro.core

/** A flat, algorithm-weighted adjacency: what the engines read their
  * out-edges from, and what [[SparkEngine]] broadcasts.
  *
  * Four primitive arrays instead of a map of boxed tuples: the out-row of
  * `ids(r)` is the edges `off(r) until off(r + 1)` of `dst`/`w`. Ids are
  * sorted, so a row is found by binary search, and may be any `Long`
  * (proxies past 2^40, SumTimes split nodes 2v and 2v + 1). Serializing
  * and size-estimating it walks four arrays, not one object per edge.
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
}

object Adjacency {

  /** Flattens `m`, keeping each row's edge order. */
  def of(m: Map[Long, Array[(Long, Double)]]): Adjacency = {
    val ids = m.keysIterator.toArray
    java.util.Arrays.sort(ids)
    val rows = ids.map(m)
    val off = offsets(rows.map(_.length))
    val (dst, w) = (new Array[Long](off.last), new Array[Double](off.last))
    for (r <- rows.indices; i <- rows(r).indices) {
      dst(off(r) + i) = rows(r)(i)._1; w(off(r) + i) = rows(r)(i)._2
    }
    new Adjacency(ids, off, dst, w)
  }

  /** An adjacency over local indices: row `j` of `rows` is the out-row of id `j`. */
  def local(rows: Array[Array[(Int, Double)]]): Adjacency = {
    val off = offsets(rows.map(_.length))
    val (dst, w) = (new Array[Long](off.last), new Array[Double](off.last))
    for (r <- rows.indices; i <- rows(r).indices) {
      dst(off(r) + i) = rows(r)(i)._1; w(off(r) + i) = rows(r)(i)._2
    }
    new Adjacency(Array.tabulate(rows.length)(_.toLong), off, dst, w)
  }

  private def offsets(lens: Array[Int]): Array[Int] = lens.scanLeft(0)(_ + _)
}

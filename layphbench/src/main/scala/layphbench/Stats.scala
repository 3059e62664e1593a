package layphbench

/** The small amount of arithmetic the benchmark reports with. */
object Stats {

  /** Median; the mean of the two middle values for an even count. */
  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    val n = s.length
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  /** Harrell–Davis estimate of the median: a mean of all the sorted
    * samples, weighted by how likely each rank is to hold the median
    * (sample `i` of `n` gets the mass of Beta((n+1)/2, (n+1)/2) between
    * `i/n` and `(i+1)/n`). It estimates the same quantity as `median`, but
    * from the few updates a run holds it varies less from run to run,
    * because no single sample decides it.
    */
  def hdMedian(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    val n = s.length
    val a = (n + 1) / 2.0
    def density(x: Double): Double = math.pow(x * (1 - x), a - 1)
    // Simpson's rule; the density is smooth on [0, 1] since a >= 1
    def mass(lo: Double, hi: Double): Double = {
      val steps = 64
      val h = (hi - lo) / steps
      val inner = (1 until steps).map(k => (if (k % 2 == 1) 4 else 2) * density(lo + k * h)).sum
      (density(lo) + inner + density(hi)) * h / 3
    }
    val w = s.indices.map(i => mass(i.toDouble / n, (i + 1).toDouble / n))
    s.zip(w).map { case (x, wi) => x * wi }.sum / w.sum
  }

  def mean(xs: Seq[Double]): Double = if (xs.isEmpty) 0.0 else xs.sum / xs.length

  /** Unit updates applied per second of update wall time. */
  def throughput(deltaSizes: Seq[Int], wallMs: Seq[Double]): Double = {
    val busyS = wallMs.sum / 1000.0
    if (busyS <= 0) 0.0 else deltaSizes.map(_.toDouble).sum / busyS
  }

  /** Total length of the union of `[start, end]` intervals after clipping
    * them to `[lo, hi]`; overlapping jobs are counted once.
    */
  def coveredMs(intervals: Seq[(Double, Double)], lo: Double, hi: Double): Double = {
    val clipped = intervals
      .map { case (s, e) => (math.max(s, lo), math.min(e, hi)) }
      .filter { case (s, e) => e > s }
      .sortBy(_._1)
    var total = 0.0
    var curS = Double.NaN
    var curE = Double.NaN
    clipped.foreach { case (s, e) =>
      if (curE.isNaN || s > curE) {
        if (!curE.isNaN) total += curE - curS
        curS = s; curE = e
      } else curE = math.max(curE, e)
    }
    if (!curE.isNaN) total += curE - curS
    total
  }
}

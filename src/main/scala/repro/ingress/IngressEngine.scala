package repro.ingress

import scala.collection.mutable
import org.apache.spark.sql.SparkSession
import repro.core._

/** Revision-message deduction (Section V): turns input changes ΔG into
  * cancellation/compensation messages against the memoized states.
  */
object Revision {

  /** SumTimes revision deltas (Ingress's memoization-free scheme): each net
    * weighted edge diff (u, v) sends `x_u * (w_new - w_old)` to v —
    * cancellation when negative, compensation when positive — summed per
    * target. Degree-dependent weights (PageRank's d/N_u) make a single
    * structural change diff u's whole out-row ([[GraphState.applyDelta]]),
    * which is faithfully reproduced here. Absorbing targets receive nothing.
    */
  def sumSeeds(
      diffs: Seq[EdgeDiff],
      states: mutable.LongMap[Double],
      absorbing: Set[Long],
  ): Seq[(Long, Double)] = {
    val seeds = mutable.LongMap.empty[Double]
    diffs.foreach { d =>
      val xu = states.getOrElse(d.src, 0.0)
      if (xu != 0.0 && !absorbing.contains(d.dst)) {
        val m = xu * (d.wNew - d.wOld)
        if (m != 0.0) seeds.updateWith(d.dst) { c => Some(c.getOrElse(0.0) + m) }
      }
    }
    seeds.toSeq
  }
}

/** Accumulative (SumTimes) incremental system: propagates revision deltas
  * over the memoized states. Parameterized to also model GraphBolt / DZiG
  * (see `repro.baselines`):
  *
  * @param thresholdOf   emission threshold (Ingress: the algorithm's eps;
  *                      GraphBolt: 0 — every nonzero per-iteration change
  *                      is refined; DZiG: eps/10 — sparsity-aware but still
  *                      tracking per-iteration dependencies)
  * @param capToBatchEpochs refine at most as many synchronous epochs as the
  *                      batch run took (GraphBolt/DZiG epoch alignment)
  */
class SumIncSystem(
    val name: String,
    spark: SparkSession,
    partitions: Int = 8,
    thresholdOf: VCAlgo => Double = _.eps,
    capToBatchEpochs: Boolean = false,
) extends IncrementalSystem {
  protected val engine = new SparkEngine(spark, partitions)
  protected var g: GraphState = _
  protected var algo: VCAlgo = _
  protected var states: mutable.LongMap[Double] = _
  protected var batchEpochs: Int = Int.MaxValue

  def initialize(g0: GraphState, a: VCAlgo): SparkRun = {
    require(a.kind == SumTimes, s"$name models accumulative algorithms only")
    g = g0.copyGraph(); algo = a
    val r = engine.batch(algo, g)
    states = r.states
    batchEpochs = r.stats.iterations
    r
  }

  def update(delta: GraphDelta): SparkRun = {
    val t0 = System.nanoTime()
    val newVerts = g.newVertices(delta)
    val diffs = g.applyDelta(delta, algo)
    newVerts.foreach(v => states(v) = algo.defaultState)
    if (diffs.isEmpty && newVerts.isEmpty)
      return SparkRun(states, RunStats(0, 0, (System.nanoTime() - t0) / 1000000))
    val seeds = Revision.sumSeeds(diffs, states, algo.absorbing) ++
      // vertices that joined the graph carry fresh root messages M0
      (if (algo.roots.isEmpty) newVerts.toSeq.map(v => v -> algo.initMsg(v)) else Nil)
    val run = engine.run(algo, g.adjacency(algo), states, seeds,
      emitThreshold = thresholdOf(algo), absorbing = algo.absorbing,
      maxIter = if (capToBatchEpochs) batchEpochs else Int.MaxValue)
    states = run.states
    SparkRun(states, run.stats.copy(wallMs = (System.nanoTime() - t0) / 1000000))
  }
}

/** MinPlus dependency-tree incremental system (Ingress's memoization-path
  * scheme). Parameterized to also model KickStarter and RisGraph:
  *
  * @param conservative   invalidate the forward-reachable region instead of
  *                       the exact tree subtree (KickStarter's trimming)
  * @param insertRounds   process insertions in this many sequential rounds
  *                       (RisGraph's per-update pipeline). Each net diff
  *                       splits into its deletion half (`wNew` = +∞) and
  *                       its insertion half (`wOld` = +∞); every deletion
  *                       half goes in the first round so invalidation stays
  *                       sound, and the insertion halves are chunked
  * @param classifyCost   count a per-update safe/unsafe classification scan
  *                       (RisGraph): one per half, plus one per deletion
  *                       half off the memoized tree
  */
class MinIncSystem(
    val name: String,
    spark: SparkSession,
    partitions: Int = 8,
    conservative: Boolean = false,
    insertRounds: Int = 1,
    classifyCost: Boolean = false,
) extends IncrementalSystem {
  protected val engine = new SparkEngine(spark, partitions)
  protected var g: GraphState = _
  protected var algo: VCAlgo = _
  protected var states: mutable.LongMap[Double] = _
  protected var parents: mutable.LongMap[Long] = _

  def initialize(g0: GraphState, a: VCAlgo): SparkRun = {
    require(a.kind == MinPlus, s"$name models selective (min-based) algorithms only")
    g = g0.copyGraph(); algo = a
    val r = engine.batch(algo, g)
    states = r.states
    parents = MemoPath.computeParents(g.reverseAdjacency(algo), states)
    r
  }

  def update(delta: GraphDelta): SparkRun = {
    val t0 = System.nanoTime()
    val newVerts = g.newVertices(delta)
    val diffs = g.applyDelta(delta, algo)
    newVerts.foreach(v => states(v) = algo.defaultState)
    if (diffs.isEmpty && newVerts.isEmpty)
      return SparkRun(states, RunStats(0, 0, (System.nanoTime() - t0) / 1000000))

    val dels = diffs.collect { case d if d.wOld.isFinite => d.copy(wNew = algo.zero) }
    val adds = diffs.collect { case d if d.wNew.isFinite => d.copy(wOld = algo.zero) }
    // RisGraph checks each half against the memoized tree/value
    val classifyActs =
      if (!classifyCost) 0L
      else (dels.size + adds.size + dels.count(d => !parents.get(d.dst).contains(d.src))).toLong

    val rounds: Seq[Seq[EdgeDiff]] =
      if (insertRounds <= 1) Seq(diffs)
      else {
        val chunks = if (adds.isEmpty) Seq(Seq.empty[EdgeDiff])
          else adds.grouped(math.max(1, math.ceil(adds.size.toDouble / insertRounds).toInt)).toSeq
        chunks.zipWithIndex.map { case (c, i) => (if (i == 0) dels else Nil) ++ c }
      }

    val adj = g.adjacency(algo)
    val radj = adj.reverse
    var total = RunStats(0, classifyActs, 0)
    rounds.foreach { ds =>
      val r = MemoPath.incremental(algo, engine, adj, radj, states, parents, ds,
        conservative = conservative)
      states = r.states; parents = r.parents
      total = total + r.stats
    }
    SparkRun(states, total.copy(wallMs = (System.nanoTime() - t0) / 1000000))
  }
}

/** Ingress (VLDB'21): automated incrementalization with flexible
  * memoization — picks the memoization-free engine for accumulative
  * algorithms (PR/PHP) and the memoization-path engine for selective ones
  * (SSSP/BFS), exactly the policy split the paper describes. Layph is
  * built on top of this substrate.
  */
final class IngressEngine(spark: SparkSession, partitions: Int = 8) extends IncrementalSystem {
  val name = "Ingress"
  private var inner: IncrementalSystem = _
  def initialize(g0: GraphState, a: VCAlgo): SparkRun = {
    inner = a.kind match {
      case SumTimes => new SumIncSystem(name, spark, partitions)
      case MinPlus  => new MinIncSystem(name, spark, partitions)
    }
    inner.initialize(g0, a)
  }
  def update(delta: GraphDelta): SparkRun = inner.update(delta)
}

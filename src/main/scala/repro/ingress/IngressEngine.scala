package repro.ingress

import scala.collection.mutable
import org.apache.spark.sql.SparkSession
import repro.core._

/** Revision-message deduction (Section V): turns input changes ΔG into
  * cancellation/compensation messages against the memoized states.
  */
object Revision {

  /** SumTimes revision deltas (Ingress's memoization-free scheme): for each
    * changed source u, every target whose effective weight moved receives
    * `x_u * (w_new - w_old)` — cancellation when negative, compensation
    * when positive. Degree-dependent weights (PageRank's d/N_u) make a
    * single structural change revise u's whole out-row, which is faithfully
    * reproduced here.
    */
  def sumSeeds(
      oldRows: Map[Long, Map[Long, Double]],
      newRows: Map[Long, Map[Long, Double]],
      states: mutable.LongMap[Double],
      absorbing: Set[Long],
  ): Seq[(Long, Double)] = {
    val seeds = mutable.LongMap.empty[Double]
    (oldRows.keySet ++ newRows.keySet).foreach { u =>
      val xu = states.getOrElse(u, 0.0)
      if (xu != 0.0) {
        val o = oldRows.getOrElse(u, Map.empty)
        val n = newRows.getOrElse(u, Map.empty)
        (o.keySet ++ n.keySet).foreach { v =>
          if (!absorbing.contains(v)) {
            val d = xu * (n.getOrElse(v, 0.0) - o.getOrElse(v, 0.0))
            if (d != 0.0) seeds.updateWith(v) { c => Some(c.getOrElse(0.0) + d) }
          }
        }
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
    val touched = delta.updates.map(_.src).distinct
    val oldRows = touched.map(u => u -> g.weightedRow(u, algo).toMap).toMap
    val newVerts = delta.touchedVertices.filterNot(g.verts.contains)
    val effective = g.applyDelta(delta)
    delta.touchedVertices.foreach(v => if (!states.contains(v)) states(v) = algo.defaultState)
    if (effective.isEmpty)
      return SparkRun(states, RunStats(0, 0, (System.nanoTime() - t0) / 1000000))
    val srcs = effective.map(_.src).toSet
    val newRows = srcs.map(u => u -> g.weightedRow(u, algo).toMap).toMap
    val seeds = Revision.sumSeeds(oldRows.view.filterKeys(srcs).toMap, newRows, states, algo.absorbing) ++
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
  *                       (RisGraph's per-update pipeline; deletions are
  *                       always handled in the first round so invalidation
  *                       stays sound)
  * @param classifyCost   count a per-update safe/unsafe classification scan
  *                       (RisGraph)
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
    val effective = g.applyDelta(delta)
    delta.touchedVertices.foreach(v => if (!states.contains(v)) states(v) = algo.defaultState)
    var classifyActs = 0L
    if (effective.isEmpty)
      return SparkRun(states, RunStats(0, 0, (System.nanoTime() - t0) / 1000000))

    def toChange(u: EdgeUpdate): MemoPath.EdgeChange =
      MemoPath.EdgeChange(u.src, u.dst, algo.edgeWeight(u.w, 1, u.w), u.isAdd)

    val (adds, dels) = effective.partition(_.isAdd)
    if (classifyCost) {
      // RisGraph checks each unit update against the memoized tree/value
      classifyActs += effective.size
      dels.foreach { d => if (!parents.get(d.dst).contains(d.src)) classifyActs += 1 }
    }

    val rounds: Seq[Seq[MemoPath.EdgeChange]] =
      if (insertRounds <= 1) Seq((dels ++ adds).map(toChange))
      else {
        val chunks = if (adds.isEmpty) Seq(Seq.empty[EdgeUpdate])
          else adds.grouped(math.max(1, math.ceil(adds.size.toDouble / insertRounds).toInt)).toSeq
        chunks.zipWithIndex.map { case (c, i) =>
          (if (i == 0) dels.map(toChange) else Nil) ++ c.map(toChange)
        }
      }

    val adj = g.adjacency(algo)
    val radj = adj.reverse
    var total = RunStats(0, classifyActs, 0)
    rounds.foreach { changes =>
      val r = MemoPath.incremental(algo, engine, adj, radj, states, parents, changes,
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

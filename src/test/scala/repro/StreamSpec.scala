package repro

import scala.util.Random
import repro.TestUtil.assertClose
import repro.baselines._
import repro.bench.Workloads
import repro.core._
import repro.ingress.IngressEngine
import repro.layph.{LayphConfig, LayphEngine}

/** Equation 4 over update streams: every system, on every algorithm it
  * runs, must equal a batch run on the updated graph after each round of
  * a stream that mixes edge batches, vertex batches and batches that
  * touch one pair more than once.
  */
class StreamSpec extends SparkSpec {

  private val commSize = 30
  private def graph(seed: Long) = GraphGen.community(4, commSize, 8.0, 24, seed, nBursts = 8)
  private val plantedCfg = LayphConfig(
    fixedMembership = Some((0 until 4 * commSize).map(v => v.toLong -> (v / commSize).toLong).toMap),
    replicationThreshold = 2)

  private val algos: Seq[VCAlgo] = Seq(SSSP(0), BFS(0), PageRank(eps = 1e-7), PHP(0, eps = 1e-7))
  private def tol(a: VCAlgo): Double = if (a.kind == MinPlus) 1e-9 else 2e-3

  private def systems(a: VCAlgo): Seq[() => IncrementalSystem] = {
    val own: Seq[() => IncrementalSystem] =
      if (a.kind == MinPlus) Seq(() => new KickStarterEngine(spark, 4), () => new RisGraphEngine(spark, 4))
      else Seq(() => new GraphBoltEngine(spark, 4), () => new DZiGEngine(spark, 4))
    Seq[() => IncrementalSystem](() => new IngressEngine(spark, 4), () => new LayphEngine(spark, plantedCfg, 4),
      () => new RestartEngine(spark, 4)) ++ own
  }

  /** A pair (u, v), u != v, with no edge in `g`. */
  private def freshPair(g: GraphState, rnd: Random, from: Option[Long] = None): (Long, Long) = {
    val verts = g.vertices.toArray.sorted
    def pick() = verts(rnd.nextInt(verts.length))
    Iterator.continually((from.getOrElse(pick()), pick())).find { case (u, v) => u != v && !g.hasEdge(u, v) }.get
  }

  /** Deletes two edges, one out of the root when it has one, and re-adds
    * each at w + 1.
    */
  private def reweight(g: GraphState, seed: Long): GraphDelta = {
    val rnd = new Random(seed)
    val edges = g.edges.toArray.sortBy(e => (e.src, e.dst))
    val picks = (edges.find(_.src == 0L) ++ Seq(edges(rnd.nextInt(edges.length)))).toSeq.distinct
    GraphDelta(picks.flatMap(e =>
      Seq(EdgeUpdate(e.src, e.dst, 0.0, isAdd = false), EdgeUpdate(e.src, e.dst, e.w + 1, isAdd = true))))
  }

  /** Adds a new pair out of the root and deletes it again, and adds
    * another new pair twice at different weights.
    */
  private def netting(g: GraphState, seed: Long): GraphDelta = {
    val rnd = new Random(seed)
    val (a, b) = freshPair(g, rnd, from = Some(0L))
    val (c, d) = freshPair(g, rnd)
    GraphDelta(Seq(
      EdgeUpdate(a, b, 1.0, isAdd = true), EdgeUpdate(c, d, 2.0, isAdd = true),
      EdgeUpdate(a, b, 0.0, isAdd = false), EdgeUpdate(c, d, 7.0, isAdd = true)))
  }

  /** Round k's batch against the current graph. */
  private def batch(g: GraphState, k: Int, seed: Long): GraphDelta = k % 4 match {
    case 0 => GraphGen.delta(g, 4, 4, seed)
    case 1 => netting(g, seed)
    case 2 => Workloads.vertexDelta(g, 1, 1, 2, seed)
    case 3 => reweight(g, seed)
  }

  for ((algo, ai) <- algos.zipWithIndex; mkSys <- systems(algo)) {
    val sysName = mkSys().name
    test(s"$sysName keeps Equation 4 over a mixed 6-round stream (${algo.name})") {
      val seed = 4242L + 1000 * ai
      val g = graph(seed)
      val sys = mkSys()
      sys.initialize(g, algo)
      (0 until 6).foreach { k =>
        val delta = batch(g, k, seed + k)
        val run = sys.update(delta)
        g.applyDelta(delta)
        assertClose(LocalEngine.batch(algo, g).states, run.states, tol(algo), s"$sysName/${algo.name} round $k")
      }
    }
  }

  test("a new vertex whose only edge is added and deleted in one batch gets its root mass") {
    val algo = PageRank(eps = 1e-7)
    val delta = GraphDelta(Seq(EdgeUpdate(1000, 0, 1.0, isAdd = true), EdgeUpdate(1000, 0, 0.0, isAdd = false)))
    Seq[() => IncrementalSystem](() => new IngressEngine(spark, 4), () => new GraphBoltEngine(spark, 4),
      () => new DZiGEngine(spark, 4), () => new LayphEngine(spark, plantedCfg, 4)).foreach { mkSys =>
      val g = graph(4242)
      val sys = mkSys()
      sys.initialize(g, algo)
      val run = sys.update(delta)
      g.applyDelta(delta)
      val expect = LocalEngine.batch(algo, g).states
      val x = run.states.getOrElse(1000L, Double.NaN)
      assert(expect(1000L) > 0.0 && math.abs(x - expect(1000L)) <= tol(algo), s"${sys.name}: x = $x")
      assertClose(expect, run.states, tol(algo), sys.name)
    }
  }
}

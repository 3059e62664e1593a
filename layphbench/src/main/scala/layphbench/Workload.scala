package layphbench

import repro.bench.{GraphProfile, Workloads}
import repro.core.{GraphDelta, GraphState, MinPlus, PageRank, SSSP, VCAlgo}

/** One benchmark workload: an algorithm on a generated graph and the rule
  * that draws each ΔG of the stream from the current graph.
  *
  * The run's seed draws the ΔG stream; the graph is the profile as given.
  * (Seeding the graph as well moves the depth of the shortest-path tree,
  * and with it the rounds every update takes, so the update times of
  * different seeds spread by more than any bound a regression check could
  * use.)
  *
  * @param graph the generated graph's profile
  * @param tol   largest |x - reference| an update may leave; above it the
  *              update counts as failed
  */
final case class Workload(
    name: String,
    graph: GraphProfile,
    algo: VCAlgo,
    tol: Double,
    nextDelta: (GraphState, Long) => GraphDelta,
) {
  /** ΔG number `i` of the stream for `seed`, drawn from the graph as it is
    * before that ΔG is applied.
    */
  def delta(g: GraphState, seed: Long, i: Int): GraphDelta =
    nextDelta(g, seed * 1000003L + i)
}

object Workload {
  /** MinPlus results are exact; SumTimes (PageRank) uses the multi-round
    * tolerance of the Layph correctness suite.
    */
  private def tolFor(a: VCAlgo): Double = if (a.kind == MinPlus) 1e-9 else 5e-3

  private def make(name: String, algo: VCAlgo)(next: (GraphState, Long) => GraphDelta): Workload =
    Workload(name, Workloads.UK, algo, tolFor(algo), next)

  private val Source = 0L

  val all: Seq[Workload] = Seq(
    make("uk-sssp-b10", SSSP(Source)) { (g, s) => Workloads.randomDelta(g, 5, 5, s) },
    make("uk-sssp-b1000", SSSP(Source)) { (g, s) => Workloads.randomDelta(g, 500, 500, s) },
    make("uk-pagerank-b100", PageRank(eps = 1e-6)) { (g, s) => Workloads.randomDelta(g, 50, 50, s) },
    make("uk-sssp-mixed-b1000", SSSP(Source)) { (g, s) =>
      val edges = Workloads.randomDelta(g, 450, 450, s)
      // Removed vertices never take the source's edges with them: once the
      // source is cut off, nothing is reachable and the rest of the stream
      // measures nothing.
      val verts = Workloads.vertexDelta(g, 10, 10, 3, s + 1).updates
        .filterNot(u => !u.isAdd && (u.src == Source || u.dst == Source))
      GraphDelta(edges.updates ++ verts)
    },
  )

  def byName(name: String): Workload =
    all.find(_.name == name).getOrElse(throw new IllegalArgumentException(
      s"unknown workload '$name'; known: ${all.map(_.name).mkString(", ")}"))
}

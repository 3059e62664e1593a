package repro.bench

import scala.collection.mutable
import org.apache.spark.sql.SparkSession
import repro.core._
import repro.baselines.RestartEngine
import repro.ingress.IngressEngine
import repro.layph.{LayphConfig, LayphEngine}

/** One runner per reproduced evaluation table/figure. Each returns the
  * formatted table text (also printed by the bench suites into
  * bench_output.txt).
  */
object Tables {

  def algoFor(name: String, source: Long = 0L): VCAlgo = name match {
    case "SSSP"     => SSSP(source)
    case "BFS"      => BFS(source)
    case "PageRank" => PageRank(eps = 1e-6)
    case "PHP"      => PHP(source, eps = 1e-6)
  }

  val minAlgos = Seq("SSSP", "BFS")
  val sumAlgos = Seq("PageRank", "PHP")

  // ------------------------------------------------------------- Table I
  /** Dataset statistics (the analog of the paper's Table I). */
  def datasets(spark: SparkSession, scale: Double): String = {
    val rows = Workloads.all.map { p =>
      val g = Workloads.build(spark, p, scale)
      Seq(p.name, g.numVertices.toString, g.numEdges.toString,
        f"${g.numEdges.toDouble / g.numVertices}%.1f")
    }
    "## Table I analog: synthetic datasets\n" +
      Harness.table(Seq("Graph", "Vertices", "Edges", "AvgDeg"), rows)
  }

  // --------------------------------------------------------- Figures 5+6
  /** Overall performance: response time and edge activations of every
    * system, normalized to Layph (the paper's Figures 5 and 6).
    */
  def overall(spark: SparkSession, scale: Double, batch: Int = 100): String = {
    val sb = new StringBuilder
    for (algoName <- minAlgos ++ sumAlgos) {
      val cells = mutable.ArrayBuffer.empty[Cell]
      for (p <- Workloads.all) {
        val g = Workloads.build(spark, p, scale)
        val algo = algoFor(algoName)
        val systems = Harness.systemsFor(spark, algo.kind)
        val delta = Workloads.randomDelta(g, batch / 2, batch / 2, p.seed + 101)
        cells ++= Harness.runScenario(p.name, g, algo, systems, Seq(delta))
      }
      val systems = cells.map(_.system).distinct.toSeq
      val graphs = Workloads.all.map(_.name)
      def cell(s: String, gname: String) = cells.find(c => c.system == s && c.graph == gname).get
      def layph(gname: String) = cell("Layph", gname)

      sb.append(s"\n## Figure 5 analog ($algoName): incremental response time, normalized to Layph\n")
      sb.append(Harness.table(
        Seq("System") ++ graphs.flatMap(gn => Seq(s"$gn ms", s"$gn x")),
        systems.map(s => Seq(s) ++ graphs.flatMap { gn =>
          val c = cell(s, gn)
          Seq(c.incStats.wallMs.toString,
            f"${c.incStats.wallMs.toDouble / math.max(1, layph(gn).incStats.wallMs)}%.2f")
        })))
      sb.append(s"\n\n## Figure 6 analog ($algoName): edge activations, normalized to Layph\n")
      sb.append(Harness.table(
        Seq("System") ++ graphs.flatMap(gn => Seq(s"$gn acts", s"$gn x")),
        systems.map(s => Seq(s) ++ graphs.flatMap { gn =>
          val c = cell(s, gn)
          Seq(c.incStats.activations.toString,
            f"${c.incStats.activations.toDouble / math.max(1, layph(gn).incStats.activations)}%.2f")
        })))
      sb.append("\n\n   result fidelity (max |x - restart|): " +
        cells.filter(_.system != "Restart")
          .map(c => f"${c.system}/${c.graph}=${c.maxErrVsRestart}%.1e").mkString(" ") + "\n")
    }
    sb.toString
  }

  /** Vertex updates (Figure 5e): Layph vs Ingress, as in the paper only the
    * systems that survive vertex changes are compared.
    */
  def vertexUpdates(spark: SparkSession, scale: Double): String = {
    val sb = new StringBuilder
    sb.append("\n## Figure 5e analog: vertex updates (500 add + 500 del scaled), Layph vs Ingress\n")
    val rows = for (algoName <- Seq("SSSP", "PageRank")) yield {
      val g = Workloads.build(spark, Workloads.UK, scale)
      val algo = algoFor(algoName)
      val delta = Workloads.vertexDelta(g, nAddV = 10, nDelV = 10, edgesPer = 3, seed = 5)
      val res = Harness.runScenario("UK", g, algo,
        Seq(new RestartEngine(spark), new IngressEngine(spark), new LayphEngine(spark)), Seq(delta))
      val l = res.find(_.system == "Layph").get
      val i = res.find(_.system == "Ingress").get
      val r = res.find(_.system == "Restart").get
      Seq(algoName, i.incStats.wallMs.toString, l.incStats.wallMs.toString,
        f"${i.incStats.wallMs.toDouble / math.max(1, l.incStats.wallMs)}%.2f",
        r.incStats.wallMs.toString, f"${l.maxErrVsRestart}%.1e")
    }
    sb.append(Harness.table(
      Seq("Algo", "Ingress ms", "Layph ms", "Ingress/Layph x", "Restart ms", "Layph err"), rows))
    sb.toString
  }

  // ------------------------------------------------------------ Figure 7
  /** Runtime breakdown of Layph's four incremental phases on UK. */
  def breakdown(spark: SparkSession, scale: Double, batch: Int = 100): String = {
    val sb = new StringBuilder
    sb.append("\n## Figure 7 analog: Layph runtime breakdown on UK (% of incremental time)\n")
    val rows = for (algoName <- minAlgos ++ sumAlgos) yield {
      val g = Workloads.build(spark, Workloads.UK, scale)
      val algo = algoFor(algoName)
      val sys = new LayphEngine(spark)
      sys.initialize(g, algo)
      val delta = Workloads.randomDelta(g, batch / 2, batch / 2, 303)
      sys.update(delta)
      val phases = sys.lastPhases.toMap
      val total = math.max(1L, phases.values.sum)
      Seq(algoName) ++ Seq("layer_update", "upload", "upper_iteration", "assignment").map { ph =>
        f"${100.0 * phases.getOrElse(ph, 0L) / total}%.1f%%"
      } :+ s"${total}ms"
    }
    sb.append(Harness.table(
      Seq("Algo", "LayerUpdate", "Upload", "UpperIter", "Assign", "Total"), rows))
    sb.toString
  }

  // ------------------------------------------------------------ Figure 8
  /** Effect of vertex replication: graph/upper-layer sizes and runtimes. */
  def replication(spark: SparkSession, scale: Double, batch: Int = 100): String = {
    val sb = new StringBuilder
    sb.append("\n## Figure 8a analog: |G| vs upper layer without/with vertex replication\n")
    val sizeRows = mutable.ArrayBuffer.empty[Seq[String]]
    val timeRows = mutable.ArrayBuffer.empty[Seq[String]]
    for (p <- Workloads.all) {
      val g = Workloads.build(spark, p, scale)
      val delta = Workloads.randomDelta(g, batch / 2, batch / 2, p.seed + 77)
      val variants = for (useRepl <- Seq(false, true)) yield {
        val sys = new LayphEngine(spark, LayphConfig(useReplication = useRepl))
        val algo = algoFor("SSSP")
        sys.initialize(g, algo)
        val inc = sys.update(delta)
        (sys.upperLayerSize, inc.stats.wallMs)
      }
      val ((v0, e0), t0) = variants(0)
      val ((v1, e1), t1) = variants(1)
      sizeRows += Seq(p.name, g.numVertices.toString, g.numEdges.toString,
        v0.toString, e0.toString, v1.toString, e1.toString,
        f"${100.0 * (e0 - e1).toDouble / math.max(1L, e0)}%.1f%%")
      val ing = new IngressEngine(spark)
      ing.initialize(g, algoFor("SSSP"))
      val ingMs = ing.update(delta).stats.wallMs
      timeRows += Seq(p.name, ingMs.toString, t0.toString, t1.toString)
    }
    sb.append(Harness.table(
      Seq("Graph", "|V|", "|E|", "UpperV (no repl)", "UpperE (no repl)",
        "UpperV (repl)", "UpperE (repl)", "UpperE reduction"), sizeRows.toSeq))
    sb.append("\n\n## Figure 8b analog: SSSP incremental runtime, Ingress vs Layph variants\n")
    sb.append(Harness.table(
      Seq("Graph", "Ingress ms", "Layph no-repl ms", "Layph repl ms"), timeRows.toSeq))
    sb.toString
  }

  // ------------------------------------------------------------ Figure 9
  /** Scaling with the number of workers: `partitions` (F tasks per BSP
    * round, and Layph's per-subgraph tasks) stands in for the paper's
    * threads, varied inside one session with a fixed core count.
    */
  def threadScaling(spark: SparkSession, scale: Double, batch: Int = 100): String = {
    val sb = new StringBuilder
    val parts = Seq(1, 2, 4, 8, 16)
    for (algoName <- Seq("SSSP", "PageRank")) {
      sb.append(s"\n## Figure 9 analog ($algoName on UK): runtime vs partitions (F tasks per round, one session)\n")
      val names = if (algoName == "SSSP") Seq("KickStarter", "Ingress", "Layph")
        else Seq("GraphBolt", "Ingress", "Layph")
      val rows = for (n <- parts) yield {
        val g = Workloads.build(spark, Workloads.UK, scale)
        val algo = algoFor(algoName)
        val systems = Harness.systemsFor(spark, algo.kind, partitions = n)
          .filter(s => names.contains(s.name))
        val delta = Workloads.randomDelta(g, batch / 2, batch / 2, 404)
        val res = Harness.runScenario("UK", g, algo, systems, Seq(delta))
        Seq(n.toString) ++ names.map(nm => res.find(_.system == nm).get.incStats.wallMs.toString)
      }
      sb.append(Harness.table(Seq("Partitions (F tasks/round)") ++ names.map(_ + " ms"), rows))
      sb.append("\n")
    }
    sb.toString
  }

  // ----------------------------------------------------------- Figure 10
  /** Speedup of Layph over the competitors for varying batch sizes. */
  def batchSize(spark: SparkSession, scale: Double): String = {
    val sb = new StringBuilder
    val sizes = Seq(10, 100, 1000, 10000)
    for (algoName <- Seq("SSSP", "PageRank")) {
      sb.append(s"\n## Figure 10 analog ($algoName on UK): Layph speedup vs batch size\n")
      val g0 = Workloads.build(spark, Workloads.UK, scale)
      val others = if (algoName == "SSSP") Seq("KickStarter", "RisGraph", "Ingress")
        else Seq("GraphBolt", "DZiG", "Ingress")
      val rows = for (bs <- sizes) yield {
        val g = g0.copyGraph()
        val algo = algoFor(algoName)
        val systems = Harness.systemsFor(spark, algo.kind)
          .filter(s => others.contains(s.name) || s.name == "Layph")
        val delta = Workloads.randomDelta(g, bs / 2, bs - bs / 2, 500 + bs)
        val res = Harness.runScenario("UK", g, algo, systems, Seq(delta))
        val layphMs = math.max(1L, res.find(_.system == "Layph").get.incStats.wallMs)
        Seq(bs.toString) ++ others.map { nm =>
          f"${res.find(_.system == nm).get.incStats.wallMs.toDouble / layphMs}%.2fx"
        } :+ s"${layphMs}ms"
      }
      sb.append(Harness.table(Seq("|ΔG|") ++ others.map(_ + "/Layph") :+ "Layph ms", rows))
      sb.append("\n")
    }
    sb.toString
  }

  // ----------------------------------------------------------- Figure 11
  /** Additional space of the layered graph and amortization of the offline
    * preprocessing over repeated incremental rounds.
    */
  def overhead(spark: SparkSession, scale: Double, batch: Int = 100, rounds: Int = 9): String = {
    val sb = new StringBuilder
    sb.append("\n## Figure 11a analog: additional space of the layered graph\n")
    val spaceRows = Workloads.all.map { p =>
      val g = Workloads.build(spark, p, scale)
      val sys = new LayphEngine(spark)
      sys.initialize(g, algoFor("SSSP"))
      val shortcuts = sys.subgraphStats.map { case (_, nv, ne, _) => nv.toLong * ne }.sum
      Seq(p.name, g.numEdges.toString, shortcuts.toString,
        f"${100.0 * shortcuts / g.numEdges}%.1f%%")
    }
    sb.append(Harness.table(Seq("Graph", "|E|", "Shortcut entries", "Extra space"), spaceRows))

    sb.append("\n\n## Figure 11b analog: offline cost amortization (SSSP on UK)\n")
    val g = Workloads.build(spark, Workloads.UK, scale)
    val layph = new LayphEngine(spark)
    val ing = new IngressEngine(spark)
    layph.initialize(g.copyGraph(), algoFor("SSSP"))
    ing.initialize(g.copyGraph(), algoFor("SSSP"))
    var accL = layph.offlinePreprocessMs
    var accI = 0L
    val rows = (1 to rounds).map { k =>
      val delta = Workloads.randomDelta(g, batch / 2, batch / 2, 600 + k)
      g.applyDelta(delta)
      accL += layph.update(delta).stats.wallMs
      accI += ing.update(delta).stats.wallMs
      Seq(k.toString, accL.toString, accI.toString, if (accL <= accI) "<= Ingress" else "> Ingress")
    }
    sb.append(Harness.table(
      Seq("Round", "Layph offline+acc ms", "Ingress acc ms", "Crossover"), rows))
    sb.append(s"\n(Layph offline preprocessing: ${layph.offlinePreprocessMs} ms)\n")
    sb.toString
  }
}

package layphbench

/** A reported metric: its name in `BENCHMARK.json` and its unit. */
final case class Metric(name: String, unit: String)

/** Every metric the benchmark prints. The names and units here are the
  * ones `BENCHMARK.json` lists; a test keeps the two in step.
  */
object Metrics {
  val systems: Seq[String] = Seq("layph", "ingress")

  /** Printed by every untraced run and gated by a bound: times, rates and
    * a size, none of which can be 0.
    */
  val endToEnd: Seq[Metric] =
    Metric("setup_s", "s") +:
      systems.flatMap(s => Seq(Metric(s"$s.update_ms_p50", "ms"), Metric(s"$s.updates_per_s", "updates/s"))) :+
      Metric("heap_mb", "MB")

  /** End-to-end figures that cannot carry a relative bound across seeds.
    * Mean activations per update hinge on which edges a ΔG happens to
    * hit; the correctness figures are 0 whenever the systems are exact.
    * Every run prints them; the traced run reports them with the layers.
    */
  val ungated: Seq[Metric] =
    systems.map(s => Metric(s"$s.activations", "count")) ++
      (Metric("failed_share", "ratio") +: systems.map(s => Metric(s"$s.max_err", "abs")))

  val sparkEngineFields: Seq[Metric] = Seq(
    Metric("rounds", "count"), Metric("jobs", "count"), Metric("round_ms_p50", "ms"),
    Metric("job_ms", "ms"), Metric("sched_ms", "ms"), Metric("tasks", "count"),
    Metric("task_run_ms", "ms"), Metric("task_cpu_ms", "ms"), Metric("task_deser_ms", "ms"),
    Metric("shuffle_bytes", "B"), Metric("shuffle_records", "count"),
    Metric("result_bytes", "B"), Metric("gc_ms", "ms"))

  val perLayer: Seq[Metric] =
    systems.flatMap(s => sparkEngineFields.map(f => f.copy(name = s"$s.SparkEngine.${f.name}"))) ++
      systems.map(s => Metric(s"$s.driver_ms", "ms")) ++
      Seq("layer_update", "upload", "upper_iteration", "assignment")
        .map(p => Metric(s"layph.phase.${p}_ms", "ms")) ++
      Seq(
        Metric("layph.subgraph_tasks.jobs", "count"),
        Metric("layph.subgraph_tasks.job_ms", "ms"),
        Metric("layph.subgraph_tasks.task_run_ms", "ms"),
        Metric("layph.subgraph_tasks.result_bytes", "B"),
        Metric("layph.skeleton_v", "count"),
        Metric("layph.skeleton_e", "count"),
        Metric("layph.subgraphs", "count"),
        Metric("GraphState.apply_delta_ms", "ms"),
        Metric("GraphState.adjacency_ms", "ms"),
        Metric("GraphState.reverse_adjacency_ms", "ms"),
        Metric("GraphState.adjacency_bytes", "B"),
        Metric("MemoPath.compute_parents_ms", "ms"),
        Metric("Layering.effective_adjacency_ms", "ms"),
        Metric("Layering.roles_ms", "ms"),
        Metric("Community.detect_ms", "ms"),
        Metric("Community.agglomerate_ms", "ms"),
        Metric("Layering.select_dense_ms", "ms"),
        Metric("layph.offline_ms", "ms"),
        Metric("layph.init_ms", "ms"),
        Metric("ingress.init_ms", "ms"),
        Metric("LocalEngine.batch_ms", "ms"),
        Metric("trace_overhead_ms", "ms"),
      ) ++ ungated

  /** The metrics a run prints in its result line. */
  def forRun(trace: Boolean): Seq[Metric] = if (trace) perLayer else endToEnd

  /** The result line: `correct`, `attempted`, `failed` and the metrics. */
  def resultLine(correct: Boolean, attempted: Int, failed: Int,
                 values: Map[String, Double], trace: Boolean): String = {
    val ms = forRun(trace).map { m =>
      val v = values.getOrElse(m.name, throw new IllegalStateException(s"metric ${m.name} was not measured"))
      m.name -> Json.obj(Seq("value" -> Json.num(v), "unit" -> Json.str(m.unit)))
    }
    Json.obj(Seq(
      "correct" -> correct.toString,
      "attempted" -> attempted.toString,
      "failed" -> failed.toString,
      "metrics" -> Json.obj(ms)))
  }
}

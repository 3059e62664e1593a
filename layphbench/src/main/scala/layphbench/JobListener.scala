package layphbench

import scala.collection.mutable
import org.apache.spark.SparkContext
import org.apache.spark.scheduler._

/** One finished Spark job, attributed to the layer that submitted it. */
final case class JobRecord(
    layer: String,
    startMs: Long,
    endMs: Long,
    stageIds: Seq[Int], // stages whose tasks ran in this job
) {
  def wallMs: Double = (endMs - startMs).toDouble
}

/** Task-level totals of one stage (all attempts). */
final case class StageTotals(
    tasks: Int = 0,
    runMs: Long = 0,
    cpuNs: Long = 0,
    deserMs: Long = 0,
    resultBytes: Long = 0,
    gcMs: Long = 0,
    shuffleBytes: Long = 0,
    shuffleRecords: Long = 0,
    longestTaskMs: Long = 0,
)

/** Records every Spark job with its call-site layer and the task metrics of
  * its stages. It only observes: it is registered from the benchmark, and
  * the program does not know it is there.
  *
  * A job's layer is the source file of the first `repro` frame in its call
  * site, without the `.scala` suffix (`SparkEngine`, `LayphEngine`,
  * `Community`, ...). Listener events arrive on Spark's bus thread, so
  * [[drain]] runs a marker job and waits for its end event: the bus keeps
  * event order, so every earlier event has then been seen.
  */
final class JobListener(sc: SparkContext) extends SparkListener {
  private val Marker = "layphbench-marker"
  private val jobs = mutable.ArrayBuffer.empty[JobRecord]
  private val open = mutable.HashMap.empty[Int, (String, Long)]
  private val seenStages = mutable.HashSet.empty[Int]
  private val ownedStages = mutable.HashMap.empty[Int, mutable.ArrayBuffer[Int]]
  private var runningJob = -1
  private val stages = mutable.HashMap.empty[Int, StageTotals]
  private var markerJobs = Set.empty[Int]
  private var markersSeen = 0
  private var markersRun = 0

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    runningJob = e.jobId
    val props = Option(e.properties)
    val short = props.flatMap(p => Option(p.getProperty("callSite.short"))).getOrElse("")
    if (short == Marker) markerJobs += e.jobId
    else {
      // the result stage is created last, for this job, and carries its call site
      val site = e.stageInfos.maxByOption(_.stageId).map(si => si.details + "\n" + si.name).getOrElse("")
      open(e.jobId) = (JobListener.layerOf(site), e.time)
    }
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    if (markerJobs.contains(e.jobId)) { markersSeen += 1; notifyAll() }
    else open.remove(e.jobId).foreach { case (layer, start) =>
      val owned = ownedStages.remove(e.jobId).map(_.toSeq).getOrElse(Nil)
      jobs += JobRecord(layer, start, e.time, owned)
    }
  }

  // The program submits one job at a time, so a stage belongs to the job
  // running when it is submitted. A stage that a later job skips (its
  // shuffle output is reused) is then counted once, under the job that ran it.
  override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit = synchronized {
    if (seenStages.add(e.stageInfo.stageId))
      ownedStages.getOrElseUpdate(runningJob, mutable.ArrayBuffer.empty) += e.stageInfo.stageId
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val m = e.taskMetrics
    val t = stages.getOrElse(e.stageId, StageTotals())
    stages(e.stageId) =
      if (m == null) t.copy(tasks = t.tasks + 1)
      else t.copy(
        tasks = t.tasks + 1,
        runMs = t.runMs + m.executorRunTime,
        cpuNs = t.cpuNs + m.executorCpuTime,
        deserMs = t.deserMs + m.executorDeserializeTime,
        resultBytes = t.resultBytes + m.resultSize,
        gcMs = t.gcMs + m.jvmGCTime,
        shuffleBytes = t.shuffleBytes + m.shuffleWriteMetrics.bytesWritten,
        shuffleRecords = t.shuffleRecords + m.shuffleWriteMetrics.recordsWritten,
        longestTaskMs = math.max(t.longestTaskMs, e.taskInfo.duration))
  }

  /** Blocks until every event posted before this call has been handled. */
  def drain(): Unit = {
    sc.setCallSite(Marker)
    try sc.parallelize(Seq(0), 1).count()
    finally sc.clearCallSite()
    synchronized {
      markersRun += 1
      val deadline = System.currentTimeMillis() + 30000
      while (markersSeen < markersRun && System.currentTimeMillis() < deadline) wait(50)
      require(markersSeen >= markersRun, "Spark listener bus did not drain")
    }
  }

  /** Jobs that started inside `[fromMs, toMs]`. */
  def jobsBetween(fromMs: Long, toMs: Long): Seq[JobRecord] = synchronized {
    jobs.filter(j => j.startMs >= fromMs && j.startMs <= toMs).toSeq
  }

  def stage(id: Int): StageTotals = synchronized(stages.getOrElse(id, StageTotals()))
}

object JobListener {
  private val ReproFrame = """repro\.[\w.$]+\((\w+)\.scala:\d+\)""".r
  private val ShortSite = """ at (\w+)\.scala:\d+""".r

  /** Layer of a call site: the first `repro` frame's file, else `other`. */
  def layerOf(callSite: String): String =
    ReproFrame.findFirstMatchIn(callSite).map(_.group(1))
      .orElse(ShortSite.findFirstMatchIn(callSite).map(_.group(1)))
      .getOrElse("other")
}

/** Per-update totals over a set of jobs (one layer's jobs, typically). */
final case class JobTotals(
    jobs: Int,
    jobMs: Double,
    jobMsP50: Double,
    schedMs: Double,
    stages: StageTotals,
)

object JobTotals {
  def of(jobs: Seq[JobRecord], stage: Int => StageTotals): JobTotals = {
    var st = StageTotals()
    var sched = 0.0
    jobs.foreach { j =>
      val ss = j.stageIds.map(stage)
      ss.foreach { s =>
        st = StageTotals(
          st.tasks + s.tasks, st.runMs + s.runMs, st.cpuNs + s.cpuNs, st.deserMs + s.deserMs,
          st.resultBytes + s.resultBytes, st.gcMs + s.gcMs, st.shuffleBytes + s.shuffleBytes,
          st.shuffleRecords + s.shuffleRecords, math.max(st.longestTaskMs, s.longestTaskMs))
      }
      // scheduling and shipping: the part of the job not spent in the
      // longest task of each of its stages
      sched += math.max(0.0, j.wallMs - ss.map(_.longestTaskMs).sum)
    }
    JobTotals(jobs.size, jobs.map(_.wallMs).sum,
      if (jobs.isEmpty) 0.0 else Stats.median(jobs.map(_.wallMs)), sched, st)
  }
}

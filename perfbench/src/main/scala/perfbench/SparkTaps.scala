package perfbench

import java.util.concurrent.ConcurrentHashMap
import scala.collection.mutable.ArrayBuffer
import scala.jdk.CollectionConverters._

import org.apache.spark.scheduler._
import org.apache.spark.sql.streaming.{StreamingQueryListener, StreamingQueryProgress}

/** Task totals of one tagged action or trigger. */
final class TaskTotals {
  var tasks = 0L
  var runMs = 0L
  var cpuNs = 0L
  var gcMs = 0L
  var shuffleWrite = 0L
  var shuffleRead = 0L
  var spill = 0L
  /** Task run times per stage. */
  val stageRunMs = scala.collection.mutable.Map.empty[Int, ArrayBuffer[Long]]

  /** Max over median task time in the stage that ran longest in total. */
  def skew: Double =
    if (stageRunMs.isEmpty) Double.NaN
    else {
      val times = stageRunMs.values.maxBy(_.sum).map(_.toDouble)
      times.max / math.max(1.0, Stats.median(times))
    }
}

/** Spark listener that sums task metrics per tag. An action's tag is the
  * local property `perfbench.tag`; a streaming trigger's tag is
  * `<queryId>#<batchId>`. Stages and tasks become spans under the span
  * registered for their tag.
  */
final class SparkTap(tracer: Tracer) extends SparkListener {
  val TagKey = "perfbench.tag"
  private val stageTag = new ConcurrentHashMap[Int, String]()
  private val jobTag = new ConcurrentHashMap[Int, String]()
  private val open = new ConcurrentHashMap[String, Integer]()
  private val totals = new ConcurrentHashMap[String, TaskTotals]()
  /** Span id of each tag, set by the client before the work starts. */
  val spanOf = new ConcurrentHashMap[String, java.lang.Long]()

  def tagOf(props: java.util.Properties): String =
    if (props == null) "untagged"
    else Option(props.getProperty(TagKey)).getOrElse(
      s"${props.getProperty("sql.streaming.queryId")}#${props.getProperty("streaming.sql.batchId")}")

  override def onJobStart(e: SparkListenerJobStart): Unit = {
    val tag = tagOf(e.properties)
    jobTag.put(e.jobId, tag)
    e.stageIds.foreach(stageTag.put(_, tag))
    open.merge(tag, 1, (a, b) => a + b)
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit =
    Option(jobTag.get(e.jobId)).foreach(tag => open.merge(tag, -1, (a, b) => a + b))

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    val tag = Option(stageTag.get(e.stageId)).getOrElse("untagged")
    val m = e.taskMetrics
    val t = totals.computeIfAbsent(tag, _ => new TaskTotals)
    t.synchronized {
      t.tasks += 1
      if (m != null) {
        t.runMs += m.executorRunTime
        t.cpuNs += m.executorCpuTime
        t.gcMs += m.jvmGCTime
        t.shuffleWrite += m.shuffleWriteMetrics.bytesWritten
        t.shuffleRead += m.shuffleReadMetrics.totalBytesRead
        t.spill += m.memoryBytesSpilled + m.diskBytesSpilled
        t.stageRunMs.getOrElseUpdate(e.stageId, ArrayBuffer.empty) += m.executorRunTime
      }
    }
    if (tracer.enabled) {
      val info = e.taskInfo
      tracer.record(tracer.newId(), Option(spanOf.get(tag)).map(_.longValue).getOrElse(0L),
        "spark.task", info.launchTime * 1000000L, info.finishTime * 1000000L,
        "tag" -> tag, "stage" -> e.stageId, "run_ms" -> Option(m).map(_.executorRunTime).getOrElse(0L))
    }
  }

  override def onStageCompleted(e: SparkListenerStageCompleted): Unit = if (tracer.enabled) {
    val info = e.stageInfo
    val tag = Option(stageTag.get(info.stageId)).getOrElse("untagged")
    tracer.record(tracer.newId(), Option(spanOf.get(tag)).map(_.longValue).getOrElse(0L),
      "spark.stage", info.submissionTime.getOrElse(0L) * 1000000L,
      info.completionTime.getOrElse(0L) * 1000000L,
      "tag" -> tag, "stage" -> info.stageId, "tasks" -> info.numTasks, "name" -> info.name)
  }

  /** Totals of `tag`, once the listener has seen all its jobs end. */
  def await(tag: String, timeoutMs: Long = 10000): TaskTotals = {
    val deadline = System.currentTimeMillis() + timeoutMs
    def done = Option(open.get(tag)).exists(_.intValue == 0)
    while (!done && System.currentTimeMillis() < deadline) Thread.sleep(5)
    Option(totals.get(tag)).getOrElse(new TaskTotals)
  }
}

/** Streaming listener keeping every `StreamingQueryProgress`, keyed by
  * query id and batch id; each becomes a span under its trigger's span.
  */
final class ProgressTap(tracer: Tracer, sparkTap: SparkTap) extends StreamingQueryListener {
  private val progress = new ConcurrentHashMap[String, StreamingQueryProgress]()

  override def onQueryStarted(e: StreamingQueryListener.QueryStartedEvent): Unit = ()
  override def onQueryTerminated(e: StreamingQueryListener.QueryTerminatedEvent): Unit = ()
  override def onQueryIdle(e: StreamingQueryListener.QueryIdleEvent): Unit = ()

  override def onQueryProgress(e: StreamingQueryListener.QueryProgressEvent): Unit = {
    val p = e.progress
    val tag = s"${p.id}#${p.batchId}"
    progress.put(tag, p)
    if (tracer.enabled) {
      val start = java.time.Instant.parse(p.timestamp).toEpochMilli * 1000000L
      val d = p.durationMs.asScala.map { case (k, v) => s"duration.$k" -> v.longValue }.toSeq
      tracer.record(tracer.newId(), Option(sparkTap.spanOf.get(tag)).map(_.longValue).getOrElse(0L),
        "stream.progress", start, start + Option(p.durationMs.get("triggerExecution")).map(_.longValue).getOrElse(0L) * 1000000L,
        (Seq("tag" -> tag, "rows_in" -> p.numInputRows, "rows_out" -> p.sink.numOutputRows) ++ d): _*)
    }
  }

  /** Progress of `tag`, waiting for the listener bus if needed. */
  def await(tag: String, timeoutMs: Long = 10000): Option[StreamingQueryProgress] = {
    val deadline = System.currentTimeMillis() + timeoutMs
    while (!progress.containsKey(tag) && System.currentTimeMillis() < deadline) Thread.sleep(5)
    Option(progress.get(tag))
  }
}

package dlbench

import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}

import scala.collection.mutable

/** Spark work attributed to one layer: jobs, tasks, executor CPU, shuffle
  * writes, and the [launch, finish] interval (epoch ms) of every task.
  */
final class LayerCounts {
  var jobs = 0L
  var tasks = 0L
  var cpuNs = 0L
  var shuffleRecords = 0L
  var shuffleBytes = 0L
  val taskIntervals = mutable.ArrayBuffer.empty[(Long, Long)]

  /** Milliseconds of [from, to] during which at least one task ran. */
  def busyMs(from: Long, to: Long): Long = {
    val clipped = taskIntervals.map { case (s, e) => (math.max(s, from), math.min(e, to)) }
      .filter { case (s, e) => e > s }.sortBy(_._1)
    var busy = 0L; var end = from
    for ((s, e) <- clipped if e > end) { busy += e - math.max(s, end); end = e }
    busy
  }
}

/** Attributes every job, and the tasks of its stages, to the job group the
  * harness set around the call that launched it. Events arrive on Spark's
  * listener bus thread; read `take` only after the bus has drained.
  */
final class LayerListener extends SparkListener {
  private val stageGroup = mutable.Map.empty[Int, String]
  private var counts = mutable.Map.empty[String, LayerCounts]

  private def of(group: String): LayerCounts = counts.getOrElseUpdate(group, new LayerCounts)

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val group = Option(e.properties).flatMap(p => Option(p.getProperty("spark.jobGroup.id")))
      .getOrElse(LayerListener.Unattributed)
    e.stageIds.foreach(stageGroup(_) = group)
    of(group).jobs += 1
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val c = of(stageGroup.getOrElse(e.stageId, LayerListener.Unattributed))
    c.tasks += 1
    c.taskIntervals += ((e.taskInfo.launchTime, e.taskInfo.finishTime))
    Option(e.taskMetrics).foreach { m =>
      c.cpuNs += m.executorCpuTime
      c.shuffleRecords += m.shuffleWriteMetrics.recordsWritten
      c.shuffleBytes += m.shuffleWriteMetrics.bytesWritten
    }
  }

  /** Counts per job group since the previous call, then starts afresh. */
  def take(): Map[String, LayerCounts] = synchronized {
    val out = counts.toMap
    counts = mutable.Map.empty
    stageGroup.clear()
    out
  }
}

object LayerListener {
  val Unattributed = "unattributed"
}

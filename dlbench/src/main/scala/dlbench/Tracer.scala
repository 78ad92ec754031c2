package dlbench

import java.io.{File, PrintWriter}

import org.apache.spark.{ListenerBusDrain, SparkContext}
import org.apache.spark.sql.DataFrame

import scala.collection.mutable

import repro.core.{Alignment, SchemaMatcher}

/** One timed call: a root `setup` or `query` span, or a layer span inside
  * it (or inside another layer span).
  */
final case class Span(id: Int, name: String, startNs: Long, endNs: Long, parent: Int)

/** What one layer did in one traced call. `wallS` is self time: the time of
  * a nested span counts only to the nested layer.
  */
final case class LayerStat(wallS: Double, jobs: Long, tasks: Long, taskCpuS: Double,
                           shuffleRecords: Long, shuffleMb: Double, driverOnlyS: Double)

/** Per-layer tracing from outside the program: each layer call runs under
  * a Spark job group named after the layer, a `LayerListener` attributes
  * jobs and tasks to it, and a span records its wall time. Spans may nest;
  * when a nested span ends, the enclosing layer's job group is restored.
  * Spans stay in memory until `writeSpans`. With `enabled = false` nothing
  * is registered and every span just runs its body.
  */
final class Tracer(sc: SparkContext, enabled: Boolean) {
  private val listener = new LayerListener
  if (enabled) sc.addSparkListener(listener)
  private val origin = System.nanoTime()
  private var ids = 0
  private val spans = mutable.ArrayBuffer.empty[Span]
  /** Per traced root call: (root name, layer stats, harness gap, unattributed jobs). */
  private val calls = mutable.ArrayBuffer.empty[(String, Map[String, LayerStat], Double, Long)]
  private val cachedMb = mutable.ArrayBuffer.empty[Double]
  private var current: Option[Call] = None

  private def nextId(): Int = { ids += 1; ids - 1 }

  /** Starts a root call; its layer spans are recorded only when `traced`. */
  def call(root: String, traced: Boolean): Call = {
    val c = new Call(root, traced && enabled)
    current = Some(c)
    c
  }

  /** Times `body` as `layer` in the current call; outside a traced call it
    * just runs `body`.
    */
  def span[A](layer: String)(body: => A): A = current.fold(body)(_.span(layer)(body))

  /** A layer span still running, and the time spent in spans nested in it. */
  private final class Open(val id: Int, val layer: String, val parent: Int) {
    var nestedNs = 0L
  }

  /** A finished layer span, its self time and its epoch-ms interval. */
  private final case class Closed(span: Span, selfNs: Long, ms0: Long, ms1: Long)

  final class Call(root: String, on: Boolean) {
    if (on) { ListenerBusDrain(sc); listener.take() } // drop work of earlier, untraced calls
    private val rootId = if (on) nextId() else -1
    private val start = System.nanoTime()
    private var open = List.empty[Open] // innermost first
    private val closed = mutable.ArrayBuffer.empty[Closed]

    def span[A](layer: String)(body: => A): A =
      if (!on) body
      else {
        val frame = new Open(nextId(), layer, open.headOption.fold(rootId)(_.id))
        open = frame :: open
        sc.setJobGroup(layer, layer, interruptOnCancel = false)
        val (ms0, ns0) = (System.currentTimeMillis(), System.nanoTime())
        try body
        finally {
          val (ms1, ns1) = (System.currentTimeMillis(), System.nanoTime())
          open = open.tail
          open match {
            case outer :: _ =>
              outer.nestedNs += ns1 - ns0
              sc.setJobGroup(outer.layer, outer.layer, interruptOnCancel = false)
            case Nil => sc.clearJobGroup()
          }
          closed += Closed(Span(frame.id, layer, ns0 - origin, ns1 - origin, frame.parent),
            ns1 - ns0 - frame.nestedNs, ms0, ms1)
        }
      }

    /** Closes the root span and attributes the Spark work of its layers. */
    def end(): Unit = {
      current = None
      if (on) {
        val stop = System.nanoTime()
        ListenerBusDrain(sc)
        val counts = listener.take()
        spans += Span(rootId, root, start - origin, stop - origin, -1)
        spans ++= closed.map(_.span)
        val stats = closed.groupBy(_.span.name).map { case (name, cs) =>
          val c = counts.getOrElse(name, new LayerCounts)
          val self = cs.map(_.selfNs).sum / 1e9
          // A layer's own tasks never run inside its nested spans.
          val busy = cs.map(x => c.busyMs(x.ms0, x.ms1)).sum / 1e3
          name -> LayerStat(self, c.jobs, c.tasks, c.cpuNs / 1e9, c.shuffleRecords,
            c.shuffleBytes / 1048576.0, math.max(0.0, self - busy))
        }
        val gap = (stop - start) / 1e9 - stats.values.map(_.wallS).sum
        val unattributed = counts.collect { case (g, c) if !stats.contains(g) => c.jobs }.sum
        calls += ((root, stats, gap, unattributed))
      }
    }
  }

  /** Spark storage held by blocks outside `keep`, right after a query. */
  def recordCachedMb(keep: collection.Set[Int]): Unit = if (enabled)
    cachedMb += sc.getRDDStorageInfo.filterNot(i => keep(i.id))
      .map(i => i.memSize + i.diskSize).sum / 1048576.0

  /** Median per-layer metrics: `discovery.index` from the last traced
    * set-up, every other layer over the traced queries.
    */
  def layerMetrics(): Seq[(String, Double, String)] = {
    def of(root: String) = calls.filter(_._1 == root)
    val setup = of("setup").lastOption.map(_._2).getOrElse(Map.empty)
    val queries = of("query").map(_._2)
    val byLayer: Seq[(String, Seq[LayerStat])] =
      setup.toSeq.map { case (n, s) => n -> Seq(s) } ++
        queries.flatMap(_.keys).distinct.map(n => n -> queries.flatMap(_.get(n)).toSeq)
    byLayer.flatMap { case (n, ss) =>
      def med(f: LayerStat => Double) = Bench.median(ss.map(f))
      Seq(
        (s"$n.wall_s", med(_.wallS), "s"),
        (s"$n.jobs", med(_.jobs.toDouble), "count"),
        (s"$n.tasks", med(_.tasks.toDouble), "count"),
        (s"$n.task_cpu_s", med(_.taskCpuS), "s"),
        (s"$n.shuffle_records", med(_.shuffleRecords.toDouble), "count"),
        (s"$n.shuffle_mb", med(_.shuffleMb), "MB"),
        (s"$n.driver_only_s", med(_.driverOnlyS), "s"))
    } ++ Seq(
      ("core.fd.cached_mb", Bench.median(cachedMb.toSeq), "MB"),
      ("trace.gap_s", Bench.median(of("query").map(_._3).toSeq), "s"),
      ("trace.unattributed_jobs", Bench.median(of("query").map(_._4.toDouble).toSeq), "count"))
  }

  /** Closure shuffle records of the traced queries (median). */
  def closureShuffleRecords: Double =
    Bench.median(calls.filter(_._1 == "query").flatMap(_._2.get("core.fd.closure"))
      .map(_.shuffleRecords.toDouble).toSeq)

  /** Writes every span, one JSON object per line (times in ns from start). */
  def writeSpans(file: File): Unit = {
    file.getParentFile.mkdirs()
    val w = new PrintWriter(file)
    try spans.sortBy(_.id).foreach { s =>
      w.println(s"""{"id": ${s.id}, "name": "${s.name}", "start_ns": ${s.startNs}, """ +
        s""""end_ns": ${s.endNs}, "parent": ${if (s.parent < 0) "null" else s.parent}}""")
    } finally w.close()
  }
}

/** A schema matcher whose `align` is timed as the `core.align` layer, so a
  * `Dialite` built with it splits `integrate` into alignment and the rest.
  */
final class TracedMatcher(tracer: Tracer, inner: SchemaMatcher) extends SchemaMatcher {
  def align(tables: Seq[(String, DataFrame)]): Alignment = tracer.span("core.align")(inner.align(tables))
}

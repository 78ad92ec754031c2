package dlbench

import java.io.File

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.{col, count, lit, sum, xxhash64}

import scala.collection.mutable
import scala.jdk.CollectionConverters._
import scala.reflect.io.Directory

import repro.Dialite
import repro.analyze.Analytics
import repro.core.{AlignedTuples, HolisticMatcher, IntegratedTable, LocalTuple}
import repro.discovery.{LshEnsemble, Santos}
import repro.er.EntityResolver
import repro.lake.{DataLake, ParquetLake}

/** Closed-loop DIALITE benchmark: one client, one JVM, one query at a time
  * through the `Dialite` façade (discover with SANTOS-lite and
  * LSH-Ensemble-lite, integrate with ALITE's FD, then ER and describe).
  *
  * {{{
  * Bench --workload covid-lake|tpch-join --seed N --seconds S --trace 0|1 --out DIR
  * }}}
  *
  * A run writes the seeded lake to Parquet once, sets up once in the cold
  * JVM, runs `WarmupQueries` untimed queries, times the offline set-up
  * `SetupReps` more times, then runs timed queries until they add up to
  * `--seconds` (at least `MinTimed`). Every query's answer is checked by
  * the workload's oracle outside the timed region. The last stdout line is
  * the JSON result: with `--trace 0` the end-to-end medians, with
  * `--trace 1` the per-layer split of traced queries (interleaved with
  * untraced ones, whose difference is the tracing overhead).
  */
object Bench {

  // Pinned run configuration (printed with every result). Spark's own
  // defaults are pinned too (AQE on, 10 MB broadcast threshold): they are
  // what `spark-submit` users of the jobs get.
  val Cores = 3
  val ShufflePartitions = 1
  /** Fixed so the generated TPC-H-lite tables do not depend on the core count. */
  val DefaultParallelism = 4
  // A run must fit the benchmark's time budget (about a minute in all), so
  // after the cold set-up and one warm-up query, set-up is timed three
  // times (the first of them is often still slow; the median drops it) and
  // at least two queries are timed.
  val SetupReps = 3
  val WarmupQueries = 1
  val MinTimed = 2

  final case class Args(workload: String, seed: Long, seconds: Double, trace: Boolean, out: String)

  def parse(argv: Array[String]): Args = {
    val kv = argv.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = kv.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    require(kv.size * 2 == argv.length, s"expected --key value pairs, got ${argv.mkString(" ")}")
    Args(need("workload"), need("seed").toLong, need("seconds").toDouble,
      need("trace") match {
        case "0" => false
        case "1" => true
        case t => throw new IllegalArgumentException(s"--trace must be 0 or 1, got $t")
      },
      need("out"))
  }

  def main(argv: Array[String]): Unit = {
    val args = parse(argv)
    val workload = Workload.named(args.workload)
    val out = new File(args.out).getAbsoluteFile
    val spark = SparkSession.builder
      .master(s"local[$Cores]")
      .appName("dialite-bench")
      .config("spark.default.parallelism", DefaultParallelism)
      .config("spark.sql.shuffle.partitions", ShufflePartitions)
      .config("spark.sql.autoBroadcastJoinThreshold", 10L << 20)
      .config("spark.sql.adaptive.enabled", true)
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", new File(out, "spark-local").getPath)
      .config("spark.sql.warehouse.dir", new File(out, "warehouse").getPath)
      .getOrCreate()
    spark.sparkContext.setLogLevel("WARN")
    val lakeDir = new File(out, s"lake-${workload.name}-${args.seed}-${ProcessHandle.current.pid}")
    try new Bench(spark, workload, args, lakeDir, out).run()
    finally {
      spark.stop()
      new Directory(lakeDir).deleteRecursively()
      log("spark stopped")
    }
  }

  def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  /** Interquartile range as a share of the median (Python's
    * `statistics.quantiles(n=4)`, exclusive method).
    */
  def spread(xs: Seq[Double]): Double = {
    val s = xs.sorted
    val n = s.size
    if (n < 2) return 0.0
    def q(p: Double): Double = {
      val m = p * (n + 1)
      val j = math.min(math.max(m.floor.toInt, 1), n - 1)
      s(j - 1) + (m - j) * (s(j) - s(j - 1))
    }
    (q(0.75) - q(0.25)) / median(s)
  }

  private val Start = System.nanoTime()

  /** A progress line on stderr, stamped with the seconds since start. */
  def log(msg: String): Unit = Console.err.println(f"[${(System.nanoTime() - Start) / 1e9}%7.2f s] $msg")

  /** `(seconds, result)` of a block, by the monotonic clock. */
  def timed[A](body: => A): (Double, A) = {
    val t0 = System.nanoTime()
    val r = body
    ((System.nanoTime() - t0) / 1e9, r)
  }
}

/** One query's answer and timings. `set` is the de-duplicated integration
  * set; `rawSize` counts the duplicate query table `Dialite.discover`
  * returns when the query is itself a lake table.
  */
final case class QueryResult(rawSize: Int, set: Seq[(String, DataFrame)], result: IntegratedTable,
                             entities: Long, integrateS: Double, pipelineS: Double)

final class Bench(spark: SparkSession, workload: Workload, args: Bench.Args,
                  lakeDir: File, out: File) {
  import Bench._

  private val sc = spark.sparkContext
  private val tracer = new Tracer(sc, enabled = args.trace)

  def run(): Unit = {
    val (lakeS, generated) = timed {
      val g = workload.generate(spark, args.seed)
      ParquetLake.write(g.lake, lakeDir.getPath)
      g
    }
    val lake = new ParquetLake(spark, lakeDir.getPath)
    printConfig(lake)
    log(f"lake generated and written in $lakeS%.3f s")

    // Set-up: offline index build plus the first discover (SANTOS typing).
    var dialite: Dialite = null
    var index: DataFrame = null
    var keep: collection.Set[Int] = Set.empty
    def setUp(): Double = {
      if (index != null) index.unpersist(blocking = true)
      val t = tracer.call("setup", traced = true)
      val (secs, (d, ix)) = timed(t.span("discovery.index")(setup(lake, generated.kb)))
      t.end()
      dialite = d; index = ix
      keep = sc.getPersistentRDDs.keySet
      log(f"set-up: $secs%.3f s")
      secs
    }

    var attempted = 0
    var failed = 0
    var check: IntegratedTable => Seq[String] = null
    def attempt(traced: Boolean): Option[QueryResult] = {
      attempted += 1
      val r = try Some(query(dialite, lake, traced))
              catch { case e: Exception => log(s"query failed: $e"); None }
      val problems = r.fold(Seq("query threw")) { q =>
        if (check == null) check = prepareOracle(lake, q)
        discoveryProblems(q, generated.relevant) ++ check(q.result)
      }
      problems.foreach(p => log(s"check failed: $p"))
      if (problems.nonEmpty) failed += 1
      r.foreach(q => log(
        f"query $attempted${if (traced) " (traced)" else ""}: pipeline ${q.pipelineS}%.3f s, integrate ${q.integrateS}%.3f s"))
      if (traced) tracer.recordCachedMb(keep)
      release(keep)
      r
    }

    // The first set-up runs in a cold JVM (class loading, JIT) and is kept
    // out of `setup_s`; the warm-up query runs on it.
    val coldSetup = setUp()
    val warm = Seq.fill(WarmupQueries) {
      val (secs, r) = timed(attempt(traced = false))
      r.fold(secs)(_.pipelineS) // a failed query still reports how long it took
    }
    val setupTimes = Seq.fill(SetupReps)(setUp())

    // Timed closed loop. A traced run alternates untraced and traced
    // queries, starting and ending untraced, so both see the same JIT state.
    val untraced = mutable.ArrayBuffer.empty[QueryResult]
    val traced = mutable.ArrayBuffer.empty[QueryResult]
    def total = (untraced ++ traced).map(_.pipelineS).sum
    while (total < args.seconds || untraced.size < MinTimed || (args.trace && traced.isEmpty)) {
      val asTraced = args.trace && untraced.size > traced.size
      attempt(asTraced).foreach(q => (if (asTraced) traced else untraced) += q)
      if (attempted > 3 * (WarmupQueries + MinTimed) && untraced.isEmpty) sys.error("every query failed")
    }
    val last = (untraced ++ traced).last

    // The oracle must reject an answer with one row dropped.
    val oracleFires = {
      val rows = last.result.tuples.collect().toSeq
      check(IntegratedTable(last.result.alignment,
        spark.createDataFrame(rows.drop(1).asJava, last.result.tuples.schema))).nonEmpty
    }
    log("timed queries done")
    println(s"oracle self-check: an answer with one row dropped is ${if (oracleFires) "rejected" else "ACCEPTED"}")

    val integrate = untraced.map(_.integrateS).toSeq
    val pipeline = untraced.map(_.pipelineS).toSeq
    println(s"queries: ${untraced.size} untraced, ${traced.size} traced, $failed of $attempted failed; " +
      s"warm-up ${warm.map(s => f"$s%.3f").mkString(", ")} s; cold set-up ${f"$coldSetup%.3f"} s")
    Seq("setup_s" -> setupTimes, "integrate_s" -> integrate, "pipeline_s" -> pipeline).foreach {
      case (n, xs) => println(f"$n%-12s median ${median(xs)}%.3f s  iqr/median ${spread(xs)}%.3f  n=${xs.size}")
    }

    val metrics: Seq[(String, Double, String)] =
      if (!args.trace) Seq(
        ("setup_s", median(setupTimes), "s"),
        ("integrate_s", median(integrate), "s"),
        ("pipeline_s", median(pipeline), "s"))
      else {
        val spansFile = new File(out, s"spans/${workload.name}-seed${args.seed}.jsonl")
        tracer.writeSpans(spansFile)
        println(s"spans: ${spansFile.getPath}")
        val outRows = last.result.tuples.count().toDouble
        tracer.layerMetrics() ++ Seq(
          ("core.align.columns", last.set.map(_._2.columns.length).sum.toDouble, "count"),
          ("core.align.iids", last.result.alignment.numIids.toDouble, "count"),
          ("core.fd.in_tuples", AlignedTuples.build(last.set, last.result.alignment).count().toDouble, "count"),
          ("core.fd.out_rows", outRows, "count"),
          ("core.fd.out_per_shuffle_record", outRows / math.max(1.0, tracer.closureShuffleRecords), "ratio"),
          ("discovery.query.hits", (last.rawSize - 1).toDouble, "count"),
          ("discovery.query.dup_hits", (last.rawSize - last.set.size).toDouble, "count"),
          ("discovery.query.precision", precision(last, generated.relevant), "ratio"),
          ("er.entities", last.entities.toDouble, "count"),
          ("warmup.first_query_s", warm.head, "s"),
          ("warmup.first_setup_s", coldSetup, "s"),
          ("trace.overhead_s", median(traced.map(_.pipelineS).toSeq) - median(pipeline), "s"))
      }
    val json = metrics.map { case (n, v, u) => s""""$n": {"value": $v, "unit": "$u"}""" }
      .mkString("{", ", ", "}")
    println(s"""{"correct": ${failed == 0 && oracleFires}, "attempted": $attempted, """ +
      s""""failed": $failed, "metrics": $json}""")
  }

  /** Fresh discoverers, a materialized LSH index and one discover: the
    * state a lake needs before it can answer a query.
    */
  private def setup(lake: DataLake, kb: Map[String, String]): (Dialite, DataFrame) = {
    val lsh = new LshEnsemble(spark, lake)
    lsh.index.count()
    val d = new Dialite(spark, lake, Seq(new Santos(lake, kb), lsh),
      matcher = new TracedMatcher(tracer, new HolisticMatcher()))
    val q = lake.table(workload.queryTable)
    d.discover(q, Some(workload.queryColumn(q)), workload.k, workload.queryTable)
    (d, lsh.index)
  }

  /** Discover, integrate, then ER and describe over every integrated
    * column. The FD result is materialized once (collected to the driver)
    * and that copy feeds analysis, so dedup and subsumption run exactly
    * once. Traced and untraced queries make the same calls; `core.align`
    * is timed inside `Dialite.integrate` by the set-up's `TracedMatcher`,
    * and `core.fd.closure` is the rest of `integrate`.
    */
  private def query(d: Dialite, lake: DataLake, traced: Boolean): QueryResult = {
    val t = tracer.call("query", traced)
    val t0 = System.nanoTime()
    val q = lake.table(workload.queryTable)
    val raw = t.span("discovery.query")(
      d.discover(q, Some(workload.queryColumn(q)), workload.k, workload.queryTable))
    val set = raw.distinctBy(_._1) // the query table comes back twice; see PipelineJob
    val t1 = System.nanoTime()
    val integrated = t.span("core.fd.closure")(d.integrate(set, "alite-fd"))
    val result = t.span("core.fd.finish")(materialize(integrated))
    val t2 = System.nanoTime()
    val entities = t.span("er")(EntityResolver.resolve(result).tuples.count())
    t.span("analyze")(Analytics.describe(result.asTable, result.columnNames).collect())
    val t3 = System.nanoTime()
    t.end()
    QueryResult(raw.size, set, result, entities, (t2 - t1) / 1e9, (t3 - t0) / 1e9)
  }

  private def materialize(it: IntegratedTable): IntegratedTable =
    IntegratedTable(it.alignment,
      spark.createDataFrame(it.tuples.collect().toSeq.asJava, it.tuples.schema))

  /** The workload's oracle for this integration set, built from the first
    * query's alignment and aligned tuples.
    */
  private def prepareOracle(lake: DataLake, q: QueryResult): IntegratedTable => Seq[String] = {
    val aligned = AlignedTuples.build(q.set, q.result.alignment).collect().toSeq.map { r =>
      LocalTuple(r.getSeq[String](0).toVector.map(Option(_)), r.getLong(1),
        r.getSeq[String](2).toSet, r.getSeq[String](3).toSet)
    }
    workload.oracle(lake, q.result, aligned)
  }

  private def precision(q: QueryResult, relevant: Set[String]): Double = {
    val hits = q.set.map(_._1)
    hits.count(relevant).toDouble / hits.size
  }

  private def discoveryProblems(q: QueryResult, relevant: Set[String]): Seq[String] = {
    val names = q.set.map(_._1)
    val wrong = names.filterNot(relevant)
    (if (wrong.isEmpty) Nil else Seq(s"discovered tables outside the ground truth: ${wrong.mkString(", ")}")) ++
      (if (names.size == workload.expectedSet) Nil
       else Seq(s"integration set has ${names.size} tables (${names.mkString(", ")}), " +
         s"expected ${workload.expectedSet}"))
  }

  /** Drops every cached block a query left behind (the FD closure's
    * `localCheckpoint`s) and collects garbage, so queries start alike.
    */
  private def release(keep: collection.Set[Int]): Unit = {
    sc.getPersistentRDDs.foreach { case (id, rdd) => if (!keep(id)) rdd.unpersist(blocking = true) }
    System.gc()
  }

  private def printConfig(lake: DataLake): Unit = {
    val hashed = lake.tables.map { case (n, df) =>
      df.select(xxhash64(lit(n) +: df.columns.map(c => col(s"`$c`")): _*).as("h"))
    }.reduce(_ unionAll _).agg(sum(col("h").cast("decimal(38,0)")).as("h"), count(lit(1)).as("n")).collect().head
    println(s"config: master=${sc.master} spark=${spark.version} " +
      s"shuffle.partitions=${spark.conf.get("spark.sql.shuffle.partitions")} " +
      s"default.parallelism=${sc.defaultParallelism} " +
      s"autoBroadcastJoinThreshold=${spark.conf.get("spark.sql.autoBroadcastJoinThreshold")} " +
      s"adaptive=${spark.conf.get("spark.sql.adaptive.enabled")} " +
      s"driver.heap=${Runtime.getRuntime.maxMemory / (1 << 20)}MB")
    println(s"input: workload=${workload.name} seed=${args.seed} tables=${lake.tableNames.size} " +
      s"tuples=${hashed.getLong(1)} hash=${hashed.getDecimal(0)}")
  }
}

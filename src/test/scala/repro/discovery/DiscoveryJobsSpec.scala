package repro.discovery

import java.util.concurrent.atomic.AtomicInteger

import org.apache.spark.ListenerBusWait
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}
import org.apache.spark.sql.{DataFrame, Row}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{StringType, StructField, StructType}

import repro.{Dialite, SparkSpec}
import repro.lake.{ColumnProfile, DataLake, InMemoryLake, LakeGen}

/** Discovery answers exactly as the per-table Spark plans it replaced, in
  * a fixed number of jobs: SANTOS samples every table in one job, and LSH
  * Ensemble scores a driver copy of its index.
  */
class DiscoveryJobsSpec extends SparkSpec {

  private lazy val gen = LakeGen.generate(spark, sf = 0.01, seed = 7)

  private def jobsOf[A](body: => A): (A, Int) = {
    val jobs = new AtomicInteger
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()
    }
    val sc = spark.sparkContext
    ListenerBusWait(sc)
    sc.addSparkListener(listener)
    val result = try { val r = body; ListenerBusWait(sc); r } finally sc.removeSparkListener(listener)
    (result, jobs.get)
  }

  /** Two string columns over three partitions of 200, 400 and 600 rows, so
    * `limit(SampleSize)` reads the whole first partition and part of the
    * second. Sampled rows decide the types: the first 500 hold 200 cities
    * against 300 countries, and exactly 40 % numbers in the second column.
    */
  private lazy val skewed: DataFrame = {
    val parts = Seq(200 -> Row("Paris", "1"), 400 -> Row("France", "x"), 600 -> Row("12%", "2"))
    val rdd = spark.sparkContext.parallelize(parts, parts.size)
      .flatMap { case (n, row) => Iterator.fill(n)(row) }
    spark.createDataFrame(rdd, StructType(Seq("a", "b").map(StructField(_, StringType))))
  }
  private val kb = Map("paris" -> "city", "france" -> "country")

  test("a SANTOS sample is the table's limit(SampleSize), across partitions") {
    val santos = new Santos(InMemoryLake(Map.empty), kb)
    assert(skewed.rdd.getNumPartitions == 3 && skewed.count() > Santos.SampleSize)
    val reference = skewed.limit(Santos.SampleSize).collect()
    assert(reference.count(_.getString(0) == "Paris") == 200, "the first partition is short")
    assert(santos.samples(Seq(skewed)).head.toSeq == reference.toSeq)
    assert(santos.columnTypes(skewed) == santos.typesOf(reference, 2))
    assert(santos.columnTypes(skewed) == Vector(Some("country"), Some("number")))
  }

  test("SANTOS types a multi-table lake in one job, each table as its limit") {
    val small = DataLake.stringTable(spark, Seq("c"), Seq(Seq("Paris"), Seq("3")), partitions = 4)
    val lake = InMemoryLake(Map("skewed" -> skewed, "small" -> small, "cases" -> gen.lake.table("cases_p0")))
    val santos = new Santos(lake, kb ++ gen.kb)
    val (types, jobs) = jobsOf(santos.lakeTypes)
    assert(jobs == 1)
    assert(types == lake.tables.map { case (n, df) =>
      n -> santos.typesOf(df.limit(Santos.SampleSize).collect(), df.columns.length)
    }.toMap)
    assert(santos.samples(Seq.empty).isEmpty)
  }

  test("LSH scores equal the Spark containment over the index, in no more jobs than the query profile") {
    val lsh = new LshEnsemble(spark, gen.lake)
    val first = gen.lake.table("cust_keys")
    lsh.scores(first, Some("custkey")) // set-up: the index and its driver copy

    /** The containment scan as a Spark plan over `index`. */
    def reference(query: DataFrame, qc: String): Map[String, Double] = {
      val q = ColumnProfile.of(Seq(("query", query.select(ColumnProfile.column(qc)))))
        .select(col("size"), col("sig")).collect()
      if (q.isEmpty) return Map.empty
      val (qSize, qSig) = (q.head.getLong(0), q.head.getSeq[Long](1))
      val (pruned, kept) = lsh.partBounds.partition(_.toDouble / qSize.toDouble < 0.3)
      if (kept.isEmpty) return Map.empty
      val matches = (0 until ColumnProfile.NumPerms)
        .map(i => when(col("sig").getItem(i) === lit(qSig(i)), 1).otherwise(0))
        .reduce(_ + _)
      val j = matches.cast("double") / lit(ColumnProfile.NumPerms.toDouble)
      val containment = least(lit(1.0),
        j * (lit(qSize.toDouble) + col("size")) / ((j + 1.0) * lit(qSize.toDouble)))
      lsh.index
        .where(col("size") > pruned.lastOption.getOrElse(0L))
        .select(col("table"), containment.as("c"))
        .groupBy("table").agg(max("c").as("score"))
        .where(col("score") >= 0.3)
        .collect().map(r => r.getString(0) -> r.getDouble(1)).toMap
    }

    val queries = Seq("cases_p0", "cust_keys", "orders_cust", "vac_frag0_a")
      .flatMap(t => gen.lake.table(t).columns.map(t -> _))
    var hits = 0
    for ((t, c) <- queries) {
      val query = gen.lake.table(t)
      val (_, profileJobs) = jobsOf(
        ColumnProfile.of(Seq(("query", query.select(ColumnProfile.column(c))))).collect())
      val (scores, scoreJobs) = jobsOf(lsh.scores(query, Some(c)))
      assert(scoreJobs <= profileJobs, s"$t.$c")
      val exact = scores.map(s => s.table -> s.score).toMap
      assert(exact.size == scores.size && exact == reference(query, c), s"$t.$c")
      hits += exact.size
    }
    assert(hits > queries.size, "most queries find joinable tables")
  }

  test("an empty lake discovers only the query") {
    import spark.implicits._
    val lake = InMemoryLake(Map.empty)
    val dialite = new Dialite(spark, lake, Seq(new Santos(lake, kb), new LshEnsemble(spark, lake)))
    val query = Seq("Paris", "France").toDF("c")
    assert(dialite.discover(query, Some("c"), k = 5).map(_._1) == Seq("query"))
  }
}

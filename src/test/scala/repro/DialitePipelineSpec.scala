package repro

import org.apache.spark.sql.functions._

import repro.core.ColumnKey
import repro.discovery.{InnerJoinRatio, LshEnsemble, Santos, SimilarityDiscoverer}
import repro.lake.LakeGen

/** End-to-end DIALITE: discover → align & integrate → analyze, over the
  * synthetic lake, plus the DuckDB-oracle reintegration check on the
  * TPC-H-lite fragments.
  */
class DialitePipelineSpec extends SparkSpec {

  // sf=0.004 keeps the TPC-H fragment closure (quadratic in the orders
  // fan-out on low-cardinality attributes) inside unit-test budgets;
  // the benches run the same experiment at SF=0.1.
  private lazy val gen = LakeGen.generate(spark, sf = 0.004, seed = 7)
  private lazy val dialite = new Dialite(
    spark, gen.lake,
    Seq(new Santos(gen.lake, gen.kb), new LshEnsemble(spark, gen.lake)))

  test("discovery stage returns an integration set containing the query") {
    val q = gen.lake.table("cases_p0")
    val set = dialite.discover(q, Some(q.columns(0)), k = 5, queryName = "Q")
    assert(set.head._1 == "Q")
    assert(set.size > 1)
  }

  test("the integration sets of all discoverers are persisted as a set") {
    val q = gen.lake.table("cases_p0")
    val set = dialite.discover(q, Some(q.columns(0)), k = 5)
    val names = set.map(_._1)
    assert(names.distinct == names) // union, no duplicates
    // A query that is itself a lake table finds itself; it is listed once.
    val named = dialite.discover(q, Some(q.columns(0)), k = 5, queryName = "cases_p0").map(_._1)
    assert(named.distinct == named)
  }

  test("pipeline integrates discovered tables with ALITE FD") {
    val q = gen.lake.table("cases_p0")
    val it = dialite.pipeline(q, Some(q.columns(0)), k = 3)
    assert(it.asTable.count() >= q.count())
    // The query's own facts survive integration.
    val cities = q.collect().flatMap(r => Option(r.getString(0)).map(_.trim)).filter(_.nonEmpty).toSet
    val cityIid = it.alignment.iidOf(ColumnKey("query", 0))
    val integrated = it.tuples.select(col("vals").getItem(cityIid)).collect()
      .flatMap(r => Option(r.getString(0))).toSet
    assert(cities.nonEmpty && cities.subsetOf(integrated), cities.diff(integrated))
  }

  test("unknown integrator names are rejected") {
    val q = gen.lake.table("cases_p0")
    intercept[IllegalArgumentException] {
      dialite.integrate(Seq("Q" -> q), operator = "does-not-exist")
    }
  }

  test("user-defined discovery (Fig 4) plugs into the pipeline") {
    val d = new Dialite(spark, gen.lake,
      Seq(new SimilarityDiscoverer("fig4", gen.lake, InnerJoinRatio)))
    val q = gen.lake.table("cust_keys")
    val set = d.discover(q, None, k = 3)
    assert(set.size > 1)
  }

  test("oracle: FD reintegration of TPC-H fragments equals the DuckDB join chain") {
    val tables = Seq(
      "cust_keys" -> gen.lake.table("cust_keys"),
      "cust_seg" -> gen.lake.table("cust_seg"),
      "orders_cust" -> gen.lake.table("orders_cust"))
    val it = dialite.integrate(tables)
    assert(it.columnNames.toSet ==
      Set("custkey", "nationkey", "acctbal", "mktsegment", "orderkey", "totalprice"))
    val sparkDf = it.asTable.select(
      col("custkey"), col("nationkey"), col("acctbal"),
      col("mktsegment"), col("orderkey"), col("totalprice"))
    Oracle.assertEquivalent(
      sparkDf,
      """SELECT custkey, nationkey, acctbal, mktsegment, orderkey, totalprice
        |FROM cust_keys
        |FULL JOIN cust_seg USING (custkey)
        |FULL JOIN orders_cust USING (custkey)""".stripMargin,
      "cust_keys" -> gen.lake.table("cust_keys"),
      "cust_seg" -> gen.lake.table("cust_seg"),
      "orders_cust" -> gen.lake.table("orders_cust"),
    )
  }

  test("FD output dominates the outer-join output on the vaccine fragments") {
    val frags = Seq("vac_frag0_a", "vac_frag0_c", "vac_frag0_b")
      .map(n => n -> gen.lake.table(n))
    val fd = dialite.integrate(frags, "alite-fd").asTable
    val oj = dialite.integrate(frags, "outer-join").asTable
    def completeRows(df: org.apache.spark.sql.DataFrame) =
      df.collect().count(r => (1 until df.columns.length).forall(!r.isNullAt(_)))
    assert(completeRows(fd) >= completeRows(oj))
  }

  test("analysis runs over an integrated lake table") {
    val q = gen.lake.table("cases_p0")
    val it = dialite.integrate(Seq("Q" -> q))
    val d = repro.analyze.Analytics.describe(it.asTable, Seq(it.columnNames(2)))
    assert(d.collect().head.getDouble(1) > 0) // parsed some case counts
  }
}

package repro.bench

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

import repro.{SparkSpec, SynthData}
import repro.core._

/** §1/§2 claim: ALITE is correct and faster than the FD baselines [2, 10]
  * on lake-scale inputs. TPC-H-lite customer/orders fragments (key–FK,
  * γ-acyclic, so every algorithm must agree) swept over scale factors.
  *
  * Algorithms:
  *   - alite-spark   — `FullDisjunction` (this repo's ALITE)
  *   - parafd-spark  — binary-FD fold [10]
  *   - fd-indexed    — sequential closure with inverted index (driver)
  *   - fd-nloj       — sequential nested-loop closure, the [2]-style
  *                     baseline (quadratic; only run at small SF)
  */
class IntegrationScaleBench extends SparkSpec {

  private def fragments(sf: Double): Seq[(String, DataFrame)] = {
    val cust = SynthData.customer(spark, sf)
    val ords = SynthData.orders(spark, sf)
    Seq(
      "cust_bal" -> cust.select(
        col("c_custkey").cast("string").as("custkey"),
        col("c_acctbal").cast("string").as("acctbal")),
      "cust_contact" -> cust.select(
        col("c_custkey").cast("string").as("custkey"),
        concat(lit("PH-"), (col("c_custkey") * 7919L).cast("string")).as("phone")),
      "orders" -> ords.select(
        col("o_orderkey").cast("string").as("orderkey"),
        col("o_custkey").cast("string").as("custkey"),
        col("o_totalprice").cast("string").as("totalprice")),
    )
  }

  /** Ground-truth row count: the γ-acyclic FD equals the USING-chain of
    * full outer joins.
    */
  private def oracleCount(tables: Seq[(String, DataFrame)]): Long = {
    val Seq(a, b, o) = tables.map(_._2)
    a.join(b, Seq("custkey"), "full_outer")
      .join(o, Seq("custkey"), "full_outer")
      .count()
  }

  test("ALITE vs FD baselines across scale factors (TPC-H-lite fragments)") {
    BenchUtil.header("FD runtime sweep (local[*], seconds)")
    BenchUtil.row("sf", "tuples", "algorithm", "seconds", "rows", "rows==oracle")

    for (sf <- Seq(0.002, 0.005, 0.01, 0.02)) {
      val tables = fragments(sf)
      val alignment = new HolisticMatcher().align(tables)
      val t0 = AlignedTuples.build(tables, alignment).localCheckpoint()
      val nTuples = t0.count()
      val expected = oracleCount(tables)

      val (aliteRows, tAlite) = BenchUtil.timed(
        FullDisjunction.integrateAligned(t0, tables.size).count())
      BenchUtil.row(sf, nTuples, "alite-spark", f"$tAlite%.1f", aliteRows, aliteRows == expected)

      val (paraRows, tPara) = BenchUtil.timed(
        ParaFD.integrate(tables).tuples.count())
      BenchUtil.row(sf, nTuples, "parafd-spark", f"$tPara%.1f", paraRows, paraRows == expected)

      val local = FdFixtures.fromDf(t0).toVector
      val (idxRows, tIdx) = BenchUtil.timed(NaiveFD.iterative(local).size.toLong)
      BenchUtil.row(sf, nTuples, "fd-indexed", f"$tIdx%.1f", idxRows, idxRows == expected)

      if (nTuples <= 12000) {
        val (scanRows, tScan) = BenchUtil.timed(NaiveFD.iterativeScan(local).size.toLong)
        BenchUtil.row(sf, nTuples, "fd-nloj", f"$tScan%.1f", scanRows, scanRows == expected)
        if (sf == 0.005) {
          // the paper's shape: ALITE beats the tuple-at-a-time NLOJ baseline
          assert(tAlite < tScan,
            f"alite $tAlite%.1f s should beat fd-nloj $tScan%.1f s at sf=$sf")
        }
      }

      assert(aliteRows == expected, s"alite rows $aliteRows != oracle $expected")
      assert(paraRows == expected, s"parafd rows $paraRows != oracle $expected")
      assert(idxRows == expected, s"fd-indexed rows $idxRows != oracle $expected")
    }
    println("paper (shape): ALITE correct everywhere and faster than the [2]-style baseline")
  }

  test("outer join loses connections that FD keeps (produced-null census)") {
    val tables = fragments(0.01)
    val fd = FullDisjunction.integrate(tables)
    val oj = OuterJoinIntegration.integrate(tables)
    def nullCells(it: IntegratedTable): Long =
      it.asTable.collect().map(r => (1 until r.length).count(r.isNullAt)).sum
    val (fdRows, ojRows) = (fd.asTable.count(), oj.asTable.count())
    BenchUtil.header("FD vs outer join (sf=0.01 fragments)")
    BenchUtil.row("operator", "rows", "null cells")
    BenchUtil.row("alite-fd", fdRows, nullCells(fd))
    BenchUtil.row("outer-join", ojRows, nullCells(oj))
    // On this key–FK chain the fold is lossless, so the counts agree;
    // Fig 8(a) (OuterJoinIntegrationSpec) and ErDownstreamBench show where
    // outer join loses facts.
    assert(fdRows <= ojRows)
  }
}

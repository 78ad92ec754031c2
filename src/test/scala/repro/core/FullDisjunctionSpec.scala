package repro.core

import repro.SparkSpec
import repro.demo.PaperTables

/** ALITE FD on Spark: the paper's figures, exactly. */
class FullDisjunctionSpec extends SparkSpec {

  private def rendered6(it: IntegratedTable) =
    it.rendered.collect().map(r =>
      (r.getString(0), r.getString(1), r.getString(2), r.getString(3),
       r.getString(4), r.getString(5))).toSet

  private def rendered4(it: IntegratedTable) =
    it.rendered.collect().map(r =>
      (r.getString(0), r.getString(1), r.getString(2), r.getString(3))).toSet

  test("Fig 3: FD(T1,T2,T3) — 7 tuples with exact TID sets and null kinds") {
    val it = FullDisjunction.integrate(PaperTables.fig2(spark))
    assert(it.columnNames == Vector("Country", "City", "Vaccination Rate (1+ dose)",
      "Total Cases", "Death Rate (per 100k residents)"))
    assert(rendered6(it) == PaperTables.fig3Expected)
  }

  test("Fig 8(b): FD(T4,T5,T6) — 3 tuples, J&J→FDA fact recovered") {
    val it = FullDisjunction.integrate(PaperTables.fig7(spark))
    assert(it.columnNames == Vector("Vaccine", "Approver", "Country"))
    assert(rendered4(it) == PaperTables.fig8bExpected)
  }

  test("Fig 8(b): FD recovers the J&J approver that outer join loses") {
    val fd = FullDisjunction.integrate(PaperTables.fig7(spark))
    val rows = fd.asTable.collect()
    assert(rows.exists(r => r.getString(1) == "J&J" && r.getString(2) == "FDA"))
  }

  test("FD of a single table removes exact duplicates and subsumed rows only") {
    val df = PaperTables.t1(spark)
    val it = FullDisjunction.integrate(Seq("T1" -> df))
    assert(it.asTable.count() == 3)
  }

  test("FD is order-insensitive (associative semantics), unlike outer join") {
    // Compare name-keyed row sets: the integration-ID *order* follows table
    // order, but the integrated content must not.
    def content(tables: Seq[(String, org.apache.spark.sql.DataFrame)]) = {
      val it = FullDisjunction.integrate(tables)
      it.rendered.collect().map { r =>
        it.rendered.columns.zipWithIndex.map { case (c, i) => c -> r.getString(i) }.toMap
      }.toSet
    }
    val results = Seq(
      content(PaperTables.fig7(spark)),
      content(PaperTables.fig7(spark).reverse),
      content(PaperTables.fig7(spark).permutations.drop(2).next()),
    )
    assert(results.distinct.size == 1)
  }

  test("missing nulls (±) are distinguished from produced nulls (⊥)") {
    val it = FullDisjunction.integrate(PaperTables.fig2(spark))
    val mexico = it.rendered.collect().find(_.getString(2) == "Mexico City").get
    assert(mexico.getString(3) == "±") // vax rate column exists in T2, value missing
    assert(mexico.getString(4) == "⊥") // total cases never covered for t5
  }

  test("matches the brute-force reference on the paper's Fig 2 instance") {
    val alignment = new HolisticMatcher().align(PaperTables.fig2(spark))
    val t0 = AlignedTuples.build(PaperTables.fig2(spark), alignment)
    val local = FdFixtures.fromDf(t0).toSeq
    val expected = FdFixtures.canon(NaiveFD.bruteForce(local))
    val got = FdFixtures.canon(FdFixtures.fromDf(
      FullDisjunction.integrateAligned(t0, FdFixtures.tableCount(local))))
    assert(got == expected)
  }

  test("empty-intersection tables: FD degrades to the outer union") {
    val a = FdFixtures.toDf(spark, Seq(
      LocalTuple(Vector(Some("x"), None), 1L, Set("A"), Set("a1")),
      LocalTuple(Vector(None, Some("y")), 2L, Set("B"), Set("b1")),
    ))
    val out = FdFixtures.fromDf(FullDisjunction.integrateAligned(a, 2))
    assert(out.map(_.tids) == Set(Set("a1"), Set("b1")))
  }

  test("chain instance: transitive facts assemble across 4 tables") {
    val in = Seq(
      LocalTuple(Vector(Some("1"), Some("a"), None, None, None), 0x3, Set("T0"), Set("x0")),
      LocalTuple(Vector(None, Some("a"), Some("b"), None, None), 0x6, Set("T1"), Set("x1")),
      LocalTuple(Vector(None, None, Some("b"), Some("c"), None), 0xc, Set("T2"), Set("x2")),
      LocalTuple(Vector(None, None, None, Some("c"), Some("d")), 0x18, Set("T3"), Set("x3")),
    )
    // 4 tables: the full chain needs all n−1 = 3 rounds.
    val out = FdFixtures.fromDf(
      FullDisjunction.integrateAligned(FdFixtures.toDf(spark, in), FdFixtures.tableCount(in)))
    assert(FdFixtures.canon(out) == FdFixtures.canon(NaiveFD.bruteForce(in)))
    assert(out.map(_.tids) == Set(Set("x0", "x1", "x2", "x3")))
    assert(out.head.vals == Vector(Some("1"), Some("a"), Some("b"), Some("c"), Some("d")))
  }

  test("combineRound emits a pair sharing two values once, before any dedup") {
    val a = FdFixtures.toDf(spark, Seq(
      LocalTuple(Vector(Some("k"), Some("v"), Some("x")), 7L, Set("A"), Set("a1"))))
    val b = FdFixtures.toDf(spark, Seq(
      LocalTuple(Vector(Some("k"), Some("v"), None), 3L, Set("B"), Set("b1"))))
    val pairs = FullDisjunction.combineRound(a, b).collect()
    assert(pairs.length == 1)
    val p = pairs.head
    assert(p.getSeq[String](p.fieldIndex(AlignedTuples.ValsCol)) == Seq("k", "v", "x"))
    assert(p.getSeq[String](p.fieldIndex(AlignedTuples.TidsCol)) == Seq("a1", "b1"))
  }

  test("integrateAligned rejects a table count below 1") {
    val a = FdFixtures.toDf(spark, Seq(LocalTuple(Vector(Some("x")), 1L, Set("A"), Set("a1"))))
    val e = intercept[IllegalArgumentException](FullDisjunction.integrateAligned(a, 0))
    assert(e.getMessage.contains("table count must be at least 1, got 0"))
  }

  test("values containing separator characters do not collide") {
    // Joined with \u0001 and null as \u0000, both tuples would read
    // "a\u0001b\u0001\u0000"; they share no value, so FD keeps both.
    val in = Seq(
      LocalTuple(Vector(Some("a\u0001b"), None), 1L, Set("A"), Set("a1")),
      LocalTuple(Vector(Some("a"), Some("b\u0001\u0000")), 3L, Set("B"), Set("b1")),
    )
    val out = FdFixtures.fromDf(
      FullDisjunction.integrateAligned(FdFixtures.toDf(spark, in), 2))
    assert(out.size == 2)
    assert(FdFixtures.canon(out) == FdFixtures.canon(NaiveFD.bruteForce(in)))
  }

  test("closure does not multiply provenance: TID sets stay maximal") {
    val it = FullDisjunction.integrate(PaperTables.fig7(spark))
    val f12 = it.asTable.collect().find(_.getString(1) == "JnJ").get
    assert(f12.getSeq[String](f12.fieldIndex("TIDs")).toSet == Set("t12", "t14", "t16"))
  }
}

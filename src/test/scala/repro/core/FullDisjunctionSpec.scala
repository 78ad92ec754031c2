package repro.core

import java.util.concurrent.atomic.{AtomicInteger, AtomicLong}

import org.apache.spark.ListenerBusWait
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}
import org.apache.spark.sql.execution.adaptive.AdaptiveSparkPlanHelper

import repro.SparkSpec
import repro.demo.PaperTables

/** ALITE FD on Spark: the paper's figures, exactly. */
class FullDisjunctionSpec extends SparkSpec with AdaptiveSparkPlanHelper {

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
    val perTable = AlignedTuples.perTable(PaperTables.fig2(spark), alignment)
    val local = perTable.flatMap(FdFixtures.fromDf)
    val expected = FdFixtures.canon(NaiveFD.bruteForce(local))
    val got = FdFixtures.canon(FdFixtures.fromDf(FullDisjunction.integrateAligned(perTable)))
    assert(got == expected)
  }

  test("empty-intersection tables: FD degrades to the outer union") {
    val in = Seq(
      LocalTuple(Vector(Some("x"), None), 1L, Set("A"), Set("a1")),
      LocalTuple(Vector(None, Some("y")), 2L, Set("B"), Set("b1")),
    )
    val out = FdFixtures.fromDf(FullDisjunction.integrateAligned(FdFixtures.byTable(spark, in)))
    assert(out.map(_.tids) == Set(Set("a1"), Set("b1")))
  }

  test("chain instance: transitive facts assemble across 4 tables") {
    val in = Seq(
      LocalTuple(Vector(Some("1"), Some("a"), None, None, None), 0x3, Set("T0"), Set("x0")),
      LocalTuple(Vector(None, Some("a"), Some("b"), None, None), 0x6, Set("T1"), Set("x1")),
      LocalTuple(Vector(None, None, Some("b"), Some("c"), None), 0xc, Set("T2"), Set("x2")),
      LocalTuple(Vector(None, None, None, Some("c"), Some("d")), 0x18, Set("T3"), Set("x3")),
    )
    // 4 tables: the full chain grows from x0 through three extensions.
    val out = FdFixtures.fromDf(FullDisjunction.integrateAligned(FdFixtures.byTable(spark, in)))
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

  test("integrateAligned rejects an empty table list") {
    val e = intercept[IllegalArgumentException](FullDisjunction.integrateAligned(Nil))
    assert(e.getMessage.contains("integrateAligned needs the tuples of at least one table"))
  }

  test("values containing separator characters do not collide") {
    // Joined with \u0001 and null as \u0000, both tuples would read
    // "a\u0001b\u0001\u0000"; they share no value, so FD keeps both.
    val in = Seq(
      LocalTuple(Vector(Some("a\u0001b"), None), 1L, Set("A"), Set("a1")),
      LocalTuple(Vector(Some("a"), Some("b\u0001\u0000")), 3L, Set("B"), Set("b1")),
    )
    val out = FdFixtures.fromDf(FullDisjunction.integrateAligned(FdFixtures.byTable(spark, in)))
    assert(out.size == 2)
    assert(FdFixtures.canon(out) == FdFixtures.canon(NaiveFD.bruteForce(in)))
  }

  test("closure does not multiply provenance: TID sets stay maximal") {
    val it = FullDisjunction.integrate(PaperTables.fig7(spark))
    val f12 = it.asTable.collect().find(_.getString(1) == "JnJ").get
    assert(f12.getSeq[String](f12.fieldIndex("TIDs")).toSet == Set("t12", "t14", "t16"))
  }

  test("value-identical maximal sets merge into the union of their TIDs") {
    // a1 and a2 are identical rows of A and b1 joins both: {a1, b1} and
    // {a2, b1} are two maximal sets with the same values, so one row.
    val in = Seq(
      LocalTuple(Vector(Some("x"), Some("1"), None), 3L, Set("A"), Set("a1")),
      LocalTuple(Vector(Some("x"), Some("1"), None), 3L, Set("A"), Set("a2")),
      LocalTuple(Vector(Some("x"), None, Some("2")), 5L, Set("B"), Set("b1")),
    )
    val expected = Set((Vector(Some("x"), Some("1"), Some("2")), Set("a1", "a2", "b1"), 7L))
    assert(FdFixtures.canon(NaiveFD.bruteForce(in)) == expected)
    assert(FdFixtures.canon(NaiveFD.iterative(in)) == expected)
    assert(FdFixtures.canon(FdFixtures.fromDf(
      FullDisjunction.integrateAligned(FdFixtures.byTable(spark, in)))) == expected)
  }

  test("the raw closure builds every valid set exactly once") {
    val fig2 = AlignedTuples.perTable(PaperTables.fig2(spark),
      new HolisticMatcher().align(PaperTables.fig2(spark)))
    val random = (1 to 12).map(seed => FdFixtures.randomInstance(seed * 7919L))
      .filter(_.nonEmpty).map(FdFixtures.byTable(spark, _))
    for (perTable <- fig2 +: random) {
      val in = perTable.flatMap(FdFixtures.fromDf).toVector
      val out = FullDisjunction.closure(perTable).values.collect()
      assert(out.map(_.tids).distinct.length == out.length, in.mkString("\n"))
      assert(out.length == FdFixtures.validSets(in).size, in.mkString("\n"))
    }
  }

  test("an FD result over tables without a TID column reads the same twice") {
    import spark.implicits._
    val tables = Seq(
      "ck" -> Seq(("1", "n1"), ("2", "n2"), ("3", "n3")).toDF("custkey", "nationkey"),
      "oc" -> Seq(("o1", "1"), ("o2", "1"), ("o3", "3")).toDF("orderkey", "custkey"),
    )
    val it = FullDisjunction.integrate(tables)
    val first = FdFixtures.fromDf(it.tuples)
    assert(FdFixtures.fromDf(it.tuples) == first)
    val rendered = it.rendered.collect().map { r =>
      (r.getString(0), (1 until r.length).toVector.map(i => Option(r.getString(i)).filterNot(Set("±", "⊥"))))
    }.toSet
    assert(rendered == first.map(t => (t.tids.toSeq.sorted.mkString(","), t.vals)))
    assert(first.flatMap(_.tids).forall(tid => tid.startsWith("ck#") || tid.startsWith("oc#")))
    assert(first.size == 4)
  }

  /** `body`'s result, and the jobs run and shuffle records written while
    * it runs.
    */
  private def jobsAndShuffleRecords[A](body: => A): (A, Int, Long) = {
    val (jobs, records) = (new AtomicInteger, new AtomicLong)
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()
      override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
        Option(e.taskMetrics).foreach(m => records.addAndGet(m.shuffleWriteMetrics.recordsWritten))
    }
    val sc = spark.sparkContext
    sc.addSparkListener(listener)
    val result = try { val r = body; ListenerBusWait(sc); r } finally sc.removeSparkListener(listener)
    (result, jobs.get, records.get)
  }

  test("one read of an FD result is one job that grows every set once") {
    val fig2 = AlignedTuples.perTable(PaperTables.fig2(spark),
      new HolisticMatcher().align(PaperTables.fig2(spark)))
    val random = FdFixtures.byTable(spark, FdFixtures.randomInstance(4242L))
    for (perTable <- Seq(fig2, random)) {
      val in = perTable.flatMap(FdFixtures.fromDf).toVector
      assert(FullDisjunction.closure(perTable).getNumPartitions >= 2, "the seeds span several slices")
      val fd = FullDisjunction.integrateAligned(perTable)
      val (rows, jobs, records) = jobsAndShuffleRecords(FdFixtures.fromDf(fd))
      assert(jobs == 1)
      // Each grown set is written to the shuffle once, so each seed grew once.
      assert(records == FdFixtures.validSets(in).size)
      assert(collectLeaves(fd.queryExecution.executedPlan).count(_.nodeName == "Scan ExistingRDD") == 1)
      assert(FdFixtures.canon(rows) == FdFixtures.canon(NaiveFD.bruteForce(in)))
    }
  }

  test("value merge and subsumption across tasks and components equal brute force") {
    def t(tab: String, tid: String, vs: Option[String]*) =
      LocalTuple(vs.toVector, vs.indices.map(1L << _).sum, Set(tab), Set(tid))
    val (x, n) = (Some(_: String), None)
    // Orders {o1}, {o2}, {o3} are seeds 3–5, their dominators {c1, o1} and
    // {c3, o2}, {c3, o3} grow from seeds 0 and 2. o4 joins c2 by key and o1
    // by price, so the one component joins two earlier ones.
    val dominated = Seq(
      t("C", "c1", x("1"), x("n1"), n), t("C", "c2", x("2"), x("n2"), n), t("C", "c3", x("3"), x("n1"), n),
      t("O", "o1", x("1"), n, x("p1")), t("O", "o2", x("3"), n, x("p2")), t("O", "o3", x("3"), n, x("p3")),
      t("O", "o4", x("2"), n, x("p1")))
    // (k, 1, 2) from seeds 0, 1 and 2, which share no table with each other.
    def identical(e: String) = Seq(
      t("A", s"a1$e", x(s"k$e"), x(s"1$e"), n), t("A", s"a2$e", n, x(s"1$e"), x(s"2$e")),
      t("A", s"a3$e", x(s"k$e"), x(s"1$e"), x(s"2$e")), t("B", s"b1$e", x(s"k$e"), n, x(s"2$e")))
    // Four components, each with both patterns; a table's tuples stay together.
    val several = Seq("A", "B").flatMap(tab => (0 until 4).flatMap(e => identical(s"_$e").filter(_.tabs(tab))))
    // (instance, components, a set dominated only from other tasks, every
    // output merged from several tasks)
    for ((in, components, dominatedAcross, mergedAcross) <- Seq(
        (dominated, 1, true, false), (identical(""), 1, true, true), (several, 4, false, true))) {
      val perTable = FdFixtures.byTable(spark, in)
      val seedOf = perTable.flatMap(_.collect().map(LocalTuple.fromRow)).map(_.tids.head).zipWithIndex.toMap
      val keyed = FullDisjunction.closure(perTable)
      val sets = keyed.collect().toVector
      val slice = (s: LocalTuple) => s.tids.map(seedOf).min % keyed.getNumPartitions
      def dominates(u: LocalTuple, d: LocalTuple) = u.nonNullCount > d.nonNullCount &&
        d.vals.indices.forall(j => d.vals(j).isEmpty || d.vals(j) == u.vals(j))
      val expected = NaiveFD.bruteForce(in)
      // Sets sharing a (position, value) share a key: every merge and
      // subsumption stays inside one group.
      for ((k1, s1) <- sets; (k2, s2) <- sets if NaiveFD.connected(s1, s2)) assert(k1 == k2)
      assert(sets.map(_._1).distinct.size == components)
      if (dominatedAcross) assert(sets.exists { case (_, d) =>
        val us = sets.map(_._2).filter(dominates(_, d))
        us.nonEmpty && us.forall(slice(_) != slice(d))
      }, "some set is dominated only from other tasks")
      if (mergedAcross) assert(expected.forall(e =>
        sets.map(_._2).filter(_.vals == e.vals).map(slice).distinct.size >= 2),
        "every output merges sets grown in several tasks")
      val got = FdFixtures.fromDf(FullDisjunction.integrateAligned(perTable))
      assert(FdFixtures.canon(got) == FdFixtures.canon(expected), in.mkString("\n"))
    }
  }
}

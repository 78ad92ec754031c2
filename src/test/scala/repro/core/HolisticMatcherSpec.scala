package repro.core

import repro.SparkSpec
import repro.demo.PaperTables

/** Holistic schema matching: integration IDs over whole integration sets. */
class HolisticMatcherSpec extends SparkSpec {

  private val matcher = new HolisticMatcher()

  test("Fig 2 aligns to 5 integration IDs with the paper's headers") {
    val a = matcher.align(PaperTables.fig2(spark))
    assert(a.names == Vector("Country", "City", "Vaccination Rate (1+ dose)",
      "Total Cases", "Death Rate (per 100k residents)"))
  }

  test("Fig 2: the three City columns share one integration ID") {
    val a = matcher.align(PaperTables.fig2(spark))
    val cityIids = Set(
      a.iidOf(ColumnKey("T1", 2)), a.iidOf(ColumnKey("T2", 2)), a.iidOf(ColumnKey("T3", 1)))
    assert(cityIids.size == 1)
  }

  test("Fig 7 aligns to 3 integration IDs (Vaccine, Approver, Country)") {
    val a = matcher.align(PaperTables.fig7(spark))
    assert(a.names == Vector("Vaccine", "Approver", "Country"))
  }

  test("TID columns are excluded from matching") {
    val a = matcher.align(PaperTables.fig2(spark))
    assert(!a.iidOf.contains(ColumnKey("T1", 0)))
    assert(a.iidOf.contains(ColumnKey("T1", 1)))
  }

  test("dummy headers are matched through value overlap") {
    import spark.implicits._
    val a = Seq(("Berlin", "x"), ("Boston", "y"), ("Toronto", "z")).toDF("City", "Extra")
    val b = Seq(("Berlin", "1"), ("Boston", "2"), ("Toronto", "3")).toDF("col0", "col1")
    val al = matcher.align(Seq("A" -> a, "B" -> b))
    assert(al.iidOf(ColumnKey("A", 0)) == al.iidOf(ColumnKey("B", 0)))
    assert(al.iidOf(ColumnKey("A", 1)) != al.iidOf(ColumnKey("B", 1)))
  }

  test("two columns of the same table never share an integration ID") {
    import spark.implicits._
    // Both columns of A overlap with B's single column; the constraint must
    // keep A's columns apart.
    val a = Seq(("x", "y"), ("y", "x")).toDF("left", "right")
    val b = Seq(("x", "x"), ("y", "y")).toDF("left", "right")
    val al = matcher.align(Seq("A" -> a, "B" -> b))
    assert(al.iidOf(ColumnKey("A", 0)) != al.iidOf(ColumnKey("A", 1)))
    assert(al.iidOf(ColumnKey("B", 0)) != al.iidOf(ColumnKey("B", 1)))
  }

  test("coverage masks reflect per-table columns") {
    val a = matcher.align(PaperTables.fig7(spark))
    val v = a.iidOf(ColumnKey("T4", 1)) // Vaccine
    val ap = a.iidOf(ColumnKey("T4", 2)) // Approver
    assert((a.coverage("T4") & (1L << v)) != 0)
    assert((a.coverage("T4") & (1L << ap)) != 0)
    assert(a.coverage("T4") == ((1L << v) | (1L << ap)))
  }

  test("disjoint tables get disjoint integration IDs") {
    import spark.implicits._
    val a = Seq(("1", "2")).toDF("alpha", "beta")
    val b = Seq(("x9", "y9")).toDF("gamma", "delta")
    val al = matcher.align(Seq("A" -> a, "B" -> b))
    assert(al.numIids == 4)
  }

  test("display names stay unique (DataFrame column name invariant)") {
    val al = matcher.align(PaperTables.fig2(spark) ++ PaperTables.fig7(spark))
    assert(al.names.distinct.size == al.names.size)
  }

  test("deterministic across repeated runs") {
    val a1 = matcher.align(PaperTables.fig2(spark))
    val a2 = matcher.align(PaperTables.fig2(spark))
    assert(a1 == a2)
  }

  test("a column without values keeps its own integration ID") {
    import spark.implicits._
    val a = Seq(("Berlin", null: String, "1"), ("Boston", null, "2")).toDF("City", "Notes", "n")
    val b = Seq(("Berlin", " ", ""), ("Toronto", "", "")).toDF("City", "Remarks", "Blank")
    val al = matcher.align(Seq("A" -> a, "B" -> b))
    assert(al.iidOf.size == 6 && al.numIids == 5)
    assert(al.iidOf(ColumnKey("A", 0)) == al.iidOf(ColumnKey("B", 0)))
    val empty = Seq(ColumnKey("A", 1), ColumnKey("B", 1), ColumnKey("B", 2)).map(al.iidOf)
    assert(empty.distinct.size == 3)
    val rows = AlignedTuples.build(Seq("A" -> a, "B" -> b), al).collect()
    assert(rows.length == 4)
    assert(rows.forall(r => empty.forall(r.getSeq[String](0)(_) == null)))
  }

  test("integer columns split over different partition counts share their sample") {
    import spark.implicits._
    // 3,000 shared distinct values: far more than the sample, so only a
    // consistent sample of both columns shows the overlap.
    val vals = (0 until 3000).map(_.toString)
    val a = vals.toDF("col0").repartition(3)
    val b = vals.reverse.toDF("col1").repartition(7)
    val al = matcher.align(Seq("A" -> a, "B" -> b))
    assert(al.numIids == 1)
    assert(al.iidOf(ColumnKey("A", 0)) == al.iidOf(ColumnKey("B", 0)))
    assert(matcher.align(Seq("A" -> a, "B" -> b)) == al)
  }
}

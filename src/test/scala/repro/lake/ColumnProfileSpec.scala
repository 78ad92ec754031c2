package repro.lake

import org.apache.spark.sql.functions._

import repro.SparkSpec
import repro.demo.PaperTables

class ColumnProfileSpec extends SparkSpec {

  import spark.implicits._

  private def sigOf(sigs: Array[org.apache.spark.sql.Row], table: String): Vector[Long] =
    sigs.find(_.getAs[String]("table") == table).map(r => r.getSeq[Long](r.fieldIndex("sig")).toVector).get

  test("melt emits one row per distinct (column, value)") {
    val df = Seq(("a", "x"), ("a", "y"), ("b", "x")).toDF("c1", "c2")
    val m = ColumnProfile.melt("t", df).collect()
    val c1 = m.filter(_.getAs[Int]("colIdx") == 0).map(_.getAs[String]("value")).toSet
    val c2 = m.filter(_.getAs[Int]("colIdx") == 1).map(_.getAs[String]("value")).toSet
    assert(c1 == Set("a", "b") && c2 == Set("x", "y"))
    assert(m.length == 4)
  }

  test("melt drops nulls and empty strings") {
    val df = Seq(("a", null), ("", "y")).toDF("c1", "c2")
    val m = ColumnProfile.melt("t", df).collect()
    assert(m.map(_.getAs[String]("value")).toSet == Set("a", "y"))
  }

  test("signatures carry exact distinct counts") {
    val df = Seq.tabulate(100)(i => (s"v${i % 40}", s"w$i")).toDF("c1", "c2")
    val sigs = ColumnProfile.of(Seq(("t", df))).collect()
    val bySize = sigs.map(r => r.getAs[Int]("colIdx") -> r.getAs[Long]("size")).toMap
    assert(bySize == Map(0 -> 40L, 1 -> 100L))
  }

  test("identical value sets produce identical signatures") {
    val a = Seq("x", "y", "z").toDF("c")
    val b = Seq("z", "y", "x", "x").toDF("d")
    val sigs = ColumnProfile.of(Seq(("a", a), ("b", b))).collect()
    assert(sigOf(sigs, "a") == sigOf(sigs, "b"))
  }

  test("jaccard estimate tracks true overlap within tolerance") {
    val n = 500
    val a = (0 until n).map(i => s"v$i").toDF("c")
    val b = (n / 2 until n + n / 2).map(i => s"v$i").toDF("c") // true J = 1/3
    val sigs = ColumnProfile.of(Seq(("a", a), ("b", b))).collect()
    val est = sigOf(sigs, "a").zip(sigOf(sigs, "b")).count { case (x, y) => x == y }.toDouble /
      ColumnProfile.NumPerms
    assert(math.abs(est - 1.0 / 3.0) < 0.15, s"estimate $est too far from 1/3")
  }

  test("disjoint sets estimate ~zero similarity") {
    val a = (0 until 200).map(i => s"a$i").toDF("c")
    val b = (0 until 200).map(i => s"b$i").toDF("c")
    val sigs = ColumnProfile.of(Seq(("a", a), ("b", b))).collect()
    val est = sigOf(sigs, "a").zip(sigOf(sigs, "b")).count { case (x, y) => x == y }.toDouble /
      ColumnProfile.NumPerms
    assert(est < 0.1)
  }

  test("sample is the bottom-k of the distinct values by hash, in hash order") {
    val n = 2500
    val df = (0 until n).flatMap(i => Seq(s" v$i", s"v$i ")).toDF("c") // trims to n values
    val prof = ColumnProfile.of(Seq(("t", df)))
      .select(col("sample"), transform(col("sample"), v => xxhash64(v)).as("h")).collect().head
    val sample = prof.getSeq[String](0)
    val hashes = prof.getSeq[Long](1)
    assert(sample.size == ColumnProfile.SampleSize && sample.distinct == sample)
    assert(hashes == hashes.sorted)
    val all = (0 until n).map(i => s"v$i").toDF("v")
      .select(xxhash64(col("v"))).as[Long].collect().sorted
    assert(hashes == all.take(ColumnProfile.SampleSize).toSeq)
  }

  test("TID columns are not profiled; data columns keep their position") {
    val prof = ColumnProfile.of(PaperTables.fig2(spark))
      .select(col("table"), col("colIdx"), col("colName")).collect()
      .map(r => (r.getString(0), r.getInt(1), r.getString(2)))
    assert(!prof.exists(_._3 == "TID"), prof.toSeq)
    assert(prof.filter(_._1 == "T1").map(p => (p._2, p._3)).toSet ==
      Set((1, "Country"), (2, "City"), (3, "Vaccination Rate (1+ dose)")))
    assert(prof.length == 3 + 3 + 3)
  }
}

package dlbench

import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.Oracle
import repro.core.{IntegratedTable, LocalTuple, NaiveFD}
import repro.lake.{DataLake, InMemoryLake, LakeGen}

/** A generated lake plus what the benchmark needs to query it and to check
  * the answer: the SANTOS knowledge base and the generator's ground truth
  * for the query (every table a perfect discoverer may return).
  */
final case class GeneratedLake(lake: InMemoryLake, kb: Map[String, String],
                               relevant: Set[String])

/** One benchmark workload: a lake made from the seed, one query over it, and
  * the oracle that decides whether a query's answer is right.
  *
  * `expectedSet` is the size of the integration set after the harness drops
  * the duplicate query table.
  */
sealed trait Workload {
  def name: String
  def queryTable: String
  def k: Int
  def expectedSet: Int
  def generate(spark: SparkSession, seed: Long): GeneratedLake
  def queryColumn(query: DataFrame): String = query.columns(0)

  /** Prepares the oracle for one integration set (once per run, outside
    * every timed region) and returns the per-query check, which lists the
    * reasons an integrated result is wrong (none when it is right).
    */
  def oracle(lake: DataLake, reference: IntegratedTable, aligned: Seq[LocalTuple]): IntegratedTable => Seq[String]
}

object Workload {

  val all: Seq[Workload] = Seq(CovidLake, TpchJoin)

  def named(name: String): Workload =
    all.find(_.name == name).getOrElse(throw new IllegalArgumentException(
      s"unknown workload '$name'; have ${all.map(_.name).mkString(", ")}"))

  /** FD result as comparable (values, TID set) pairs, one per output row. */
  def fdRows(it: IntegratedTable): Seq[(Vector[Option[String]], Set[String])] =
    it.tuples.collect().toSeq.map { r =>
      (r.getSeq[String](0).toVector.map(Option(_)), r.getSeq[String](3).toSet)
    }.sortBy(_.toString)

  /** Differential check against the sequential `NaiveFD.iterative` on the
    * same aligned tuples.
    */
  def naiveFdCheck(reference: IntegratedTable, aligned: Seq[LocalTuple])
      : IntegratedTable => Seq[String] = {
    val expected = NaiveFD.iterative(aligned).map(t => (t.vals, t.tids)).sortBy(_.toString)
    it => {
      val got = fdRows(it)
      val alignmentErr =
        if (it.alignment == reference.alignment) Nil
        else Seq("alignment differs from the first query's alignment")
      val rowsErr =
        if (got == expected) Nil
        else Seq(s"FD rows differ from NaiveFD.iterative (${got.size} vs ${expected.size} rows; " +
          s"first missing: ${expected.diff(got).take(1)}; first extra: ${got.diff(expected).take(1)})")
      alignmentErr ++ rowsErr
    }
  }

  /** The tables of `LakeGen`'s lake that belong to the given families. */
  def families(g: LakeGen.Generated, keep: String*): InMemoryLake =
    InMemoryLake(g.lake.byName.filter { case (t, _) => keep.contains(g.truth.family(t)) })
}

/** The paper's §3.1 walk-through: a SANTOS-unionable / LSH-joinable COVID
  * lake queried with `cases_p0` on its city column. Many columns and few
  * rows, so it is bound by per-call overhead (one profiling job per column
  * in alignment, one join per integration ID per closure round).
  *
  * `LakeGen`'s seed also draws headers, nulls and city samples, which decide
  * how many integration IDs a set aligns to and so what a query costs (with
  * k=5, 9 to 12 IDs and 50 to 105 closure jobs across seeds). The lake
  * therefore comes from `LakeGen`'s default seed, and the workload seed
  * recodes every integer value through one seeded bijection: equal values
  * stay equal and integers stay integers, so the work has the same shape on
  * every seed while the data differ. The TPC-H-lite and vaccine families are
  * left out to keep set-up inside the run's time budget.
  */
object CovidLake extends Workload {
  val name = "covid-lake"
  val queryTable = "cases_p0"
  val k = 2
  val sf = 0.02
  val expectedSet = 3

  def generate(spark: SparkSession, seed: Long): GeneratedLake = {
    import org.apache.spark.sql.functions.{col, when}
    val g = LakeGen.generate(spark, sf = sf)
    val relevant = g.truth.unionable.getOrElse(queryTable, Set.empty) ++
      g.truth.joinable.getOrElse((queryTable, "City"), Set.empty) + queryTable
    val (scale, shift) = (2 + math.floorMod(seed, 7L), math.floorMod(seed * 7919L, 100003L))
    val recoded = Workload.families(g, "cases", "vax", "noise").byName.map { case (t, df) =>
      t -> df.select(df.columns.map { c =>
        when(col(s"`$c`").rlike("^[0-9]{1,12}$"), (col(s"`$c`").cast("long") * scale + shift).cast("string"))
          .otherwise(col(s"`$c`")).as(c)
      }: _*)
    }
    GeneratedLake(InMemoryLake(recoded), g.kb, relevant)
  }

  def oracle(lake: DataLake, reference: IntegratedTable, aligned: Seq[LocalTuple]): IntegratedTable => Seq[String] =
    Workload.naiveFdCheck(reference, aligned)
}

/** Joinable TPC-H-lite fragments keyed on `custkey`. The closure's
  * per-attribute equi-joins and ER's blocking run on `nationkey` (25 values)
  * and `mktsegment` (5 values), where both become near all-pairs: bound by
  * data volume on low-cardinality attributes.
  */
object TpchJoin extends Workload {
  val name = "tpch-join"
  val queryTable = "cust_keys"
  val k = 3
  val sf = 0.0003
  val expectedSet = 3
  private val fragments = Seq("cust_keys", "cust_seg", "orders_cust")
  private val attrs = Seq("custkey", "nationkey", "acctbal", "mktsegment", "orderkey", "totalprice")

  def generate(spark: SparkSession, seed: Long): GeneratedLake = {
    val g = LakeGen.generate(spark, sf = sf, seed = seed)
    val relevant = g.truth.joinable.getOrElse((queryTable, "custkey"), Set.empty) + queryTable
    GeneratedLake(Workload.families(g, "tpch", "noise"), g.kb, relevant)
  }

  override def queryColumn(query: DataFrame): String = "custkey"

  def oracle(lake: DataLake, reference: IntegratedTable, aligned: Seq[LocalTuple]): IntegratedTable => Seq[String] = {
    import org.apache.spark.sql.functions.col
    it => {
      val names = it.columnNames.toSet
      if (names != attrs.toSet) Seq(s"integrated columns $names, expected ${attrs.toSet}")
      else try {
        Oracle.assertEquivalent(
          it.asTable.select(attrs.map(col): _*),
          s"SELECT ${attrs.mkString(", ")} FROM cust_keys " +
            "FULL JOIN cust_seg USING (custkey) FULL JOIN orders_cust USING (custkey)",
          fragments.map(t => t -> lake.table(t)): _*)
        Nil
      } catch { case e: IllegalArgumentException => Seq(e.getMessage) }
    }
  }
}

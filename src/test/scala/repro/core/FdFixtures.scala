package repro.core

import org.apache.spark.sql.{DataFrame, SparkSession}

import scala.util.Random

/** Shared helpers for FD tests: move tuple sets between the driver-local
  * `LocalTuple` world (NaiveFD, the correctness reference) and the Spark
  * aligned-tuple representation, and generate random FD instances.
  */
object FdFixtures {

  def toDf(spark: SparkSession, tuples: Seq[LocalTuple]): DataFrame =
    spark.createDataFrame(spark.sparkContext.parallelize(tuples.map(_.toRow), 2), AlignedTuples.schema)

  def fromDf(df: DataFrame): Set[LocalTuple] = df.collect().map(LocalTuple.fromRow).toSet

  /** One frame per source table, in first-seen order: the per-table input
    * `integrateAligned` takes. Every tuple comes from one table.
    */
  def byTable(spark: SparkSession, ts: Seq[LocalTuple]): Seq[DataFrame] = {
    require(ts.forall(_.tabs.size == 1), "byTable splits single-table tuples")
    ts.map(_.tabs.head).distinct.map(t => toDf(spark, ts.filter(_.tabs.head == t)))
  }

  /** Comparable view (vals + provenance + null-kind mask). */
  def canon(ts: Iterable[LocalTuple]): Set[(Vector[Option[String]], Set[String], Long)] =
    ts.map(t => (t.vals, t.tids, t.covered)).toSet

  /** Every non-empty table-disjoint, consistent, connected subset of `ts`
    * as its combined tuple, by enumerating every subset: the raw closure,
    * before any value merge or subsumption.
    */
  def validSets(ts: Vector[LocalTuple]): Vector[LocalTuple] =
    (1 until (1 << ts.size)).toVector.map(mask => ts.indices.filter(i => (mask & (1 << i)) != 0).map(ts))
      .filter { sel =>
        val tabs = sel.flatMap(_.tabs)
        def reach(r: Set[Int]): Set[Int] = {
          val next = r ++ sel.indices.filter(o => r.exists(c => NaiveFD.connected(sel(c), sel(o))))
          if (next == r) r else reach(next)
        }
        tabs.distinct.size == tabs.size &&
          sel.combinations(2).forall(p => NaiveFD.consistent(p.head, p.last)) &&
          reach(Set(0)).size == sel.size
      }
      .map(sel => LocalTuple.merged(Vector.tabulate(ts.head.vals.size)(j => sel.flatMap(_.vals(j)).headOption), sel))

  /** Random FD instance: up to `maxTables` tables over `m` attributes with
    * overlapping attribute subsets, tiny value domains (to force joins)
    * and missing nulls. Every tuple keeps ≥1 non-null value.
    */
  def randomInstance(seed: Long, maxTuples: Int = 10): Seq[LocalTuple] = {
    val rnd = new Random(seed)
    val m = 2 + rnd.nextInt(3) // attributes
    val nTables = 2 + rnd.nextInt(3)
    val domain = Vector("a", "b", "c", "d")
    val tuples = Vector.newBuilder[LocalTuple]
    var total = 0
    for (t <- 0 until nTables if total < maxTuples) {
      val attrs = rnd.shuffle((0 until m).toList).take(1 + rnd.nextInt(m)).sorted
      val covered = attrs.map(1L << _).foldLeft(0L)(_ | _)
      val nRows = 1 + rnd.nextInt(3)
      for (r <- 0 until nRows if total < maxTuples) {
        val vals = Vector.tabulate(m) { j =>
          if (!attrs.contains(j)) None
          else if (rnd.nextDouble() < 0.25) None // missing null
          else Some(domain(rnd.nextInt(domain.size)))
        }
        if (vals.exists(_.isDefined)) {
          tuples += LocalTuple(vals, covered, Set(s"T$t"), Set(s"T$t#$r"))
          total += 1
        }
      }
    }
    tuples.result()
  }
}

package repro.core

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types._

import scala.util.Random

/** Shared helpers for FD tests: move tuple sets between the driver-local
  * `LocalTuple` world (NaiveFD, the correctness reference) and the Spark
  * aligned-tuple representation, and generate random FD instances.
  */
object FdFixtures {

  val schema: StructType = StructType(Seq(
    StructField(AlignedTuples.ValsCol, ArrayType(StringType), nullable = false),
    StructField(AlignedTuples.CoveredCol, LongType, nullable = false),
    StructField(AlignedTuples.TabsCol, ArrayType(StringType), nullable = false),
    StructField(AlignedTuples.TidsCol, ArrayType(StringType), nullable = false),
  ))

  def toDf(spark: SparkSession, tuples: Seq[LocalTuple]): DataFrame = {
    val rows = tuples.map { t =>
      Row(t.vals.map(_.orNull), t.covered, t.tabs.toSeq.sorted, t.tids.toSeq.sorted)
    }
    spark.createDataFrame(spark.sparkContext.parallelize(rows, 2), schema)
  }

  def fromDf(df: DataFrame): Set[LocalTuple] =
    df.collect().map { r =>
      LocalTuple(
        r.getSeq[String](r.fieldIndex(AlignedTuples.ValsCol)).map(Option(_)).toVector,
        r.getAs[Long](AlignedTuples.CoveredCol),
        r.getSeq[String](r.fieldIndex(AlignedTuples.TabsCol)).toSet,
        r.getSeq[String](r.fieldIndex(AlignedTuples.TidsCol)).toSet,
      )
    }.toSet

  /** Number of distinct source tables: the round bound `integrateAligned` takes. */
  def tableCount(ts: Iterable[LocalTuple]): Int = ts.flatMap(_.tabs).toSet.size

  /** Comparable view (vals + provenance + null-kind mask). */
  def canon(ts: Iterable[LocalTuple]): Set[(Vector[Option[String]], Set[String], Long)] =
    ts.map(t => (t.vals, t.tids, t.covered)).toSet

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

package repro.discovery

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._

import repro.lake.{ColumnProfile, DataLake}

/** LSH-Ensemble-style joinable table search [15].
  *
  * Offline, every lake column's `ColumnProfile` gives its MinHash signature
  * and distinct count; candidates are partitioned by domain size (the
  * "ensemble").
  * A query column's containment in a candidate is estimated from the
  * Jaccard estimate ĵ via the standard conversion
  * ĉ = ĵ·(|Q|+|X|) / ((1+ĵ)·|Q|); partitions whose maximum achievable
  * containment (maxSize/|Q|) is below the threshold are pruned before
  * scoring. The banding index of the original is elided — the lake has
  * O(100) columns, so an exhaustive scan of pruned partitions is exact
  * and cheap. `spark` is unused; it stays for existing callers.
  */
final class LshEnsemble(spark: SparkSession, lake: DataLake) extends Discoverer {

  private val Threshold = 0.3
  private val NumPartitions = 4

  override def name: String = "lsh-ensemble"

  /** Offline index: (table, colIdx, colName, size, sig, part). Selecting
    * no `sample` prunes the profile's sample aggregate.
    */
  lazy val index: DataFrame =
    ColumnProfile.of(lake.tables)
      .select(col("table"), col("colIdx"), col("colName"), col("size"), col("sig"))
      .withColumn("part", ntile(NumPartitions).over(Window.orderBy(col("size"))))
      .cache()

  /** Upper bound of candidate set size per partition (driver-side). */
  private lazy val partMax: Map[Int, Long] =
    index.groupBy("part").agg(max("size").as("m")).collect()
      .map(r => r.getInt(0) -> r.getLong(1)).toMap

  override def discover(query: DataFrame, queryColumn: Option[String],
                        k: Int): Seq[ScoredTable] = {
    val qc = queryColumn.getOrElse(throw new IllegalArgumentException(
      "joinable search needs a marked query column"))
    val qdf = query.select(col(qc))
    val qsigRow = ColumnProfile.of(Seq(("query", qdf))).select(col("size"), col("sig"))
      .collect().headOption
      .getOrElse(return Seq.empty) // empty query column
    val qSize = qsigRow.getAs[Long]("size")
    val qSig = qsigRow.getSeq[Long](qsigRow.fieldIndex("sig")).toVector

    val keepParts = partMax.collect {
      case (p, mx) if mx.toDouble / qSize.toDouble >= Threshold => p
    }.toSeq
    if (keepParts.isEmpty) return Seq.empty

    val matches = (0 until ColumnProfile.NumPerms)
      .map(i => when(col("sig").getItem(i) === lit(qSig(i)), 1).otherwise(0))
      .reduce(_ + _)
    val j = matches.cast("double") / lit(ColumnProfile.NumPerms.toDouble)
    val containment = least(lit(1.0),
      j * (lit(qSize.toDouble) + col("size")) / ((j + 1.0) * lit(qSize.toDouble)))

    index
      .where(col("part").isin(keepParts: _*))
      .select(col("table"), containment.as("c"))
      .groupBy("table").agg(max("c").as("score"))
      .where(col("score") >= Threshold)
      .collect()
      .map(r => ScoredTable(r.getString(0), r.getDouble(1)))
      .sortBy(st => (-st.score, st.table))
      .take(k)
      .toSeq
  }
}

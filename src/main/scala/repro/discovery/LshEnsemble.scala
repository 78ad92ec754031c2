package repro.discovery

import org.apache.spark.sql.{DataFrame, SparkSession}
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

  /** Offline index: (table, colIdx, colName, size, sig). Selecting no
    * `sample` prunes the profile's sample aggregate.
    */
  lazy val index: DataFrame =
    ColumnProfile.of(lake.tables)
      .select(col("table"), col("colIdx"), col("colName"), col("size"), col("sig"))
      .cache()

  /** Upper size bound of each equi-depth partition, ascending, computed on
    * the driver from the index's sizes. The sorted sizes are cut into
    * `NumPartitions` runs whose lengths differ by at most one, the longer
    * runs first (as `ntile` cuts them); a run's bound is its largest size.
    * Ties go to the lower partition: a column belongs to the first
    * partition whose bound is ≥ its size, so equal sizes never straddle a
    * cut and pruning is deterministic.
    */
  private lazy val partBounds: Seq[Long] = {
    val sizes = index.select(col("size")).collect().map(_.getLong(0)).sorted
    val (q, r) = (sizes.length / NumPartitions, sizes.length % NumPartitions)
    (1 to NumPartitions).map(p => p * q + math.min(p, r))
      .filter(_ > 0).map(end => sizes(end - 1))
  }

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

    // Pruned partitions are a prefix of the bounds; a column survives iff
    // its size exceeds the last pruned bound.
    val (pruned, kept) = partBounds.partition(_.toDouble / qSize.toDouble < Threshold)
    if (kept.isEmpty) return Seq.empty

    val matches = (0 until ColumnProfile.NumPerms)
      .map(i => when(col("sig").getItem(i) === lit(qSig(i)), 1).otherwise(0))
      .reduce(_ + _)
    val j = matches.cast("double") / lit(ColumnProfile.NumPerms.toDouble)
    val containment = least(lit(1.0),
      j * (lit(qSize.toDouble) + col("size")) / ((j + 1.0) * lit(qSize.toDouble)))

    index
      .where(col("size") > pruned.lastOption.getOrElse(0L))
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

package repro.discovery

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.col

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
  * and cheap. The scan runs on the driver, over a copy of the index
  * collected at set-up (the first query), so a query runs only the jobs of
  * its own column's profile. `spark` is unused; it stays for existing
  * callers.
  */
final class LshEnsemble(spark: SparkSession, lake: DataLake) extends Discoverer {

  private val Threshold = 0.3
  private val NumPartitions = 4

  override def name: String = "lsh-ensemble"

  /** Offline index: (table, colIdx, colName, size, sig), cached. Selecting
    * no `sample` skips deriving it. Queries read the driver copy below.
    */
  lazy val index: DataFrame =
    ColumnProfile.of(lake.tables)
      .select(col("table"), col("colIdx"), col("colName"), col("size"), col("sig"))
      .cache()

  /** The driver's copy of the index: (table, size, sig) per lake column,
    * collected once, by the first query.
    */
  private lazy val columns: Vector[(String, Long, Array[Long])] =
    index.select(col("table"), col("size"), col("sig")).collect()
      .map(r => (r.getString(0), r.getLong(1), r.getSeq[Long](2).toArray)).toVector

  /** Upper size bound of each equi-depth partition, ascending, computed on
    * the driver from the index's sizes. The sorted sizes are cut into
    * `NumPartitions` runs whose lengths differ by at most one, the longer
    * runs first (as `ntile` cuts them); a run's bound is its largest size.
    * Ties go to the lower partition: a column belongs to the first
    * partition whose bound is ≥ its size, so equal sizes never straddle a
    * cut and pruning is deterministic.
    */
  private[discovery] lazy val partBounds: Seq[Long] = {
    val sizes = columns.map(_._2).sorted
    val (q, r) = (sizes.length / NumPartitions, sizes.length % NumPartitions)
    (1 to NumPartitions).map(p => p * q + math.min(p, r))
      .filter(_ > 0).map(end => sizes(end - 1))
  }

  /** Lake tables whose best column's estimated containment reaches
    * `Threshold`, by a scan of the driver's copy of the index: the query
    * column's profile is the only Spark work.
    */
  override def scores(query: DataFrame, queryColumn: Option[String]): Seq[ScoredTable] = {
    val qc = queryColumn.getOrElse(throw new IllegalArgumentException(
      "joinable search needs a marked query column"))
    val qdf = query.select(ColumnProfile.column(qc))
    val qsigRow = ColumnProfile.of(Seq(("query", qdf))).select(col("size"), col("sig"))
      .collect().headOption
      .getOrElse(return Seq.empty) // empty query column
    val qSize = qsigRow.getLong(0).toDouble
    val qSig = qsigRow.getSeq[Long](1).toArray

    // Pruned partitions are a prefix of the bounds; a column survives iff
    // its size exceeds the last pruned bound.
    val (pruned, kept) = partBounds.partition(_.toDouble / qSize < Threshold)
    if (kept.isEmpty) return Seq.empty
    val minSize = pruned.lastOption.getOrElse(0L)

    columns.collect { case (table, size, sig) if size > minSize =>
      val j = qSig.indices.count(i => sig(i) == qSig(i)).toDouble / ColumnProfile.NumPerms.toDouble
      table -> math.min(1.0, j * (qSize + size.toDouble) / ((j + 1.0) * qSize))
    }.groupMapReduce(_._1)(_._2)(math.max)
      .collect { case (table, c) if c >= Threshold => ScoredTable(table, c) }
      .toSeq
  }
}

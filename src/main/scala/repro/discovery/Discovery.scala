package repro.discovery

import org.apache.spark.sql.DataFrame

/** A discovery hit: a lake table with its relevance score. */
final case class ScoredTable(table: String, score: Double)

/** A table discovery algorithm (§2.1). DIALITE ships SANTOS-style
  * unionable search and LSH-Ensemble-style joinable search and lets users
  * plug in their own.
  *
  * A discoverer supplies only `scores`; `discover` ranks and cuts them once.
  */
trait Discoverer {
  def name: String

  /** Relevance scores of lake tables for `query`, in any order (scores
    * ≤ 0 are dropped). `queryColumn` is the marked intent/query column
    * (required by joinable search, used as the intent column by unionable
    * search when present).
    */
  def scores(query: DataFrame, queryColumn: Option[String]): Seq[ScoredTable]

  /** Top-k lake tables related to `query`: the positive `scores`, by
    * descending score and then table name.
    */
  final def discover(query: DataFrame, queryColumn: Option[String], k: Int): Seq[ScoredTable] =
    scores(query, queryColumn).filter(_.score > 0).sortBy(st => (-st.score, st.table)).take(k)
}

/** The user-extension point of Fig 4: any similarity function between two
  * tables becomes a discovery algorithm.
  */
trait TableSimilarity {
  def score(df1: DataFrame, df2: DataFrame): Double
}

/** Literal port of the paper's Fig 4 snippet:
  * `len(pd.merge(df1, df2, how="inner")) / max(len(df1), len(df2))` —
  * a natural inner join on the shared column names.
  */
object InnerJoinRatio extends TableSimilarity {
  override def score(df1: DataFrame, df2: DataFrame): Double = {
    val shared = df1.columns.intersect(df2.columns).toSeq
    if (shared.isEmpty) 0.0 // pandas raises here; an unrelated table scores 0
    else {
      val n = df1.join(df2, shared, "inner").count().toDouble
      n / math.max(df1.count(), df2.count()).toDouble
    }
  }
}

/** Wraps a `TableSimilarity` into a full discoverer by scoring the query
  * against every lake table (exactly how DIALITE runs user code).
  */
final class SimilarityDiscoverer(
    override val name: String,
    lake: repro.lake.DataLake,
    sim: TableSimilarity,
) extends Discoverer {
  override def scores(query: DataFrame, queryColumn: Option[String]): Seq[ScoredTable] =
    lake.tables.map { case (n, df) => ScoredTable(n, sim.score(query, df)) }
}

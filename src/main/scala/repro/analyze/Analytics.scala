package repro.analyze

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._

import repro.lake.ColumnProfile

/** The "Analyze" stage (§2.3): aggregations and statistics over an
  * integrated table — the queries that "go beyond the single tables".
  */
object Analytics {

  private def num(c: String): Column = ValueParser.numeric(ColumnProfile.column(c))

  /** Pearson correlation between two (string-valued) numeric columns,
    * over rows where both parse (Example 3).
    */
  def pearson(df: DataFrame, c1: String, c2: String): Double = {
    val r = df.select(corr(num(c1), num(c2)).as("r")).collect()(0)
    if (r.isNullAt(0)) Double.NaN else r.getDouble(0)
  }

  /** Row (as label from `labelCol`) holding the extreme value of
    * `valueCol` — Example 3's "Boston has the lowest vaccination rate,
    * Toronto the highest".
    */
  def argExtreme(df: DataFrame, labelCol: String, valueCol: String,
                 smallest: Boolean): Option[(String, Double)] = {
    val parsed = df
      .select(ColumnProfile.column(labelCol).as("label"), num(valueCol).as("v"))
      .where(col("v").isNotNull && col("label").isNotNull)
    parsed.orderBy(if (smallest) asc("v") else desc("v"), asc("label"))
      .limit(1).collect().headOption.map(r => (r.getString(0), r.getDouble(1)))
  }

  /** Count / mean / min / max per requested column (the demo's "common
    * aggregations and statistics"), one row per column, all from one
    * aggregation whose array of per-column structs is `inline`d into rows.
    */
  def describe(df: DataFrame, cols: Seq[String]): DataFrame = {
    val stats = cols.map { c =>
      val v = num(c)
      struct(lit(c).as("column"), count(v).cast("double").as("n"), avg(v).as("mean"),
        min(v).as("min"), max(v).as("max"))
    }
    df.agg(array(stats: _*).as("stats")).select(inline(col("stats")))
  }
}

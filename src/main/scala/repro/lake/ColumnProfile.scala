package repro.lake

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._

/** The one column profile that schema matching and joinable search read,
  * computed by one melt of the tables and one aggregation.
  *
  * `of` yields one row per (table, data column) holding at least one
  * value; `TID` provenance columns are not profiled:
  *
  *   - `size`   exact distinct-value count;
  *   - `sig`    MinHash signature, `min(xxhash64(value ⊕ i))` for
  *              i < `NumPerms`;
  *   - `sample` the (up to) `SampleSize` distinct values with the smallest
  *              `xxhash64`, in hash order. This bottom-k sample is
  *              consistent: two columns sample the same values from their
  *              overlap, so sample Jaccard tracks value Jaccard.
  *
  * A consumer selects the fields it reads and Spark prunes the aggregates
  * of the others. Query profiles go through the same code path, so no
  * estimator depends on reimplementing Spark's hash on the driver.
  */
object ColumnProfile {

  val NumPerms = 64
  val SampleSize = 1000

  /** A cell as a value: trimmed string, null when missing or empty (open
    * data CSVs encode missing values as ""). Integration reads cells
    * through the same rule.
    */
  def cell(c: Column): Column = {
    val v = trim(c.cast("string"))
    when(v =!= "", v)
  }

  /** The column named `name`, read literally: `col` would parse a header
    * like "No. Cases" as a nested field and "Pop`2020" as a bad identifier.
    */
  def column(name: String): Column = col("`" + name.replace("`", "``") + "`")

  /** True for provenance columns (`TID`, any case): integration carries
    * them through but never profiles or matches them.
    */
  def isTid(name: String): Boolean = name.equalsIgnoreCase("tid")

  /** (table, colIdx, colName, value) rows for every distinct value of a
    * data column of `tables`. One `distinct` over the union, so the melt is
    * one shuffle however many tables there are; rows of different tables
    * never collide. A `TID` column's cells read as missing, so it keeps its
    * position in the `posexplode` and the missing-value filter drops it.
    */
  def melt(tables: Seq[(String, DataFrame)]): DataFrame =
    tables.map { case (table, df) =>
      val names = df.columns.toSeq
      val cells = names.map(c => if (isTid(c)) lit(null: String).cast("string") else cell(column(c)))
      df.select(posexplode(array(cells: _*)).as(Seq("colIdx", "value")))
        .where(col("value").isNotNull)
        .select(
          lit(table).as("table"),
          col("colIdx"),
          element_at(array(names.map(lit): _*), col("colIdx") + 1).as("colName"),
          col("value"),
        )
    }.reduce(_ unionAll _).distinct()

  /** (table, colIdx, colName, size, sig, sample) for every data column of
    * `tables` that holds a value.
    */
  def of(tables: Seq[(String, DataFrame)]): DataFrame = {
    val mins = (0 until NumPerms).map(i => min(xxhash64(concat(col("value"), lit(s"§$i")))))
    val bottomK = slice(array_sort(collect_list(struct(xxhash64(col("value")), col("value")))),
      1, SampleSize)
    melt(tables)
      .groupBy(col("table"), col("colIdx"))
      .agg(
        first(col("colName")).as("colName"),
        count(lit(1)).as("size"),
        array(mins: _*).as("sig"),
        transform(bottomK, _.getField("value")).as("sample"),
      )
  }
}

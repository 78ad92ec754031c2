package repro.lake

import org.apache.spark.sql.{Column, DataFrame, Row, SparkSession}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{IntegerType, StringType, StructField, StructType}

/** The one column profile that schema matching and joinable search read,
  * computed by one melt of the tables and one aggregation into each
  * column's distinct-value set (one shuffle; under adaptive execution a
  * read is two jobs).
  *
  * `of` yields one row per (table, data column) holding at least one
  * value; `TID` provenance columns are not profiled:
  *
  *   - `size`   exact distinct-value count, the size of the set;
  *   - `sig`    MinHash signature, the minimum of `xxhash64(value ⊕ §i)`
  *              over the set for i < `NumPerms`;
  *   - `sample` the (up to) `SampleSize` distinct values with the smallest
  *              `xxhash64`, in hash order. This bottom-k sample is
  *              consistent: two columns sample the same values from their
  *              overlap, so sample Jaccard tracks value Jaccard.
  *
  * A consumer selects the fields it reads and Spark derives only those
  * from the set. Query profiles go through the same code path, so no
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

  /** (table, colIdx, colName, size, sig, sample) for every data column of
    * `tables` that holds a value; no tables give an empty frame of that
    * schema. The cells of all tables are melted into one union and
    * aggregated once: each (table, colIdx) group keeps its `collect_set` of
    * values, so a call runs one shuffle, and every field is derived from
    * the set, which hashes each distinct value once per field rather than
    * once per cell. A `TID` column's cells read as missing, so it keeps its
    * position in the `posexplode` and the missing-value filter drops it.
    */
  def of(tables: Seq[(String, DataFrame)]): DataFrame = {
    val cells = tables.map { case (table, df) =>
      val names = df.columns.toSeq
      val values = names.map(c => if (isTid(c)) lit(null: String).cast("string") else cell(column(c)))
      df.select(posexplode(array(values: _*)).as(Seq("colIdx", "value")))
        .where(col("value").isNotNull)
        .select(
          lit(table).as("table"),
          col("colIdx"),
          element_at(array(names.map(lit): _*), col("colIdx") + 1).as("colName"),
          col("value"),
        )
    }
    val melted = cells.reduceOption(_ unionAll _).getOrElse {
      val spark = SparkSession.active
      spark.createDataFrame(spark.sparkContext.emptyRDD[Row], StructType(Seq(
        StructField("table", StringType), StructField("colIdx", IntegerType, nullable = false),
        StructField("colName", StringType), StructField("value", StringType))))
    }
    val set = col("set")
    val sig = (0 until NumPerms).map(i => array_min(transform(set, v => xxhash64(concat(v, lit(s"§$i"))))))
    val bottomK = slice(array_sort(transform(set, v => struct(xxhash64(v).as("h"), v.as("v")))),
      1, SampleSize)
    melted
      .groupBy(col("table"), col("colIdx"))
      .agg(first(col("colName")).as("colName"), collect_set(col("value")).as("set"))
      .select(
        col("table"),
        col("colIdx"),
        col("colName"),
        size(set).cast("long").as("size"),
        array(sig: _*).as("sig"),
        transform(bottomK, _.getField("v")).as("sample"),
      )
  }
}

package repro.lake

import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types.{StringType, StructField, StructType}

import scala.collection.mutable

/** Discovery ground truth recorded by the lake generator.
  *
  * @param unionable query table -> tables a perfect unionable search returns
  * @param joinable  (query table, query column) -> tables a perfect
  *                  joinable search returns
  * @param family    table -> generator family (diagnostics)
  */
final case class GroundTruth(
    unionable: Map[String, Set[String]],
    joinable: Map[(String, String), Set[String]],
    family: Map[String, String],
)

/** A table repository 𝒟 (the paper's data lake). The demonstration uses a
  * preprocessed crawl of real open data; offline we substitute a synthetic
  * lake (see `LakeGen`) that can also be persisted to Parquet.
  */
trait DataLake {
  def tableNames: Seq[String]
  def table(name: String): DataFrame
  def tables: Seq[(String, DataFrame)] = tableNames.map(n => n -> table(n))
}

object DataLake {
  /** A table of string cells (null = missing) from literal rows; a fixed
    * `partitions` count keeps the row layout, and so the generated TIDs, stable.
    */
  def stringTable(spark: SparkSession, headers: Seq[String], rows: Seq[Seq[String]],
                  partitions: Int = 1): DataFrame = {
    val schema = StructType(headers.map(h => StructField(h, StringType, nullable = true)))
    spark.createDataFrame(spark.sparkContext.parallelize(rows.map(Row.fromSeq), partitions), schema)
  }
}

/** Lake held as in-session DataFrames (unit tests, small benches). */
final case class InMemoryLake(byName: Map[String, DataFrame]) extends DataLake {
  override def tableNames: Seq[String] = byName.keys.toSeq.sorted
  override def table(name: String): DataFrame = byName(name)
}

/** Lake persisted as one Parquet directory per table under `dir`
  * (spark-submit jobs; mirrors the paper's "preprocessed and linked"
  * on-disk lake).
  */
final class ParquetLake(spark: SparkSession, dir: String) extends DataLake {
  override val tableNames: Seq[String] = {
    val root = new java.io.File(dir)
    require(root.isDirectory, s"no lake at $dir — run `repro.jobs.Main lake` first")
    root.listFiles.filter(_.isDirectory).map(_.getName).sorted.toSeq
  }
  // One read per table: each `read.parquet` runs a schema-inference job.
  private val byName = mutable.Map.empty[String, DataFrame]
  override def table(name: String): DataFrame =
    byName.synchronized(byName.getOrElseUpdate(name, spark.read.parquet(s"$dir/$name")))
}

object ParquetLake {
  /** Persist `lake` under `dir` (one Parquet dataset per table). */
  def write(lake: DataLake, dir: String): Unit =
    lake.tables.foreach { case (name, df) =>
      df.write.mode("overwrite").parquet(s"$dir/$name")
    }
}

package repro.core

import org.apache.spark.sql.{Column, DataFrame, Row}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._

import repro.lake.ColumnProfile

/** Outer union of an integration set into integration-ID space.
  *
  * Every input tuple becomes a row of the universal schema:
  *
  *   - `vals`    array<string> of length `numIids` (null = no value);
  *   - `covered` Long bitmask of the integration IDs the source table has
  *               a column for — a null inside the mask is a *missing* null
  *               (± in the paper), a null outside it is a *produced* null
  *               (⊥) introduced by padding;
  *   - `tabs`    sorted source-table names (used to enforce FD's
  *               one-tuple-per-table rule);
  *   - `tids`    sorted provenance tuple IDs. If the input has a `TID`
  *               column it is used verbatim (the paper's figures name
  *               tuples t1..t16); otherwise IDs are `<table>#<row>`.
  *
  * Consumers key tuples on the arrays themselves: a value is identified by
  * `vals`, a tuple by (`vals`, `tids`). Spark groups, dedupes and joins
  * `array<string>` by element, null elements included, so no string
  * encoding (which a value containing its separator could collide with)
  * stands in between.
  */
object AlignedTuples {

  val ValsCol = "vals"
  val CoveredCol = "covered"
  val TabsCol = "tabs"
  val TidsCol = "tids"

  /** The schema of every aligned-tuple `DataFrame`, in this column order. */
  val schema: StructType = StructType(Seq(
    StructField(ValsCol, ArrayType(StringType), nullable = false),
    StructField(CoveredCol, LongType, nullable = false),
    StructField(TabsCol, ArrayType(StringType), nullable = false),
    StructField(TidsCol, ArrayType(StringType), nullable = false),
  ))

  /** `df` with every column renamed to `p + name`: one side of a pairwise join. */
  def prefixed(df: DataFrame, p: String): DataFrame =
    df.select(df.columns.toSeq.map(c => col(c).as(p + c)): _*)

  /** The one pairwise tuple merge, over sides prefixed `a_` and `b_`: values
    * coalesced attribute-wise, coverage ORed, tables and TIDs unioned. A
    * side that is null as a whole (no match in an outer join) leaves the
    * other side unchanged.
    */
  def mergedPair: Seq[Column] = {
    def a(c: String) = col("a_" + c)
    def b(c: String) = col("b_" + c)
    val none = lit(Array.empty[String])
    def union(c: String) = array_sort(array_union(coalesce(a(c), none), coalesce(b(c), none)))
    Seq(
      coalesce(zip_with(a(ValsCol), b(ValsCol), coalesce(_, _)), a(ValsCol), b(ValsCol)).as(ValsCol),
      coalesce(a(CoveredCol), lit(0L)).bitwiseOR(coalesce(b(CoveredCol), lit(0L))).as(CoveredCol),
      union(TabsCol).as(TabsCol),
      union(TidsCol).as(TidsCol),
    )
  }

  /** Build the outer union for one table. */
  def forTable(table: String, df: DataFrame, alignment: Alignment): DataFrame = {
    val cols = df.columns
    val tidExpr: Column = cols.find(ColumnProfile.isTid) match {
      case Some(tidCol) => ColumnProfile.column(tidCol).cast("string")
      case None =>
        concat(lit(table + "#"), monotonically_increasing_id().cast("string"))
    }
    val byIid: Map[Int, String] = alignment.iidOf.collect {
      case (ColumnKey(t, idx), iid) if t == table => iid -> cols(idx)
    }
    val vals = array((0 until alignment.numIids).map { iid =>
      byIid.get(iid) match {
        case Some(c) => ColumnProfile.cell(ColumnProfile.column(c)) // "" is a missing null, as in profiling
        case None => lit(null: String).cast("string")
      }
    }: _*)
    df.select(
      vals.as(ValsCol),
      lit(alignment.coverage(table)).as(CoveredCol),
      array(lit(table)).as(TabsCol),
      array(tidExpr).as(TidsCol),
    ).where(exists(col(ValsCol), v => v.isNotNull)) // all-null rows carry no fact
  }

  /** One `forTable` frame per table of the integration set, in order. */
  def perTable(tables: Seq[(String, DataFrame)], alignment: Alignment): Seq[DataFrame] =
    tables.map { case (t, df) => forTable(t, df, alignment) }

  /** Outer union of the whole integration set. */
  def build(tables: Seq[(String, DataFrame)], alignment: Alignment): DataFrame =
    perTable(tables, alignment).reduce(_.unionAll(_))
}

/** A tuple of the universal (integration-ID) schema held on the driver.
  * `LocalTuple.fromRow` and `toRow` are the one codec between it and a row
  * of `AlignedTuples.schema`.
  */
final case class LocalTuple(vals: Vector[Option[String]], covered: Long,
                            tabs: Set[String], tids: Set[String]) {
  def nonNullCount: Int = vals.count(_.isDefined)

  /** A row of `AlignedTuples.schema`: nulls for missing values, sorted sets. */
  def toRow: Row = Row(vals.map(_.orNull), covered, tabs.toSeq.sorted, tids.toSeq.sorted)
}

object LocalTuple {
  import AlignedTuples._

  /** `vals` with the provenance of all `parts` (coverage ORed, tables and
    * TIDs unioned): the one driver-side provenance merge.
    */
  def merged(vals: Vector[Option[String]], parts: Seq[LocalTuple]): LocalTuple =
    LocalTuple(vals, parts.map(_.covered).reduce(_ | _),
      parts.map(_.tabs).reduce(_ ++ _), parts.map(_.tids).reduce(_ ++ _))

  /** Reads an aligned-tuple row by field name. */
  def fromRow(r: Row): LocalTuple = LocalTuple(
    r.getSeq[String](r.fieldIndex(ValsCol)).toVector.map(Option(_)),
    r.getAs[Long](CoveredCol),
    r.getSeq[String](r.fieldIndex(TabsCol)).toSet,
    r.getSeq[String](r.fieldIndex(TidsCol)).toSet)
}

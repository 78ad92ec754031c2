package repro.core

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._

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
      case Some(tidCol) => col(tidCol).cast("string")
      case None =>
        concat(lit(table + "#"), monotonically_increasing_id().cast("string"))
    }
    val byIid: Map[Int, String] = alignment.iidOf.collect {
      case (ColumnKey(t, idx), iid) if t == table => iid -> cols(idx)
    }
    val vals = array((0 until alignment.numIids).map { iid =>
      byIid.get(iid) match {
        case Some(c) => ColumnProfile.cell(col(c)) // "" is a missing null, as in profiling
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

  /** Outer union of the whole integration set. */
  def build(tables: Seq[(String, DataFrame)], alignment: Alignment): DataFrame =
    tables.map { case (t, df) => forTable(t, df, alignment) }.reduce(_.unionAll(_))
}

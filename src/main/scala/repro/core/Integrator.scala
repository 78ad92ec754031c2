package repro.core

import org.apache.spark.sql.DataFrame

/** A pluggable integration operator (§2.2, §3.2): DIALITE ships ALITE's
  * Full Disjunction as the default and outer join as the demo alternative,
  * and users can register additional operators.
  *
  * An operator supplies only `combine`; `integrate` states the shared steps
  * once: reject an empty set, align it, build each table's aligned tuples, wrap.
  */
trait Integrator {
  def name: String

  /** The operator's own step: one `AlignedTuples.schema` frame from each
    * table's `AlignedTuples.forTable` frame, named, in set order (never empty).
    */
  protected def combine(aligned: Seq[(String, DataFrame)], alignment: Alignment): DataFrame

  /** Align `tables` with `matcher` and integrate them with `combine`. */
  final def integrate(tables: Seq[(String, DataFrame)],
                      matcher: SchemaMatcher = new HolisticMatcher()): IntegratedTable = {
    require(tables.nonEmpty, "integration set is empty")
    val alignment = matcher.align(tables)
    val aligned = tables.map(_._1).zip(AlignedTuples.perTable(tables, alignment))
    IntegratedTable(alignment, combine(aligned, alignment))
  }
}

object Integrator {
  /** The operators demonstrated in the paper. */
  def builtin: Map[String, Integrator] = Map(
    FullDisjunction.name      -> FullDisjunction,
    OuterJoinIntegration.name -> OuterJoinIntegration,
  )
}

package repro

import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.core.{HolisticMatcher, IntegratedTable, Integrator, SchemaMatcher}
import repro.discovery.{Discoverer, ScoredTable}
import repro.er.{EntityResolver, SynonymDict}
import repro.lake.DataLake

/** The DIALITE pipeline (Fig 1): discover → align & integrate → analyze.
  *
  * Discovery, integration and analysis are pluggable (§3.2): any number of
  * `Discoverer`s contribute candidates (the demo persists *the set* of
  * tables found by all techniques), any registered `Integrator` builds the
  * integrated table, and analysis runs over the result.
  */
final class Dialite(
    val spark: SparkSession,
    val lake: DataLake,
    val discoverers: Seq[Discoverer],
    val integrators: Map[String, Integrator] = Integrator.builtin,
    val matcher: SchemaMatcher = new HolisticMatcher(),
) {

  /** Stage 1 — Discover (§2.1): union of all discoverers' top-k hits.
    * Returns the integration set D (query table first, then the discovered
    * tables in deterministic order), each table once: a query that is
    * itself a lake table finds itself, and that hit is the query.
    */
  def discover(query: DataFrame, queryColumn: Option[String], k: Int,
               queryName: String = "query"): Seq[(String, DataFrame)] = {
    val hits: Seq[ScoredTable] = discoverers.flatMap(_.discover(query, queryColumn, k))
    val names = hits.map(_.table).filter(_ != queryName).distinct.sorted
    (queryName -> query) +: names.map(n => n -> lake.table(n))
  }

  /** Stage 2 — Align & Integrate (§2.2) with a registered operator
    * (default: ALITE's Full Disjunction).
    */
  def integrate(integrationSet: Seq[(String, DataFrame)],
                operator: String = "alite-fd"): IntegratedTable = {
    val integrator = integrators.getOrElse(operator,
      throw new IllegalArgumentException(
        s"unknown integrator '$operator'; have ${integrators.keys.mkString(", ")}"))
    integrator.integrate(integrationSet, matcher)
  }

  /** Stage 3 — Analyze (§2.3): entity resolution downstream application. */
  def entityResolution(it: IntegratedTable,
                       dict: SynonymDict = SynonymDict.default): IntegratedTable =
    EntityResolver.resolve(it, dict)

  /** Full pipeline: discover, integrate, return the integrated table. */
  def pipeline(query: DataFrame, queryColumn: Option[String], k: Int,
               operator: String = "alite-fd"): IntegratedTable =
    integrate(discover(query, queryColumn, k), operator)
}

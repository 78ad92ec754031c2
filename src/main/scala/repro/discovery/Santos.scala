package repro.discovery

import org.apache.spark.sql.DataFrame

import repro.lake.DataLake
import repro.util.Norm

/** SANTOS-style semantic unionable table search [7].
  *
  * SANTOS types columns against a knowledge base (YAGO) and matches the
  * *relationships* between column pairs, not just individual columns.
  * Offline we substitute YAGO with the lake generator's value→type
  * dictionary (`repro.lake.KnowledgeBase`) — the same mechanism, synthetic
  * facts. A column's semantic type is the majority type of its values
  * in a `SampleSize`-row sample (support ≥ `MinSupport`); numbers and
  * percentages get syntactic types.
  *
  * Score of a candidate = 2·|shared relationship types| + |shared column
  * types|, restricted to relationships involving the intent column's type
  * when an intent column is given.
  */
final class Santos(lake: DataLake, kb: Map[String, String]) extends Discoverer {

  private val MinSupport = 0.4
  private val SampleSize = 500

  override def name: String = "santos"

  private val numberRe = "^-?\\d+(\\.\\d+)?$".r
  private val percentRe = "^-?\\d+(\\.\\d+)?%$".r

  private def typeOfValue(v: String): Option[String] = {
    val n = Norm.basic(v)
    kb.get(n)
      .orElse(if (percentRe.matches(n)) Some("percent") else None)
      .orElse(if (numberRe.matches(n)) Some("number") else None)
  }

  /** Majority semantic type of each column (None = untyped). */
  private[discovery] def columnTypes(df: DataFrame): Vector[Option[String]] = {
    import org.apache.spark.sql.functions._
    val names = df.columns
    val sample = df.limit(SampleSize).collect()
    names.indices.map { i =>
      val vals = sample.flatMap(r => Option(r.get(i)).map(_.toString)).filter(_.nonEmpty)
      if (vals.isEmpty) None
      else {
        val typed = vals.flatMap(typeOfValue)
        if (typed.length < vals.length * MinSupport) None
        else Some(typed.groupBy(identity).maxBy(g => (g._2.length, g._1))._1)
      }
    }.toVector
  }

  /** Unordered relationship signatures between typed column pairs. Pairs of
    * bare numbers carry no semantic signal (any two numeric tables would
    * match) and are dropped — SANTOS only matches KB-typed relationships.
    */
  private def relationships(types: Vector[Option[String]]): Set[(String, String)] =
    (for {
      i <- types.indices; j <- (i + 1) until types.size
      a <- types(i); b <- types(j)
      if !(a == "number" && b == "number")
    } yield if (a <= b) (a, b) else (b, a)).toSet

  private lazy val lakeTypes: Map[String, Vector[Option[String]]] =
    lake.tables.map { case (n, df) => n -> columnTypes(df) }.toMap

  override def scores(query: DataFrame, queryColumn: Option[String]): Seq[ScoredTable] = {
    val qTypes = columnTypes(query)
    val intentType = queryColumn
      .flatMap(c => query.columns.indexOf(c) match {
        case -1 => None
        case i  => qTypes(i)
      })
    val qRels0 = relationships(qTypes)
    val qRels = intentType.fold(qRels0)(t => qRels0.filter(r => r._1 == t || r._2 == t))
    val qTypeSet = qTypes.flatten.toSet - "number" // bare numbers ≠ evidence

    lake.tableNames.map { t =>
      val cTypes = lakeTypes(t)
      val rels = relationships(cTypes)
      val relScore = (qRels intersect rels).size
      val typeScore = (qTypeSet intersect (cTypes.flatten.toSet - "number")).size
      ScoredTable(t, 2.0 * relScore + typeScore)
    }
  }
}

package repro.discovery

import org.apache.spark.sql.{DataFrame, Row}

import repro.lake.DataLake
import repro.util.Norm

/** SANTOS-style semantic unionable table search [7].
  *
  * SANTOS types columns against a knowledge base (YAGO) and matches the
  * *relationships* between column pairs, not just individual columns.
  * Offline we substitute YAGO with the lake generator's value→type
  * dictionary (`repro.lake.KnowledgeBase`) — the same mechanism, synthetic
  * facts. A column's semantic type is the majority type of its values
  * in its table's sample (support ≥ `MinSupport`); numbers and
  * percentages get syntactic types. A table's sample is its first
  * `SampleSize` rows in partition order, exactly `limit(SampleSize)`.
  * One job samples every lake table at the first query, and one more
  * samples each query; either costs one task per partition of the tables
  * it reads, each reading at most `SampleSize` rows.
  *
  * Score of a candidate = 2·|shared relationship types| + |shared column
  * types|, restricted to relationships involving the intent column's type
  * when an intent column is given.
  */
final class Santos(lake: DataLake, kb: Map[String, String]) extends Discoverer {

  import Santos.SampleSize

  private val MinSupport = 0.4

  override def name: String = "santos"

  private val numberRe = "^-?\\d+(\\.\\d+)?$".r
  private val percentRe = "^-?\\d+(\\.\\d+)?%$".r

  private def typeOfValue(v: String): Option[String] = {
    val n = Norm.basic(v)
    kb.get(n)
      .orElse(if (percentRe.matches(n)) Some("percent") else None)
      .orElse(if (numberRe.matches(n)) Some("number") else None)
  }

  /** The first `SampleSize` rows of each table, in partition order: what
    * `df.limit(SampleSize).collect()` returns, read for every table in one
    * job. Each task takes the first `SampleSize` rows of one partition of
    * one table, and the driver keeps each table's first `SampleSize` of
    * them; no tables run no job.
    */
  private[discovery] def samples(tables: Seq[DataFrame]): Seq[Array[Row]] =
    tables.headOption.fold(Seq.empty[Array[Row]]) { head =>
      val n = SampleSize
      val heads = tables.zipWithIndex.map { case (df, t) =>
        df.rdd.mapPartitions(rows => rows.take(n).map(r => (t, r)))
      }
      // A union's partitions follow its inputs' order, so a collect keeps
      // each table's rows in partition order.
      val byTable = head.sparkSession.sparkContext.union(heads).collect().groupBy(_._1)
      tables.indices.map(t => byTable.getOrElse(t, Array.empty[(Int, Row)]).take(n).map(_._2))
    }

  /** Majority semantic type of each of `width` columns in `sample`
    * (None = untyped).
    */
  private[discovery] def typesOf(sample: Array[Row], width: Int): Vector[Option[String]] =
    (0 until width).map { i =>
      val vals = sample.flatMap(r => Option(r.get(i)).map(_.toString)).filter(_.nonEmpty)
      if (vals.isEmpty) None
      else {
        val typed = vals.flatMap(typeOfValue)
        if (typed.length < vals.length * MinSupport) None
        else Some(typed.groupBy(identity).maxBy(g => (g._2.length, g._1))._1)
      }
    }.toVector

  /** Majority semantic type of each column of `df`, from its sample. */
  private[discovery] def columnTypes(df: DataFrame): Vector[Option[String]] =
    typesOf(samples(Seq(df)).head, df.columns.length)

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

  /** Column types of every lake table, from one sampling job. */
  private[discovery] lazy val lakeTypes: Map[String, Vector[Option[String]]] = {
    val tables = lake.tables
    tables.zip(samples(tables.map(_._2))).map { case ((n, df), sample) =>
      n -> typesOf(sample, df.columns.length)
    }.toMap
  }

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

object Santos {
  /** Rows per table that column typing reads. */
  val SampleSize = 500
}

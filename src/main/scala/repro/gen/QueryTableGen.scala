package repro.gen

import org.apache.spark.sql.{DataFrame, SparkSession}

import scala.util.Random

import repro.lake.KnowledgeBase
import repro.lake.DataLake.stringTable

/** Query-table generation from a prompt (§3.2, Fig 5).
  *
  * The demo calls GPT-3; offline we substitute a deterministic
  * prompt-conditioned sampler over the KnowledgeBase. For the paper's
  * COVID-19 prompt (5 columns × 5 rows) it emits exactly the Fig 5 table —
  * those country statistics are stored as KB facts, including the paper's
  * Russia "Active" value which is not derivable from the other columns.
  */
object QueryTableGen {

  private val covidColumns = Vector("Country", "Cases", "Deaths", "Recovered", "Active")

  /** Generate a query table for `prompt`. Supported topics: COVID cases by
    * country (Fig 5), city vaccination, vaccine approvals; anything else
    * falls back to a seeded generic table — a stand-in for GPT-3
    * hallucinating something plausible.
    */
  def generate(spark: SparkSession, prompt: String,
               rows: Int = 5, cols: Int = 5): DataFrame = {
    val p = prompt.toLowerCase
    if (p.contains("covid") || p.contains("case")) covidTable(spark, rows, cols)
    else if (p.contains("vaccin") && p.contains("city")) cityVaxTable(spark, rows)
    else if (p.contains("vaccin")) vaccineTable(spark, rows)
    else genericTable(spark, prompt, rows, cols)
  }

  /** Fig 5: top countries by cases, columns Country..Active. */
  private def covidTable(spark: SparkSession, rows: Int, cols: Int): DataFrame = {
    val known = KnowledgeBase.fig5CovidStats
    val rest = KnowledgeBase.countries
      .filterNot(c => known.exists(_._1 == c))
      .map(KnowledgeBase.covidStats)
    val all = (known ++ rest).sortBy(-_._2).take(rows)
    val headers = covidColumns.take(math.max(1, cols))
    val data = all.map { case (c, cases, deaths, rec, act) =>
      Vector(c, cases.toString, deaths.toString, rec.toString, act.toString)
        .take(headers.size)
    }
    stringTable(spark, headers, data)
  }

  private def cityVaxTable(spark: SparkSession, rows: Int): DataFrame = {
    val rnd = new Random(41)
    val data = KnowledgeBase.cityCountry.take(rows).map { case (city, country) =>
      Vector(country, city, s"${40 + rnd.nextInt(55)}%")
    }
    stringTable(spark, Vector("Country", "City", "Vaccination Rate (1+ dose)"), data)
  }

  private def vaccineTable(spark: SparkSession, rows: Int): DataFrame = {
    val data = KnowledgeBase.vaccines.take(rows).zip(KnowledgeBase.agencyCountry)
      .map { case (v, (agency, country)) => Vector(v, agency, country) }
    stringTable(spark, Vector("Vaccine", "Approver", "Country"), data)
  }

  private def genericTable(spark: SparkSession, prompt: String,
                           rows: Int, cols: Int): DataFrame = {
    val rnd = new Random(prompt.hashCode)
    val headers = (0 until cols).map(i => s"attr_$i")
    val data = (0 until rows).map(_ => headers.map(_ => rnd.nextInt(1000).toString))
    stringTable(spark, headers, data)
  }
}

package repro.jobs

import java.io.{FileDescriptor, FileOutputStream, PrintStream}
import java.nio.charset.StandardCharsets.UTF_8

import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.Dialite
import repro.analyze.Analytics
import repro.core.{FullDisjunction, IntegratedTable, OuterJoinIntegration}
import repro.demo.PaperTables
import repro.discovery.{LshEnsemble, Santos}
import repro.er.EntityResolver
import repro.gen.QueryTableGen
import repro.lake.{LakeGen, ParquetLake}

/** The one entry point for the paper's artifacts, one subcommand each:
  *
  *   - `fig3`: Fig 2 → Fig 3, ALITE over the COVID integration set;
  *   - `fig5 [prompt]`: Fig 5, query-table generation from a prompt (GPT-3
  *     substituted by the deterministic KB-backed generator);
  *   - `fig8`: Fig 7 → Fig 8, outer join vs ALITE FD and entity resolution
  *     over both;
  *   - `example3`: Example 3, the extremes of the vaccination rate and the
  *     two correlations over the Fig 3 table (paper: 0.16 and 0.9);
  *   - `lake [dir] [sf]`: the synthetic open data lake to Parquet (the
  *     paper's "preprocessed data lake" substitute);
  *   - `pipeline [sf] [k]`: discover (SANTOS-lite + LSH-Ensemble-lite),
  *     integrate (ALITE FD), analyze (stats + ER) over the synthetic lake,
  *     the demo walk-through of §3.1 end to end.
  *
  * `sbt "jobs/runMain repro.jobs.Main <subcommand>"` or
  * `spark-submit --class repro.jobs.Main repro-jobs.jar <subcommand>`.
  * `SPARK_MASTER` and `SPARK_SHUFFLE_PARTITIONS` configure the session.
  */
object Main {

  private val Usage =
    "usage: Main fig3 | fig5 [prompt] | fig8 | example3 | lake [dir] [sf] | pipeline [sf] [k]"

  def main(args: Array[String]): Unit = {
    val cmd = args.headOption.getOrElse("")
    val rest = args.drop(1)
    val job: SparkSession => Unit = cmd match {
      case "fig3"     => fig3
      case "fig5"     => fig5(if (rest.nonEmpty) rest.mkString(" ")
                              else "a table about COVID-19 cases with 5 columns and 5 rows")
      case "fig8"     => fig8
      case "example3" => example3
      case "lake"     => lake(rest.headOption.getOrElse("target/lake"),
                              rest.lift(1).map(_.toDouble).getOrElse(0.1))
      case "pipeline" => pipeline(rest.headOption.map(_.toDouble).getOrElse(0.01),
                                  rest.lift(1).map(_.toInt).getOrElse(3))
      case _ =>
        System.err.println(Usage)
        sys.exit(2)
    }
    // The figures print ±, ⊥, — and ⟗: write UTF-8 whatever the locale says.
    val out = new PrintStream(new FileOutputStream(FileDescriptor.out), true, UTF_8)
    val spark = session(s"dialite-$cmd")
    try Console.withOut(out)(job(spark)) finally { out.flush(); spark.stop() }
  }

  private def fig3(spark: SparkSession): Unit = {
    val tables = PaperTables.fig2(spark)
    tables.foreach { case (n, df) => dump(s"Fig 2 — $n", df) }
    val it = FullDisjunction.integrate(tables)
    dump("Fig 3 — FD(T1, T2, T3) via ALITE", byTids(it))
  }

  private def fig5(prompt: String)(spark: SparkSession): Unit = {
    println(s"prompt: $prompt")
    dump("Fig 5 — generated query table", QueryTableGen.generate(spark, prompt))
  }

  private def fig8(spark: SparkSession): Unit = {
    val tables = PaperTables.fig7(spark)
    tables.foreach { case (n, df) => dump(s"Fig 7 — $n", df) }
    val oj = OuterJoinIntegration.integrate(tables)
    dump("Fig 8(a) — outer join T4 ⟗ T5 ⟗ T6", byTids(oj))
    val fd = FullDisjunction.integrate(tables)
    dump("Fig 8(b) — FD(T4, T5, T6) via ALITE", byTids(fd))
    dump("Fig 8(c) — ER over outer join", byTids(EntityResolver.resolve(oj)))
    dump("Fig 8(d) — ER over FD", byTids(EntityResolver.resolve(fd)))
  }

  private def example3(spark: SparkSession): Unit = {
    val it = FullDisjunction.integrate(PaperTables.fig2(spark)).asTable
    val vax = "Vaccination Rate (1+ dose)"
    val lo = Analytics.argExtreme(it, "City", vax, smallest = true)
    val hi = Analytics.argExtreme(it, "City", vax, smallest = false)
    println(s"lowest vaccination rate:  ${lo.get._1} (${lo.get._2}%)")
    println(s"highest vaccination rate: ${hi.get._1} (${hi.get._2}%)")
    val r1 = Analytics.pearson(it, vax, "Death Rate (per 100k residents)")
    val r2 = Analytics.pearson(it, "Total Cases", vax)
    println(f"corr(vaccination, death rate) = $r1%.2f   (paper: 0.16)")
    println(f"corr(cases, vaccination)      = $r2%.2f   (paper: 0.9)")
  }

  private def lake(dir: String, sf: Double)(spark: SparkSession): Unit = {
    val gen = LakeGen.generate(spark, sf = sf)
    ParquetLake.write(gen.lake, dir)
    println(s"wrote ${gen.lake.tableNames.size} tables to $dir (sf=$sf)")
    gen.lake.tableNames.foreach(n => println(s"  $n (${gen.truth.family(n)})"))
  }

  private def pipeline(sf: Double, k: Int)(spark: SparkSession): Unit = {
    val gen = LakeGen.generate(spark, sf = sf)
    val dialite = new Dialite(spark, gen.lake,
      Seq(new Santos(gen.lake, gen.kb), new LshEnsemble(spark, gen.lake)))

    val query = gen.lake.table("cases_p0")
    val queryCol = query.columns(0)
    println(s"query table: cases_p0, intent/query column: $queryCol")

    val set = dialite.discover(query, Some(queryCol), k, queryName = "cases_p0")
    println(s"integration set: ${set.map(_._1).mkString(", ")}")

    val it = dialite.integrate(set)
    dump("integrated table (ALITE FD)", byTids(it).limit(30))
    println(s"integrated rows: ${it.asTable.count()}")

    val numericCol = it.columnNames.find(_.toLowerCase.contains("case"))
      .getOrElse(it.columnNames.last)
    dump("analysis — describe", Analytics.describe(it.asTable, Seq(numericCol)))
    println(s"entities after ER: ${EntityResolver.resolve(it).asTable.count()}")
  }

  private def session(app: String): SparkSession =
    SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(app)
      .config("spark.sql.shuffle.partitions",
              sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "16"))
      .getOrCreate()

  /** `it.rendered` in `TIDs` order, so two runs print the same lines. */
  private def byTids(it: IntegratedTable): DataFrame = it.rendered.orderBy("TIDs")

  /** Render a DataFrame fully to stdout (paper tables are small). */
  private def dump(title: String, df: DataFrame): Unit = {
    println(s"== $title")
    df.show(1000, truncate = false)
  }
}

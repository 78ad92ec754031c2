package repro.jobs

import repro.Dialite
import repro.analyze.Analytics
import repro.discovery.{LshEnsemble, Santos}
import repro.er.EntityResolver
import repro.lake.LakeGen

/** Full DIALITE pipeline over the synthetic lake: discover (SANTOS-lite +
  * LSH-Ensemble-lite), integrate (ALITE FD), analyze (stats + ER) — the
  * demo walk-through of §3.1 end to end.
  *
  * `spark-submit --class repro.jobs.PipelineJob repro-jobs.jar [sf] [k]`
  */
object PipelineJob {
  def main(args: Array[String]): Unit = {
    val sf = args.headOption.map(_.toDouble).getOrElse(0.01)
    val k = args.lift(1).map(_.toInt).getOrElse(3)
    val spark = JobSession.get("dialite-pipeline")

    val gen = LakeGen.generate(spark, sf = sf)
    val dialite = new Dialite(spark, gen.lake,
      Seq(new Santos(gen.lake, gen.kb), new LshEnsemble(spark, gen.lake)))

    val query = gen.lake.table("cases_p0")
    val queryCol = query.columns(0)
    println(s"query table: cases_p0, intent/query column: $queryCol")

    val set = dialite.discover(query, Some(queryCol), k, queryName = "cases_p0")
    println(s"integration set: ${set.map(_._1).mkString(", ")}")

    val it = dialite.integrate(set)
    JobSession.dump("integrated table (ALITE FD)", it.rendered.limit(30))
    println(s"integrated rows: ${it.asTable.count()}")

    val numericCol = it.columnNames.find(_.toLowerCase.contains("case"))
      .getOrElse(it.columnNames.last)
    JobSession.dump("analysis — describe", Analytics.describe(it.asTable, Seq(numericCol)))
    println(s"entities after ER: ${EntityResolver.resolve(it).asTable.count()}")
    spark.stop()
  }
}

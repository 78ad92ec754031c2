package repro.bench

import repro.SparkSpec
import repro.discovery.{Discoverer, LshEnsemble, Santos}
import repro.lake.LakeGen

/** §2.1 discovery quality at SF=0.1: SANTOS-lite (unionable) and
  * LSH-Ensemble-lite (joinable) against the lake generator's ground truth.
  * The paper demonstrates discovery qualitatively ("returns related
  * tables"); the shape to reproduce is high precision@k on the relevant
  * families and zero hits from noise. Set-up (the LSH index, SANTOS's lake
  * typing and each discoverer's first query) is timed on its own, so the
  * query rows time queries alone.
  */
class DiscoveryBench extends SparkSpec {

  private lazy val gen = LakeGen.generate(spark, sf = 0.1, seed = 7)

  private def precisionAtK(d: Discoverer, queryTable: String,
                           queryCol: Option[String], truth: Set[String]): (Double, Double) = {
    val query = gen.lake.table(queryTable)
    val k = truth.size
    val (hits, secs) = BenchUtil.timed(
      d.discover(query, queryCol, k + 1).map(_.table).filterNot(_ == queryTable).take(k))
    val p = if (hits.isEmpty) 0.0 else truth.intersect(hits.toSet).size.toDouble / hits.size
    (p, secs)
  }

  test("discovery precision@k over the SF=0.1 lake") {
    val santos = new Santos(gen.lake, gen.kb)
    val lsh = new LshEnsemble(spark, gen.lake)
    val cases0 = gen.lake.table("cases_p0")
    val cityCol = cases0.columns(0)
    val (_, tSetup) = BenchUtil.timed {
      lsh.index.count()
      santos.discover(cases0, None, 1)
      lsh.discover(cases0, Some(cityCol), 1)
    }

    val (pU, tU) = precisionAtK(santos, "cases_p0", None, gen.truth.unionable("cases_p0"))
    val (pJ, tJ) = precisionAtK(lsh, "cases_p0", Some(cityCol),
      gen.truth.joinable(("cases_p0", "City")))
    val (pK, tK) = precisionAtK(lsh, "cust_keys", Some("custkey"),
      gen.truth.joinable(("cust_keys", "custkey")))

    BenchUtil.header("Discovery quality (SF=0.1 synthetic lake)")
    BenchUtil.row("search", "query", "k", "precision@k", "seconds")
    BenchUtil.row("set-up (LSH index, SANTOS lake typing, first queries)", "", "", "", f"$tSetup%.1f")
    BenchUtil.row("SANTOS-lite (unionable)", "cases_p0",
      gen.truth.unionable("cases_p0").size, f"$pU%.2f", f"$tU%.1f")
    BenchUtil.row("LSH-Ensemble-lite (joinable, city)", "cases_p0",
      gen.truth.joinable(("cases_p0", "City")).size, f"$pJ%.2f", f"$tJ%.1f")
    BenchUtil.row("LSH-Ensemble-lite (joinable, custkey)", "cust_keys",
      gen.truth.joinable(("cust_keys", "custkey")).size, f"$pK%.2f", f"$tK%.1f")
    println("paper (qualitative): discovery surfaces the related tables")

    assert(pU >= 0.5, s"unionable precision $pU")
    assert(pJ >= 0.5, s"joinable (city) precision $pJ")
    assert(pK >= 0.5, s"joinable (custkey) precision $pK")
  }

  test("noise tables stay out of the top-k for semantic queries") {
    val santos = new Santos(gen.lake, gen.kb)
    val hits = santos.discover(gen.lake.table("cases_p0"), None, 10).map(_.table)
    BenchUtil.header("SANTOS-lite top-10 for cases_p0")
    hits.foreach(h => BenchUtil.row(h, gen.truth.family(h)))
    assert(!hits.exists(_.startsWith("noise")))
  }
}

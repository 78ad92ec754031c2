package repro.bench

import repro.SparkSpec
import repro.core.{Alignment, FdFixtures, FullDisjunction, IntegratedTable, LocalTuple, OuterJoinIntegration}
import repro.er.EntityResolver
import repro.lake.LakeGen

/** §3.1/§3.2 claim at scale: FD is the better integration semantics for a
  * downstream ER task — it completes more entities than outer join
  * (Fig 8's J&J effect, over the SF=0.1 vaccine-fragment family). Also
  * times ER alone on inputs whose one low-cardinality attribute would make
  * per-attribute blocking quadratic.
  */
class ErDownstreamBench extends SparkSpec {

  private lazy val gen = LakeGen.generate(spark, sf = 0.1, seed = 7)

  private def completeEntities(it: IntegratedTable): Long = {
    val m = it.alignment.numIids
    EntityResolver.resolve(it).asTable.collect()
      .count(r => (1 to m).forall(!r.isNullAt(_))).toLong
  }

  test("FD completes at least as many entities as outer join after ER") {
    BenchUtil.header("ER downstream over integrated vaccine fragments (SF=0.1)")
    BenchUtil.row("integration set", "operator", "rows", "complete entities after ER")
    var fdTotal = 0L
    var ojTotal = 0L
    val frags = gen.lake.tableNames.filter(_.startsWith("vac_frag")).sorted
    val trioIds = frags.map(_.stripPrefix("vac_frag").takeWhile(_ != '_')).distinct
    for (t <- trioIds) {
      val set = frags.filter(_.startsWith(s"vac_frag$t")).map(n => n -> gen.lake.table(n))
      val fd = FullDisjunction.integrate(set)
      val oj = OuterJoinIntegration.integrate(set)
      val (fdC, ojC) = (completeEntities(fd), completeEntities(oj))
      BenchUtil.row(s"trio $t", "alite-fd", fd.asTable.count(), fdC)
      BenchUtil.row(s"trio $t", "outer-join", oj.asTable.count(), ojC)
      fdTotal += fdC; ojTotal += ojC
      assert(fdC >= ojC, s"trio $t: FD completed $fdC < outer join $ojC")
    }
    println(s"paper (shape): FD >= outer join on completed entities - " +
      s"measured $fdTotal vs $ojTotal")
    assert(fdTotal >= ojTotal && fdTotal > 0)
  }

  test("ER scales past a few thousand rows with a 25-value attribute") {
    BenchUtil.header("ER scale: 3 attributes, one with 25 values, no merges")
    BenchUtil.row("rows", "entities after ER", "resolve s")
    for (n <- Seq(2000, 4000, 8000)) {
      // Every pair agrees at most on `group`, one agreement short of a match.
      val ts = (0 until n).map { i =>
        LocalTuple(Vector(Some(s"id$i"), Some(s"g${i % 25}"), Some(s"name$i")), 7L, Set("T"), Set(s"t$i"))
      }
      val it = IntegratedTable(Alignment(Map.empty, Vector("id", "group", "name")),
        FdFixtures.toDf(spark, ts).localCheckpoint())
      val (entities, s) = BenchUtil.timed(EntityResolver.resolve(it).tuples.count())
      BenchUtil.row(n, entities, f"$s%.2f")
      assert(entities == n)
    }
  }
}

package repro.discovery

import repro.SparkSpec
import repro.lake.{InMemoryLake, LakeGen}

class LshEnsembleSpec extends SparkSpec {

  import spark.implicits._

  private lazy val gen = LakeGen.generate(spark, sf = 0.01, seed = 7)
  private lazy val lsh = new LshEnsemble(spark, gen.lake)

  test("joinable search finds the vaccination tables for a cases query (City)") {
    val query = gen.lake.table("cases_p0")
    val cityCol = query.columns(0) // generator puts the city column first
    val hits = lsh.discover(query, Some(cityCol), k = 10).map(_.table)
    val expected = gen.truth.joinable(("cases_p0", "City"))
    assert(expected.intersect(hits.toSet).nonEmpty,
      s"no vax table in $hits (expected some of $expected)")
  }

  test("joinable search on custkey finds both TPC-H fragments") {
    val query = gen.lake.table("cust_keys")
    val hits = lsh.discover(query, Some("custkey"), k = 10).map(_.table)
    assert(Set("cust_seg", "orders_cust").subsetOf(hits.toSet), hits.toString)
  }

  test("noise tables never outrank true joinable tables") {
    val query = gen.lake.table("cust_keys")
    val hits = lsh.discover(query, Some("custkey"), k = 3).map(_.table)
    assert(!hits.exists(_.startsWith("noise")), hits.toString)
  }

  test("containment scores are within [0, 1]") {
    val query = gen.lake.table("cases_p0")
    val hits = lsh.discover(query, Some(query.columns(0)), k = 20)
    assert(hits.forall(h => h.score >= 0.0 && h.score <= 1.0))
  }

  test("a fully contained query column scores near 1") {
    val big = (0 until 400).map(i => s"k$i").toDF("key")
    val small = (0 until 80).map(i => s"k$i").toDF("key")
    val lake = InMemoryLake(Map("big" -> big))
    val l = new LshEnsemble(spark, lake)
    val hits = l.discover(small, Some("key"), k = 1)
    assert(hits.nonEmpty && hits.head.score > 0.7, hits.toString)
  }

  test("requires a marked query column") {
    val query = gen.lake.table("cases_p0")
    intercept[IllegalArgumentException] { lsh.discover(query, None, 5) }
  }
}

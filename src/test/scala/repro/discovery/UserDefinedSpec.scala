package repro.discovery

import org.apache.spark.sql.DataFrame

import repro.SparkSpec
import repro.lake.InMemoryLake

/** The Fig 4 extension point: user-defined similarity as a discoverer. */
class UserDefinedSpec extends SparkSpec {

  import spark.implicits._

  test("InnerJoinRatio reproduces the Fig 4 formula") {
    val df1 = Seq(("k1", "a"), ("k2", "b"), ("k3", "c")).toDF("k", "x")
    val df2 = Seq(("k1", "p"), ("k2", "q"), ("k9", "r"), ("k8", "s")).toDF("k", "y")
    // natural inner join on k matches k1, k2 -> 2 rows; max(len) = 4
    assert(InnerJoinRatio.score(df1, df2) == 0.5)
  }

  test("InnerJoinRatio joins on all shared columns") {
    val df1 = Seq(("k1", "a"), ("k2", "b")).toDF("k", "x")
    val df2 = Seq(("k1", "a"), ("k2", "zzz")).toDF("k", "x")
    assert(InnerJoinRatio.score(df1, df2) == 0.5)
  }

  test("no shared columns scores zero (pandas would raise)") {
    val df1 = Seq(("a", "b")).toDF("p", "q")
    val df2 = Seq(("c", "d")).toDF("r", "s")
    assert(InnerJoinRatio.score(df1, df2) == 0.0)
  }

  test("SimilarityDiscoverer ranks lake tables by the user function") {
    val query = Seq(("k1", "a"), ("k2", "b")).toDF("k", "x")
    val strong = Seq(("k1", "1"), ("k2", "2")).toDF("k", "y")
    val weak = Seq(("k1", "1"), ("z", "2"), ("z2", "3"), ("z3", "4")).toDF("k", "y")
    val none = Seq(("q9", "1")).toDF("k", "y")
    val lake = InMemoryLake(Map("strong" -> strong, "weak" -> weak, "none" -> none))
    val d = new SimilarityDiscoverer("fig4", lake, InnerJoinRatio)
    val hits = d.discover(query, None, k = 3)
    assert(hits.map(_.table) == Seq("strong", "weak"))
    assert(hits.head.score == 1.0)
  }

  test("a discoverer supplying only scores gets them filtered, ranked and cut at k") {
    val fixed = new Discoverer {
      override def name: String = "fixed"
      override def scores(query: DataFrame, queryColumn: Option[String]): Seq[ScoredTable] = Seq(
        ScoredTable("zero", 0.0), ScoredTable("c", 0.5), ScoredTable("neg", -1.0),
        ScoredTable("b", 2.0), ScoredTable("a", 0.5), ScoredTable("d", 0.25))
    }
    val query = Seq(("k1", "a")).toDF("k", "x")
    assert(fixed.discover(query, None, k = 3) ==
      Seq(ScoredTable("b", 2.0), ScoredTable("a", 0.5), ScoredTable("c", 0.5)))
    assert(fixed.discover(query, None, k = 10).map(_.table) == Seq("b", "a", "c", "d"))
    assert(fixed.discover(query, None, k = 0).isEmpty)
  }

  test("top-k truncates") {
    val query = Seq(("k1", "a")).toDF("k", "x")
    val mk = (s: String) => Seq((s, "1")).toDF("k", "y")
    val lake = InMemoryLake(Map("a" -> mk("k1"), "b" -> mk("k1"), "c" -> mk("k1")))
    val d = new SimilarityDiscoverer("fig4", lake, InnerJoinRatio)
    assert(d.discover(query, None, k = 2).size == 2)
  }
}

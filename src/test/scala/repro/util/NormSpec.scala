package repro.util

import org.scalatest.funsuite.AnyFunSuite

class NormSpec extends AnyFunSuite {

  test("basic lowercases, trims and collapses whitespace") {
    assert(Norm.basic("  Mexico   City ") == "mexico city")
    assert(Norm.basic("USA") == "usa")
    assert(Norm.basic(null) == null)
  }

  test("alnum strips punctuation") {
    assert(Norm.alnum("J&J") == "jj")
    assert(Norm.alnum("United States of America") == "unitedstatesofamerica")
    assert(Norm.alnum(null) == null)
  }

  test("alnum keeps non-ASCII letters and digits") {
    assert(Norm.alnum("東京") == "東京")
    assert(Norm.alnum("Köln-Süd 2") == "kölnsüd2")
    assert(Norm.alnum("-") == "")
  }

  test("headerTokens splits on non-alphanumerics") {
    assert(Norm.headerTokens("Vaccination Rate (1+ dose)") ==
      Set("vaccination", "rate", "1", "dose"))
    assert(Norm.headerTokens("Total Cases") == Set("total", "cases"))
  }

  test("headerTokens keeps non-ASCII letters and digits") {
    assert(Norm.headerTokens("Población Total") == Set("población", "total"))
    assert(Norm.headerTokens("都市") == Set("都市"))
  }

  test("dummy headers yield no tokens") {
    assert(Norm.headerTokens("col3").isEmpty)
    assert(Norm.headerTokens("Unnamed: 0").isEmpty)
    assert(Norm.headerTokens("column12").isEmpty)
    assert(Norm.headerTokens("").isEmpty)
    assert(Norm.headerTokens(null).isEmpty)
  }

  test("meaningful single-letter-prefixed headers keep tokens") {
    assert(Norm.headerTokens("custkey") == Set("custkey"))
    assert(Norm.headerTokens("c_acctbal") == Set("c", "acctbal"))
  }

  test("jaccard on sets") {
    assert(Norm.jaccard(Set(1, 2), Set(2, 3)) == 1.0 / 3.0)
    assert(Norm.jaccard(Set(1), Set(1)) == 1.0)
    assert(Norm.jaccard(Set.empty[Int], Set(1)) == 0.0)
    assert(Norm.jaccard(Set(1), Set(2)) == 0.0)
  }
}

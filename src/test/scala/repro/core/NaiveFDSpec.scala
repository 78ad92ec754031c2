package repro.core

import org.scalatest.funsuite.AnyFunSuite

/** Driver-local FD reference semantics (no Spark needed). */
class NaiveFDSpec extends AnyFunSuite {

  private def t(table: String, tid: String, covered: Long, vs: Option[String]*) =
    LocalTuple(vs.toVector, covered, Set(table), Set(tid))

  private val S = Some(_: String)

  test("two tuples joining on a shared value combine") {
    val in = Seq(
      t("A", "a1", 0x3, S("x"), S("1"), None),
      t("B", "b1", 0x5, S("x"), None, S("2")),
    )
    val out = NaiveFD.bruteForce(in)
    assert(out.map(_.vals).toSet ==
      Set(Vector(S("x"), S("1"), S("2"))))
    assert(out.head.tids == Set("a1", "b1"))
    assert(out.head.covered == 0x7)
  }

  test("nulls never join") {
    val in = Seq(
      t("A", "a1", 0x1, None, S("1"), None),
      t("B", "b1", 0x1, None, None, S("2")),
    )
    val out = NaiveFD.bruteForce(in.map(x => x.copy(covered = 0x7)))
    assert(out.size == 2) // no shared non-null value -> both stay singletons
  }

  test("inconsistent tuples do not combine") {
    val in = Seq(
      t("A", "a1", 0x7, S("x"), S("1"), None),
      t("B", "b1", 0x7, S("x"), S("2"), None),
    )
    val out = NaiveFD.bruteForce(in)
    assert(out.size == 2)
  }

  test("tuples of the same table never combine") {
    val in = Seq(
      t("A", "a1", 0x3, S("x"), S("1")),
      t("A", "a2", 0x3, S("x"), None),
    )
    val out = NaiveFD.bruteForce(in)
    // a2 is value-dominated by a1 and removed; no combination happened
    assert(out.map(_.tids) == Seq(Set("a1")))
  }

  test("transitive connection integrates three tables (Fig 8(b) shape)") {
    // T4(vaccine, approver), T5(country, approver), T6(vaccine, country)
    val in = Seq(
      t("T4", "t11", 0x3, S("Pfizer"), S("FDA"), None),
      t("T4", "t12", 0x3, S("JnJ"), None, None),
      t("T5", "t13", 0x6, None, S("FDA"), S("United States")),
      t("T5", "t14", 0x6, None, None, S("USA")),
      t("T6", "t15", 0x5, S("J&J"), None, S("United States")),
      t("T6", "t16", 0x5, S("JnJ"), None, S("USA")),
    )
    val out = NaiveFD.bruteForce(in)
    val expect = Set(
      (Vector(S("Pfizer"), S("FDA"), S("United States")), Set("t11", "t13")),
      (Vector(S("JnJ"), None, S("USA")), Set("t12", "t14", "t16")),
      (Vector(S("J&J"), S("FDA"), S("United States")), Set("t13", "t15")),
    )
    assert(out.map(x => (x.vals, x.tids)).toSet == expect)
  }

  test("subsumed singletons are removed, unconnected singletons kept") {
    val in = Seq(
      t("A", "a1", 0x3, S("x"), S("1"), None),
      t("B", "b1", 0x5, S("x"), None, S("2")),
      t("C", "c1", 0x4, None, None, S("9")), // connects to nothing
    )
    val out = NaiveFD.bruteForce(in)
    assert(out.map(_.tids).toSet == Set(Set("a1", "b1"), Set("c1")))
  }

  test("a tuple can participate in two maximal sets (t13 in Fig 8)") {
    val in = Seq(
      t("A", "a1", 0x3, S("p"), S("f"), None),
      t("B", "b1", 0x6, None, S("f"), S("u")),
      t("C", "c1", 0x5, S("j"), None, S("u")),
    )
    val out = NaiveFD.bruteForce(in)
    // {a1,b1} consistent; {b1,c1} consistent; {a1,b1,c1} inconsistent (p vs j)
    assert(out.map(_.tids).toSet == Set(Set("a1", "b1"), Set("b1", "c1")))
  }

  test("iterative closure equals brute force on 300 random instances") {
    for (seed <- 1 to 300) {
      val in = FdFixtures.randomInstance(seed)
      if (in.nonEmpty) {
        val bf = FdFixtures.canon(NaiveFD.bruteForce(in))
        val it = FdFixtures.canon(NaiveFD.iterative(in))
        assert(it == bf, s"seed=$seed\nin=$in")
        val scan = FdFixtures.canon(NaiveFD.iterativeScan(in))
        assert(scan == bf, s"iterativeScan, seed=$seed\nin=$in")
      }
    }
  }

  test("outputs are never value-dominated by another output") {
    for (seed <- 1 to 50) {
      val out = NaiveFD.bruteForce(FdFixtures.randomInstance(seed))
      for (a <- out; b <- out if a != b) {
        val dominated = a.vals.indices.forall(j =>
          a.vals(j).isEmpty || a.vals(j) == b.vals(j)) &&
          b.nonNullCount > a.nonNullCount
        assert(!dominated, s"seed=$seed: $a dominated by $b")
      }
    }
  }

  test("every input tuple is represented by some output") {
    for (seed <- 1 to 50) {
      val in = FdFixtures.randomInstance(seed)
      val out = NaiveFD.bruteForce(in)
      for (t <- in) {
        val represented = out.exists(o =>
          t.vals.indices.forall(j => t.vals(j).isEmpty || t.vals(j) == o.vals(j)))
        assert(represented, s"seed=$seed: $t lost")
      }
    }
  }
}

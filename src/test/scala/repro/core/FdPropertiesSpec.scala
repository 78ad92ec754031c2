package repro.core

import repro.SparkSpec

/** Differential testing: the Spark FD must agree with the independent
  * driver-local brute-force enumeration on randomized instances.
  */
class FdPropertiesSpec extends SparkSpec {

  private def check(seed: Long): Unit = {
    val in = FdFixtures.randomInstance(seed)
    if (in.nonEmpty) {
      val expected = FdFixtures.canon(NaiveFD.bruteForce(in))
      val got = FdFixtures.canon(FdFixtures.fromDf(
        FullDisjunction.integrateAligned(FdFixtures.byTable(spark, in))))
      assert(got == expected, s"seed=$seed\ninput=${in.mkString("\n")}")
    }
  }

  for (batch <- 0 until 5) {
    test(s"Spark FD equals brute-force reference on random instances (batch $batch)") {
      for (seed <- (batch * 6 + 1) to (batch * 6 + 6)) check(seed * 1000 + 17)
    }
  }

  test("Spark FD equals reference on instances with many missing nulls") {
    // Seeds chosen so null probability shows up heavily in small domains.
    for (seed <- Seq(31337L, 4242L, 999L, 123456L)) check(seed)
  }

  test("Spark FD is deterministic across runs") {
    val in = FdFixtures.randomInstance(777)
    val r1 = FdFixtures.canon(FdFixtures.fromDf(
      FullDisjunction.integrateAligned(FdFixtures.byTable(spark, in))))
    val r2 = FdFixtures.canon(FdFixtures.fromDf(
      FullDisjunction.integrateAligned(FdFixtures.byTable(spark, in))))
    assert(r1 == r2)
  }

  test("ParaFD's Spark value merge and subsumption equal the shared local finish") {
    // The raw closures of random instances hold value-identical and
    // dominated sets; FD and both NaiveFD references end in NaiveFD.finish.
    val instances = Iterator.from(1).map(seed => FdFixtures.randomInstance(seed * 7919L + 3)).filter(_.nonEmpty)
    for (in <- instances.take(100)) {
      val sets = FdFixtures.validSets(in.toVector)
      val got = ParaFD.subsume(ParaFD.dedupValues(FdFixtures.toDf(spark, sets)))
      assert(FdFixtures.canon(FdFixtures.fromDf(got)) == FdFixtures.canon(NaiveFD.finish(sets)),
        in.mkString("\n"))
    }
  }
}

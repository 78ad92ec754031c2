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
        FullDisjunction.integrateAligned(FdFixtures.toDf(spark, in), FdFixtures.tableCount(in))))
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
    val n = FdFixtures.tableCount(in)
    val r1 = FdFixtures.canon(FdFixtures.fromDf(
      FullDisjunction.integrateAligned(FdFixtures.toDf(spark, in), n)))
    val r2 = FdFixtures.canon(FdFixtures.fromDf(
      FullDisjunction.integrateAligned(FdFixtures.toDf(spark, in), n)))
    assert(r1 == r2)
  }
}

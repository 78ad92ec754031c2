package repro.core

import org.apache.spark.sql.DataFrame

import repro.SparkSpec
import repro.demo.PaperTables

/** The integration plug-in contract: an operator supplies only `combine`,
  * and `Integrator.integrate` rejects, aligns and wraps for every operator.
  */
class IntegratorSpec extends SparkSpec {

  test("an operator supplying only combine receives each table's aligned tuples in set order") {
    var received = Seq.empty[(String, Set[LocalTuple])]
    val firstTable = new Integrator {
      override def name: String = "first-table"
      override protected def combine(aligned: Seq[(String, DataFrame)],
                                     alignment: Alignment): DataFrame = {
        received = aligned.map { case (t, df) => t -> FdFixtures.fromDf(df) }
        aligned.head._2
      }
    }
    val tables = PaperTables.fig7(spark).reverse // T6, T5, T4
    val it = firstTable.integrate(tables)
    val expected = tables.map { case (t, df) =>
      t -> FdFixtures.fromDf(AlignedTuples.forTable(t, df, it.alignment))
    }
    assert(received.map(_._1) == Seq("T6", "T5", "T4"))
    assert(received == expected)
    assert(it.alignment == new HolisticMatcher().align(tables))
    assert(FdFixtures.fromDf(it.tuples) == expected.head._2)
  }

  test("every operator rejects an empty integration set with one message") {
    for (op <- Seq[Integrator](FullDisjunction, ParaFD, OuterJoinIntegration)) {
      val e = intercept[IllegalArgumentException](op.integrate(Nil))
      assert(e.getMessage == "requirement failed: integration set is empty", op.name)
    }
  }
}

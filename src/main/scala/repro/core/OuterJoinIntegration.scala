package repro.core

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._

import AlignedTuples._

/** The paper's alternative integration operator (Fig 6): a left-to-right
  * fold of full outer joins over the columns the accumulated result shares
  * with the next table (pandas `merge(how="outer")` on common columns).
  *
  * SQL null semantics — null join keys never match — which is exactly what
  * Fig 8(a) shows (t12 and t14 stay unmatched). Unlike FD, the operator is
  * not associative and loses facts that need a transitive connection
  * (the J&J→FDA tuple f13 of Fig 8(b) is unrecoverable here).
  */
object OuterJoinIntegration extends Integrator {

  override def name: String = "outer-join"

  override protected def combine(aligned: Seq[(String, DataFrame)], alignment: Alignment): DataFrame =
    aligned.map { case (t, df) => (alignment.iids(t), df) }.reduceLeft[(Set[Int], DataFrame)] {
      case ((accIids, accDf), (nextIids, nextDf)) =>
        (accIids ++ nextIids, join(accDf, nextDf, (accIids & nextIids).toSeq.sorted))
    }._2

  /** One fold step: FULL OUTER JOIN on every integration ID both sides
    * cover (`shared`), then coalesce into the universal-schema representation.
    */
  private def join(accDf: DataFrame, nextDf: DataFrame, shared: Seq[Int]): DataFrame = {
    // pandas raises on merge without common columns; with everything padded
    // a never-true condition degrades gracefully to the outer union.
    val cond: Column =
      if (shared.isEmpty) lit(false)
      else shared.map(j => col("a_" + ValsCol).getItem(j) === col("b_" + ValsCol).getItem(j))
        .reduce(_ && _)
    prefixed(accDf, "a_").join(prefixed(nextDf, "b_"), cond, "full_outer").select(mergedPair: _*)
  }
}

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

  override def integrate(tables: Seq[(String, DataFrame)],
                         matcher: SchemaMatcher): IntegratedTable = {
    require(tables.nonEmpty, "integration set is empty")
    val alignment = matcher.align(tables)
    val m = alignment.numIids
    val aligned = tables.map { case (t, df) =>
      (alignment.coverage(t), AlignedTuples.forTable(t, df, alignment))
    }
    val (_, folded) = aligned.reduceLeft { (acc, next) =>
      val (accCov, accDf) = acc
      val (nextCov, nextDf) = next
      (accCov | nextCov, join(accDf, nextDf, accCov, nextCov, m))
    }
    IntegratedTable(alignment, folded)
  }

  /** One fold step: FULL OUTER JOIN on every integration ID both sides
    * cover, then coalesce into the universal-schema representation.
    */
  private def join(accDf: DataFrame, nextDf: DataFrame,
                   accCov: Long, nextCov: Long, m: Int): DataFrame = {
    val shared = (0 until m).filter(j => (accCov & nextCov & (1L << j)) != 0L)
    // pandas raises on merge without common columns; with everything padded
    // a never-true condition degrades gracefully to the outer union.
    val cond: Column =
      if (shared.isEmpty) lit(false)
      else shared.map(j => col("a_" + ValsCol).getItem(j) === col("b_" + ValsCol).getItem(j))
        .reduce(_ && _)
    prefixed(accDf, "a_").join(prefixed(nextDf, "b_"), cond, "full_outer").select(mergedPair: _*)
  }
}

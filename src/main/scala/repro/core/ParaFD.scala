package repro.core

import org.apache.spark.sql.DataFrame

import AlignedTuples._

/** Baseline: Full Disjunction as a left fold of *binary* full disjunctions
  * (the strategy parallelized by Paganelli et al. [10]).
  *
  * A binary FD needs a single combination round (maximal sets contain at
  * most one tuple per side), so each step is: pairs ∪ both inputs, merge
  * value-duplicates, drop subsumed. The fold is correct on γ-acyclic
  * integration sets (which covers the paper's examples and our key–FK lake
  * families) but, unlike ALITE's closure, is not correct in general — it is
  * here as the runtime baseline the paper claims ALITE beats.
  */
object ParaFD extends Integrator {

  override def name: String = "parafd"

  override def integrate(tables: Seq[(String, DataFrame)],
                         matcher: SchemaMatcher): IntegratedTable = {
    require(tables.nonEmpty, "integration set is empty")
    val alignment = matcher.align(tables)
    val aligned = tables.map { case (t, df) =>
      AlignedTuples.forTable(t, df, alignment)
    }
    val folded = aligned.reduceLeft(binaryFd)
    IntegratedTable(alignment, folded)
  }

  /** FD of exactly two aligned tuple sets. */
  private def binaryFd(a: DataFrame, b: DataFrame): DataFrame = {
    val all = a.unionByName(FullDisjunction.combineRound(a, b)).unionByName(b)
      .dropDuplicates(ValsCol, TidsCol)
    FullDisjunction.subsume(FullDisjunction.dedupValues(all)).localCheckpoint()
  }
}

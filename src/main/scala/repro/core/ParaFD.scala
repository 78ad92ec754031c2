package repro.core

import org.apache.spark.sql.DataFrame

/** Baseline: Full Disjunction as a left fold of *binary* full disjunctions
  * (the strategy parallelized by Paganelli et al. [10]).
  *
  * A binary FD needs a single combination round (maximal sets contain at
  * most one tuple per side), so each step is one pairwise join
  * (`FullDisjunction.combineRound`): pairs ∪ both inputs, merge
  * value-duplicates, drop subsumed. The fold is correct on γ-acyclic integration sets (which
  * covers the paper's examples and our key–FK lake families) but, unlike
  * ALITE's closure, is not correct in general — it is here as the runtime
  * baseline the paper claims ALITE beats.
  */
object ParaFD extends Integrator {

  override def name: String = "parafd"

  override protected def combine(aligned: Seq[(String, DataFrame)], alignment: Alignment): DataFrame =
    integrateAligned(aligned.map(_._2))

  /** The fold over an integration set's aligned tuples, one frame per table
    * (each `AlignedTuples.forTable`) in fold order: the input
    * `FullDisjunction.integrateAligned` takes. The FD of one table is its
    * value merge and subsumption, with nothing to combine.
    */
  def integrateAligned(perTable: Seq[DataFrame]): DataFrame = {
    require(perTable.nonEmpty, "integrateAligned needs the tuples of at least one table")
    if (perTable.size == 1) merged(perTable.head)
    else perTable.reduceLeft { (a, b) =>
      merged(a.unionByName(FullDisjunction.combineRound(a, b)).unionByName(b))
    }
  }

  /** Value-identical tuples merged (which drops exact duplicates too) and
    * dominated ones dropped.
    */
  private def merged(all: DataFrame): DataFrame =
    FullDisjunction.subsume(FullDisjunction.dedupValues(all)).localCheckpoint()
}

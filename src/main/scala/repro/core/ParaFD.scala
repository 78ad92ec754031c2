package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

import AlignedTuples._

/** Baseline: Full Disjunction as a left fold of *binary* full disjunctions
  * (the strategy parallelized by Paganelli et al. [10]).
  *
  * A binary FD needs a single combination round (maximal sets contain at
  * most one tuple per side), so each step is one pairwise join
  * (`FullDisjunction.combineRound`): pairs ∪ both inputs, then a Spark
  * value merge and subsumption (`dedupValues`, `subsume`) over the whole
  * step's output. The fold is correct on γ-acyclic integration sets (which
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
  private def merged(all: DataFrame): DataFrame = subsume(dedupValues(all)).localCheckpoint()

  /** Merge value-identical tuples: coverage ORed, tables and TIDs unioned.
    * FD keeps the maximal sets only, but the union of a group's TID sets
    * equals the union of its maximal ones: every set lies inside one.
    */
  private[core] def dedupValues(closed: DataFrame): DataFrame = {
    def union(c: String) = array_sort(array_distinct(flatten(collect_list(c)))).as(c)
    closed.groupBy(ValsCol).agg(expr(s"bit_or($CoveredCol)").as(CoveredCol), union(TabsCol), union(TidsCol))
  }

  /** Remove value-dominated tuples. `u` dominates `t` when `u` agrees with
    * every non-null value of `t` and has strictly more non-null values.
    * A dominator must share `t`'s first non-null value, so one left
    * anti-join of `t`'s first (position, value) against every (position,
    * value) of `u` keeps the undominated rows. One join rather than one per
    * attribute: the optimizer pushes a per-attribute filter below the dedup
    * aggregate, which gives every such join its own shuffle. Anti-joining
    * whole rows reads the aggregate twice, not a third time to drop the
    * dominated values.
    */
  private[core] def subsume(dedup: DataFrame): DataFrame = {
    val nn = size(filter(col(ValsCol), v => v.isNotNull))
    val t = dedup.select(col("*"), nn.as("t_nn"),
      (array_position(transform(col(ValsCol), _.isNotNull), true) - 1).as("t_pos"))
    val u = dedup.select(col(ValsCol).as("u_vals"), nn.as("u_nn"),
      posexplode(col(ValsCol)).as(Seq("u_pos", "u_v")))
    val dominates =
      forall(zip_with(col(ValsCol), col("u_vals"), (x, y) => x.isNull || x === y), identity) &&
        col("u_nn") > col("t_nn")
    t.join(u, col("t_pos") === col("u_pos") && col(ValsCol)(col("t_pos")) === col("u_v") && dominates,
        "left_anti")
      .drop("t_nn", "t_pos")
  }
}

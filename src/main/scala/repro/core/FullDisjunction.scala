package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

import AlignedTuples._

/** ALITE's integration result: tuples in integration-ID space plus the
  * alignment that produced them.
  *
  * `tuples` columns: `vals` (array<string>), `covered` (Long bitmask of
  * attributes some contributing table had a column for), `tabs`, `tids`.
  */
final case class IntegratedTable(alignment: Alignment, tuples: DataFrame) {

  /** Output attribute names (one per integration ID). */
  def columnNames: Vector[String] = alignment.names

  /** Plain relational view: `TIDs` + one string column per integration ID.
    * Missing and produced nulls are both SQL nulls here (analytics view).
    */
  def asTable: DataFrame = {
    val valueCols = columnNames.zipWithIndex.map { case (n, i) =>
      col(ValsCol).getItem(i).as(n)
    }
    tuples.select(col(TidsCol).as("TIDs") +: valueCols: _*)
  }

  /** Presentation view distinguishing the paper's two null kinds: a cell
    * is `±` when the attribute was covered by a contributing table but the
    * value was missing in the input, `⊥` when no contributing table had
    * the attribute (null produced by integration padding).
    */
  def rendered: DataFrame = {
    val valueCols = columnNames.zipWithIndex.map { case (n, i) =>
      val covered = col(CoveredCol).bitwiseAND(lit(1L << i)) =!= 0L
      coalesce(col(ValsCol).getItem(i), when(covered, lit("±")).otherwise(lit("⊥"))).as(n)
    }
    tuples.select(concat_ws(",", col(TidsCol)).as("TIDs") +: valueCols: _*)
  }
}

/** Spark implementation of ALITE's Full Disjunction.
  *
  * Semantics (see DESIGN.md §2): one output tuple per maximal set S of
  * input tuples with ≤1 tuple per table, join-consistent on every
  * integration ID, and connected via shared non-null equal attributes;
  * value-subsumed outputs removed. Nulls never join.
  *
  * Algorithm: pairwise complementation closure grown from the base tuples.
  * Each round joins the frontier (the tuples built last round) against the
  * base tuples in one equi-join on a shared (position, value), keeps
  * consistent table-disjoint pairs and coalesces each into one tuple.
  * Tuples are keyed on their `vals` array (and `tids`) themselves, so no
  * value can collide with an encoding of another. Lineage is cut every
  * round with `localCheckpoint`. Finally, value-identical rows are merged
  * (keeping maximal TID-sets) and dominated rows removed by one subsumption
  * join.
  *
  * Why growing from the base is enough: a connected, consistent set can be
  * built one base tuple at a time in BFS order of its connection graph, and
  * every prefix along the way is itself connected and consistent. A tuple
  * that is consistent with a prefix's combined tuple is consistent with
  * each of its members, and one sharing a value with the combined tuple
  * shares it with some member, so round r builds exactly the valid sets of
  * r+1 base tuples.
  *
  * Why the loop needs no anti-join and stops after n−1 rounds over n
  * tables: every round adds one table to each tuple (joined sides are
  * table-disjoint). So a round cannot rebuild an earlier generation's
  * tuple, and after round r every frontier tuple spans r+1 tables, so a
  * round n would find no table-disjoint partner. The loop also stops early
  * on an empty frontier.
  */
object FullDisjunction extends Integrator {

  override def name: String = "alite-fd"

  /** Align with `matcher` and integrate with FD. */
  override def integrate(tables: Seq[(String, DataFrame)],
                         matcher: SchemaMatcher): IntegratedTable = {
    require(tables.nonEmpty, "integration set is empty")
    val alignment = matcher.align(tables)
    val t0 = AlignedTuples.build(tables, alignment)
    IntegratedTable(alignment, integrateAligned(t0, tables.map(_._1).distinct.size))
  }

  /** FD over an already-aligned outer union (`AlignedTuples.build` shape).
    * Exposed for the tests and `IntegrationScaleBench`, which integrate
    * prepared tuples without a matcher; the ParaFD baseline reuses the
    * steps (`combineRound`, `dedupValues`, `subsume`), not this entry.
    * `tables` is the number of distinct tables in `t0`'s `tabs`; the
    * closure runs at most `tables − 1` rounds, so a smaller count loses
    * the larger sets.
    */
  def integrateAligned(t0: DataFrame, tables: Int): DataFrame = {
    require(tables >= 1, s"table count must be at least 1, got $tables")
    subsume(dedupValues(closure(t0, tables)))
  }

  // ---------------------------------------------------------------- closure

  /** Every connected, consistent, table-disjoint set of input tuples as one
    * combined tuple: the union of the base and of each round's frontier.
    * A tuple of generation r spans r+1 tables, so `tables − 1` rounds
    * build every set.
    */
  private def closure(t0: DataFrame, tables: Int): DataFrame = {
    val base = t0.dropDuplicates(ValsCol, TidsCol).localCheckpoint()
    var generations = Vector(base)
    var frontier = base
    while (generations.size < tables && !frontier.isEmpty) {
      frontier = combineRound(frontier, base).dropDuplicates(ValsCol, TidsCol).localCheckpoint()
      generations :+= frontier
    }
    generations.reduce(_ unionByName _)
  }

  /** All consistent, connected, table-disjoint pairs of `a` × `b`,
    * coalesced into combined tuples. One equi-join of each side's non-null
    * (position, value)s; a pair sharing several values joins once per
    * shared value, so only the match at its first shared position is kept.
    */
  private[core] def combineRound(a: DataFrame, b: DataFrame): DataFrame = {
    def exploded(df: DataFrame, p: String): DataFrame =
      prefixed(df, p)
        .select(col("*"), posexplode(col(p + ValsCol)).as(Seq(p + "pos", p + "v")))
        .where(col(p + "v").isNotNull)
    val (av, bv) = (col("a_" + ValsCol), col("b_" + ValsCol))
    val consistent =
      forall(zip_with(av, bv, (x, y) => x.isNull || y.isNull || x === y), identity)
    val firstShared = array_position(zip_with(av, bv, _ === _), true) - 1
    val tableDisjoint =
      size(array_intersect(col("a_" + TabsCol), col("b_" + TabsCol))) === 0
    exploded(a, "a_").join(exploded(b, "b_"),
        col("a_pos") === col("b_pos") && col("a_v") === col("b_v") &&
          tableDisjoint && consistent && col("a_pos") === firstShared)
      .select(mergedPair: _*)
  }

  // ------------------------------------------------- dedup and subsumption

  /** Keep the union of ⊆-maximal TID-sets among value-identical tuples:
    * the closure materializes every connected consistent subset, but FD is
    * defined over maximal sets only.
    */
  private val mergeMaximalTidSets = udf { (tidsets: Seq[Seq[String]]) =>
    val sets = tidsets.map(_.toSet).distinct
    val maximal = sets.filter(s => !sets.exists(t => t != s && s.subsetOf(t)))
    maximal.flatten.distinct.sorted
  }

  private[core] def dedupValues(closed: DataFrame): DataFrame =
    closed
      .groupBy(ValsCol)
      .agg(
        expr(s"bit_or($CoveredCol)").as(CoveredCol),
        array_sort(array_distinct(flatten(collect_list(TabsCol)))).as(TabsCol),
        mergeMaximalTidSets(collect_list(TidsCol)).as(TidsCol),
      )

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

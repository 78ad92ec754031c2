package repro.core

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

import scala.collection.mutable

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
  * Algorithm: a complementation closure in one pass of Spark tasks, then
  * one shuffle by connected component. The input tuples are collected
  * once, deduplicated on (`vals`, `tids`) and broadcast with one
  * (position, value) → tuple index and each tuple's connected component
  * (a union-find over the index on the driver). Each task takes a
  * round-robin share of the tuples as seeds, and each seed grows, by BFS,
  * every valid set (connected, consistent, table-disjoint) whose smallest
  * base index is the seed's own. So every valid set is built exactly once
  * (the idea of ESU: Wernicke, "Efficient detection of network motifs",
  * TCBB 2006). Each set is keyed by its seed's component, and after one
  * `groupByKey` each component's sets get `NaiveFD`'s local finish:
  * value-identical sets merged (the union of their TID sets, which equals
  * the union of the maximal ones), dominated ones dropped. The driver holds
  * the input tuples, never the output.
  *
  * Why BFS from the smallest member reaches every valid set: a connected,
  * consistent set can be built one tuple at a time in BFS order of its
  * connection graph from any member, and every prefix along the way is
  * itself connected, consistent and table-disjoint (the last two are
  * hereditary). A tuple that is consistent with a prefix's combined tuple
  * is consistent with each of its members, and one sharing a value with a
  * member shares it with the combined tuple, so a partner found through
  * the index extends the prefix exactly when the extension is valid.
  *
  * Why the finish needs no set outside its component: a valid set is
  * connected, so all its members lie in its seed's component. Two
  * value-identical sets share every non-null value, and every input tuple
  * has one (`AlignedTuples.forTable` drops all-null rows), so they hold
  * members that share a (position, value). A dominator agrees with the
  * dominated set's first non-null (position, value), so again some
  * members share one. All of a component's sets go to one reduce task,
  * so one giant component (a value most tuples share) finishes on one
  * core.
  */
object FullDisjunction extends Integrator {

  override def name: String = "alite-fd"

  override protected def combine(aligned: Seq[(String, DataFrame)], alignment: Alignment): DataFrame =
    integrateAligned(aligned.map(_._2))

  /** FD over an integration set's aligned tuples, one frame per table (each
    * `AlignedTuples.forTable`). Exposed for the tests and
    * `IntegrationScaleBench`, which integrate prepared tuples without a
    * matcher.
    */
  def integrateAligned(perTable: Seq[DataFrame]): DataFrame = {
    require(perTable.nonEmpty, "integrateAligned needs the tuples of at least one table")
    val sets = closure(perTable)
    val rows = sets.groupByKey(sets.getNumPartitions)
      .flatMap { case (_, component) => NaiveFD.finish(component.toVector) }
      .map(_.toRow)
    perTable.head.sparkSession.createDataFrame(rows, schema)
  }

  // ---------------------------------------------------------------- closure

  /** Every connected, consistent, table-disjoint set of input tuples as one
    * combined tuple, each set once, keyed by the connected component of its
    * members. One job collects the input (bounded by
    * `spark.driver.maxResultSize`, like any collect); the sets are grown
    * lazily in the tasks of whatever reads the result. A second read of
    * `integrateAligned`'s result reuses the shuffle's map output while
    * Spark keeps it, so only the per-component finish runs again.
    */
  private[core] def closure(perTable: Seq[DataFrame]): RDD[(Int, LocalTuple)] = {
    val input = perTable.reduce(_ unionAll _)
    val base = input.collect().iterator.map(LocalTuple.fromRow).toVector.distinctBy(t => (t.vals, t.tids))
    require(base.forall(_.nonNullCount > 0),
      "every aligned tuple needs a value (AlignedTuples.forTable drops all-null rows)")
    val index: Map[(Int, String), Seq[Int]] = base.indices
      .flatMap(i => base(i).vals.zipWithIndex.collect { case (Some(v), j) => (j, v) -> i })
      .groupMap(_._1)(_._2)
    val sc = input.sparkSession.sparkContext
    val shared = sc.broadcast((base, index, components(base.size, index.values)))
    // Round-robin seeds: the first table's tuples own most multi-table sets.
    val slices = math.max(1, math.min(sc.defaultParallelism, base.size))
    sc.parallelize(0 until slices, slices).flatMap { slice =>
      val (base, index, component) = shared.value
      (slice until base.size by slices).iterator.flatMap(seed => grow(base, index, seed).map(component(seed) -> _))
    }
  }

  /** Each of `n` tuples' connected component, named by its smallest
    * member: a union-find over the groups of tuples sharing a (position,
    * value).
    */
  private def components(n: Int, groups: Iterable[Seq[Int]]): Vector[Int] = {
    val parent = Array.range(0, n)
    def root(i: Int): Int = {
      var r = i
      while (parent(r) != r) { parent(r) = parent(parent(r)); r = parent(r) }
      r
    }
    for (g <- groups; i <- g.tail) {
      val (a, b) = (root(g.head), root(i))
      parent(math.max(a, b)) = math.min(a, b)
    }
    Vector.tabulate(n)(root)
  }

  /** The valid sets whose smallest base index is `seed`, by BFS: a set's
    * partners are the index hits above `seed` outside it that share no
    * table with it and are consistent with its combined tuple. The member
    * sets already built stop a second path to the same set.
    */
  private def grow(base: Vector[LocalTuple], index: Map[(Int, String), Seq[Int]],
                   seed: Int): Vector[LocalTuple] = {
    val seen = mutable.HashSet(Set(seed))
    val queue = mutable.Queue(Set(seed) -> base(seed))
    val built = Vector.newBuilder[LocalTuple]
    while (queue.nonEmpty) {
      val (members, t) = queue.dequeue()
      built += t
      for {
        (v, j) <- t.vals.zipWithIndex
        value <- v
        p <- index((j, value)) if p > seed && !members(p)
        b = base(p)
        grown = members + p
        if t.tabs.intersect(b.tabs).isEmpty &&
          t.vals.lazyZip(b.vals).forall((x, y) => x.isEmpty || y.isEmpty || x == y) &&
          seen.add(grown)
      } queue.enqueue(grown -> LocalTuple.merged(t.vals.lazyZip(b.vals).map(_ orElse _), Seq(t, b)))
    }
    built.result()
  }

  /** All consistent, connected, table-disjoint pairs of `a` × `b`,
    * coalesced into combined tuples: `ParaFD`'s binary step. One equi-join
    * of each side's non-null (position, value)s; a pair sharing several
    * values joins once per shared value, so only the match at its first
    * shared position is kept.
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
}

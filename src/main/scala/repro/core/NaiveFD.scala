package repro.core

import scala.collection.mutable

/** Driver-local Full Disjunction implementations.
  *
  * `bruteForce` enumerates every subset of input tuples and is the
  * *independent correctness reference* for the Spark implementation
  * (property tests compare them on random instances).
  *
  * `iterative` and `iterativeScan` run the complementation closure in
  * rounds, tuple-at-a-time on one thread, standing in for the
  * polynomial-delay FD iterators of Cohen et al. [2] in the runtime
  * comparison benches. They build the same valid sets as
  * `FullDisjunction`'s one-pass closure by a different enumeration (one
  * table added per round, duplicates dropped per round). All three end in
  * `finish`, the one value merge and subsumption that `FullDisjunction`
  * also runs per connected component, so outputs are directly comparable;
  * `ParaFD`'s Spark plan for the same step is checked against it.
  */
object NaiveFD {

  /** Pairwise join-consistency: every attribute where both tuples are
    * non-null agrees.
    */
  def consistent(a: LocalTuple, b: LocalTuple): Boolean =
    a.vals.indices.forall { j =>
      a.vals(j).isEmpty || b.vals(j).isEmpty || a.vals(j) == b.vals(j)
    }

  /** Connectivity edge: some attribute non-null and equal on both sides. */
  def connected(a: LocalTuple, b: LocalTuple): Boolean =
    a.vals.indices.exists(j => a.vals(j).isDefined && a.vals(j) == b.vals(j))

  private def combine(a: LocalTuple, b: LocalTuple): LocalTuple =
    LocalTuple.merged(Vector.tabulate(a.vals.size)(j => a.vals(j).orElse(b.vals(j))), Seq(a, b))

  private def dominates(u: LocalTuple, t: LocalTuple): Boolean =
    u.nonNullCount > t.nonNullCount &&
      t.vals.indices.forall(j => t.vals(j).isEmpty || t.vals(j) == u.vals(j))

  /** Merge value-identical results (the union of their TID sets, which
    * equals the union of the maximal ones), then drop value-dominated rows.
    * Every result needs a non-null value. `FullDisjunction` runs this on
    * each connected component's sets.
    */
  private[core] def finish(results: Seq[LocalTuple]): Seq[LocalTuple] = {
    val byVals = results.groupBy(_.vals).toVector.map { case (vals, group) => LocalTuple.merged(vals, group) }
    // A dominator must share the dominated tuple's first non-null value.
    val index = byValue(byVals)
    byVals.filter { t =>
      val fj = t.vals.indexWhere(_.isDefined)
      !index((fj, t.vals(fj).get)).exists(dominates(_, t))
    }.sortBy(_.vals.map(_.getOrElse("")).mkString(""))
  }

  /** Tuples by each non-null (attribute, value) they hold: an inverted
    * index that keeps the baselines usable at benchmark sizes.
    */
  private def byValue(ts: Seq[LocalTuple]): Map[(Int, String), Seq[LocalTuple]] =
    ts.flatMap(t => t.vals.zipWithIndex.collect { case (Some(v), j) => (j, v) -> t })
      .groupMap(_._1)(_._2)

  /** Exponential reference: every maximal valid subset of tuples.
    * Valid = ≤1 tuple per table, pairwise consistent, connected.
    */
  def bruteForce(tuples: Seq[LocalTuple]): Seq[LocalTuple] = {
    val n = tuples.size
    require(n <= 16, s"bruteForce is 2^n; got n=$n")
    val ts = tuples.toVector

    def valid(idxs: List[Int]): Boolean = {
      val sel = idxs.map(ts)
      val allTabs = sel.flatMap(_.tabs)
      val onePerTable = allTabs.distinct.size == allTabs.size
      def pairwise = sel.combinations(2).forall(p => consistent(p.head, p.last))
      def isConnected: Boolean = {
        if (sel.size <= 1) true
        else {
          val seen = mutable.Set(0)
          val queue = mutable.Queue(0)
          while (queue.nonEmpty) {
            val c = queue.dequeue()
            for (o <- sel.indices if !seen(o) && connected(sel(c), sel(o))) {
              seen += o; queue += o
            }
          }
          seen.size == sel.size
        }
      }
      onePerTable && pairwise && isConnected
    }

    val validSets = (1 until (1 << n)).flatMap { mask =>
      val idxs = (0 until n).filter(i => (mask & (1 << i)) != 0).toList
      if (valid(idxs)) Some(idxs.toSet) else None
    }
    val maximal = validSets.filter(s => !validSets.exists(t => t != s && s.subsetOf(t)))
    finish(maximal.map(_.toList.map(ts).reduce(combine)))
  }

  /** The closure with partners looked up in an inverted (attribute, value)
    * index over the base, so the cost is proportional to the number of
    * joining pairs: the Spark closure's work on one thread. Output equals
    * `bruteForce`.
    */
  def iterative(tuples: Seq[LocalTuple]): Seq[LocalTuple] = closure(tuples) { base =>
    val index = byValue(base)
    f => f.vals.indices.flatMap(j => f.vals(j).toSeq.flatMap(v => index.getOrElse((j, v), Nil))).distinct
  }

  /** The nested-loop variant of `iterative`: every frontier tuple scans
    * all base tuples for partners, the way the NLOJ-based polynomial-delay
    * iterators of [2] rescan relations. Same output; used as the [2]
    * baseline in `IntegrationScaleBench`. Quadratic — keep inputs small.
    */
  def iterativeScan(tuples: Seq[LocalTuple]): Seq[LocalTuple] =
    closure(tuples)(base => f => base.filter(connected(f, _)))

  /** The closure in rounds over local tuples: each round combines every
    * frontier tuple with each table-disjoint, consistent partner among the
    * deduplicated base tuples (`partnersIn(base)` finds the ones sharing a
    * value), and the distinct combinations form the next frontier. Every
    * valid set grows one base tuple at a time through valid prefixes (see
    * `FullDisjunction`), so round r builds exactly the valid sets of r+1
    * base tuples, no round rebuilds an earlier one's tuple, and the
    * frontier empties after at most n−1 rounds over n tables.
    */
  private def closure(tuples: Seq[LocalTuple])(
      partnersIn: Seq[LocalTuple] => LocalTuple => Iterable[LocalTuple]): Seq[LocalTuple] = {
    def distinctTuples(ts: Seq[LocalTuple]) = ts.distinctBy(t => (t.vals, t.tids))
    val base = distinctTuples(tuples)
    val partners = partnersIn(base)
    val built = Vector.newBuilder[LocalTuple]
    var frontier = base
    while (frontier.nonEmpty) {
      built ++= frontier
      frontier = distinctTuples(for {
        f <- frontier
        b <- partners(f) if f.tabs.intersect(b.tabs).isEmpty && consistent(f, b)
      } yield combine(f, b))
    }
    finish(built.result())
  }
}

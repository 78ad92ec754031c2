package repro.core

import scala.collection.mutable

/** A tuple of the universal (integration-ID) schema held on the driver. */
final case class LocalTuple(vals: Vector[Option[String]], covered: Long,
                            tabs: Set[String], tids: Set[String]) {
  def nonNullCount: Int = vals.count(_.isDefined)
}

/** Driver-local Full Disjunction implementations.
  *
  * `bruteForce` enumerates every subset of input tuples and is the
  * *independent correctness reference* for the Spark implementation
  * (property tests compare them on random instances).
  *
  * `iterative` is a sequential tuple-at-a-time closure standing in for the
  * polynomial-delay FD iterators of Cohen et al. [2] in the runtime
  * comparison benches: same output, single-threaded, no Spark.
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
    LocalTuple(
      Vector.tabulate(a.vals.size)(j => a.vals(j).orElse(b.vals(j))),
      a.covered | b.covered, a.tabs ++ b.tabs, a.tids ++ b.tids)

  private def dominates(u: LocalTuple, t: LocalTuple): Boolean =
    u.nonNullCount > t.nonNullCount &&
      t.vals.indices.forall(j => t.vals(j).isEmpty || t.vals(j) == u.vals(j))

  /** Merge value-identical results keeping the union of ⊆-maximal TID sets,
    * then drop value-dominated rows — identical post-processing to the
    * Spark implementation so outputs are directly comparable.
    */
  private def finish(results: Seq[LocalTuple]): Seq[LocalTuple] = {
    val byVals = results.groupBy(_.vals).map { case (vals, group) =>
      val sets = group.map(_.tids).distinct
      val maximal = sets.filter(s => !sets.exists(t => t != s && s.subsetOf(t)))
      LocalTuple(vals, group.map(_.covered).reduce(_ | _),
        group.flatMap(_.tabs).toSet, maximal.flatten.toSet)
    }.toVector
    // Subsumption through an inverted index (a dominator must share the
    // dominated tuple's first non-null value) — keeps the baseline usable
    // at benchmark sizes.
    val index = mutable.Map.empty[(Int, String), mutable.ArrayBuffer[LocalTuple]]
    for (t <- byVals; j <- t.vals.indices; v <- t.vals(j))
      index.getOrElseUpdate((j, v), mutable.ArrayBuffer.empty) += t
    byVals.filter { t =>
      val fj = t.vals.indexWhere(_.isDefined)
      val candidates = index.getOrElse((fj, t.vals(fj).get), Nil)
      !candidates.exists(u => u.vals != t.vals && dominates(u, t))
    }.sortBy(_.vals.map(_.getOrElse("")).mkString(""))
  }

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
      def pairwise = sel.combinations(2).forall { case Seq(a, b) => consistent(a, b) }
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

  /** Sequential pairwise-complementation closure — the tuple-at-a-time
    * baseline standing in for Cohen et al. [2] in runtime comparisons.
    * Join partners are looked up through an inverted (attribute, value)
    * index, so the cost is proportional to the number of joining pairs —
    * same work as the Spark version, one thread. Output equals
    * `bruteForce`.
    */
  def iterative(tuples: Seq[LocalTuple]): Seq[LocalTuple] = closure(tuples, new Partners {
    private val index = mutable.Map.empty[(Int, String), mutable.ArrayBuffer[LocalTuple]]
    def add(t: LocalTuple): Unit =
      for (j <- t.vals.indices; v <- t.vals(j))
        index.getOrElseUpdate((j, v), mutable.ArrayBuffer.empty) += t
    def of(f: LocalTuple): Iterable[LocalTuple] = {
      val partners = mutable.LinkedHashSet.empty[LocalTuple]
      for (j <- f.vals.indices; v <- f.vals(j); b <- index.get((j, v))) partners ++= b
      partners
    }
  })

  /** The nested-loop variant of `iterative`: every frontier tuple scans
    * all tuples for partners, the way the NLOJ-based polynomial-delay
    * iterators of [2] rescan relations. Same output; used as the [2]
    * baseline in `IntegrationScaleBench`. Quadratic — keep inputs small.
    */
  def iterativeScan(tuples: Seq[LocalTuple]): Seq[LocalTuple] = closure(tuples, new Partners {
    private val seen = mutable.ArrayBuffer.empty[LocalTuple]
    def add(t: LocalTuple): Unit = seen += t
    def of(f: LocalTuple): Iterable[LocalTuple] = seen.filter(connected(f, _))
  })

  /** Where the closure finds a frontier tuple's join partners among the
    * tuples built so far (`add`ed in insertion order).
    */
  private trait Partners {
    def add(t: LocalTuple): Unit
    def of(f: LocalTuple): Iterable[LocalTuple]
  }

  /** The frontier loop of `iterative` and `iterativeScan`: each frontier
    * tuple combines with every table-disjoint, consistent partner, and each
    * combination not built before joins the next frontier.
    */
  private def closure(tuples: Seq[LocalTuple], partners: Partners): Seq[LocalTuple] = {
    val all = mutable.LinkedHashMap.empty[(Vector[Option[String]], Set[String]), LocalTuple]
    def key(t: LocalTuple) = (t.vals, t.tids)
    def insert(t: LocalTuple): Unit = { all(key(t)) = t; partners.add(t) }
    tuples.foreach(t => if (!all.contains(key(t))) insert(t))
    var frontier = all.values.toVector
    while (frontier.nonEmpty) {
      val next = mutable.ArrayBuffer.empty[LocalTuple]
      for (f <- frontier; o <- partners.of(f)) {
        if (f.tabs.intersect(o.tabs).isEmpty && consistent(f, o)) {
          val c = combine(f, o)
          if (!all.contains(key(c))) { insert(c); next += c }
        }
      }
      frontier = next.toVector
    }
    finish(all.values.toVector)
  }
}

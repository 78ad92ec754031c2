package repro.er

import scala.collection.mutable

import repro.core.{AlignedTuples, IntegratedTable, LocalTuple}

/** Entity resolution downstream application (§2.3, Fig 8(c)/(d)).
  *
  * Stand-in for `py_entitymatching`: token/synonym-based matching rule
  * instead of a learned matcher (see `SynonymDict`). Two integrated tuples
  * match when they agree (under the dictionary) on at least
  * `minAgreements` attributes and conflict on none — which is why ER over
  * the outer-join result cannot resolve the incomplete tuples f9/f10 of
  * Fig 8(a) (a single shared attribute is not enough evidence), while it
  * resolves the completed FD tuples of Fig 8(b).
  *
  * Each tuple's entries are its (attribute, equivalence key) pairs; a value
  * with an empty key carries no evidence and has no entry. Blocking keys a
  * tuple on every `minAgreements`-combination of its entries, so a matching
  * pair shares a block (exact overlap blocking). Sharing a block already
  * proves `minAgreements` agreements, so a pair in a block is only checked
  * for a conflict. A pair sharing several blocks is checked in each; the
  * union-find that clusters the matches makes the repeated unions free.
  * Clusters are merged attribute-wise to the canonical display form.
  */
object EntityResolver {

  def resolve(it: IntegratedTable,
              dict: SynonymDict = SynonymDict.default,
              minAgreements: Int = 2): IntegratedTable = {
    require(minAgreements >= 1, s"minAgreements must be at least 1, got $minAgreements")
    val spark = it.tuples.sparkSession
    val tuples = it.tuples.collect().toVector.map(LocalTuple.fromRow)

    // keys(i)(j): tuple i's equivalence key on attribute j, null when no entry.
    val keys = tuples.map(_.vals.map(_.map(dict.key).filter(_.nonEmpty).orNull))
    val blocks = mutable.Map.empty[Seq[(Int, String)], mutable.ArrayBuffer[Int]]
    for {
      (ks, i) <- keys.zipWithIndex
      combo <- ks.indices.filter(ks(_) != null).map(j => j -> ks(j)).combinations(minAgreements)
    } blocks.getOrElseUpdate(combo, mutable.ArrayBuffer.empty) += i

    /** No attribute where both tuples have a key and the keys differ. */
    def noConflict(a: Vector[String], b: Vector[String]): Boolean =
      a.indices.forall(j => a(j) == null || b(j) == null || a(j) == b(j))

    val parent = Array.tabulate(tuples.size)(identity)
    def find(x: Int): Int = { var r = x; while (parent(r) != r) r = parent(r); parent(x) = r; r }
    for (ids <- blocks.values if ids.size > 1;
         ai <- ids.indices; bi <- (ai + 1) until ids.size
         if noConflict(keys(ids(ai)), keys(ids(bi)))) {
      val (ri, rj) = (find(ids(ai)), find(ids(bi)))
      if (ri != rj) parent(rj) = ri
    }

    val merged = tuples.indices.groupBy(find).values.toVector.map { members =>
      val ms = members.map(tuples)
      // Singletons pass through verbatim (Fig 8(c): unresolved tuples keep
      // their original spellings); only merged clusters are canonicalized.
      if (ms.size == 1) ms.head
      else mergeCluster(ms, dict)
    }.sortBy(_.vals.map(_.getOrElse("")).mkString(""))

    val rows = spark.sparkContext.parallelize(merged.map(_.toRow), 1)
    IntegratedTable(it.alignment, spark.createDataFrame(rows, AlignedTuples.schema))
  }

  /** Attribute-wise merge of a resolved cluster: canonical display form,
    * majority vote among canonical forms to break transitive disagreements.
    */
  private[er] def mergeCluster(ms: Seq[LocalTuple], dict: SynonymDict): LocalTuple = {
    val vals = ms.head.vals.indices.toVector.map { j =>
      ms.flatMap(_.vals(j)).map(dict.canonical).groupBy(identity)
        .maxByOption(g => (g._2.size, g._1)).map(_._1)
    }
    LocalTuple.merged(vals, ms)
  }
}

package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.col

import repro.lake.ColumnProfile
import repro.util.Norm

import scala.collection.mutable

/** A column of one table in the integration set, identified positionally
  * (open data headers are unreliable; the position is the identity).
  */
final case class ColumnKey(table: String, index: Int)

/** Result of holistic schema matching over an integration set.
  *
  * @param iidOf  integration ID (0-based, dense) of every data column
  * @param names  display name per integration ID (chosen from the most
  *               frequent meaningful header in the cluster)
  */
final case class Alignment(iidOf: Map[ColumnKey, Int], names: Vector[String]) {
  def numIids: Int = names.length

  /** Integration IDs `table` has a column for. */
  def iids(table: String): Set[Int] =
    iidOf.collect { case (ColumnKey(t, _), iid) if t == table => iid }.toSet

  /** `iids(table)` as a bitmask (used for the ± missing-null vs ⊥
    * produced-null distinction in FD output).
    */
  def coverage(table: String): Long = iids(table).foldLeft(0L)((m, iid) => m | (1L << iid))
}

/** Holistic schema matcher: assigns the same integration ID to matching
  * columns across the whole integration set at once (ALITE's "Align").
  */
trait SchemaMatcher {

  /** Align all data columns of `tables`. Columns named `TID` (any case)
    * are provenance, not data, and are excluded.
    */
  def align(tables: Seq[(String, DataFrame)]): Alignment
}

/** ALITE-style holistic matcher.
  *
  * The published ALITE matcher embeds columns (fastText + SimCSE) and runs
  * constrained clustering; offline we substitute the embedding with two
  * cheap signals that drive the same clustering structure:
  *
  *   - header evidence: Jaccard over header tokens (dummy headers like
  *     `col3` contribute nothing);
  *   - instance evidence: Jaccard over the normalized values of each
  *     column's bottom-k sample in the shared `ColumnProfile`.
  *
  * Edges with similarity ≥ `Threshold` are processed in descending order
  * by a union-find that refuses to place two columns of the same table in
  * one cluster — ALITE's hard constraint.
  */
final class HolisticMatcher extends SchemaMatcher {

  import HolisticMatcher.Profile

  private val Threshold = 0.25

  override def align(tables: Seq[(String, DataFrame)]): Alignment = {
    // One action profiles every data column; profiles keep the order of
    // `tables` and their columns. A column without values has no profile row.
    val samples: Map[ColumnKey, Seq[String]] = ColumnProfile.of(tables)
      .select(col("table"), col("colIdx"), col("sample")).collect()
      .map(r => ColumnKey(r.getString(0), r.getInt(1)) -> r.getSeq[String](2)).toMap
    val profiles: Vector[Profile] = tables.toVector.flatMap { case (name, df) =>
      val dataCols = df.columns.zipWithIndex.filterNot { case (c, _) => ColumnProfile.isTid(c) }
      dataCols.map { case (c, i) =>
        val key = ColumnKey(name, i)
        val vals = samples.getOrElse(key, Nil).map(Norm.basic).toSet
        val numeric = vals.nonEmpty &&
          vals.count(_.matches("-?\\d+(\\.\\d+)?")) >= vals.size * 0.8
        Profile(key, c, Norm.headerTokens(c), vals, numeric)
      }
    }

    // Candidate edges, strongest first; exact meaningful-header equality is
    // treated as maximal evidence (the common case in curated figures).
    final case class Edge(a: Int, b: Int, sim: Double)
    val edges = mutable.ArrayBuffer.empty[Edge]
    for (i <- profiles.indices; j <- (i + 1) until profiles.size) {
      val (p, q) = (profiles(i), profiles(j))
      if (p.key.table != q.key.table) {
        val nameSim =
          if (p.tokens.nonEmpty && p.tokens == q.tokens) 1.0
          else Norm.jaccard(p.tokens, q.tokens)
        // Two plain-integer/decimal columns (keys, measures) overlap by
        // accident all the time in open data; demand near-identical domains
        // before instance evidence alone may merge them.
        val rawValueSim = Norm.jaccard(p.values, q.values)
        val valueSim =
          if (p.numeric && q.numeric && rawValueSim < 0.7) 0.0 else rawValueSim
        val sim = math.max(nameSim, valueSim)
        if (sim >= Threshold) edges += Edge(i, j, sim)
      }
    }
    val ordered = edges.sortBy(e => (-e.sim, e.a, e.b))

    // Union-find with the one-column-per-table-per-cluster constraint.
    val parent = Array.tabulate(profiles.size)(identity)
    def find(x: Int): Int = { var r = x; while (parent(r) != r) r = parent(r); parent(x) = r; r }
    val tablesIn = mutable.Map.empty[Int, mutable.Set[String]] ++
      profiles.indices.map(i => i -> mutable.Set(profiles(i).key.table))
    for (e <- ordered) {
      val (ra, rb) = (find(e.a), find(e.b))
      if (ra != rb && tablesIn(ra).intersect(tablesIn(rb)).isEmpty) {
        parent(rb) = ra
        tablesIn(ra) ++= tablesIn(rb)
        tablesIn.remove(rb)
      }
    }

    // Dense integration IDs, deterministic order (first column occurrence).
    val rootOrder = profiles.indices.map(find).distinct
    val iidOfRoot = rootOrder.zipWithIndex.toMap
    val iidOf = profiles.indices.map { i =>
      profiles(i).key -> iidOfRoot(find(i))
    }.toMap

    val names = Vector.tabulate(rootOrder.size) { iid =>
      val members = profiles.indices.filter(i => iidOfRoot(find(i)) == iid)
      val headers = members.map(profiles(_).header)
        .filter(h => Norm.headerTokens(h).nonEmpty)
      if (headers.isEmpty) s"iid_$iid"
      else headers.groupBy(identity).toSeq
        .maxBy { case (h, hs) => (hs.size, -headers.indexOf(h)) }._1
    }
    require(names.size <= 64,
      s"more than 64 integration IDs (${names.size}); FD coverage masks are Long bitmasks")
    Alignment(iidOf, dedupeNames(names))
  }

  /** Display names must be unique to become DataFrame column names. */
  private def dedupeNames(names: Vector[String]): Vector[String] = {
    val seen = mutable.Map.empty[String, Int]
    names.map { n =>
      val c = seen.getOrElse(n, 0)
      seen(n) = c + 1
      if (c == 0) n else s"${n}_$c"
    }
  }
}

object HolisticMatcher {
  private final case class Profile(key: ColumnKey, header: String,
                                   tokens: Set[String], values: Set[String],
                                   numeric: Boolean)
}

package repro.util

/** Shared string normalization for schema matching and entity resolution.
  *
  * Open data values are messy ("J&J" vs "JnJ", "USA " vs "usa"); both the
  * holistic matcher and the ER substrate compare values after the same
  * canonicalization so their notions of equality agree.
  */
object Norm {

  /** Lowercase, trim, collapse internal whitespace. */
  def basic(s: String): String =
    if (s == null) null else s.trim.toLowerCase.replaceAll("\\s+", " ")

  /** Lowercase and strip everything but Unicode letters and digits
    * ("J&J" -> "jj", "東京" stays "東京").
    */
  def alnum(s: String): String =
    if (s == null) null else s.toLowerCase.replaceAll("[^\\p{L}\\p{N}]", "")

  /** Header tokens for name-based column similarity: the runs of Unicode
    * letters and digits, as `alnum` keeps them ("Población Total" ->
    * {población, total}).
    *
    * Dummy headers carry no evidence: open data lakes often ship columns
    * named `col3` / `Unnamed: 0` / empty — those return an empty token set
    * so matching falls back to value overlap.
    */
  def headerTokens(header: String): Set[String] = {
    if (header == null) return Set.empty
    val h = header.trim.toLowerCase
    if (h.isEmpty || h.matches("(col|column|field|unnamed|attr|c)[_:\\s]*\\d*")) Set.empty
    else h.split("[^\\p{L}\\p{N}]+").filter(_.nonEmpty).toSet
  }

  /** Jaccard similarity of two sets; 0 when either is empty. */
  def jaccard[A](a: Set[A], b: Set[A]): Double =
    if (a.isEmpty || b.isEmpty) 0.0
    else a.intersect(b).size.toDouble / a.union(b).size.toDouble
}

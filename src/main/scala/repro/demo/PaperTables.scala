package repro.demo

import org.apache.spark.sql.{DataFrame, SparkSession}

import repro.lake.DataLake.stringTable

/** The literal tables of the paper's figures (Fig 2 and Fig 7).
  *
  * `TID` columns are provenance (the paper: "TID is not a real data
  * column") — integration carries them through but never matches on them.
  * `null` cells are the paper's ± "missing nulls".
  */
object PaperTables {

  /** Fig 2, T1 — the query table. */
  def t1(spark: SparkSession): DataFrame = stringTable(spark,
    Seq("TID", "Country", "City", "Vaccination Rate (1+ dose)"),
    Seq(
      Seq("t1", "Germany", "Berlin", "63%"),
      Seq("t2", "England", "Manchester", "78%"),
      Seq("t3", "Spain", "Barcelona", "82%"),
    ))

  /** Fig 2, T2 — retrieved unionable table (t5 has a missing null). */
  def t2(spark: SparkSession): DataFrame = stringTable(spark,
    Seq("TID", "Country", "City", "Vaccination Rate (1+ dose)"),
    Seq(
      Seq("t4", "Canada", "Toronto", "83%"),
      Seq("t5", "Mexico", "Mexico City", null),
      Seq("t6", "USA", "Boston", "62%"),
    ))

  /** Fig 2, T3 — retrieved joinable table. */
  def t3(spark: SparkSession): DataFrame = stringTable(spark,
    Seq("TID", "City", "Total Cases", "Death Rate (per 100k residents)"),
    Seq(
      Seq("t7", "Berlin", "1.4M", "147"),
      Seq("t8", "Barcelona", "2.68M", "275"),
      Seq("t9", "Boston", "263k", "335"),
      Seq("t10", "New Delhi", "2M", "158"),
    ))

  /** Fig 2's integration set (query table first). */
  def fig2(spark: SparkSession): Seq[(String, DataFrame)] =
    Seq("T1" -> t1(spark), "T2" -> t2(spark), "T3" -> t3(spark))

  /** Fig 3 — the paper's FD(T1,T2,T3) reference rows, in the rendered
    * (±/⊥) presentation, keyed by sorted TID set.
    */
  val fig3Expected: Set[(String, String, String, String, String, String)] = Set(
    ("t1,t7",  "Germany", "Berlin",      "63%", "1.4M",  "147"),
    ("t2",     "England", "Manchester",  "78%", "⊥",     "⊥"),
    ("t3,t8",  "Spain",   "Barcelona",   "82%", "2.68M", "275"),
    ("t4",     "Canada",  "Toronto",     "83%", "⊥",     "⊥"),
    ("t5",     "Mexico",  "Mexico City", "±",   "⊥",     "⊥"),
    ("t6,t9",  "USA",     "Boston",      "62%", "263k",  "335"),
    ("t10",    "⊥",       "New Delhi",   "⊥",   "2M",    "158"),
  )

  /** Fig 7, T4 — vaccine → approver (t12 has a missing null). */
  def t4(spark: SparkSession): DataFrame = stringTable(spark,
    Seq("TID", "Vaccine", "Approver"),
    Seq(
      Seq("t11", "Pfizer", "FDA"),
      Seq("t12", "JnJ", null),
    ))

  /** Fig 7, T5 — country → approver (t14 has a missing null). */
  def t5(spark: SparkSession): DataFrame = stringTable(spark,
    Seq("TID", "Country", "Approver"),
    Seq(
      Seq("t13", "United States", "FDA"),
      Seq("t14", "USA", null),
    ))

  /** Fig 7, T6 — vaccine → country. */
  def t6(spark: SparkSession): DataFrame = stringTable(spark,
    Seq("TID", "Vaccine", "Country"),
    Seq(
      Seq("t15", "J&J", "United States"),
      Seq("t16", "JnJ", "USA"),
    ))

  /** Fig 7's integration set. */
  def fig7(spark: SparkSession): Seq[(String, DataFrame)] =
    Seq("T4" -> t4(spark), "T5" -> t5(spark), "T6" -> t6(spark))

  /** Fig 8(b) — FD(T4,T5,T6) reference rows (Vaccine, Approver, Country).
    * f12 integrates t12, t14 and t16 (the figure's TID cell is garbled in
    * the source; the set follows from the FD semantics).
    */
  val fig8bExpected: Set[(String, String, String, String)] = Set(
    ("t11,t13",     "Pfizer", "FDA", "United States"),
    ("t12,t14,t16", "JnJ",    "±",   "USA"),
    ("t13,t15",     "J&J",    "FDA", "United States"),
  )

  /** Fig 8(a) — outer join T4 ⟗ T5 ⟗ T6 reference rows. */
  val fig8aExpected: Set[(String, String, String, String)] = Set(
    ("t11,t13", "Pfizer", "FDA", "United States"),
    ("t12",     "JnJ",    "±",   "⊥"),
    ("t14",     "⊥",      "±",   "USA"),
    ("t15",     "J&J",    "⊥",   "United States"),
    ("t16",     "JnJ",    "⊥",   "USA"),
  )

  /** Fig 8(c) — ER over the outer-join result (f9, f10 stay unresolved). */
  val fig8cExpected: Set[(String, String, String)] = Set(
    ("Pfizer", "FDA", "United States"),
    ("JnJ",    "±",   "⊥"),
    ("⊥",      "±",   "USA"),
    ("J&J",    "⊥",   "United States"),
  )

  /** Fig 8(d) — ER over the FD result. */
  val fig8dExpected: Set[(String, String, String)] = Set(
    ("Pfizer", "FDA", "United States"),
    ("J&J",    "FDA", "United States"),
  )
}

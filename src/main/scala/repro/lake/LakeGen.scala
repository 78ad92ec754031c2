package repro.lake

import org.apache.spark.sql.{DataFrame, SparkSession}

import scala.util.Random

import repro.SynthData
import repro.util.Norm

import DataLake.stringTable

/** Synthetic open data lake generator.
  *
  * Substitutes the paper's preprocessed crawl of real open data with a
  * deterministic (sf, seed)-parameterized lake that preserves the
  * behaviours DIALITE exercises: unreliable headers, missing values,
  * spelling variants of the same entity across tables, unionable
  * horizontal partitions, joinable attribute tables, Fig-7-style vertical
  * fragments, TPC-H-lite key–FK fragments, and unrelated noise tables.
  * Ground truth for discovery quality is recorded alongside.
  */
object LakeGen {

  final case class Generated(lake: InMemoryLake, truth: GroundTruth,
                             kb: Map[String, String])

  private val Partitions = 4 // fixes every generated string table's row layout

  /** City universe: KB cities plus synthetic ones so the lake scales with
    * sf; synthetic cities are added to the SANTOS KB stand-in exactly the
    * way the real SANTOS preprocesses a lake against YAGO.
    */
  private def cityUniverse(sf: Double, rnd: Random): Vector[(String, String)] = {
    val nCities = math.max(40, (sf * 2000).toInt)
    val base = KnowledgeBase.cityCountry
    val extra = (base.size until nCities).map { i =>
      val country = KnowledgeBase.countries(rnd.nextInt(KnowledgeBase.countries.size))
      (s"${country.split(" ").head}ville $i", country)
    }
    (base ++ extra).take(math.max(nCities, base.size))
  }

  private def headerVariant(rnd: Random, idx: Int, variants: Vector[String]): String = {
    val r = rnd.nextDouble()
    // Dummy headers are positional so a table never repeats a column name
    // (Spark resolves columns by name); value overlap must carry the match.
    if (r < 0.15) s"col$idx"
    else variants(rnd.nextInt(variants.size))
  }

  /** Generate the lake. SF=0.01 → ~15 tables for unit tests; SF=0.1 →
    * ~40 tables / ~100 MB incl. TPC-H fragments for benches.
    */
  def generate(spark: SparkSession, sf: Double = 0.01, seed: Long = 7): Generated = {
    val rnd = new Random(seed)
    val cities = cityUniverse(sf, rnd)
    val kb = KnowledgeBase.valueType ++ cities.map { case (c, _) => Norm.basic(c) -> "city" }

    val tables = Map.newBuilder[String, DataFrame]
    val family = Map.newBuilder[String, String]
    val unionable = Map.newBuilder[String, Set[String]]
    val joinable = Map.newBuilder[(String, String), Set[String]]

    // -- Family 1: unionable horizontal partitions of a covid-cases universal
    val nUnion = math.max(3, (sf * 100).toInt)
    val universal = cities.map { case (city, country) =>
      val cases = 10000 + rnd.nextInt(2000000)
      val deaths = cases / (10 + rnd.nextInt(40))
      val vax = 40 + rnd.nextInt(55)
      Vector(city, country, cases.toString, deaths.toString, s"$vax%")
    }
    val caseNames = (0 until nUnion).map(i => s"cases_p$i")
    val parts = universal.zipWithIndex.groupBy(_._2 % nUnion)
    for (i <- 0 until nUnion) {
      val headers = Vector(
        headerVariant(rnd, 0, Vector("City", "Town", "Municipality")),
        headerVariant(rnd, 1, Vector("Country", "Nation", "State")),
        headerVariant(rnd, 2, Vector("Total Cases", "Cases", "Confirmed Cases")),
        headerVariant(rnd, 3, Vector("Deaths", "Total Deaths")),
        headerVariant(rnd, 4, Vector("Vaccination Rate", "Vax Rate", "Pct Vaccinated")),
      )
      val rows = parts.getOrElse(i, Vector.empty).map(_._1)
        .map(_.map(v => if (rnd.nextDouble() < 0.04) null else v))
      tables += caseNames(i) -> stringTable(spark, headers, rows, Partitions)
      family += caseNames(i) -> "cases"
    }
    for (n <- caseNames) unionable += n -> (caseNames.toSet - n)

    // -- Family 2: per-city vaccination tables, joinable with family 1 on city
    val nJoin = math.max(2, (sf * 50).toInt)
    val vaxNames = (0 until nJoin).map(i => s"vax_r$i")
    for (i <- 0 until nJoin) {
      val subset = rnd.shuffle(cities).take((cities.size * 0.6).toInt)
      val headers = Vector(
        headerVariant(rnd, 0, Vector("City", "Location")),
        headerVariant(rnd, 1, Vector("Vaccination Rate", "Rate (1+ dose)")),
        headerVariant(rnd, 2, Vector("Population", "Residents")),
      )
      val rows = subset.map { case (city, _) =>
        Vector(city, s"${40 + rnd.nextInt(55)}%", (50000 + rnd.nextInt(9000000)).toString)
          .map(v => if (rnd.nextDouble() < 0.04) null else v)
      }
      tables += vaxNames(i) -> stringTable(spark, headers, rows, Partitions)
      family += vaxNames(i) -> "vax"
    }
    for (n <- caseNames) joinable += (n, "City") -> vaxNames.toSet

    // -- Family 3: Fig-7-style vertical fragments of (vaccine, agency, country)
    val approvalFacts: Vector[(String, String, String)] = for {
      vaccine <- KnowledgeBase.vaccines
      (agency, country) <- KnowledgeBase.agencyCountry.take(6)
    } yield (vaccine, agency, country)
    val nTrios = math.max(1, (sf * 20).toInt)
    for (i <- 0 until nTrios) {
      def vVar(v: String): String = {
        val vs = KnowledgeBase.vaccineVariants.getOrElse(v, Vector(v))
        vs(rnd.nextInt(vs.size))
      }
      def cVar(c: String): String = {
        val vs = KnowledgeBase.countryVariants.getOrElse(c, Vector(c))
        vs(rnd.nextInt(vs.size))
      }
      def miss(s: String): String = if (rnd.nextDouble() < 0.1) null else s
      val facts = rnd.shuffle(approvalFacts).take(approvalFacts.size / 2)
      tables += s"vac_frag${i}_a" -> stringTable(spark, Vector("Vaccine", "Approver"),
        facts.map(f => Vector(vVar(f._1), miss(f._2))), Partitions)
      tables += s"vac_frag${i}_b" -> stringTable(spark, Vector("Country", "Approver"),
        facts.map(f => Vector(cVar(f._3), miss(f._2))), Partitions)
      tables += s"vac_frag${i}_c" -> stringTable(spark, Vector("Vaccine", "Country"),
        facts.map(f => Vector(vVar(f._1), cVar(f._3))), Partitions)
      Seq("a", "b", "c").foreach(s => family += s"vac_frag${i}_$s" -> "vaccine")
    }

    // -- Family 4: TPC-H-lite fragments (key–FK joinable; γ-acyclic)
    import org.apache.spark.sql.functions.col
    val cust = SynthData.customer(spark, sf, seed = seed + 10)
    val ords = SynthData.orders(spark, sf, seed = seed + 11)
    tables += "cust_keys" -> cust.select(
      col("c_custkey").cast("string").as("custkey"),
      col("c_nationkey").cast("string").as("nationkey"),
      col("c_acctbal").cast("string").as("acctbal"))
    tables += "cust_seg" -> cust.select(
      col("c_custkey").cast("string").as("custkey"),
      col("c_mktsegment").cast("string").as("mktsegment"))
    tables += "orders_cust" -> ords.select(
      col("o_orderkey").cast("string").as("orderkey"),
      col("o_custkey").cast("string").as("custkey"),
      col("o_totalprice").cast("string").as("totalprice"))
    Seq("cust_keys", "cust_seg", "orders_cust").foreach(t => family += t -> "tpch")
    joinable += ("cust_keys", "custkey") -> Set("cust_seg", "orders_cust")

    // -- Family 5: unrelated noise
    val nNoise = math.max(2, (sf * 40).toInt)
    for (i <- 0 until nNoise) {
      val df = SynthData.uniformKeys(spark, rows = 200, nKeys = 5000, seed = seed + 20 + i)
        .select(col("k").cast("string").as(s"key$i"), col("v").cast("string").as(s"val$i"))
      tables += s"noise$i" -> df
      family += s"noise$i" -> "noise"
    }

    Generated(
      InMemoryLake(tables.result()),
      GroundTruth(unionable.result(), joinable.result(), family.result()),
      kb,
    )
  }
}

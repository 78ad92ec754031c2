package repro.bench

/** Timing/printing helpers shared by the bench suites. Each suite prints
  * its measured rows in the layout of the EXPERIMENTS.md tables.
  */
object BenchUtil {

  /** Wall-clock a block, returning (result, seconds). */
  def timed[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val r = body
    (r, (System.nanoTime() - t0) / 1e9)
  }

  def header(title: String): Unit = {
    println()
    println(s"==== $title")
  }

  def row(cells: Any*): Unit =
    println(cells.map(_.toString).mkString("| ", " | ", " |"))
}

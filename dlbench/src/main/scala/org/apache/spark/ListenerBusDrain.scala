package org.apache.spark

/** Blocks until Spark's listener bus has delivered every posted event, so a
  * listener's counts are complete when the harness reads them. The bus is
  * package-private to Spark, hence this package.
  */
object ListenerBusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}

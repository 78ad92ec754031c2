package org.apache.spark

/** Blocks until Spark's listener bus has delivered every posted event, so a
  * test listener's counts are complete. The bus is package-private to
  * Spark, hence this package.
  */
object ListenerBusWait {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}

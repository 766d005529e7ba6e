package org.apache.spark.sql.infbench

import org.apache.spark.sql.SparkSession

/** A package-private Spark call the benchmark needs, bridged from inside
  * Spark's package: draining the listener bus, so counts read after a call
  * cover exactly that call.
  */
object SparkInternals {
  def drainListeners(spark: SparkSession): Unit = spark.sparkContext.listenerBus.waitUntilEmpty()
}

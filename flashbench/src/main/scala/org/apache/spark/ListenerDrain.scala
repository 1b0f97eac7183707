package org.apache.spark

/** Waits until every event posted so far has reached the registered
  * listeners. Spark delivers listener events asynchronously and keeps
  * `waitUntilEmpty` package-private, hence this package.
  */
object ListenerDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}

package org.apache.spark

import java.util.concurrent.atomic.AtomicInteger
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart}

/** Counts the Spark jobs a block starts. Spark delivers listener events
  * asynchronously and keeps `waitUntilEmpty` package-private, hence this
  * package.
  */
object JobCounter {
  def apply[T](sc: SparkContext)(body: => T): (T, Int) = {
    val jobs = new AtomicInteger
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit = jobs.incrementAndGet()
    }
    sc.listenerBus.waitUntilEmpty()
    sc.addSparkListener(listener)
    try {
      val out = body
      sc.listenerBus.waitUntilEmpty()
      (out, jobs.get)
    } finally sc.removeSparkListener(listener)
  }
}

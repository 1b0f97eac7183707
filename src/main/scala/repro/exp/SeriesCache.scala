package repro.exp

import org.apache.spark.sql.DataFrame
import repro.core.{Estimator, ForecastTask}
import scala.collection.concurrent.TrieMap

/** Memoizes the exact full-table scans, so experiments that evaluate many
  * methods on the same task pay for one: a series per `(measure, constraint,
  * te + forePeriod)` over days `[0, te + forePeriod]`, sliced into training
  * and future truth. Integer day sums are exact in doubles, so a slice
  * equals a scan over its own window.
  */
final class SeriesCache(df: DataFrame) {
  private val series = TrieMap.empty[(String, String, Int), Array[Double]]

  private def upTo(task: ForecastTask): Array[Double] = {
    require(task.ts >= 0, s"SeriesCache covers days from 0, not ${task.ts}")
    val end = task.te + task.forePeriod
    series.getOrElseUpdate((task.measure, task.constraint.sql, end),
      Estimator.exactSeries(df, task.copy(ts = 0, te = end)))
  }

  /** Exact training series `M_ts..M_te`. */
  def exact(task: ForecastTask): Array[Double] = upTo(task).slice(task.ts, task.te + 1)

  /** Exact future series `(te, te+forePeriod]`. */
  def truth(task: ForecastTask): Array[Double] =
    upTo(task).slice(task.te + 1, task.te + 1 + task.forePeriod)
}

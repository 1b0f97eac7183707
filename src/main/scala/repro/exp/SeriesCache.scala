package repro.exp

import org.apache.spark.sql.DataFrame
import repro.core.{Estimator, ForecastTask, StoredSample}
import repro.data.AdSchema
import repro.sampling.Uniform

/** The experiments' ground truth: `df` copied to the driver once, at
  * construction, as a `Uniform(1.0)` layer (one Spark job; `rand < 1.0` keeps
  * every row and `m / 1.0` is `m`) that answers every task with no Spark job.
  * Its day sums equal [[Estimator.exactSeries]] bit for bit because the
  * measures are integral: sums below 2^53 are exact in doubles in any order.
  *
  * @throws IllegalArgumentException naming a measure column that is not integral
  */
final class SeriesCache(df: DataFrame) {
  for (m <- AdSchema.Measures) require(Estimator.isIntegral(df.schema(m).dataType),
    s"measure column '$m' must be integral, not ${df.schema(m).dataType.simpleString}")

  private val full = new StoredSample("Full", Uniform(1.0, AdSchema.Measures),
    Uniform(1.0, AdSchema.Measures).sample(df))

  /** Exact training series `M_ts..M_te`. */
  def exact(task: ForecastTask): Array[Double] = full.series(task)

  /** Exact future series `(te, te+forePeriod]`. */
  def truth(task: ForecastTask): Array[Double] =
    full.series(task.copy(ts = task.te + 1, te = task.te + task.forePeriod))
}

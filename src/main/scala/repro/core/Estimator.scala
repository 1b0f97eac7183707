package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._
import repro.data.AdSchema
import repro.sampling.Sampler

/** The online aggregation phase (§2.2, eq. 4) on Spark: turn a forecasting
  * task into the per-day series `M_ts .. M_te` with ONE Spark SQL
  * aggregation — the `t_e − t_s + 1` point queries of eq. (4) are, as the
  * paper notes, equivalent to a single scan with GROUP BY t, which is
  * exactly how Catalyst executes the plan below.
  *
  * It serves the full scan ([[FlashP.runOnFull]]) and the ground truth
  * ([[repro.exp.SeriesCache]]). Sample layers are served by their driver
  * copies ([[SampleColumns]]); [[estimateSeries]] is the Spark reference
  * those copies are tested against.
  */
object Estimator {

  /** Exact series from the full relation: `SUM(measure)` per day under the
    * task constraint; days with no qualifying rows contribute 0.
    */
  def exactSeries(full: DataFrame, task: ForecastTask): Array[Double] =
    series(full, task, col(task.measure).cast("double"))

  /** Estimated series from a sample produced by a [[repro.sampling.Sampler]]:
    * sums the calibrated `est_<m>` column, which is unbiased for the exact
    * constrained sum per day. The Spark reference for [[SampleColumns.series]];
    * the product serves samples from [[StoredSample.columns]].
    */
  def estimateSeries(sample: DataFrame, task: ForecastTask): Array[Double] =
    series(sample, task, col(Sampler.estCol(task.measure)))

  private def series(df: DataFrame, task: ForecastTask,
                     value: org.apache.spark.sql.Column): Array[Double] = {
    val t = col(AdSchema.TimeCol)
    val rows = df
      .filter(task.constraint.column && t >= task.ts && t <= task.te)
      .groupBy(t)
      .agg(sum(value) as "m")
      .collect()
    val byDay = rows.map(r => dayOf(r.get(0)) -> r.getDouble(1)).toMap
    Array.tabulate(task.te - task.ts + 1)(i => byDay.getOrElse(task.ts + i, 0.0))
  }

  private[core] def isIntegral(t: DataType): Boolean = t match {
    case ByteType | ShortType | IntegerType | LongType => true
    case _ => false
  }

  /** The day of a time-column value of any integral type. */
  private def dayOf(t: Any): Int = t match {
    case d: Int   => d
    case d: Long  => Math.toIntExact(d)
    case d: Short => d.toInt
    case d: Byte  => d.toInt
    case other    => throw new IllegalArgumentException(
      s"time column value $other (${other.getClass.getSimpleName}) is not integral")
  }
}

/** Error metrics used throughout the evaluation section. */
object Metrics {

  /** Mean relative aggregation error over the training window:
    * `avg_t |M̂_t − M_t| / M_t` (days with M_t = 0 are skipped).
    */
  def relAggError(est: Array[Double], exact: Array[Double]): Double = {
    require(est.length == exact.length, "series length mismatch")
    val terms = est.indices.filter(i => exact(i) != 0.0)
      .map(i => math.abs(est(i) - exact(i)) / math.abs(exact(i)))
    if (terms.isEmpty) 0.0 else terms.sum / terms.size
  }

  /** Mean relative forecast error over the horizon:
    * `avg_h |ŷ_h − y_h| / y_h`.
    */
  def relForecastError(point: Array[Double], truth: Array[Double]): Double =
    relAggError(point, truth)

  /** Forecast-interval width relative to the true values (so widths are
    * comparable across measures), averaged over the horizon.
    */
  def relIntervalWidth(fc: repro.forecast.Forecast, truth: Array[Double]): Double = {
    val terms = truth.indices.filter(i => truth(i) != 0.0)
      .map(i => (fc.hi(i) - fc.lo(i)) / math.abs(truth(i)))
    if (terms.isEmpty) 0.0 else terms.sum / terms.size
  }
}

package repro.core

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types._
import repro.PartitionFold
import repro.data.AdSchema
import repro.sampling.Sampler

/** The online aggregation phase (§2.2, eq. 4) on Spark: turn a forecasting
  * task into the per-day series `M_ts .. M_te` with ONE scan — the
  * `t_e − t_s + 1` point queries of eq. (4) are, as the paper notes,
  * equivalent to a single scan with GROUP BY t. Each partition sums its
  * rows into a per-day array ([[repro.PartitionFold]]): one Spark job.
  *
  * It serves the full scan ([[FlashP.runOnFull]], the paper's "Full"
  * baseline). Sample layers and the ground truth ([[repro.exp.SeriesCache]])
  * are served by driver copies ([[SampleColumns]]), tested against
  * [[exactSeries]] and [[estimateSeries]].
  */
object Estimator {

  /** Exact series from the full relation: `SUM(measure)` per day under the
    * task constraint; days with no qualifying rows contribute 0.
    */
  def exactSeries(full: DataFrame, task: ForecastTask): Array[Double] =
    series(full, task, col(task.measure))

  /** Estimated series from a sample produced by a [[repro.sampling.Sampler]]:
    * sums the calibrated `est_<m>` column, which is unbiased for the exact
    * constrained sum per day. The Spark reference for [[SampleColumns.series]];
    * the product serves samples from [[StoredSample.columns]].
    */
  def estimateSeries(sample: DataFrame, task: ForecastTask): Array[Double] =
    series(sample, task, col(Sampler.estCol(task.measure)))

  /** Per-day sums; a null value adds nothing, as SUM skips it. */
  private def series(df: DataFrame, task: ForecastTask, value: Column): Array[Double] = {
    val (time, ts, days) = (AdSchema.TimeCol, task.ts, task.trainingDays)
    require(isIntegral(df.schema(time).dataType),
      s"time column '$time' must be integral, not ${df.schema(time).dataType.simpleString}")
    val t = col(time)
    val parts = PartitionFold(df.filter(task.constraint.column && t >= ts && t <= task.te)
        .select(t.cast(LongType), value.cast(DoubleType)), "Estimator.series") { rows =>
      val sums = new Array[Double](days)
      rows.foreach(r => if (!r.isNullAt(1)) sums((r.getLong(0) - ts).toInt) += r.getDouble(1))
      sums
    }
    Array.tabulate(days)(d => parts.foldLeft(0.0)(_ + _(d)))
  }

  private[repro] def isIntegral(t: DataType): Boolean = t match {
    case ByteType | ShortType | IntegerType | LongType => true
    case _ => false
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
    require(fc.horizon == truth.length, "forecast horizon and truth length mismatch")
    val terms = truth.indices.filter(i => truth(i) != 0.0)
      .map(i => (fc.hi(i) - fc.lo(i)) / math.abs(truth(i)))
    if (terms.isEmpty) 0.0 else terms.sum / terms.size
  }
}

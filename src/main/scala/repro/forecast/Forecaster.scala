package repro.forecast

/** Point forecasts with a symmetric confidence band for `h` future steps.
  *
  * @param point ŷ_{t0+1..t0+h}
  * @param lo    lower band edge per step
  * @param hi    upper band edge per step
  */
final case class Forecast(point: Array[Double], lo: Array[Double], hi: Array[Double]) {
  require(point.length == lo.length && lo.length == hi.length,
    "Forecast: band arrays must align with the point forecast")

  def horizon: Int = point.length

  /** Mean band width — the paper's "forecast interval width" metric (Fig 13). */
  def meanIntervalWidth: Double =
    if (point.isEmpty) 0.0
    else point.indices.map(i => hi(i) - lo(i)).sum / point.length
}

/** A forecasting model in the paper's general form (2):
  * `M_t = f_t(M_{t-1}, …, M_{t-K})`, fitted on a historical series and used
  * to predict `horizon` future points iteratively.
  */
trait Forecaster {

  /** Fit on `series` (one value per time stamp, oldest first) and forecast
    * the next `horizon` values with a `level` confidence band.
    */
  def fitForecast(series: Array[Double], horizon: Int, level: Double = 0.9): Forecast
}

object Forecaster {

  /** Reject a series holding NaN or ±∞, which every model here would turn
    * into a silent NaN/∞ forecast.
    *
    * @throws IllegalArgumentException naming the first non-finite index.
    */
  def requireFinite(series: Array[Double]): Unit = {
    val i = series.indexWhere(v => !java.lang.Double.isFinite(v))
    require(i < 0, s"series value ${series(i)} at index $i is not finite")
  }

  /** Reject a horizon below 1 or a confidence level outside (0, 1), before
    * any model is fitted.
    *
    * @throws IllegalArgumentException naming the bad value.
    */
  def requireHorizonAndLevel(horizon: Int, level: Double): Unit = {
    require(horizon >= 1, s"forecast horizon $horizon is not >= 1")
    require(level > 0 && level < 1, s"confidence level $level is not in (0, 1)")
  }
}

package repro.forecast

import repro.forecast.Arima.{Fit, Order, difference, lag1Autocorr}
import repro.num.LinAlg

/** Slow reference for [[Arima.fit]] and [[Arima.autoFit]]: the order search
  * as it was written before stage 1 was shared across orders, every
  * regression built as a row matrix of boxed rows before its normal
  * equations are summed. Tests require the production search to match it bit
  * for bit.
  */
object ArimaReference {

  def fit(series: Array[Double], order: Order): Fit = {
    val Order(p, d, q) = order
    val z = difference(series, d)
    val n = z.length
    require(n >= p + q + 8,
      s"series too short (${series.length}) for $order: need ${p + q + 8 + d} points")

    // Stage 1: long-AR residual proxies (only needed when q > 0).
    val eHat = new Array[Double](n)
    if (q > 0) {
      val L = math.min(math.max(2 * (p + q), 4), n / 3)
      val rows = (L until n).map(t => 1.0 +: (1 to L).map(i => z(t - i)).toArray)
      val beta = lstsq(rows.map(_.toArray).toArray, (L until n).map(z).toArray, ridge = 1e-8)
      var t = L
      while (t < n) {
        var pred = beta(0)
        var i = 1
        while (i <= L) { pred += beta(i) * z(t - i); i += 1 }
        eHat(t) = z(t) - pred
        t += 1
      }
    }

    // Stage 2: OLS of z_t on [1, lags of z, lags of ê].
    val burn = math.max(p, q) + (if (q > 0) math.min(math.max(2 * (p + q), 4), n / 3) else 0)
    val start = math.max(burn, math.max(p, q))
    val xs = (start until n).map { t =>
      (1.0 +: (1 to p).map(i => z(t - i))) ++ (1 to q).map(j => eHat(t - j))
    }.map(_.toArray).toArray
    val ys = (start until n).map(z).toArray
    val beta =
      if (p == 0 && q == 0) Array(LinAlg.mean(z))
      else lstsq(xs, ys, ridge = 1e-8)
    val intercept = beta(0)
    val phi = beta.slice(1, 1 + p)
    val theta = beta.slice(1 + p, 1 + p + q)

    // Stage 3: recursive residuals with the fitted model; σ² and AIC.
    val resid = new Array[Double](n)
    var t = 0
    while (t < n) {
      var pred = intercept
      var i = 0
      while (i < p) { val idx = t - 1 - i; if (idx >= 0) pred += phi(i) * z(idx); i += 1 }
      var j = 0
      while (j < q) { val idx = t - 1 - j; if (idx >= 0) pred += theta(j) * resid(idx); j += 1 }
      resid(t) = z(t) - pred
      t += 1
    }
    val warm = math.max(p, q)
    val nEff = n - warm
    var ss = 0.0
    var k = warm
    while (k < n) { ss += resid(k) * resid(k); k += 1 }
    val sigma2 = if (nEff > 0) ss / nEff else 0.0
    val aic = nEff * math.log(math.max(sigma2, 1e-300)) + 2.0 * (p + q + 1)
    Fit(order, intercept, phi, theta, sigma2, aic, series.clone(), z, resid)
  }

  def autoFit(series: Array[Double], maxP: Int = 7, maxQ: Int = 2, maxD: Int = 1): Fit = {
    var d = 0
    var z = series
    while (d < maxD && lag1Autocorr(z) > 0.9 && z.length > 12) {
      z = difference(z)
      d += 1
    }
    var best: Fit = null
    var p = 0
    while (p <= maxP) {
      var q = 0
      while (q <= maxQ) {
        if (p + q > 0 || d > 0) {
          if (series.length - d >= p + q + 8) {
            try {
              val f = fit(series, Order(p, d, q))
              if (forecastSane(f) && (best == null || f.aic < best.aic)) best = f
            } catch { case _: IllegalArgumentException => () }
          }
        }
        q += 1
      }
      p += 1
    }
    if (best == null) fit(series, Order(0, d, 0)) else best
  }

  private def forecastSane(f: Fit): Boolean = {
    val fc = f.forecast(7, 0.9)
    val cap = 50.0 * (f.series.map(math.abs).max + 1.0)
    fc.point.forall(v => java.lang.Double.isFinite(v) && math.abs(v) <= cap)
  }

  /** Least squares of the row matrix `x` through its normal equations. */
  private def lstsq(x: Array[Array[Double]], y: Array[Double], ridge: Double): Array[Double] = {
    require(x.length == y.length && x.nonEmpty, "lstsq: shape mismatch")
    val eq = new LinAlg.NormalEquations(x(0).length)
    x.indices.foreach(r => eq.add(x(r), y(r)))
    eq.solve(ridge)
  }
}

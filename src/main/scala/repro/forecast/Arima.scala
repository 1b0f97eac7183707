package repro.forecast

import repro.num.LinAlg
import scala.collection.mutable
import scala.util.Try

/** ARIMA(p,d,q) forecasting (§2.1 of the paper), fitted with the
  * Hannan–Rissanen two-stage conditional least-squares method and order
  * selection by AIC — our offline substitute for the pmdarima /
  * X-13ARIMA-SEATS auto-ARIMA the deployed system calls out to.
  *
  * Model on the d-times differenced series `z_t = ∇^d M_t`:
  * `z_t = c + Σ_{i≤p} φ_i z_{t−i} + e_t + Σ_{j≤q} θ_j e_{t−j}`.
  *
  * Fitting:
  *  1. a long autoregression AR(L) is fitted by OLS to obtain residual
  *     proxies ê_t;
  *  2. `z_t` is regressed by OLS on its own lags and the lagged ê — a
  *     consistent estimator of (c, φ, θ);
  *  3. residuals are recomputed with the fitted recursion to get σ̂² and
  *     AIC = n·ln σ̂² + 2(p+q+1).
  *
  * Forecast intervals come from the ψ-weight (MA(∞)) expansion of the
  * integrated process φ(B)(1−B)^d: `Var[ŷ_{t0+h}] = σ̂² Σ_{j<h} ψ_j²`,
  * with a normal quantile at the requested level — matching the classic
  * Box–Jenkins bands the paper plots in Figure 13.
  */
object Arima {

  /** ARIMA order. */
  final case class Order(p: Int, d: Int, q: Int) {
    require(p >= 0 && d >= 0 && q >= 0, s"invalid order ($p,$d,$q)")
    override def toString = s"ARIMA($p,$d,$q)"
  }

  /** A fitted model, ready to forecast. */
  final case class Fit(order: Order, intercept: Double, phi: Array[Double],
                       theta: Array[Double], sigma2: Double, aic: Double,
                       series: Array[Double], diffed: Array[Double],
                       residuals: Array[Double]) {

    /** Forecast `h` future values of the ORIGINAL (undifferenced) series
      * with a symmetric `level` confidence band.
      */
    def forecast(h: Int, level: Double = 0.9): Forecast = {
      val point = pointForecast(h)
      // ψ-weights of the integrated ARMA: AR polynomial φ*(B) = φ(B)(1−B)^d.
      val phiStar = integrateAr(phi, order.d)
      val psi = psiWeights(phiStar, theta, h)
      val zq = LinAlg.normalQuantile(0.5 + level / 2)
      val lo = new Array[Double](h)
      val hi = new Array[Double](h)
      var cum = 0.0
      var s = 0
      while (s < h) {
        cum += psi(s) * psi(s)
        val half = zq * math.sqrt(math.max(0.0, sigma2) * cum)
        lo(s) = point(s) - half
        hi(s) = point(s) + half
        s += 1
      }
      Forecast(point, lo, hi)
    }

    /** The point forecasts of [[forecast]], without the band. */
    private[forecast] def pointForecast(h: Int): Array[Double] = {
      require(h >= 1, "forecast horizon must be >= 1")
      val p = order.p; val q = order.q; val d = order.d
      val n = diffed.length
      // Point forecasts of the differenced series: future e ≡ 0, past e from fit.
      val z = new Array[Double](n + h)
      System.arraycopy(diffed, 0, z, 0, n)
      val e = new Array[Double](n + h)
      System.arraycopy(residuals, 0, e, 0, n)
      var t = n
      while (t < n + h) {
        var v = intercept
        var i = 0
        while (i < p) { val idx = t - 1 - i; if (idx >= 0) v += phi(i) * z(idx); i += 1 }
        var j = 0
        while (j < q) { val idx = t - 1 - j; if (idx >= 0) v += theta(j) * e(idx); j += 1 }
        z(t) = v
        t += 1
      }
      // Undifference: rebuild the last d levels of backward sums and integrate.
      val point = new Array[Double](h)
      if (d == 0) {
        System.arraycopy(z, n, point, 0, h)
      } else {
        // tails(k) = last value of ∇^k M (k = 0..d-1) at the training end.
        val tails = new Array[Double](d)
        var level0 = series
        var k = 0
        while (k < d) { tails(k) = level0(level0.length - 1); level0 = difference(level0); k += 1 }
        var step = 0
        while (step < h) {
          var v = z(n + step) // forecast of ∇^d at this step
          var k2 = d - 1
          while (k2 >= 0) { v = tails(k2) + v; tails(k2) = v; k2 -= 1 }
          point(step) = v
          step += 1
        }
      }
      point
    }
  }

  /** First-order difference; length shrinks by 1. */
  def difference(xs: Array[Double]): Array[Double] =
    Array.tabulate(math.max(0, xs.length - 1))(i => xs(i + 1) - xs(i))

  /** d-th order difference. */
  def difference(xs: Array[Double], d: Int): Array[Double] =
    (0 until d).foldLeft(xs)((acc, _) => difference(acc))

  /** Coefficients of φ*(B) = φ(B)·(1−B)^d as an AR-style coefficient array
    * (z_t = Σ φ*_i z_{t−i} + …), i.e. the NEGATED non-constant coefficients
    * of the product polynomial.
    */
  private[forecast] def integrateAr(phi: Array[Double], d: Int): Array[Double] = {
    // Polynomial form: 1 − φ1 B − φ2 B² − …  (coefficient array, index = power)
    var poly = 1.0 +: phi.map(-_)
    var k = 0
    while (k < d) {
      val next = new Array[Double](poly.length + 1)
      var i = 0
      while (i < poly.length) { next(i) += poly(i); next(i + 1) -= poly(i); i += 1 }
      poly = next
      k += 1
    }
    poly.drop(1).map(-_)
  }

  /** ψ-weights: ψ_0 = 1, ψ_j = θ_j + Σ_{i=1}^{min(j,|φ|)} φ_i ψ_{j−i}. */
  private[forecast] def psiWeights(phi: Array[Double], theta: Array[Double], h: Int): Array[Double] = {
    val psi = new Array[Double](h)
    psi(0) = 1.0
    var j = 1
    while (j < h) {
      var v = if (j <= theta.length) theta(j - 1) else 0.0
      var i = 1
      while (i <= math.min(j, phi.length)) { v += phi(i - 1) * psi(j - i); i += 1 }
      psi(j) = v
      j += 1
    }
    psi
  }

  /** Fit ARIMA(p,d,q) on `series` by Hannan–Rissanen conditional LS. */
  def fit(series: Array[Double], order: Order): Fit =
    new OrderSearch(series, order.d, difference(series, order.d)).fit(order.p, order.q)

  /** Pick d with a crude stationarity rule (difference while the lag-1
    * autocorrelation stays near 1), then grid-search (p,q) by AIC —
    * mirroring what pmdarima's stepwise auto-ARIMA settles on for daily
    * series. `maxP` defaults to 7 so a weekly cycle is representable.
    */
  def autoFit(series: Array[Double], maxP: Int = 7, maxQ: Int = 2, maxD: Int = 1): Fit = {
    var d = 0
    var z = series
    while (d < maxD && lag1Autocorr(z) > 0.9 && z.length > 12) {
      z = difference(z)
      d += 1
    }
    val search = new OrderSearch(series, d, z)
    var maxAbs = 0.0
    var i = 0
    while (i < series.length) { maxAbs = math.max(maxAbs, math.abs(series(i))); i += 1 }
    val cap = 50.0 * (maxAbs + 1.0)
    var best: Fit = null
    var p = 0
    while (p <= maxP) {
      var q = 0
      while (q <= maxQ) {
        if ((p + q > 0 || d > 0) && series.length - d >= p + q + 8) {
          try {
            val f = search.fit(p, q)
            if (forecastSane(f, cap) && (best == null || f.aic < best.aic)) best = f
          } catch { case _: IllegalArgumentException => () }
        }
        q += 1
      }
      p += 1
    }
    if (best == null) search.fit(0, 0) else best
  }

  /** Reject fits whose 7-step forecast explodes past `cap` (non-stationary
    * HR output).
    */
  private def forecastSane(f: Fit, cap: Double): Boolean = {
    val point = f.pointForecast(7)
    var i = 0
    while (i < point.length) {
      if (!(java.lang.Double.isFinite(point(i)) && math.abs(point(i)) <= cap)) return false
      i += 1
    }
    true
  }

  /** Hannan–Rissanen fits of orders (p, d, q) on one series, whose d-times
    * difference `z` is given. Stage 1 depends only on `z` and the long-AR
    * length L, so its residual proxies — or its failure — are computed once
    * per L and shared by every order that uses that L.
    */
  private final class OrderSearch(series: Array[Double], d: Int, z: Array[Double]) {
    private val original = series.clone()
    private val longAr = mutable.HashMap.empty[Int, Try[Array[Double]]]

    def fit(p: Int, q: Int): Fit = {
      val order = Order(p, d, q)
      val n = z.length
      require(n >= p + q + 8,
        s"series too short (${series.length}) for $order: need ${p + q + 8 + d} points")

      // Stage 1: long-AR residual proxies (only needed when q > 0).
      val L = if (q > 0) math.min(math.max(2 * (p + q), 4), n / 3) else 0
      val eHat = if (q > 0) longAr.getOrElseUpdate(L, Try(longArResiduals(L))).get else null

      // Stage 2: OLS of z_t on [1, lags of z, lags of ê].
      val beta =
        if (p == 0 && q == 0) Array(LinAlg.mean(z))
        else {
          val eq = new LinAlg.NormalEquations(1 + p + q)
          val row = new Array[Double](1 + p + q)
          row(0) = 1.0
          var t = math.max(p, q) + L
          while (t < n) {
            var i = 1
            while (i <= p) { row(i) = z(t - i); i += 1 }
            var j = 1
            while (j <= q) { row(p + j) = eHat(t - j); j += 1 }
            eq.add(row, z(t))
            t += 1
          }
          eq.solve(ridge = 1e-8)
        }
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
      Fit(order, intercept, phi, theta, sigma2, aic, original, z, resid)
    }

    /** Residuals ê_t (0 before t = L) of an OLS AR(L) fit with intercept. */
    private def longArResiduals(L: Int): Array[Double] = {
      val n = z.length
      val eq = new LinAlg.NormalEquations(1 + L)
      val row = new Array[Double](1 + L)
      row(0) = 1.0
      var t = L
      while (t < n) {
        var i = 1
        while (i <= L) { row(i) = z(t - i); i += 1 }
        eq.add(row, z(t))
        t += 1
      }
      val beta = eq.solve(ridge = 1e-8)
      val eHat = new Array[Double](n)
      t = L
      while (t < n) {
        var pred = beta(0)
        var i = 1
        while (i <= L) { pred += beta(i) * z(t - i); i += 1 }
        eHat(t) = z(t) - pred
        t += 1
      }
      eHat
    }
  }

  private[forecast] def lag1Autocorr(xs: Array[Double]): Double = {
    if (xs.length < 3) return 0.0
    val mu = LinAlg.mean(xs)
    var num = 0.0; var den = 0.0
    var i = 0
    while (i < xs.length) {
      val d0 = xs(i) - mu
      den += d0 * d0
      if (i > 0) num += d0 * (xs(i - 1) - mu)
      i += 1
    }
    if (den <= 0) 0.0 else num / den
  }
}

/** [[Forecaster]] adapter over [[Arima.autoFit]]. */
final case class ArimaForecaster() extends Forecaster {
  override def fitForecast(series: Array[Double], horizon: Int, level: Double): Forecast = {
    Forecaster.requireHorizonAndLevel(horizon, level)
    Forecaster.requireFinite(series)
    Arima.autoFit(series).forecast(horizon, level)
  }
}

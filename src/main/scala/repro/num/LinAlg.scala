package repro.num

/** Tiny dense linear algebra used by the driver-side forecasters.
  *
  * Everything here operates on problems with at most a few dozen unknowns
  * (ARIMA's grid is p ≤ 7, q ≤ 2, so a stage-2 regression has at most 10
  * unknowns and a long-AR fit at most 19; LSTM weight matrices are 4×5), so
  * plain `Array[Double]` + Gaussian elimination is the right tool — no
  * external dependency, deterministic, and trivially fast.
  */
object LinAlg {

  /** Solve the square system `m x = y` by Gaussian elimination with partial
    * pivoting, overwriting `m` and `y`; [[NormalEquations.solve]] calls it.
    *
    * @throws IllegalArgumentException if the matrix is numerically singular.
    */
  private def eliminate(m: Array[Array[Double]], y: Array[Double]): Array[Double] = {
    val n = y.length
    var col = 0
    while (col < n) {
      // Partial pivot: bring the largest |entry| in this column to the diagonal.
      var piv = col
      var best = math.abs(m(col)(col))
      var r = col + 1
      while (r < n) {
        val v = math.abs(m(r)(col))
        if (v > best) { best = v; piv = r }
        r += 1
      }
      if (best < 1e-12)
        throw new IllegalArgumentException(s"NormalEquations.solve: singular matrix at column $col")
      if (piv != col) {
        val tmp = m(piv); m(piv) = m(col); m(col) = tmp
        val t = y(piv); y(piv) = y(col); y(col) = t
      }
      r = col + 1
      while (r < n) {
        val f = m(r)(col) / m(col)(col)
        if (f != 0.0) {
          var c = col
          while (c < n) { m(r)(c) -= f * m(col)(c); c += 1 }
          y(r) -= f * y(col)
        }
        r += 1
      }
      col += 1
    }
    val x = new Array[Double](n)
    var i = n - 1
    while (i >= 0) {
      var s = y(i)
      var j = i + 1
      while (j < n) { s -= m(i)(j) * x(j); j += 1 }
      x(i) = s / m(i)(i)
      i -= 1
    }
    x
  }

  /** The normal equations `XᵀX β = Xᵀy` of a least-squares problem with `k`
    * unknowns, accumulated one row at a time so a caller can refill a single
    * row buffer instead of materialising X. Only the upper triangle of XᵀX
    * is summed; zero regressors are skipped.
    */
  final class NormalEquations(k: Int) {
    private val xtx = new Array[Double](k * k)
    private val xty = new Array[Double](k)
    private var rows = 0

    /** Add the row `row(0 until k)` with response `y`. */
    def add(row: Array[Double], y: Double): Unit = {
      var i = 0
      while (i < k) {
        val xi = row(i)
        if (xi != 0.0) {
          var j = i
          while (j < k) { xtx(i * k + j) += xi * row(j); j += 1 }
          xty(i) += xi * y
        }
        i += 1
      }
      rows += 1
    }

    /** Solve `(XᵀX + ridge·I) β = Xᵀy`; the accumulated sums are kept.
      *
      * @throws IllegalArgumentException if no row was added or the system is
      *         numerically singular.
      */
    def solve(ridge: Double): Array[Double] = {
      require(rows > 0, "NormalEquations.solve: no rows")
      val m = Array.ofDim[Double](k, k)
      var i = 0
      while (i < k) {
        var j = i
        while (j < k) { val v = xtx(i * k + j); m(i)(j) = v; m(j)(i) = v; j += 1 }
        m(i)(i) += ridge
        i += 1
      }
      eliminate(m, xty.clone())
    }
  }

  /** Mean of a series. */
  def mean(xs: Array[Double]): Double = {
    require(xs.nonEmpty, "mean of empty series")
    var s = 0.0; var i = 0
    while (i < xs.length) { s += xs(i); i += 1 }
    s / xs.length
  }

  /** Unbiased sample variance (n−1 denominator); 0 for length-1 input. */
  def variance(xs: Array[Double]): Double = {
    if (xs.length < 2) return 0.0
    val mu = mean(xs)
    var s = 0.0; var i = 0
    while (i < xs.length) { val d = xs(i) - mu; s += d * d; i += 1 }
    s / (xs.length - 1)
  }

  /** Standard normal quantile (Acklam's rational approximation, |err| < 1.2e-9).
    * Used for forecast-interval z-scores, e.g. `normalQuantile(0.95) ≈ 1.645`.
    */
  def normalQuantile(p: Double): Double = {
    require(p > 0.0 && p < 1.0, s"normalQuantile: p=$p out of (0,1)")
    val a = Array(-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
                  1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
    val b = Array(-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
                  6.680131188771972e+01, -1.328068155288572e+01)
    val c = Array(-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
                  -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
    val d = Array(7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
                  3.754408661907416e+00)
    val pLow = 0.02425
    if (p < pLow) {
      val q = math.sqrt(-2 * math.log(p))
      (((((c(0) * q + c(1)) * q + c(2)) * q + c(3)) * q + c(4)) * q + c(5)) /
        ((((d(0) * q + d(1)) * q + d(2)) * q + d(3)) * q + 1)
    } else if (p <= 1 - pLow) {
      val q = p - 0.5
      val r = q * q
      (((((a(0) * r + a(1)) * r + a(2)) * r + a(3)) * r + a(4)) * r + a(5)) * q /
        (((((b(0) * r + b(1)) * r + b(2)) * r + b(3)) * r + b(4)) * r + 1)
    } else {
      -normalQuantile(1 - p)
    }
  }
}

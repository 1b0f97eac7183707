package repro.forecast

import repro.num.LinAlg

/** Slow reference for [[LstmForecaster]] and [[Lstm]]: the model as it was
  * written before its step buffers were kept per instance, with `tanh`
  * passed in. Every step allocates its gate and state arrays, `backward`
  * recomputes `tanh(c_t)`, and Adam recomputes its bias corrections per
  * parameter. Tests require the production model to match
  * `LstmReference(Lstm.tanh)` bit for bit, and `LstmReference(math.tanh)`
  * to within rounding.
  */
final case class LstmReference(tanh: Double => Double) {

  final class Forecaster(hidden: Int = 4, window: Int = 7,
                         epochs: Int = 200, lr: Double = 0.02,
                         seed: Long = 42) extends repro.forecast.Forecaster {
    override def fitForecast(series: Array[Double], horizon: Int, level: Double): Forecast = {
      repro.forecast.Forecaster.requireFinite(series)
      require(series.length >= window + 4,
        s"LSTM needs at least ${window + 4} points, got ${series.length}")
      val sMin = series.min
      val range0 = series.max - sMin
      val range = if (range0 <= 0) 1.0 else range0
      val scaled = series.map(v => (v - sMin) / range)

      val nWin = scaled.length - window
      val xs = Array.tabulate(nWin)(i => scaled.slice(i, i + window))
      val ys = Array.tabulate(nWin)(i => scaled(i + window))

      val net = new Net(hidden, window, seed)
      net.train(xs, ys, epochs, lr)

      val resid = xs.indices.map(i => (net.predict(xs(i)) - ys(i)) * range).toArray
      val sd = math.sqrt(math.max(LinAlg.variance(resid), 1e-12))

      val buf = scaled.takeRight(window).toBuffer
      val point = new Array[Double](horizon)
      var h = 0
      while (h < horizon) {
        val p = net.predict(buf.takeRight(window).toArray)
        buf += p
        point(h) = p * range + sMin
        h += 1
      }
      val zq = LinAlg.normalQuantile(0.5 + level / 2)
      val lo = Array.tabulate(horizon)(i => point(i) - zq * sd * math.sqrt(i + 1.0))
      val hi = Array.tabulate(horizon)(i => point(i) + zq * sd * math.sqrt(i + 1.0))
      Forecast(point, lo, hi)
    }
  }

  /** The network, with the parameter layout of [[Lstm]]. */
  final class Net(val H: Int, val K: Int, seed: Long) {
    private val offWx = 0
    private val offWh = offWx + 4 * H
    private val offB  = offWh + 4 * H * H
    private val offWd = offB + 4 * H
    private val offBd = offWd + H
    val nParams: Int = offBd + 1

    val w: Array[Double] = {
      val rng = new scala.util.Random(seed)
      val a = Array.fill(nParams)((rng.nextDouble() - 0.5) / math.sqrt(H.toDouble))
      var j = 0
      while (j < H) { a(offB + 1 * H + j) = 1.0; j += 1 }
      a
    }

    @inline private def sigmoid(x: Double): Double = 1.0 / (1.0 + math.exp(-x))

    def predict(x: Array[Double]): Double = forward(x, null)

    private def forward(x: Array[Double], cache: Array[Array[Array[Double]]]): Double = {
      var hVec = new Array[Double](H)
      var cVec = new Array[Double](H)
      var t = 0
      while (t < x.length) {
        val xi = x(t)
        val iG = new Array[Double](H); val fG = new Array[Double](H)
        val oG = new Array[Double](H); val gG = new Array[Double](H)
        val cN = new Array[Double](H); val hN = new Array[Double](H)
        var j = 0
        while (j < H) {
          var ai = w(offWx + 0 * H + j) * xi + w(offB + 0 * H + j)
          var af = w(offWx + 1 * H + j) * xi + w(offB + 1 * H + j)
          var ao = w(offWx + 2 * H + j) * xi + w(offB + 2 * H + j)
          var ag = w(offWx + 3 * H + j) * xi + w(offB + 3 * H + j)
          var k = 0
          while (k < H) {
            val hk = hVec(k)
            ai += w(offWh + ((0 * H + j) * H) + k) * hk
            af += w(offWh + ((1 * H + j) * H) + k) * hk
            ao += w(offWh + ((2 * H + j) * H) + k) * hk
            ag += w(offWh + ((3 * H + j) * H) + k) * hk
            k += 1
          }
          iG(j) = sigmoid(ai); fG(j) = sigmoid(af); oG(j) = sigmoid(ao); gG(j) = tanh(ag)
          cN(j) = fG(j) * cVec(j) + iG(j) * gG(j)
          hN(j) = oG(j) * tanh(cN(j))
          j += 1
        }
        if (cache != null) cache(t) = Array(iG, fG, oG, gG, cN, hN, cVec, hVec)
        cVec = cN; hVec = hN
        t += 1
      }
      var out = w(offBd)
      var j = 0
      while (j < H) { out += w(offWd + j) * hVec(j); j += 1 }
      out
    }

    def gradient(xs: Array[Array[Double]], ys: Array[Double]): Array[Double] = {
      val grad = new Array[Double](nParams)
      var sample = 0
      while (sample < xs.length) {
        val x = xs(sample)
        val cache = new Array[Array[Array[Double]]](x.length)
        val pred = forward(x, cache)
        val dOut = 2.0 * (pred - ys(sample)) / xs.length
        val hLast = cache(x.length - 1)(5)
        var j = 0
        while (j < H) { grad(offWd + j) += dOut * hLast(j); j += 1 }
        grad(offBd) += dOut
        var dh = Array.tabulate(H)(j2 => dOut * w(offWd + j2))
        var dc = new Array[Double](H)
        var t = x.length - 1
        while (t >= 0) {
          val Array(iG, fG, oG, gG, cN, _, cPrev, hPrev) = cache(t)
          val xi = x(t)
          val dhPrev = new Array[Double](H)
          val dcPrev = new Array[Double](H)
          var jj = 0
          while (jj < H) {
            val tc = tanh(cN(jj))
            val doG = dh(jj) * tc
            val dcj = dc(jj) + dh(jj) * oG(jj) * (1 - tc * tc)
            val diG = dcj * gG(jj)
            val dgG = dcj * iG(jj)
            val dfG = dcj * cPrev(jj)
            dcPrev(jj) = dcj * fG(jj)
            val dai = diG * iG(jj) * (1 - iG(jj))
            val daf = dfG * fG(jj) * (1 - fG(jj))
            val dao = doG * oG(jj) * (1 - oG(jj))
            val dag = dgG * (1 - gG(jj) * gG(jj))
            grad(offWx + 0 * H + jj) += dai * xi
            grad(offWx + 1 * H + jj) += daf * xi
            grad(offWx + 2 * H + jj) += dao * xi
            grad(offWx + 3 * H + jj) += dag * xi
            grad(offB + 0 * H + jj) += dai
            grad(offB + 1 * H + jj) += daf
            grad(offB + 2 * H + jj) += dao
            grad(offB + 3 * H + jj) += dag
            var k = 0
            while (k < H) {
              val hk = hPrev(k)
              grad(offWh + ((0 * H + jj) * H) + k) += dai * hk
              grad(offWh + ((1 * H + jj) * H) + k) += daf * hk
              grad(offWh + ((2 * H + jj) * H) + k) += dao * hk
              grad(offWh + ((3 * H + jj) * H) + k) += dag * hk
              dhPrev(k) += dai * w(offWh + ((0 * H + jj) * H) + k) +
                           daf * w(offWh + ((1 * H + jj) * H) + k) +
                           dao * w(offWh + ((2 * H + jj) * H) + k) +
                           dag * w(offWh + ((3 * H + jj) * H) + k)
              k += 1
            }
            jj += 1
          }
          dh = dhPrev; dc = dcPrev
          t -= 1
        }
        sample += 1
      }
      grad
    }

    def train(xs: Array[Array[Double]], ys: Array[Double], epochs: Int, lr: Double): Unit = {
      val b1 = 0.9; val b2 = 0.999; val eps = 1e-8
      val m = new Array[Double](nParams)
      val v = new Array[Double](nParams)
      var step = 0
      while (step < epochs) {
        val g = gradient(xs, ys)
        val t = step + 1
        var i = 0
        while (i < nParams) {
          m(i) = b1 * m(i) + (1 - b1) * g(i)
          v(i) = b2 * v(i) + (1 - b2) * g(i) * g(i)
          val mh = m(i) / (1 - math.pow(b1, t))
          val vh = v(i) / (1 - math.pow(b2, t))
          w(i) -= lr * mh / (math.sqrt(vh) + eps)
          i += 1
        }
        step += 1
      }
    }
  }
}

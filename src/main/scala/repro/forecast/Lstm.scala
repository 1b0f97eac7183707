package repro.forecast

import java.util.concurrent.{ForkJoinPool, RecursiveAction}
import java.util.concurrent.atomic.AtomicInteger
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
  override def fitForecast(series: Array[Double], horizon: Int, level: Double): Forecast = {
    Forecaster.requireHorizonAndLevel(horizon, level)
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
  * [[gradient]] computes the full-batch gradient in two phases, each shared
  * between the calling thread and helper tasks forked to the JVM's
  * `ForkJoinPool.commonPool()` (or to the caller's own pool, when the caller
  * is a pool worker):
  *  1. per window, with the claiming thread's own activation buffers, a
  *     forward pass and BPTT record the window's `dL/dOut`, its hidden
  *     states and every step's gate deltas;
  *  2. per gate unit, the unit's `Wx`, `b` and `Wh` terms are summed from
  *     those records over the windows in order and over each window's steps
  *     from last to first; one more item sums the head's `Wd` and `bd`.
  *
  * Every parameter thus adds the same terms in the same order as a
  * sequential loop over windows and steps, so the gradient, and the trained
  * weights, are bit-identical whatever the number of threads and whichever
  * thread claims which item. Threads claim items one at a time, so the
  * caller finishes a phase alone when no helper is running; a helper that
  * finds no work for [[Lstm.HelperIdleNanos]] returns to the pool, and is
  * forked again by the next phase. The records and buffers are allocated
  * once per instance (the records on the first batch, and again only for a
  * larger one), and a fit starts no thread. An instance is not thread-safe:
  * use one per thread, as [[LstmForecaster]] builds one per fit.
  *
  * `tanh` is computed through `math.exp`, as the sigmoids are (see
  * [[Lstm.tanh]]).
  *
  * @param threads the most threads a gradient runs on, the caller included;
  *                the public constructor uses the common pool's parallelism
  *                plus one
  */
final class Lstm private[forecast] (val H: Int, val K: Int, seed: Long, threads: Int) {
  require(threads >= 1, s"LSTM gradient needs at least one thread, got $threads")

  def this(H: Int, K: Int, seed: Long) =
    this(H, K, seed, ForkJoinPool.getCommonPoolParallelism + 1)

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

  /** One thread's buffers for a forward pass and BPTT over one window. Step
    * t's gates i, f, o, g start at gates((4t + gate)·H) and its tanh(c_t) at
    * tanhC(t·H); c and h hold the states 0..K at (state·H), state 0 zero.
    * dh and dc hold dL/dh and dL/dc of the current step, dhPrev and dcPrev
    * those of the step before; sum is a row of phase 2's `Wh` sums.
    */
  private final class Scratch {
    val gates = new Array[Double](4 * H * K)
    val tanhC = new Array[Double](H * K)
    val c = new Array[Double](H * (K + 1))
    val h = new Array[Double](H * (K + 1))
    val dh = new Array[Double](H)
    val dc = new Array[Double](H)
    val dhPrev = new Array[Double](H)
    val dcPrev = new Array[Double](H)
    val sum = new Array[Double](H)
  }

  /** One phase of a gradient call: items `0 until items` (windows in phase
    * 1, units in phase 2), claimed through `next`; `done` counts the items
    * finished, and `failure` keeps an item's exception for the caller.
    */
  private final class Phase(val backprop: Boolean, val items: Int) {
    val next = new AtomicInteger
    val done = new AtomicInteger
    @volatile var failure: Throwable = _
  }

  /** A pool task that works on the current phase's items with its own
    * buffers, until it has found none for [[Lstm.HelperIdleNanos]].
    */
  private final class Helper extends RecursiveAction {
    private val buf = new Scratch
    override def compute(): Unit = {
      var idleSince = System.nanoTime()
      while (System.nanoTime() - idleSince < Lstm.HelperIdleNanos) {
        if (work(phase, buf)) idleSince = System.nanoTime()
        else Thread.onSpinWait()
      }
    }
  }

  private val callerBuf = new Scratch
  private val helpers = Array.fill(threads - 1)(new Helper)
  private var helpersForked = false
  @volatile private var phase = new Phase(true, 0)
  private val grad = new Array[Double](nParams)

  // The batch of the last gradient call, and its records per window s:
  // dL/dOut at dOut(s), the states h_0..h_K at hs((s(K+1) + state)·H), and
  // step t's gate deltas dai, daf, dao, dag at deltas(((sK + t)·4 + gate)·H).
  private var xs: Array[Array[Double]] = _
  private var ys: Array[Double] = _
  private var n = 0
  private var dOut = new Array[Double](0)
  private var hs = new Array[Double](0)
  private var deltas = new Array[Double](0)

  @inline private def sigmoid(x: Double): Double = 1.0 / (1.0 + math.exp(-x))

  /** Forward pass over one window; returns the scalar prediction. */
  def predict(x: Array[Double]): Double = {
    requireWindow(x)
    forward(x, callerBuf)
  }

  private def requireWindow(x: Array[Double]): Unit =
    require(x.length == K, s"LSTM window has ${x.length} values, expected $K")

  /** Forward pass over a window of `K` values, leaving every step's
    * activations in `buf`.
    */
  private def forward(x: Array[Double], buf: Scratch): Double = {
    val gates = buf.gates; val tanhC = buf.tanhC; val c = buf.c; val h = buf.h
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
    require(xs.length == ys.length, s"${xs.length} LSTM windows but ${ys.length} targets")
    var s = 0
    while (s < xs.length) { requireWindow(xs(s)); s += 1 }
    n = xs.length
    if (dOut.length < n) {
      dOut = new Array[Double](n)
      hs = new Array[Double](n * (K + 1) * H)
      deltas = new Array[Double](n * K * 4 * H)
    }
    this.xs = xs
    this.ys = ys
    runPhase(new Phase(true, n))
    runPhase(new Phase(false, 4 * H + 1))
    grad
  }

  /** Publishes `p`, forks every helper that is not running, works on `p`
    * with the caller's buffers, and returns once every item is finished,
    * rethrowing an item's failure.
    */
  private def runPhase(p: Phase): Unit = {
    phase = p
    var i = 0
    while (i < helpers.length) {
      val t = helpers(i)
      if (!helpersForked) t.fork()
      else if (t.isDone) { t.reinitialize(); t.fork() }
      i += 1
    }
    helpersForked = true
    work(p, callerBuf)
    while (p.done.get < p.items) Thread.onSpinWait()
    if (p.failure != null) throw p.failure
  }

  /** Claims and runs items of `p` until none is left; returns whether it
    * ran any.
    */
  private def work(p: Phase, buf: Scratch): Boolean = {
    if (p.next.get >= p.items) return false
    var i = p.next.getAndIncrement()
    val ran = i < p.items
    while (i < p.items) {
      try { if (p.backprop) backprop(i, buf) else sumUnit(i, buf.sum) }
      catch { case e: Throwable => p.failure = e }
      p.done.incrementAndGet()
      i = p.next.getAndIncrement()
    }
    ran
  }

  /** Phase 1 for window `s`: a forward pass and BPTT, recording the
    * window's `dL/dOut`, states and gate deltas.
    */
  private def backprop(s: Int, buf: Scratch): Unit = {
    val x = xs(s)
    val pred = forward(x, buf)
    val d = 2.0 * (pred - ys(s)) / n
    dOut(s) = d
    System.arraycopy(buf.h, 0, hs, s * (K + 1) * H, (K + 1) * H)
    val gates = buf.gates; val tanhC = buf.tanhC; val c = buf.c
    var dh = buf.dh; var dc = buf.dc; var dhPrev = buf.dhPrev; var dcPrev = buf.dcPrev
    var j = 0
    while (j < H) { dh(j) = d * w(offWd + j); dc(j) = 0.0; j += 1 }
    var t = K - 1
    while (t >= 0) {
      val prev = t * H
      val gi = 4 * prev
      val di = (s * K + t) * 4 * H
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
        deltas(di + jj) = dai
        deltas(di + H + jj) = daf
        deltas(di + 2 * H + jj) = dao
        deltas(di + 3 * H + jj) = dag
        var k = 0
        while (k < H) {
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
  }

  /** Phase 2 for unit `u`: gate unit `u = gate·H + j` sums its `Wx`, `b`
    * and `Wh` row over windows and steps `K−1..0`; unit `4H` sums the head.
    * `row` is scratch for the `Wh` row.
    */
  private def sumUnit(u: Int, row: Array[Double]): Unit = {
    if (u == 4 * H) {
      var j = 0
      while (j < H) {
        var g = 0.0
        var s = 0
        while (s < n) { g += dOut(s) * hs((s * (K + 1) + K) * H + j); s += 1 }
        grad(offWd + j) = g
        j += 1
      }
      var g = 0.0
      var s = 0
      while (s < n) { g += dOut(s); s += 1 }
      grad(offBd) = g
    } else {
      java.util.Arrays.fill(row, 0.0)
      var gx = 0.0
      var gb = 0.0
      var s = 0
      while (s < n) {
        val x = xs(s)
        var t = K - 1
        while (t >= 0) {
          val d = deltas((s * K + t) * 4 * H + u)
          gx += d * x(t)
          gb += d
          val hb = (s * (K + 1) + t) * H
          var k = 0
          while (k < H) { row(k) += d * hs(hb + k); k += 1 }
          t -= 1
        }
        s += 1
      }
      grad(offWx + u) = gx
      grad(offB + u) = gb
      System.arraycopy(row, 0, grad, offWh + u * H, H)
    }
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

  /** How long a helper of [[Lstm.gradient]] spins for work before it
    * returns to the pool. The caller publishes the next phase within
    * microseconds (an Adam step), so a helper stays through a whole fit
    * instead of being parked and woken twice per epoch, which on a 4-vCPU VM
    * cost more than the parallel work saved.
    */
  private[forecast] val HelperIdleNanos = 200000L

  /** `tanh(x) = 2σ(2x) − 1`, within 1e-15 of `math.tanh`. It goes through
    * `math.exp`, a JIT intrinsic, as the sigmoids do. On JDK 17
    * `math.tanh` is a native call with no intrinsic, timed at 40–54 ns a
    * call against 7–13 ns for `math.exp` on a 4-vCPU x86 VM, and a
    * 200-epoch fit on 150 days makes ≈ 1.6 M tanh calls.
    */
  private[forecast] def tanh(x: Double): Double = 2.0 / (1.0 + math.exp(-2.0 * x)) - 1.0
}

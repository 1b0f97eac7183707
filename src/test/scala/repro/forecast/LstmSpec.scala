package repro.forecast

import java.util.concurrent.{Callable, ForkJoinPool, ForkJoinWorkerThread}
import org.scalacheck.{Gen, Prop}
import org.scalacheck.Prop.propBoolean
import org.scalatest.funsuite.AnyFunSuite
import repro.{PropSupport, TestData}
import scala.jdk.CollectionConverters._
import scala.util.Random

/** Tests for the pure-Scala LSTM forecaster: exact gradient correctness
  * (numerical check), learning capacity on known signals, determinism, the
  * Forecaster contract, agreement with the slow [[LstmReference]], and a
  * parallel gradient that is bit-identical whatever its thread count.
  */
class LstmSpec extends AnyFunSuite with PropSupport {

  /** A series of one of four shapes: weekly seasonal, random walk,
    * constant, or 60 % zeros.
    */
  private def series(kind: Int, n: Int, seed: Long): Array[Double] = {
    val rng = new Random(seed)
    kind match {
      case 0 => TestData.weeklySeasonal(n, rng)
      case 1 => Array.iterate(500.0, n)(_ + 20 * rng.nextGaussian())
      case 2 => Array.fill(n)(1000.0 * (1 + (seed % 7)))
      case _ => Array.fill(n)(if (rng.nextDouble() < 0.6) 0.0 else 100 * rng.nextDouble())
    }
  }

  /** Model and data shapes for the reference properties. */
  private case class Case(kind: Int, n: Int, seed: Long, hidden: Int, window: Int,
                          epochs: Int, horizon: Int)

  private val genCase: Gen[Case] = for {
    kind <- Gen.choose(0, 3)
    hidden <- Gen.choose(1, 5)
    window <- Gen.choose(2, 8)
    n <- Gen.choose(window + 4, 200)
    epochs <- Gen.choose(1, 50)
    horizon <- Gen.choose(1, 10)
    seed <- Gen.choose(0L, 1L << 40)
  } yield Case(kind, n, seed, hidden, window, epochs, horizon)

  /** The min-max-scaled training windows [[LstmForecaster]] fits on. */
  private def windows(y: Array[Double], window: Int): (Array[Array[Double]], Array[Double]) = {
    val range0 = y.max - y.min
    val scaled = y.map(v => (v - y.min) / (if (range0 <= 0) 1.0 else range0))
    (Array.tabulate(y.length - window)(i => scaled.slice(i, i + window)),
     Array.tabulate(y.length - window)(i => scaled(i + window)))
  }

  private def sameBits(a: Array[Double], b: Array[Double]): Boolean =
    a.length == b.length && a.indices.forall(i =>
      java.lang.Double.doubleToLongBits(a(i)) == java.lang.Double.doubleToLongBits(b(i)))

  test("parameter count matches the architecture (4(H + H² + H) + H + 1)") {
    val net = new Lstm(4, 7, seed = 1)
    assert(net.nParams == 4 * (4 + 16 + 4) + 4 + 1)
    val small = new Lstm(3, 5, seed = 1)
    assert(small.nParams == 4 * (3 + 9 + 3) + 3 + 1)
  }

  test("numerical gradient check: analytic BPTT matches finite differences") {
    val rng = new Random(2)
    val net = new Lstm(3, 4, seed = 3)
    val xs = Array.fill(5)(Array.fill(4)(rng.nextDouble()))
    val ys = Array.fill(5)(rng.nextDouble())
    val analytic = net.gradient(xs, ys)
    val eps = 1e-6
    var maxRel = 0.0
    for (i <- 0 until net.nParams) {
      val orig = net.w(i)
      net.w(i) = orig + eps
      val up = net.loss(xs, ys)
      net.w(i) = orig - eps
      val dn = net.loss(xs, ys)
      net.w(i) = orig
      val numeric = (up - dn) / (2 * eps)
      val denom = math.max(1e-8, math.abs(numeric) + math.abs(analytic(i)))
      maxRel = math.max(maxRel, math.abs(numeric - analytic(i)) / denom)
    }
    assert(maxRel < 1e-5, s"max relative gradient error $maxRel")
  }

  test("training reduces the loss") {
    val rng = new Random(4)
    val net = new Lstm(4, 7, seed = 5)
    val xs = Array.fill(40)(Array.fill(7)(rng.nextDouble()))
    val ys = xs.map(x => x.sum / 7.0)
    val before = net.loss(xs, ys)
    net.train(xs, ys, epochs = 150, lr = 0.02)
    val after = net.loss(xs, ys)
    assert(after < before * 0.2, s"loss $before -> $after")
  }

  test("forward pass with zero weights and zero biases outputs bd") {
    val net = new Lstm(2, 3, seed = 6)
    java.util.Arrays.fill(net.w, 0.0)
    net.w(net.nParams - 1) = 0.75
    assert(math.abs(net.predict(Array(0.3, 0.9, 0.1)) - 0.75) < 1e-12)
  }

  test("deterministic: same seed, same training, same prediction") {
    def run(): Double = {
      val series = Array.tabulate(60)(t => 100.0 + 10 * math.sin(t / 3.0))
      LstmForecaster(epochs = 30, seed = 7).fitForecast(series, 3, 0.9).point(0)
    }
    assert(run() == run())
  }

  test("different seed gives a different (but finite) prediction") {
    val series = Array.tabulate(60)(t => 100.0 + 10 * math.sin(t / 3.0))
    val a = LstmForecaster(epochs = 30, seed = 8).fitForecast(series, 3, 0.9).point(0)
    val b = LstmForecaster(epochs = 30, seed = 9).fitForecast(series, 3, 0.9).point(0)
    assert(a != b && java.lang.Double.isFinite(a) && java.lang.Double.isFinite(b))
  }

  test("learns a constant series almost exactly") {
    val series = Array.fill(40)(42.0)
    val fc = LstmForecaster(epochs = 100).fitForecast(series, 5, 0.9)
    assert(fc.point.forall(v => math.abs(v - 42.0) < 2.0), fc.point.toSeq.toString)
  }

  test("learns a weekly sine well enough to forecast 7 days (<10% error)") {
    val series = Array.tabulate(150)(t =>
      1000.0 * (1 + 0.3 * math.sin(2 * math.Pi * t / 7)))
    val truth = Array.tabulate(7)(h =>
      1000.0 * (1 + 0.3 * math.sin(2 * math.Pi * (150 + h) / 7)))
    val fc = LstmForecaster().fitForecast(series, 7, 0.9)
    val err = (0 until 7).map(h => math.abs(fc.point(h) - truth(h)) / truth(h)).sum / 7
    assert(err < 0.1, s"7-day forecast error $err")
  }

  test("tracks a linear trend with tolerable drift") {
    val series = Array.tabulate(100)(t => 500.0 + 5.0 * t)
    val fc = LstmForecaster().fitForecast(series, 5, 0.9)
    val truth = Array.tabulate(5)(h => 500.0 + 5.0 * (100 + h))
    val err = (0 until 5).map(h => math.abs(fc.point(h) - truth(h)) / truth(h)).max
    // Min-max-scaled LSTMs extrapolate trends imperfectly; 10% is fine here.
    assert(err < 0.1, s"trend forecast error $err")
  }

  test("Forecaster contract: horizon length and band ordering") {
    val series = Array.tabulate(80)(t => 50.0 + 3 * math.sin(t / 2.0))
    val fc = LstmForecaster(epochs = 50).fitForecast(series, 6, 0.9)
    assert(fc.horizon == 6)
    assert((0 until 6).forall(h => fc.lo(h) <= fc.point(h) && fc.point(h) <= fc.hi(h)))
  }

  test("interval width grows with horizon (sqrt-h heuristic)") {
    val rng = new Random(10)
    val series = Array.tabulate(100)(t => 100.0 + 5 * math.sin(t / 3.0) + rng.nextGaussian())
    val fc = LstmForecaster(epochs = 50).fitForecast(series, 4, 0.9)
    val widths = (0 until 4).map(h => fc.hi(h) - fc.lo(h))
    assert(widths.zip(widths.tail).forall { case (a, b) => b > a })
  }

  test("series shorter than window+4 rejected") {
    intercept[IllegalArgumentException] {
      LstmForecaster().fitForecast(Array.fill(8)(1.0), 3, 0.9)
    }
  }

  test("a NaN or infinite value is rejected, naming its index") {
    for (bad <- Seq(Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity)) {
      val y = Array.tabulate(150)(t => 100.0 + 10 * math.sin(2 * math.Pi * t / 7))
      y(17) = bad
      val e = intercept[IllegalArgumentException](LstmForecaster().fitForecast(y, 7, 0.9))
      assert(e.getMessage.contains("index 17"), e.getMessage)
    }
  }

  // ---------- the production kernel against LstmReference ----------

  test("trained weights and forecasts are bit-identical to LstmReference(Lstm.tanh)") {
    val ref = LstmReference(Lstm.tanh)
    checkProp(Prop.forAll(genCase) { c =>
      val y = series(c.kind, c.n, c.seed)
      val (xs, ys) = windows(y, c.window)
      val net = new Lstm(c.hidden, c.window, c.seed)
      val refNet = new ref.Net(c.hidden, c.window, c.seed)
      net.train(xs, ys, c.epochs, 0.02)
      refNet.train(xs, ys, c.epochs, 0.02)
      val fc = LstmForecaster(c.hidden, c.window, c.epochs, seed = c.seed)
        .fitForecast(y, c.horizon, 0.9)
      val refFc = new ref.Forecaster(c.hidden, c.window, c.epochs, seed = c.seed)
        .fitForecast(y, c.horizon, 0.9)
      (sameBits(net.w, refNet.w) :| s"weights differ: $c") &&
        (sameBits(fc.point, refFc.point) && sameBits(fc.lo, refFc.lo) &&
          sameBits(fc.hi, refFc.hi)) :| s"forecasts differ: $c"
    }, minTests = 100)
  }

  test("forecasts agree with LstmReference(math.tanh) within 1e-9 of the series' scale") {
    val ref = LstmReference(math.tanh)
    checkProp(Prop.forAll(genCase) { c =>
      val y = series(c.kind, c.n, c.seed)
      val scale = y.map(math.abs).max max 1.0
      val fc = LstmForecaster(c.hidden, c.window, c.epochs, seed = c.seed)
        .fitForecast(y, c.horizon, 0.9)
      val refFc = new ref.Forecaster(c.hidden, c.window, c.epochs, seed = c.seed)
        .fitForecast(y, c.horizon, 0.9)
      val worst = Seq(fc.point -> refFc.point, fc.lo -> refFc.lo, fc.hi -> refFc.hi)
        .flatMap { case (a, b) => a.indices.map(i => math.abs(a(i) - b(i))) }.max
      (worst <= 1e-9 * scale) :| s"forecasts differ by $worst at scale $scale: $c"
    }, minTests = 100)
  }

  test("Lstm.tanh is within 1e-15 of math.tanh and keeps tanh's range and limits") {
    var x = -40.0
    while (x <= 40.0) {
      val t = Lstm.tanh(x)
      assert(math.abs(t - math.tanh(x)) <= 1e-15, s"tanh($x) = $t vs ${math.tanh(x)}")
      assert(t >= -1.0 && t <= 1.0, s"tanh($x) = $t")
      x += 1.0 / 1024
    }
    for (tiny <- Seq(1e-300, -1e-300))
      assert(math.abs(Lstm.tanh(tiny) - math.tanh(tiny)) <= 1e-15)
    assert(Lstm.tanh(Double.PositiveInfinity) == 1.0)
    assert(Lstm.tanh(Double.NegativeInfinity) == -1.0)
    assert(Lstm.tanh(Double.NaN).isNaN)
  }

  test("fitForecast allocates under 1 MB on a 150-day series") {
    val y = TestData.weeklySeasonal(150, new Random(21))
    val threads = java.lang.management.ManagementFactory.getThreadMXBean
      .asInstanceOf[com.sun.management.ThreadMXBean]
    // The caller and the common pool's workers: every thread a fit runs on.
    def fitThreads(): Array[Long] =
      (Thread.currentThread().getId +: Thread.getAllStackTraces.keySet.asScala.toSeq.collect {
        case t: ForkJoinWorkerThread if t.getPool eq ForkJoinPool.commonPool() => t.getId
      }).toArray
    for (_ <- 1 to 3) LstmForecaster().fitForecast(y, 7, 0.9)
    val ids = fitThreads()
    val before = threads.getThreadAllocatedBytes(ids)
    LstmForecaster().fitForecast(y, 7, 0.9)
    val after = threads.getThreadAllocatedBytes(ids)
    val started = fitThreads().diff(ids)
    assert(before(0) > 0, "per-thread allocation accounting is unavailable")
    assert(after.forall(_ >= 0), "a pool worker ended during the fit; its bytes are lost")
    val bytes = ids.indices.map(i => after(i) - before(i)).sum +
      threads.getThreadAllocatedBytes(started).sum
    info(s"fitForecast allocated $bytes bytes over ${ids.length + started.length} threads")
    assert(bytes < 1000000L, s"fitForecast allocated $bytes bytes")
  }

  // ---------- the parallel gradient ----------

  test("trained weights are bit-identical whatever the number of gradient threads") {
    checkProp(Prop.forAll(genCase) { c =>
      val (xs, ys) = windows(series(c.kind, c.n, c.seed), c.window)
      val nets = Seq(new Lstm(c.hidden, c.window, c.seed)) ++
        Seq(1, 2, 7).map(new Lstm(c.hidden, c.window, c.seed, _))
      nets.foreach(_.train(xs, ys, c.epochs, 0.02))
      nets.tail.forall(n => sameBits(n.w, nets.head.w)) :| s"weights differ: $c"
    }, minTests = 50)
  }

  test("fewer windows than threads still train bit-identically to LstmReference") {
    val ref = LstmReference(Lstm.tanh)
    for (window <- Seq(2, 7); threads <- Seq(5, 7, 16)) {
      val y = TestData.weeklySeasonal(window + 4, new Random(window))
      val (xs, ys) = windows(y, window)
      val net = new Lstm(4, window, 42, threads)
      val refNet = new ref.Net(4, window, 42)
      net.train(xs, ys, 50, 0.02)
      refNet.train(xs, ys, 50, 0.02)
      assert(sameBits(net.w, refNet.w), s"window $window, $threads threads")
    }
  }

  test("a fit is bit-identical alone, in a 1- or 4-worker pool and beside another") {
    val ys = Seq.tabulate(2)(i => TestData.weeklySeasonal(150, new Random(30 + i)))
    def fit(y: Array[Double]): Forecast = LstmForecaster(epochs = 60).fitForecast(y, 7, 0.9)
    def same(a: Forecast, b: Forecast): Boolean =
      sameBits(a.point, b.point) && sameBits(a.lo, b.lo) && sameBits(a.hi, b.hi)
    val alone = ys.map(fit)

    for (workers <- Seq(1, 4)) {
      val pool = new ForkJoinPool(workers)
      try {
        val inPool = ys.map(y => pool.submit(new Callable[Forecast] { def call() = fit(y) }).get())
        assert(alone.zip(inPool).forall { case (a, b) => same(a, b) }, s"ForkJoinPool($workers)")
      } finally pool.shutdown()
    }

    val results = Array.fill(2)(Seq.empty[Forecast])
    val failures = new java.util.concurrent.ConcurrentLinkedQueue[Throwable]
    val threads = Seq.tabulate(2) { t =>
      new Thread(() =>
        try results(t) = Seq.fill(3)(ys.map(fit)).flatten
        catch { case e: Throwable => failures.add(e) })
    }
    threads.foreach(_.start())
    threads.foreach(_.join())
    assert(failures.isEmpty, failures.asScala.mkString("; "))
    for (t <- 0 until 2; (fc, i) <- results(t).zipWithIndex)
      assert(same(fc, alone(i % 2)), s"thread $t, fit $i")
  }

  test("LstmForecaster rejects a horizon < 1 or a level outside (0, 1), naming it") {
    val y = TestData.weeklySeasonal(150, new Random(22))
    for ((horizon, level, named) <- Seq((0, 0.9, "horizon 0"), (-1, 0.9, "horizon -1"),
                                        (7, 0.0, "level 0.0"), (7, 1.0, "level 1.0"),
                                        (7, Double.NaN, "level NaN"))) {
      val e = intercept[IllegalArgumentException](LstmForecaster().fitForecast(y, horizon, level))
      assert(e.getMessage.contains(named), e.getMessage)
    }
  }
}

package repro.forecast

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

/** Tests for the pure-Scala LSTM forecaster: exact gradient correctness
  * (numerical check), learning capacity on known signals, determinism, and
  * the Forecaster contract.
  */
class LstmSpec extends AnyFunSuite {

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
}

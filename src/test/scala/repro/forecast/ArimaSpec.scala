package repro.forecast

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite
import repro.{PropSupport, TestData}
import repro.num.LinAlg
import scala.util.{Random, Try}

/** Tests for the ARIMA forecaster: differencing/ψ-weight machinery, known
  * model recovery, AIC auto-selection, interval behaviour, and the paper's
  * Proposition 1 (forecast variance under noisy estimates), bit-identity
  * with [[ArimaReference]], and the order search's allocation budget.
  */
class ArimaSpec extends AnyFunSuite with PropSupport {

  private def simulateArma(n: Int, alpha: Double, beta: Double, sigmaU: Double,
                           rng: Random, c: Double = 0.0): Array[Double] = {
    val y = new Array[Double](n)
    var ePrev = 0.0
    var t = 1
    y(0) = c
    while (t < n) {
      val e = rng.nextGaussian() * sigmaU
      y(t) = c + alpha * y(t - 1) + e + beta * ePrev
      ePrev = e
      t += 1
    }
    y
  }

  // ---------- building blocks ----------

  test("difference: first and d-th order") {
    val xs = Array(1.0, 3.0, 6.0, 10.0)
    assert(Arima.difference(xs).toSeq == Seq(2.0, 3.0, 4.0))
    assert(Arima.difference(xs, 2).toSeq == Seq(1.0, 1.0))
    assert(Arima.difference(xs, 0).toSeq == xs.toSeq)
  }

  test("integrateAr: d=0 is identity, pure I(1) gives φ*=[1]") {
    assert(Arima.integrateAr(Array(0.5), 0).toSeq == Seq(0.5))
    assert(Arima.integrateAr(Array.empty[Double], 1).toSeq == Seq(1.0))
  }

  test("integrateAr: (1-0.5B)(1-B) = 1 - 1.5B + 0.5B²  ⇒ φ* = [1.5, -0.5]") {
    val out = Arima.integrateAr(Array(0.5), 1)
    assert(out.length == 2)
    assert(math.abs(out(0) - 1.5) < 1e-12 && math.abs(out(1) + 0.5) < 1e-12)
  }

  test("psiWeights: AR(1) gives ψ_j = φ^j") {
    val psi = Arima.psiWeights(Array(0.5), Array.empty, 5)
    assert(psi.zipWithIndex.forall { case (p, j) => math.abs(p - math.pow(0.5, j)) < 1e-12 })
  }

  test("psiWeights: MA(1) gives ψ = [1, θ, 0, 0]") {
    val psi = Arima.psiWeights(Array.empty, Array(0.4), 4)
    assert(psi.toSeq == Seq(1.0, 0.4, 0.0, 0.0))
  }

  test("psiWeights: ARMA(1,1) recursion ψ1 = φ + θ, ψ2 = φψ1") {
    val psi = Arima.psiWeights(Array(0.6), Array(0.3), 3)
    assert(math.abs(psi(1) - 0.9) < 1e-12 && math.abs(psi(2) - 0.54) < 1e-12)
  }

  test("lag1Autocorr: near 1 for a trend, near 0 for white noise") {
    val trend = Array.tabulate(100)(_.toDouble)
    assert(Arima.lag1Autocorr(trend) > 0.9)
    val rng = new Random(1)
    val noise = Array.fill(2000)(rng.nextGaussian())
    assert(math.abs(Arima.lag1Autocorr(noise)) < 0.1)
  }

  // ---------- model recovery ----------

  test("AR(1) recovery: φ̂ within 0.1 of the true 0.7") {
    val rng = new Random(2)
    val y = simulateArma(2000, 0.7, 0.0, 1.0, rng)
    val fit = Arima.fit(y, Arima.Order(1, 0, 0))
    assert(math.abs(fit.phi(0) - 0.7) < 0.1, s"φ̂ = ${fit.phi(0)}")
    assert(math.abs(fit.sigma2 - 1.0) < 0.2, s"σ̂² = ${fit.sigma2}")
  }

  test("AR(2) recovery") {
    val rng = new Random(3)
    val n = 4000
    val y = new Array[Double](n)
    for (t <- 2 until n)
      y(t) = 0.5 * y(t - 1) + 0.3 * y(t - 2) + rng.nextGaussian()
    val fit = Arima.fit(y, Arima.Order(2, 0, 0))
    assert(math.abs(fit.phi(0) - 0.5) < 0.1 && math.abs(fit.phi(1) - 0.3) < 0.1,
      s"φ̂ = ${fit.phi.toSeq}")
  }

  test("MA(1) recovery via Hannan–Rissanen: θ̂ within 0.15 of 0.5") {
    val rng = new Random(4)
    val y = simulateArma(6000, 0.0, 0.5, 1.0, rng)
    val fit = Arima.fit(y, Arima.Order(0, 0, 1))
    assert(math.abs(fit.theta(0) - 0.5) < 0.15, s"θ̂ = ${fit.theta(0)}")
  }

  test("ARMA(1,1) recovery") {
    val rng = new Random(5)
    val y = simulateArma(8000, 0.6, 0.3, 1.0, rng)
    val fit = Arima.fit(y, Arima.Order(1, 0, 1))
    assert(math.abs(fit.phi(0) - 0.6) < 0.12, s"φ̂ = ${fit.phi(0)}")
    assert(math.abs(fit.theta(0) - 0.3) < 0.15, s"θ̂ = ${fit.theta(0)}")
  }

  test("intercept recovery: AR(1) around a nonzero mean") {
    val rng = new Random(6)
    // y_t = 10 + 0.5 y_{t-1} + e ⇒ stationary mean 20.
    val y = simulateArma(4000, 0.5, 0.0, 1.0, rng, c = 10.0)
    val fit = Arima.fit(y, Arima.Order(1, 0, 0))
    assert(math.abs(fit.intercept - 10.0) < 1.0, s"ĉ = ${fit.intercept}")
  }

  test("fit rejects series too short for the order") {
    intercept[IllegalArgumentException] {
      Arima.fit(Array.fill(10)(1.0), Arima.Order(3, 0, 3))
    }
  }

  // ---------- forecasting ----------

  test("ARIMA(0,1,0) with drift continues a linear trend") {
    val y = Array.tabulate(60)(t => 5.0 + 2.0 * t)
    val fit = Arima.fit(y, Arima.Order(0, 1, 0))
    val fc = fit.forecast(5)
    for (h <- 0 until 5)
      assert(math.abs(fc.point(h) - (5.0 + 2.0 * (59 + h + 1))) < 1e-6,
        s"h=$h: ${fc.point(h)}")
  }

  test("second difference handles a quadratic trend") {
    val y = Array.tabulate(80)(t => 0.5 * t * t)
    val fit = Arima.fit(y, Arima.Order(0, 2, 0))
    val fc = fit.forecast(3)
    for (h <- 0 until 3) {
      val expected = 0.5 * (80.0 + h) * (80.0 + h)
      assert(math.abs(fc.point(h) - expected) / expected < 0.01,
        s"h=$h: ${fc.point(h)} vs $expected")
    }
  }

  test("forecast of near-constant series stays near the constant") {
    val rng = new Random(7)
    val y = Array.fill(100)(50.0 + rng.nextGaussian() * 0.01)
    val fc = Arima.fit(y, Arima.Order(1, 0, 0)).forecast(5)
    assert(fc.point.forall(v => math.abs(v - 50.0) < 1.0))
  }

  test("forecast intervals widen with horizon") {
    val rng = new Random(8)
    val y = simulateArma(500, 0.6, 0.0, 1.0, rng)
    val fc = Arima.fit(y, Arima.Order(1, 0, 0)).forecast(10)
    val widths = (0 until 10).map(h => fc.hi(h) - fc.lo(h))
    assert(widths.zip(widths.tail).forall { case (a, b) => b >= a - 1e-12 },
      s"widths not monotone: $widths")
  }

  test("random-walk interval grows like sqrt(h)") {
    val rng = new Random(9)
    val y = new Array[Double](800)
    for (t <- 1 until 800) y(t) = y(t - 1) + rng.nextGaussian()
    val fit = Arima.fit(y, Arima.Order(0, 1, 0))
    val fc = fit.forecast(4)
    val w1 = fc.hi(0) - fc.lo(0)
    val w4 = fc.hi(3) - fc.lo(3)
    assert(math.abs(w4 / w1 - 2.0) < 0.05, s"w4/w1 = ${w4 / w1}")
  }

  test("interval coverage of AR(1) one-step forecasts ≈ 90%") {
    val rng = new Random(10)
    var covered = 0
    val runs = 300
    for (_ <- 1 to runs) {
      val y = simulateArma(120, 0.6, 0.0, 1.0, rng)
      val fit = Arima.fit(y.dropRight(1), Arima.Order(1, 0, 0))
      val fc = fit.forecast(1, level = 0.9)
      if (y.last >= fc.lo(0) && y.last <= fc.hi(0)) covered += 1
    }
    val rate = covered.toDouble / runs
    assert(rate > 0.82 && rate < 0.97, s"coverage $rate outside [0.82, 0.97]")
  }

  test("higher confidence level gives wider intervals") {
    val rng = new Random(11)
    val y = simulateArma(300, 0.5, 0.0, 1.0, rng)
    val fit = Arima.fit(y, Arima.Order(1, 0, 0))
    val w90 = fit.forecast(3, 0.9).meanIntervalWidth
    val w99 = fit.forecast(3, 0.99).meanIntervalWidth
    assert(w99 > w90)
  }

  // ---------- auto selection ----------

  test("autoFit keeps d=0 on a stationary AR(1) and finds p ≥ 1") {
    val rng = new Random(12)
    val y = simulateArma(400, 0.7, 0.0, 1.0, rng)
    val fit = Arima.autoFit(y)
    assert(fit.order.d == 0, s"picked ${fit.order}")
    assert(fit.order.p >= 1 || fit.order.q >= 1)
  }

  test("autoFit differences a strongly trending series") {
    val rng = new Random(13)
    val y = Array.tabulate(200)(t => 10.0 * t + rng.nextGaussian())
    val fit = Arima.autoFit(y)
    assert(fit.order.d == 1, s"picked ${fit.order}")
  }

  test("autoFit AIC prefers the true order neighbourhood on AR(2) data") {
    val rng = new Random(14)
    val n = 3000
    val y = new Array[Double](n)
    for (t <- 2 until n)
      y(t) = 0.5 * y(t - 1) + 0.3 * y(t - 2) + rng.nextGaussian()
    val fit = Arima.autoFit(y, maxP = 4, maxQ = 2)
    assert(fit.order.p >= 2, s"picked ${fit.order}")
  }

  test("autoFit beats the naive mean forecaster on a weekly-seasonal series") {
    val y = TestData.weeklySeasonal(150, new Random(15))
    val future = Array.tabulate(7)(h =>
      1000.0 * (1 + 0.3 * math.sin(2 * math.Pi * (150 + h) / 7)))
    val fc = Arima.autoFit(y).forecast(7)
    val arimaErr = (0 until 7).map(h => math.abs(fc.point(h) - future(h)) / future(h)).sum / 7
    val meanPred = LinAlg.mean(y)
    val meanErr = (0 until 7).map(h => math.abs(meanPred - future(h)) / future(h)).sum / 7
    assert(arimaErr < meanErr, s"ARIMA $arimaErr should beat mean $meanErr")
    assert(arimaErr < 0.1, s"seasonal forecast error too large: $arimaErr")
  }

  test("ArimaForecaster honours the horizon and band ordering") {
    val rng = new Random(16)
    val y = simulateArma(200, 0.5, 0.2, 1.0, rng, c = 5.0)
    val fc = ArimaForecaster().fitForecast(y, 7, 0.9)
    assert(fc.horizon == 7)
    assert((0 until 7).forall(h => fc.lo(h) <= fc.point(h) && fc.point(h) <= fc.hi(h)))
  }

  test("ArimaForecaster rejects a NaN or infinite value, naming its index") {
    for (bad <- Seq(Double.NaN, Double.PositiveInfinity, Double.NegativeInfinity)) {
      val y = TestData.weeklySeasonal(150, new Random(19))
      y(42) = bad
      val e = intercept[IllegalArgumentException](ArimaForecaster().fitForecast(y, 7, 0.9))
      assert(e.getMessage.contains("index 42"), e.getMessage)
    }
  }

  test("ArimaForecaster rejects a horizon < 1 or a level outside (0, 1), naming it") {
    val y = TestData.weeklySeasonal(150, new Random(20))
    for ((horizon, level, named) <- Seq((0, 0.9, "horizon 0"), (-1, 0.9, "horizon -1"),
                                        (7, 0.0, "level 0.0"), (7, 1.0, "level 1.0"),
                                        (7, Double.NaN, "level NaN"))) {
      val e = intercept[IllegalArgumentException](ArimaForecaster().fitForecast(y, horizon, level))
      assert(e.getMessage.contains(named), e.getMessage)
    }
  }

  // ---------- bit-identity with the reference search ----------

  private def sameBits(a: Double, b: Double): Boolean =
    java.lang.Double.doubleToLongBits(a) == java.lang.Double.doubleToLongBits(b)

  private def sameBits(a: Array[Double], b: Array[Double]): Boolean =
    a.length == b.length && a.indices.forall(i => sameBits(a(i), b(i)))

  private def sameFit(a: Arima.Fit, b: Arima.Fit): Boolean = {
    val fa = a.forecast(7, 0.9)
    val fb = b.forecast(7, 0.9)
    a.order == b.order && sameBits(a.intercept, b.intercept) &&
      sameBits(a.phi, b.phi) && sameBits(a.theta, b.theta) &&
      sameBits(a.sigma2, b.sigma2) && sameBits(a.aic, b.aic) &&
      sameBits(a.residuals, b.residuals) && sameBits(fa.point, fb.point) &&
      sameBits(fa.lo, fb.lo) && sameBits(fa.hi, fb.hi)
  }

  /** Both calls fail with the same exception, or both fit bit-identically. */
  private def sameOutcome(got: Try[Arima.Fit], want: Try[Arima.Fit]): Boolean =
    (got.toEither, want.toEither) match {
      case (Right(a), Right(b)) => sameFit(a, b)
      case (Left(a), Left(b))   => a.getClass == b.getClass && a.getMessage == b.getMessage
      case _                    => false
    }

  /** Kinds of daily series the order search meets: 0 weekly-seasonal with a
    * trend, 1 random walk, 2 mostly-zero days, 3 constant, 4 AR(2).
    */
  private def series(kind: Int, n: Int, seed: Long): Array[Double] = {
    val rng = new Random(seed)
    kind match {
      case 0 => Array.tabulate(n)(t => (1.0 + 0.002 * t) * 1000.0 *
                  (1 + 0.3 * math.sin(2 * math.Pi * t / 7)) + rng.nextGaussian() * 20)
      case 1 => Array.iterate(100.0, n)(_ + rng.nextGaussian() * 5)
      case 2 => Array.fill(n)(if (rng.nextDouble() < 0.6) 0.0 else rng.nextInt(50).toDouble)
      case 3 => Array.fill(n)(42.0 + rng.nextInt(3))
      case _ =>
        val y = new Array[Double](n)
        for (t <- 2 until n) y(t) = 0.5 * y(t - 1) + 0.3 * y(t - 2) + rng.nextGaussian()
        y
    }
  }

  test("autoFit and fit are bit-identical to the reference search (property)") {
    val cases = for {
      maxP  <- Gen.choose(0, 8)
      maxQ  <- Gen.choose(0, 2)
      maxD  <- Gen.choose(0, 2)
      kind  <- Gen.choose(0, 4)
      // "short" sits just above the p + q + 8 points the largest order needs.
      n     <- Gen.oneOf(Gen.choose(maxP + maxQ + 9, maxP + maxQ + 12), Gen.choose(20, 160))
      seed  <- Gen.choose(0L, 1L << 40)
      p     <- Gen.choose(0, maxP)
      q     <- Gen.choose(0, maxQ)
      d     <- Gen.choose(0, maxD)
    } yield (maxP, maxQ, maxD, kind, n, seed, Arima.Order(p, d, q))
    checkProp(Prop.forAllNoShrink(cases) { case (maxP, maxQ, maxD, kind, n, seed, order) =>
      val y = series(kind, n, seed)
      sameOutcome(Try(Arima.autoFit(y, maxP, maxQ, maxD)),
                  Try(ArimaReference.autoFit(y, maxP, maxQ, maxD))) &&
        sameOutcome(Try(Arima.fit(y, order)), Try(ArimaReference.fit(y, order)))
    }, minTests = 300)
  }

  test("fit is bit-identical to the reference for every order of the default grid") {
    val y = TestData.weeklySeasonal(150, new Random(20))
    for (p <- 0 to 7; d <- 0 to 1; q <- 0 to 2) {
      val order = Arima.Order(p, d, q)
      assert(sameOutcome(Try(Arima.fit(y, order)), Try(ArimaReference.fit(y, order))), order)
    }
  }

  test("autoFit allocates under 1.5 MB on a 150-day seasonal series") {
    val y = TestData.weeklySeasonal(150, new Random(21))
    val threads = java.lang.management.ManagementFactory.getThreadMXBean
      .asInstanceOf[com.sun.management.ThreadMXBean]
    val id = Thread.currentThread().getId
    for (_ <- 1 to 5) Arima.autoFit(y)
    val before = threads.getThreadAllocatedBytes(id)
    Arima.autoFit(y)
    val bytes = threads.getThreadAllocatedBytes(id) - before
    assert(before > 0, "per-thread allocation accounting is unavailable")
    info(s"autoFit allocated $bytes bytes")
    assert(bytes < 1500000L, s"autoFit allocated $bytes bytes")
  }

  // ---------- Proposition 1 ----------

  test("Proposition 1: Var[M̂] = a·σ_u² + σ_ε² for noisy ARMA(1,1)") {
    val alpha = 0.6; val beta = 0.3; val sigmaU = 1.0; val sigmaE = 0.8
    val rng = new Random(17)
    val clean = simulateArma(300000, alpha, beta, sigmaU, rng)
    val noisy = clean.map(v => v + rng.nextGaussian() * sigmaE)
    val a = (1 + 2 * alpha * beta + beta * beta) / (1 - alpha * alpha)
    val predicted = a * sigmaU * sigmaU + sigmaE * sigmaE
    val empirical = LinAlg.variance(noisy.drop(1000)) // drop burn-in
    assert(math.abs(empirical - predicted) / predicted < 0.05,
      s"Var[M̂] empirical $empirical vs Proposition-1 $predicted")
  }

  test("Proposition 1 corollary: negligible ε barely widens forecast intervals") {
    val rng = new Random(18)
    val clean = simulateArma(500, 0.6, 0.3, 10.0, rng)
    val tiny = clean.map(v => v + rng.nextGaussian() * 0.1)   // σ_ε ≪ σ_u
    val big = clean.map(v => v + rng.nextGaussian() * 30.0)   // σ_ε ≫ σ_u
    val wClean = Arima.fit(clean, Arima.Order(1, 0, 1)).forecast(7).meanIntervalWidth
    val wTiny = Arima.fit(tiny, Arima.Order(1, 0, 1)).forecast(7).meanIntervalWidth
    val wBig = Arima.fit(big, Arima.Order(1, 0, 1)).forecast(7).meanIntervalWidth
    assert(math.abs(wTiny - wClean) / wClean < 0.1,
      s"tiny noise should barely change width: $wTiny vs $wClean")
    assert(wBig > wClean * 1.5, s"large noise must widen intervals: $wBig vs $wClean")
  }
}

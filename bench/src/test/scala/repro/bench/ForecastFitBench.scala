package repro.bench

import java.util.concurrent.ForkJoinPool
import org.json4s._
import org.scalatest.funsuite.AnyFunSuite
import repro.bench.BenchFixtures.round
import repro.TestData
import repro.forecast.{Arima, ArimaReference, LstmForecaster, LstmReference}
import scala.util.Random

/** Times the two forecasters' fits against their slow test-only references
  * and records the run in the trajectory `BENCH_forecast.json` at the
  * repository root through [[BenchFixtures.recordRun]], which keys a run by
  * a digest of the product sources: `LstmForecaster` vs
  * `LstmReference(math.tanh)` and `Arima.autoFit` vs
  * `ArimaReference.autoFit`. Each pair alternates in this JVM, on the same
  * fixed 150-day series, after a warm-up; a run records each side's median
  * and minimum milliseconds, the reference-over-product ratio of the
  * medians, and the threads an LSTM fit runs on (the common pool's
  * parallelism plus the caller). Each product must beat its reference's
  * median. Run alone with `sbt "bench/testOnly *ForecastFitBench"`.
  */
class ForecastFitBench extends AnyFunSuite {

  private val Seed = 7L
  private val Days = 150
  private val Series = 4
  private val Horizon = 7

  private val series: Seq[Array[Double]] = {
    val rng = new Random(Seed)
    Seq.fill(Series)(TestData.weeklySeasonal(Days, rng))
  }

  private case class Side(medianMs: Double, minMs: Double, fits: Int)

  /** Times `product` and `reference` on every series, `reps` times each,
    * alternating which goes first, after `warmup` untimed rounds.
    */
  private def race(warmup: Int, reps: Int)(product: Array[Double] => Any,
                                          reference: Array[Double] => Any): (Side, Side) = {
    def ms(f: Array[Double] => Any, y: Array[Double]): Double = {
      val t0 = System.nanoTime()
      f(y)
      (System.nanoTime() - t0) / 1e6
    }
    for (_ <- 1 to warmup; y <- series) { product(y); reference(y) }
    val p = Seq.newBuilder[Double]
    val r = Seq.newBuilder[Double]
    for (rep <- 1 to reps; y <- series) {
      if (rep % 2 == 0) { p += ms(product, y); r += ms(reference, y) }
      else { r += ms(reference, y); p += ms(product, y) }
    }
    def side(xs: Seq[Double]) = {
      val s = xs.sorted
      Side((s((s.size - 1) / 2) + s(s.size / 2)) / 2, s.head, s.size)
    }
    (side(p.result()), side(r.result()))
  }

  test("forecaster fits vs their references: writes BENCH_forecast.json") {
    val lstm = LstmForecaster()
    val ref = LstmReference(math.tanh)
    val lstmRef = new ref.Forecaster()
    val (lp, lr) = race(warmup = 3, reps = 15)(
      lstm.fitForecast(_, Horizon, 0.9), lstmRef.fitForecast(_, Horizon, 0.9))
    val (ap, ar) = race(warmup = 20, reps = 50)(Arima.autoFit(_), ArimaReference.autoFit(_))

    def side(s: Side) = JObject("median" -> round(s.medianMs, 3), "min" -> round(s.minMs, 3))
    def pair(product: String, reference: String, p: Side, r: Side) = List(
      "product" -> JString(product), "reference" -> JString(reference),
      "product_ms" -> side(p), "reference_ms" -> side(r),
      "reference_over_product" -> round(r.medianMs / p.medianMs, 3),
      "timed_fits_per_side" -> JInt(p.fits))
    val body = BenchFixtures.recordRun("BENCH_forecast.json",
      List(
        "suite" -> JString("ForecastFitBench"),
        "series" -> JObject("count" -> JInt(Series), "length" -> JInt(Days),
          "shape" -> JString("TestData.weeklySeasonal"), "seed" -> JLong(Seed))),
      List(
        "nproc" -> JInt(Runtime.getRuntime.availableProcessors),
        "threads" -> JInt(ForkJoinPool.getCommonPoolParallelism + 1),
        "java" -> JString(System.getProperty("java.version")),
        "lstm" -> JObject(pair("LstmForecaster()", "LstmReference(math.tanh)", lp, lr) ++ List(
          "epochs" -> JInt(lstm.epochs), "hidden" -> JInt(lstm.hidden),
          "window" -> JInt(lstm.window), "horizon" -> JInt(Horizon))),
        "arima" -> JObject(pair("Arima.autoFit", "ArimaReference.autoFit", ap, ar))))
    println(body)

    for (s <- Seq(lp, lr, ap, ar)) assert(s.minMs > 0 && s.minMs <= s.medianMs)
    assert(lp.medianMs < lr.medianMs, s"LSTM fit median ${lp.medianMs} ms, reference ${lr.medianMs} ms")
    assert(ap.medianMs < ar.medianMs, s"ARIMA fit median ${ap.medianMs} ms, reference ${ar.medianMs} ms")
  }
}

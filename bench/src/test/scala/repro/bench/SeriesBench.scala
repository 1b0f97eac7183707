package repro.bench

import java.nio.ByteBuffer
import org.json4s._
import repro.SparkSpec
import repro.core.{ForecastTask, SampleStore}
import repro.exp.BenchConfig
import repro.sampling.GSW

/** Times a sample layer's aggregation, `StoredSample.series`, over every
  * constraint of TaskGen's pool on Opt-GSW(impression) layers at 1 %, 5 %
  * and 50 % of the bench relation, and records the run in the trajectory
  * `BENCH_series.json` at the repository root through
  * [[BenchFixtures.recordRun]], which keys a run by a digest of the product
  * sources. Per layer it records the rows, the bytes of the driver copy's
  * arrays, the median and minimum µs per task over `Reps` timed passes after
  * `Warmup` untimed ones, and a digest of the raw bits of every series, so
  * two runs with the same digest answered bit for bit alike. Run alone with
  * `sbt "bench/testOnly *SeriesBench"`.
  */
class SeriesBench extends SparkSpec {
  import BenchFixtures._

  private val Rates = Seq(0.01, 0.05, 0.5)
  private val Warmup = 3
  private val Reps = 5

  test("sample-layer aggregation over TaskGen's pool: writes BENCH_series.json") {
    val tasks = gen.pool.map(c => ForecastTask("impression", "ad", c, 0, cfg.trainDays - 1))
    val store = new SampleStore
    var sink = 0.0
    val layers = Rates.map { rate =>
      val layer = store.add(f"Opt-GSW ${rate * 100}%.0f%%",
        GSW.atRate(df, rate)(GSW.optimal(_, "impression")), df)
      val bits = ByteBuffer.allocate(8)
      val answers = digest(md => for (t <- tasks; v <- layer.series(t)) {
        bits.clear()
        md.update(bits.putLong(java.lang.Double.doubleToRawLongBits(v)).array)
      })
      for (_ <- 1 to Warmup; t <- tasks) sink += layer.series(t)(0)
      val us = (for (_ <- 1 to Reps; t <- tasks) yield {
        val t0 = System.nanoTime()
        sink += layer.series(t)(0)
        (System.nanoTime() - t0) / 1e3
      }).sorted
      val median = (us((us.size - 1) / 2) + us(us.size / 2)) / 2
      assert(us.head > 0 && us.head <= median)
      JObject(
        "layer" -> JString(layer.layer),
        "rows" -> JLong(layer.rows),
        "bytes" -> JLong(layer.columns.bytes),
        "series_us" -> JObject("median" -> round(median, 2), "min" -> round(us.head, 2)),
        "timed_tasks" -> JInt(us.size),
        "series_digest" -> JString(answers))
    }
    store.clear()
    assert(!sink.isNaN)

    val body = recordRun("BENCH_series.json",
      List(
        "suite" -> JString("SeriesBench"),
        "data" -> JObject("sf" -> JDouble(cfg.sf), "days" -> JInt(cfg.days),
          "seed" -> JLong(BenchConfig.Seed)),
        "tasks" -> JObject("constraints" -> JInt(tasks.size), "source" -> JString("TaskGen.pool"),
          "measure" -> JString("impression"),
          "window" -> JArray(List(JInt(0), JInt(cfg.trainDays - 1))))),
      List(
        "nproc" -> JInt(Runtime.getRuntime.availableProcessors),
        "java" -> JString(System.getProperty("java.version")),
        "layers" -> JArray(layers.toList)))
    println(body)
  }
}

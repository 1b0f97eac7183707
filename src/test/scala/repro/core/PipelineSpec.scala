package repro.core

import org.apache.spark.JobCounter
import org.apache.spark.sql.functions._
import org.apache.spark.storage.StorageLevel
import repro.{SparkFunSpec, TestData}
import repro.sampling.{GSW, Sampler}

/** End-to-end FlashP pipeline tests on the 90-day fixture: sample store,
  * estimation, forecasting, timings, and the full SQL-string-to-forecast
  * path for both ARIMA and LSTM.
  */
class PipelineSpec extends SparkFunSpec {

  private lazy val ad = TestData.adLong // 90 days × 150 rows/day

  private def mkTask(model: String = "arima") = ForecastTask(
    "impression", "ad",
    Constraint(Seq(Pred("gender", "=", "F", isString = true))),
    ts = 0, te = 79, model = model, forePeriod = 7)

  test("SampleStore: add materializes and records the row count") {
    val store = new SampleStore
    val delta = GSW.deltaForRate(ad, col("impression"), 0.05)
    val stored = store.add("5%", GSW.optimal(delta, "impression", seed = 3001), ad)
    assert(stored.rows == stored.df.count())
    assert(store.get("5%").eq(stored))
    store.clear()
    assert(store.all.isEmpty)
  }

  test("SampleStore: add copies the layer in one Spark job and caches it on first read") {
    val sc = spark.sparkContext
    val sampler = GSW.optimal(GSW.deltaForRate(ad, col("impression"), 0.05), "impression",
      seed = 3013)
    val store = new SampleStore
    val before = sc.getRDDStorageInfo
    val (stored, jobs) = JobCounter(sc)(store.add("5%", sampler, ad))
    assert(jobs == 1, s"add ran $jobs Spark jobs")
    assert(sc.getRDDStorageInfo.map(_.memSize).sum == before.map(_.memSize).sum,
      "add cached blocks")
    assert(stored.df.storageLevel == StorageLevel.MEMORY_ONLY)
    assert(stored.df.count() == stored.rows)
    val filled = sc.getRDDStorageInfo.filterNot(i => before.exists(_.id == i.id))
    assert(filled.length == 1, filled.mkString("; "))
    assert(filled.head.memSize > 0 && filled.head.numCachedPartitions == filled.head.numPartitions,
      filled.head.toString)
    store.clear()
    assert(sc.getRDDStorageInfo.map(_.id).sorted.sameElements(before.map(_.id).sorted))
  }

  test("SampleStore: re-adding a layer name replaces and unpersists the old layer") {
    val store = new SampleStore
    val delta = GSW.deltaForRate(ad, col("impression"), 0.05)
    val first = store.add("5%", GSW.optimal(delta, "impression", seed = 3006), ad)
    val second = store.add("5%", GSW.optimal(delta, "impression", seed = 3007), ad)
    assert(store.all.size == 1)
    assert(store.get("5%").eq(second))
    assert(first.df.storageLevel == org.apache.spark.storage.StorageLevel.NONE)
    assert(second.df.storageLevel != org.apache.spark.storage.StorageLevel.NONE)
    store.clear()
  }

  test("SampleStore: a layer that fails to draw leaves no cache entry") {
    // Spark's log(0) is NULL, so a geometric weight over a zero measure fails.
    val zero = ad.withColumn("cart", lit(0L))
    val geo = GSW.geometric(30, Seq("impression", "cart"), seed = 3008)
    val store = new SampleStore
    val msg = failure(store.add("geo", geo, zero))
    assert(msg.contains(geo.name), msg)
    assert(store.all.isEmpty)
    assert(geo.sample(zero).storageLevel == StorageLevel.NONE)
    // The same plan is found in the cache once it is persisted.
    val cached = geo.sample(zero).persist(StorageLevel.MEMORY_ONLY)
    assert(geo.sample(zero).storageLevel == StorageLevel.MEMORY_ONLY)
    cached.unpersist()
  }

  test("SampleStore: unknown layer raises a helpful error") {
    val store = new SampleStore
    val e = intercept[NoSuchElementException] { store.get("nope") }
    assert(e.getMessage.contains("nope"))
  }

  test("SampleStore.serving: the one layer carrying the measure") {
    val store = new SampleStore
    val imp = GSW.optimal(500, "impression", seed = 3008)
    val clk = GSW.optimal(50, "click", seed = 3009)
    store.add("imp", imp, ad)
    val clicks = store.add("clk", clk, ad)
    assert(store.serving("click").eq(clicks))
    assert(store.serving("impression").layer == "imp")
    store.clear()
  }

  test("SampleStore.serving: a measure no layer carries is rejected, naming the layers") {
    val store = new SampleStore
    store.add("imp", GSW.optimal(500, "impression", seed = 3010), ad)
    val e = intercept[IllegalArgumentException] { store.serving("cart") }
    assert(e.getMessage.contains("'cart'") && e.getMessage.contains("imp [impression]"))
    store.clear()
    val empty = intercept[IllegalArgumentException] { store.serving("cart") }
    assert(empty.getMessage.contains("none"))
  }

  test("SampleStore.serving: two layers carrying the measure are ambiguous") {
    val store = new SampleStore
    val ms = repro.data.AdSchema.Measures
    store.add("opt", GSW.optimal(500, "impression", seed = 3011), ad)
    store.add("amean", GSW.arithmetic(500, ms, seed = 3012), ad)
    val e = intercept[IllegalArgumentException] { store.serving("impression") }
    assert(e.getMessage.contains("2 sample layers") &&
      e.getMessage.contains("opt") && e.getMessage.contains("amean"))
    assert(store.serving("click").layer == "amean")
    store.clear()
  }

  test("runOnFull produces a 7-point forecast from exact aggregations") {
    val res = FlashP.runOnFull(mkTask(), ad)
    assert(res.series.length == 80)
    assert(res.forecast.horizon == 7)
    assert(res.aggMillis >= 0 && res.forecastMillis >= 0)
    assert(res.forecast.point.forall(v => java.lang.Double.isFinite(v) && v > 0))
  }

  test("runOnSample: 20% GSW estimates give a series close to exact") {
    // adLong has only 150 rows/day, so a realistic-looking rate would leave
    // a handful of in-constraint rows per day; 20% keeps the per-day RSTD
    // in the ~20% range this threshold reflects.
    val task = mkTask()
    val store = new SampleStore
    val delta = GSW.deltaForRate(ad, col("impression"), 0.20)
    val stored = store.add("20%", GSW.optimal(delta, "impression", seed = 3002), ad)
    val res = FlashP.runOnSample(task, stored)
    val exact = Estimator.exactSeries(ad, task)
    val aggErr = Metrics.relAggError(res.series, exact)
    assert(aggErr < 0.35, s"agg error $aggErr")
    assert(res.forecast.horizon == 7)
    store.clear()
  }

  test("runOnSample with compressed GSW serves all four measures") {
    val store = new SampleStore
    val ms = repro.data.AdSchema.Measures
    val stored = store.add("c5%", GSW.atRate(ad, 0.05)(GSW.arithmetic(_, ms, seed = 3003)), ad)
    for (m <- ms) {
      val res = FlashP.runOnSample(mkTask().copy(measure = m), stored)
      assert(res.series.length == 80 && res.forecast.horizon == 7)
    }
    store.clear()
  }

  test("runOnPim completes and tracks the trend roughly") {
    val pim = new PIM(ad, Seq("impression"))
    val res = FlashP.runOnPim(mkTask(), pim)
    val exact = Estimator.exactSeries(ad, mkTask())
    // Single-dimension constraint ⇒ PIM is exact here.
    assert(Metrics.relAggError(res.series, exact) < 1e-9)
  }

  test("PIM bias persists where GSW's error averages out (correlated constraint)") {
    // The structural difference Table 1 reflects: GSW is unbiased, so its
    // error shrinks under averaging over independent samples; PIM's
    // independence assumption leaves a bias no averaging removes. Use the
    // denser 20-day fixture to keep per-sample noise moderate.
    val dense = TestData.ad
    val task = ForecastTask("impression", "ad",
      Constraint(Seq(Pred("age", "<=", "34", isString = false),
                     Pred("device", "=", "mobile", isString = true))),
      ts = 0, te = 19)
    val exactTotal = Estimator.exactSeries(dense, task).sum
    val pim = new PIM(dense, Seq("impression"))
    val pimDev = math.abs(pim.estimateSeries(task).sum - exactTotal) / exactTotal
    val delta = GSW.deltaForRate(dense, col("impression"), 0.05)
    val gswMean = (3201 to 3210).map { seed =>
      val s = GSW.optimal(delta, "impression", seed).sample(dense)
      Estimator.estimateSeries(s, task).sum
    }.sum / 10.0
    val gswDev = math.abs(gswMean - exactTotal) / exactTotal
    assert(pimDev > 0.05, s"expected persistent PIM bias, got $pimDev")
    assert(gswDev < pimDev, s"averaged GSW dev $gswDev should undercut PIM bias $pimDev")
  }

  test("full SQL string to forecast (ARIMA)") {
    val task = TaskParser.parse(
      "FORECAST SUM(impression) FROM ad WHERE age <= 40 AND gender = 'F' USING (0, 79) " +
        "OPTION (MODEL = 'arima', FORE_PERIOD = 7)")
    val res = FlashP.runOnFull(task, ad)
    assert(res.forecast.horizon == 7)
  }

  test("full SQL string to forecast (LSTM)") {
    val task = TaskParser.parse(
      "FORECAST SUM(impression) FROM ad USING (0, 79) OPTION (MODEL = 'lstm')")
    val res = FlashP.runOnFull(task, ad)
    assert(res.forecast.horizon == 7)
    assert(res.forecast.point.forall(java.lang.Double.isFinite))
  }

  test("forecast is in the right ballpark of the true future (sanity)") {
    val task = mkTask()
    val res = FlashP.runOnFull(task, ad)
    val truth = Estimator.exactSeries(ad,
      task.copy(ts = task.te + 1, te = task.te + task.forePeriod))
    val err = Metrics.relForecastError(res.forecast.point, truth)
    assert(err < 0.5, s"forecast error $err vs truth ${truth.toSeq}")
  }

  test("sampling reduces aggregation latency vs the full scan (Exp-II shape)") {
    // The sample layer is answered on the driver with no Spark job, the
    // full scan by a Spark aggregation; best of 3 each.
    val task = mkTask()
    val store = new SampleStore
    val delta = GSW.deltaForRate(ad, col("impression"), 0.01)
    val stored = store.add("1%", GSW.optimal(delta, "impression", seed = 3005), ad)
    val fullMs = (1 to 3).map(_ => FlashP.runOnFull(task, ad).aggMillis).min
    val sampMs = (1 to 3).map(_ => FlashP.runOnSample(task, stored).aggMillis).min
    assert(sampMs > 0, "timings are recorded below a millisecond")
    assert(sampMs * 10 <= fullMs,
      s"sample path ($sampMs ms) should be at least 10x faster than the full scan ($fullMs ms)")
    store.clear()
  }

  test("unknown model name rejected") {
    intercept[IllegalArgumentException] { FlashP.forecasterFor("prophet") }
  }

  test("estimation preserves unbiasedness through the whole pipeline (mean over seeds)") {
    val task = mkTask().copy(te = 19) // 20 days to keep it quick
    val exact = Estimator.exactSeries(ad, task)
    val delta = GSW.deltaForRate(ad, col("impression"), 0.02)
    val means = (3101 to 3110).map { seed =>
      val s = GSW.optimal(delta, "impression", seed).sample(ad)
      Estimator.estimateSeries(s, task).sum
    }
    val avg = means.sum / means.size
    assert(math.abs(avg - exact.sum) / exact.sum < 0.15,
      s"pipeline estimate mean ${avg} vs exact ${exact.sum}")
  }
}

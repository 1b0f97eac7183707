package repro.core

import org.apache.spark.JobCounter
import org.apache.spark.sql.functions._
import repro.{Oracle, SparkFunSpec, TestData}
import repro.exp.SeriesCache
import repro.sampling.{GSW, Uniform}

/** Tests for the online aggregation phase: exact per-day series
  * (oracle-checked against DuckDB), sample-based estimation, day-gap
  * filling, and the ground truth's driver copy of the whole relation.
  */
class EstimatorSpec extends SparkFunSpec {

  private lazy val ad = TestData.ad

  private val task = ForecastTask("impression", "ad",
    Constraint(Seq(Pred("age", "<=", "40", isString = false),
                   Pred("gender", "=", "F", isString = true))),
    ts = 0, te = 14)

  test("exactSeries has one entry per training day") {
    assert(Estimator.exactSeries(ad, task).length == 15)
  }

  test("exactSeries matches a hand-built Spark aggregation") {
    val series = Estimator.exactSeries(ad, task)
    val direct = ad.filter(col("age") <= 40 && col("gender") === "F" && col("t") === 3)
      .agg(sum(col("impression"))).head.getLong(0).toDouble
    assert(series(3) == direct)
  }

  test("oracle: exactSeries equals DuckDB's per-day sums") {
    val series = Estimator.exactSeries(ad, task)
    val s = spark
    import s.implicits._
    val sparkDf = series.zipWithIndex
      .map { case (v, i) => (i.toString, v.toLong) }.toSeq
      .toDF("t", "total")
    Oracle.assertEquivalent(
      sparkDf,
      """SELECT t, SUM(CAST(impression AS BIGINT)) AS total
        |FROM ad
        |WHERE CAST(age AS INT) <= 40 AND gender = 'F' AND CAST(t AS INT) <= 14
        |GROUP BY t""".stripMargin,
      "ad" -> ad)
  }

  test("estimateSeries on a rate-1.0 uniform sample reproduces the exact series") {
    val sample = Uniform(1.0, Seq("impression")).sample(ad)
    val est = Estimator.estimateSeries(sample, task)
    val exact = Estimator.exactSeries(ad, task)
    assert(est.indices.forall(i => math.abs(est(i) - exact(i)) < 1e-6))
  }

  test("estimateSeries from a GSW sample tracks the exact series (5% rate)") {
    val delta = GSW.deltaForRate(ad, col("impression"), 0.05)
    val sample = GSW.optimal(delta, "impression", seed = 2001).sample(ad)
    val est = Estimator.estimateSeries(sample, task)
    val exact = Estimator.exactSeries(ad, task)
    val err = Metrics.relAggError(est, exact)
    assert(err < 0.25, s"mean relative aggregation error $err")
  }

  test("exactSeries is bit-identical to a groupBy over TaskGen's pool") {
    val pool = new TaskGen(ad, seed = 4006, poolSize = 40).pool
    val measures = repro.data.AdSchema.Measures
    val tasks = pool.indices.map(i =>
      ForecastTask(measures(i % measures.size), "ad", pool(i), ts = 0, te = 19))
    val sums = tasks.zipWithIndex.map { case (t, i) =>
      sum(when(t.constraint.column, col(t.measure).cast("double"))) as s"s$i"
    }
    val byDay = ad.groupBy(col("t")).agg(sums.head, sums.tail: _*).collect()
      .map(r => r.getInt(0) -> r).toMap
    def bits(xs: Seq[Double]) = xs.map(java.lang.Double.doubleToRawLongBits)
    tasks.zipWithIndex.foreach { case (t, i) =>
      val reference = (0 to 19).map(d => byDay.get(d).filterNot(_.isNullAt(i + 1))
        .fold(0.0)(_.getDouble(i + 1)))
      assert(bits(Estimator.exactSeries(ad, t).toSeq) == bits(reference), t.sql)
    }
  }

  test("estimateSeries over a cached sample runs one Spark job") {
    val sample = Uniform(0.5, Seq("impression"), seed = 2003).sample(ad).cache()
    try {
      sample.count()
      val (_, jobs) = JobCounter(spark.sparkContext)(Estimator.estimateSeries(sample, task))
      assert(jobs == 1, s"estimateSeries ran $jobs Spark jobs")
    } finally sample.unpersist()
  }

  test("a day whose every measure is null sums to 0, as SUM skips nulls") {
    val day = 4
    val nulled = ad.withColumn("impression", when(col("t") =!= day, col("impression")))
    val series = Estimator.exactSeries(nulled, task)
    val exact = Estimator.exactSeries(ad, task)
    assert(exact(day) > 0 && series(day) == 0.0)
    assert(series.indices.filter(_ != day).forall(d => series(d) == exact(d)))
  }

  test("days with no qualifying rows yield 0") {
    val impossible = task.copy(constraint =
      Constraint(Seq(Pred("age", ">", "200", isString = false))))
    val series = Estimator.exactSeries(ad, impossible)
    assert(series.forall(_ == 0.0))
  }

  test("series respects [ts, te] window boundaries") {
    val t2 = task.copy(ts = 5, te = 9)
    val s5 = Estimator.exactSeries(ad, t2)
    val full = Estimator.exactSeries(ad, task)
    assert(s5.length == 5)
    assert(s5.toSeq == full.slice(5, 10).toSeq)
  }

  test("any integral time column: a LongType t gives the same series") {
    def close(a: Array[Double], b: Array[Double]) =
      a.length == b.length && a.indices.forall(i => math.abs(a(i) - b(i)) <= 1e-9 * b(i))
    val longT = ad.withColumn("t", col("t").cast("long"))
    assert(Estimator.exactSeries(longT, task).toSeq == Estimator.exactSeries(ad, task).toSeq)
    val sampler = Uniform(0.5, Seq("impression"), seed = 2002)
    val store = new SampleStore
    val layer = store.add("long-t", sampler, longT)
    val spark = Estimator.estimateSeries(layer.df, task)
    assert(close(spark, Estimator.estimateSeries(sampler.sample(ad), task)))
    assert(close(layer.columns.series(task), spark))
    store.clear()
    intercept[IllegalArgumentException] {
      Estimator.exactSeries(ad.withColumn("t", col("t").cast("double")), task)
    }
  }

  test("SeriesCache: exact and truth are slices of one exact series, from one scan") {
    // Building the cache is the one scan: a single Spark job copies the relation.
    val (cache, scanJobs) = JobCounter(spark.sparkContext)(new SeriesCache(ad))
    assert(scanJobs == 1, s"building the cache ran $scanJobs Spark jobs")
    val t1 = task.copy(ts = 0, te = 12, forePeriod = 7)
    val t2 = t1.copy(ts = 5)
    val (slices, jobs) = JobCounter(spark.sparkContext)(
      Seq(t1, t2).map(t => (cache.exact(t), cache.truth(t))))
    assert(jobs == 0, s"two tasks over one slice ran $jobs Spark jobs")
    def bits(xs: Array[Double]) = xs.toSeq.map(java.lang.Double.doubleToRawLongBits)
    val whole = Estimator.exactSeries(ad, t1.copy(te = 19))
    Seq(t1, t2).zip(slices).foreach { case (t, (exact, truth)) =>
      assert(bits(exact) == bits(whole.slice(t.ts, t.te + 1)))
      assert(bits(truth) == bits(whole.slice(13, 20)))
    }
  }

  test("SeriesCache: exact and truth equal exactSeries bit for bit over TaskGen's pool, with no Spark job") {
    val sc = spark.sparkContext
    val (cache, buildJobs) = JobCounter(sc)(new SeriesCache(ad))
    assert(buildJobs == 1, s"building the cache ran $buildJobs Spark jobs")
    val pool = new TaskGen(ad, seed = 4006, poolSize = 40).pool
    val measures = repro.data.AdSchema.Measures
    // ad holds days 0-19: the second window's future reaches days 20-23.
    val windows = Seq((0, 12), (5, 16), (-2, 9))
    val tasks = for ((c, i) <- pool.zipWithIndex; (ts, te) <- windows)
      yield ForecastTask(measures(i % measures.size), "ad", c, ts, te, forePeriod = 7)
    val (answers, jobs) = JobCounter(sc)(tasks.map(t => (cache.exact(t), cache.truth(t))))
    assert(jobs == 0, s"${tasks.size} tasks ran $jobs Spark jobs")
    def bits(xs: Array[Double]) = xs.toSeq.map(java.lang.Double.doubleToRawLongBits)
    tasks.zip(answers).foreach { case (t, (exact, truth)) =>
      val future = Estimator.exactSeries(ad, t.copy(ts = t.te + 1, te = t.te + t.forePeriod))
      assert(bits(exact) == bits(Estimator.exactSeries(ad, t)), t.sql)
      assert(bits(truth) == bits(future), t.sql)
      if (t.te == 16) assert(truth.drop(3).forall(_ == 0.0) && future.drop(3).forall(_ == 0.0), t.sql)
    }
  }

  test("SeriesCache rejects a non-integral measure column, naming it") {
    val e = intercept[IllegalArgumentException](
      new SeriesCache(ad.withColumn("click", col("click") * 0.5)))
    assert(e.getMessage.contains("'click'"), e.getMessage)
  }

  test("Metrics.relAggError on known vectors") {
    assert(Metrics.relAggError(Array(110.0, 90.0), Array(100.0, 100.0)) == 0.1)
    assert(Metrics.relAggError(Array(5.0), Array(5.0)) == 0.0)
    // Zero-truth days are skipped, not divided by.
    assert(Metrics.relAggError(Array(5.0, 110.0), Array(0.0, 100.0)) == 0.1)
    intercept[IllegalArgumentException] {
      Metrics.relAggError(Array(1.0), Array(1.0, 2.0))
    }
  }

  test("Metrics.relIntervalWidth on a known forecast") {
    val fc = repro.forecast.Forecast(Array(100.0), Array(90.0), Array(110.0))
    assert(Metrics.relIntervalWidth(fc, Array(100.0)) == 0.2)
    // A truth shorter or longer than the horizon is rejected, not averaged.
    for (truth <- Seq(Array.empty[Double], Array(100.0, 100.0)))
      intercept[IllegalArgumentException](Metrics.relIntervalWidth(fc, truth))
  }
}

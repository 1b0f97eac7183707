package repro.core

import java.nio.file.Files
import org.apache.spark.JobCounter
import org.apache.spark.sql.functions._
import org.apache.spark.storage.StorageLevel
import repro.{SparkFunSpec, SynthData, TestData}
import repro.data.AdSchema
import repro.sampling._

/** The driver-resident sample engine ([[SampleColumns]]) against its
  * reference, [[Estimator.estimateSeries]] on Spark over the same cached
  * layer: equal within 1e-9 relative per day, for every sampler, for layers
  * appended by [[IncrementalGSW]], over TaskGen's constraint pool and the
  * edge cases of the predicate semantics and of the partition layout.
  */
class SampleColumnsSpec extends SparkFunSpec {

  private lazy val ad = TestData.ad // 20 days × 1500 rows/day

  private def assertSameSeries(layer: StoredSample, task: ForecastTask): Unit =
    assertSame(task, layer.series(task), Estimator.estimateSeries(layer.df, task))

  private def assertSame(task: ForecastTask, driver: Array[Double],
                         spark: Array[Double]): Unit = {
    assert(driver.length == spark.length)
    driver.indices.foreach { d =>
      val tol = 1e-9 * math.max(math.abs(driver(d)), math.abs(spark(d)))
      assert(math.abs(driver(d) - spark(d)) <= tol,
        s"${task.sql}: day ${task.ts + d} driver ${driver(d)} vs Spark ${spark(d)}")
    }
  }

  private def task(measure: String, c: Constraint, ts: Int = 0, te: Int = 19) =
    ForecastTask(measure, "ad", c, ts, te)

  private val ms = AdSchema.Measures

  private lazy val samplers: Seq[(String, Sampler)] = Seq(
    "Opt-GSW" -> GSW.atRate(ad, 0.05)(GSW.optimal(_, "impression", 4001)),
    "arithmetic GSW" -> GSW.atRate(ad, 0.05)(GSW.arithmetic(_, ms, 4002)),
    "geometric GSW" -> GSW.atRate(ad, 0.05)(GSW.geometric(_, ms, 4003)),
    "Uniform" -> Uniform(0.05, ms, 4004),
    "Priority" -> Priority(60, "impression", seed = 4005))

  private lazy val pool = new TaskGen(ad, seed = 4006, poolSize = 48).pool

  for (name <- Seq("Opt-GSW", "arithmetic GSW", "geometric GSW", "Uniform", "Priority"))
    test(s"driver engine equals the Spark estimator over TaskGen's pool: $name") {
      val store = new SampleStore
      val sampler = samplers.toMap.apply(name)
      val layer = store.add(name, sampler, ad)
      pool.zipWithIndex.foreach { case (c, i) =>
        assertSameSeries(layer, task(sampler.measures(i % sampler.measures.size), c))
      }
      store.clear()
    }

  test("a layer added over an uncached relation equals the Spark estimator on its df") {
    // `add` copies one draw and its cache is filled by another; over a
    // seeded generator or unchanged files both read the same rows.
    val dir = Files.createTempDirectory("layer-base")
    try {
      val path = dir.resolve("ad").toString
      ad.write.parquet(path)
      // A seed other than the fixture's, whose cached plan Spark would use.
      val generated = SynthData.adTraffic(spark, sf = 1e-4, days = 20, seed = 4012)
      val bases = Seq("SynthData.adTraffic" -> generated, "Parquet" -> spark.read.parquet(path))
      val sampler = samplers.toMap.apply("arithmetic GSW")
      for ((name, base) <- bases) {
        assert(base.storageLevel == StorageLevel.NONE, name)
        val store = new SampleStore
        val layer = store.add(name, sampler, base)
        pool.zipWithIndex.foreach { case (c, i) =>
          assertSameSeries(layer, task(sampler.measures(i % sampler.measures.size), c))
        }
        assert(layer.df.count() == layer.rows, name)
        store.clear()
      }
    } finally {
      Files.walk(dir).sorted(java.util.Comparator.reverseOrder()).forEach(p => Files.delete(p))
    }
  }

  test("driver engine equals the Spark estimator on edge cases") {
    val store = new SampleStore
    val layer = store.add("u", Uniform(0.2, ms, 4007), ad)
    // The same rows in one partition, and in 16 partitions of which at
    // least 13 are empty; their copies are made at construction.
    val repartitioned = Seq(layer.df.repartition(1), layer.df.repartition(16, col("t") % 3))
      .map(df => StoredSample("u", layer.sampler, df.cache(), layer.rows))
    assert(repartitioned.map(_.df.rdd.getNumPartitions) == Seq(1, 16))
    // Null dimension values, and time stamps no task selects.
    val nullTime = store.add("nulls", Uniform(0.2, ms, 4010), TestData.adWithNulls
      .withColumn("t", when(col("impression") % 5 === 0, lit(null)).otherwise(col("t"))))
    assert(nullTime.df.filter(col("t").isNull).count() > 0)
    assert(nullTime.rows == nullTime.df.count())
    repartitioned.foreach(l => assert(l.columns.rows == layer.rows))
    val cases = Seq(
      task("click", Constraint(Nil)),
      task("click", Constraint(Nil), ts = -3, te = 4),
      task("cart", Constraint(Seq(Pred("gender", "=", "F", true))), ts = 15, te = 26),
      task("favorite", Constraint(Seq(Pred("age", ">", "200", false)))),
      task("impression", Constraint(Seq(Pred("device", "<>", "pc", true)))),
      task("impression", Constraint(Seq(Pred("device", "<", "pc", true),
        Pred("gender", ">=", "M", true)))),
      task("impression", Constraint(Seq(Pred("device", ">=", "n", true)))),
      task("click", Constraint(Seq(Pred("age", "<=", "30.5", false)))),
      task("click", Constraint(Seq(Pred("age", ">", "3e1", false)))),
      task("click", Constraint(Seq(Pred("age", "=", "30", true)))),
      task("cart", Constraint(Seq(Pred("age", ">=", "30", false), Pred("age", "<", "40", false)))))
    for (l <- layer +: nullTime +: repartitioned; c <- cases) assertSameSeries(l, c)
    repartitioned.foreach(_.df.unpersist())
    store.clear()
  }

  /** [[ad]] with half its rows in 5 common cities and half in ~5 000 rare
    * ones, so that most of a layer's `city` entries are row lists.
    */
  private lazy val manyCities = ad.withColumn("city",
    when(col("impression") % 2 === 0, col("city") % 5)
      .otherwise(pmod(xxhash64(col("t"), col("age"), col("impression"), col("click")),
        lit(5000L)) + 5))

  test("driver engine equals the Spark estimator on the row index's edge cases") {
    val store = new SampleStore
    val cities = store.add("cities", Uniform(0.5, ms, 4013), manyCities)
    val cityCount = cities.df.select("city").distinct().count()
    assert(cityCount > 2000, s"$cityCount distinct cities")
    // Under a day of rows per 64-row word, and under one word in all.
    val thin = store.add("thin", Uniform(0.01, ms, 4014), ad)
    val tiny = store.add("tiny", Uniform(0.001, ms, 4015), ad)
    assert(thin.rows > 64 && thin.rows < 20 * 64, s"thin layer: ${thin.rows} rows")
    assert(tiny.rows > 0 && tiny.rows < 64, s"tiny layer: ${tiny.rows} rows")
    val cityCases = Seq(
      Constraint(Seq(Pred("city", "=", "3", false))),
      Constraint(Seq(Pred("city", "<=", "2500", false))),
      Constraint(Seq(Pred("city", ">", "100", false), Pred("gender", "=", "F", true))),
      Constraint(Seq(Pred("city", "<>", "2", false), Pred("device", "<>", "pc", true))),
      Constraint(Seq(Pred("city", ">", "6000", false))))
    for (c <- cityCases ++ pool.take(12); m <- Seq("click", "cart"))
      assertSameSeries(cities, task(m, c))
    val cases = Seq(
      // More than half of the dictionary accepted: the complement path.
      Constraint(Seq(Pred("age", ">=", "21", false))),
      Constraint(Seq(Pred("age", ">", "20", false), Pred("tag_food", "<>", "7", false))),
      // No entry accepted, alone and in a conjunction.
      Constraint(Seq(Pred("city", "=", "100000", false))),
      Constraint(Seq(Pred("gender", "=", "F", true), Pred("age", "<", "0", false))),
      Constraint(Seq(Pred("device", "=", "mobile", true), Pred("age", "<=", "40", false))),
      Constraint(Nil))
    val windows = Seq((0, 19), (5, 12), (7, 7), (17, 23), (-2, 1))
    for (l <- Seq(cities, thin, tiny, store.add("u", Uniform(0.05, ms, 4016), ad));
         c <- cases; (ts, te) <- windows)
      assertSameSeries(l, task("impression", c, ts, te))
    store.clear()
  }

  test("a dimension's row index costs at most 8 bytes a row") {
    for ((name, base) <- Seq("manyCities" -> manyCities, "ad" -> ad)) {
      val layer = Uniform(0.5, Seq("impression"), 4017).sample(base).cache()
      val rows = layer.count()
      val all = SampleColumns.collect(layer, Seq("impression"))
      for (d <- AdSchema.Dimensions) {
        val index = all.bytes - SampleColumns.collect(layer.drop(d), Seq("impression")).bytes
        assert(index > 0 && index <= 8 * rows, s"$name: '$d' costs $index bytes for $rows rows")
      }
      layer.unpersist()
    }
  }

  test("driver engine equals the Spark estimator with null dimension values") {
    val store = new SampleStore
    val layer = store.add("nulls", Uniform(0.2, Seq("impression"), 4008), TestData.adWithNulls)
    Seq(
      Constraint(Seq(Pred("gender", "<>", "F", true))),
      Constraint(Seq(Pred("gender", "<", "N", true))),
      Constraint(Seq(Pred("city", "<=", "20", false), Pred("gender", "=", "M", true))),
      Constraint(Seq(Pred("city", "<>", "3", false))),
    ).foreach(c => assertSameSeries(layer, task("impression", c)))
    store.clear()
  }

  test("a constraint on a column the driver copy does not hold is rejected") {
    val store = new SampleStore
    val layer = store.add("opt", samplers.head._2, ad)
    val onMeasure = intercept[IllegalArgumentException] {
      FlashP.runOnSample(task("impression",
        Constraint(Seq(Pred("impression", ">", "5", false)))), layer)
    }
    assert(onMeasure.getMessage.contains("'impression'"), onMeasure.getMessage)
    val otherMeasure = intercept[IllegalArgumentException] {
      FlashP.runOnSample(task("click", Constraint(Nil)), layer)
    }
    assert(otherMeasure.getMessage.contains("'est_click'"), otherMeasure.getMessage)
    val unquoted = intercept[IllegalArgumentException] {
      layer.series(task("impression", Constraint(Seq(Pred("device", "=", "7", false)))))
    }
    assert(unquoted.getMessage.contains("'device'"), unquoted.getMessage)
    store.clear()
  }

  test("time stamps spanning more days than a copy holds, or beyond Int, are rejected naming the column") {
    val far = ad.withColumn("t", when(col("t") === 3, lit(1500000000)).otherwise(col("t")))
    val beyondInt = ad.withColumn("t",
      when(col("t") === 3, lit(5000000000L)).otherwise(col("t").cast("long")))
    for ((df, last) <- Seq(far -> 1500000000L, beyondInt -> 5000000000L)) {
      val e = intercept[IllegalArgumentException](SampleColumns.collect(df, Nil))
      for (part <- Seq("'t'", " 0 ", s"$last", s"${SampleColumns.MaxDays}"))
        assert(e.getMessage.contains(part), e.getMessage)
    }
    // The longest span a copy holds answers as Spark does.
    val lastDay = SampleColumns.MaxDays - 1
    val atBound = ad.withColumn("t", when(col("t") === 3, lit(lastDay)).otherwise(col("t")))
    val sampler = Uniform(1.0, Seq("impression"))
    val layer = new StoredSample("bound", sampler, sampler.sample(atBound))
    for ((ts, te) <- Seq((0, 19), (lastDay - 2, lastDay)))
      assertSameSeries(layer, task("impression", Constraint(Nil), ts, te))
  }

  test("a layer built without a driver copy makes it in one Spark job") {
    val sampler = Uniform(0.2, Seq("impression"), 4009)
    val df = sampler.sample(ad).cache()
    val rows = df.count()
    val sc = spark.sparkContext
    val (layer, copyJobs) = JobCounter(sc)(StoredSample("direct", sampler, df, rows))
    val t = task("impression", Constraint(Seq(Pred("gender", "=", "F", true))))
    val (first, firstJobs) = JobCounter(sc)(FlashP.runOnSample(t, layer).series)
    val (second, secondJobs) = JobCounter(sc)(FlashP.runOnSample(t, layer).series)
    assert(copyJobs == 1, s"constructing the layer ran $copyJobs Spark jobs")
    assert(firstJobs == 0, s"the first query ran $firstJobs Spark jobs")
    assert(secondJobs == 0, s"the second query ran $secondJobs Spark jobs")
    val wrongRows = intercept[IllegalArgumentException](
      StoredSample("direct", sampler, df, rows + 1))
    assert(wrongRows.getMessage.contains(s"$rows"), wrongRows.getMessage)
    assert(second.sameElements(first))
    assertSameSeries(layer, t)
    df.unpersist()
  }

  test("layers appended by IncrementalGSW equal the Spark estimator at depths 1-3") {
    // As a daily ingest lands them: an Opt-GSW layer over days 0-16, then
    // days 17, 18 and 19 appended one at a time, each as one partition at
    // the Δ′ that keeps the expected size, persisted and counted.
    val m = "impression"
    val dayWeight = ad.groupBy("t").agg(sum(m)).collect()
      .map(r => r.getInt(0) -> r.getLong(1).toDouble).toMap
    val firstNew = 17
    val initialRows = ad.filter(col("t") < firstNew)
    var delta = GSW.deltaForRate(initialRows, col(m), 0.05)
    var covered = (0 until firstNew).map(dayWeight).sum
    val store = new SampleStore
    var layer = store.add(m, GSW.optimal(delta, m, 4011), initialRows)
    val appended = (firstNew until 20).map { d =>
      val newDelta = delta * (covered + dayWeight(d)) / covered
      val sampler = GSW.optimal(newDelta, m, 4011)
      val batch = ad.filter(col("t") === d).coalesce(1)
      val next = IncrementalGSW.append(layer.df, newDelta, batch, sampler)
        .persist(StorageLevel.MEMORY_ONLY)
      layer = StoredSample(m, sampler, next, next.count())
      delta = newDelta
      covered += dayWeight(d)
      layer
    }
    appended.zipWithIndex.foreach { case (l, depth) =>
      pool.foreach { c =>
        val t = task(m, c, te = firstNew + depth)
        assertSame(t, FlashP.runOnSample(t, l).series, Estimator.estimateSeries(l.df, t))
      }
    }
    appended.foreach(_.df.unpersist())
    store.clear()
  }
}

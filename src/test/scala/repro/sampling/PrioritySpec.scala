package repro.sampling

import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import repro.{LocalSampling, SparkFunSpec, TestData}
import scala.util.Random

/** Tests for the priority-sampling baseline [22]: per-day top-k semantics,
  * the τ-threshold estimator, unbiasedness, and the optimal
  * RSTD = sqrt(1/(k−1)) efficiency it is famous for [38].
  */
class PrioritySpec extends SparkFunSpec {

  private lazy val ad = TestData.ad

  test("per-day sample size is exactly min(k, rows-per-day)") {
    val k = 40
    val s = Priority(k, "impression").sample(ad)
    val sizes = s.groupBy("t").count().collect().map(_.getLong(1)).toSet
    assert(sizes == Set(k.toLong), s"sizes per day: $sizes")
  }

  test("k larger than a day's rows keeps everything and estimates exactly") {
    val s = Priority(5000, "impression").sample(ad) // 1500 rows/day < k
    assert(s.count() == ad.count())
    val bad = s.filter(
      col(Sampler.estCol("impression")) =!= col("impression").cast("double"))
    assert(bad.count() == 0, "with no threshold, estimates must equal the measure")
  }

  test("estimator is max(m, τ): every estimate ≥ the raw measure") {
    val s = Priority(40, "impression").sample(ad)
    assert(s.filter(col(Sampler.estCol("impression")) < col("impression")).count() == 0)
  }

  test("τ from the ranking window equals the self-joined (k+1)-th priority") {
    // The earlier form: rank, then join each day's (k+1)-th priority back.
    def selfJoined(p: Priority) = {
      val ranked = ad.withColumn("pri_q", col(p.measure).cast("double") /
          greatest(rand(p.seed), lit(1e-12)))
        .withColumn("pri_rank", row_number().over(
          Window.partitionBy("t").orderBy(desc("pri_q"))))
      val tau = ranked.filter(col("pri_rank") === p.k + 1).select(col("t"), col("pri_q") as "tau")
      ranked.filter(col("pri_rank") <= p.k).join(tau, Seq("t"), "left")
        .withColumn(Sampler.estCol(p.measure),
          greatest(col(p.measure).cast("double"), coalesce(col("tau"), lit(0.0))))
        .drop("pri_q", "pri_rank", "tau")
    }
    for (k <- Seq(5, 50, 2000)) {
      val p = Priority(k, "impression")
      val got = p.sample(ad)
      val want = selfJoined(p).select(got.columns.map(col): _*)
      assert(got.collect().map(_.toString).sorted.toSeq ==
        want.collect().map(_.toString).sorted.toSeq, s"k = $k")
    }
  }

  test("sample retains dimensions for constraint pushdown") {
    val s = Priority(40, "impression").sample(ad)
    assert(repro.data.AdSchema.Dimensions.forall(s.columns.contains))
  }

  test("deterministic in the seed") {
    val a = Priority(40, "impression", seed = 3).sample(ad)
      .agg(sum(Sampler.estCol("impression"))).head.getDouble(0)
    val b = Priority(40, "impression", seed = 3).sample(ad)
      .agg(sum(Sampler.estCol("impression"))).head.getDouble(0)
    assert(a == b)
  }

  test("k < 2 rejected") {
    intercept[IllegalArgumentException] { Priority(1, "impression") }
  }

  test("full-population estimate from the Spark transform is close to exact") {
    val k = 150
    val s = Priority(k, "impression").sample(ad)
    val est = s.agg(sum(Sampler.estCol("impression"))).head.getDouble(0)
    val exact = ad.agg(sum("impression")).head.getLong(0).toDouble
    // RSTD per day = sqrt(1/(k-1)) ≈ 8.2%; averaging 20 days ⇒ ~1.8%.
    assert(math.abs(est - exact) / exact < 0.08, s"est $est vs exact $exact")
  }

  test("unbiasedness (MC, 500 trials on one day's measures)") {
    val m = TestData.measuresLocal("impression").take(1500)
    val truth = m.sum
    val rng = new Random(21)
    val est = (1 to 500).map(_ => LocalSampling.priorityTrial(m, 100, rng))
    val mean = est.sum / est.size
    val se = math.sqrt(est.map(e => (e - mean) * (e - mean)).sum / (est.size - 1)) /
      math.sqrt(est.size.toDouble)
    assert(math.abs(mean - truth) < 4 * se, s"biased: $mean vs $truth (se=$se)")
  }

  test("optimality: empirical RSTD ≤ sqrt(1/(k-1)) (MC, 500 trials)") {
    val m = TestData.measuresLocal("impression").take(1500)
    val k = 100
    val rng = new Random(22)
    val est = (1 to 500).map(_ => LocalSampling.priorityTrial(m, k, rng))
    val rstd = LocalSampling.rstd(est, m.sum)
    assert(rstd <= math.sqrt(1.0 / (k - 1)) * 1.15,
      s"RSTD $rstd exceeds priority-sampling bound ${math.sqrt(1.0 / (k - 1))}")
  }

  test("priority and optimal GSW have comparable efficiency at equal size (MC)") {
    val m = TestData.measuresLocal("impression").take(1500)
    val k = 100
    val delta = m.sum / k // GSW at expected size ≈ k
    val rng = new Random(23)
    val pri = (1 to 400).map(_ => LocalSampling.priorityTrial(m, k, rng))
    val gsw = (1 to 400).map(_ => LocalSampling.gswTrial(m, m, delta, rng)._1)
    val rp = LocalSampling.rstd(pri, m.sum)
    val rg = LocalSampling.rstd(gsw, m.sum)
    assert(rg < rp * 2 && rp < rg * 2,
      s"priority RSTD $rp and optimal-GSW RSTD $rg should be within 2x")
  }

  // ---------- measures the estimator cannot serve (null, NaN, < 0) ----------

  private def day(ms: Option[Double]*) = {
    val s = spark; import s.implicits._
    ms.map(m => (0, m)).toDF("t", "m")
  }

  test("a null, NaN or negative measure fails, naming the sampler") {
    val p = Priority(2, "m")
    for (bad <- Seq(
      // max(m, 0) would estimate the day {-4, 2} as 2 against an exact -2.
      day(Some(-4.0), Some(2.0)),
      // A NaN priority ranks first and turns its day's estimate into NaN.
      day(Some(Double.NaN), Some(2.0), Some(5.0)),
      day(None, Some(2.0)))) {
      val msg = failure(p.sample(bad).collect())
      assert(msg.contains(p.name) && msg.contains("must be >= 0"), msg)
    }
  }

  test("a zero measure stays legal") {
    val s = Priority(2, "m").sample(day(Some(0.0), Some(2.0), Some(0.0), Some(7.0)))
    val est = s.agg(sum(Sampler.estCol("m"))).head.getDouble(0)
    // τ is the third priority, 0, so the estimate is 7 + 2.
    assert(s.count() == 2 && est == 9.0, s"estimate $est")
  }
}

package repro.sampling

import java.nio.file.Files
import org.apache.spark.JobCounter
import org.apache.spark.sql.functions._
import repro.{LocalSampling, Oracle, SparkFunSpec, TestData}
import scala.util.Random

/** Unit + statistical tests for GSW sampling (§4.1) and the compressed
  * variants (§4.2): inclusion rule, calibration formula, unbiasedness, the
  * Theorem 3 / Corollary 4–6 error bounds, Δ sizing, and the Spark SQL
  * aggregation path over a sample (oracle-checked against DuckDB).
  */
class GSWSpec extends SparkFunSpec {

  private lazy val ad = TestData.ad
  private def ss = spark

  // ---------- paper worked example (§4.1) ----------

  private def exampleDf = {
    val s = ss; import s.implicits._
    Seq((100L, 10.0), (100L, 10.0), (200L, 20.0), (400L, 50.0)).toDF("m", "w")
  }

  test("paper example: inclusion probabilities w/(Δ+w) with Δ=30") {
    val probs = exampleDf
      .select(col("w") / (col("w") + 30.0) as "p").collect().map(_.getDouble(0))
    assert(probs.toSeq == Seq(0.25, 0.25, 0.4, 0.625))
  }

  test("paper example: expected sample size E|S| = Σ w/(Δ+w) = 1.525") {
    val e = GSWReference.expectedSize(exampleDf, col("w"), 30.0)
    assert(math.abs(e - 1.525) < 1e-12)
  }

  test("paper example: calibrated measures are m(Δ+w)/w (400 and 500)") {
    // Force rows 2 and 3 into the sample by checking the formula on all rows.
    val cal = exampleDf
      .select(col("m") * (col("w") + 30.0) / col("w") as "cal")
      .collect().map(_.getDouble(0))
    assert(cal.toSeq == Seq(400.0, 400.0, 500.0, 640.0))
  }

  // ---------- transform mechanics ----------

  test("sample keeps dimension and time columns and adds est/gsw columns") {
    val s = GSW.optimal(delta = 500, "impression").sample(ad)
    val cols = s.columns.toSet
    assert(repro.data.AdSchema.Dimensions.forall(cols.contains))
    assert(cols.contains("t") && cols.contains(GSW.WeightCol) &&
      cols.contains(GSW.DrawCol) && cols.contains(Sampler.estCol("impression")))
  }

  test("every sampled row satisfies the inclusion rule p <= w/(Δ+w)") {
    val delta = 500.0
    val s = GSW.optimal(delta, "impression").sample(ad)
    val bad = s.filter(col(GSW.DrawCol) > col(GSW.WeightCol) / (col(GSW.WeightCol) + delta))
    assert(bad.count() == 0)
  }

  test("calibrated estimate column equals m(Δ+w)/w on every sampled row") {
    val delta = 500.0
    val s = GSW.optimal(delta, "impression").sample(ad)
    val bad = s.filter(
      abs(col(Sampler.estCol("impression")) -
        col("impression") * (col(GSW.WeightCol) + delta) / col(GSW.WeightCol)) > 1e-9)
    assert(bad.count() == 0)
  }

  test("optimal GSW: weight column equals the measure") {
    val s = GSW.optimal(300, "favorite").sample(ad)
    assert(s.filter(col(GSW.WeightCol) =!= col("favorite").cast("double")).count() == 0)
  }

  test("actual sample size concentrates around the expected size") {
    val delta = 200.0
    val expected = GSWReference.expectedSize(ad, col("impression"), delta)
    val actual = GSW.optimal(delta, "impression").sample(ad).count()
    // Poisson-binomial: sd ≤ sqrt(E); allow 5 sd.
    assert(math.abs(actual - expected) < 5 * math.sqrt(expected) + 5,
      s"size $actual vs expected $expected")
  }

  test("sampling is deterministic in the seed") {
    val a = GSW.optimal(300, "impression", seed = 5).sample(ad).count()
    val b = GSW.optimal(300, "impression", seed = 5).sample(ad).count()
    val c = GSW.optimal(300, "impression", seed = 6).sample(ad).count()
    assert(a == b)
    assert(a != c, "different seeds should (overwhelmingly) differ")
  }

  test("larger Δ gives a smaller sample") {
    val small = GSW.optimal(2000, "impression").sample(ad).count()
    val big = GSW.optimal(100, "impression").sample(ad).count()
    assert(small < big)
  }

  test("invalid Δ rejected") {
    intercept[IllegalArgumentException] { GSW.optimal(0.0, "impression") }
    intercept[IllegalArgumentException] { GSW.optimal(-3.0, "impression") }
  }

  // ---------- weights the paper excludes (w ≤ 0, null) ----------

  private def badWeightDf = {
    val s = ss; import s.implicits._
    Seq[(Int, Option[Long], Long)]((0, Some(10L), 4L), (0, Some(20L), 0L), (1, None, 2L))
      .toDF("t", "a", "b")
  }

  test("geometric weight over a zero measure fails, naming the sampler") {
    // Spark's log(0) is NULL, so the row's weight would be NULL: never drawn.
    val g = GSW.geometric(30, Seq("a", "b"))
    val msg = failure(g.sample(badWeightDf.filter(col("a").isNotNull)).count())
    assert(msg.contains(g.name) && msg.contains("must be positive"), msg)
  }

  test("a negative weight fails, naming the sampler") {
    // w = -3 < -Δ would be drawn with probability w/(Δ+w) = 1.5.
    val neg = GSW(1, col("b") - 3, "w=b-3", Seq("b"))
    val msg = failure(neg.sample(badWeightDf).count())
    assert(msg.contains(neg.name) && msg.contains("must be positive"), msg)
  }

  test("a null measure under the optimal sampler fails, naming the sampler") {
    val opt = GSW.optimal(30, "a")
    val msg = failure(opt.sample(badWeightDf).collect())
    assert(msg.contains(opt.name) && msg.contains("must be positive"), msg)
    // The same rows without the null draw normally.
    assert(opt.sample(badWeightDf.filter(col("a").isNotNull)).count() <= 2)
  }

  test("deltaForRate hits the requested rate within 10%") {
    for (rate <- Seq(0.01, 0.05)) {
      val delta = GSW.deltaForRate(ad, col("impression"), rate)
      val e = GSWReference.expectedSize(ad, col("impression"), delta)
      val n = ad.count().toDouble
      assert(math.abs(e / n - rate) < 0.1 * rate, s"rate=$rate got ${e / n}")
    }
  }

  test("sample fails on an infinite weight, naming the sampler") {
    // w/(Δ+w) would be ∞/∞ = NaN: the row could never be drawn.
    val s = ss; import s.implicits._
    val df = Seq((0, 1.0), (0, Double.PositiveInfinity)).toDF("t", "w")
    val inf = GSW(30, col("w"), "w=w", Seq("w"))
    val msg = failure(inf.sample(df).count())
    assert(msg.contains(inf.name) && msg.contains("must be positive"), msg)
  }

  // ---------- Δ sizing: one Spark job vs the four-pass reference ----------

  private val ms = repro.data.AdSchema.Measures

  private def sizingWeights =
    ms.map(m => s"Opt-GSW($m)" -> col(m)) ++ Seq(
      "arithmetic" -> GSW.arithmetic(1, ms).weight,
      "geometric" -> GSW.geometric(1, ms).weight)

  test("deltaForRate matches the four-pass reference to 1e-12") {
    for ((name, w) <- sizingWeights; rate <- Seq(0.01, 0.05, 0.2)) {
      val delta = GSW.deltaForRate(ad, w, rate)
      val reference = GSWReference.deltaForRate(ad, w, rate)
      assert(math.abs(delta - reference) <= 1e-12 * reference,
        s"$name at rate $rate: Δ=$delta vs reference $reference")
    }
  }

  test("deltaForRate runs one Spark job") {
    for ((name, w) <- sizingWeights) {
      val (_, jobs) = JobCounter(spark.sparkContext)(GSW.deltaForRate(ad, w, 0.05))
      assert(jobs == 1, s"$name: $jobs Spark jobs")
    }
  }

  test("deltaForRate is bit-identical across partitionings and Parquet") {
    val dir = Files.createTempDirectory("gsw-delta")
    try {
      val path = dir.resolve("ad").toString
      ad.write.parquet(path)
      val layouts = Seq("repartition(1)" -> ad.repartition(1),
        "repartition(7)" -> ad.repartition(7), "Parquet" -> spark.read.parquet(path))
      for ((name, w) <- sizingWeights) {
        val native = GSW.deltaForRate(ad, w, 0.05)
        for ((layout, df) <- layouts) {
          val delta = GSW.deltaForRate(df, w, 0.05)
          assert(delta == native, s"$name after $layout: Δ=$delta vs $native natively")
        }
      }
    } finally {
      Files.walk(dir).sorted(java.util.Comparator.reverseOrder()).forEach(p => Files.delete(p))
    }
  }

  test("Opt-GSW layers at the new and the reference Δ hold the same rows") {
    for (m <- ms) {
      val cols = (ad.columns :+ GSW.DrawCol).map(col)
      def rows(delta: Double) = GSW.optimal(delta, m).sample(ad).select(cols: _*)
      val a = rows(GSW.deltaForRate(ad, col(m), 0.05))
      val b = rows(GSWReference.deltaForRate(ad, col(m), 0.05))
      assert(a.count() == b.count() && a.exceptAll(b).isEmpty && b.exceptAll(a).isEmpty, m)
    }
  }

  test("deltaForRate rejects invalid weights, counting them, and no rows") {
    val s = ss; import s.implicits._
    val df = Seq[Option[Double]](Some(1.0), Some(2.0), None, Some(Double.NaN),
      Some(Double.PositiveInfinity), Some(Double.NegativeInfinity), Some(0.0), Some(-2.0))
      .toDF("w")
    val e = intercept[IllegalArgumentException](GSW.deltaForRate(df, col("w") * 2, 0.5))
    assert(e.getMessage.contains("(w * 2)") && e.getMessage.contains("in 6 row(s)"), e.getMessage)
    // The one null measure that Spark's sum would skip while count counts it.
    val nul = intercept[IllegalArgumentException](GSW.deltaForRate(badWeightDf, col("a"), 0.5))
    assert(nul.getMessage.contains("weight a ") && nul.getMessage.contains("in 1 row(s)"),
      nul.getMessage)
    intercept[IllegalArgumentException](GSW.deltaForRate(df.filter(lit(false)), col("w"), 0.5))
  }

  // ---------- estimation properties (Spark side) ----------

  test("spark-side estimate of a constrained sum is close to exact (1% sample)") {
    val delta = GSW.deltaForRate(ad, col("impression"), 0.01)
    val constraint = col("age") <= 40 && col("gender") === "F"
    val exact = ad.filter(constraint).agg(sum("impression")).head.getLong(0).toDouble
    // Sampler seeds must avoid the generator's rand-stream seeds (7..30):
    // rand(s) with an equal seed reproduces the very stream that generated a
    // dimension, correlating the draw with the constraint and biasing the
    // estimate.
    val estimates = (1001 to 1008).map { seed =>
      GSW.optimal(delta, "impression", seed).sample(ad)
        .filter(constraint)
        .agg(sum(Sampler.estCol("impression"))).head.getDouble(0)
    }
    // Cor 4: RSTD ≤ sqrt(1/E|S∩C|). Selectivity ≈ 25% of weight ⇒ ~75
    // in-constraint sample rows ⇒ RSTD ≈ 12%. Mean of 8 within ~4σ/√8.
    val meanEst = estimates.sum / estimates.size
    assert(math.abs(meanEst - exact) / exact < 0.2,
      s"mean estimate $meanEst vs exact $exact")
  }

  test("oracle: SUM of quantized calibrated measure over sample matches DuckDB") {
    val s = GSW.optimal(400, "impression").sample(ad)
      .withColumn("q", floor(col(Sampler.estCol("impression")) * 1000000).cast("long"))
      .select("t", "q").cache()
    val sparkDf = s.groupBy("t").agg(sum("q") as "total")
      .select(col("t").cast("string") as "t", col("total"))
    Oracle.assertEquivalent(
      sparkDf,
      "SELECT t, SUM(CAST(q AS BIGINT)) AS total FROM samp GROUP BY t",
      "samp" -> s)
    s.unpersist()
  }

  // ---------- statistical bounds (driver-side Monte Carlo) ----------

  test("unbiasedness: mean over 600 trials within 4 standard errors") {
    val m = TestData.measuresLocal("impression")
    val truth = m.sum
    val delta = truth / (0.01 * m.length) // ≈1% sample
    val rng = new Random(7)
    val trials = (1 to 600).map(_ => LocalSampling.gswTrial(m, m, delta, rng)._1)
    val mean = trials.sum / trials.size
    val se = math.sqrt(trials.map(e => (e - mean) * (e - mean)).sum / (trials.size - 1)) /
      math.sqrt(trials.size.toDouble)
    assert(math.abs(mean - truth) < 4 * se,
      s"biased: mean=$mean truth=$truth se=$se")
  }

  test("Corollary 4: optimal GSW RSTD ≤ sqrt(1/E|S|) (empirical, 600 trials)") {
    val m = TestData.measuresLocal("impression")
    val truth = m.sum
    val delta = truth / (0.01 * m.length)
    val expSize = m.map(v => v / (v + delta)).sum
    val rng = new Random(8)
    val est = (1 to 600).map(_ => LocalSampling.gswTrial(m, m, delta, rng)._1)
    val rstd = LocalSampling.rstd(est, truth)
    val bound = math.sqrt(1.0 / expSize)
    assert(rstd <= bound * 1.15, s"RSTD $rstd exceeds Cor-4 bound $bound")
  }

  test("Theorem 3: mismatched weights (w=click for m=impression) still bounded by sqrt(θ/E|S|)") {
    val m = TestData.measuresLocal("impression")
    val w = TestData.measuresLocal("click")
    val ratios = m.indices.map(i => m(i) / w(i))
    val theta = ratios.max / ratios.min
    val delta = w.sum / (0.01 * w.length)
    val expSize = w.map(v => v / (v + delta)).sum
    val rng = new Random(9)
    val est = (1 to 600).map(_ => LocalSampling.gswTrial(m, w, delta, rng)._1)
    val rstd = LocalSampling.rstd(est, m.sum)
    val bound = math.sqrt(theta / expSize)
    assert(rstd <= bound * 1.15, s"RSTD $rstd exceeds Thm-3 bound $bound (θ=$theta)")
  }

  test("Theorem 3 variance formula: Var = Σ Δ m²/w (exact, small vector MC)") {
    val m = Array(100.0, 100.0, 200.0, 400.0)
    val w = Array(10.0, 10.0, 20.0, 50.0)
    val delta = 30.0
    val analytic = m.indices.map(i => delta * m(i) * m(i) / w(i)).sum
    val rng = new Random(10)
    val est = (1 to 60000).map(_ => LocalSampling.gswTrial(m, w, delta, rng)._1)
    val mean = est.sum / est.size
    val varEmp = est.map(e => (e - mean) * (e - mean)).sum / (est.size - 1)
    assert(math.abs(varEmp - analytic) / analytic < 0.05,
      s"empirical var $varEmp vs analytic $analytic")
  }

  // ---------- compressed GSW (§4.2) ----------

  test("arithmetic compressed: weight is the arithmetic mean of the measures") {
    val ms = Seq("impression", "click")
    val s = GSW.arithmetic(300, ms).sample(ad)
    val bad = s.filter(
      abs(col(GSW.WeightCol) - (col("impression") + col("click")) / 2.0) > 1e-9)
    assert(bad.count() == 0)
  }

  test("geometric compressed: weight is the geometric mean of the measures") {
    val ms = Seq("impression", "click")
    val s = GSW.geometric(300, ms).sample(ad)
    val bad = s.filter(
      abs(col(GSW.WeightCol) - sqrt(col("impression") * col("click"))) > 1e-6)
    assert(bad.count() == 0)
  }

  test("compressed sample carries est columns for every grouped measure") {
    val ms = repro.data.AdSchema.Measures
    val s = GSW.arithmetic(300, ms).sample(ad)
    assert(ms.forall(m => s.columns.contains(Sampler.estCol(m))))
  }

  test("paper example: w× and w+ of m1=[100,100,200,400], m2=[1,1,2,1]") {
    val s = ss; import s.implicits._
    val df = Seq((100.0, 1.0), (100.0, 1.0), (200.0, 2.0), (400.0, 1.0)).toDF("m1", "m2")
    val gm = df.select(exp((log(col("m1")) + log(col("m2"))) / 2) as "g")
      .collect().map(_.getDouble(0))
    assert(gm.map(v => math.round(v * 1e9) / 1e9).toSeq == Seq(10.0, 10.0, 20.0, 20.0))
    val am = df.select((col("m1") + col("m2")) / 2 as "a").collect().map(_.getDouble(0))
    assert(am.toSeq == Seq(50.5, 50.5, 101.0, 200.5))
  }

  test("Corollary 6: arithmetic-mean weights respect the δ² bound (MC)") {
    val ms = Seq("impression", "click")
    val imp = TestData.measuresLocal("impression")
    val clk = TestData.measuresLocal("click")
    val w = imp.indices.map(i => (imp(i) + clk(i)) / 2).toArray
    val delta = Grouping.rangeDeviation(ad, ms)
    val dKnob = w.sum / (0.01 * w.length)
    val expSize = w.map(v => v / (v + dKnob)).sum
    val rng = new Random(11)
    for ((name, m) <- Seq("impression" -> imp, "click" -> clk)) {
      val est = (1 to 400).map(_ => LocalSampling.gswTrial(m, w, dKnob, rng)._1)
      val rstd = LocalSampling.rstd(est, m.sum)
      val bound = math.sqrt(delta * delta / expSize)
      assert(rstd <= bound * 1.2, s"$name: RSTD $rstd exceeds Cor-6 bound $bound")
    }
  }

  test("Corollary 5: geometric-mean weights respect the ρ^((k-1)/k) bound (MC)") {
    val imp = TestData.measuresLocal("impression")
    val clk = TestData.measuresLocal("click")
    val w = imp.indices.map(i => math.sqrt(imp(i) * clk(i))).toArray
    val rho = Grouping.trendDeviation(ad, "impression", "click")
    val dKnob = w.sum / (0.01 * w.length)
    val expSize = w.map(v => v / (v + dKnob)).sum
    val rng = new Random(12)
    for ((name, m) <- Seq("impression" -> imp, "click" -> clk)) {
      val est = (1 to 400).map(_ => LocalSampling.gswTrial(m, w, dKnob, rng)._1)
      val rstd = LocalSampling.rstd(est, m.sum)
      val bound = math.sqrt(math.pow(rho, 0.5) / expSize) // k=2 ⇒ ρ^(1/2)
      assert(rstd <= bound * 1.2, s"$name: RSTD $rstd exceeds Cor-5 bound $bound")
    }
  }

  test("compressed estimates are unbiased for each grouped measure (MC)") {
    val imp = TestData.measuresLocal("impression")
    val fav = TestData.measuresLocal("favorite")
    val w = imp.indices.map(i => (imp(i) + fav(i)) / 2).toArray
    val dKnob = w.sum / (0.02 * w.length)
    val rng = new Random(13)
    for ((name, m) <- Seq("impression" -> imp, "favorite" -> fav)) {
      val est = (1 to 600).map(_ => LocalSampling.gswTrial(m, w, dKnob, rng)._1)
      val mean = est.sum / est.size
      val se = math.sqrt(est.map(e => (e - mean) * (e - mean)).sum / (est.size - 1)) /
        math.sqrt(est.size.toDouble)
      assert(math.abs(mean - m.sum) < 4 * se, s"$name biased: $mean vs ${m.sum}")
    }
  }
}

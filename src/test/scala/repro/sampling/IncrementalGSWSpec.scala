package repro.sampling

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.{SparkFunSpec, TestData}

/** Tests for incremental GSW maintenance (§4.1): thinning a sample to a
  * larger Δ′ must be *literally identical* to sampling fresh at Δ′ with the
  * same uniform draws, and appending new data must preserve estimates.
  */
class IncrementalGSWSpec extends SparkFunSpec {

  private lazy val ad = TestData.ad

  test("raise(Δ→Δ′) equals a fresh sample at Δ′ with the same seed") {
    val sampler = GSW.optimal(200, "impression", seed = 51)
    val atSmall = sampler.sample(ad)
    val raised = IncrementalGSW.raise(atSmall, 800, Seq("impression"))
    val fresh = GSW.optimal(800, "impression", seed = 51).sample(ad)
    // Same uniform draws (same seed) ⇒ identical row sets and estimates.
    assert(raised.count() == fresh.count())
    val rSum = raised.agg(sum(Sampler.estCol("impression"))).head.getDouble(0)
    val fSum = fresh.agg(sum(Sampler.estCol("impression"))).head.getDouble(0)
    assert(math.abs(rSum - fSum) < 1e-6 * math.abs(fSum))
  }

  test("raise(Δ→Δ′) keeps a fresh Δ′ draw's rows: same gsw_p, gsw_w, est_* bit for bit") {
    val ms = Seq("impression", "click")
    val atSmall = GSW.arithmetic(150, ms, seed = 58).sample(ad)
    val raised = IncrementalGSW.raise(atSmall, 700, ms)
    val fresh = GSW.arithmetic(700, ms, seed = 58).sample(ad)
    def bits(df: DataFrame): Seq[Seq[Long]] =
      df.select((Seq(GSW.DrawCol, GSW.WeightCol) ++ ms.map(Sampler.estCol)).map(col): _*)
        .collect().toSeq
        .map(r => (0 until r.length).map(i => java.lang.Double.doubleToRawLongBits(r.getDouble(i))))
        .sortBy(_.head)
    val kept = bits(raised)
    assert(kept.nonEmpty && kept.size < atSmall.count())
    assert(kept == bits(fresh))
  }

  test("raise never keeps a row the fresh Δ′ sample would reject") {
    val sampler = GSW.optimal(100, "favorite", seed = 52)
    val raised = IncrementalGSW.raise(sampler.sample(ad), 500, Seq("favorite"))
    val bad = raised.filter(
      col(GSW.DrawCol) > col(GSW.WeightCol) / (col(GSW.WeightCol) + 500.0))
    assert(bad.count() == 0)
  }

  test("raise recomputes calibrated estimates for the new Δ") {
    val raised = IncrementalGSW.raise(
      GSW.optimal(100, "impression", seed = 53).sample(ad), 400, Seq("impression"))
    val bad = raised.filter(
      abs(col(Sampler.estCol("impression")) -
        col("impression") * (col(GSW.WeightCol) + 400.0) / col(GSW.WeightCol)) > 1e-9)
    assert(bad.count() == 0)
  }

  test("raise to the same Δ is a no-op on the row set") {
    val s = GSW.optimal(300, "impression", seed = 54).sample(ad)
    assert(IncrementalGSW.raise(s, 300, Seq("impression")).count() == s.count())
  }

  test("append over a day split: every row obeys the Δ′ inclusion rule") {
    val old = ad.filter(col("t") < 10)
    val fresh = ad.filter(col("t") >= 10)
    val samplerNew = GSW.optimal(600, "impression", seed = 55)
    val initial = GSW.optimal(150, "impression", seed = 55).sample(old)
    val appended = IncrementalGSW.append(initial, 600, fresh, samplerNew)
    val bad = appended.filter(
      col(GSW.DrawCol) > col(GSW.WeightCol) / (col(GSW.WeightCol) + 600.0))
    assert(bad.count() == 0)
    // Covers both halves of the time range.
    assert(appended.select("t").distinct().count() > 10)
  }

  test("append size concentrates around the Δ′ expected size over the union") {
    val old = ad.filter(col("t") < 10)
    val fresh = ad.filter(col("t") >= 10)
    val samplerNew = GSW.optimal(600, "impression", seed = 57)
    val initial = GSW.optimal(150, "impression", seed = 57).sample(old)
    val appended = IncrementalGSW.append(initial, 600, fresh, samplerNew)
    val expected = GSWReference.expectedSize(ad, col("impression"), 600)
    assert(math.abs(appended.count() - expected) < 5 * math.sqrt(expected) + 5)
  }

  test("append estimates are unbiased over seeds") {
    val exact = ad.agg(sum("impression")).head.getLong(0).toDouble
    val ests = (70 to 77).map { seed =>
      val initial = GSW.optimal(150, "impression", seed).sample(ad.filter(col("t") < 10))
      val appended = IncrementalGSW.append(initial, 600,
        ad.filter(col("t") >= 10), GSW.optimal(600, "impression", seed))
      appended.agg(sum(Sampler.estCol("impression"))).head.getDouble(0)
    }
    val mean = ests.sum / ests.size
    assert(math.abs(mean - exact) / exact < 0.15, s"mean $mean vs exact $exact")
  }

  test("append rejects a sampler whose Δ disagrees") {
    val initial = GSW.optimal(150, "impression", seed = 56).sample(ad.filter(col("t") < 5))
    intercept[IllegalArgumentException] {
      IncrementalGSW.append(initial, 600, ad.filter(col("t") >= 5),
        GSW.optimal(500, "impression", seed = 56))
    }
  }

  test("estimates from a raised sample remain unbiased (smoke over seeds)") {
    val exact = ad.agg(sum("impression")).head.getLong(0).toDouble
    val ests = (60 to 65).map { seed =>
      val raised = IncrementalGSW.raise(
        GSW.optimal(100, "impression", seed).sample(ad), 500, Seq("impression"))
      raised.agg(sum(Sampler.estCol("impression"))).head.getDouble(0)
    }
    val mean = ests.sum / ests.size
    assert(math.abs(mean - exact) / exact < 0.15, s"mean $mean vs exact $exact")
  }
}

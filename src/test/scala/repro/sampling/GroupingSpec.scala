package repro.sampling

import org.apache.spark.sql.functions._
import org.scalacheck.{Gen, Prop}
import repro.{PropSupport, SparkFunSpec, TestData}

/** Tests for the consistency/deviation statistics (Def 2, eqs 8/10), the
  * Proposition 7 L1 bound, and the greedy k-center measure grouping (§4.2).
  */
class GroupingSpec extends SparkFunSpec with PropSupport {

  private lazy val ad = TestData.ad
  private def ss = spark

  private def exampleDf = {
    val s = ss; import s.implicits._
    Seq((100.0, 10.0), (100.0, 10.0), (200.0, 20.0), (400.0, 50.0)).toDF("m", "w")
  }

  test("paper example: (θ̲,θ̄)-consistency of w=[10,10,20,50] with m=[100,100,200,400]") {
    val (lo, hi) = Grouping.consistency(exampleDf, "m", col("w"))
    assert(lo == 8.0 && hi == 10.0)
    assert(Grouping.consistencyScale(exampleDf, "m", col("w")) == 1.25)
  }

  test("consistency scale is 1 iff weights proportional to the measure") {
    assert(math.abs(Grouping.consistencyScale(exampleDf, "m", col("m") * 0.37) - 1.0) < 1e-12)
  }

  test("trend deviation ρ = 1 for proportional measures") {
    val s = ss; import s.implicits._
    val df = Seq((10.0, 30.0), (20.0, 60.0), (5.0, 15.0)).toDF("a", "b")
    assert(math.abs(Grouping.trendDeviation(df, "a", "b") - 1.0) < 1e-12)
  }

  test("trend deviation on the paper's m1/m2 example") {
    val s = ss; import s.implicits._
    // m1=[100,100,200,400], m2=[1,1,2,1]: ratios 100,100,100,400 ⇒ ρ = 4.
    val df = Seq((100.0, 1.0), (100.0, 1.0), (200.0, 2.0), (400.0, 1.0)).toDF("m1", "m2")
    assert(math.abs(Grouping.trendDeviation(df, "m1", "m2") - 4.0) < 1e-12)
  }

  test("range deviation δ on a known group") {
    val s = ss; import s.implicits._
    // rows: (2,8) ratio 4; (10,5) ratio 2; (3,3) ratio 1 ⇒ δ = 4.
    val df = Seq((2.0, 8.0), (10.0, 5.0), (3.0, 3.0)).toDF("a", "b")
    assert(Grouping.rangeDeviation(df, Seq("a", "b")) == 4.0)
  }

  test("range deviation requires ≥ 2 measures") {
    intercept[IllegalArgumentException] { Grouping.rangeDeviation(ad, Seq("impression")) }
  }

  test("pairwise L1 is symmetric, zero-diagonal-free, and within [0,2]") {
    val ms = repro.data.AdSchema.Measures
    val d = Grouping.pairwiseL1(ad, ms)
    for (p <- ms; q <- ms if p != q) {
      assert(d((p, q)) == d((q, p)))
      assert(d((p, q)) >= 0.0 && d((p, q)) <= 2.0, s"L1(${p},${q})=${d((p, q))}")
    }
  }

  test("L1 distance of a measure to itself (via weight view) is 0") {
    assert(math.abs(Grouping.l1ToWeight(ad, "impression", col("impression"))) < 1e-9)
  }

  test("correlated pairs are closer in L1 than cross pairs (imp~clk, fav~cart)") {
    val d = Grouping.pairwiseL1(ad, repro.data.AdSchema.Measures)
    val within = Seq(d(("impression", "click")), d(("favorite", "cart")))
    val cross = Seq(d(("impression", "favorite")), d(("impression", "cart")),
                    d(("click", "favorite")), d(("click", "cart")))
    assert(within.max < cross.min,
      s"within-group L1 $within should undercut cross-group $cross")
  }

  test("Proposition 7: ‖m' − w'‖₁ ≤ θ − 1 (property over random positive vectors)") {
    val vecGen = Gen.nonEmptyListOf(Gen.choose(0.1, 100.0)).suchThat(_.size >= 2)
    checkProp(Prop.forAll(vecGen, Gen.long) { (ws, seed) =>
      val rng = new scala.util.Random(seed)
      val w = ws.toArray
      // m with bounded ratio to w, so θ is finite and computable.
      val m = w.map(v => v * (0.5 + rng.nextDouble() * 2.0))
      val ratios = m.indices.map(i => m(i) / w(i))
      val theta = ratios.max / ratios.min
      val mSum = m.sum; val wSum = w.sum
      val l1 = m.indices.map(i => math.abs(m(i) / mSum - w(i) / wSum)).sum
      l1 <= (theta - 1) + 1e-9
    }, minTests = 200)
  }

  test("Proposition 7 on the Spark side: L1 to weight vs consistency scale") {
    val w = (col("impression") + col("click")) / 2
    val l1 = Grouping.l1ToWeight(ad, "impression", w)
    val theta = Grouping.consistencyScale(ad, "impression", w)
    assert(l1 <= theta - 1 + 1e-9, s"L1 $l1 exceeds θ−1 = ${theta - 1}")
  }

  test("greedy k-center: g=1 puts everything in one group") {
    val ms = repro.data.AdSchema.Measures
    val d = Grouping.pairwiseL1(ad, ms)
    val groups = Grouping.greedyKCenter(ms, d, 1)
    assert(groups.size == 1 && groups.head.toSet == ms.toSet)
  }

  test("greedy k-center: g = |measures| puts each in its own group") {
    val ms = repro.data.AdSchema.Measures
    val d = Grouping.pairwiseL1(ad, ms)
    val groups = Grouping.greedyKCenter(ms, d, ms.size)
    assert(groups.size == ms.size && groups.forall(_.size == 1))
  }

  test("greedy k-center with g=2 recovers the correlated pairs on ad data") {
    val ms = repro.data.AdSchema.Measures
    val d = Grouping.pairwiseL1(ad, ms)
    val groups = Grouping.greedyKCenter(ms, d, 2).map(_.toSet)
    assert(groups.contains(Set("impression", "click")) &&
      groups.contains(Set("favorite", "cart")),
      s"unexpected grouping: $groups")
  }

  test("greedy k-center: every measure assigned exactly once") {
    val ms = repro.data.AdSchema.Measures
    val d = Grouping.pairwiseL1(ad, ms)
    for (g <- 1 to ms.size) {
      val groups = Grouping.greedyKCenter(ms, d, g)
      assert(groups.flatten.sorted == ms.sorted)
    }
  }

  test("greedy k-center: centers at distance 0 each keep their own group") {
    // Proportional measures are at normalized L1 distance 0.
    val d2 = Map(("a", "b") -> 0.0, ("b", "a") -> 0.0)
    assert(Grouping.greedyKCenter(Seq("a", "b"), d2, 2) == Seq(Seq("a"), Seq("b")))
    val d3 = Map(("a", "b") -> 0.0, ("b", "a") -> 0.0, ("a", "c") -> 1.0,
                 ("c", "a") -> 1.0, ("b", "c") -> 1.0, ("c", "b") -> 1.0)
    assert(Grouping.greedyKCenter(Seq("a", "b", "c"), d3, 3) ==
      Seq(Seq("a"), Seq("c"), Seq("b")))
    assert(Grouping.greedyKCenter(Seq("a", "b", "c"), d3, 2) ==
      Seq(Seq("a", "b"), Seq("c")))
  }

  test("greedy k-center: invalid g rejected") {
    val ms = repro.data.AdSchema.Measures
    val d = Grouping.pairwiseL1(ad, ms)
    intercept[IllegalArgumentException] { Grouping.greedyKCenter(ms, d, 0) }
    intercept[IllegalArgumentException] { Grouping.greedyKCenter(ms, d, 5) }
  }

  test("grouping quality: smaller L1 to weight ⇒ smaller estimation error (Fig 6 shape, MC)") {
    // Weight = amean(impression, click). Impression is close to it in L1;
    // favorite is far. GSW with this weight should estimate impression
    // better than favorite.
    val imp = TestData.measuresLocal("impression")
    val clk = TestData.measuresLocal("click")
    val fav = TestData.measuresLocal("favorite")
    val w = imp.indices.map(i => (imp(i) + clk(i)) / 2).toArray
    val delta = w.sum / (0.02 * w.length)
    val rng = new scala.util.Random(41)
    val rImp = repro.LocalSampling.rstd(
      (1 to 300).map(_ => repro.LocalSampling.gswTrial(imp, w, delta, rng)._1), imp.sum)
    val rFav = repro.LocalSampling.rstd(
      (1 to 300).map(_ => repro.LocalSampling.gswTrial(fav, w, delta, rng)._1), fav.sum)
    assert(rImp < rFav, s"in-group RSTD $rImp should undercut out-of-group $rFav")
  }
}

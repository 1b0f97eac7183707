package repro.bench

import repro.SparkSpec
import repro.exp.Exp4
import repro.exp.Harness.mean

/** Reproduces **Figures 10–15** (Exp-IV): aggregation/forecast errors and
  * interval widths for every sampler × sampling rate × selectivity, on
  * Favorite and Impression, plus the Figure 13 interval-width claims.
  */
class Exp4ErrorVsRateBench extends SparkSpec {
  import BenchFixtures._

  test("Exp-IV: sampler comparison across rates and selectivities") {
    val res = Exp4.run(df, gen, cache, cfg)
    println(res.rendered)
    val rows = res.rows
    val rates = rows.map(_.paperRate).distinct.sorted
    val minRate = rates.head
    val maxRate = rates.last

    def agg(sampler: String, rate: Double): Double =
      mean(rows.filter(r => r.sampler == sampler && r.paperRate == rate).map(_.aggErr))

    // Fig 10 claim 1: Uniform is the worst sampler (range-dependent error).
    for (rate <- rates) {
      assert(agg("Uniform", rate) >= agg("Opt-GSW", rate) * 0.9,
        s"Uniform should not beat Opt-GSW at rate $rate")
    }
    assert(agg("Uniform", minRate) > agg("Opt-GSW", minRate) * 1.3,
      "at the smallest rate the Uniform/Opt-GSW gap should be clear")

    // Claim 2: Priority ≈ Opt-GSW (the two optimal weighted samplers).
    for (rate <- rates) {
      val p = agg("Priority", rate); val o = agg("Opt-GSW", rate)
      assert(p < o * 2 && o < p * 2, s"Priority $p vs Opt-GSW $o at $rate should be close")
    }

    // Claim 3: compressed GSW sits between Uniform and Opt-GSW on average
    // and approaches Opt-GSW as the rate grows.
    val cSmall = agg("C-GSW(arith)", minRate)
    assert(cSmall <= agg("Uniform", minRate) * 1.1,
      "arithmetic C-GSW should not lose to Uniform")
    val cBig = agg("C-GSW(arith)", maxRate)
    val oBig = agg("Opt-GSW", maxRate)
    assert(cBig <= oBig * 3 + 0.05, s"C-GSW $cBig should approach Opt-GSW $oBig at the top rate")

    // Claim 4: everyone improves with the sampling rate.
    for (s <- rows.map(_.sampler).distinct)
      assert(agg(s, maxRate) < agg(s, minRate),
        s"$s should improve from rate $minRate to $maxRate")

    // Claim 5: larger selectivity ⇒ smaller error (more qualifying rows).
    for (s <- rows.map(_.sampler).distinct) {
      val lo = mean(rows.filter(r => r.sampler == s && r.selectivity == 0.005).map(_.aggErr))
      val hi = mean(rows.filter(r => r.sampler == s && r.selectivity == 0.05).map(_.aggErr))
      assert(hi < lo, s"$s: selectivity 5% ($hi) should beat 0.5% ($lo)")
    }

    // Fig 13 claim: forecast intervals narrow as the rate grows (Opt-GSW).
    val wSmall = mean(rows.filter(r => r.sampler == "Opt-GSW" && r.paperRate == minRate).map(_.width))
    val wBig = mean(rows.filter(r => r.sampler == "Opt-GSW" && r.paperRate == maxRate).map(_.width))
    assert(wBig < wSmall, s"interval width should narrow with rate: $wBig vs $wSmall")

    // Figs 11/12/14/15 claim: forecast error tracks aggregation error —
    // the sampler with smaller agg error has no worse forecast error on
    // average (correlation across all rows is positive).
    val xs = rows.map(_.aggErr); val ys = rows.map(_.fcErr)
    val mx = mean(xs); val my = mean(ys)
    val cov = xs.zip(ys).map { case (a, b) => (a - mx) * (b - my) }.sum
    assert(cov > 0, "forecast error should co-move with aggregation error")

    // LSTM subset exists and is finite where computed.
    val lstmRows = rows.filter(r => !r.lstmErr.isNaN)
    assert(lstmRows.nonEmpty && lstmRows.forall(r => java.lang.Double.isFinite(r.lstmErr)))
  }
}

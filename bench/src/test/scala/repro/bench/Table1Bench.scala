package repro.bench

import repro.SparkSpec
import repro.exp.Harness.mean
import repro.exp.Table1

/** Reproduces **Table 1** (Exp-I): mean ARIMA forecast error per measure
  * for Full / PIM / Uniform / Opt-GSW / C-GSW at the paper's 0.1 % rate
  * (scaled). Prints the table; asserts the paper's ordering claims:
  * sampling-based methods sit near Full, PIM is clearly worse, and the
  * GSW family does not lose to Uniform.
  */
class Table1Bench extends SparkSpec {
  import BenchFixtures._

  test("Table 1: forecast errors per measure and method") {
    val res = Table1.run(df, gen, cache, cfg)
    println(res.rendered)

    val rows = res.rows
    assert(rows.size == 4)
    assert(rows.forall(r => Seq(r.full, r.pim, r.uniform, r.optGsw, r.cGsw)
      .forall(v => java.lang.Double.isFinite(v) && v >= 0)))

    // Claim 1 (Table 1's headline): the GSW family sits next to Full (the
    // best possible) while PIM's independence bias costs real accuracy.
    val pimMean = mean(rows.map(_.pim))
    val optMean = mean(rows.map(_.optGsw))
    val cMean = mean(rows.map(_.cGsw))
    val fullMean = mean(rows.map(_.full))
    assert(optMean <= fullMean * 1.4 + 0.05,
      s"Opt-GSW mean $optMean should sit next to Full mean $fullMean")
    assert(cMean <= fullMean * 1.6 + 0.05,
      s"C-GSW mean $cMean should sit near Full mean $fullMean")
    assert(pimMean > optMean,
      s"PIM mean $pimMean should exceed Opt-GSW mean $optMean")
    assert(pimMean > fullMean * 1.1,
      s"PIM mean $pimMean should clearly exceed Full mean $fullMean")

    // Claim 2: Uniform visibly loses to Opt-GSW on the heavy-tailed
    // measure (the paper's gap shows on Favorite; our heaviest tail is
    // impression) and does not beat it on average.
    val impRow = rows.find(_.measure == "impression").get
    assert(impRow.uniform > impRow.optGsw,
      s"Uniform ${impRow.uniform} should lose to Opt-GSW ${impRow.optGsw} on the heavy tail")
    val uniMean = mean(rows.map(_.uniform))
    assert(optMean <= uniMean * 1.1,
      s"Opt-GSW mean $optMean should not exceed Uniform mean $uniMean")
  }
}

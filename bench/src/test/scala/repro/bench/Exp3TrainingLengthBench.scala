package repro.bench

import repro.SparkSpec
import repro.exp.Exp3
import repro.exp.Harness.mean

/** Reproduces **Figure 9** (Exp-III): forecast error vs number of training
  * days (Opt-GSW, selectivity 5 %, Impression, ARIMA and LSTM).
  * Paper claim: more training days help — 150 days beats 30.
  */
class Exp3TrainingLengthBench extends SparkSpec {
  import BenchFixtures._

  test("Exp-III: training-length sweep; long history beats short") {
    val res = Exp3.run(df, gen, cache, cfg)
    println(res.rendered)

    assert(res.rows.nonEmpty)
    assert(res.rows.forall(r =>
      java.lang.Double.isFinite(r.arimaErr) && java.lang.Double.isFinite(r.lstmErr)))

    // Mean over rates: the longest window should not lose to the shortest
    // (the paper's "150 days is most accurate and stable" claim).
    val shortest = res.rows.filter(_.trainDays == res.rows.map(_.trainDays).min)
    val longest = res.rows.filter(_.trainDays == res.rows.map(_.trainDays).max)
    val shortErr = mean(shortest.map(_.arimaErr))
    val longErr = mean(longest.map(_.arimaErr))
    assert(longErr <= shortErr * 1.2,
      s"ARIMA with ${longest.head.trainDays}d ($longErr) should not lose to " +
        s"${shortest.head.trainDays}d ($shortErr)")
  }
}

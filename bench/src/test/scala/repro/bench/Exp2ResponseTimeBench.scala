package repro.bench

import repro.SparkSpec
import repro.exp.Exp2

/** Reproduces **Figure 8** (Exp-II): end-to-end response time split into
  * the aggregation and forecasting portions, full scan vs sample layers.
  * Absolute numbers reflect local Spark, not the paper's Hologres cluster;
  * the asserted claims are the orderings that survive scaling.
  */
class Exp2ResponseTimeBench extends SparkSpec {
  import BenchFixtures._

  test("Exp-II: aggregation latency falls from full scan to samples; LSTM dominates ARIMA") {
    val res = Exp2.run(df, gen, cfg)
    println(res.rendered)

    val full = res.rows.head
    val samples = res.rows.tail
    assert(full.config.startsWith("Full"))

    // Sampling shrinks the data the online aggregation touches (the
    // smallest layer by orders of magnitude; the largest is 50% by the
    // equal-rows scale mapping)...
    assert(samples.map(_.sampleRows).min < df.count() / 20)
    assert(samples.forall(_.sampleRows <= df.count()))
    // ...and the aggregation latency with it (paper: 20 s -> 30 ms). Sample
    // layers are answered on the driver with no Spark job, so every layer
    // beats the full scan and the smallest by two orders of magnitude.
    assert(samples.forall(_.aggMs <= full.aggMs),
      s"sample agg (${samples.map(_.aggMs)} ms) should not exceed full scan (${full.aggMs} ms)")
    val bestSample = samples.map(_.aggMs).min
    assert(bestSample * 100 <= full.aggMs,
      s"best sample agg ($bestSample ms) should be 100x below the full scan (${full.aggMs} ms)")

    // Model-fitting side: LSTM is the expensive model (paper: ~1 s vs ms).
    assert(res.rows.forall(r => r.lstmMs > r.arimaMs),
      "LSTM fitting should cost more than ARIMA everywhere")
  }
}

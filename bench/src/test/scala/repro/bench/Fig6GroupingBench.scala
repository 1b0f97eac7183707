package repro.bench

import repro.SparkSpec
import repro.exp.Fig6
import repro.exp.Harness.mean

/** Reproduces **Figure 6** (§4.2): across the three ways to pair up the
  * four measures, L1 distance between a measure and its group's sampling
  * weight tracks the GSW aggregation error — the evidence for L1-based
  * grouping.
  */
class Fig6GroupingBench extends SparkSpec {
  import BenchFixtures._

  test("Fig 6: L1 distance to group weight tracks aggregation error") {
    val res = Fig6.run(df, gen, cache, cfg)
    println(res.rendered)
    val rows = res.rows
    assert(rows.size == 12) // 3 groupings × 4 measures

    // The correlated pairing (imp+clk / fav+cart) minimizes the total L1.
    val byGrouping = rows.groupBy(_.grouping).view.mapValues(rs => rs.map(_.l1).sum).toMap
    val best = byGrouping.minBy(_._2)._1
    assert(best.contains("imp+cli") || best.contains("imp+cl"),
      s"expected the impression+click pairing to minimize L1, got '$best' " +
        s"(sums: $byGrouping)")

    // Aggregation error co-moves with L1 (the figure's point): positive
    // covariance across the 12 (L1, error) pairs.
    val mx = mean(rows.map(_.l1)); val my = mean(rows.map(_.aggErr))
    val cov = rows.map(r => (r.l1 - mx) * (r.aggErr - my)).sum
    assert(cov > 0, "aggregation error should increase with L1 distance")
  }
}

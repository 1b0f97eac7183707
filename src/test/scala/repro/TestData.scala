package repro

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.{col, lit, when}
import scala.util.Random

/** Shared, lazily cached test fixtures. Generation is deterministic, so
  * every suite sees identical data and the DuckDB oracle can re-derive the
  * same truths.
  */
object TestData {

  /** Main sampling fixture: 20 days × 1500 rows/day of ad traffic. */
  lazy val ad: DataFrame = {
    val df = SynthData.adTraffic(SparkSpec.shared, sf = 1e-4, days = 20).cache()
    df.count() // materialize once
    df
  }

  /** [[ad]] with null dimension values: `gender` is null where `age < 30`
    * and `city` where `tag_food = 1`. Not cached.
    */
  lazy val adWithNulls: DataFrame = ad
    .withColumn("gender", when(col("age") < 30, lit(null).cast("string")).otherwise(col("gender")))
    .withColumn("city", when(col("tag_food") === 1, lit(null).cast("int")).otherwise(col("city")))

  /** Longer, thinner fixture for end-to-end pipeline tests:
    * 90 days × 150 rows/day.
    */
  lazy val adLong: DataFrame = {
    val df = SynthData.adTraffic(SparkSpec.shared, sf = 1e-5, days = 90).cache()
    df.count()
    df
  }

  /** Collected per-row measures of [[ad]] (row order fixed by collect),
    * for driver-side Monte-Carlo studies of the samplers.
    */
  lazy val measuresLocal: Map[String, Array[Double]] = {
    val ms = repro.data.AdSchema.Measures
    val rows = ad.select(ms.head, ms.tail: _*).collect()
    ms.zipWithIndex.map { case (m, i) =>
      m -> rows.map(_.getLong(i).toDouble)
    }.toMap
  }

  /** A daily series with weekly seasonality around 1000 and N(0, 20²) noise,
    * the shape of FlashP's per-day totals, for the forecaster tests.
    */
  def weeklySeasonal(n: Int, rng: Random): Array[Double] =
    Array.tabulate(n)(t =>
      1000.0 * (1 + 0.3 * math.sin(2 * math.Pi * t / 7)) + rng.nextGaussian() * 20)
}

/** Driver-side reference implementations of the samplers' single-trial
  * estimators. The Spark transforms are the system under test; these tiny
  * re-implementations exist so statistical properties (unbiasedness, the
  * Theorem 3 / Corollary 4–6 bounds, priority sampling's RSTD) can be
  * measured over hundreds of independent trials without hundreds of Spark
  * jobs. Equivalence between the two implementations is itself covered by
  * the Spark-side unit tests.
  */
object LocalSampling {

  /** One GSW trial: returns (estimate of Σm, sample size). */
  def gswTrial(m: Array[Double], w: Array[Double], delta: Double,
               rng: Random): (Double, Int) = {
    var est = 0.0; var size = 0; var i = 0
    while (i < m.length) {
      if (rng.nextDouble() <= w(i) / (w(i) + delta)) {
        est += m(i) * (delta + w(i)) / w(i)
        size += 1
      }
      i += 1
    }
    (est, size)
  }

  /** One uniform-sampling trial. */
  def uniformTrial(m: Array[Double], rate: Double, rng: Random): (Double, Int) = {
    var est = 0.0; var size = 0; var i = 0
    while (i < m.length) {
      if (rng.nextDouble() < rate) { est += m(i) / rate; size += 1 }
      i += 1
    }
    (est, size)
  }

  /** One priority-sampling trial over the whole vector (top-k by m/u with
    * τ = (k+1)-th priority; estimator Σ max(m_i, τ)).
    */
  def priorityTrial(m: Array[Double], k: Int, rng: Random): Double = {
    if (m.length <= k) return m.sum
    val pri = m.map(v => v / math.max(rng.nextDouble(), 1e-300))
    val order = pri.indices.sortBy(i => -pri(i))
    val tau = pri(order(k))
    order.take(k).map(i => math.max(m(i), tau)).sum
  }

  /** Relative standard deviation of `trials` estimates of `truth`. */
  def rstd(estimates: Seq[Double], truth: Double): Double = {
    val mse = estimates.map(e => (e - truth) * (e - truth)).sum / estimates.size
    math.sqrt(mse) / truth
  }
}

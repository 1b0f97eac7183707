package repro.sampling

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.DoubleType
import repro.PartitionFold
import scala.collection.mutable.ArrayBuilder

/** GSW (Generalized Smoothed Weighted) sampling — the paper's core
  * contribution (§4.1).
  *
  * Parameterized by a positive constant Δ and positive per-row sampling
  * weights `w_i`: row `i` is drawn independently with probability
  * `w_i / (Δ + w_i)`. The calibrated measure stored with each sampled row is
  * `m̂_i = m_i (Δ + w_i) / w_i`, making `Σ_{i∈S} m̂_i` unbiased for any
  * constrained subset sum (Horvitz–Thompson).
  *
  * Accuracy (Theorem 3): if `w` is (θ̲, θ̄)-consistent with `m`, then
  * `RSTD ≤ sqrt((θ̄/θ̲) / E[|S|])`. With `w = m` (the optimal GSW sampler,
  * Corollary 4) the bound is `sqrt(1 / E[|S|])` — on par with priority
  * sampling, the best known subset-sum sampler.
  *
  * Implementation note: this is a pure DataFrame transform — each row draws
  * `p_i ~ U[0,1]` via `rand(seed)` and survives iff
  * `p_i ≤ w_i/(Δ+w_i)`, which is embarrassingly parallel and runs
  * distributed under Catalyst exactly as the paper's MaxCompute UDF did.
  * The drawn `p_i` and weight `w_i` are retained in columns `gsw_p` /
  * `gsw_w` so the sample can later be thinned to a larger Δ′ without
  * re-reading the base table (see [[IncrementalGSW]]).
  *
  * @param delta      the Δ knob: larger Δ ⇒ smaller sample
  * @param weight     sampling-weight expression; [[sample]] fails on a row
  *                   where it is null, NaN, infinite or ≤ 0
  * @param weightName display name of the weight choice for bench tables
  * @param ms         measures to carry calibrated estimate columns for
  * @param seed       deterministic seed for the per-row uniform draws. Must
  *                   not equal a seed used by the data generator's own
  *                   `rand`/`randn` streams, or the draw reproduces that
  *                   stream and correlates with the generated column
  *                   (defaults here are large primes for that reason)
  */
final case class GSW(delta: Double, weight: Column, weightName: String,
                     ms: Seq[String], seed: Long = 104729) extends Sampler {
  require(delta > 0, s"GSW: delta=$delta must be positive")

  override def name: String = f"GSW($weightName, Δ=$delta%.1f)"
  override def measures: Seq[String] = ms

  /** Draw the sample.
    *
    * @throws org.apache.spark.SparkRuntimeException when the sample is
    *         evaluated, if any row's weight is null, NaN, infinite or ≤ 0
    *         (e.g. a geometric weight over a zero measure, since Spark's
    *         `log(0)` is NULL): such a row could never be drawn, or would be
    *         drawn with probability > 1, biasing every estimate without an
    *         error
    */
  override def sample(df: DataFrame): DataFrame = {
    val w = weight.cast("double")
    // A literal message: formatting the bad value would cost every query
    // that samples a few tens of ms of code generation.
    val checked = when(w.isNull || w.isNaN || w <= 0 || w === Double.PositiveInfinity,
      raise_error(lit(s"$name: a sampling weight is null, NaN, infinite or <= 0; " +
        "it must be positive and finite"))).otherwise(w)
    val drawn = df
      .withColumn(GSW.WeightCol, checked)
      .withColumn(GSW.DrawCol, rand(seed))
    GSW.withEstimates(drawn.filter(GSW.included(delta)), delta, ms)
  }
}

object GSW {

  /** Stored sampling weight `w_i` of each sampled row. */
  val WeightCol = "gsw_w"

  /** Stored uniform draw `p_i` of each sampled row (for Δ→Δ′ maintenance). */
  val DrawCol = "gsw_p"

  /** The inclusion rule at Δ, `p ≤ w/(w+Δ)` over [[DrawCol]] and [[WeightCol]]:
    * [[GSW.sample]] draws and [[IncrementalGSW.raise]] thins with it alone.
    */
  private[sampling] def included(delta: Double): Column =
    col(DrawCol) <= col(WeightCol) / (col(WeightCol) + delta)

  /** Add each measure's calibrated column `m·(Δ+w)/w` to a sample drawn (or
    * thinned) at threshold Δ, from the stored weight [[WeightCol]].
    */
  private[sampling] def withEstimates(sample: DataFrame, delta: Double,
                                      ms: Seq[String]): DataFrame =
    ms.foldLeft(sample) { (acc, m) =>
      acc.withColumn(Sampler.estCol(m), col(m) * (col(WeightCol) + delta) / col(WeightCol))
    }

  /** The sampler `make(Δ)` with Δ chosen by [[deltaForRate]] so its expected
    * sample size is ≈ `rate × |df|`, e.g.
    * `GSW.atRate(df, 0.01)(GSW.optimal(_, "click"))`.
    */
  def atRate(df: DataFrame, rate: Double)(make: Double => GSW): GSW =
    make(deltaForRate(df, make(1.0).weight, rate))

  /** Optimal GSW sampler (§4.1.2): weights equal the measure itself, giving
    * the (1,1)-consistent bound of Corollary 4. One sample per measure.
    */
  def optimal(delta: Double, measure: String, seed: Long = 104729): GSW =
    GSW(delta, col(measure), s"w=$measure", Seq(measure), seed)

  /** Arithmetic compressed GSW (§4.2, Corollary 6): one sample serving all
    * of `ms`, with weights `w_i = (1/k) Σ_j m_i^(j)`. Error bounded by
    * `sqrt(δ² / E[|S|])` where δ is the range deviation of the group.
    */
  def arithmetic(delta: Double, ms: Seq[String], seed: Long = 104729): GSW = {
    require(ms.nonEmpty, "arithmetic compressed GSW needs at least one measure")
    GSW(delta, ms.map(col).reduce(_ + _) / ms.size, "w=amean", ms, seed)
  }

  /** Geometric compressed GSW (§4.2, Corollary 5): weights
    * `w_i = (Π_j m_i^(j))^{1/k}`. Error bounded by
    * `sqrt(ρ^{(k-1)/k} / E[|S|])` where ρ is the max trend deviation.
    */
  def geometric(delta: Double, ms: Seq[String], seed: Long = 104729): GSW = {
    require(ms.nonEmpty, "geometric compressed GSW needs at least one measure")
    GSW(delta, exp(ms.map(m => log(col(m))).reduce(_ + _) / ms.size),
        "w=gmean", ms, seed)
  }

  /** Fixed-point steps [[deltaForRate]] takes from its closed-form start. */
  private val RefineSteps = 3

  /** Find Δ so the expected sample size `E|S_Δ| = Σ_i w_i/(Δ+w_i)` (eq. 13)
    * is ≈ `rate × |df|`, with one Spark job.
    *
    * The job builds a weight table: each partition sorts its weights in a
    * primitive array and returns its distinct values with their counts; the
    * driver merges those into one ascending table of `(v, c_v)`. The table
    * has one entry per distinct weight: few for the integer measures, and at
    * most `|df|` for real-valued weights such as the geometric mean.
    *
    * The rest runs on the driver, over the table. It starts from the
    * closed-form `Δ₀ = W/(rate·n)` (exact when `w ≪ Δ`) and refines with
    * [[RefineSteps]] multiplicative fixed-point steps `Δ ← Δ·E(Δ)/target`,
    * where `E(Δ) = Σ c_v·v/(Δ+v)`. Three steps land well within a few percent
    * of the target for our data. Every sum runs in ascending `v`, so Δ
    * depends only on the multiset of weights, not on how `df` is partitioned.
    *
    * @throws IllegalArgumentException if `df` is empty, or if any row's
    *         weight is null, NaN, infinite or ≤ 0 (the message names
    *         `weight` and counts those rows)
    */
  def deltaForRate(df: DataFrame, weight: Column, rate: Double): Double = {
    require(rate > 0 && rate < 1, s"deltaForRate: rate=$rate out of (0,1)")
    val table = WeightTable.merged(
      PartitionFold(df.select(weight.cast(DoubleType)), "GSW.deltaForRate")(WeightTable.of))
    require(table.invalid == 0, s"deltaForRate: the weight ${df.select(weight).columns.head} " +
      s"is null, NaN, infinite or <= 0 in ${table.invalid} row(s); every weight must be " +
      "positive and finite")
    val n = table.counts.sum
    require(n > 0, "deltaForRate: no rows to size a sample for")
    val target = rate * n
    var delta = table.total / target
    var step = 0
    while (step < RefineSteps) {
      delta = delta * table.expectedSize(delta) / target
      step += 1
    }
    delta
  }
}

/** Distinct valid weights in ascending order with their counts, and the
  * number of invalid (null, NaN, infinite or ≤ 0) weights. Sums run in
  * ascending `values`.
  */
private final class WeightTable(val values: Array[Double], val counts: Array[Long],
                                val invalid: Long) extends Serializable {

  /** `W = Σ c_v·v`. */
  def total: Double = {
    var s = 0.0
    var i = 0
    while (i < values.length) { s += counts(i) * values(i); i += 1 }
    s
  }

  /** `E(Δ) = Σ c_v·v/(Δ+v)`. */
  def expectedSize(delta: Double): Double = {
    var s = 0.0
    var i = 0
    while (i < values.length) { s += counts(i) * values(i) / (delta + values(i)); i += 1 }
    s
  }
}

private object WeightTable {

  /** The table of one partition's rows of one double column. */
  def of(rows: Iterator[InternalRow]): WeightTable = {
    val valid = new ArrayBuilder.ofDouble
    var invalid = 0L
    rows.foreach { r =>
      val w = if (r.isNullAt(0)) Double.NaN else r.getDouble(0)
      if (w > 0 && w < Double.PositiveInfinity) valid += w else invalid += 1
    }
    val sorted = valid.result()
    java.util.Arrays.sort(sorted)
    val values = new ArrayBuilder.ofDouble
    val counts = new ArrayBuilder.ofLong
    var i = 0
    while (i < sorted.length) {
      var j = i + 1
      while (j < sorted.length && sorted(j) == sorted(i)) j += 1
      values += sorted(i)
      counts += j - i
      i = j
    }
    new WeightTable(values.result(), counts.result(), invalid)
  }

  /** One table of the rows of all `parts`, merged pairwise in rounds. */
  def merged(parts: Array[WeightTable]): WeightTable = {
    var round = parts.toSeq
    while (round.size > 1) round = round.grouped(2).map(_.reduce(merge)).toSeq
    round.headOption.getOrElse(new WeightTable(Array.emptyDoubleArray, Array.emptyLongArray, 0))
  }

  private def merge(a: WeightTable, b: WeightTable): WeightTable = {
    val values = new ArrayBuilder.ofDouble
    val counts = new ArrayBuilder.ofLong
    var i = 0
    var j = 0
    while (i < a.values.length || j < b.values.length) {
      val takeA = j == b.values.length || (i < a.values.length && a.values(i) <= b.values(j))
      val takeB = i == a.values.length || (j < b.values.length && b.values(j) <= a.values(i))
      values += (if (takeA) a.values(i) else b.values(j))
      counts += (if (takeA) a.counts(i) else 0L) + (if (takeB) b.counts(j) else 0L)
      if (takeA) i += 1
      if (takeB) j += 1
    }
    new WeightTable(values.result(), counts.result(), a.invalid + b.invalid)
  }
}

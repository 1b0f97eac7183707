package repro.sampling

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.expressions.Window
import org.apache.spark.sql.functions._
import repro.data.AdSchema

/** Priority sampling (Duffield–Lund–Thorup [22]) — the theoretically
  * optimal weighted baseline the paper compares GSW against.
  *
  * Per day of [[AdSchema.TimeCol]] (samplers run independently per day,
  * which is what gives the estimator its cross-day independence): each row
  * draws `u_i ~ U(0,1]` and gets priority `q_i = m_i / u_i`. The sample is
  * the `k` highest-priority rows; with `τ` the (k+1)-th priority, the
  * calibrated measure of a sampled row is `max(m_i, τ)`, which is unbiased
  * for subset sums and has `RSTD = sqrt(1/(k−1))` [38].
  *
  * Unlike GSW, the sampling distribution is tied to one measure, so
  * multi-measure workloads need one priority sample per measure — the
  * space-cost disadvantage Exp-V quantifies.
  *
  * @param k       sample size per day
  * @param measure the measure the priorities are drawn from (and the only
  *                one this sample can estimate)
  * @param seed    deterministic seed for the uniform draws
  */
final case class Priority(k: Int, measure: String, seed: Long = 104723) extends Sampler {
  require(k >= 2, s"Priority: k=$k must be >= 2 for the estimator to exist")

  override def name: String = s"Priority($measure, k=$k)"
  override def measures: Seq[String] = Seq(measure)

  /** Draw the sample.
    *
    * @throws org.apache.spark.SparkRuntimeException when the sample is
    *         evaluated, if any row's measure is null, NaN or negative: the
    *         estimator's `max(m, τ)` would zero a negative measure, and a NaN
    *         priority ranks first and turns its day's estimate into NaN
    */
  override def sample(df: DataFrame): DataFrame = {
    val m = col(measure).cast("double")
    // A literal message, as in GSW.sample: formatting the bad value would
    // cost every query that samples a few tens of ms of code generation.
    val checked = when(m.isNull || m.isNaN || m < 0, raise_error(
      lit(s"$name: a measure is null, NaN or negative; it must be >= 0"))).otherwise(m)
    // rand() ∈ [0,1); clamp away from 0 so q = m/u is finite.
    val prioritized = df.withColumn("pri_q", checked / greatest(rand(seed), lit(1e-12)))
    val byPriority = Window.partitionBy(AdSchema.TimeCol).orderBy(desc("pri_q"))
    // τ per day = the (k+1)-th priority over the whole day; days with ≤ k
    // rows keep everything and are estimated exactly (τ treated as 0).
    val tau = nth_value(col("pri_q"), k + 1)
      .over(byPriority.rowsBetween(Window.unboundedPreceding, Window.unboundedFollowing))
    prioritized.withColumn("pri_rank", row_number().over(byPriority))
      .withColumn(Sampler.estCol(measure), greatest(m, coalesce(tau, lit(0.0))))
      .filter(col("pri_rank") <= k)
      .drop("pri_q", "pri_rank")
  }
}

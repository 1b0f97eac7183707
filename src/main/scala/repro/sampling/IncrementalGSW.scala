package repro.sampling

import org.apache.spark.sql.DataFrame

/** Incremental maintenance of a GSW sample (§4.1, "Simple and efficient
  * implementations").
  *
  * A GSW sample stores each sampled row's uniform draw `p_i` and weight
  * `w_i` (columns [[GSW.DrawCol]] / [[GSW.WeightCol]]). A row is in the
  * sample at threshold Δ iff it passes [[GSW.included]]`(Δ)`, the one
  * inclusion rule `p_i ≤ w_i/(w_i+Δ)` that [[GSW.sample]] draws with; it
  * fails at every Δ′ > Δ once it fails at Δ. So to grow the covered data
  * while keeping the sample size bounded we only need to:
  *
  *  1. [[raise]]: keep the rows of the existing sample that pass the rule at
  *     Δ′ — no row outside the sample is ever touched;
  *  2. [[append]]: GSW-sample the new batch directly at Δ′ and union.
  *
  * Since [[raise]] applies the rule a fresh draw at Δ′ applies, to the same
  * `p_i` and `w_i`, it keeps exactly that draw's rows, by construction; the
  * tests compare the two row by row.
  */
object IncrementalGSW {

  /** Thin an existing GSW sample from threshold Δ to Δ′ ≥ Δ and refresh its
    * calibrated estimate columns for the new threshold.
    */
  def raise(sample: DataFrame, newDelta: Double, ms: Seq[String]): DataFrame =
    GSW.withEstimates(sample.filter(GSW.included(newDelta)), newDelta, ms)

  /** Extend a GSW sample over `newRows` (rows not yet covered), raising the
    * threshold to `newDelta`: the old sample is thinned with [[raise]] and
    * the batch is sampled at `newDelta` by `sampler` (which must use the
    * same weight definition).
    */
  def append(sample: DataFrame, newDelta: Double, newRows: DataFrame,
             sampler: GSW): DataFrame = {
    require(sampler.delta == newDelta,
      s"append: sampler Δ=${sampler.delta} must equal newDelta=$newDelta")
    raise(sample, newDelta, sampler.ms).unionByName(sampler.sample(newRows))
  }
}

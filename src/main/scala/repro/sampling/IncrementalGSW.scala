package repro.sampling

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._

/** Incremental maintenance of a GSW sample (§4.1, "Simple and efficient
  * implementations").
  *
  * A GSW sample stores each sampled row's uniform draw `p_i` and weight
  * `w_i` (columns [[GSW.DrawCol]] / [[GSW.WeightCol]]). A row is in the
  * sample at threshold Δ iff `p_i ≤ w_i/(Δ+w_i)`, i.e. iff
  * `(1/p_i − 1)·w_i ≥ Δ`. So to grow the covered data while keeping the
  * sample size bounded we only need to:
  *
  *  1. [[raise]]: delete rows of the existing sample whose key
  *     `(1/p_i − 1)·w_i` falls in `[Δ, Δ′)` — no row outside the sample is
  *     ever touched;
  *  2. [[append]]: GSW-sample the new batch directly at Δ′ and union.
  *
  * The result is distributed exactly as a fresh GSW sample at Δ′ over the
  * whole data (same `p_i` draws), which the tests verify literally.
  */
object IncrementalGSW {

  /** Thin an existing GSW sample from threshold Δ to Δ′ ≥ Δ and refresh its
    * calibrated estimate columns for the new threshold.
    */
  def raise(sample: DataFrame, newDelta: Double, ms: Seq[String]): DataFrame = {
    val kept = sample.filter(
      (lit(1.0) / col(GSW.DrawCol) - 1.0) * col(GSW.WeightCol) >= newDelta)
    GSW.withEstimates(kept, newDelta, ms)
  }

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

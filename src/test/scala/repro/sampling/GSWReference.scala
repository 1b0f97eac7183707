package repro.sampling

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._

/** Slow reference for [[GSW.deltaForRate]]: Δ sized as it was before the
  * weight table, with one Spark aggregation over the whole relation for
  * `(W, n)` and one more per refinement step. Tests require the production
  * Δ to match it up to the order in which doubles are summed.
  */
object GSWReference {

  /** Expected sample size `E[|S_Δ|] = Σ_i w_i/(Δ+w_i)` (eq. 13), computed
    * with one Spark aggregation.
    */
  def expectedSize(df: DataFrame, weight: Column, delta: Double): Double =
    df.select(sum(weight.cast("double") / (weight.cast("double") + delta)) as "s")
      .head.getDouble(0)

  /** `Δ₀ = W/(rate·n)`, then `refineSteps` steps `Δ ← Δ · E[|S_Δ|]/target`. */
  def deltaForRate(df: DataFrame, weight: Column, rate: Double,
                   refineSteps: Int = 3): Double = {
    val agg = df.select(sum(weight.cast("double")) as "w", count(lit(1)) as "n").head
    val target = rate * agg.getLong(1)
    var delta = agg.getDouble(0) / target
    for (_ <- 0 until refineSteps) delta = delta * expectedSize(df, weight, delta) / target
    delta
  }
}

package repro.core

import org.apache.spark.sql.{DataFrame, RelationalGroupedDataset}
import org.apache.spark.sql.functions._
import repro.data.AdSchema
import repro.sampling.Sampler

/** PIM (Partwise Independence Model) baseline, after Agarwal et al.,
  * "Forecasting high-dimensional data" (SIGMOD 2010) [8] — the Bayesian
  * competitor the paper evaluates against.
  *
  * Offline, PIM keeps per-day marginals only: for every dimension `a` and
  * value `v`, the measure mass `S_t(a = v)`, plus the day total `S_t`.
  * Online, a conjunctive constraint `C = ⋀_d C_d` is estimated assuming the
  * dimensions partition the measure mass independently:
  *
  * `M̂_t(C) = S_t × Π_d ( S_t(C_d) / S_t )`, and 0 on a day with `S_t ≤ 0`.
  *
  * This is exact when the constrained dimensions are independent w.r.t. the
  * measure distribution and biased otherwise — our generator correlates
  * age with occupation/device/tags and with measure intensity precisely so
  * this bias shows up, as it does on the paper's real data (Table 1).
  *
  * The cube is two driver copies ([[SampleColumns]]) whose `est_<m>` is
  * `SUM(m)`, each made by one [[SampleColumns.collect]] of one Spark
  * aggregation over `full`: `GROUP BY t` for the day totals, and
  * `GROUP BY GROUPING SETS ((t, d₁), …, (t, dₖ))` over the [[AdSchema]]
  * dimensions `dᵢ` of `full` for the marginals. A marginal row of `dᵢ` holds
  * null in every other dimension, and null never matches, so `S_t(C_d)` is
  * the marginal copy's series under `C_d` alone; cube values are selected
  * with the predicate semantics of the sample layers and of Spark.
  *
  * @param full     the full relation; it must have a dimension of [[AdSchema]]
  * @param measures measures to support
  */
final class PIM(full: DataFrame, measures: Seq[String]) {

  private val dims = AdSchema.Dimensions.filter(full.columns.contains)
  require(dims.nonEmpty, "PIM needs a dimension of " + AdSchema.Dimensions.mkString(", "))

  private val sums = measures.map(m => sum(col(m)).cast("double") as Sampler.estCol(m))

  private def collect(cube: RelationalGroupedDataset): SampleColumns =
    SampleColumns.collect(cube.agg(sums.head, sums.tail: _*), measures)

  private val totals = collect(full.groupBy(AdSchema.TimeCol))

  private val marginals = collect(full.groupingSets(
    dims.map(d => Seq(col(AdSchema.TimeCol), col(d))), (AdSchema.TimeCol +: dims).map(col): _*))

  /** Estimated daily series for a task, PIM-style.
    *
    * @throws IllegalArgumentException if the task's measure or a dimension
    *         of its constraint is not in the cube
    */
  def estimateSeries(task: ForecastTask): Array[Double] = {
    if (!measures.contains(task.measure)) throw new IllegalArgumentException(
      s"PIM cube does not hold measure '${task.measure}'; it holds " + measures.mkString(", "))
    task.constraint.dims.filterNot(dims.contains).foreach { d =>
      throw new IllegalArgumentException(
        s"PIM cube does not cover dimension '$d'; it covers " + dims.sorted.mkString(", "))
    }
    val total = totals.series(task.copy(constraint = Constraint(Nil)))
    val masses = task.constraint.preds.groupBy(_.dim).toSeq.map { case (_, preds) =>
      marginals.series(task.copy(constraint = Constraint(preds)))
    }
    Array.tabulate(total.length) { i =>
      if (total(i) <= 0.0) 0.0
      else masses.foldLeft(total(i))((acc, mass) => acc * (mass(i) / total(i)))
    }
  }

  /** Rows the cube stores — PIM's space cost, reported in benches. */
  def cubeRows: Long = totals.rows + marginals.rows
}

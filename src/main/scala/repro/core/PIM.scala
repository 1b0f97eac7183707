package repro.core

import org.apache.spark.sql.DataFrame
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
  * The cube is a set of driver copies ([[SampleColumns]]) whose `est_<m>`
  * is `SUM(m)`: one of `GROUP BY t` for the day totals and one of
  * `GROUP BY t, d` per [[AdSchema]] dimension `d` of `full`, each made by one
  * [[SampleColumns.collect]]. `S_t(C_d)` is then the copy's series under `C_d`,
  * so cube values are selected with the predicate semantics of the sample
  * layers and of Spark.
  *
  * @param full     the full relation
  * @param measures measures to support
  */
final class PIM(full: DataFrame, measures: Seq[String]) {

  private def cube(keys: Seq[String]): SampleColumns = {
    val sums = measures.map(m => sum(col(m)).cast("double") as Sampler.estCol(m))
    SampleColumns.collect(full.groupBy((AdSchema.TimeCol +: keys).map(col): _*)
      .agg(sums.head, sums.tail: _*), measures)
  }

  private val totals = cube(Nil)

  private val marginals: Map[String, SampleColumns] =
    AdSchema.Dimensions.filter(full.columns.contains).map(d => d -> cube(Seq(d))).toMap

  /** Estimated daily series for a task, PIM-style.
    *
    * @throws IllegalArgumentException if the constraint names a dimension
    *         the cube does not cover
    */
  def estimateSeries(task: ForecastTask): Array[Double] = {
    val total = totals.series(task.copy(constraint = Constraint(Nil)))
    val masses = task.constraint.preds.groupBy(_.dim).toSeq.map { case (d, preds) =>
      marginals.getOrElse(d, throw new IllegalArgumentException(
        s"PIM cube does not cover dimension '$d'; it covers " +
          marginals.keys.toSeq.sorted.mkString(", ")))
        .series(task.copy(constraint = Constraint(preds)))
    }
    Array.tabulate(total.length) { i =>
      if (total(i) <= 0.0) 0.0
      else masses.foldLeft(total(i))((acc, mass) => acc * (mass(i) / total(i)))
    }
  }

  /** Rows the cube stores — PIM's space cost, reported in benches. */
  def cubeRows: Long = totals.rows + marginals.valuesIterator.map(_.rows).sum
}

package repro.exp

import org.apache.spark.sql.DataFrame
import repro.core.{Metrics, PipelineResult, SampleStore, TaskGen}
import repro.data.AdSchema
import repro.sampling.GSW

/** Exp-V / Figure 16: space needed by per-measure Optimal GSW samples to
  * match the aggregation accuracy of ONE arithmetic compressed GSW sample.
  *
  * Procedure (as in the paper): fix the compressed sample's size (a paper
  * rate), measure its aggregation error per measure; for each measure,
  * search the Opt-GSW sample size that achieves ≈ the same error
  * (error ∝ 1/√size, so two multiplicative refinement steps converge);
  * report total Opt-GSW rows vs compressed rows. The paper finds ≈1.8×.
  */
object Exp5 {

  final case class Row(paperRate: Double, cGswRows: Long, cGswMaxErr: Double,
                       optRowsPerMeasure: Map[String, Long], optTotalRows: Long,
                       spaceRatio: Double, cGswFcErr: Double, optFcErr: Double)

  final case class Result(rows: Seq[Row], rendered: String)

  def run(df: DataFrame, gen: TaskGen, cache: SeriesCache, cfg: BenchConfig): Result = {
    val te = cfg.trainDays - 1

    // Tasks: selectivity 5%, one batch per measure.
    val tasksOf = AdSchema.Measures.map { m =>
      m -> gen.tasks(0.05, cfg.tasksPerPoint, ts = 0, te = te,
        measures = Seq(m), forePeriod = BenchConfig.Horizon)
    }.toMap

    def answers(store: SampleStore, m: String): Seq[PipelineResult] =
      tasksOf(m).map(Harness.answer(store))
    def aggErr(rs: Seq[PipelineResult]): Double =
      Harness.mean(rs.map(r => Metrics.relAggError(r.series, cache.exact(r.task))))
    def fcErr(rs: Seq[PipelineResult]): Double =
      Harness.mean(rs.map(r => Metrics.relForecastError(r.forecast.point, cache.truth(r.task))))
    def spaceRows(store: SampleStore): Long = store.all.map(_.rows).sum

    val rows = Seq(0.001, 0.005, 0.01).map { paperRate =>
      val rate = cfg.scaledRate(paperRate)
      val cGsw = Harness.store(df,
        Seq(GSW.atRate(df, rate)(GSW.arithmetic(_, AdSchema.Measures))))
      val cAnswers = AdSchema.Measures.map(m => m -> answers(cGsw, m)).toMap
      val cErrs = cAnswers.view.mapValues(aggErr).toMap
      val cFc = Harness.mean(AdSchema.Measures.map(m => fcErr(cAnswers(m))))

      // Per measure: find the Opt-GSW rate matching the compressed error.
      val matched = AdSchema.Measures.map { m =>
        def optAt(r: Double) = Harness.store(df, Seq(GSW.atRate(df, r)(GSW.optimal(_, m))))
        var r = rate
        var opt = optAt(r)
        var rs = answers(opt, m)
        var err = aggErr(rs)
        var steps = 0
        while (steps < 2 && err > 0 && cErrs(m) > 0 &&
               math.abs(math.log(err / cErrs(m))) > 0.05) {
          opt.clear()
          // err ∝ 1/sqrt(size): rescale the rate by (err/target)².
          r = math.min(0.6, r * (err / cErrs(m)) * (err / cErrs(m)))
          opt = optAt(r)
          rs = answers(opt, m)
          err = aggErr(rs)
          steps += 1
        }
        val out = (m, spaceRows(opt), fcErr(rs))
        opt.clear()
        out
      }
      val optTotal = matched.map(_._2).sum
      val row = Row(paperRate,
        cGswRows = spaceRows(cGsw),
        cGswMaxErr = cErrs.values.max,
        optRowsPerMeasure = matched.map(t => t._1 -> t._2).toMap,
        optTotalRows = optTotal,
        spaceRatio = optTotal.toDouble / spaceRows(cGsw),
        cGswFcErr = cFc,
        optFcErr = Harness.mean(matched.map(_._3)))
      cGsw.clear()
      row
    }

    val rendered = Harness.renderTable(
      "Exp-V (Fig 16): space for equal accuracy — 4 Opt-GSW samples vs 1 arithmetic C-GSW",
      Seq("paperRate", "cGSW_rows", "cGSW_maxAggErr", "opt_rows_total",
        "space_ratio", "cGSW_fcErr", "opt_fcErr"),
      rows.map(r => Seq(f"${r.paperRate * 100}%.2f%%", r.cGswRows.toString,
        Harness.fmt(r.cGswMaxErr), r.optTotalRows.toString,
        Harness.fmt(r.spaceRatio), Harness.fmt(r.cGswFcErr),
        Harness.fmt(r.optFcErr))))
    Result(rows, rendered)
  }
}

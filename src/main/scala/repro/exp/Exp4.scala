package repro.exp

import org.apache.spark.sql.DataFrame
import repro.core.{Metrics, TaskGen}
import repro.data.AdSchema
import repro.sampling.{GSW, Priority, Uniform}

/** Exp-IV / Figures 10–15: aggregation error, ARIMA forecast error, ARIMA
  * 90 % interval width, and (on a subset) LSTM forecast error, for every
  * sampler × sampling rate × selectivity on measures Favorite and
  * Impression.
  *
  * Paper findings to reproduce:
  *  - Priority ≈ Opt-GSW, both best (at 4× the space);
  *  - Uniform worst (range-dependent error, heavy tails);
  *  - compressed GSW between the two, approaching Opt-GSW at larger rates;
  *  - larger selectivity ⇒ everyone improves;
  *  - forecast error and interval width track aggregation error.
  */
object Exp4 {

  final case class Row(measure: String, selectivity: Double, paperRate: Double,
                       sampler: String, aggErr: Double, fcErr: Double,
                       width: Double, lstmErr: Double)

  final case class Result(rows: Seq[Row], rendered: String)

  def run(df: DataFrame, gen: TaskGen, cache: SeriesCache, cfg: BenchConfig): Result = {
    val te = cfg.trainDays - 1
    val rowsPerDay = df.count() / cfg.days
    val paperRates = Seq(0.0002, 0.001, 0.005, 0.01)
    val selectivities = Seq(0.005, 0.05)
    val measures = Seq("favorite", "impression")

    val rows = Seq.newBuilder[Row]
    for (paperRate <- paperRates) {
      val rate = cfg.scaledRate(paperRate)
      val k = math.max(2, (rate * rowsPerDay).round.toInt) // priority sample rows per day
      val stores = Seq(
        "Uniform" -> Seq(Uniform(rate, AdSchema.Measures)),
        "Priority" -> measures.map(Priority(k, _)),
        "Opt-GSW" -> measures.map(m => GSW.atRate(df, rate)(GSW.optimal(_, m))),
        "C-GSW(arith)" -> Seq(GSW.atRate(df, rate)(GSW.arithmetic(_, AdSchema.Measures))),
        "C-GSW(geom)" -> Seq(GSW.atRate(df, rate)(GSW.geometric(_, AdSchema.Measures))))
        .map { case (name, samplers) => name -> Harness.store(df, samplers) }
      try for {
        meas <- measures
        sel <- selectivities
        (name, store) <- stores
      } {
        val tasks = gen.tasks(sel, cfg.tasksPerPoint, ts = 0, te = te,
          measures = Seq(meas), forePeriod = BenchConfig.Horizon)
        // LSTM only on the subset the paper plots in detail (Fig 12), to
        // keep bench runtime bounded.
        val withLstm = meas == "favorite" && sel == 0.05
        val evals = tasks.map { t =>
          val truth = cache.truth(t)
          val r = Harness.answer(store)(t)
          val lstmErr =
            if (withLstm) Metrics.relForecastError(
              Harness.answer(store)(t.copy(model = "lstm")).forecast.point, truth)
            else Double.NaN
          (Metrics.relAggError(r.series, cache.exact(t)),
            Metrics.relForecastError(r.forecast.point, truth),
            Metrics.relIntervalWidth(r.forecast, truth),
            lstmErr)
        }
        rows += Row(meas, sel, paperRate, name,
          aggErr = Harness.mean(evals.map(_._1)),
          fcErr = Harness.mean(evals.map(_._2)),
          width = Harness.mean(evals.map(_._3)),
          lstmErr = if (withLstm) Harness.mean(evals.map(_._4)) else Double.NaN)
      } finally stores.foreach(_._2.clear())
    }

    val out = rows.result()
    val rendered = Harness.renderTable(
      "Exp-IV (Figs 10-15): error vs sampler x rate x selectivity",
      Seq("measure", "sel", "paperRate", "sampler", "agg_err", "arima_err",
        "int_width", "lstm_err"),
      out.map(r => Seq(r.measure, f"${r.selectivity * 100}%.1f%%",
        f"${r.paperRate * 100}%.2f%%", r.sampler, Harness.fmt(r.aggErr),
        Harness.fmt(r.fcErr), Harness.fmt(r.width),
        if (r.lstmErr.isNaN) "-" else Harness.fmt(r.lstmErr))))
    Result(out, rendered)
  }
}

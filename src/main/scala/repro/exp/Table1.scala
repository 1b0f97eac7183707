package repro.exp

import org.apache.spark.sql.DataFrame
import repro.core.{FlashP, ForecastTask, Metrics, PIM, PipelineResult, TaskGen}
import repro.data.AdSchema
import repro.sampling.{GSW, Uniform}

/** Exp-I / Table 1: average ARIMA forecast error per measure for
  * Full / PIM / Uniform / Opt-GSW / Arithmetic-compressed-GSW at the
  * paper's 0.1 % sampling rate (scaled per [[BenchConfig.rateScale]]),
  * over random tasks with selectivity 0.5 %–10 %.
  */
object Table1 {

  /** One table row: mean relative forecast error per method for a measure. */
  final case class Row(measure: String, full: Double, pim: Double,
                       uniform: Double, optGsw: Double, cGsw: Double)

  final case class Result(rows: Seq[Row], rendered: String)

  def run(df: DataFrame, gen: TaskGen, cache: SeriesCache, cfg: BenchConfig): Result = {
    val rate = cfg.equivRate(0.001) // paper 0.1% of 15M/day, by equal sample rows
    val te = cfg.trainDays - 1

    // Paper: 20 random tasks, selectivity 0.5%..10%, measures mixed.
    // Measures are round-robined GLOBALLY across the selectivity bands so
    // every measure gets tasks even at small BENCH_TASKS.
    val tasks: Seq[ForecastTask] =
      Seq(0.005, 0.02, 0.05, 0.10).flatMap { sel =>
        gen.tasks(sel, cfg.tasksPerPoint, ts = 0, te = te, forePeriod = BenchConfig.Horizon)
      }.zipWithIndex.map { case (t, i) =>
        t.copy(measure = AdSchema.Measures(i % AdSchema.Measures.size))
      }

    // Full and PIM answer from the relation and its cube; each sampling
    // method from its own store of layers.
    val pim = new PIM(df, AdSchema.Measures)
    val stores = Seq(
      "Uniform" -> Seq(Uniform(rate, AdSchema.Measures)),
      "Opt-GSW" -> AdSchema.Measures.map(m => GSW.atRate(df, rate)(GSW.optimal(_, m))),
      "C-GSW" -> Seq(GSW.atRate(df, rate)(GSW.arithmetic(_, AdSchema.Measures))))
      .map { case (name, samplers) => name -> Harness.store(df, samplers) }
    val methods = Seq[(String, ForecastTask => PipelineResult)](
      ("Full", FlashP.runOnFull(_, df)), ("PIM", FlashP.runOnPim(_, pim))) ++
      stores.map { case (name, store) => (name, Harness.answer(store) _) }

    // errs((method, measure)) = forecast errors across that measure's tasks
    val errs = try (for (task <- tasks; (name, answer) <- methods) yield
      (name, task.measure) ->
        Metrics.relForecastError(answer(task).forecast.point, cache.truth(task)))
      .groupMap(_._1)(_._2)
    finally stores.foreach(_._2.clear())

    def mean(method: String, meas: String): Double =
      errs.get((method, meas)).fold(Double.NaN)(Harness.mean)
    val rows = AdSchema.Measures.map { meas =>
      Row(meas, full = mean("Full", meas), pim = mean("PIM", meas),
        uniform = mean("Uniform", meas), optGsw = mean("Opt-GSW", meas),
        cGsw = mean("C-GSW", meas))
    }

    val rendered = Harness.renderTable(
      f"Table 1: mean relative forecast error (ARIMA), paper rate 0.1%% -> ours ${rate * 100}%.2f%%, " +
        s"${tasks.size} tasks, selectivity 0.5%-10%",
      Seq("measure", "Full", "PIM", "Uniform", "Opt-GSW", "C-GSW"),
      rows.map(r => Seq(r.measure, Harness.fmt(r.full), Harness.fmt(r.pim),
        Harness.fmt(r.uniform), Harness.fmt(r.optGsw), Harness.fmt(r.cGsw))))
    Result(rows, rendered)
  }
}

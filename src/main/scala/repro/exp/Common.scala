package repro.exp

import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.storage.StorageLevel
import repro.SynthData
import repro.core.{FlashP, ForecastTask, PipelineResult, SampleStore}
import repro.sampling.Sampler

/** Shared scaffolding for the evaluation-section experiments (§6).
  *
  * Scale note: the paper runs on ~15 M rows/day. We run at
  * `BenchConfig.sf` of that (default 0.002 ⇒ 30 K rows/day), and scale the
  * SAMPLING RATES up by `rateScale` (default 50×) so that the statistically
  * relevant quantity — in-constraint sample rows per day — matches the
  * paper's regime (paper: 0.1 % of 15 M = 15 K sample rows/day; ours: 5 %
  * of 30 K = 1.5 K/day, with the same ordering behaviour and error shapes).
  * Every bench table prints both the paper-equivalent rate and ours.
  */
final case class BenchConfig(
    sf: Double = sys.env.get("BENCH_SF").map(_.toDouble).getOrElse(0.002),
    trainDays: Int = sys.env.get("BENCH_TRAIN_DAYS").map(_.toInt).getOrElse(150),
    tasksPerPoint: Int = sys.env.get("BENCH_TASKS").map(_.toInt).getOrElse(4),
    rateScale: Double = sys.env.get("BENCH_RATE_SCALE").map(_.toDouble).getOrElse(50.0)) {

  /** Generated days: training window + forecast horizon + slack. */
  def days: Int = trainDays + BenchConfig.Horizon + 1

  /** Translate a paper sampling rate into our scaled rate — used by the
    * rate SWEEPS (Exp-IV style), where what matters is a spread of sample
    * sizes from noisy to accurate.
    */
  def scaledRate(paperRate: Double): Double = math.min(0.5, paperRate * rateScale)

  /** Equal-sample-rows mapping — used by single-rate experiments (Table 1):
    * the estimator quality is governed by absolute sample rows per day, so
    * the paper's rate on 15 M rows/day maps to `paperRate / sf` on our
    * 15 M × sf rows/day (capped at 50 %).
    */
  def equivRate(paperRate: Double): Double = math.min(0.5, paperRate / sf)
}

object BenchConfig {
  val Horizon = 7 // days every experiment forecasts
  val Seed = 7L // of the generated bench relation
}

object Harness {

  /** Generate + cache the bench relation. */
  def data(spark: SparkSession, cfg: BenchConfig): DataFrame = {
    val df = SynthData.adTraffic(spark, cfg.sf, cfg.days, BenchConfig.Seed)
      .persist(StorageLevel.MEMORY_ONLY)
    df.count()
    df
  }

  /** One method's sample layers: each sampler's layer over `df`, registered
    * under the sampler's name. Its space cost is `store.all.map(_.rows).sum`.
    */
  def store(df: DataFrame, samplers: Seq[Sampler]): SampleStore = {
    val store = new SampleStore
    samplers.foreach(s => store.add(s.name, s, df))
    store
  }

  /** Answer `task` from the layer of `store` that serves its measure. */
  def answer(store: SampleStore)(task: ForecastTask): PipelineResult =
    FlashP.runOnSample(task, store.serving(task.measure))

  /** Render a fixed-width table (bench suites print these rows so their
    * output can be diffed against EXPERIMENTS.md).
    */
  def renderTable(title: String, header: Seq[String], rows: Seq[Seq[String]]): String = {
    val all = header +: rows
    val widths = header.indices.map(i => all.map(_(i).length).max)
    def line(cells: Seq[String]): String =
      cells.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("| ", " | ", " |")
    val sep = widths.map("-" * _).mkString("|-", "-|-", "-|")
    (s"== $title ==" +: line(header) +: sep +: rows.map(line)).mkString("\n")
  }

  def fmt(v: Double): String = f"$v%.3f"

  /** The arithmetic mean of `xs`. */
  def mean(xs: Seq[Double]): Double = xs.sum / xs.size
}

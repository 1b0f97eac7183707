package repro.exp

import java.nio.file.{Files, Path}
import org.apache.spark.sql.DataFrame
import repro.core.{FlashP, ForecastTask, PipelineResult, SampleStore, TaskGen}
import repro.sampling.GSW

/** Exp-II / Figure 8: end-to-end response time, split into the aggregation
  * portion and the forecasting portion, for the full scan vs sample layers
  * of increasing size — the "sampling buys interactivity" claim.
  *
  * Every row goes through the path the product serves: `FlashP.runOnFull`
  * for the full scan, and `SampleStore.add` + `FlashP.runOnSample` for the
  * sample layers, which answer from their driver-resident copy.
  */
object Exp2 {

  final case class Row(config: String, sampleRows: Long, aggMs: Double,
                       arimaMs: Double, lstmMs: Double)

  final case class Result(rows: Seq[Row], rendered: String)

  def run(df: DataFrame, gen: TaskGen, cfg: BenchConfig): Result = {
    val task = gen.tasks(0.005, 1, ts = 0, te = cfg.trainDays - 1,
      measures = Seq("impression"), forePeriod = BenchConfig.Horizon).head

    // The aggregation time is the median of 9 ARIMA answers taken after 2 s
    // of untimed ones. The warm-up lets the JIT compile a sample layer's
    // answer path, so the time does not depend on what ran before in the
    // JVM. The forecast times are the best of those 9 and of 3 LSTM answers.
    def timed(label: String, sampleRows: Long, answer: ForecastTask => PipelineResult): Row = {
      val warmEnd = System.nanoTime() + 2000000000L
      while (System.nanoTime() < warmEnd) answer(task)
      val arima = (1 to 9).map(_ => answer(task))
      val lstm = (1 to 3).map(_ => answer(task.copy(model = "lstm")))
      Row(label, sampleRows, arima.map(_.aggMillis).sorted.apply(4),
        arima.map(_.forecastMillis).min, lstm.map(_.forecastMillis).min)
    }

    // Mirror the deployment (§5): the FULL relation lives in the warehouse
    // (here: Parquet on local disk, MaxCompute's stand-in), while samples
    // are pulled into memory (Hologres's stand-in). Timing the full scan
    // from the in-memory cache would understate exactly the cost sampling
    // removes.
    val warehouse = Files.createTempDirectory("flashp-warehouse")
    val store = new SampleStore
    try {
      df.write.mode("overwrite").parquet(warehouse.toString)
      val fullOnDisk = df.sparkSession.read.parquet(warehouse.toString)
      val full = timed("Full(100%)", 0L, FlashP.runOnFull(_, fullOnDisk))
      val samples = Seq(0.0002, 0.001, 0.01).map { paperRate =>
        val r = cfg.scaledRate(paperRate)
        val label = f"sample(paper ${paperRate * 100}%.2f%% -> ${r * 100}%.1f%%)"
        val layer = store.add(label, GSW.atRate(df, r)(GSW.optimal(_, "impression")), df)
        timed(label, layer.rows, FlashP.runOnSample(_, layer))
      }
      val rows = full +: samples

      val rendered = Harness.renderTable(
        "Exp-II (Fig 8): end-to-end response time split (one task, selectivity ~0.5%)",
        Seq("layer", "sampleRows", "agg_ms", "arima_ms", "lstm_ms"),
        rows.map(r => Seq(r.config, r.sampleRows.toString, f"${r.aggMs}%.3f",
          f"${r.arimaMs}%.3f", f"${r.lstmMs}%.3f")))
      Result(rows, rendered)
    } finally {
      store.clear()
      deleteTree(warehouse)
    }
  }

  private def deleteTree(dir: Path): Unit = {
    val walk = Files.walk(dir)
    try walk.sorted(java.util.Comparator.reverseOrder[Path]()).forEach(p => Files.delete(p))
    finally walk.close()
  }
}

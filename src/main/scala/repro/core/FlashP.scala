package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.storage.StorageLevel
import repro.forecast.{ArimaForecaster, Forecast, Forecaster, LstmForecaster}
import repro.sampling.Sampler

/** A sample layer in the "OLAP engine", copied to the driver when constructed.
  *
  * @param layer   layer name, e.g. "0.1%"
  * @param sampler the sampler that produced it
  * @param df      sample relation with `est_*` columns, persisted; its first
  *                Spark reader (maintenance, the DuckDB oracle) fills the cache
  */
final class StoredSample(val layer: String, val sampler: Sampler, val df: DataFrame) {

  /** The layer copied to the driver as primitive columns by one Spark job
    * (shuffle-free over a cached `df`), our stand-in for the paper's Hologres
    * in-memory store; every query is answered from it.
    */
  val columns: SampleColumns = SampleColumns.collect(df, sampler.measures)

  /** Materialized sample row count (space cost). */
  def rows: Long = columns.rows

  /** The task's per-day estimates, from the driver copy. */
  def series(task: ForecastTask): Array[Double] = columns.series(task)
}

object StoredSample {

  /** The layer `df`, as a layer maintained with `IncrementalGSW.append` is served.
    *
    * @throws IllegalArgumentException if its driver copy does not hold `rows` rows
    */
  def apply(layer: String, sampler: Sampler, df: DataFrame, rows: Long): StoredSample = {
    val stored = new StoredSample(layer, sampler, df)
    require(stored.rows == rows,
      s"layer '$layer': given $rows rows, but its driver copy holds ${stored.rows}")
    stored
  }
}

/** Multi-layer sample store (§3.2, §5): FlashP keeps samples of several
  * sizes (increasing Δ) per relation and picks a layer per the caller's
  * latency/accuracy requirement. Adding a layer runs the offline sampler and
  * copies the draw to the driver in one Spark job, which holds it once —
  * after that, online queries run no Spark job and never touch the base
  * table.
  */
final class SampleStore {
  private var layers: Vector[StoredSample] = Vector.empty

  /** Draw a layer, copy it to the driver in one Spark job and register it,
    * replacing and unpersisting a layer of the same name. `df` is persisted
    * unfilled: its first Spark reader draws again from `full`, which equals
    * the copy only if `full` reads back the same rows in the same partitions
    * (a cached relation, unchanged files, a seeded `SynthData.adTraffic`).
    */
  def add(layer: String, sampler: Sampler, full: DataFrame): StoredSample = {
    val stored = new StoredSample(layer, sampler, sampler.sample(full))
    stored.df.persist(StorageLevel.MEMORY_ONLY)
    layers.indexWhere(_.layer == layer) match {
      case -1 => layers :+= stored
      case i =>
        layers(i).df.unpersist()
        layers = layers.updated(i, stored)
    }
    stored
  }

  def get(layer: String): StoredSample =
    layers.find(_.layer == layer).getOrElse(
      throw new NoSuchElementException(
        s"no sample layer '$layer'; have ${layers.map(_.layer).mkString(", ")}"))

  def all: Seq[StoredSample] = layers

  /** The one layer whose sampler carries `est_<measure>`.
    *
    * @throws IllegalArgumentException if no layer carries it, or several do
    */
  def serving(measure: String): StoredSample =
    layers.filter(_.sampler.measures.contains(measure)) match {
      case Seq(layer) => layer
      case found => throw new IllegalArgumentException(
        s"${found.size} sample layers serve '$measure', need exactly 1; layers: " +
          (if (layers.isEmpty) "none"
           else layers.map(l => s"${l.layer} [${l.sampler.measures.mkString(", ")}]")
             .mkString("; ")))
    }

  def clear(): Unit = { layers.foreach(_.df.unpersist()); layers = Vector.empty }
}

/** One processed forecasting task, with the phase timings the paper's
  * Exp-II reports (aggregation is the bottleneck; model fitting is cheap
  * for ARIMA, heavier for LSTM). Timings are in nanoseconds; a driver-side
  * aggregation takes well under a millisecond.
  */
final case class PipelineResult(task: ForecastTask, series: Array[Double],
                                forecast: Forecast, aggNanos: Long,
                                forecastNanos: Long) {
  def aggMillis: Double = aggNanos / 1e6
  def forecastMillis: Double = forecastNanos / 1e6
}

/** End-to-end FlashP pipeline (§2.2, §5): estimate the training series from
  * a sample (or compute it exactly from the full table), then fit the
  * requested forecasting model and predict `FORE_PERIOD` points.
  */
object FlashP {

  /** Resolve the OPTION(MODEL=...) name to a forecaster. */
  def forecasterFor(model: String): Forecaster = model.toLowerCase match {
    case "arima" => ArimaForecaster()
    case "lstm"  => LstmForecaster()
    case other   => throw new IllegalArgumentException(
      s"unknown model '$other' — supported: arima, lstm")
  }

  /** Process a task against a stored sample layer. */
  def runOnSample(task: ForecastTask, sample: StoredSample): PipelineResult =
    run(task, sample.series(task))

  /** Process a task by scanning the full relation ("Full" in Table 1). */
  def runOnFull(task: ForecastTask, full: DataFrame): PipelineResult =
    run(task, Estimator.exactSeries(full, task))

  /** Process a task with PIM estimates (baseline [8]). */
  def runOnPim(task: ForecastTask, pim: PIM): PipelineResult =
    run(task, pim.estimateSeries(task))

  private def run(task: ForecastTask, seriesOf: => Array[Double]): PipelineResult = {
    val t0 = System.nanoTime()
    val series = seriesOf
    val t1 = System.nanoTime()
    val forecast = forecasterFor(task.model).fitForecast(series, task.forePeriod)
    val t2 = System.nanoTime()
    PipelineResult(task, series, forecast, aggNanos = t1 - t0, forecastNanos = t2 - t1)
  }
}

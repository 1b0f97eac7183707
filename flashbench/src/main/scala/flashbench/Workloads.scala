package flashbench

import java.nio.file.Path
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.col
import org.apache.spark.storage.StorageLevel
import repro.core._
import repro.data.AdSchema
import repro.forecast.{Arima, Forecast}
import repro.sampling.{GSW, IncrementalGSW, Sampler}
import scala.util.Random

/** What one op served: the parsed task, the series and the forecast. */
final case class OpOut(task: ForecastTask, series: Array[Double], forecast: Forecast)

/** Everything a workload shares with the run loop. */
final class Ctx(val spark: SparkSession, val full: DataFrame,
                val tracer: Option[Tracer], val workDir: Path) {
  def span[A](name: String)(body: => A): A = tracer.fold(body)(_.span(name)(body))

  /** Bytes of cached blocks held in memory right now. */
  def cachedBytes(): Long = spark.sparkContext.getRDDStorageInfo.map(_.memSize).sum
}

/** One benchmark workload: the statements it issues, the state it serves
  * from (built by `setup`, dropped by `release`), and one op.
  */
abstract class Workload(ctx: Ctx) {
  import Workload._

  /** Candidate constraints TaskGen draws; its selectivity pass costs about
    * 17 ms per candidate.
    */
  def taskPool: Int = 80

  /** Ops left out of the timings. Spark compiles code for every new
    * statement, and its compiler itself takes dozens of ops to warm up.
    */
  def warmupOps: Int = 24

  /** The timed phase ends on a multiple of this many ops. */
  def opsPerRound: Int = 1

  /** The error metrics cover the first this many ops, warm-up included, so
    * that they repeat exactly at a fixed seed whatever the speed.
    */
  def qualityOps: Int = 60

  /** Statement `i` as the task it must parse to; its text is `task.sql`. */
  def statements(gen: TaskGen, rng: Random): IndexedSeq[ForecastTask]

  /** Build the served state; returns the seconds spent on sample layers. */
  def setup(): Map[String, Double]

  def release(): Unit

  /** Op `i` through the product's entry points. */
  def op(i: Int, text: String): OpOut

  /** Op `i` split into one span per layer call, in the order `FlashP.run*`
    * makes them.
    */
  def tracedOp(tr: Tracer, i: Int, text: String): OpOut

  /** DuckDB checks of the served state for a finished op. */
  def oracleProblems(out: OpOut): Seq[String]

  /** Sample rows and cached bytes of the sample layers built by `setup`. */
  def layerRows: Long = 0L
  def layerBytes: Long = 0L

  /** Counts describing the served layer after the last op. */
  def finalCounts: Map[String, Double] = Map.empty

  protected def tracedSteps(tr: Tracer, text: String,
                            seriesOf: ForecastTask => Array[Double]): OpOut = {
    val task = tr.span("parse")(TaskParser.parse(text))
    tr.span("constraint")(task.constraint.column)
    val series = tr.span("estimator")(seriesOf(task))
    val fc = task.model.toLowerCase match {
      case "arima" =>
        val fit = tr.span("arima.fit")(Arima.autoFit(series))
        tr.span("arima.forecast")(fit.forecast(task.forePeriod, Level))
      case model =>
        tr.span("lstm")(FlashP.forecasterFor(model).fitForecast(series, task.forePeriod, Level))
    }
    OpOut(task, series, fc)
  }

  /** Oracle checks of days `[d0, d0 + OracleDays)` of an op: the exact
    * series against `SUM(m)` over the relation and, when `layer` is given,
    * the served series against `SUM(est_m)` over that layer.
    */
  protected def oracleDays(out: OpOut, d0: Int, layer: Option[DataFrame]): Seq[String] = {
    val t = out.task
    val d1 = d0 + OracleDays - 1
    Truth.oracleProblem(ctx.full, t.measure, t.constraint, d0, d1, d => exactOf(t)(d - t.ts)).toSeq ++
      layer.flatMap(df => Truth.oracleProblem(df, Sampler.estCol(t.measure), t.constraint,
        d0, d1, d => out.series(d - t.ts)))
  }

  private var exact: Map[(String, Constraint), Array[Double]] = Map.empty

  /** Exact per-day sums for days `[0, lastDay]` of every statement key in
    * `tasks`, from the benchmark's own batched pass.
    */
  def computeTruth(tasks: Seq[ForecastTask], lastDay: Int): Unit = {
    val keys = tasks.map(t => (t.measure, t.constraint)).distinct.toIndexedSeq
    val sums = Truth.dailySums(ctx.full, keys, 0, lastDay)
    exact = keys.zip(sums).toMap
  }

  /** Exact series of `task`'s window. */
  def exactOf(task: ForecastTask): Array[Double] =
    exact((task.measure, task.constraint)).slice(task.ts, task.te + 1)

  /** Exact values of the `forePeriod` days after `task`'s window. */
  def futureOf(task: ForecastTask): Array[Double] =
    exact((task.measure, task.constraint)).slice(task.te + 1, task.te + 1 + task.forePeriod)
}

object Workload {
  val Sf = 0.0005
  val TrainDays = 150
  val ForePeriod = 7
  /** Opt-GSW layers at 5 %: the paper's 0.1 % under the ×50 rate scale. */
  val LayerRate = 0.05
  val Level = 0.9
  /** Statement selectivities, as fractions of rows. */
  val MinSel = 0.005
  val MaxSel = 0.10
  /** Days the DuckDB oracle checks per checked statement. Loading rows
    * into it costs about 0.1 ms per row and column.
    */
  val OracleDays = 1
  /** Days landed per `daily_ingest` round. */
  val RoundDays = 3

  val Names: Seq[String] = Seq("interactive", "full_scan", "daily_ingest")

  /** Days of data a workload needs: training, every landed day, horizon. */
  def days(name: String): Int = name match {
    case "daily_ingest" => TrainDays + RoundDays + ForePeriod
    case _              => TrainDays + ForePeriod
  }

  def apply(name: String, ctx: Ctx): Workload = name match {
    case "interactive"  => new Interactive(ctx)
    case "full_scan"    => new FullScan(ctx)
    case "daily_ingest" => new DailyIngest(ctx)
  }

  /** The interactive statement stream: every TaskGen constraint with
    * selectivity in [MinSel, MaxSel], each asked once for each of the four
    * measures in a row (an analyst comparing measures on one slice); the
    * first statement of each slice asks for LSTM. No statement repeats.
    *
    * Slices come in a seeded golden-ratio order over their selectivity
    * ranks, so every prefix of the stream spans the selectivity range evenly
    * and runs with different seeds ask about similar mixes of slices.
    *
    * Spark generates and compiles code for a new slice and reuses it for the
    * next three statements, so every run compiles for the same share of its
    * statements, and those are the LSTM ones: the quarter of slow ops that
    * `latency_p90_ms` falls among.
    */
  def stream(gen: TaskGen, rng: Random): IndexedSeq[ForecastTask] = {
    val slices = gen.withSelectivity(MinSel, MaxSel).sortBy(gen.selectivity).toIndexedSeq
    val free = scala.collection.mutable.TreeSet(slices.indices: _*)
    val start = rng.nextDouble()
    val order = slices.indices.map { k =>
      val want = (((start + k * Golden) % 1.0) * slices.size).toInt
      val rank = free.minAfter(want).getOrElse(free.head)
      free -= rank
      rank
    }
    order.flatMap { rank =>
      rng.shuffle(AdSchema.Measures).zipWithIndex.map { case (m, j) =>
        ForecastTask(m, "ad", slices(rank), 0, TrainDays - 1,
          if (j == 0) "lstm" else "arima", ForePeriod)
      }
    }
  }

  private val Golden = (math.sqrt(5) - 1) / 2

  def timed[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = body
    (a, (System.nanoTime() - t0) / 1e9)
  }
}

/** The serving path: statements answered from one cached Opt-GSW layer per
  * measure.
  */
final class Interactive(ctx: Ctx) extends Workload(ctx) {
  import Workload._
  private var store = new SampleStore
  private var bytes = 0L

  def statements(gen: TaskGen, rng: Random): IndexedSeq[ForecastTask] = stream(gen, rng)

  def setup(): Map[String, Double] = {
    store = new SampleStore
    bytes = 0L
    val (_, s) = timed {
      AdSchema.Measures.foreach { m =>
        val delta = ctx.span("gsw.delta")(GSW.deltaForRate(ctx.full, col(m), LayerRate))
        val before = ctx.cachedBytes()
        ctx.span("store.add")(store.add(m, GSW.optimal(delta, m), ctx.full))
        bytes += ctx.cachedBytes() - before
      }
    }
    Map("layers" -> s)
  }

  def release(): Unit = store.all.foreach(_.df.unpersist(blocking = true))

  def op(i: Int, text: String): OpOut = {
    val task = TaskParser.parse(text)
    val r = FlashP.runOnSample(task, store.get(task.measure))
    OpOut(r.task, r.series, r.forecast)
  }

  def tracedOp(tr: Tracer, i: Int, text: String): OpOut =
    tracedSteps(tr, text, task => Estimator.estimateSeries(store.get(task.measure).df, task))

  def oracleProblems(out: OpOut): Seq[String] =
    oracleDays(out, out.task.ts, Some(store.get(out.task.measure).df))

  override def layerRows: Long = store.all.map(_.rows).sum
  override def layerBytes: Long = bytes
}

/** Fig 8's "Full" baseline: the same statements answered by scanning a
  * Parquet warehouse written at set-up.
  */
final class FullScan(ctx: Ctx) extends Workload(ctx) {
  import Workload._
  private var reps = 0
  private var dir: Path = _
  private var warehouse: DataFrame = _

  def statements(gen: TaskGen, rng: Random): IndexedSeq[ForecastTask] = stream(gen, rng)

  def setup(): Map[String, Double] = {
    dir = ctx.workDir.resolve(s"warehouse-$reps")
    reps += 1
    ctx.span("warehouse.write")(ctx.full.write.parquet(dir.toString))
    warehouse = ctx.spark.read.parquet(dir.toString)
    Map.empty
  }

  def release(): Unit = Main.deleteTree(dir)

  def op(i: Int, text: String): OpOut = {
    val r = FlashP.runOnFull(TaskParser.parse(text), warehouse)
    OpOut(r.task, r.series, r.forecast)
  }

  def tracedOp(tr: Tracer, i: Int, text: String): OpOut =
    tracedSteps(tr, text, task => Estimator.exactSeries(warehouse, task))

  /** The served series equals the exact one (checked per op), so checking
    * the exact series covers it.
    */
  def oracleProblems(out: OpOut): Seq[String] = oracleDays(out, out.task.ts, None)
}

/** The write path: each op lands one day into an Opt-GSW impression layer
  * with `IncrementalGSW.append`, then re-answers one standing statement
  * whose window ends on the new day. Ops come in rounds of `RoundDays`
  * days: each round starts again from the layer built at set-up and has
  * its own standing constraint, so every run sees the same lineage depths
  * and no statement repeats.
  */
final class DailyIngest(ctx: Ctx) extends Workload(ctx) {
  import Workload._
  private val Measure = "impression"
  private var dayWeight: Array[Double] = _
  private var batches: IndexedSeq[DataFrame] = IndexedSeq.empty
  private var initial: StoredSample = _
  private var initialDelta = 0.0
  private var initialWeight = 0.0
  private var layer: StoredSample = _
  private var delta = 0.0
  private var covered = 0.0
  private var bytes = 0L

  override def taskPool: Int = 48
  override def warmupOps: Int = 4 * RoundDays
  override def opsPerRound: Int = RoundDays
  override def qualityOps: Int = 8 * RoundDays

  /** Round `j` uses the `j`-th constraint closest to 5 % selectivity, so
    * every seed asks about similar slices.
    */
  def statements(gen: TaskGen, rng: Random): IndexedSeq[ForecastTask] = {
    val cs = gen.withSelectivity(MinSel, MaxSel)
      .sortBy(c => math.abs(math.log(gen.selectivity(c) / 0.05)))
    for (c <- cs.toIndexedSeq; k <- 0 until RoundDays) yield {
      val d = TrainDays + k
      ForecastTask(Measure, "ad", c, d - TrainDays + 1, d, "arima", ForePeriod)
    }
  }

  def setup(): Map[String, Double] = {
    val (_, layerS) = timed {
      dayWeight = Array.fill(Workload.days("daily_ingest"))(0.0)
      ctx.full.groupBy(col("t")).sum(Measure).collect()
        .foreach(r => dayWeight(r.getInt(0)) = r.getLong(1).toDouble)
      val initialRows = ctx.full.filter(col("t") < TrainDays)
      initialDelta = ctx.span("gsw.delta")(GSW.deltaForRate(initialRows, col(Measure), LayerRate))
      val before = ctx.cachedBytes()
      initial = ctx.span("store.add")(
        new SampleStore().add(Measure, GSW.optimal(initialDelta, Measure), initialRows))
      bytes = ctx.cachedBytes() - before
      initialWeight = dayWeight.take(TrainDays).sum
      layer = initial
    }
    // A landed day arrives as one partition, like one file.
    batches = (0 until RoundDays).map(k => ctx.full.filter(col("t") === TrainDays + k)
      .coalesce(1).persist(StorageLevel.MEMORY_ONLY))
    batches.reduce(_ union _).count()
    Map("layers" -> layerS)
  }

  def release(): Unit = {
    dropLayer()
    initial.df.unpersist(blocking = true)
    batches.foreach(_.unpersist(blocking = true))
  }

  private def dropLayer(): Unit = if (layer ne initial) layer.df.unpersist()

  /** Land day `TrainDays + k` of op `i`'s round at a Δ′ that keeps the
    * expected layer size constant (E|S| ≈ W/Δ when w ≪ Δ), persist and
    * materialise it like `SampleStore.add`, and release the old layer.
    */
  private def land(i: Int): StoredSample = {
    val k = i % RoundDays
    if (k == 0) {
      dropLayer()
      layer = initial
      delta = initialDelta
      covered = initialWeight
    }
    val d = TrainDays + k
    val newDelta = delta * (covered + dayWeight(d)) / covered
    val sampler = GSW.optimal(newDelta, Measure)
    val next = IncrementalGSW.append(layer.df, newDelta, batches(k), sampler)
      .persist(StorageLevel.MEMORY_ONLY)
    val n = next.count()
    dropLayer()
    layer = StoredSample(Measure, sampler, next, n)
    delta = newDelta
    covered += dayWeight(d)
    layer
  }

  def op(i: Int, text: String): OpOut = {
    val stored = land(i)
    val r = FlashP.runOnSample(TaskParser.parse(text), stored)
    OpOut(r.task, r.series, r.forecast)
  }

  def tracedOp(tr: Tracer, i: Int, text: String): OpOut = {
    val stored = tr.span("incremental.append")(land(i))
    tracedSteps(tr, text, task => Estimator.estimateSeries(stored.df, task))
  }

  /** Checks the newest days, which the last landed layer served. */
  def oracleProblems(out: OpOut): Seq[String] =
    oracleDays(out, out.task.te - OracleDays + 1, Some(layer.df))

  override def layerRows: Long = initial.rows
  override def layerBytes: Long = bytes

  override def finalCounts: Map[String, Double] = Map(
    "incremental.sample_rows" -> layer.rows.toDouble,
    "incremental.plan_nodes" -> layer.df.queryExecution.logical.collect { case p => p }.size.toDouble)
}

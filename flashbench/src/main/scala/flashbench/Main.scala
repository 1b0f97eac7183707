package flashbench

import java.nio.file.{Files, Path, Paths}
import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.functions.col
import org.apache.spark.storage.StorageLevel
import repro.SynthData
import repro.core.{ForecastTask, Metrics, TaskGen}
import scala.collection.mutable
import scala.util.{Failure, Random, Success, Try}

/** `flashbench.Main --workload W --seed N --seconds S --trace 0|1`
  *
  * Runs one workload closed loop with one client for `S` seconds and prints,
  * as the last stdout line, one JSON object with `correct`, `attempted`,
  * `failed` and `metrics` (end-to-end metrics untraced, per-layer metrics
  * traced). Exits 1 if any output or oracle check failed, 2 on bad usage.
  * Run from the root of a checkout; scratch files go to `.bench_build/`.
  */
object Main {
  import Workload._

  /** Spark's thread count: fixed, because `rand(seed)` draws depend on the
    * partition count, which follows it.
    */
  val Threads = 4
  /** Set-up runs this many times per run; `setup_s` is their median. */
  val SetupReps = 3
  /** TaskGen measures selectivity on the first days only: the dimension
    * mix is the same every day, and a shorter scan keeps input generation
    * short.
    */
  val TaskGenDays = 14

  final case class Args(workload: String, seed: Long, seconds: Int, trace: Boolean)

  def parseArgs(argv: Seq[String]): Either[String, Args] = {
    val kv = argv.grouped(2).collect { case Seq(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    val usage = "usage: --workload " + Names.mkString("|") + " --seed N --seconds S --trace 0|1"
    for {
      w <- kv.get("workload").filter(Names.contains).toRight(usage)
      seed <- kv.get("seed").flatMap(_.toLongOption).toRight(usage)
      secs <- kv.get("seconds").flatMap(_.toIntOption).filter(_ > 0).toRight(usage)
      trace <- kv.get("trace").collect { case "0" => false; case "1" => true }.toRight(usage)
      _ <- Either.cond(argv.size == 8, (), usage)
    } yield Args(w, seed, secs, trace)
  }

  def main(argv: Array[String]): Unit = {
    val args = parseArgs(argv.toSeq) match {
      case Right(a) => a
      case Left(msg) => System.err.println(msg); sys.exit(2)
    }
    val build = Paths.get(".bench_build").toAbsolutePath
    val workDir = build.resolve(s"run-${ProcessHandle.current.pid}")
    Files.createDirectories(workDir)
    val spark = SparkSession.builder
      .master(s"local[$Threads]")
      .appName("flashbench")
      // As in the product's JobEnv; AQE stays at its default.
      .config("spark.sql.shuffle.partitions", "64")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", build.resolve("spark-local").toString)
      .config("spark.sql.warehouse.dir", workDir.resolve("spark-warehouse").toString)
      .getOrCreate()
    val code = try run(spark, args, workDir) finally {
      spark.stop()
      deleteTree(workDir)
    }
    phase("stopped")
    sys.exit(code)
  }

  final case class OpRecord(i: Int, traced: Boolean, nanos: Long,
                            out: Option[OpOut], problem: Option[String])

  private val born = System.nanoTime()
  def phase(name: String): Unit =
    System.err.println(f"flashbench: ${(System.nanoTime() - born) / 1e9}%7.2f s  $name")

  def run(spark: SparkSession, args: Args, workDir: Path): Int = {
    phase("session ready")
    val tracer = if (args.trace) Some(new Tracer(spark)) else None
    // The workload seed drives the data and the statements. Generator
    // streams use seed*100 .. seed*100+23; the samplers keep their own seed.
    val dataSeed = args.seed * 100
    val taskSeed = args.seed * 100 + 50

    val (full, dataS) = timed {
      val df = SynthData.adTraffic(spark, Sf, days(args.workload), dataSeed)
        .persist(StorageLevel.MEMORY_ONLY)
      df.count()
      df
    }
    val ctx = new Ctx(spark, full, tracer, workDir)
    val w = Workload(args.workload, ctx)
    val (tasks, taskgenS) = timed {
      w.statements(new TaskGen(full.filter(col("t") < TaskGenDays), taskSeed, w.taskPool),
        new Random(taskSeed))
    }
    val texts = tasks.map(_.sql)
    phase("data and statements ready")

    val setups = (0 until SetupReps).map { r =>
      if (r > 0) w.release()
      timed(w.setup())
    }
    val setupS = median(setups.map(_._2))
    def part(name: String) = median(setups.map(_._1.getOrElse(name, 0.0)))
    System.gc()
    val rt = Runtime.getRuntime
    val heapMb = (rt.totalMemory - rt.freeMemory) / 1048576.0

    def runOp(i: Int, traced: Boolean): OpRecord = {
      val t0 = System.nanoTime()
      val out = Try(tracer.filter(_ => traced) match {
        case Some(tr) => tr.op(i)(w.tracedOp(tr, i, texts(i)))
        case None => w.op(i, texts(i))
      })
      val nanos = System.nanoTime() - t0
      tracer.foreach(_.settle())
      val problem = out match {
        case Failure(e) => Some(s"threw $e")
        case Success(o) if o.task != tasks(i) => Some(s"parsed ${o.task}, want ${tasks(i)}")
        case Success(o) => Truth.outputProblem(o.task, o.series, o.forecast)
      }
      OpRecord(i, traced, nanos, out.toOption, problem)
    }

    phase("set-up done")
    val warm = (0 until w.warmupOps).map(runOp(_, traced = false))
    phase("warm-up done")
    val (gcMs0, gcN0) = Tracer.gcTotals()
    val timedOps = mutable.ArrayBuffer.empty[OpRecord]
    val loopStart = System.nanoTime()
    val deadline = loopStart + args.seconds * 1000000000L
    // Traced runs alternate blocks of ops between untraced and traced, for
    // the tracing overhead; a block is a round, or 4 ops (one LSTM each).
    val block = math.max(4, w.opsPerRound)
    var i = w.warmupOps
    while (i < texts.size &&
        (System.nanoTime() < deadline || (i - w.warmupOps) % w.opsPerRound != 0)) {
      timedOps += runOp(i, traced = args.trace && ((i - w.warmupOps) / block) % 2 == 1)
      i += 1
    }
    val loopS = (System.nanoTime() - loopStart) / 1e9
    val (gcMs1, gcN1) = Tracer.gcTotals()
    require(timedOps.nonEmpty, "no op ran in the timed phase")

    phase("timed phase done")
    // Reference answers and checks, outside the timed phase.
    val ops = (warm ++ timedOps).toIndexedSeq
    // DuckDB checks on a fixed subset: the first timed statement, or for
    // daily_ingest the last op, whose layer is the one still held.
    val oracleOps =
      if (args.workload == "daily_ingest") timedOps.takeRight(1) else timedOps.take(1)
    val answered = (ops.take(w.qualityOps) ++ oracleOps).flatMap(_.out.map(_.task))
    val (_, truthS) = timed(w.computeTruth(answered, days(args.workload) - 1))
    val problems = mutable.ArrayBuffer.empty[String]
    val aggErr = mutable.ArrayBuffer.empty[Double]
    val fcErr = mutable.ArrayBuffer.empty[Double]
    var failed = 0
    ops.foreach { r =>
      val p = r.problem.orElse(r.out.filter(_ => r.i < w.qualityOps).flatMap { o =>
        val exact = w.exactOf(o.task)
        if (args.workload == "full_scan" &&
            !exact.indices.forall(d => math.abs(exact(d) - o.series(d)) <= 1e-9 * (1 + exact(d))))
          Some("full scan series differs from the exact series")
        else {
          aggErr += Metrics.relAggError(o.series, exact)
          fcErr += Metrics.relForecastError(o.forecast.point, w.futureOf(o.task))
          None
        }
      })
      p.foreach { msg => failed += 1; problems += s"op ${r.i} (${texts(r.i)}): $msg" }
    }
    oracleOps.flatMap(_.out).foreach(o => problems ++= w.oracleProblems(o).map(m => s"oracle: $m"))

    phase("checks done")
    val timedNanos = timedOps.map(_.nanos.toDouble).toSeq
    val metrics: Seq[(String, Double, String)] = tracer match {
      case None => Seq(
        ("latency_p50_ms", quantile(timedNanos, 0.5) / 1e6, "ms"),
        ("latency_p90_ms", quantile(timedNanos, 0.9) / 1e6, "ms"),
        ("throughput_ops_s", timedOps.size / loopS, "1/s"),
        ("setup_s", setupS, "s"),
        ("heap_mb", heapMb, "MB"),
        ("agg_accuracy", 1.0 - mean(aggErr), "frac"),
        ("ok_rate", 1.0 - failed.toDouble / ops.size, "frac"))
      case Some(tr) =>
        val (layerMetrics, traceProblems) = Layers.metrics(tr, timedOps.toSeq)
        problems ++= traceProblems
        layerMetrics ++ Seq(
          // Every statement of a run forecasts the same days, so this moves
          // with the seed's data more than an end-to-end bound allows.
          ("fc_rel_err", mean(fcErr), "frac"),
          ("store.sample_rows", w.layerRows.toDouble, "count"),
          ("store.cached_mb", w.layerBytes / 1048576.0, "MB"),
          ("incremental.sample_rows", w.finalCounts.getOrElse("incremental.sample_rows", 0.0), "count"),
          ("incremental.plan_nodes", w.finalCounts.getOrElse("incremental.plan_nodes", 0.0), "count"),
          ("jvm.gc_ms", (gcMs1 - gcMs0).toDouble, "ms"),
          ("jvm.gc_count", (gcN1 - gcN0).toDouble, "count"),
          ("setup.data_s", dataS, "s"),
          ("setup.taskgen_s", taskgenS, "s"),
          ("setup.truth_s", truthS, "s"),
          ("setup.layers_s", part("layers"), "s"),
          ("ops.timed", timedOps.size.toDouble, "count"),
          ("ops.warmup_dropped", w.warmupOps.toDouble, "count"))
    }
    metrics.filterNot(m => java.lang.Double.isFinite(m._2))
      .foreach(m => problems += s"metric ${m._1} is not finite")
    tracer.foreach { tr =>
      tr.close()
      Layers.writeSpans(tr.spans.toSeq, Paths.get(".bench_build", "trace",
        s"${args.workload}-seed${args.seed}.jsonl"))
    }

    timedOps.foreach(r => System.err.println(f"flashbench: op ${r.i}%4d ${r.nanos / 1e6}%9.2f ms " +
      r.out.fold("failed")(o => s"${o.task.model} ${o.task.measure}")))
    problems.foreach(p => System.err.println(s"CHECK FAILED: $p"))
    val correct = problems.isEmpty
    println(s"# flashbench workload=${args.workload} seed=${args.seed} trace=${if (args.trace) 1 else 0} " +
      s"spark=${spark.version} master=${spark.sparkContext.master} " +
      s"heap_max_mb=${rt.maxMemory / 1048576} nproc=${rt.availableProcessors} sf=$Sf")
    println(s"# ops: ${w.warmupOps} warm-up dropped, ${timedOps.size} timed in ${"%.2f".format(loopS)} s, " +
      s"${ops.size} attempted, $failed failed; statements available ${texts.size}")
    metrics.foreach { case (n, v, u) => println(f"# $n%-28s $v%.6f $u") }
    val json = metrics.map { case (n, v, u) => s""""$n": {"value": ${num(v)}, "unit": "$u"}""" }
    println(s"""{"correct": $correct, "attempted": ${ops.size}, "failed": $failed, """ +
      s""""metrics": {${json.mkString(", ")}}}""")
    if (correct) 0 else 1
  }

  def num(v: Double): String =
    if (java.lang.Double.isFinite(v)) java.math.BigDecimal.valueOf(v).toPlainString else "0"

  def mean(xs: Iterable[Double]): Double = if (xs.isEmpty) 0.0 else xs.sum / xs.size

  def median(xs: Seq[Double]): Double = quantile(xs, 0.5)

  /** Linear-interpolation quantile (numpy's default); 0 for no values. */
  def quantile(xs: Seq[Double], q: Double): Double =
    if (xs.isEmpty) 0.0
    else {
      val s = xs.sorted
      val pos = q * (s.size - 1)
      val lo = pos.toInt
      val hi = math.min(lo + 1, s.size - 1)
      s(lo) + (s(hi) - s(lo)) * (pos - lo)
    }

  def deleteTree(p: Path): Unit =
    if (p != null && Files.exists(p)) {
      val walk = Files.walk(p)
      try walk.sorted(java.util.Comparator.reverseOrder[Path]()).forEach(f => Files.delete(f))
      finally walk.close()
    }
}

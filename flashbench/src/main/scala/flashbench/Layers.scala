package flashbench

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Path}
import flashbench.Main.{OpRecord, median}

/** Per-layer metrics of a traced run. Times are self times; each metric is
  * a median per call, over the timed traced ops (or over set-up calls for
  * `gsw.*` and `store.*`). A layer the workload never calls reads 0.
  */
object Layers {

  def metrics(tr: Tracer, timedOps: Seq[OpRecord]): (Seq[(String, Double, String)], Seq[String]) = {
    val spans = tr.spans.toSeq
    val self = Tracer.selfNanos(spans)
    val traced = timedOps.filter(_.traced)
    val tracedOps = traced.map(_.i).toSet
    val opSpans = spans.filter(s => tracedOps.contains(s.op))
    val setupSpans = spans.filter(_.op < 0)
    def named(n: String) = opSpans.filter(_.name == n)
    def selfMs(n: String) = median(named(n).map(s => self(s.id) / 1e6))
    def ms(nanos: Long) = math.max(0L, nanos) / 1e6

    val est = named("estimator").map(s => s -> tr.sparkWork(s.id))
    def estMedian(f: SparkWork => Double) = median(est.map(e => f(e._2)))
    // Split at the first job start and the last job end seen by the listener.
    val ran = est.filter(_._2.jobs > 0)
    def estSplit(f: (Span, Long, Long) => Long) = median(ran.map { case (s, w) =>
      ms(f(s, tr.epochMsToNano(w.firstJobStartMs), tr.epochMsToNano(w.lastJobEndMs)))
    })

    val byOp = opSpans.groupBy(_.op)
    val arimaAlloc = byOp.values.toSeq.flatMap { ss =>
      val a = ss.filter(s => s.name == "arima.fit" || s.name == "arima.forecast")
      if (a.isEmpty) None else Some(a.map(_.allocBytes).sum / 1024.0)
    }
    val lstm = named("lstm")
    def setupMs(n: String) = median(setupSpans.filter(_.name == n).map(_.nanos / 1e6))

    val untracedP50 = median(timedOps.filterNot(_.traced).map(_.nanos.toDouble))
    val tracedP50 = median(traced.map(_.nanos.toDouble))

    // Each traced op's self times, op.self included, add up to its latency.
    val problems = traced.flatMap { r =>
      val sum = byOp.getOrElse(r.i, Nil).map(s => self(s.id)).sum
      if (math.abs(sum - r.nanos) > 0.01 * r.nanos)
        Some(f"trace: op ${r.i} self times sum to ${sum / 1e6}%.3f ms, latency ${r.nanos / 1e6}%.3f ms")
      else None
    }

    val m = Seq(
      ("parse.ms", selfMs("parse"), "ms"),
      ("constraint.ms", selfMs("constraint"), "ms"),
      ("estimator.ms", selfMs("estimator"), "ms"),
      ("estimator.plan_ms", estSplit((s, first, _) => first - s.start), "ms"),
      ("estimator.exec_ms", estSplit((_, first, last) => last - first), "ms"),
      ("estimator.collect_ms", estSplit((s, _, last) => s.end - last), "ms"),
      ("estimator.spark_jobs", estMedian(_.jobs), "count"),
      ("estimator.spark_stages", estMedian(_.stages), "count"),
      ("estimator.spark_tasks", estMedian(_.tasks), "count"),
      ("estimator.task_busy_ms", estMedian(_.taskBusyMs.toDouble), "ms"),
      ("estimator.sched_delay_ms", estMedian(_.schedDelayMs.toDouble), "ms"),
      ("estimator.rows_scanned", estMedian(_.rowsScanned.toDouble), "count"),
      ("estimator.rows_matched_frac", estMedian(w =>
        if (w.rowsScanned == 0) 0.0 else w.rowsMatched.toDouble / w.rowsScanned), "frac"),
      ("estimator.shuffle_bytes", estMedian(_.shuffleBytes.toDouble), "bytes"),
      ("arima.fit_ms", selfMs("arima.fit"), "ms"),
      ("arima.forecast_ms", selfMs("arima.forecast"), "ms"),
      ("arima.alloc_kb", median(arimaAlloc), "KB"),
      ("lstm.ms", selfMs("lstm"), "ms"),
      ("lstm.alloc_mb", median(lstm.map(_.allocBytes / 1048576.0)), "MB"),
      ("gsw.delta_ms", setupMs("gsw.delta"), "ms"),
      ("gsw.delta_spark_jobs", median(setupSpans.filter(_.name == "gsw.delta")
        .map(s => tr.sparkWork(s.id).jobs.toDouble)), "count"),
      ("store.add_ms", setupMs("store.add"), "ms"),
      ("incremental.append_ms", selfMs("incremental.append"), "ms"),
      ("op.self_ms", selfMs("op"), "ms"),
      ("trace.overhead_frac", if (untracedP50 > 0) tracedP50 / untracedP50 - 1 else 0.0, "frac"))
    (m, problems)
  }

  /** Write every span as one JSON object per line. */
  def writeSpans(spans: Seq[Span], file: Path): Unit = {
    Files.createDirectories(file.getParent)
    val lines = spans.map(s =>
      s"""{"op": ${s.op}, "id": ${s.id}, "parent": ${s.parent}, "name": "${s.name}", """ +
        s""""start_ns": ${s.start}, "end_ns": ${s.end}, "alloc_bytes": ${s.allocBytes}}""")
    Files.write(file, lines.mkString("", "\n", "\n").getBytes(StandardCharsets.UTF_8))
  }
}

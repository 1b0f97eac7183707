package repro.jobs

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.{FlashP, SampleStore, TaskGen, TaskParser}
import repro.exp._
import repro.sampling.GSW

/** Shared bootstrap for the spark-submit entrypoints: one local (or
  * cluster-provided) session and the bench-scale data. Scale is controlled
  * by the BENCH_* env vars understood by [[repro.exp.BenchConfig]].
  */
object JobEnv {
  def init(appName: String): (SparkSession, BenchConfig, DataFrame) = {
    val spark = SparkSession.builder
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(appName)
      .config("spark.sql.shuffle.partitions", "64")
      .getOrCreate()
    spark.sparkContext.setLogLevel("WARN")
    val cfg = BenchConfig()
    (spark, cfg, Harness.data(spark, cfg))
  }
}

/** Prints one paper artefact, e.g.
  * {{{
  * spark-submit --class repro.jobs.Run <jar> table1
  * }}}
  * `table1` is Table 1 (Exp-I), `exp2`–`exp5` are Figs 8, 9, 10–15 and 16,
  * `fig6` is Figure 6.
  */
object Run {
  private def withTruth(run: (DataFrame, TaskGen, SeriesCache, BenchConfig) => String) =
    (df: DataFrame, gen: TaskGen, cfg: BenchConfig) => run(df, gen, new SeriesCache(df), cfg)

  private val Experiments = Seq[(String, (DataFrame, TaskGen, BenchConfig) => String)](
    ("table1", withTruth(Table1.run(_, _, _, _).rendered)),
    ("exp2", Exp2.run(_, _, _).rendered),
    ("exp3", withTruth(Exp3.run(_, _, _, _).rendered)),
    ("exp4", withTruth(Exp4.run(_, _, _, _).rendered)),
    ("exp5", withTruth(Exp5.run(_, _, _, _).rendered)),
    ("fig6", withTruth(Fig6.run(_, _, _, _).rendered)))

  def main(args: Array[String]): Unit = {
    val (name, experiment) = args match {
      case Array(name) => Experiments.find(_._1 == name).getOrElse(usage())
      case _ => usage()
    }
    val (spark, cfg, df) = JobEnv.init(s"flashp-$name")
    println(experiment(df, new TaskGen(df), cfg))
    spark.stop()
  }

  private def usage(): Nothing = {
    Console.err.println(s"usage: Run <${Experiments.map(_._1).mkString("|")}>")
    sys.exit(2)
  }
}

/** Interactive one-off: run a single FORECAST statement end-to-end on a
  * fresh sample layer, e.g.
  * {{{
  * spark-submit --class repro.jobs.RunForecast <jar> \
  *   "FORECAST SUM(impression) FROM ad WHERE age <= 30 AND gender = 'F' USING (0, 149)"
  * }}}
  */
object RunForecast {
  def main(args: Array[String]): Unit = {
    require(args.nonEmpty, "usage: RunForecast '<FORECAST statement>' [samplingRate]")
    val (spark, _, df) = JobEnv.init("flashp-forecast")
    val task = TaskParser.parse(args(0))
    val rate = if (args.length > 1) args(1).toDouble else 0.05
    val store = new SampleStore
    val layer = store.add(f"$rate%.3f", GSW.atRate(df, rate)(GSW.optimal(_, task.measure)), df)
    val res = FlashP.runOnSample(task, layer)
    println(s"task: ${task.sql}")
    println(s"sample rows: ${layer.rows} (rate ≈ $rate)")
    println(f"agg: ${res.aggMillis}%.3f ms, forecast: ${res.forecastMillis}%.3f ms")
    println("forecast (point [lo, hi]):")
    res.forecast.point.indices.foreach { h =>
      println(f"  t+${h + 1}: ${res.forecast.point(h)}%.1f " +
        f"[${res.forecast.lo(h)}%.1f, ${res.forecast.hi(h)}%.1f]")
    }
    store.clear()
    spark.stop()
  }
}

package repro.bench

import java.nio.file.{Files, Path, Paths}
import org.apache.spark.sql.DataFrame
import repro.SparkSpec
import repro.core.TaskGen
import repro.exp.{BenchConfig, Harness, SeriesCache}

/** Shared bench-scale fixtures: generated once per JVM and reused by every
  * bench suite (they run sequentially in one forked JVM). Scale can be
  * overridden with BENCH_SF / BENCH_TRAIN_DAYS / BENCH_TASKS /
  * BENCH_RATE_SCALE.
  */
object BenchFixtures {
  lazy val cfg: BenchConfig = BenchConfig()
  lazy val df: DataFrame = Harness.data(SparkSpec.shared, cfg)
  lazy val gen: TaskGen = new TaskGen(df)
  lazy val cache: SeriesCache = new SeriesCache(df)

  /** The directory holding `build.sbt` and `bench/`, whichever of the two
    * the forked test JVM started in; committed `BENCH_*.json` files go here.
    */
  def repoRoot: Path =
    Iterator.iterate(Paths.get("").toAbsolutePath)(_.getParent).takeWhile(_ != null)
      .find(d => Files.exists(d.resolve("build.sbt")) && Files.isDirectory(d.resolve("bench")))
      .getOrElse(throw new IllegalStateException("no repository root above the working directory"))
}

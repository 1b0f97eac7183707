package repro.bench

import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.{Files, Path, Paths}
import java.security.MessageDigest
import org.apache.spark.sql.DataFrame
import org.json4s._
import org.json4s.jackson.JsonMethods.{parse, pretty, render}
import repro.SparkSpec
import repro.core.TaskGen
import repro.exp.{BenchConfig, Harness, SeriesCache}
import scala.jdk.CollectionConverters._

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

  /** The first 6 bytes of the SHA-256 of what `update` feeds it, in hex. */
  def digest(update: MessageDigest => Unit): String = {
    val md = MessageDigest.getInstance("SHA-256")
    update(md)
    md.digest().take(6).map(b => f"$b%02x").mkString
  }

  /** Digest of the product sources (`src/main/scala`), file by file in path order. */
  def sourceDigest: String = {
    val root = repoRoot.resolve("src/main/scala")
    val walk = Files.walk(root)
    val files = try walk.iterator.asScala.filter(Files.isRegularFile(_)).toSeq finally walk.close()
    digest(md => files.sortBy(root.relativize(_).toString).foreach { f =>
      md.update(root.relativize(f).toString.getBytes(UTF_8))
      md.update(Files.readAllBytes(f))
    })
  }

  /** `x` rounded half up to `places` decimals. */
  def round(x: Double, places: Int): JDouble =
    JDouble(BigDecimal(x).setScale(places, BigDecimal.RoundingMode.HALF_UP).toDouble)

  /** Records a run in the trajectory `file` at the repository root: the
    * `header` fields, then `runs`. The run is keyed by [[sourceDigest]] and
    * dated; it replaces an earlier run of the same sources and keeps every
    * other run. Returns the text written.
    */
  def recordRun(file: String, header: List[JField], run: List[JField]): String = {
    val keyed = JObject(("source_digest" -> JString(sourceDigest)) ::
      ("date" -> JString(java.time.LocalDate.now.toString)) :: run)
    val out = repoRoot.resolve(file)
    val earlier =
      if (!Files.exists(out)) Nil
      else (parse(new String(Files.readAllBytes(out), UTF_8)) \ "runs").children
        .filter(r => r \ "source_digest" != keyed \ "source_digest")
    val body = pretty(render(JObject(header :+ ("runs" -> JArray(earlier :+ keyed))))) + "\n"
    Files.write(out, body.getBytes(UTF_8))
    body
  }
}

package repro.core

import org.apache.spark.sql.DataFrame
import repro.PartitionFold
import repro.data.AdSchema
import scala.util.Random

/** Workload generator for the evaluation (§6): "forecasting tasks are
  * randomly picked with different measures and different combinations of
  * dimensions in their constraints, with some (approximately) fixed
  * selectivity".
  *
  * We enumerate a pool of random conjunctive constraints over the ad-schema
  * dimensions, measure the row selectivity of the WHOLE pool in a single
  * Spark job (one match count per candidate), and then serve constraints
  * whose selectivity lands in a band around the requested target.
  * Deterministic in the seed.
  */
final class TaskGen(full: DataFrame, seed: Long = 101, poolSize: Int = 240) {

  private val rng = new Random(seed)
  private val Slack = 2.0

  /** The candidate pool: 2–3 predicates over distinct dimensions — the
    * paper's tasks slice on *combinations* of attributes (e.g. Age AND
    * Gender), which is also what separates the sampling estimators from
    * PIM (single-dimension constraints are PIM-exact by construction).
    */
  val pool: Seq[Constraint] = {
    val atoms: Seq[() => Pred] = Seq(
      () => Pred("age", "<=", (20 + rng.nextInt(58)).toString, isString = false),
      () => Pred("age", ">=", (20 + rng.nextInt(58)).toString, isString = false),
      () => Pred("gender", "=", if (rng.nextBoolean()) "F" else "M", isString = true),
      () => Pred("device", "=", Seq("mobile", "pc", "tablet")(rng.nextInt(3)), isString = true),
      () => Pred("occupation", "=", rng.nextInt(10).toString, isString = false),
      () => Pred("city", "<=", rng.nextInt(50).toString, isString = false),
      () => Pred("city", "=", rng.nextInt(50).toString, isString = false),
      () => Pred("tag_sports", "=", "1", isString = false),
      () => Pred("tag_cartoon", "=", "1", isString = false),
      () => Pred("tag_fashion", "=", "1", isString = false),
      () => Pred("tag_tech", "=", "1", isString = false),
      () => Pred("tag_travel", "=", "1", isString = false),
      () => Pred("tag_food", "=", "1", isString = false),
    )
    (0 until poolSize).map { _ =>
      val want = 2 + rng.nextInt(2)
      val chosen = scala.collection.mutable.ArrayBuffer.empty[Pred]
      val it = rng.shuffle(atoms).iterator
      while (chosen.size < want && it.hasNext) {
        val p = it.next().apply()
        if (!chosen.exists(_.dim == p.dim)) chosen += p
      }
      Constraint(chosen.sortBy(_.dim).toSeq)
    }.distinct
  }

  /** Row selectivity of every pool constraint, in one Spark job that
    * counts each partition's matches per constraint and, last, its rows.
    */
  val selectivity: Map[Constraint, Double] = {
    val n = pool.size
    val counts = PartitionFold(full.select(pool.map(_.column): _*), "TaskGen.selectivity") { rows =>
      val counts = new Array[Long](n + 1)
      rows.foreach { r =>
        var i = 0
        while (i < n) { if (!r.isNullAt(i) && r.getBoolean(i)) counts(i) += 1; i += 1 }
        counts(n) += 1
      }
      counts
    }.transpose.map(_.sum)
    pool.indices.map(i => pool(i) -> counts(i) / counts(n).toDouble).toMap
  }

  /** Constraints whose selectivity is within [lo, hi] (fractions of rows). */
  def withSelectivity(lo: Double, hi: Double): Seq[Constraint] =
    pool.filter(c => selectivity(c) >= lo && selectivity(c) <= hi)

  /** `count` ARIMA tasks near `target` selectivity (within ×/÷ 2), cycling
    * through qualifying constraints and round-robining measures.
    *
    * @throws IllegalStateException if no pool constraint qualifies.
    */
  def tasks(target: Double, count: Int, ts: Int, te: Int,
            measures: Seq[String] = AdSchema.Measures, forePeriod: Int = 7): Seq[ForecastTask] = {
    val qualifying = withSelectivity(target / Slack, target * Slack)
    if (qualifying.isEmpty)
      throw new IllegalStateException(
        f"no candidate constraint with selectivity ≈ $target%.4f (slack ×$Slack)")
    (0 until count).map { i =>
      ForecastTask(measures(i % measures.size), "ad", qualifying(i % qualifying.size),
        ts, te, forePeriod = forePeriod)
    }
  }
}

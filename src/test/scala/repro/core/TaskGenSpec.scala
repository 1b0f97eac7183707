package repro.core

import org.apache.spark.JobCounter
import org.apache.spark.sql.functions._
import repro.{SparkFunSpec, TestData}

/** Tests for the workload generator: pool construction, one-job
  * selectivity measurement, and fixed-selectivity task picking.
  */
class TaskGenSpec extends SparkFunSpec {

  private lazy val ad = TestData.ad
  private lazy val gen = new TaskGen(ad, seed = 101, poolSize = 120)

  test("pool has distinct constraints with 2..3 predicates on distinct dims") {
    assert(gen.pool.nonEmpty && gen.pool.size <= 120)
    assert(gen.pool.forall(c => c.preds.size >= 2 && c.preds.size <= 3))
    assert(gen.pool.forall(c => c.preds.map(_.dim).distinct.size == c.preds.size))
  }

  test("pool is deterministic in the seed") {
    val again = new TaskGen(ad, seed = 101, poolSize = 120)
    assert(again.pool == gen.pool)
    val other = new TaskGen(ad, seed = 202, poolSize = 120)
    assert(other.pool != gen.pool)
  }

  test("batch selectivity equals direct per-constraint counts") {
    val n = ad.count().toDouble
    for (c <- gen.pool.take(5)) {
      val direct = ad.filter(c.column).count() / n
      assert(math.abs(gen.selectivity(c) - direct) < 1e-12,
        s"selectivity mismatch for ${c.sql}")
    }
  }

  test("selectivity equals one conditional-count aggregate per constraint, in one job") {
    val (fresh, jobs) = JobCounter(spark.sparkContext)(new TaskGen(ad))
    assert(jobs == 1, s"new TaskGen ran $jobs Spark jobs")
    val n = ad.count().toDouble
    val aggs = fresh.pool.zipWithIndex.map { case (c, i) =>
      sum(when(c.column, 1L).otherwise(0L)) as s"c$i"
    }
    val row = ad.select(aggs: _*).head
    val reference = fresh.pool.zipWithIndex.map { case (c, i) => c -> row.getLong(i) / n }.toMap
    assert(fresh.selectivity == reference)
  }

  test("withSelectivity respects the band") {
    val band = gen.withSelectivity(0.01, 0.10)
    assert(band.forall(c => gen.selectivity(c) >= 0.01 && gen.selectivity(c) <= 0.10))
  }

  test("tasks: selectivity near target, measures round-robined") {
    val tasks = gen.tasks(target = 0.05, count = 8, ts = 0, te = 14)
    assert(tasks.size == 8)
    assert(tasks.forall(t => gen.selectivity(t.constraint) >= 0.025 &&
      gen.selectivity(t.constraint) <= 0.10))
    assert(tasks.map(_.measure).distinct.sorted ==
      repro.data.AdSchema.Measures.sorted)
  }

  test("tasks carry the requested window and period, and model ARIMA") {
    val tasks = gen.tasks(0.05, 2, ts = 3, te = 17, forePeriod = 5)
    assert(tasks.forall(t => t.ts == 3 && t.te == 17 && t.model == "arima" &&
      t.forePeriod == 5))
  }

  test("unreachable selectivity target throws") {
    intercept[IllegalStateException] {
      gen.tasks(target = 1e-9, count = 1, ts = 0, te = 5)
    }
  }

  test("pool covers a broad selectivity range (can serve 0.5% and 10% bands)") {
    assert(gen.withSelectivity(0.0025, 0.01).nonEmpty, "no ~0.5% constraints")
    assert(gen.withSelectivity(0.05, 0.2).nonEmpty, "no ~10% constraints")
  }
}

package repro.exp

import repro.SparkSpec
import repro.core.TaskGen

/** Runs the paper-experiment drivers end to end at the smallest scale where
  * each of them runs, and checks the shape of their tables and that every
  * value is finite. Their paper claims are asserted at bench scale by the
  * suites under `bench/` (`sbt bench/test`).
  */
class ExperimentsSmokeSpec extends SparkSpec {

  // Every field explicit, so the BENCH_* variables do not apply.
  private val cfg = BenchConfig(sf = 1e-5, trainDays = 30, tasksPerPoint = 1, rateScale = 50.0)
  private lazy val df = Harness.data(spark, cfg)
  private lazy val gen = new TaskGen(df)
  private lazy val cache = new SeriesCache(df)

  // At this scale a Spark job's cost is its scheduling; 4 shuffle
  // partitions instead of the session's 64 cut the suite's run time by ~15 %.
  private lazy val shufflePartitions = spark.conf.get("spark.sql.shuffle.partitions")

  override def beforeAll(): Unit = {
    super.beforeAll()
    shufflePartitions
    spark.conf.set("spark.sql.shuffle.partitions", "4")
  }

  override def afterAll(): Unit = {
    df.unpersist()
    spark.conf.set("spark.sql.shuffle.partitions", shufflePartitions)
    super.afterAll()
  }

  private def finite(xs: Double*): Boolean = xs.forall(java.lang.Double.isFinite)

  test("Table 1: one row per measure, every cell finite") {
    val rows = Table1.run(df, gen, cache, cfg).rows
    assert(rows.map(_.measure) == repro.data.AdSchema.Measures)
    assert(rows.forall(r => finite(r.full, r.pim, r.uniform, r.optGsw, r.cGsw)), rows)
  }

  test("Fig 6: 3 groupings x 4 measures, every cell finite") {
    val rows = Fig6.run(df, gen, cache, cfg).rows
    assert(rows.size == 12)
    assert(rows.forall(r => finite(r.l1, r.aggErr)), rows)
  }

  test("Exp-III: one row per training length and rate, every cell finite") {
    val rows = Exp3.run(df, gen, cache, cfg).rows
    assert(rows.size == 2) // 30 days only x 2 rates
    assert(rows.forall(r => finite(r.arimaErr, r.lstmErr)), rows)
  }

  test("Exp-IV: rates x measures x selectivities x samplers, every cell finite") {
    val rows = Exp4.run(df, gen, cache, cfg).rows
    assert(rows.size == 4 * 2 * 2 * 5)
    assert(rows.forall(r => finite(r.aggErr, r.fcErr, r.width)), rows)
    // LSTM runs on the favorite, 5 % subset only.
    assert(rows.forall(r => finite(r.lstmErr) == (r.measure == "favorite" && r.selectivity == 0.05)))
  }

  test("Exp-V: one row per rate, every cell finite") {
    val rows = Exp5.run(df, gen, cache, cfg).rows
    assert(rows.size == 3)
    assert(rows.forall(r => r.cGswRows > 0 && r.optTotalRows > 0 &&
      finite(r.cGswMaxErr, r.spaceRatio, r.cGswFcErr, r.optFcErr)), rows)
  }
}

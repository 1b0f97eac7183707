package repro.core

import org.apache.spark.JobCounter
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.{Oracle, SparkFunSpec, TestData}
import repro.data.AdSchema
import repro.sampling.Sampler

/** Tests for the PIM baseline [8]: exactness under true partwise
  * independence and on any single-dimension constraint, bias under
  * correlation (the effect Table 1 shows), cube contents (oracle-checked and
  * against a cube of one copy per dimension), and error handling.
  */
class PIMSpec extends SparkFunSpec {

  private lazy val ad = TestData.ad

  /** One cube over every dimension and measure of [[ad]], shared by the suite. */
  private lazy val pim = new PIM(ad, AdSchema.Measures)

  /** A relation engineered so dimensions gender and device are EXACTLY
    * independent w.r.t. the (unit) measure mass: counts factorize as
    * n(gender)×n(device).
    */
  private lazy val independent = {
    val s = spark
    import s.implicits._
    val rows = for {
      t <- 0 until 3
      (g, ng) <- Seq(("x", 1), ("y", 3))
      (d, nd) <- Seq(("u", 2), ("v", 5))
      _ <- 0 until ng * nd
    } yield (t, g, d, 1L)
    rows.toDF("t", "gender", "device", "m").cache()
  }

  private lazy val independentPim = new PIM(independent, Seq("m"))

  /** PIM over the cube it was first built as: a `GROUP BY t` copy for the
    * day totals and a `GROUP BY t, d` copy per dimension `d`.
    */
  private final class PerDimensionPim(full: DataFrame, measures: Seq[String]) {
    private def cube(keys: Seq[String]) = {
      val sums = measures.map(m => sum(col(m)).cast("double") as Sampler.estCol(m))
      SampleColumns.collect(full.groupBy((AdSchema.TimeCol +: keys).map(col): _*)
        .agg(sums.head, sums.tail: _*), measures)
    }
    private val totals = cube(Nil)
    private val marginals =
      AdSchema.Dimensions.filter(full.columns.contains).map(d => d -> cube(Seq(d))).toMap
    def cubeRows: Long = totals.rows + marginals.valuesIterator.map(_.rows).sum
    def estimateSeries(task: ForecastTask): Array[Double] = {
      val total = totals.series(task.copy(constraint = Constraint(Nil)))
      val masses = task.constraint.preds.groupBy(_.dim).toSeq.map { case (d, preds) =>
        marginals(d).series(task.copy(constraint = Constraint(preds)))
      }
      Array.tabulate(total.length) { i =>
        if (total(i) <= 0.0) 0.0
        else masses.foldLeft(total(i))((acc, mass) => acc * (mass(i) / total(i)))
      }
    }
  }

  private def task(measure: String, preds: Seq[Pred], ts: Int, te: Int) =
    ForecastTask(measure, "ad", Constraint(preds), ts, te)

  /** PIM's estimate for one day. */
  private def estimate(p: PIM, measure: String, preds: Seq[Pred], day: Int): Double =
    p.estimateSeries(task(measure, preds, day, day)).head

  test("exact on independent dimensions: single-dim constraint") {
    // day total = (1+3)(2+5) = 28; mass(gender=x) = 1×7 = 7.
    assert(estimate(independentPim, "m", Seq(Pred("gender", "=", "x", isString = true)), 0) == 7.0)
  }

  test("exact on independent dimensions: two-dim conjunction") {
    val preds = Seq(
      Pred("gender", "=", "y", isString = true), Pred("device", "=", "v", isString = true))
    // truth: 3×5 = 15; PIM: 28 × (21/28) × (20/28) = 15 — exact.
    assert(math.abs(estimate(independentPim, "m", preds, 1) - 15.0) < 1e-9)
  }

  test("PIM series equals exact series on the independent relation") {
    val t = task("m", Seq(Pred("gender", "=", "x", isString = true),
                          Pred("device", "=", "u", isString = true)), 0, 2)
    val est = independentPim.estimateSeries(t)
    val exact = Estimator.exactSeries(independent, t)
    assert(est.indices.forall(i => math.abs(est(i) - exact(i)) < 1e-9),
      s"${est.toSeq} vs ${exact.toSeq}")
  }

  test("unconstrained estimate returns the day total") {
    assert(estimate(independentPim, "m", Nil, 0) == 28.0)
  }

  test("missing day estimates to 0") {
    assert(estimate(independentPim, "m", Nil, 999) == 0.0)
  }

  test("constraint on an uncovered dimension throws") {
    // `age` is a dimension of the schema, but not a column of the relation.
    val e = intercept[IllegalArgumentException] {
      estimate(independentPim, "m", Seq(Pred("age", "=", "30", isString = false)), 0)
    }
    assert(e.getMessage.contains("'age'") && e.getMessage.contains("device, gender"),
      e.getMessage)
  }

  test("a task on a measure the cube does not hold throws") {
    val e = intercept[IllegalArgumentException] {
      estimate(independentPim, "click", Seq(Pred("gender", "=", "x", isString = true)), 0)
    }
    assert(e.getMessage.contains("'click'") && e.getMessage.contains("holds m"), e.getMessage)
  }

  test("the cube is built in 4 Spark jobs: one aggregation per copy") {
    val df = ad // generated and cached before the count
    val (_, jobs) = JobCounter(spark.sparkContext)(new PIM(df, AdSchema.Measures))
    assert(jobs == 4, s"building the cube ran $jobs Spark jobs")
  }

  test("estimates and cubeRows equal a cube of one copy per dimension, bit for bit") {
    val pool = new TaskGen(ad, seed = 4006).pool
    def bits(xs: Array[Double]) = xs.toSeq.map(java.lang.Double.doubleToRawLongBits)
    for ((df, cube) <- Seq(ad -> pim, TestData.adWithNulls -> new PIM(TestData.adWithNulls,
      AdSchema.Measures))) {
      val reference = new PerDimensionPim(df, AdSchema.Measures)
      assert(cube.cubeRows == reference.cubeRows)
      for (i <- pool.indices; (ts, te) <- Seq((0, 19), (5, 12))) {
        val t = ForecastTask(AdSchema.Measures(i % AdSchema.Measures.size), "ad", pool(i), ts, te)
        assert(bits(cube.estimateSeries(t)) == bits(reference.estimateSeries(t)), t.sql)
      }
    }
  }

  test("oracle: PIM per-dimension marginals match DuckDB group-by") {
    // The cube's (t, gender) marginal for impression must equal a direct
    // group-by — verified by comparing Spark's aggregation with DuckDB and
    // the PIM estimate of a single-value constraint against both.
    val sparkDf = ad.groupBy("t", "gender").agg(sum("impression") as "mass")
      .select(col("t").cast("string") as "t", col("gender"), col("mass"))
    Oracle.assertEquivalent(
      sparkDf,
      """SELECT t, gender, SUM(CAST(impression AS BIGINT)) AS mass
        |FROM ad GROUP BY t, gender""".stripMargin,
      "ad" -> ad)
    val direct = ad.filter(col("gender") === "F" && col("t") === 0)
      .agg(sum("impression")).head.getLong(0).toDouble
    val est = estimate(pim, "impression", Seq(Pred("gender", "=", "F", isString = true)), 0)
    assert(math.abs(est - direct) < 1e-6,
      "single-dimension PIM estimate must be exact (it IS the marginal)")
  }

  test("range predicates aggregate marginal values numerically") {
    val est = estimate(pim, "impression", Seq(Pred("age", "<=", "40", isString = false)), 2)
    val direct = ad.filter(col("age") <= 40 && col("t") === 2)
      .agg(sum("impression")).head.getLong(0).toDouble
    assert(math.abs(est - direct) < 1e-6,
      "single-dim range estimate must be exact")
  }

  test("single-dimension constraints are exact under Spark's comparison semantics") {
    // Quoted literals against an integer column compare as numbers, and
    // null dimension values match no predicate, as in Spark.
    val withNulls = TestData.adWithNulls
    val cases = Seq(
      (ad, pim) -> Seq(
        Pred("city", "<=", "9", isString = true),
        Pred("age", "=", "30", isString = true),
        Pred("age", ">", "3e1", isString = false),
        Pred("age", "<=", "30.5", isString = false)),
      (withNulls, new PIM(withNulls, Seq("impression"))) -> Seq(
        Pred("city", "<=", "20", isString = false),
        Pred("gender", "<>", "F", isString = true)))
    for (((df, cube), ps) <- cases; p <- ps) {
      val t = task("impression", Seq(p), 0, 19)
      val est = cube.estimateSeries(t)
      val exact = Estimator.exactSeries(df, t)
      est.indices.foreach { d =>
        assert(math.abs(est(d) - exact(d)) <= 1e-9 * math.abs(exact(d)),
          s"${p.sql}: day $d PIM ${est(d)} vs exact ${exact(d)}")
      }
    }
  }

  test("PIM is biased on correlated dimensions (ad data)") {
    // age and device are correlated (young ⇒ mobile) AND both correlate
    // with impression intensity, so the product form must misestimate.
    val t = task("impression", Seq(Pred("age", "<=", "34", isString = false),
                                   Pred("device", "=", "mobile", isString = true)), 0, 9)
    val est = pim.estimateSeries(t)
    val exact = Estimator.exactSeries(ad, t)
    val meanErr = Metrics.relAggError(est, exact)
    assert(meanErr > 0.05, s"expected visible PIM bias, got $meanErr")
  }

  test("cubeRows reports the marginal cube's size") {
    // 3 days × (2 gender values + 2 device values) + 3 day totals = 15.
    assert(independentPim.cubeRows == 15L)
  }

  test("supports multiple measures in one cube") {
    val preds = Seq(Pred("gender", "=", "M", isString = true))
    val imp = estimate(pim, "impression", preds, 1)
    val clk = estimate(pim, "click", preds, 1)
    assert(imp > clk, "impressions outnumber clicks by construction")
  }
}

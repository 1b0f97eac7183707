package flashbench

import org.apache.spark.sql.{Column, DataFrame}
import org.apache.spark.sql.functions._
import repro.Oracle
import repro.core.{Constraint, ForecastTask}
import repro.forecast.Forecast

/** Reference answers and output checks. Nothing here goes through
  * `repro.core.Estimator` or `Pred.column`: predicates are rendered here,
  * and every exact series comes from one batched conditional-sum pass.
  */
object Truth {

  /** The constraint as a Catalyst column built from its parts. */
  def column(c: Constraint): Column = c.preds.map { p =>
    val x = col(p.dim)
    val v: Any = if (p.isString) p.literal else p.literal.toLong
    p.op match {
      case "="  => x === v
      case "<>" => x =!= v
      case "<"  => x < v
      case "<=" => x <= v
      case ">"  => x > v
      case ">=" => x >= v
    }
  }.foldLeft(lit(true))(_ && _)

  /** Exact `SUM(m)` per day in `[d0, d1]` under each `(m, C)` key, all keys
    * in one Spark pass: `out(k)(d - d0)`.
    */
  def dailySums(full: DataFrame, keys: IndexedSeq[(String, Constraint)],
                d0: Int, d1: Int): Array[Array[Double]] = {
    val out = Array.fill(keys.size, d1 - d0 + 1)(0.0)
    if (keys.nonEmpty) {
      val aggs = keys.map { case (m, c) =>
        sum(when(column(c), col(m)).otherwise(lit(0L))).cast("double")
      }
      full.filter(col("t").between(d0, d1)).groupBy(col("t"))
        .agg(aggs.head, aggs.tail: _*).collect().foreach { r =>
          val d = r.getInt(0) - d0
          keys.indices.foreach(k => out(k)(d) = r.getDouble(k + 1))
        }
    }
    out
  }

  /** Why an op's output is malformed, if it is. */
  def outputProblem(task: ForecastTask, series: Array[Double], fc: Forecast): Option[String] =
    if (series.length != task.te - task.ts + 1)
      Some(s"series has ${series.length} days, want ${task.te - task.ts + 1}")
    else if (!series.forall(v => java.lang.Double.isFinite(v) && v >= 0))
      Some("series has a negative or non-finite day")
    else if (fc.horizon != task.forePeriod)
      Some(s"forecast has ${fc.horizon} points, want ${task.forePeriod}")
    else if (!fc.point.indices.forall { h =>
        Seq(fc.lo(h), fc.point(h), fc.hi(h)).forall(java.lang.Double.isFinite) &&
          fc.lo(h) <= fc.point(h) && fc.point(h) <= fc.hi(h)
      }) Some("forecast point outside [lo, hi] or non-finite")
    else None

  /** Check `served` (day → value, days `[d0, d1]`) against DuckDB summing
    * `valueCol` over `table` under `c`. Values are compared at two
    * decimals, since sums of `est_*` differ in the last bits by order.
    */
  def oracleProblem(table: DataFrame, valueCol: String, c: Constraint,
                    d0: Int, d1: Int, served: Int => Double): Option[String] = {
    val spark = table.sparkSession
    import spark.implicits._
    val slice = table.filter(col("t").between(d0, d1))
      .select((("t" +: c.dims) :+ valueCol).distinct.map(col): _*)
    // DuckDB omits days with no qualifying row; served series hold 0 there.
    val expected = (d0 to d1).map(d => d -> served(d)).filter(_._2 != 0.0)
      .map { case (d, v) => (d, BigDecimal(v).setScale(2, BigDecimal.RoundingMode.HALF_UP).toDouble) }
      .toDF("t", "s")
    val where = if (c.preds.isEmpty) "TRUE" else c.preds.map { p =>
      if (p.isString) s"${p.dim} ${p.op} '${p.literal.replace("'", "''")}'"
      else s"CAST(${p.dim} AS BIGINT) ${p.op} ${p.literal}"
    }.mkString(" AND ")
    val sql = s"SELECT CAST(t AS INTEGER) AS t, ROUND(SUM(CAST($valueCol AS DOUBLE)), 2) AS s " +
      s"FROM x WHERE $where GROUP BY 1"
    try { Oracle.assertEquivalent(expected, sql, "x" -> slice); None }
    catch { case e: IllegalArgumentException => Some(e.getMessage) }
  }
}

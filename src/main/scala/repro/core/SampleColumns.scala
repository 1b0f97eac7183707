package repro.core

import java.nio.charset.StandardCharsets.UTF_8
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.col
import org.apache.spark.sql.types._
import repro.data.AdSchema
import repro.sampling.Sampler

/** A sample layer copied to the driver as primitive columns: our stand-in
  * for the in-memory OLAP engine (Hologres) that serves online aggregation
  * in §5.
  *
  * Rows are grouped by day: the rows of day `firstDay + d` are
  * `[dayStart(d), dayStart(d + 1))`, so there is no time column. Each
  * [[AdSchema]] dimension is dictionary-encoded, with codes in the narrowest
  * of `Byte`/`Short`/`Int` that holds its dictionary; each `est_<m>` of the
  * sampler's measures is one `Array[Double]`.
  *
  * [[series]] answers a task without a Spark job. It equals
  * [[Estimator.estimateSeries]] over the layer's DataFrame up to the order in
  * which doubles are summed.
  *
  * @param rows rows of the layer (its space cost), including any row with a
  *             null time stamp, which no task selects
  */
final class SampleColumns private (val rows: Long, firstDay: Int, dayStart: Array[Int],
                                   dims: Map[String, DimColumn],
                                   est: Map[String, Array[Double]]) {

  /** Per-day sums of `est_<m>` over days `[ts, te]` under the task's
    * constraint; days without qualifying rows, or outside the layer, are 0.
    * Each predicate becomes one boolean mask over its dimension's
    * dictionary; then one loop visits the rows of the window's days only.
    *
    * @throws IllegalArgumentException if the task names a column the copy
    *         does not hold, or a comparison Spark would reject
    */
  def series(task: ForecastTask): Array[Double] = {
    val values = est.getOrElse(Sampler.estCol(task.measure),
      throw notHeld(Sampler.estCol(task.measure)))
    val preds = task.constraint.preds.toArray
    val codes = preds.map(p => dim(p.dim).codes)
    val masks = preds.map(p => dim(p.dim).mask(p))
    val out = new Array[Double](task.trainingDays)
    val lastDay = firstDay + dayStart.length - 2
    var d = math.max(task.ts, firstDay)
    while (d <= math.min(task.te, lastDay)) {
      var i = dayStart(d - firstDay)
      val end = dayStart(d - firstDay + 1)
      var s = 0.0
      while (i < end) {
        var k = 0
        while (k < masks.length && masks(k)(codes(k)(i))) k += 1
        if (k == masks.length) s += values(i)
        i += 1
      }
      out(d - task.ts) = s
      d += 1
    }
    out
  }

  private def dim(name: String): DimColumn = dims.getOrElse(name, throw notHeld(name))

  private def notHeld(column: String) = new IllegalArgumentException(
    s"column '$column' is not held by the driver-resident sample layer; it holds " +
      (dims.keys.toSeq.sorted ++ est.keys.toSeq.sorted).mkString(", "))
}

object SampleColumns {

  /** Copy the layer `df` to the driver with one Spark job: a projection of
    * its time column, its [[AdSchema]] dimensions of integral or string type
    * and the `est_<m>` columns of `measures`. If `df` is persisted and not
    * yet materialised, the same job materialises the cache.
    */
  def collect(df: DataFrame, measures: Seq[String]): SampleColumns = {
    val time = AdSchema.TimeCol
    require(df.columns.contains(time), s"sample layer has no time column '$time'")
    require(Estimator.isIntegral(df.schema(time).dataType),
      s"time column '$time' must be integral, not ${df.schema(time).dataType.simpleString}")
    val dimNames = AdSchema.Dimensions.filter(d => df.columns.contains(d) &&
      (Estimator.isIntegral(df.schema(d).dataType) || df.schema(d).dataType == StringType))
    val estNames = measures.map(Sampler.estCol)
    val rows = df.select((col(time) +: dimNames.map(col)) ++
      estNames.map(e => col(e).cast(DoubleType)): _*).collect()

    // Group row indices by day with a counting sort; `slot(j)` is row j's
    // position in day order, -1 for a null time stamp.
    val NoDay = Int.MinValue
    val day = rows.map(r => if (r.isNullAt(0)) NoDay else Estimator.dayOf(r.get(0)))
    val present = day.filter(_ != NoDay)
    val firstDay = if (present.isEmpty) 0 else present.min
    val nDays = if (present.isEmpty) 0 else present.max - firstDay + 1
    val dayStart = new Array[Int](nDays + 1)
    present.foreach(d => dayStart(d - firstDay + 1) += 1)
    for (d <- 1 to nDays) dayStart(d) += dayStart(d - 1)
    val cursor = dayStart.clone()
    val slot = day.map { d =>
      if (d == NoDay) -1
      else { val s = cursor(d - firstDay); cursor(d - firstDay) = s + 1; s }
    }
    val n = present.length

    val dims = dimNames.zipWithIndex.map { case (name, k) =>
      val codeOf = new java.util.HashMap[Any, Integer]()
      val dict = scala.collection.mutable.ArrayBuffer.empty[Any]
      val codes = new Array[Int](n)
      rows.indices.foreach { j =>
        if (slot(j) >= 0) {
          val v = rows(j).get(k + 1)
          var c = codeOf.get(v)
          if (c == null) { c = dict.size; codeOf.put(v, c); dict += v }
          codes(slot(j)) = c
        }
      }
      name -> new DimColumn(name, Estimator.isIntegral(df.schema(name).dataType),
        dict.toArray, Codes.narrowest(codes, dict.size))
    }.toMap

    val est = estNames.zipWithIndex.map { case (name, k) =>
      val values = new Array[Double](n)
      val at = 1 + dimNames.size + k
      // SUM skips nulls, so a null estimate adds nothing.
      rows.indices.foreach(j => if (slot(j) >= 0 && !rows(j).isNullAt(at))
        values(slot(j)) = rows(j).getDouble(at))
      name -> values
    }.toMap

    new SampleColumns(rows.length.toLong, firstDay, dayStart, dims, est)
  }
}

/** One dictionary-encoded dimension: row `i` holds `dict(codes(i))`, which
  * may be null.
  */
private[core] final class DimColumn(name: String, integral: Boolean, dict: Array[Any],
                                    val codes: Codes) {
  import DimColumn._

  /** Which dictionary entries satisfy `p`, with the semantics Catalyst gives
    * `p.sql` under Spark's default (ANSI) mode; null never matches:
    *  - integral column, unquoted literal: exact numeric comparison (Spark
    *    widens both sides to a decimal), or as doubles for a literal with an
    *    exponent, which Spark reads as a double;
    *  - integral column, quoted literal: both sides cast to bigint; a literal
    *    that is not an integer is rejected, as Spark's cast rejects it;
    *  - string column, quoted literal: byte-wise comparison of UTF-8;
    *  - string column, unquoted number: rejected, because Spark casts the
    *    column to a number and fails on any value that is not one.
    */
  def mask(p: Pred): Array[Boolean] = {
    val cmp: Any => Int =
      if (integral && p.isString) {
        val l = p.literal.trim.toLongOption.getOrElse(throw new IllegalArgumentException(
          s"cannot compare integer column '$name' with '${p.literal}': not an integer"))
        v => java.lang.Long.compare(long(v), l)
      } else if (integral) p.literal match {
        case DecimalLit() =>
          val l = BigDecimal(p.literal)
          v => BigDecimal(long(v)).compare(l)
        case DoubleLit() =>
          val l = p.literal.toDouble
          v => { val x = long(v).toDouble; if (x < l) -1 else if (x > l) 1 else 0 }
        case _ => throw new IllegalArgumentException(
          s"cannot compare integer column '$name' with literal ${p.literal}")
      } else if (p.isString) {
        val l = p.literal.getBytes(UTF_8)
        v => java.util.Arrays.compareUnsigned(v.asInstanceOf[String].getBytes(UTF_8), l)
      } else throw new IllegalArgumentException(
        s"cannot compare string column '$name' with the number ${p.literal}; quote it")
    dict.map(v => v != null && p.accepts(cmp(v)))
  }

  private def long(v: Any): Long = v.asInstanceOf[Number].longValue
}

private object DimColumn {
  private val DecimalLit = """[+-]?(?:\d+\.?\d*|\.\d+)""".r
  private val DoubleLit = """[+-]?(?:\d+\.?\d*|\.\d+)[eE][+-]?\d+""".r
}

/** Dictionary codes of one column, unsigned, in the narrowest array that
  * holds them.
  */
private[core] sealed abstract class Codes {
  def apply(i: Int): Int
}

private[core] object Codes {
  def narrowest(codes: Array[Int], dictSize: Int): Codes =
    if (dictSize <= 256) new ByteCodes(codes.map(_.toByte))
    else if (dictSize <= 65536) new ShortCodes(codes.map(_.toShort))
    else new IntCodes(codes)

  private final class ByteCodes(a: Array[Byte]) extends Codes {
    def apply(i: Int): Int = a(i) & 0xff
  }
  private final class ShortCodes(a: Array[Short]) extends Codes {
    def apply(i: Int): Int = a(i) & 0xffff
  }
  private final class IntCodes(a: Array[Int]) extends Codes {
    def apply(i: Int): Int = a(i)
  }
}

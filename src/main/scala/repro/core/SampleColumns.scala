package repro.core

import java.nio.charset.StandardCharsets.UTF_8
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.execution.SQLExecution
import org.apache.spark.sql.functions.col
import org.apache.spark.sql.types._
import org.apache.spark.unsafe.types.UTF8String
import scala.collection.mutable.{ArrayBuffer, ArrayBuilder}
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
  * Every [[StoredSample]] is answered from one, made at its construction:
  * [[SampleStore.add]] makes it in the one job that draws the layer.
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

  /** Copy the layer `df` to the driver with one Spark job over its time
    * column, its [[AdSchema]] dimensions of integral or string type and the
    * `est_<m>` columns of `measures`. Each partition fills primitive arrays
    * with its own dictionaries (no `Row` per sample row); the driver
    * concatenates them in partition order, merges the dictionaries and
    * groups the rows by day; if `df` is persisted unfilled, the job fills it.
    */
  def collect(df: DataFrame, measures: Seq[String]): SampleColumns = {
    val time = AdSchema.TimeCol
    require(df.columns.contains(time), s"sample layer has no time column '$time'")
    require(Estimator.isIntegral(df.schema(time).dataType),
      s"time column '$time' must be integral, not ${df.schema(time).dataType.simpleString}")
    val dimNames = AdSchema.Dimensions.filter(d => df.columns.contains(d) &&
      (Estimator.isIntegral(df.schema(d).dataType) || df.schema(d).dataType == StringType))
    val integral = dimNames.map(d => Estimator.isIntegral(df.schema(d).dataType)).toArray
    val estNames = measures.map(Sampler.estCol)
    val nEst = estNames.size
    val qe = df.select((col(time).cast(LongType) +: dimNames.zip(integral).map {
      case (d, true) => col(d).cast(LongType)
      case (d, false) => col(d)
    }) ++ estNames.map(e => col(e).cast(DoubleType)): _*).queryExecution
    val parts = SQLExecution.withNewExecutionId(qe, Some("SampleColumns.collect")) {
      qe.toRdd.mapPartitions(rows => Iterator(Part.fill(rows, integral, nEst))).collect()
    }

    // Group the rows by day with a counting sort; `slot(j)` is row j's
    // position in day order. Loops over rows are `while` loops, which the
    // JIT compiles to plain array code; a closure per row costs a call.
    val day = parts.flatMap(_.day)
    val n = day.length
    var firstDay = if (n == 0) 0 else Int.MaxValue
    var lastDay = if (n == 0) -1 else Int.MinValue
    var j = 0
    while (j < n) {
      firstDay = math.min(firstDay, day(j))
      lastDay = math.max(lastDay, day(j))
      j += 1
    }
    val dayStart = new Array[Int](lastDay - firstDay + 2)
    j = 0
    while (j < n) { dayStart(day(j) - firstDay + 1) += 1; j += 1 }
    for (d <- 1 until dayStart.length) dayStart(d) += dayStart(d - 1)
    val cursor = dayStart.clone()
    val slot = new Array[Int](n)
    j = 0
    while (j < n) {
      val d = day(j) - firstDay
      slot(j) = cursor(d)
      cursor(d) += 1
      j += 1
    }

    val dims = dimNames.indices.map { k =>
      // Partitions' dictionaries merge in partition order, so a value's
      // code is the order of its first appearance in the layer.
      val codeOf = new java.util.HashMap[Any, Integer]()
      val dict = ArrayBuffer.empty[Any]
      val codes = new Array[Int](n)
      var j = 0
      parts.foreach { p =>
        val global = p.dicts(k).map { v =>
          var c = codeOf.get(v)
          if (c == null) { c = dict.size; codeOf.put(v, c); dict += v }
          c.intValue
        }
        val local = p.codes(k)
        var i = 0
        while (i < local.length) { codes(slot(j)) = global(local(i)); i += 1; j += 1 }
      }
      dimNames(k) -> new DimColumn(dimNames(k), integral(k), dict.toArray,
        Codes.narrowest(codes, dict.size))
    }.toMap

    val est = estNames.indices.map { k =>
      val values = new Array[Double](n)
      var j = 0
      parts.foreach { p =>
        val local = p.est(k)
        var i = 0
        while (i < local.length) { values(slot(j)) = local(i); i += 1; j += 1 }
      }
      estNames(k) -> values
    }.toMap

    new SampleColumns(n + parts.map(_.nullTime.toLong).sum, firstDay, dayStart, dims, est)
  }

  /** One partition's rows that have a time stamp, in partition order: the
    * day, each dimension's code into the partition's own dictionary (of
    * `Long`, `String` or null values) and each estimate. A null estimate is
    * held as 0, which adds nothing, as SUM skips it.
    */
  private final class Part(val nullTime: Int, val day: Array[Int],
                           val codes: Array[Array[Int]], val dicts: Array[Array[Any]],
                           val est: Array[Array[Double]]) extends Serializable

  private object Part {

    /** Fill a [[Part]] from rows of (time as long, dimensions with integral
      * ones as long, estimates as double).
      */
    def fill(rows: Iterator[InternalRow], integral: Array[Boolean], nEst: Int): Part = {
      val nDims = integral.length
      var nullTime = 0
      val day = new ArrayBuilder.ofInt
      val codes = Array.fill(nDims)(new ArrayBuilder.ofInt)
      val codeOf = Array.fill(nDims)(new java.util.HashMap[Any, Integer]())
      val dicts = Array.fill(nDims)(ArrayBuffer.empty[Any])
      val est = Array.fill(nEst)(new ArrayBuilder.ofDouble)
      rows.foreach { r =>
        if (r.isNullAt(0)) nullTime += 1
        else {
          day += Math.toIntExact(r.getLong(0))
          var k = 0
          while (k < nDims) {
            val v: Any =
              if (r.isNullAt(k + 1)) null
              else if (integral(k)) r.getLong(k + 1)
              else r.getUTF8String(k + 1)
            var c = codeOf(k).get(v)
            if (c == null) {
              // A row's string may point into a buffer the next row reuses.
              val owned = v match { case s: UTF8String => s.clone(); case _ => v }
              c = dicts(k).size
              codeOf(k).put(owned, c)
              dicts(k) += owned
            }
            codes(k) += c
            k += 1
          }
          k = 0
          while (k < nEst) {
            val at = 1 + nDims + k
            est(k) += (if (r.isNullAt(at)) 0.0 else r.getDouble(at))
            k += 1
          }
        }
      }
      new Part(nullTime, day.result(), codes.map(_.result()),
        dicts.map(_.map { case s: UTF8String => s.toString; case v => v }.toArray),
        est.map(_.result()))
    }
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
    if (dictSize <= 256) {
      val a = new Array[Byte](codes.length)
      var i = 0
      while (i < a.length) { a(i) = codes(i).toByte; i += 1 }
      new ByteCodes(a)
    } else if (dictSize <= 65536) {
      val a = new Array[Short](codes.length)
      var i = 0
      while (i < a.length) { a(i) = codes(i).toShort; i += 1 }
      new ShortCodes(a)
    } else new IntCodes(codes)

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

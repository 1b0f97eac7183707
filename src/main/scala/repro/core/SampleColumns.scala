package repro.core

import java.nio.charset.StandardCharsets.UTF_8
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.functions.col
import org.apache.spark.sql.types._
import org.apache.spark.unsafe.types.UTF8String
import scala.collection.mutable.{ArrayBuffer, ArrayBuilder}
import repro.PartitionFold
import repro.data.AdSchema
import repro.sampling.Sampler

/** A sample layer copied to the driver as primitive columns: our stand-in
  * for the in-memory OLAP engine (Hologres) that serves online aggregation
  * in §5.
  *
  * Rows are grouped by day: the rows of day `firstDay + d` are
  * `[dayStart(d), dayStart(d + 1))`, so there is no time column. Each
  * [[AdSchema]] dimension is dictionary-encoded and held as a per-value row
  * index ([[DimColumn]]); each `est_<m>` of the sampler's measures is one
  * `Array[Double]`.
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
    * dictionary, and then one bit array over the rows of the window's days,
    * built from the index of the entries it accepts. The predicates' arrays
    * are ANDed, and each day sums the values of its set bits in row order.
    * A day's cost follows the window's 64-row words and the matched rows,
    * not the rows of the window.
    *
    * @throws IllegalArgumentException if the task names a column the copy
    *         does not hold, or a comparison Spark would reject
    */
  def series(task: ForecastTask): Array[Double] = {
    val values = est.getOrElse(Sampler.estCol(task.measure),
      throw notHeld(Sampler.estCol(task.measure)))
    val preds = task.constraint.preds.toArray
    val cols = preds.map(p => dim(p.dim))
    val masks = preds.indices.map(k => cols(k).mask(preds(k)))
    val out = new Array[Double](task.trainingDays)
    val first = math.max(task.ts, firstDay)
    val last = math.min(task.te, firstDay + dayStart.length - 2)
    if (first > last) return out

    // Bit `i - 64 * w0` of `selected` is row i of the window [lo, hi).
    val lo = dayStart(first - firstDay)
    val hi = dayStart(last - firstDay + 1)
    val w0 = lo >>> 6
    val selected = new Array[Long](((hi + 63) >>> 6) - w0)
    java.util.Arrays.fill(selected, -1L)
    val words = new Array[Long](selected.length)
    for (k <- preds.indices) {
      java.util.Arrays.fill(words, 0L)
      cols(k).select(masks(k), words, lo, hi)
      var w = 0
      while (w < words.length) { selected(w) &= words(w); w += 1 }
    }

    var d = first
    while (d <= last) {
      // Set bits of the day's rows [a, b), in ascending row order.
      val a = dayStart(d - firstDay)
      val b = dayStart(d - firstDay + 1)
      val end = (b + 63) >>> 6
      var w = a >>> 6
      var s = 0.0
      while (w < end) {
        var word = selected(w - w0)
        if (w == a >>> 6) word &= -1L << a
        if (w == end - 1 && (b & 63) != 0) word &= -1L >>> (64 - (b & 63))
        while (word != 0) {
          s += values((w << 6) + java.lang.Long.numberOfTrailingZeros(word))
          word &= word - 1
        }
        w += 1
      }
      out(d - task.ts) = s
      d += 1
    }
    out
  }

  /** Bytes of the copy's arrays: the dimensions' row indexes, the `est_<m>`
    * columns and the day offsets. Dictionaries and object headers are not
    * counted.
    */
  def bytes: Long =
    4L * dayStart.length + est.valuesIterator.map(8L * _.length).sum +
      dims.valuesIterator.map(_.bytes).sum

  private def dim(name: String): DimColumn = dims.getOrElse(name, throw notHeld(name))

  private def notHeld(column: String) = new IllegalArgumentException(
    s"column '$column' is not held by the driver-resident sample layer; it holds " +
      (dims.keys.toSeq.sorted ++ est.keys.toSeq.sorted).mkString(", "))
}

object SampleColumns {

  /** The most days a copy spans, first to last: its day offsets take 4 MB. */
  val MaxDays = 1 << 20

  /** Copy the layer `df` to the driver with one Spark job over its time
    * column, its [[AdSchema]] dimensions of integral or string type and the
    * `est_<m>` columns of `measures`. Each partition fills primitive arrays
    * with its own dictionaries (no `Row` per sample row); the driver
    * concatenates them in partition order, merges the dictionaries, groups
    * the rows by day and builds each dimension's row index; if `df` is
    * persisted unfilled, the job fills it.
    *
    * @throws IllegalArgumentException naming the time column, its first and
    *         last day and [[MaxDays]], if the days span more than [[MaxDays]]
    *         or lie beyond `Int`
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
    val projected = df.select((col(time).cast(LongType) +: dimNames.zip(integral).map {
      case (d, true) => col(d).cast(LongType)
      case (d, false) => col(d)
    }) ++ estNames.map(e => col(e).cast(DoubleType)): _*)
    val parts = PartitionFold(projected, "SampleColumns.collect")(Part.fill(_, integral, nEst))

    // Reject a span the day offsets cannot hold before allocating them.
    val first = parts.foldLeft(Long.MaxValue)(_ min _.firstDay)
    val last = parts.foldLeft(Long.MinValue)(_ max _.lastDay)
    val empty = first > last
    require(empty || first >= Int.MinValue && last <= Int.MaxValue && last - first < MaxDays,
      s"time column '$time' spans days $first to $last; a driver copy holds at most $MaxDays days")
    val firstDay = if (empty) 0 else first.toInt

    // Group the rows by day with a counting sort; `slot(j)` is row j's
    // position in day order. Loops over rows are `while` loops, which the
    // JIT compiles to plain array code; a closure per row costs a call.
    val day = parts.flatMap(_.day)
    val n = day.length
    val dayStart = new Array[Int](if (empty) 1 else (last - first + 2).toInt)
    var j = 0
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
      dimNames(k) -> DimColumn(dimNames(k), integral(k), dict.toArray, codes)
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
    * held as 0, which adds nothing, as SUM skips it. `day` holds each time
    * stamp's low 32 bits, which are its day once `[firstDay, lastDay]` is
    * known to lie within `Int`.
    */
  private final class Part(val nullTime: Int, val firstDay: Long, val lastDay: Long,
                           val day: Array[Int],
                           val codes: Array[Array[Int]], val dicts: Array[Array[Any]],
                           val est: Array[Array[Double]]) extends Serializable

  private object Part {

    /** Fill a [[Part]] from rows of (time as long, dimensions with integral
      * ones as long, estimates as double).
      */
    def fill(rows: Iterator[InternalRow], integral: Array[Boolean], nEst: Int): Part = {
      val nDims = integral.length
      var nullTime = 0
      var firstDay = Long.MaxValue
      var lastDay = Long.MinValue
      val day = new ArrayBuilder.ofInt
      val codes = Array.fill(nDims)(new ArrayBuilder.ofInt)
      val codeOf = Array.fill(nDims)(new java.util.HashMap[Any, Integer]())
      val dicts = Array.fill(nDims)(ArrayBuffer.empty[Any])
      val est = Array.fill(nEst)(new ArrayBuilder.ofDouble)
      rows.foreach { r =>
        if (r.isNullAt(0)) nullTime += 1
        else {
          val t = r.getLong(0)
          firstDay = math.min(firstDay, t)
          lastDay = math.max(lastDay, t)
          day += t.toInt
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
      new Part(nullTime, firstDay, lastDay, day.result(), codes.map(_.result()),
        dicts.map(_.map { case s: UTF8String => s.toString; case v => v }.toArray),
        est.map(_.result()))
    }
  }
}

/** One dictionary-encoded dimension, held as a row index per dictionary
  * entry: an entry that holds at least 1/[[DimColumn.DenseShare]] of the
  * copy's rows keeps them as a bitmap (`bits(c)`, bit `i` for row `i`), a
  * rarer one as its ascending row positions (`rows(c)`). Entry `c` has
  * exactly one of the two, so a dimension costs at most 8 bytes a row,
  * whatever its cardinality. An entry may be null, and null never matches.
  */
private[core] final class DimColumn private (name: String, integral: Boolean, dict: Array[Any],
                                             bits: Array[Array[Long]],
                                             rows: Array[Array[Int]]) {
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

  /** Set the bit `i - 64 * (lo / 64)` of `words` for each row `i` in
    * `[lo, hi)` whose entry `accepted` marks; `words` covers the 64-row words
    * of `[lo, hi)` and comes in zeroed. Bits of rows outside `[lo, hi)` are
    * left undefined. When more than half of the entries are accepted, the
    * rejected ones are ORed and the result complemented.
    */
  def select(accepted: Array[Boolean], words: Array[Long], lo: Int, hi: Int): Unit = {
    val complement = 2 * accepted.count(identity) > accepted.length
    val w0 = lo >>> 6
    var c = 0
    while (c < accepted.length) {
      if (accepted(c) != complement) {
        val b = bits(c)
        if (b != null) {
          var w = 0
          while (w < words.length) { words(w) |= b(w0 + w); w += 1 }
        } else {
          val r = rows(c)
          val from = java.util.Arrays.binarySearch(r, lo)
          var j = if (from >= 0) from else -from - 1
          while (j < r.length && r(j) < hi) {
            val i = r(j) - (w0 << 6)
            words(i >>> 6) |= 1L << i
            j += 1
          }
        }
      }
      c += 1
    }
    if (complement) {
      var w = 0
      while (w < words.length) { words(w) = ~words(w); w += 1 }
    }
  }

  /** Bytes of the row index. */
  def bytes: Long =
    bits.iterator.filter(_ != null).map(8L * _.length).sum +
      rows.iterator.filter(_ != null).map(4L * _.length).sum

  private def long(v: Any): Long = v.asInstanceOf[Number].longValue
}

private[core] object DimColumn {

  /** An entry holding at least `1 / DenseShare` of the rows is a bitmap. */
  val DenseShare = 64

  private val DecimalLit = """[+-]?(?:\d+\.?\d*|\.\d+)""".r
  private val DoubleLit = """[+-]?(?:\d+\.?\d*|\.\d+)[eE][+-]?\d+""".r

  /** The dimension whose row `i` holds `dict(codes(i))`. The index is built
    * here rather than in a constructor body, whose loops the JIT may leave
    * interpreted: it runs once per copy.
    */
  def apply(name: String, integral: Boolean, dict: Array[Any], codes: Array[Int]): DimColumn = {
    val n = codes.length
    val count = new Array[Int](dict.length)
    var i = 0
    while (i < n) { count(codes(i)) += 1; i += 1 }
    val bits = new Array[Array[Long]](dict.length)
    val rows = new Array[Array[Int]](dict.length)
    var c = 0
    while (c < dict.length) {
      if (count(c).toLong * DenseShare >= n) bits(c) = new Array[Long]((n + 63) >>> 6)
      else rows(c) = new Array[Int](count(c))
      c += 1
    }
    val filled = new Array[Int](dict.length)
    i = 0
    while (i < n) {
      val e = codes(i)
      if (bits(e) != null) bits(e)(i >>> 6) |= 1L << i
      else { rows(e)(filled(e)) = i; filled(e) += 1 }
      i += 1
    }
    new DimColumn(name, integral, dict, bits, rows)
  }
}

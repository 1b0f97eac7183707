package repro

import org.apache.spark.sql.ColumnName

/** SparkSpec plus the `$"col"` interpolator and [[failure]]. Suites that
  * need the full `spark.implicits._` (e.g. `Seq(...).toDF`) can bind a
  * stable identifier locally: `val ss = spark; import ss.implicits._`.
  */
trait SparkFunSpec extends SparkSpec {
  protected implicit class StringToCol(sc: StringContext) {
    def $(args: Any*): ColumnName = new ColumnName(sc.s(args: _*))
  }

  /** The messages of the exception `f` throws and of its causes, one a line:
    * Spark wraps an error raised in a task in several layers.
    */
  protected def failure(f: => Any): String = {
    val e = intercept[Exception](f)
    Iterator.iterate[Throwable](e)(_.getCause).takeWhile(_ != null)
      .map(t => String.valueOf(t.getMessage)).mkString("\n")
  }
}

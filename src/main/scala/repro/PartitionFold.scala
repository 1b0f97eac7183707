package repro

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.catalyst.InternalRow
import org.apache.spark.sql.execution.SQLExecution
import scala.reflect.ClassTag

/** The one way a relation comes to the driver: one Spark job, labelled
  * `name`, in which each partition folds its Catalyst rows of `df` (no `Row`
  * per row) into one value, returned in partition order.
  */
object PartitionFold {
  def apply[T: ClassTag](df: DataFrame, name: String)(
      fold: Iterator[InternalRow] => T): Array[T] = {
    val qe = df.queryExecution
    SQLExecution.withNewExecutionId(qe, Some(name))(
      qe.toRdd.mapPartitions(rows => Iterator(fold(rows))).collect())
  }
}

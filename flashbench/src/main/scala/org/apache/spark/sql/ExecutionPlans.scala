package org.apache.spark.sql

import org.apache.spark.sql.execution.SparkPlan
import org.apache.spark.sql.execution.ui.SparkListenerSQLExecutionEnd

/** The executed physical plan carried by a SQL execution-end event, the
  * event that `QueryExecutionListener`s are fed from. Spark keeps the field
  * package-private, hence this package.
  */
object ExecutionPlans {
  def of(e: SparkListenerSQLExecutionEnd): Option[SparkPlan] = Option(e.qe).map(_.executedPlan)
}

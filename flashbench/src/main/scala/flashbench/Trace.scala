package flashbench

import java.lang.management.ManagementFactory
import org.apache.spark.ListenerDrain
import org.apache.spark.scheduler._
import org.apache.spark.sql.{ExecutionPlans, SparkSession}
import org.apache.spark.sql.execution.SparkPlan
import org.apache.spark.sql.execution.adaptive.{AdaptiveSparkPlanExec, QueryStageExec}
import org.apache.spark.sql.execution.ui.SparkListenerSQLExecutionEnd
import scala.collection.mutable

/** One timed call into a layer, recorded from outside the product.
  * `op` is the op id (-1 for set-up), `parent` the enclosing span (-1 for a
  * root). Times are `System.nanoTime`.
  */
final case class Span(op: Int, id: Int, parent: Int, name: String,
                      start: Long, end: Long, allocBytes: Long) {
  def nanos: Long = end - start
}

/** Spark work done inside one span. Jobs are tied to the span through the
  * `flashbench.span` local property, and the physical plans of finished
  * queries (with their row and shuffle metrics) through the SQL execution
  * id those jobs carry.
  */
final class SparkWork {
  var jobs = 0
  var stages = 0
  var tasks = 0
  var firstJobStartMs = Long.MaxValue
  var lastJobEndMs = Long.MinValue
  var taskBusyMs = 0L
  var schedDelayMs = 0L
  var rowsScanned = 0L
  var rowsMatched = 0L
  var shuffleBytes = 0L
}

/** Keeps spans in memory and listens on the `SparkContext`. Only the
  * traced run creates one.
  */
final class Tracer(spark: SparkSession) {
  import Tracer._

  val spans = mutable.ArrayBuffer.empty[Span]
  private val work = mutable.Map.empty[Int, SparkWork]
  private var stack: List[Int] = Nil
  private var nextId = 0
  private var currentOp = -1
  private val sc = spark.sparkContext

  // Listener event times are epoch milliseconds; spans use nanoTime.
  private val nano0 = System.nanoTime()
  private val epochMs0 = System.currentTimeMillis()
  def epochMsToNano(ms: Long): Long = nano0 + (ms - epochMs0) * 1000000L

  private object jobs extends SparkListener {
    private val stageSpan = mutable.Map.empty[Int, Int]
    private val jobSpan = mutable.Map.empty[Int, Int]
    val executionSpan = mutable.Map.empty[Long, Int]
    val plans = mutable.ArrayBuffer.empty[(Long, SparkPlan)]

    override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
      Option(e.properties).flatMap(p => Option(p.getProperty(SpanKey))).foreach { s =>
        val id = s.toInt
        val w = workOf(id)
        w.jobs += 1
        w.firstJobStartMs = math.min(w.firstJobStartMs, e.time)
        jobSpan(e.jobId) = id
        e.stageIds.foreach(stageSpan(_) = id)
        Option(e.properties.getProperty(ExecutionIdKey)).foreach(x => executionSpan(x.toLong) = id)
      }
    }
    override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
      jobSpan.remove(e.jobId).foreach { id =>
        val w = workOf(id)
        w.lastJobEndMs = math.max(w.lastJobEndMs, e.time)
      }
    }
    override def onStageCompleted(e: SparkListenerStageCompleted): Unit = synchronized {
      stageSpan.get(e.stageInfo.stageId).foreach(workOf(_).stages += 1)
    }
    override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
      stageSpan.get(e.stageId).foreach { id =>
        val w = workOf(id)
        w.tasks += 1
        val m = e.taskMetrics
        if (m != null) {
          w.taskBusyMs += m.executorRunTime
          w.schedDelayMs += math.max(0L, e.taskInfo.duration - m.executorRunTime -
            m.executorDeserializeTime - m.resultSerializationTime)
        }
      }
    }
    override def onOtherEvent(e: SparkListenerEvent): Unit = e match {
      case end: SparkListenerSQLExecutionEnd => synchronized {
        ExecutionPlans.of(end).foreach(p => plans += ((end.executionId, p)))
      }
      case _ => ()
    }
  }

  sc.addSparkListener(jobs)

  private def workOf(id: Int): SparkWork = work.getOrElseUpdate(id, new SparkWork)

  /** Run `body` as a root span of op `op`. */
  def op[A](op: Int)(body: => A): A = {
    currentOp = op
    try span("op")(body) finally currentOp = -1
  }

  /** Run `body` as a span named `name` under the innermost open span. */
  def span[A](name: String)(body: => A): A = {
    val id = nextId
    nextId += 1
    val parent = stack.headOption.getOrElse(-1)
    stack = id :: stack
    sc.setLocalProperty(SpanKey, id.toString)
    val alloc0 = threadAllocated()
    val start = System.nanoTime()
    try body
    finally {
      val end = System.nanoTime()
      val alloc = threadAllocated() - alloc0
      stack = stack.tail
      sc.setLocalProperty(SpanKey, stack.headOption.map(_.toString).orNull)
      spans += Span(currentOp, id, parent, name, start, end, alloc)
    }
  }

  /** Wait for every pending listener event, then fold finished query plans
    * into the work of the span that ran them.
    */
  def settle(): Unit = {
    ListenerDrain(sc)
    val done = jobs.synchronized { val p = jobs.plans.toList; jobs.plans.clear(); p }
    done.foreach { case (execution, plan) =>
      jobs.synchronized(jobs.executionSpan.remove(execution)).foreach { id =>
        val w = jobs.synchronized(workOf(id))
        nodes(plan).foreach { n =>
          def metric(k: String) = n.metrics.get(k).map(_.value).getOrElse(0L)
          n.getClass.getSimpleName match {
            case "InMemoryTableScanExec" | "FileSourceScanExec" =>
              w.rowsScanned += metric("numOutputRows")
            case "FilterExec" => w.rowsMatched += metric("numOutputRows")
            case "ShuffleExchangeExec" => w.shuffleBytes += metric("dataSize")
            case _ => ()
          }
        }
      }
    }
  }

  def sparkWork(spanId: Int): SparkWork = jobs.synchronized(work.getOrElse(spanId, new SparkWork))

  def close(): Unit = sc.removeSparkListener(jobs)
}

object Tracer {
  val SpanKey = "flashbench.span"
  private val ExecutionIdKey = "spark.sql.execution.id"

  private val threads = ManagementFactory.getThreadMXBean
    .asInstanceOf[com.sun.management.ThreadMXBean]

  /** Bytes allocated so far by the calling thread. */
  def threadAllocated(): Long = threads.getCurrentThreadAllocatedBytes

  /** Every physical node of a plan, looking through adaptive query stages. */
  def nodes(p: SparkPlan): Seq[SparkPlan] = p match {
    case a: AdaptiveSparkPlanExec => nodes(a.executedPlan)
    case q: QueryStageExec => q +: nodes(q.plan)
    case other => other +: other.children.flatMap(nodes)
  }

  /** Self time of each span: its duration minus what its children cover.
    * Children of a span run one after another, so their durations add.
    */
  def selfNanos(spans: Seq[Span]): Map[Int, Long] = {
    val childNanos = spans.groupMapReduce(_.parent)(_.nanos)(_ + _)
    spans.map(s => s.id -> (s.nanos - childNanos.getOrElse(s.id, 0L))).toMap
  }

  /** Total and count of collections over all JVM garbage collectors. */
  def gcTotals(): (Long, Long) = {
    val beans = ManagementFactory.getGarbageCollectorMXBeans.toArray
      .map(_.asInstanceOf[java.lang.management.GarbageCollectorMXBean])
    (beans.map(b => math.max(0L, b.getCollectionTime)).sum,
      beans.map(b => math.max(0L, b.getCollectionCount)).sum)
  }
}

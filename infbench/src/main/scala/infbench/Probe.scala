package infbench

import java.lang.management.ManagementFactory
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import org.apache.spark.scheduler._
import org.apache.spark.sql.SparkSession
import org.apache.spark.sql.catalyst.QueryPlanningTracker
import org.apache.spark.sql.execution.QueryExecution
import org.apache.spark.sql.execution.ui.{SparkListenerSQLExecutionEnd, SparkListenerSQLExecutionStart}
import org.apache.spark.sql.util.QueryExecutionListener

/** Cumulative counters, read before and after each timed call. */
final case class Counters(
    resultBytes: Long, jobs: Long, tasks: Long, taskCpuNs: Long,
    shuffleWriteBytes: Long, sqlActions: Long, planningMs: Long,
    callerCpuNs: Long, callerAllocBytes: Long, gcMs: Long,
) {
  def -(o: Counters): Counters = Counters(
    resultBytes - o.resultBytes, jobs - o.jobs, tasks - o.tasks, taskCpuNs - o.taskCpuNs,
    shuffleWriteBytes - o.shuffleWriteBytes, sqlActions - o.sqlActions,
    planningMs - o.planningMs, callerCpuNs - o.callerCpuNs,
    callerAllocBytes - o.callerAllocBytes, gcMs - o.gcMs)
}

/** One traced interval. Times are wall-clock milliseconds since the epoch. */
final case class Span(id: Long, parent: Long, name: String,
                      startMs: Double, endMs: Double, attrs: Map[String, Any]) {
  def toJson: Map[String, Any] = Map("id" -> id, "parent" -> parent, "name" -> name,
    "start_ms" -> startMs, "end_ms" -> endMs, "attrs" -> attrs)
}

/** Measures the program from outside: a `SparkListener` for jobs, tasks and
  * SQL executions, a `QueryExecutionListener` for actions and Catalyst
  * planning time, and the JVM's thread and GC beans. Untraced, it only sums
  * the bytes tasks return to the caller (an end-to-end metric); traced, it
  * also keeps every job and SQL execution as a span.
  */
final class Probe(spark: SparkSession, val traced: Boolean) extends SparkListener {
  private val sc = spark.sparkContext
  private val threads = ManagementFactory.getThreadMXBean
    .asInstanceOf[com.sun.management.ThreadMXBean]
  private val gcBeans = ManagementFactory.getGarbageCollectorMXBeans.asScala.toSeq

  // Written on the listener-bus thread, read after `drain()`.
  @volatile private var resultBytes, jobs, tasks, taskCpuNs, shuffleWrite = 0L
  @volatile private var sqlActions, planningMs = 0L
  private val jobStarts  = mutable.Map.empty[Int, (Long, Option[Long])]
  private val sqlStarts  = mutable.Map.empty[Long, (Long, String)]
  private val sparkSpans = mutable.ArrayBuffer.empty[Span]
  private var nextId     = 1L
  private val callSpans  = mutable.ArrayBuffer.empty[Span]

  sc.addSparkListener(this)
  if (traced) spark.listenerManager.register(new QueryExecutionListener {
    def onSuccess(funcName: String, qe: QueryExecution, durationNs: Long): Unit = record(qe)
    def onFailure(funcName: String, qe: QueryExecution, e: Exception): Unit = record(qe)
    private def record(qe: QueryExecution): Unit = Probe.this.synchronized {
      sqlActions += 1
      val phases = qe.tracker.phases
      planningMs += Seq(QueryPlanningTracker.ANALYSIS, QueryPlanningTracker.OPTIMIZATION,
        QueryPlanningTracker.PLANNING).flatMap(phases.get).map(_.durationMs).sum
    }
  })

  def newId(): Long = synchronized { val id = nextId; nextId += 1; id }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    val m = e.taskMetrics
    if (m != null) {
      resultBytes += m.resultSize
      if (traced) {
        tasks += 1
        taskCpuNs += m.executorCpuTime
        shuffleWrite += m.shuffleWriteMetrics.bytesWritten
      }
    }
  }

  override def onJobStart(e: SparkListenerJobStart): Unit = if (traced) synchronized {
    jobs += 1
    val exec = Option(e.properties)
      .flatMap(p => Option(p.getProperty("spark.sql.execution.id"))).map(_.toLong)
    jobStarts(e.jobId) = (e.time, exec)
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = if (traced) synchronized {
    jobStarts.remove(e.jobId).foreach { case (t0, exec) =>
      sparkSpans += Span(newId(), exec.map(x => -x - 1).getOrElse(0L), "spark.job",
        t0.toDouble, e.time.toDouble, Map("job_id" -> e.jobId) ++ exec.map("sql_execution_id" -> _))
    }
  }

  override def onOtherEvent(e: SparkListenerEvent): Unit = if (traced) synchronized {
    e match {
      case s: SparkListenerSQLExecutionStart =>
        sqlStarts(s.executionId) = (s.time, s.description)
      case s: SparkListenerSQLExecutionEnd =>
        sqlStarts.remove(s.executionId).foreach { case (t0, desc) =>
          // Provisional id -(execId+1) lets jobs point at it until `spans`.
          sparkSpans += Span(-s.executionId - 1, 0L, "sql.action", t0.toDouble, s.time.toDouble,
            Map("sql_execution_id" -> s.executionId, "description" -> desc.take(80)))
        }
      case _ =>
    }
  }

  /** Wait for the listener bus, so counters cover every finished call. */
  def drain(): Unit = org.apache.spark.sql.infbench.SparkInternals.drainListeners(spark)

  def snapshot(): Counters = {
    drain()
    synchronized {
      Counters(resultBytes, jobs, tasks, taskCpuNs, shuffleWrite, sqlActions, planningMs,
        threads.getCurrentThreadCpuTime, threads.getCurrentThreadAllocatedBytes,
        gcBeans.map(_.getCollectionTime).filter(_ >= 0).sum)
    }
  }

  /** Wall-clock time of the Spark job intervals inside `[t0, t1]`, overlaps
    * counted once.
    */
  def jobWallMs(t0: Double, t1: Double): Double = synchronized {
    val iv = sparkSpans.iterator.filter(s => s.name == "spark.job" && s.startMs >= t0 && s.startMs <= t1)
      .map(s => (s.startMs, s.endMs)).toSeq.sortBy(_._1)
    var total = 0.0
    var (cs, ce) = (Double.NaN, Double.NaN)
    iv.foreach { case (s, e) =>
      if (cs.isNaN || s > ce) { if (!cs.isNaN) total += ce - cs; cs = s; ce = e }
      else ce = math.max(ce, e)
    }
    if (!cs.isNaN) total += ce - cs
    total
  }

  def addCallSpan(s: Span): Unit = synchronized { callSpans += s }

  /** Every span of the run: calls and passes as recorded, and Spark jobs and
    * SQL actions hung under the SQL action or call that encloses them.
    */
  def spans: Seq[Span] = synchronized {
    val calls = callSpans.filter(_.name.startsWith("call."))
    def enclosing(t: Double): Long =
      calls.find(c => t >= c.startMs - 1 && t <= c.endMs + 1).map(_.id).getOrElse(0L)
    val execIds = mutable.Map.empty[Long, Long]
    val sql = sparkSpans.filter(_.name == "sql.action").map { s =>
      val id = newId(); execIds(s.id) = id
      s.copy(id = id, parent = enclosing(s.startMs))
    }
    val jobsOut = sparkSpans.filter(_.name == "spark.job").map { j =>
      j.copy(parent = execIds.getOrElse(j.parent, enclosing(j.startMs)))
    }
    callSpans.toSeq ++ sql ++ jobsOut
  }
}

object Probe {
  /** Wall clock in milliseconds with sub-millisecond resolution. */
  private val (epochMs, nanos0) = (System.currentTimeMillis().toDouble, System.nanoTime())
  def nowMs: Double = epochMs + (System.nanoTime() - nanos0) / 1e6
}

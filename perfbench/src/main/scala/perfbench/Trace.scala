package perfbench

import java.lang.management.ManagementFactory
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import org.apache.spark.SparkContext
import org.apache.spark.scheduler._

/** One timed interval around a call into a layer. `parent` is the id of the
  * span that was open when this one started (-1 at the top level).
  */
final case class Span(id: Int, parent: Int, name: String, startNs: Long, var endNs: Long = -1L) {
  def seconds: Double = (endNs - startNs) / 1e9
}

/** In-memory span recorder. When disabled, `span` only runs its body, so the
  * untimed run pays nothing. Spans nest by a stack: the driver-side pipeline
  * is single-threaded. Each open span is also set as a Spark local property,
  * so the listener can charge every task to the span whose job ran it.
  */
final class Tracer(val enabled: Boolean) {
  val spans = mutable.ArrayBuffer[Span]()
  private var stack: List[Span] = Nil
  @volatile private var sc: Option[SparkContext] = None
  val listener = new TaskListener

  def attach(context: SparkContext): Unit = if (enabled) {
    sc = Some(context)
    context.addSparkListener(listener)
  }

  def span[T](name: String)(body: => T): T =
    if (!enabled) body
    else {
      val s = Span(spans.length, stack.headOption.map(_.id).getOrElse(-1), name, System.nanoTime())
      spans += s
      stack = s :: stack
      sc.foreach(_.setLocalProperty(Tracer.SpanKey, s.id.toString))
      try body
      finally {
        s.endNs = System.nanoTime()
        stack = stack.tail
        sc.foreach(_.setLocalProperty(Tracer.SpanKey, stack.headOption.map(_.id.toString).orNull))
      }
    }

  /** Span time minus the part of it that its child spans cover. */
  def selfSeconds(s: Span): Double = {
    val kids = spans.filter(_.parent == s.id).map(k => (k.startNs, k.endNs)).sortBy(_._1)
    var covered = 0L
    var end = Long.MinValue
    for ((a, b) <- kids) {
      val from = math.max(a, end)
      if (b > from) covered += b - from
      end = math.max(end, b)
    }
    (s.endNs - s.startNs - covered) / 1e9
  }

  /** Blocks until the listener has seen every event posted so far: a marker
    * job's end is delivered after every earlier task event on the same queue.
    */
  def drain(): Unit = sc.foreach { c =>
    if (enabled) {
      c.setLocalProperty(Tracer.SpanKey, null)
      val before = listener.jobsEnded
      c.parallelize(Seq(1), 1).count()
      val deadline = System.nanoTime() + 10_000_000_000L
      while (listener.jobsEnded <= before && System.nanoTime() < deadline) Thread.sleep(5)
    }
  }
}

object Tracer {
  val SpanKey = "perfbench.span"
}

/** Counts finished tasks and their executor run time per span, so a Spark
  * layer's busy time can be set against the wall time of its span.
  */
final class TaskListener extends SparkListener {
  private val stageSpan = new java.util.concurrent.ConcurrentHashMap[Int, Int]()
  private val tasks = new java.util.concurrent.ConcurrentHashMap[Int, java.lang.Long]()
  private val taskMs = new java.util.concurrent.ConcurrentHashMap[Int, java.lang.Long]()
  @volatile var jobsEnded = 0

  override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit = {
    val id = Option(e.properties).flatMap(p => Option(p.getProperty(Tracer.SpanKey)))
    stageSpan.put(e.stageInfo.stageId, id.map(_.toInt).getOrElse(-1))
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = {
    val span = stageSpan.getOrDefault(e.stageId, -1)
    val ms = Option(e.taskMetrics).map(_.executorRunTime).getOrElse(0L)
    tasks.merge(span, 1L, (a, b) => a + b)
    taskMs.merge(span, ms, (a, b) => a + b)
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = jobsEnded += 1

  def tasksOf(span: Int): Long = Option(tasks.get(span)).map(_.longValue).getOrElse(0L)
  def taskSecondsOf(span: Int): Double = Option(taskMs.get(span)).map(_.longValue / 1e3).getOrElse(0.0)
}

/** JVM-wide counters read at the end of a run. */
object Jvm {
  def gcSeconds: Double =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime.max(0L)).sum / 1e3

  /** Sum of the heap pools' peak usage: an upper bound on the peak heap. */
  def heapPeakMb: Double =
    ManagementFactory.getMemoryPoolMXBeans.asScala
      .filter(_.getType == java.lang.management.MemoryType.HEAP)
      .map(_.getPeakUsage.getUsed).sum / (1024.0 * 1024.0)
}

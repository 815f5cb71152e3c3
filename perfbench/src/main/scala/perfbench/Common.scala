package perfbench

import java.lang.management.ManagementFactory
import java.nio.file.{Files, Path, Paths}
import java.util.concurrent.atomic.AtomicLong
import scala.collection.mutable
import scala.jdk.CollectionConverters._

/** Command line of one benchmark run. */
final case class Opts(workload: String, seed: Long, seconds: Double, trace: Boolean, outDir: Path)

object Opts {
  /** Generation seed `Experiments.dataset` uses by default. */
  val DefaultSeed = 7L

  def parse(args: Array[String]): Opts = {
    val kv = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    Opts(
      workload = kv.getOrElse("workload", sys.error("--workload is required")),
      seed = kv.get("seed").map(_.toLong).getOrElse(DefaultSeed),
      seconds = kv.get("seconds").map(_.toDouble).getOrElse(10.0),
      trace = kv.get("trace").contains("1"),
      outDir = Paths.get(kv.getOrElse("out", "perfbench/out")).toAbsolutePath,
    )
  }
}

/** One measured metric: a value and its unit. */
final case class Metric(value: Double, unit: String)

/** What a run reports: operations attempted and failed, the named checks,
  * and the metrics in insertion order.
  */
final class Report {
  val metrics = mutable.LinkedHashMap.empty[String, Metric]
  val checks = mutable.ArrayBuffer.empty[(String, Boolean)]
  var attempted = 0L
  var failed = 0L

  def put(name: String, value: Double, unit: String): Unit = metrics(name) = Metric(value, unit)

  /** Record a named check; returns its outcome. */
  def check(name: String, ok: Boolean): Boolean = { checks += (name -> ok); ok }

  def correct: Boolean = failed == 0 && checks.forall(_._2)
}

object Stats {
  def median(xs: Iterable[Double]): Double = quantile(xs, 0.5)

  /** Linear-interpolated quantile (NaN for an empty sample). */
  def quantile(xs: Iterable[Double], p: Double): Double = {
    val s = xs.toArray.sorted
    if (s.isEmpty) Double.NaN
    else {
      val h = (s.length - 1) * p
      val lo = math.floor(h).toInt
      val hi = math.min(lo + 1, s.length - 1)
      s(lo) + (h - lo) * (s(hi) - s(lo))
    }
  }
}

/** A hand-rolled JSON writer for flat maps of strings, numbers and
  * booleans, and nested maps of those.
  */
object Json {
  def str(s: String): String = {
    val sb = new StringBuilder("\"")
    s.foreach {
      case '"'  => sb.append("\\\"")
      case '\\' => sb.append("\\\\")
      case '\n' => sb.append("\\n")
      case c if c < ' ' => sb.append(f"\\u${c.toInt}%04x")
      case c => sb.append(c)
    }
    sb.append('"').toString
  }

  def value(v: Any): String = v match {
    case null => "null"
    case d: Double => if (d.isNaN || d.isInfinite) "null" else java.lang.Double.toString(d)
    case f: Float => value(f.toDouble)
    case n: Int => n.toString
    case n: Long => n.toString
    case b: Boolean => b.toString
    case s: String => str(s)
    case RawObj(fields) => obj(fields)
    case xs: Iterable[_] => xs.map(value).mkString("[", ",", "]")
    case other => str(other.toString)
  }

  /** An object with fields in the given order. */
  final case class RawObj(fields: Seq[(String, Any)])

  def obj(fields: Seq[(String, Any)]): String =
    fields.map { case (k, v) => s"${str(k)}:${value(v)}" }.mkString("{", ",", "}")
}

/** In-memory spans: name, start, end (epoch ns), parent and attributes.
  * Every span of one run carries the same run id. Nothing is recorded
  * when tracing is off; the spans are written out once, at the end.
  */
final class Tracer(val enabled: Boolean, val runId: String) {
  import Tracer.Span

  private val ids = new AtomicLong(0)
  private val spans = new java.util.concurrent.ConcurrentLinkedQueue[Span]()
  /** Span the client thread is inside, for spans recorded by listeners. */
  @volatile var current: Long = 0L

  private val epochNs = System.currentTimeMillis() * 1000000L
  private val nanoBase = System.nanoTime()

  /** Monotonic wall clock in epoch ns, comparable with Spark's epoch-ms
    * timestamps.
    */
  def now: Long = epochNs + (System.nanoTime() - nanoBase)

  def newId(): Long = ids.incrementAndGet()

  def record(id: Long, parent: Long, name: String, startNs: Long, endNs: Long,
             attrs: (String, Any)*): Unit =
    if (enabled) spans.add(Span(id, parent, name, startNs, endNs, attrs))

  /** Run `body` inside a span named `name`, child of the current span. */
  def span[A](name: String, attrs: (String, Any)*)(body: => A): A =
    if (!enabled) body
    else {
      val id = newId()
      val parent = current
      val t0 = now
      current = id
      try body
      finally {
        current = parent
        record(id, parent, name, t0, now, attrs: _*)
      }
    }

  def size: Int = spans.size

  /** Write every span as one JSON line. */
  def writeTo(path: Path): Unit = if (enabled) {
    Files.createDirectories(path.getParent)
    val lines = spans.asScala.toSeq.sortBy(_.startNs).map { s =>
      Json.obj(Seq("run" -> runId, "id" -> s.id, "parent" -> s.parent, "name" -> s.name,
        "start_ns" -> s.startNs, "end_ns" -> s.endNs) ++ s.attrs)
    }
    Files.write(path, lines.asJava)
  }
}

object Tracer {
  final case class Span(id: Long, parent: Long, name: String, startNs: Long, endNs: Long,
                        attrs: Seq[(String, Any)])

  /** Records nothing: for the untraced phases of a traced run. */
  val off = new Tracer(false, "")
}

/** JVM-level readings: heap after GC, thread allocation, GC time. */
object Jvm {
  private val memory = ManagementFactory.getMemoryMXBean
  private val threads =
    ManagementFactory.getThreadMXBean.asInstanceOf[com.sun.management.ThreadMXBean]

  /** Heap in use after a full collection. */
  def heapAfterGc(): Long = {
    System.gc()
    memory.getHeapMemoryUsage.getUsed
  }

  def threadAllocatedBytes(): Long = threads.getCurrentThreadAllocatedBytes

  def gcMillis(): Long =
    ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).filter(_ >= 0).sum

  def maxHeapMb: Double = Runtime.getRuntime.maxMemory / 1048576.0

  /** Total size in bytes of the regular files under `dir`. */
  def dirBytes(dir: Path): Long =
    if (!Files.exists(dir)) 0L
    else {
      val st = Files.walk(dir)
      try st.iterator().asScala.filter(Files.isRegularFile(_)).map(Files.size).sum
      finally st.close()
    }
}

object Clock {
  /** Seconds taken by `body`, and its result. */
  def timed[A](body: => A): (Double, A) = {
    val t0 = System.nanoTime()
    val r = body
    ((System.nanoTime() - t0) / 1e9, r)
  }
}

package perfbench

import java.nio.file.Path
import scala.collection.immutable.ArraySeq
import scala.collection.mutable.ArrayBuffer

import org.apache.spark.sql.{Dataset, SQLContext, SparkSession}
import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import org.apache.spark.sql.streaming.StreamingQuery

import repro.core.{FreeBS, FreeRS}
import repro.data.{EdgeStream, Profile}
import repro.dist.{SlicedFree, StreamingFree}
import repro.eval.Experiments

/** The Spark side of the benchmark: one `local[4]` session, the listeners,
  * and the probes of `repro.dist`.
  */
final class SparkBench(val spark: SparkSession, val tracer: Tracer, val outDir: Path) {
  val tap = new SparkTap(tracer)
  val progress = new ProgressTap(tracer, tap)
  private var attached = false

  /** Register the listeners: only for the traced phase of a traced run. */
  def attach(): Unit = if (!attached) {
    spark.sparkContext.addSparkListener(tap)
    spark.streams.addListener(progress)
    attached = true
  }

  /** Run a Spark action under `tag`; returns its seconds and result. */
  def action[A](tag: String)(body: => A): (Double, A) = tracer.span("spark.action", "tag" -> tag) {
    tap.spanOf.put(tag, tracer.current)
    spark.sparkContext.setLocalProperty(tap.TagKey, tag)
    try Clock.timed(body)
    finally spark.sparkContext.setLocalProperty(tap.TagKey, null)
  }

  def stop(): Unit = {
    if (attached) spark.streams.removeListener(progress)
    spark.stop()
  }
}

object SparkBench {
  val Slices = 4
  val MBits: Long = Experiments.DefaultMBits
  val Regs: Int = (MBits / Experiments.RegisterWidth).toInt
  val BsSeed: Long = SeqTwitter.SketchSeed
  val RsSeed: Long = SeqTwitter.SketchSeed + 1
  /** Timed `SlicedFree` actions per sketch, after one warm-up each. */
  val SlicedReps = 1

  def session(outDir: Path): SparkSession =
    SparkSession.builder()
      .master(s"local[$Slices]")
      .appName("perfbench")
      .config("spark.sql.shuffle.partitions", Slices.toLong)
      .config("spark.ui.enabled", value = false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", outDir.resolve("spark-local").toString)
      .config("spark.sql.warehouse.dir", outDir.resolve("warehouse").toString)
      .getOrCreate()

  def orkut(seed: Long): EdgeStream = Experiments.dataset(Profile.orkut, seed = seed).stream

  /** The stream as a cached, materialised Dataset, built from the arrays. */
  def edges(spark: SparkSession, st: EdgeStream): Dataset[SlicedFree.Edge] = {
    import spark.implicits._
    val us = spark.sparkContext.broadcast(st.users)
    val is = spark.sparkContext.broadcast(st.items)
    val ds = spark.range(0L, st.length.toLong, 1L, Slices)
      .map { i => val k = i.toInt; SlicedFree.Edge(i, us.value(k), is.value(k)) }
      .cache()
    ds.count()
    ds
  }

  /** The stream cut into micro-batches of `size` edges. */
  def batches(st: EdgeStream, size: Int): Array[Array[StreamingFree.Edge]] =
    Array.tabulate((st.length + size - 1) / size) { b =>
      val lo = b * size
      Array.tabulate(math.min(size, st.length - lo)) { j =>
        val i = lo + j
        StreamingFree.Edge(i.toLong, st.users(i), st.items(i))
      }
    }

  /** Exact per-user cardinalities of the first `edges` edges. */
  def prefixTruth(st: EdgeStream, edges: Int): Array[Int] = {
    val truth = new Array[Int](st.userCount)
    val seen = new java.util.HashSet[java.lang.Long]()
    var i = 0
    while (i < edges) {
      if (seen.add(st.items(i))) truth(st.users(i).toInt) += 1 // items are unique per user
      i += 1
    }
    truth
  }

  /** Check one sketch's per-user output against `truth`. */
  def verify(report: Report, label: String, truth: Array[Int], out: Map[Long, Double],
             regsOrBits: Double, isBs: Boolean): Boolean = {
    val n = truth.map(_.toLong).sum.toDouble
    val extra = out.keys.count(u => u < 0 || u >= truth.length || truth(u.toInt) == 0)
    val varBound = if (isBs) Checks.freeBsTotalVar(n, regsOrBits) else Checks.freeRsTotalVar(n, regsOrBits)
    Checks.verify(report, label, truth, u => out.getOrElse(u, 0.0), out.contains, extra,
      out.values.sum, n, varBound, math.exp(-n / regsOrBits))
  }

  // ------------------------------------------------------------ SlicedFree

  /** `dist.sliced.*`: both sketches at P = 4 and FreeBS at P = 1 on the
    * cached input, against the sequential sketches on the same edges.
    */
  def slicedProbe(sb: SparkBench, st: EdgeStream, report: Report): Unit =
    sb.tracer.span("dist.sliced") {
      val (inSec, ds) = Clock.timed(sb.tracer.span("data.input_build")(edges(sb.spark, st)))
      report.put("data.input_build_s", inSec, "s")

      def seqSec(mk: => repro.core.UserCardinalitySketch): Double = {
        def once(): Double = {
          val sk = mk
          Clock.timed { var i = 0; while (i < st.length) { sk.update(st.users(i), st.items(i)); i += 1 } }._1
        }
        once(); once()
      }
      val seqBs = sb.tracer.span("sequential.freebs")(seqSec(new FreeBS(MBits, BsSeed)))
      val seqRs = sb.tracer.span("sequential.freers")(seqSec(new FreeRS(Regs, Experiments.RegisterWidth, RsSeed)))

      def bs(p: Int) = SlicedFree.freeBS(ds, MBits, p, BsSeed).collect()
        .map(r => r.getLong(0) -> r.getDouble(1)).toMap
      def rs(p: Int) = SlicedFree.freeRS(ds, Regs, p, Experiments.RegisterWidth, RsSeed).collect()
        .map(r => r.getLong(0) -> r.getDouble(1)).toMap
      def run(tag: String, label: String, bits: Double, isBs: Boolean)(body: => Map[Long, Double]): Double = {
        report.attempted += 1
        try {
          val (sec, out) = sb.action(tag)(body)
          if (!verify(report, label, st.truth, out, bits, isBs)) report.failed += 1
          sec
        } catch {
          case e: Exception => Console.err.println(s"$tag failed: $e"); report.failed += 1; Double.NaN
        }
      }
      run("sliced.warm.bs", "sliced FreeBS", MBits.toDouble, isBs = true)(bs(Slices))
      run("sliced.warm.rs", "sliced FreeRS", Regs.toDouble, isBs = false)(rs(Slices))
      val bsTags = (0 until SlicedReps).map(i => s"sliced.bs.$i")
      val rsTags = (0 until SlicedReps).map(i => s"sliced.rs.$i")
      val bsSec = bsTags.map(t => run(t, "sliced FreeBS", MBits.toDouble, isBs = true)(bs(Slices)))
      val rsSec = rsTags.map(t => run(t, "sliced FreeRS", Regs.toDouble, isBs = false)(rs(Slices)))
      val p1 = run("sliced.bs.p1", "sliced FreeBS P=1", MBits.toDouble, isBs = true)(bs(1))
      ds.unpersist(blocking = true)

      val totals = (bsTags ++ rsTags).map(sb.tap.await(_))
      def perAction(f: TaskTotals => Double): Double = Stats.median(totals.map(f))
      val mb = 1048576.0
      val bsMed = Stats.median(bsSec)
      val rsMed = Stats.median(rsSec)
      report.put("dist.sliced.freebs_s", bsMed, "s")
      report.put("dist.sliced.freers_s", rsMed, "s")
      report.put("dist.sliced.p1_freebs_s", p1, "s")
      report.put("dist.sliced.speedup", p1 / bsMed, "ratio")
      report.put("dist.sliced.vs_sequential", (bsMed + rsMed) / (seqBs + seqRs), "ratio")
      report.put("dist.sliced.task_cpu_s", perAction(_.cpuNs / 1e9), "s")
      report.put("dist.sliced.task_run_s", perAction(_.runMs / 1e3), "s")
      report.put("dist.sliced.gc_s", perAction(_.gcMs / 1e3), "s")
      report.put("dist.sliced.shuffle_write_mb", perAction(_.shuffleWrite / mb), "MB")
      report.put("dist.sliced.shuffle_read_mb", perAction(_.shuffleRead / mb), "MB")
      report.put("dist.sliced.spill_mb", perAction(_.spill / mb), "MB")
      report.put("dist.sliced.task_skew", perAction(_.skew), "ratio")
      report.put("dist.sliced.tasks", perAction(_.tasks.toDouble), "count")
    }
}

/** Both `StreamingFree` queries at P = 4, each fed from its own
  * `MemoryStream` by one client in a closed loop: add a micro-batch, wait
  * for `processAllAvailable`, read the query's sink, then send the next.
  */
final class StreamRig(sb: SparkBench, name: String, tracer: Tracer) {
  import SparkBench._
  private val spark = sb.spark
  import spark.implicits._
  private implicit val sqlCtx: SQLContext = spark.sqlContext

  val ckpt: Path = sb.outDir.resolve("checkpoints").resolve(s"$name-${sb.tracer.runId}")
  private val bsIn = MemoryStream[StreamingFree.Edge]
  private val rsIn = MemoryStream[StreamingFree.Edge]
  private def start(df: org.apache.spark.sql.DataFrame, q: String): StreamingQuery =
    df.writeStream.outputMode("complete").format("memory").queryName(s"${name}_$q")
      .option("checkpointLocation", ckpt.resolve(q).toString).start()
  private val bsQ = start(StreamingFree.freeBSEstimates(bsIn.toDS(), MBits, Slices, BsSeed), "bs")
  private val rsQ = start(StreamingFree.freeRSEstimates(rsIn.toDS(), Regs, Slices,
    Experiments.RegisterWidth, RsSeed), "rs")

  /** Rounds sent so far; each query's batch ids count from 0. */
  var rounds = 0
  /** Edges sent to each query. */
  var edges = 0
  val bsMs = ArrayBuffer.empty[Double]
  val rsMs = ArrayBuffer.empty[Double]
  /** Tags of the timed triggers, for the listeners. */
  val tags = ArrayBuffer.empty[String]
  /** Rows per second of each timed sink read. */
  val readRates = ArrayBuffer.empty[Double]
  /** Growth of the checkpoint directory per timed trigger. */
  var ckptPerTrigger = Double.NaN

  /** Send one batch to both queries, each time reading the query's sink
    * afterwards, as a client polling the current estimates does. Records
    * the latencies and read rates when `timed`. Throws if a query fails.
    */
  def round(batch: Array[StreamingFree.Edge], timed: Boolean, report: Report): Unit = {
    for ((in, q, ms) <- Seq((bsIn, bsQ, bsMs), (rsIn, rsQ, rsMs))) {
      val tag = s"${q.id}#$rounds"
      report.attempted += 1
      try {
        val ms1 = tracer.span("stream.trigger", "tag" -> tag, "edges" -> batch.length) {
          if (tracer.enabled) sb.tap.spanOf.put(tag, tracer.current)
          val t0 = System.nanoTime()
          in.addData(ArraySeq.unsafeWrapArray(batch))
          q.processAllAvailable()
          (System.nanoTime() - t0) / 1e6
        }
        val (sec, rows) = tracer.span("stream.read", "tag" -> tag)(
          Clock.timed(spark.table(q.name).collect().length))
        if (timed) { ms += ms1; tags += tag; readRates += rows / sec }
      } catch {
        case e: Exception => report.failed += 1; throw e
      }
    }
    rounds += 1
    edges += batch.length
  }

  /** Current per-user estimates of both queries, read from their sinks. */
  def sinks(): (Map[Long, Double], Map[Long, Double]) = {
    def read(q: StreamingQuery) = spark.table(q.name).collect().map(r => r.getLong(0) -> r.getDouble(1)).toMap
    (read(bsQ), read(rsQ))
  }

  /** Stop both queries. The checkpoints stay until the run ends: the
    * state store's maintenance thread may still be writing to them.
    */
  def stop(): Unit = { bsQ.stop(); rsQ.stop() }
}

object StreamOrkut {
  import SparkBench._
  val Batch = 2000
  val BigBatch = 100000
  /** Untimed rounds before the timed ones: the per-trigger cost falls for
    * the first rounds while the JIT compiles the trigger path.
    */
  val WarmRounds = 5
  val MinTriggers = 100
  val HeapReadings = 3
  val SetupRepeats = 3
  /** A trigger slower than this counts as failed. */
  val TimeoutMs = 60000.0

  final class Setup(val sb: SparkBench, val st: EdgeStream, val batches: Array[Array[StreamingFree.Edge]],
                    val setupSec: Double, val generateSec: Double)

  /** Session start once, then replica generation and micro-batch build
    * `SetupRepeats` times; set-up time is the session start plus the median
    * of the rest.
    */
  def setup(opts: Opts, tracer: Tracer): Setup = {
    val (sessionSec, spark) = Clock.timed(tracer.span("spark.session")(session(opts.outDir)))
    val sb = new SparkBench(spark, tracer, opts.outDir)
    val gens = ArrayBuffer.empty[Double]
    val builds = ArrayBuffer.empty[Double]
    var st: EdgeStream = null
    var bs: Array[Array[StreamingFree.Edge]] = null
    for (_ <- 0 until SetupRepeats) {
      st = null; bs = null
      val (g, s1) = Clock.timed(tracer.span("data.generate")(orkut(opts.seed)))
      val (b, b1) = Clock.timed(tracer.span("data.batches")(batches(s1, Batch)))
      gens += g; builds += b
      st = s1; bs = b1
    }
    new Setup(sb, st, bs, sessionSec + Stats.median(gens.indices.map(i => gens(i) + builds(i))),
      Stats.median(gens))
  }

  /** Closed loop on a fresh pair of queries: `warm` untimed rounds,
    * then timed rounds until `seconds` have passed and at least
    * `minTriggers` triggers are timed. Then heap, checks.
    */
  def loop(s: Setup, name: String, batches: Array[Array[StreamingFree.Edge]], warm: Int,
           seconds: Double, minTriggers: Int, report: Report, e2e: Report,
           tracer: Tracer = Tracer.off): StreamRig = {
    val h0 = Jvm.heapAfterGc()
    val rig = new StreamRig(s.sb, name, tracer)
    try {
      var k = 0
      var ck0 = 0L
      try {
        while (k < warm && k < batches.length) { rig.round(batches(k), timed = false, report); k += 1 }
        ck0 = Jvm.dirBytes(rig.ckpt)
        val t0 = System.nanoTime()
        while (k < batches.length &&
               ((System.nanoTime() - t0) / 1e9 < seconds || rig.bsMs.length + rig.rsMs.length < minTriggers)) {
          rig.round(batches(k), timed = true, report)
          k += 1
        }
      } catch {
        case e: Exception => Console.err.println(s"$name stopped after a failed trigger: $e")
      }
      val timed = rig.bsMs.length + rig.rsMs.length
      Console.err.println(s"$name triggers ms: freebs ${rig.bsMs.map(_.round).mkString(" ")}; freers ${rig.rsMs.map(_.round).mkString(" ")}")
      report.failed += (rig.bsMs ++ rig.rsMs).count(_ > TimeoutMs)
      rig.ckptPerTrigger = (Jvm.dirBytes(rig.ckpt) - ck0).toDouble / math.max(1, timed)

      // Spark trims its status store and the state stores' cached versions
      // in the background; the median of a few spaced readings does not
      // depend on where that work stands.
      val heap = (Stats.median((0 until HeapReadings).map { _ =>
        Thread.sleep(300); Jvm.heapAfterGc().toDouble
      }) - h0) / 1048576.0
      val (bsOut, rsOut) = rig.sinks()
      val truth = prefixTruth(s.st, rig.edges)
      val okBs = verify(report, s"$name FreeBS", truth, bsOut, MBits.toDouble, isBs = true)
      val okRs = verify(report, s"$name FreeRS", truth, rsOut, Regs.toDouble, isBs = false)
      // A wrong final state makes every trigger of that query wrong.
      if (!okBs) report.failed += rig.rounds
      if (!okRs) report.failed += rig.rounds

      val edges = batches(0).length.toDouble
      e2e.put("freebs_edges_per_s", edges * rig.bsMs.length / (rig.bsMs.sum / 1e3), "edges/s")
      e2e.put("freers_edges_per_s", edges * rig.rsMs.length / (rig.rsMs.sum / 1e3), "edges/s")
      e2e.put("reads_per_s", Stats.median(rig.readRates), "reads/s")
      val all = rig.bsMs ++ rig.rsMs
      e2e.put("trigger_ms_p50", Stats.quantile(all, 0.5), "ms")
      e2e.put("trigger_ms_p90", Stats.quantile(all, 0.9), "ms")
      e2e.put("freebs_rse", Checks.rse(truth, u => bsOut.getOrElse(u, 0.0)), "ratio")
      e2e.put("freers_rse", Checks.rse(truth, u => rsOut.getOrElse(u, 0.0)), "ratio")
      e2e.put("sketch_heap_mb", heap, "MB")
      rig
    } finally rig.stop()
  }

  /** `dist.stream.*` from the listeners, for the timed triggers of `rig`. */
  def streamLayer(sb: SparkBench, rig: StreamRig, report: Report): Unit = {
    val progress = rig.tags.flatMap(t => sb.progress.await(t))
    val tasks = rig.tags.map(t => sb.tap.await(t))
    def dur(p: org.apache.spark.sql.streaming.StreamingQueryProgress, k: String): Double =
      Option(p.durationMs.get(k)).map(_.doubleValue).getOrElse(0.0)
    def med(f: org.apache.spark.sql.streaming.StreamingQueryProgress => Double) = Stats.median(progress.map(f))
    report.put("dist.stream.add_batch_ms", med(dur(_, "addBatch")), "ms")
    report.put("dist.stream.overhead_ms", med(p => dur(p, "triggerExecution") - dur(p, "addBatch")), "ms")
    report.put("dist.stream.state_commit_ms", med(_.stateOperators.map(_.commitTimeMs.toDouble).sum), "ms")
    report.put("dist.stream.state_update_ms", med(_.stateOperators.map(_.allUpdatesTimeMs.toDouble).sum), "ms")
    report.put("dist.stream.state_rows_total",
      progress.groupBy(_.id).values.map(_.maxBy(_.batchId).stateOperators.map(_.numRowsTotal).sum).sum.toDouble,
      "count")
    report.put("dist.stream.rows_out_per_trigger", med(_.sink.numOutputRows.toDouble), "count")
    report.put("dist.stream.checkpoint_bytes_per_trigger", rig.ckptPerTrigger, "B")
    report.put("dist.stream.shuffle_write_mb_per_trigger",
      Stats.median(tasks.map(_.shuffleWrite / 1048576.0)), "MB")
    report.put("dist.stream.tasks_per_trigger", Stats.median(tasks.map(_.tasks.toDouble)), "count")
  }

  /** `dist.stream.trigger_ms_b100k`: the loop with 100k-edge batches. */
  def bigBatches(s: Setup, report: Report, rounds: Int): Unit = s.sb.tracer.span("stream.b100k") {
    val big = batches(s.st, BigBatch).take(1 + rounds)
    val rig = loop(s, "b100k", big, warm = 1, 0, 2 * rounds, report, new Report, s.sb.tracer)
    report.put("dist.stream.trigger_ms_b100k", Stats.median(rig.bsMs ++ rig.rsMs), "ms")
  }

  def run(opts: Opts, report: Report, tracer: Tracer): Unit = {
    val s = setup(opts, tracer)
    try {
      if (!opts.trace) {
        report.put("setup_s", s.setupSec, "s")
        loop(s, "e2e", s.batches, WarmRounds, opts.seconds, MinTriggers, report, report)
      } else {
        val plain = new Report
        loop(s, "plain", s.batches, WarmRounds, opts.seconds / 4, MinTriggers / 4, report, plain)
        val traced = new Report
        s.sb.attach()
        val rig = tracer.span("traced")(loop(s, "traced", s.batches, WarmRounds, opts.seconds / 4,
          MinTriggers / 4, report, traced, tracer))
        Overhead.put(report, plain, traced)
        streamLayer(s.sb, rig, report)
        bigBatches(s, report, rounds = 2)
        slicedProbe(s.sb, s.st, report)
        report.put("data.generate_s", s.generateSec, "s")
        Layers.core(s.st, report, tracer)
        Layers.baselines(s.st, report, tracer)
      }
    } finally s.sb.stop()
  }

  /** The `repro.dist` probes alone, on the Orkut replica: for a traced run
    * of a workload that does not start Spark itself.
    */
  def distProbe(opts: Opts, report: Report, tracer: Tracer): Unit = {
    val s = setup(opts, tracer)
    try {
      s.sb.attach()
      val rig = tracer.span("traced")(loop(s, "probe", s.batches, WarmRounds, 0, MinTriggers / 4,
        report, new Report, tracer))
      streamLayer(s.sb, rig, report)
      bigBatches(s, report, rounds = 2)
      slicedProbe(s.sb, s.st, report)
    } finally s.sb.stop()
  }
}

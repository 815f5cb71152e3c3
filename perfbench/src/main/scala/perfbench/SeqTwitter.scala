package perfbench

import scala.collection.mutable.ArrayBuffer

import repro.core.{FreeBS, FreeRS, UserCardinalitySketch}
import repro.data.{EdgeStream, Profile}
import repro.eval.Experiments

/** `seq-twitter`: FreeBS and FreeRS ingest the whole Twitter replica on one
  * thread, then an anytime-read phase replays the users in arrival order
  * and reads both sketches. No SparkSession is created.
  *
  * One pass = fresh sketches, FreeBS ingest, FreeRS ingest, heap reading,
  * `ReadSweeps` read sweeps, checks. A warm-up on a prefix of the stream
  * comes first; passes repeat until the run's seconds are used. Times are
  * kept per batch and folded over the passes (see `Sample`).
  */
object SeqTwitter {
  /** Hash seed of the sketches, as `Experiments.tableIIFor` derives it. */
  val SketchSeed = 101L
  /** Edges per timed batch: the micro-batch size of `stream-orkut`. */
  val Batch = 2000
  val SetupRepeats = 3
  /** Timed passes at least, whatever the run's seconds. */
  val MinPasses = 4
  /** The same for each half of a traced run, whose numbers have no bound. */
  val TraceMinPasses = 2
  val WarmEdges = 4000000
  /** Read sweeps per pass. The time of one sweep varies with load from
    * outside the process as much between sweeps of one pass as between
    * passes, so more sweeps give a steadier median for little time.
    */
  val ReadSweeps = 2

  @volatile private var blackhole = 0.0

  def generate(seed: Long): EdgeStream = Experiments.dataset(Profile.twitter, seed = seed).stream

  def sketches(users: Int): (FreeBS, FreeRS) = {
    val all = Experiments.tableIISketches(Experiments.DefaultMBits, Experiments.DefaultVirtualM,
      users, SketchSeed)
    (all(0).asInstanceOf[FreeBS], all(1).asInstanceOf[FreeRS])
  }

  /** Ingest the first `n` edges; returns the time of every `Batch` edges,
    * in ms. `update` is called through the concrete class, so each loop's call
    * site stays monomorphic whatever the JIT saw first.
    */
  private def ingest(sk: UserCardinalitySketch, st: EdgeStream, n: Int, tracer: Tracer): Array[Double] =
    tracer.span(s"ingest.${sk.name}", "edges" -> n) {
      val us = st.users
      val is = st.items
      val batchMs = new Array[Double]((n + Batch - 1) / Batch)
      var c0 = System.nanoTime()
      var i = 0
      var b = 0
      while (i < n) {
        val end = math.min(n, i + Batch)
        sk match {
          case bs: FreeBS => while (i < end) { bs.update(us(i), is(i)); i += 1 }
          case rs: FreeRS => while (i < end) { rs.update(us(i), is(i)); i += 1 }
          case other => while (i < end) { other.update(us(i), is(i)); i += 1 }
        }
        val c1 = System.nanoTime()
        batchMs(b) = (c1 - c0) / 1e6
        b += 1
        c0 = c1
      }
      batchMs
    }

  /** Read both sketches for the users of the first `n` edges in arrival
    * order; returns the time of every `Batch` users (2 · `Batch` reads), in
    * ms.
    */
  private def reads(bs: FreeBS, rs: FreeRS, st: EdgeStream, n: Int, tracer: Tracer): Array[Double] =
    tracer.span("reads", "reads" -> 2L * n) {
      val us = st.users
      val batchMs = new Array[Double]((n + Batch - 1) / Batch)
      var acc = 0.0
      var c0 = System.nanoTime()
      var i = 0
      var b = 0
      while (i < n) {
        val end = math.min(n, i + Batch)
        while (i < end) { acc += bs.estimate(us(i)) + rs.estimate(us(i)); i += 1 }
        val c1 = System.nanoTime()
        batchMs(b) = (c1 - c0) / 1e6
        b += 1
        c0 = c1
      }
      blackhole += acc
      batchMs
    }

  /** Timings of the passes of one run, per batch: every pass does the same
    * work on each `Batch`-edge batch (and each `Batch`-user read batch), so
    * a batch's figure is its median over the passes (and read sweeps), and
    * the run's times are sums of those. Load from outside the process comes
    * and goes within seconds; a per-batch median drops the batches it hit
    * in a minority of the repeats, which a median of whole-pass times keeps.
    */
  final class Sample {
    val bsMs = ArrayBuffer.empty[Array[Double]]
    val rsMs = ArrayBuffer.empty[Array[Double]]
    val readMs = ArrayBuffer.empty[Array[Double]]
    val heapMb = ArrayBuffer.empty[Double]
    var bsRse = Double.NaN
    var rsRse = Double.NaN
  }

  /** Each batch's median over the repeats, in ms. */
  private def perBatch(reps: Seq[Array[Double]]): Array[Double] =
    Array.tabulate(reps.head.length)(b => Stats.median(reps.map(_(b))))

  /** Ingest and reads on a prefix of the stream, untimed and unchecked:
    * enough iterations for the JIT to compile the loops, in a fifth of the
    * time of a pass.
    */
  private def warmUp(st: EdgeStream): Unit = {
    val (bs, rs) = sketches(st.userCount)
    val n = math.min(st.length, WarmEdges)
    ingest(bs, st, n, Tracer.off)
    ingest(rs, st, n, Tracer.off)
    reads(bs, rs, st, n, Tracer.off)
  }

  /** One pass: ingest, heap reading, reads, checks. Adds its timings to
    * `into`.
    */
  private def pass(st: EdgeStream, report: Report, into: Sample, tracer: Tracer): Unit =
    tracer.span("pass") {
      report.attempted += 2
      try {
        val h0 = Jvm.heapAfterGc()
        val (bs, rs) = sketches(st.userCount)
        val bsMs = ingest(bs, st, st.length, tracer)
        val rsMs = ingest(rs, st, st.length, tracer)
        val heap = (Jvm.heapAfterGc() - h0) / 1048576.0
        val readMs = Seq.fill(ReadSweeps)(reads(bs, rs, st, st.length, tracer))
        val n = st.totalCardinality.toDouble
        val okBs = tracer.span("checks")(Checks.verify(report, "FreeBS", st.truth, bs.estimate,
          bs.estimate(_) > 0, 0, bs.estimatedTotal, n,
          Checks.freeBsTotalVar(n, bs.m.toDouble), bs.q))
        val okRs = tracer.span("checks")(Checks.verify(report, "FreeRS", st.truth, rs.estimate,
          rs.estimate(_) > 0, 0, rs.estimatedTotal, n,
          Checks.freeRsTotalVar(n, rs.m.toDouble), rs.q))
        if (!okBs) report.failed += 1
        if (!okRs) report.failed += 1
        Console.err.println(f"pass: freebs ${bsMs.sum / 1e3}%.3f s, freers ${rsMs.sum / 1e3}%.3f s, " +
          s"reads ${readMs.map(t => f"${t.sum / 1e3}%.3f").mkString(" ")} s, " + f"heap $heap%.1f MB")
        into.bsMs += bsMs; into.rsMs += rsMs; into.readMs ++= readMs
        into.heapMb += heap
        into.bsRse = Checks.rse(st.truth, bs.estimate)
        into.rsRse = Checks.rse(st.truth, rs.estimate)
      } catch {
        case e: Exception =>
          Console.err.println(s"pass failed: $e")
          report.failed += 2
      }
    }

  /** Timed passes for `seconds`, and at least `minPasses`. */
  def measure(st: EdgeStream, seconds: Double, minPasses: Int, report: Report, tracer: Tracer): Sample = {
    val s = new Sample
    val t0 = System.nanoTime()
    while (s.bsMs.length < minPasses || (System.nanoTime() - t0) / 1e9 < seconds) {
      val before = report.failed
      pass(st, report, s, tracer)
      if (report.failed > before) return s
    }
    s
  }

  def endToEnd(st: EdgeStream, s: Sample, report: Report): Unit = {
    val n = st.length.toDouble
    val bsMs = perBatch(s.bsMs.toSeq)
    val rsMs = perBatch(s.rsMs.toSeq)
    report.put("freebs_edges_per_s", n / (bsMs.sum / 1e3), "edges/s")
    report.put("freers_edges_per_s", n / (rsMs.sum / 1e3), "edges/s")
    report.put("reads_per_s", 2 * n / (perBatch(s.readMs.toSeq).sum / 1e3), "reads/s")
    report.put("trigger_ms_p50", Stats.quantile(bsMs ++ rsMs, 0.5), "ms")
    report.put("trigger_ms_p90", Stats.quantile(bsMs ++ rsMs, 0.9), "ms")
    report.put("freebs_rse", s.bsRse, "ratio")
    report.put("freers_rse", s.rsRse, "ratio")
    report.put("sketch_heap_mb", Stats.median(s.heapMb), "MB")
  }

  def run(opts: Opts, report: Report, tracer: Tracer): Unit = {
    val gens = ArrayBuffer.empty[Double]
    var st: EdgeStream = null
    for (_ <- 0 until SetupRepeats) {
      st = null
      val (sec, fresh) = Clock.timed(tracer.span("data.generate")(generate(opts.seed)))
      gens += sec
      st = fresh
    }
    val setup = Stats.median(gens)
    warmUp(st)
    if (!opts.trace) {
      report.put("setup_s", setup, "s")
      endToEnd(st, measure(st, opts.seconds, MinPasses, report, Tracer.off), report)
    } else {
      val plain = new Report
      endToEnd(st, measure(st, opts.seconds / 4, TraceMinPasses, report, Tracer.off), plain)
      val traced = new Report
      endToEnd(st, tracer.span("traced")(measure(st, opts.seconds / 4, TraceMinPasses, report, tracer)), traced)
      Overhead.put(report, plain, traced)
      report.put("data.generate_s", setup, "s")
      Layers.core(st, report, tracer)
      Layers.baselines(st, report, tracer)
    }
  }
}

/** Tracing overhead: each end-to-end metric traced over untraced. */
object Overhead {
  val Compared = Seq("freebs_edges_per_s", "freers_edges_per_s", "reads_per_s", "trigger_ms_p50")

  def put(report: Report, plain: Report, traced: Report): Unit = Compared.foreach { k =>
    report.put(s"trace.overhead.$k", traced.metrics(k).value / plain.metrics(k).value, "ratio")
  }
}

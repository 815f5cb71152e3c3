package perfbench

import repro.baselines.{Cse, Vhll}
import repro.core.{BitArray, FreeBS, FreeRS, Hashing, RegisterArray}
import repro.data.EdgeStream
import repro.eval.{Experiments, Harness}

/** Per-layer probes of `repro.core` and `repro.baselines`.
  *
  * Timing one edge would cost more than the work, so each public function
  * runs in its own loop over the same edges, and a span covers each chunk
  * of `Chunk` edges. A sketch's self time is its update loop minus the
  * loops of the functions it calls: the hash and the shared array.
  */
object Layers {
  val Chunk = 1 << 20
  private val Warm = 1 << 19
  /** Per-user sketch size of the baseline reference (the paper's m). */
  val BaselineM = 1024
  val BaselineWarm = 20000
  val BaselineEdges = 100000

  @volatile private var blackhole: Long = 0L

  /** Run `body(lo, hi)` over [0, n) in chunks, one span per chunk; returns
    * ns per edge.
    */
  private def loop(tracer: Tracer, name: String, n: Int)(body: (Int, Int) => Unit): Double =
    tracer.span(name, "edges" -> n) {
      val t0 = System.nanoTime()
      var lo = 0
      while (lo < n) {
        val hi = math.min(n, lo + Chunk)
        tracer.span(s"$name.chunk", "edges" -> (hi - lo))(body(lo, hi))
        lo = hi
      }
      (System.nanoTime() - t0).toDouble / math.max(1, n)
    }

  def core(st: EdgeStream, report: Report, tracer: Tracer): Unit = tracer.span("core") {
    val us = st.users
    val is = st.items
    val n = st.length
    val mBits = Experiments.DefaultMBits
    val regs = (mBits / Experiments.RegisterWidth).toInt
    val bsSeed = SeqTwitter.SketchSeed
    val rsSeed = SeqTwitter.SketchSeed + 1
    val cap = (1 << Experiments.RegisterWidth) - 1

    def hashIndex(m: Long, seed: Long)(lo: Int, hi: Int): Unit = {
      var acc = 0L; var i = lo
      while (i < hi) { acc ^= Hashing.pairIndex(us(i), is(i), m, seed); i += 1 }
      blackhole ^= acc
    }
    def hashRank(lo: Int, hi: Int): Unit = {
      var acc = 0L; var i = lo
      while (i < hi) { acc += Hashing.pairRank(us(i), is(i), cap, rsSeed); i += 1 }
      blackhole ^= acc
    }
    hashIndex(mBits, bsSeed)(0, math.min(n, Warm)); hashRank(0, math.min(n, Warm))
    val indexNs = loop(tracer, "core.hash.pair_index", n)(hashIndex(mBits, bsSeed))
    val indexRsNs = loop(tracer, "core.hash.pair_index_rs", n)(hashIndex(regs.toLong, rsSeed))
    val rankNs = loop(tracer, "core.hash.pair_rank", n)(hashRank)

    // Array loops replay precomputed positions, so they time the array alone.
    val bsPos = Array.tabulate(n)(i => Hashing.pairIndex(us(i), is(i), mBits, bsSeed))
    val rsPos = Array.tabulate(n)(i => Hashing.pairIndex(us(i), is(i), regs.toLong, rsSeed).toInt)
    val rsRank = Array.tabulate(n)(i => Hashing.pairRank(us(i), is(i), cap, rsSeed).toByte)
    def setBits(b: BitArray, counter: Array[Long])(lo: Int, hi: Int): Unit = {
      var i = lo
      while (i < hi) { if (b.set(bsPos(i))) counter(0) += 1; i += 1 }
    }
    def updRegs(r: RegisterArray, counter: Array[Long])(lo: Int, hi: Int): Unit = {
      var i = lo
      while (i < hi) { if (r.update(rsPos(i), rsRank(i))) counter(0) += 1; i += 1 }
    }
    setBits(new BitArray(mBits), Array(0L))(0, math.min(n, Warm))
    updRegs(new RegisterArray(regs, Experiments.RegisterWidth), Array(0L))(0, math.min(n, Warm))
    val flips = Array(0L)
    val setNs = loop(tracer, "core.bitarray.set", n)(setBits(new BitArray(mBits), flips))
    val grows = Array(0L)
    val regNs = loop(tracer, "core.registers.update", n)(
      updRegs(new RegisterArray(regs, Experiments.RegisterWidth), grows))

    // Calls go through the concrete classes, as in `seq-twitter`.
    def ingest(sk: repro.core.UserCardinalitySketch)(lo: Int, hi: Int): Unit = {
      var i = lo
      sk match {
        case bs: FreeBS => while (i < hi) { bs.update(us(i), is(i)); i += 1 }
        case rs: FreeRS => while (i < hi) { rs.update(us(i), is(i)); i += 1 }
        case other => while (i < hi) { other.update(us(i), is(i)); i += 1 }
      }
    }
    def read(sk: repro.core.UserCardinalitySketch)(lo: Int, hi: Int): Unit = {
      var acc = 0.0; var i = lo
      sk match {
        case bs: FreeBS => while (i < hi) { acc += bs.estimate(us(i)); i += 1 }
        case rs: FreeRS => while (i < hi) { acc += rs.estimate(us(i)); i += 1 }
        case other => while (i < hi) { acc += other.estimate(us(i)); i += 1 }
      }
      blackhole ^= java.lang.Double.doubleToRawLongBits(acc)
    }
    ingest(new FreeBS(mBits, bsSeed))(0, math.min(n, Warm))
    ingest(new FreeRS(regs, Experiments.RegisterWidth, rsSeed))(0, math.min(n, Warm))
    val gc0 = Jvm.gcMillis()
    val bs = new FreeBS(mBits, bsSeed)
    val a0 = Jvm.threadAllocatedBytes()
    val bsNs = loop(tracer, "core.freebs.update", n)(ingest(bs))
    val a1 = Jvm.threadAllocatedBytes()
    val rs = new FreeRS(regs, Experiments.RegisterWidth, rsSeed)
    val rsNs = loop(tracer, "core.freers.update", n)(ingest(rs))
    val a2 = Jvm.threadAllocatedBytes()
    val gcMs = Jvm.gcMillis() - gc0
    read(bs)(0, math.min(n, Warm)); read(rs)(0, math.min(n, Warm))
    val bsReadNs = loop(tracer, "core.freebs.estimate", n)(read(bs))
    val rsReadNs = loop(tracer, "core.freers.estimate", n)(read(rs))

    report.put("core.hash.pair_index_ns", indexNs, "ns")
    report.put("core.hash.pair_rank_ns", rankNs, "ns")
    report.put("core.bitarray.set_ns", setNs, "ns")
    report.put("core.bitarray.flip_ratio", flips(0).toDouble / n, "ratio")
    report.put("core.registers.update_ns", regNs, "ns")
    report.put("core.registers.grow_ratio", grows(0).toDouble / n, "ratio")
    report.put("core.freebs.update_ns", bsNs, "ns")
    report.put("core.freers.update_ns", rsNs, "ns")
    report.put("core.freebs.self_ns", bsNs - indexNs - setNs, "ns")
    report.put("core.freers.self_ns", rsNs - indexRsNs - rankNs - regNs, "ns")
    report.put("core.freebs.estimate_ns", bsReadNs, "ns")
    report.put("core.freers.estimate_ns", rsReadNs, "ns")
    report.put("core.freebs.alloc_bytes_per_edge", (a1 - a0).toDouble / n, "B")
    report.put("core.freers.alloc_bytes_per_edge", (a2 - a1).toDouble / n, "B")
    report.put("core.gc_ms", gcMs.toDouble, "ms")
    report.put("core.freebs.q_end", bs.q, "ratio")
    report.put("core.freers.q_end", rs.q, "ratio")
  }

  /** CSE and vHLL at m = 1024 on a fixed prefix of the stream, as the
    * reference for the paper's Figure 3 gap.
    */
  def baselines(st: EdgeStream, report: Report, tracer: Tracer): Unit = tracer.span("baselines") {
    val mBits = Experiments.DefaultMBits
    val regs = (mBits / Experiments.RegisterWidth).toInt
    val seed = SeqTwitter.SketchSeed
    val measured = math.min(BaselineEdges, st.length - BaselineWarm)
    val cse = tracer.span("baselines.cse.update", "edges" -> measured)(
      Harness.timed(new Cse(mBits, BaselineM, seed + 2), st.users, st.items, BaselineWarm, measured))
    val vhll = tracer.span("baselines.vhll.update", "edges" -> measured)(
      Harness.timed(new Vhll(regs, BaselineM, Experiments.RegisterWidth, seed + 3),
        st.users, st.items, BaselineWarm, measured))
    report.put("baselines.cse.update_ns", cse, "ns")
    report.put("baselines.vhll.update_ns", vhll, "ns")
  }
}

package repro.core

/** A mutable array of `size` registers of `width` bits each, with the
  * running sum `Σ_j 2^{-R[j]}` maintained incrementally.
  *
  * This is the shared-array substrate of FreeRS and vHLL: O(1) max-update,
  * and `sumPow2Neg` gives the Horvitz–Thompson probability
  * `q_R = sumPow2Neg / size` in O(1) at every step.
  *
  * Register values saturate at `maxValue = 2^width - 1` (e.g. 31 for the
  * paper's 5-bit registers). For width ≤ 5 and size ≤ 2^21 the incremental
  * sum is *exact* in a Double: every term is a multiple of 2^-31 and the
  * total is ≤ size, which fits in the 53-bit mantissa.
  *
  * Built from saved state ([[regs]] and their [[sumPow2Neg]]), the array
  * adopts it without a copy and recounts the zero registers.
  */
final class RegisterArray(val size: Int, val width: Int, val regs: Array[Byte],
                          private var sumPow: Double) {
  require(width >= 1 && width <= 6, s"register width must be in [1,6], got $width")
  require(regs.length == RegisterArray.checkedSize(size), s"$size registers expected, got ${regs.length}")

  /** An all-zero array of `size` registers: `Σ_j 2^0 = size`. */
  def this(size: Int, width: Int) =
    this(size, width, new Array[Byte](RegisterArray.checkedSize(size)), size.toDouble)

  val maxValue: Int = (1 << width) - 1

  private var zeroRegs: Int = countZero

  private val pow2Neg: Array[Double] = Array.tabulate(maxValue + 1)(k => math.pow(2.0, -k))

  /** Current value of register `i`. */
  def get(i: Int): Int = {
    require(i >= 0 && i < size, s"register index $i out of [0, $size)")
    regs(i).toInt
  }

  /** `max`-update register `i` with rank `r`; returns true iff it grew. */
  def update(i: Int, r: Int): Boolean = {
    require(i >= 0 && i < size, s"register index $i out of [0, $size)")
    require(r >= 0, s"rank must be non-negative, got $r")
    val clamped = math.min(r, maxValue)
    val old = regs(i).toInt
    if (clamped > old) {
      sumPow += pow2Neg(clamped) - pow2Neg(old)
      if (old == 0) zeroRegs -= 1
      regs(i) = clamped.toByte
      true
    } else false
  }

  /** The FreeRS step: `max`-update register `i` with rank `r`; return the
    * Horvitz–Thompson increment `1 / (Σ_j 2^{-R[j]} / size)` (sum before the
    * update), or 0.0 if the register did not grow.
    */
  def offer(i: Int, r: Int): Double = {
    val qPre = sumPow / size
    if (update(i, r)) 1.0 / qPre else 0.0
  }

  /** Incrementally maintained `Σ_j 2^{-R[j]}`. */
  def sumPow2Neg: Double = sumPow

  /** Recompute `Σ_j 2^{-R[j]}` from scratch (O(size)); test cross-check. */
  def recomputeSumPow2Neg: Double = {
    var s = 0.0
    var i = 0
    while (i < size) { s += pow2Neg(regs(i).toInt); i += 1 }
    s
  }

  /** Number of registers still equal to zero, tracked incrementally (O(1);
    * used by the linear-counting small-range regime of HLL-style
    * estimators on the *shared* array, where an O(size) scan per update
    * would be prohibitive).
    */
  def zeros: Int = zeroRegs

  /** Recount of zero registers by scanning (O(size)); test cross-check of
    * [[zeros]] and used by per-user sketches where size = m is small.
    */
  def countZero: Int = {
    var z = 0
    var i = 0
    while (i < size) { if (regs(i) == 0) z += 1; i += 1 }
    z
  }

  /** Defensive copy of the raw registers. */
  def snapshot: Array[Byte] = regs.clone()

  /** Memory footprint in bits (the quantity the paper budgets by). */
  def memoryBits: Long = size.toLong * width
}

object RegisterArray {
  private def checkedSize(size: Int): Int = {
    require(size > 0, s"register array size must be positive, got $size")
    size
  }
}

package repro.core

/** A packed mutable bit array of `size` bits with a tracked zero count.
  *
  * This is the shared-array substrate of FreeBS and CSE: O(1) `set`/`get`,
  * and `zeros` maintained incrementally so the Horvitz–Thompson probability
  * `q_B = zeros / size` is available in O(1) at every step.
  *
  * Built from saved state (`ceil(size / 64)` packed [[words]] and their
  * [[zeros]]), the array adopts it without a copy.
  */
final class BitArray(val size: Long, val words: Array[Long], private var zeroCount: Long) {
  require(words.length == BitArray.wordCount(size),
    s"a $size-bit array needs ${BitArray.wordCount(size)} words, got ${words.length}")
  require(zeroCount >= 0 && zeroCount <= size, s"zero count $zeroCount out of [0, $size]")

  /** An all-zero array of `size` bits. */
  def this(size: Long) = this(size, new Array[Long](BitArray.wordCount(size)), size)

  /** Number of bits still zero. */
  def zeros: Long = zeroCount

  /** Number of bits set to one. */
  def ones: Long = size - zeroCount

  /** True if bit `i` is set. */
  def get(i: Long): Boolean = {
    require(i >= 0 && i < size, s"bit index $i out of [0, $size)")
    (words((i >>> 6).toInt) & (1L << (i & 63))) != 0
  }

  /** Set bit `i`; returns true iff the bit flipped 0 → 1. */
  def set(i: Long): Boolean = {
    require(i >= 0 && i < size, s"bit index $i out of [0, $size)")
    val w = (i >>> 6).toInt
    val mask = 1L << (i & 63)
    if ((words(w) & mask) == 0) {
      words(w) |= mask
      zeroCount -= 1
      true
    } else false
  }

  /** The FreeBS step: set bit `i`; return the Horvitz–Thompson increment
    * `size / zeros` (zeros before the flip), or 0.0 if the bit was set.
    */
  def offer(i: Long): Double = {
    val zerosBefore = zeroCount
    if (set(i)) size.toDouble / zerosBefore else 0.0
  }

  /** Recount zeros from the raw words (O(size/64)); test cross-check. */
  def recountZeros(): Long = {
    var ones = 0L
    var w = 0
    while (w < words.length) { ones += java.lang.Long.bitCount(words(w)); w += 1 }
    size - ones
  }

  /** Memory footprint in bits (the quantity the paper budgets by). */
  def memoryBits: Long = size
}

object BitArray {
  private def wordCount(size: Long): Int = {
    require(size > 0, s"bit array size must be positive, got $size")
    ((size + 63) >>> 6).toInt
  }
}

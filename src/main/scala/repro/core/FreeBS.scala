package repro.core

import scala.collection.mutable

/** FreeBS — parameter-free bit sharing (Algorithm 1 of the paper).
  *
  * One bit array `B` of `m` bits shared by all users. Edge e = (s, d) hashes
  * to position `h*(e)`; if the bit flips 0 → 1 the user's estimate grows by
  * `1/q_B` where `q_B = zeros(B)/m` *before* the flip — the Horvitz–Thompson
  * inverse of the probability that a new pair changes the array. Duplicate
  * edges hash to an already-set bit and change nothing. O(1) per edge.
  *
  * Unbiased with `Var ≤ n_s (E[1/q_B] − 1)` (Theorem 1); estimation range
  * `[0, m·ln m]`.
  *
  * @param m    number of shared bits (the paper's M)
  * @param seed hash seed; runs are deterministic in it
  */
final class FreeBS(val m: Long, val seed: Long = 17L) extends UserCardinalitySketch {
  require(m > 0, s"FreeBS needs a positive number of bits, got $m")

  val bits = new BitArray(m)
  private val counters = mutable.LongMap.empty[Double]
  private var totalEst = 0.0

  override def name: String = "FreeBS"

  override def update(s: Long, d: Long): Unit = {
    val inc = bits.offer(Hashing.pairIndex(s, d, m, seed))
    if (inc != 0.0) {
      counters(s) = counters.getOrElse(s, 0.0) + inc
      totalEst += inc
    }
  }

  override def estimate(s: Long): Double = counters.getOrElse(s, 0.0)

  /** Estimate of the total number of distinct pairs `n(t)` (sum of all
    * per-user increments — itself an unbiased estimator of Σ_s n_s).
    */
  def estimatedTotal: Double = totalEst

  /** Current change probability `q_B` (fraction of zero bits). */
  def q: Double = bits.zeros.toDouble / m

  override def memoryBits: Long = bits.memoryBits
}

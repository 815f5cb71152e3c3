package repro.core

import scala.collection.mutable

/** FreeRS — parameter-free register sharing (Algorithm 2 of the paper).
  *
  * One array of `m` width-`w` registers shared by all users. Edge e = (s, d)
  * hashes to register `h*(e)` and a Geometric(1/2) rank `ρ*(e)`; if the
  * register grows, the user's estimate grows by `1/q_R` where
  * `q_R = Σ_j 2^{-R[j]} / m` computed from the registers *before* the
  * update. Duplicates re-derive the same (position, rank) and never grow a
  * register. O(1) per edge.
  *
  * Fidelity note (DESIGN.md §5.1): the paper's Algorithm 2 pseudo-code
  * updates `q_R` before adding `1/q_R`, but the text and Theorem 2's
  * unbiasedness proof use the pre-update `q_R^{(t)}` — the true probability
  * that the arriving pair changes the array given the state at t−1. We
  * implement the pre-update (unbiased Horvitz–Thompson) form.
  *
  * @param m     number of shared registers (the paper's M)
  * @param width register width in bits (the paper uses w = 5)
  * @param seed  hash seed; runs are deterministic in it
  */
final class FreeRS(val m: Int, val width: Int = 5, val seed: Long = 29L)
    extends UserCardinalitySketch {
  require(m > 0, s"FreeRS needs a positive number of registers, got $m")

  val registers = new RegisterArray(m, width)
  private val counters = mutable.LongMap.empty[Double]
  private var totalEst = 0.0

  override def name: String = "FreeRS"

  override def update(s: Long, d: Long): Unit = {
    val i = Hashing.pairIndex(s, d, m.toLong, seed).toInt
    val inc = registers.offer(i, Hashing.pairRank(s, d, registers.maxValue, seed))
    if (inc != 0.0) {
      counters(s) = counters.getOrElse(s, 0.0) + inc
      totalEst += inc
    }
  }

  override def estimate(s: Long): Double = counters.getOrElse(s, 0.0)

  /** Estimate of the total number of distinct pairs (Σ of increments). */
  def estimatedTotal: Double = totalEst

  /** Current change probability `q_R = Σ_j 2^{-R[j]} / m`. */
  def q: Double = registers.sumPow2Neg / m

  override def memoryBits: Long = registers.memoryBits
}

package repro.dist

import scala.collection.mutable

import repro.core.{BitArray, Hashing, RegisterArray}
import repro.dist.SlicedFree.Edge

/** The slice-local FreeBS/FreeRS run shared by [[SlicedFree]] and
  * [[StreamingFree]] (DESIGN.md §3).
  *
  * The shared array of M positions is cut into P disjoint slices of M/P;
  * pair e goes to slice `h*(e) mod P` at local position `h*(e) div P`. A
  * slice's array is an ordinary [[BitArray]] / [[RegisterArray]] of M/P
  * positions, and its `offer` is the whole update rule.
  */
private[dist] object Slices {

  def requireDivisible(bigM: Long, slices: Int): Unit =
    require(slices > 0 && bigM % slices == 0, s"bigM=$bigM must be divisible by slices=$slices")

  /** Slice of pair e: `h*(e) mod P`. */
  def of(e: Edge, bigM: Long, slices: Int, seed: Long): Int =
    (Hashing.pairIndex(e.s, e.d, bigM, seed) % slices).toInt

  /** Apply a FreeBS slice's edges to `bits`; per-user increment sums. */
  def freeBS(bits: BitArray, edges: Iterator[Edge], bigM: Long, slices: Int,
             seed: Long): mutable.LongMap[Double] =
    perUser(edges)(e => bits.offer(Hashing.pairIndex(e.s, e.d, bigM, seed) / slices))

  /** Apply a FreeRS slice's edges to `regs`; per-user increment sums. */
  def freeRS(regs: RegisterArray, edges: Iterator[Edge], bigM: Int, slices: Int,
             seed: Long): mutable.LongMap[Double] =
    perUser(edges) { e =>
      val local = (Hashing.pairIndex(e.s, e.d, bigM.toLong, seed) / slices).toInt
      regs.offer(local, Hashing.pairRank(e.s, e.d, regs.maxValue, seed))
    }

  /** Offer the edges in arrival (`t`) order, whatever order they came in,
    * so every execution strategy sees the sequential run's order; sum the
    * increments per user.
    */
  private def perUser(edges: Iterator[Edge])(offer: Edge => Double): mutable.LongMap[Double] = {
    val est = mutable.LongMap.empty[Double]
    edges.toArray.sortBy(_.t).foreach { e =>
      val inc = offer(e)
      if (inc != 0.0) est(e.s) = est.getOrElse(e.s, 0.0) + inc
    }
    est
  }
}

package repro.dist

import org.apache.spark.sql.{DataFrame, Dataset}
import org.apache.spark.sql.functions._
import scala.collection.mutable

import repro.core.{BitArray, Hashing, RegisterArray}

/** Distributed batch FreeBS/FreeRS over a Spark dataflow (DESIGN.md §3).
  *
  * The shared array of M positions is partitioned into P disjoint slices of
  * size M/P (see [[Slices]]). Each slice is an independent FreeBS/FreeRS
  * instance over the sub-stream of pairs hashed into it (the hash shards
  * pairs uniformly), so its Horvitz–Thompson estimate of "distinct pairs of
  * user s landing in this slice" is unbiased, and summing slice estimates
  * over P recovers an unbiased estimate of n_s. The final array state (OR of
  * bits / max of registers) is identical to the sequential run.
  */
object SlicedFree {

  /** One stream edge: arrival index t, user s, item d. */
  final case class Edge(t: Long, s: Long, d: Long)

  /** Per-user estimates (columns s, estimate) via slice-partitioned FreeBS.
    *
    * @param bigM shared bit-array size; must be divisible by slices
    */
  def freeBS(edges: Dataset[Edge], bigM: Long, slices: Int, seed: Long = 17L): DataFrame =
    sliced(edges, bigM, slices, seed)(it =>
      Slices.freeBS(new BitArray(bigM / slices), it, bigM, slices, seed))

  /** Per-user estimates (columns s, estimate) via slice-partitioned FreeRS. */
  def freeRS(edges: Dataset[Edge], bigM: Int, slices: Int, width: Int = 5,
             seed: Long = 29L): DataFrame =
    sliced(edges, bigM.toLong, slices, seed)(it =>
      Slices.freeRS(new RegisterArray(bigM / slices, width), it, bigM, slices, seed))

  /** Run `perSlice` on every slice's edges and sum the per-user results. */
  private def sliced(edges: Dataset[Edge], bigM: Long, slices: Int, seed: Long)(
      perSlice: Iterator[Edge] => mutable.LongMap[Double]): DataFrame = {
    Slices.requireDivisible(bigM, slices)
    val spark = edges.sparkSession
    import spark.implicits._
    edges
      .groupByKey(e => Slices.of(e, bigM, slices, seed))
      .flatMapGroups((_: Int, it: Iterator[Edge]) => perSlice(it).iterator)
      .toDF("s", "delta")
      .groupBy("s")
      .agg(sum("delta") as "estimate")
  }

  /** Final global bit positions that any FreeBS execution (sequential or
    * sliced) sets for this edge set — order-independent; used by tests to
    * prove state equivalence across execution strategies.
    */
  def globalBitPositions(edges: Dataset[Edge], bigM: Long, seed: Long = 17L): Array[Long] = {
    val spark = edges.sparkSession
    import spark.implicits._
    edges.map(e => Hashing.pairIndex(e.s, e.d, bigM, seed)).distinct().collect().sorted
  }
}

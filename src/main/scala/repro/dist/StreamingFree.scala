package repro.dist

import org.apache.spark.sql.{DataFrame, Dataset}
import org.apache.spark.sql.functions._
import org.apache.spark.sql.streaming.{GroupState, GroupStateTimeout, OutputMode}
import scala.reflect.runtime.universe.TypeTag

import repro.core.{BitArray, RegisterArray}

/** Structured Streaming FreeBS/FreeRS (DESIGN.md §3 — the calibration
  * hint's "stateful aggregation (mapGroupsWithState) updating sketch arrays
  * per key").
  *
  * The stream of edges is keyed by array slice; `flatMapGroupsWithState`
  * holds each slice's sketch array (plus its zero count / register sum) as
  * group state, runs the micro-batch through the slice loop of [[Slices]],
  * and emits per-user Horvitz–Thompson estimate deltas. A downstream
  * streaming aggregation `groupBy(user).sum(delta)` maintains the live
  * per-user cardinality estimates — available at every trigger, as the
  * paper's "anytime" requirement demands. Duplicate edges are absorbed by
  * the slice state across micro-batches.
  */
object StreamingFree {

  /** One stream edge: arrival index t, user s, item d. */
  type Edge = SlicedFree.Edge
  val Edge = SlicedFree.Edge

  /** FreeBS slice state: packed bit words + remaining zero count. */
  final case class BsState(words: Array[Long], zeros: Long)

  /** FreeRS slice state: register bytes + Σ 2^-R[j]. */
  final case class RsState(regs: Array[Byte], sumPow: Double)

  // `state.get` deserialises the stored row into fresh arrays and
  // `state.update` serialises them again, so no copy is needed here.

  private def bsUpdate(bigM: Long, slices: Int, seed: Long)(
      slice: Int, edges: Iterator[Edge], state: GroupState[BsState]): Iterator[(Long, Double)] = {
    val bits = state.getOption.fold(new BitArray(bigM / slices))(st =>
      new BitArray(bigM / slices, st.words, st.zeros))
    val est = Slices.freeBS(bits, edges, bigM, slices, seed)
    state.update(BsState(bits.words, bits.zeros))
    est.iterator
  }

  private def rsUpdate(bigM: Int, slices: Int, width: Int, seed: Long)(
      slice: Int, edges: Iterator[Edge], state: GroupState[RsState]): Iterator[(Long, Double)] = {
    val registers = state.getOption.fold(new RegisterArray(bigM / slices, width))(st =>
      new RegisterArray(bigM / slices, width, st.regs, st.sumPow))
    val est = Slices.freeRS(registers, edges, bigM, slices, seed)
    state.update(RsState(registers.regs, registers.sumPow2Neg))
    est.iterator
  }

  /** Streaming per-user FreeBS estimates: a streaming DataFrame
    * (user, estimate) to be written with OutputMode.Complete.
    */
  def freeBSEstimates(edges: Dataset[Edge], bigM: Long, slices: Int,
                      seed: Long = 17L): DataFrame =
    estimates[BsState](edges, bigM, slices, seed)(bsUpdate(bigM, slices, seed))

  /** Streaming per-user FreeRS estimates: a streaming DataFrame
    * (user, estimate) to be written with OutputMode.Complete.
    */
  def freeRSEstimates(edges: Dataset[Edge], bigM: Int, slices: Int, width: Int = 5,
                      seed: Long = 29L): DataFrame =
    estimates[RsState](edges, bigM.toLong, slices, seed)(rsUpdate(bigM, slices, width, seed))

  /** Key the edges by slice, run the stateful slice update, and sum the
    * per-user deltas into live estimates.
    */
  private def estimates[S <: Product : TypeTag](edges: Dataset[Edge], bigM: Long, slices: Int,
      seed: Long)(update: (Int, Iterator[Edge], GroupState[S]) => Iterator[(Long, Double)]): DataFrame = {
    Slices.requireDivisible(bigM, slices)
    val spark = edges.sparkSession
    import spark.implicits._
    edges
      .groupByKey(e => Slices.of(e, bigM, slices, seed))
      .flatMapGroupsWithState(OutputMode.Append, GroupStateTimeout.NoTimeout)(update)
      .toDF("user", "delta")
      .groupBy("user")
      .agg(sum("delta") as "estimate")
  }
}

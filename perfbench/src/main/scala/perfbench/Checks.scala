package perfbench

import repro.eval.Metrics
import repro.theory.Theory

/** Output checks that hold for any correct pair hash: none of them pins
  * the exact estimates of today's hash.
  */
object Checks {
  /** Allowed distance of an estimated total from the true n, in σ. */
  val K = 5.0
  /** Chance, over all users, that the coverage check fails a correct sketch. */
  private val MissChance = 1e-9

  /** Theorem 1 bound on Var(n̂) for the FreeBS estimate of the total n. */
  def freeBsTotalVar(n: Double, bigM: Double): Double = Theory.freeBsVarBound(n, n, bigM)

  /** Theorem 2 bound on Var(n̂) for the FreeRS estimate of the total n.
    * Below the theorem's n > 2.5·M regime the Theorem 1 form with M
    * registers bounds it instead: a register changes at least as often as
    * a zero register exists, so q_R is at least the zero fraction.
    */
  def freeRsTotalVar(n: Double, regs: Double): Double =
    if (n > 2.5 * regs) Theory.freeRsVarBound(n, n, regs) else Theory.freeBsVarBound(n, n, regs)

  /** Smallest true cardinality a correct sketch cannot miss: a user with
    * c distinct pairs gets no increment with chance at most (1 − q)^c,
    * where q ≥ `qLow` is the final change probability.
    */
  def minCovered(qLow: Double, users: Int): Int =
    if (qLow >= 1.0) 1
    else math.ceil(math.log(MissChance / math.max(1, users)) / math.log1p(-qLow)).toInt

  /** Overall RSE of `est` against `truth` (one bucket). */
  def rse(truth: Array[Int], est: Long => Double): Double =
    Metrics.rseByBucket(truth, est, _ => 0).get(0).map(_._2).getOrElse(Double.NaN)

  /** Run the checks of one sketch's final output and record them in
    * `report` under `label`; returns whether all hold.
    *
    * @param present  whether user u appears in the output
    * @param extra    users in the output that are not in the truth
    */
  def verify(report: Report, label: String, truth: Array[Int], est: Long => Double,
             present: Long => Boolean, extra: Int, estTotal: Double, n: Double,
             varBound: Double, qLow: Double): Boolean = {
    val cut = minCovered(qLow, truth.length)
    var missing = 0
    var u = 0
    while (u < truth.length) {
      if (truth(u) >= cut && !present(u.toLong)) missing += 1
      u += 1
    }
    val sigma = math.sqrt(varBound)
    val r = rse(truth, est)
    Seq(
      report.check(s"$label: every user with >= $cut pairs is in the output", missing == 0),
      report.check(s"$label: no user outside the truth", extra == 0),
      report.check(f"$label: total $estTotal%.0f within $K%.0f sigma ($sigma%.0f) of n = $n%.0f",
        math.abs(estTotal - n) <= K * sigma),
      report.check(s"$label: RSE is finite", !r.isNaN && !r.isInfinite),
    ).forall(identity)
  }
}

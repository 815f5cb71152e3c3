package perfbench

import java.nio.file.Files

/** Entry point of one benchmark run:
  *
  * {{{
  * Main --workload seq-twitter|stream-orkut|dist-probe --seed N --seconds S --trace 0|1 --out DIR
  * }}}
  *
  * Prints the environment as one JSON line, then the result as the last
  * line: `{"correct", "attempted", "failed", "metrics"}`. A traced run
  * also writes its spans to `DIR/spans-<workload>-<seed>.jsonl`.
  */
object Main {
  def main(args: Array[String]): Unit = {
    val opts = Opts.parse(args)
    Files.createDirectories(opts.outDir)
    val tracer = new Tracer(opts.trace, s"${opts.workload}-${opts.seed}-${ProcessHandle.current.pid}")
    val report = new Report
    opts.workload match {
      case "seq-twitter" => SeqTwitter.run(opts, report, tracer)
      case "stream-orkut" => StreamOrkut.run(opts, report, tracer)
      case "dist-probe" => StreamOrkut.distProbe(opts, report, tracer)
      case other => Console.err.println(s"unknown workload: $other"); sys.exit(2)
    }
    tracer.writeTo(opts.outDir.resolve(s"spans-${opts.workload}-${opts.seed}.jsonl"))
    report.checks.filterNot(_._2).foreach { case (name, _) => Console.err.println(s"CHECK FAILED: $name") }

    val env = Seq(
      "workload" -> opts.workload,
      "seed" -> opts.seed,
      "seconds" -> opts.seconds,
      "trace" -> opts.trace,
      "jdk" -> s"${System.getProperty("java.vm.name")} ${System.getProperty("java.runtime.version")}",
      "nproc" -> Runtime.getRuntime.availableProcessors,
      "spark" -> org.apache.spark.SPARK_VERSION,
      "heap_max_mb" -> Jvm.maxHeapMb,
      "checks" -> report.checks.size,
      "checks_failed" -> report.checks.count(!_._2),
      "spans" -> tracer.size,
    )
    println(Json.obj(Seq("env" -> Json.RawObj(env))))
    println(Json.obj(Seq(
      "correct" -> report.correct,
      "attempted" -> report.attempted,
      "failed" -> report.failed,
      "metrics" -> Json.RawObj(report.metrics.toSeq.map { case (k, m) =>
        k -> Json.RawObj(Seq("value" -> m.value, "unit" -> m.unit))
      }),
    )))
    System.out.flush()
    sys.exit(0)
  }
}

#!/usr/bin/env python3
"""Run one workload of the benchmark and print its result as the last line.

    python3 perfbench/run.py --workload seq-twitter --seed 7 --seconds 25 --trace 0

Run from the root of the repository. The first run builds the program's
sources (src/main/scala) together with the benchmark code in perfbench/src with
sbt; later runs reuse the build while the sources are unchanged. Spark comes
from $SPARK_HOME/jars, or from the distribution of spark-submit on the PATH.

With --trace 0 the last line holds every end-to-end metric of
BENCHMARK.json; with --trace 1 every per-layer metric, and the spans are
written to perfbench/out/. A traced run of seq-twitter, which never starts
Spark, takes its repro.dist numbers from a second process (dist-probe).
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SOURCES = [os.path.join(ROOT, "src", "main", "scala"), os.path.join(HERE, "src")]
BUILD_FILES = [os.path.join(HERE, "build.sbt"), os.path.join(HERE, "project", "build.properties")]
TARGET = os.path.join(HERE, "target")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("seq-twitter", "stream-orkut")
BUILD_TIMEOUT_S = 850
RUN_BUDGET_S = 170
HEAP = "3g"
JVM_OPENS = [
    "--add-opens=java.base/%s=ALL-UNNAMED" % p
    for p in ("java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
              "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
              "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar")
]


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def source_hash():
    h = hashlib.sha256()
    for top in SOURCES + BUILD_FILES:
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for p in paths:
            h.update(os.path.relpath(p, ROOT).encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def run_bounded(cmd, timeout, **kw):
    """Run cmd in its own process group; kill the group on timeout."""
    proc = subprocess.Popen(cmd, start_new_session=True, stdout=subprocess.PIPE, text=True, **kw)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("%s timed out after %ds" % (cmd[0], timeout))
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
    return proc.returncode, out


def build(tmp):
    """Compile with sbt once per source state; returns the classpath."""
    stamp = source_hash()
    cp_file = os.path.join(TARGET, "bench.classpath")
    stamp_file = os.path.join(TARGET, "bench.stamp")
    if os.path.exists(cp_file) and os.path.exists(stamp_file):
        with open(stamp_file) as f:
            if f.read() == stamp:
                with open(cp_file) as g:
                    return g.read(), stamp
    if not shutil.which("sbt"):
        fail("sbt not found on PATH")
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    if not env.get("SPARK_HOME"):
        submit = shutil.which("spark-submit")
        if not submit:
            fail("SPARK_HOME is not set and spark-submit is not on PATH")
        env["SPARK_HOME"] = os.path.dirname(os.path.dirname(os.path.realpath(submit)))
    env["SBT_OPTS"] = (env.get("SBT_OPTS", "") + " -Djava.io.tmpdir=" + tmp +
                       " -Dsbt.server.autostart=false").strip()
    code, out = run_bounded(
        ["sbt", "--batch", "-Dsbt.log.noformat=true", "compile", "export Runtime/fullClasspath"],
        BUILD_TIMEOUT_S, cwd=HERE, env=env, stdin=subprocess.DEVNULL)
    lines = [l for l in out.splitlines() if l.strip()]
    if code != 0 or not lines or "[error]" in out:
        sys.stderr.write(out)
        fail("build failed")
    classpath = lines[-1].strip()
    os.makedirs(TARGET, exist_ok=True)
    with open(cp_file, "w") as f:
        f.write(classpath)
    with open(stamp_file, "w") as f:
        f.write(stamp)
    return classpath, stamp


def jvm(classpath, tmp, workload, args, deadline):
    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") if os.environ.get("JAVA_HOME") else "java"
    cmd = [java, "-Xms" + HEAP, "-Xmx" + HEAP, "-Djava.io.tmpdir=" + tmp, "-Dspark.ui.enabled=false",
           *JVM_OPENS, "-cp", classpath, "perfbench.Main", "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", OUT]
    code, out = run_bounded(cmd, max(1, int(deadline - time.time())), cwd=ROOT, stdin=subprocess.DEVNULL)
    lines = [l for l in out.splitlines() if l.strip()]
    if code != 0 or len(lines) < 2:
        sys.stderr.write(out)
        fail("%s exited with %d" % (workload, code))
    return json.loads(lines[-2])["env"], json.loads(lines[-1])


def git_commit():
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "src", "main", "scala", "repro")):
        fail("no program sources under src/main/scala; run from the repository root")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    tmp = os.path.join(OUT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    try:
        classpath, stamp = build(tmp)
        deadline = time.time() + RUN_BUDGET_S
        env, result = jvm(classpath, tmp, args.workload, args, deadline)
        if args.trace and args.workload == "seq-twitter":
            _, probe = jvm(classpath, tmp, "dist-probe", args, deadline)
            for k, v in probe["metrics"].items():
                result["metrics"].setdefault(k, v)
            result["attempted"] += probe["attempted"]
            result["failed"] += probe["failed"]
            result["correct"] = result["correct"] and probe["correct"]
    finally:
        for d in ("tmp", "spark-local", "warehouse", "checkpoints"):
            shutil.rmtree(os.path.join(OUT, d), ignore_errors=True)

    missing = [m["name"] for m in wanted
               if not isinstance(result["metrics"].get(m["name"], {}).get("value"), (int, float))
               or not math.isfinite(result["metrics"][m["name"]]["value"])]
    if missing:
        fail("metrics missing or not finite: " + ", ".join(missing))
    metrics = {m["name"]: {"value": result["metrics"][m["name"]]["value"], "unit": m["unit"]}
               for m in wanted}
    final = {"correct": bool(result["correct"]), "attempted": int(result["attempted"]),
             "failed": int(result["failed"]), "metrics": metrics}
    env.update({"commit": git_commit(), "source_sha256": stamp, "python": platform.python_version(),
                "machine": platform.machine()})
    record = {"env": env, "result": final,
              "all_metrics": result["metrics"]}
    with open(os.path.join(OUT, "result-%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace)), "w") as f:
        json.dump(record, f, indent=1)
    print(json.dumps({"env": env}))
    print(json.dumps(final))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Layout benchmark: one workload through the whole qd-tree pipeline.

    python3 perfbench/run.py --workload tpch-greedy --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The first run compiles the repository and
the benchmark with sbt (the classpath is cached in .bench_build/ under a
digest of the sources); every run then starts one JVM for the workload.

Prints a human-readable report, then, as the last line of standard output,
one JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones, with --trace 1 the per-layer
ones. The full record of a run (machine facts, both metric sets, exact
counters and spans) is written to .bench_build/results/.

Exits non-zero without a result when the repository's sources are missing,
the build fails, the JVM fails or runs out of time.
"""

import argparse
import glob
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")

# Each run must end within 180 s; the first run in a checkout, which
# compiles, within 900 s.
RUN_LIMIT_S = 170
BUILD_LIMIT_S = 700

JVM_HEAP = "3g"
def fail(msg, code):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def source_files():
    """Every file the build compiles from, in a stable order."""
    patterns = ["build.sbt", "project/*.properties", "project/*.sbt", "src/main/**/*",
                "jobs/**/*", "perfbench/build.sbt", "perfbench/project/*.properties",
                "perfbench/src/main/**/*"]
    files = set()
    for p in patterns:
        files.update(f for f in glob.glob(os.path.join(ROOT, p), recursive=True) if os.path.isfile(f))
    return sorted(files)


def digest(files):
    h = hashlib.sha256()
    for f in files:
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()[:16]


def run_bounded(cmd, cwd, limit_s, **kw):
    """Runs cmd in its own process group; kills the whole group at the limit."""
    proc = subprocess.Popen(cmd, cwd=cwd, start_new_session=True, **kw)
    try:
        out, _ = proc.communicate(timeout=max(1.0, limit_s))
        return proc.returncode, out
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return None, None


def classpath(src_digest, deadline):
    """The benchmark's runtime classpath, and whether it compiled first
    because the sources changed."""
    cache = os.path.join(OUT, "classpath.json")
    if os.path.exists(cache):
        with open(cache) as fh:
            cached = json.load(fh)
        if cached.get("digest") == src_digest and all(
                os.path.exists(p) for p in cached["classpath"].split(os.pathsep)):
            return cached["classpath"], False
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
           "export Runtime/fullClasspath"]
    code, out = run_bounded(cmd, HERE, deadline - time.monotonic(), stdout=subprocess.PIPE,
                            stdin=subprocess.DEVNULL, text=True)
    if code != 0:
        for line in (out or "").splitlines():
            if line.startswith("[error]"):
                print(line, file=sys.stderr)
        fail("build failed" if code is not None else "build ran out of time", 3)
    lines = [l.strip() for l in out.splitlines() if l.strip() and not l.startswith("[")]
    if not lines:
        fail("build printed no classpath", 3)
    cp = lines[-1]
    os.makedirs(OUT, exist_ok=True)
    with open(cache, "w") as fh:
        json.dump({"digest": src_digest, "classpath": cp}, fh)
    return cp, True


def git_commit():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                           timeout=10)
        return r.stdout.strip() if r.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def check_exact(result, key, src_digest):
    """Compares this run's exact counters with an earlier run at the same seed.

    The counters must repeat exactly for one workload seed, across runs and
    across the traced and untraced modes.
    """
    path = os.path.join(OUT, "exact", key + ".json")
    mine = result["exact"]
    if os.path.exists(path):
        with open(path) as fh:
            earlier = json.load(fh)
        if earlier.get("digest") == src_digest:
            return ["exact counter %s: %r here, %r in run %s" % (k, mine[k], v, earlier["run_id"])
                    for k, v in earlier["exact"].items() if k in mine and mine[k] != v]
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump({"digest": src_digest, "run_id": result["run_id"], "exact": mine}, fh)
    return []


def tracing_overhead(result, key):
    """Traced minus untraced figures at the same seed, when both exist."""
    path = os.path.join(OUT, "results", key + "-t0.json")
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        base = json.load(fh)["end_to_end"]
    traced = result["end_to_end"]
    return {k: {"untraced": base[k]["value"], "traced": traced[k]["value"],
                "change_pct": 100.0 * (traced[k]["value"] / base[k]["value"] - 1.0)}
            for k in ("build_s", "ingest_rows_per_s", "query_p50_ms")}


def declared_metrics():
    """Metric names BENCHMARK.json declares, if the file is present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as fh:
        spec = json.load(fh)
    return ({m["name"] for m in spec["end_to_end"]}, {m["name"] for m in spec["per_layer"]})


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1", 2)

    for need in ("build.sbt", "src/main/scala"):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("no %s in %s: the benchmark builds the repository from source" % (need, ROOT), 2)

    start = time.monotonic()
    files = source_files()
    src_digest = digest(files)
    cp, built = classpath(src_digest, start + BUILD_LIMIT_S)
    deadline = (start + BUILD_LIMIT_S + RUN_LIMIT_S) if built else start + RUN_LIMIT_S

    key = "%s-s%d" % (args.workload, args.seed)
    work = os.path.join(OUT, "work")
    out = os.path.join(OUT, "results", "%s-t%d.json" % (key, args.trace))
    tmp = os.path.join(OUT, "tmp")
    for d in (work, tmp):
        shutil.rmtree(d, ignore_errors=True)
        os.makedirs(d)
    if os.path.exists(out):
        os.remove(out)

    cmd = (["java", "-Xmx" + JVM_HEAP, "-Djava.io.tmpdir=" + tmp,
            "-Dlog4j2.configurationFile=" + os.path.join(HERE, "log4j2.properties")]
           + ["-cp", cp, "perfbench.Main", "--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace), "--work", work,
              "--out", out, "--commit", git_commit()])
    code, _ = run_bounded(cmd, ROOT, deadline - time.monotonic(), stdin=subprocess.DEVNULL,
                          stdout=sys.stderr)
    for d in (work, tmp):
        shutil.rmtree(d, ignore_errors=True)
    if code is None:
        fail("the run did not finish in time", 4)
    if code != 0 or not os.path.exists(out):
        fail("the run failed (exit code %s)" % code, 4)

    with open(out) as fh:
        result = json.load(fh)
    result["wall_s"] = time.monotonic() - start
    result["facts"]["source_digest"] = src_digest
    errors = result["errors"] + check_exact(result, key, src_digest)
    if args.trace:
        result["tracing_overhead"] = tracing_overhead(result, key)
    result["errors"] = errors
    result["correct"] = result["correct"] and not errors
    with open(out, "w") as fh:
        json.dump(result, fh, indent=1)

    metrics = result["per_layer"] if args.trace else result["end_to_end"]
    declared = declared_metrics()
    if declared is not None and set(metrics) != declared[args.trace]:
        fail("metrics differ from BENCHMARK.json: %s"
             % sorted(set(metrics) ^ declared[args.trace]), 5)

    print("facts: " + json.dumps(result["facts"], sort_keys=True))
    print("samples: " + json.dumps(result["samples"], sort_keys=True))
    for name, m in metrics.items():
        print("%-28s %16.6f %s" % (name, m["value"], m["unit"]))
    print("%-28s %16.6f %%  (%d of %d query executions failed)"
          % ("query_fail_pct", result["query_fail_pct"], result["failed"], result["attempted"]))
    if args.trace and result["tracing_overhead"]:
        print("tracing overhead vs untraced run at this seed: "
              + json.dumps(result["tracing_overhead"], sort_keys=True))
    for e in errors:
        print("error: " + e)
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                                  for k, m in metrics.items()}}))


if __name__ == "__main__":
    main()

"""The repository benchmark: CLI workloads timed end to end, split by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; it measures that checkout's src/.
Workloads are defined in bench/workloads.py and documented, with every
metric, in bench/README.md.

--trace 0 prints the end-to-end metrics: setup_s (median of fresh
interpreters timed from start through `import hochschild.cli`) and, from a
fresh worker process running the workload, wall_s (median seconds of one
warm pass over all cases), slowest_case_s (median over passes of the
longest case) and peak_rss_mb (the worker's peak RSS).  --trace 1 prints
the per-layer metrics instead, from traced passes of a fresh worker.

Human-readable lines come first; the last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}.  A case counts as
failed when its exit code or stdout differs from bench/golden/, when it
raised, or when its output fails an oracle in oracles.py.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

SETUP_LAUNCHES = 11
WORKER_TIMEOUT_S = 165

# fresh interpreter through `import hochschild.cli`; prints where it came from
_SETUP_CODE = ("import sys; sys.path.insert(0, sys.argv[1]); "
               "import hochschild.cli; "
               "print(sys.modules['hochschild'].__file__)")


def fail(msg):
    print("bench: %s" % msg, file=sys.stderr)
    sys.exit(1)


def quartiles(values):
    values = list(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def measure_setup():
    """Median wall seconds of fresh interpreters importing hochschild.cli."""
    times = []
    for k in range(SETUP_LAUNCHES + 1):
        t0 = time.perf_counter()
        p = subprocess.run([sys.executable, "-c", _SETUP_CODE, str(SRC)],
                           capture_output=True, text=True, timeout=60)
        dt = time.perf_counter() - t0
        if p.returncode != 0:
            fail("import hochschild.cli failed:\n%s" % p.stderr)
        where = Path(p.stdout.strip()).resolve()
        if SRC.resolve() not in where.parents:
            fail("setup imported hochschild from %s, not from %s"
                 % (where, SRC))
        if k:  # the first launch may compile bytecode; it is not timed
            times.append(dt)
    return times


def run_worker(args):
    cmd = [sys.executable, str(BENCH / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        p = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("worker did not finish within %d s" % WORKER_TIMEOUT_S)
    sys.stderr.write(p.stderr)
    if p.returncode != 0:
        fail("worker exited with code %d" % p.returncode)
    return json.loads(p.stdout.strip().splitlines()[-1])


def metadata():
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True,
                             timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    src_lines = sum(len(f.read_text(encoding="utf-8").splitlines())
                    for f in sorted(SRC.rglob("*.py")))
    return {"git_sha": sha or "unknown",
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "src_lines": src_lines}


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(work, setup_times):
    passes = work["passes"]
    walls = [p["wall_s"] for p in passes]
    slowest = [max(p["case_s"].values()) for p in passes]
    q1, q2, q3 = quartiles(walls)
    s1, s2, s3 = quartiles(setup_times)
    print("setup_s        median %.4f  q1 %.4f  q3 %.4f  (%d launches)"
          % (s2, s1, s3, len(setup_times)))
    print("wall_s         median %.4f  q1 %.4f  q3 %.4f  (%d passes)"
          % (q2, q1, q3, len(walls)))
    print("passes         " + " ".join("%.4f" % w for w in walls))
    print("slowest_case_s median %.4f  (%d passes)"
          % (statistics.median(slowest), len(slowest)))
    print("peak_rss_mb    %.1f" % work["peak_rss_mb"])
    for cid in sorted(passes[0]["case_s"]):
        ts = [p["case_s"][cid] for p in passes]
        print("  case %-20s median %.4f s  min %.4f s  (n=%d)"
              % (cid, statistics.median(ts), min(ts), len(ts)))
    return {
        "setup_s": metric(s2, "s"),
        "wall_s": metric(q2, "s"),
        "slowest_case_s": metric(statistics.median(slowest), "s"),
        "peak_rss_mb": metric(work["peak_rss_mb"], "MB"),
    }


def per_layer(work):
    traced = [p["wall_s"] for p in work["passes"] if p["traced"]]
    plain = [p["wall_s"] for p in work["passes"] if not p["traced"]]
    layers = work["layers"]
    out = {}
    for name in layers[0]:
        vals = [layer[name] for layer in layers]
        unit = "s" if name.endswith("_s") else "count"
        out[name] = metric(statistics.median(vals), unit)
    out["trace.wall_s"] = metric(statistics.median(traced), "s")
    out["trace.overhead_s"] = metric(
        statistics.median(traced) - statistics.median(plain), "s")
    n = len(traced)
    print("traced passes %d, untraced passes %d" % (n, len(plain)))
    print("%-34s %8s %10s %10s" % ("function (per traced pass)", "calls",
                                   "incl_s", "self_s"))
    for name, (calls, incl, self_s) in work["functions"].items():
        print("%-34s %8d %10.4f %10.4f"
              % (name, calls // n, incl / n, self_s / n))
    for name, m in out.items():
        print("%-34s %s %s" % (name, m["value"], m["unit"]))
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "hochschild" / "__init__.py").is_file():
        fail("no hochschild package under %s; run inside a checkout" % SRC)

    meta = metadata()
    setup_times = measure_setup() if args.trace == 0 else None
    work = run_worker(args)
    passes = work["passes"]
    attempted = sum(len(p["case_s"]) for p in passes)
    failed = sum(len(p["failed"]) for p in passes)
    meta.update(workload=args.workload, seed=args.seed, trace=args.trace,
                seconds=args.seconds, worker_imported=work["hochschild_file"])
    print("meta " + json.dumps(meta, sort_keys=True))
    for msg in sorted({m for p in passes for m in p["messages"]}):
        print("FAILED " + msg)
    print("error_rate %d/%d" % (failed, attempted))
    metrics = (end_to_end(work, setup_times) if args.trace == 0
               else per_layer(work))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()

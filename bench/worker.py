"""Benchmark worker: one closed-loop client running one workload in-process.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1

Imports `hochschild` from this checkout's src/ (and refuses any other
copy), then runs passes over the workload's cases back to back, each pass
in an order shuffled by the seed, until the next pass would end after S
seconds.  Every case is `hochschild.cli.main(argv)` with stdout captured;
its exit code and stdout bytes are checked against the golden files, and
the outputs of each pass go through the universal-coefficient oracle.

With --trace 1 the passes alternate untraced / traced; traced passes run
with the layer wrappers of tracer.py installed.  The result is one JSON
object on the last line of stdout, read by bench/run.py.
"""

import argparse
import contextlib
import gc
import io
import json
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import oracles
import tracer
from workloads import WORKLOADS, all_cases

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TABLEDATA = ROOT / "tests" / "_tabledata.py"


def import_checkout_cli():
    """hochschild.cli from SRC; exits if another copy would be measured."""
    sys.path.insert(0, str(SRC))
    import hochschild
    from hochschild import cli
    where = Path(hochschild.__file__).resolve()
    if SRC.resolve() not in where.parents:
        sys.exit("bench worker: imported hochschild from %s, not from %s"
                 % (where, SRC))
    return cli


def run_case(main, argv, trace):
    """(seconds, exit code, stdout) of one CLI call.

    The exit code is None when the call raised.
    """
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = trace.root(main, argv) if trace else main(argv)
    except SystemExit as e:
        rc = e.code
    except Exception:  # a traceback is a failed case, not a dead benchmark
        rc = None
        traceback.print_exc(file=sys.stderr)
    return time.perf_counter() - t0, rc, out.getvalue()


def run_pass(main, cases, rng, golden, trace):
    order = list(cases)
    rng.shuffle(order)
    gc.collect()
    times, outputs, failures = {}, {}, []
    t0 = time.perf_counter()
    for case_id, argv in order:
        dt, rc, stdout = run_case(main, argv, trace)
        times[case_id] = dt
        outputs[case_id] = stdout
        failures += oracles.golden_failures(case_id, stdout, rc, golden)
    wall = time.perf_counter() - t0
    # pair this pass's outputs with golden ones from other workloads
    merged = {cid: out.decode("utf-8") for cid, (out, _) in golden.items()}
    merged.update(outputs)
    failures += [f for f in oracles.universal_coefficient_failures(merged)
                 if f[0] in outputs]
    return {"traced": trace is not None, "wall_s": wall, "case_s": times,
            "failed": sorted({cid for cid, _ in failures}),
            "messages": ["%s: %s" % f for f in failures]}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    cli = import_checkout_cli()
    cases = WORKLOADS[args.workload]["cases"]
    golden = oracles.load_golden([cid for cid, _ in all_cases()])
    table_failures = oracles.tabledata_failures(golden, TABLEDATA)
    tr = tracer.Tracer("hochschild") if args.trace else None
    rng = random.Random(args.seed)

    passes, layers, functions = [], [], {}
    start = time.perf_counter()
    while True:
        traced = tr is not None and len(passes) % 2 == 1
        if traced:
            tr.install()
        try:
            p = run_pass(cli.main, cases, rng, golden, tr if traced else None)
        finally:
            if traced:
                tr.uninstall()
        if traced:
            layers.append(tracer.layer_metrics(tr.spans))
            for name, row in tracer.function_summary(tr.spans).items():
                acc = functions.setdefault(name, [0, 0.0, 0.0])
                acc[:] = [a + b for a, b in zip(acc, row)]
            tr.reset()
        passes.append(p)
        elapsed = time.perf_counter() - start
        typical = statistics.median(q["wall_s"] for q in passes)
        enough = len(passes) >= (2 if tr else 1)
        if enough and elapsed + typical > args.seconds:
            break

    # table cases inherit any disagreement of their golden files with the
    # test suite's transcription
    bad_golden = {cid for cid, _ in table_failures}
    for p in passes:
        extra = bad_golden & set(p["case_s"])
        p["failed"] = sorted(set(p["failed"]) | extra)
        p["messages"] += ["%s: %s" % f for f in table_failures
                          if f[0] in extra]
    print(json.dumps({
        "hochschild_file": sys.modules["hochschild"].__file__,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        "passes": passes,
        "layers": layers,
        "functions": {k: v for k, v in sorted(functions.items())},
    }))


if __name__ == "__main__":
    main()

"""Write bench/golden/ from the `hochschild` CLI of this checkout.

    python3 bench/capture_golden.py

Runs every benchmark case as its own `python3 -m hochschild.cli` process,
checks the outputs with the table transcription and universal-coefficient
oracles, and only then writes <case_id>.out (stdout bytes) and
exit_codes.json.  The golden files pin the answers of the commit they were
captured at; re-capture only when a change is meant to alter CLI output.
"""

import json
import os
import subprocess
import sys

import oracles
from workloads import all_cases
from worker import SRC, TABLEDATA


def main():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    golden = {}
    for case_id, argv in all_cases():
        p = subprocess.run([sys.executable, "-m", "hochschild.cli"] + argv,
                           capture_output=True, env=env, timeout=600)
        golden[case_id] = (p.stdout, p.returncode)
        print("%-20s exit %d, %d bytes" % (case_id, p.returncode,
                                           len(p.stdout)))
    failures = oracles.tabledata_failures(golden, TABLEDATA)
    failures += oracles.universal_coefficient_failures(
        {cid: out.decode("utf-8") for cid, (out, _) in golden.items()})
    if failures:
        for f in failures:
            print("FAILED %s: %s" % f, file=sys.stderr)
        sys.exit(1)
    oracles.GOLDEN.mkdir(exist_ok=True)
    for case_id, (out, _) in golden.items():
        (oracles.GOLDEN / (case_id + ".out")).write_bytes(out)
    oracles.EXIT_CODES.write_text(
        json.dumps({cid: rc for cid, (_, rc) in golden.items()}, indent=1,
                   sort_keys=True) + "\n", encoding="utf-8")
    print("wrote %d golden files to %s" % (len(golden), oracles.GOLDEN))


if __name__ == "__main__":
    main()

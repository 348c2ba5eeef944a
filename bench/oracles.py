"""Correctness checks on case outputs, independent of the timing code.

Three checks, each returning a list of (case_id, message) failures:

- golden: stdout bytes and exit code equal the files in bench/golden/;
- tabledata: the golden table files agree with the test suite's own
  transcription of the tables (tests/_tabledata.py, read, never changed);
- universal coefficients: for a free/torsion answer over Z and a dimension
  over F_p (p = 0 for Q) of the same algebra (Weibel, Thm 3.6.5),
      dim_Fp H^i = free_i + #{t in tors_i : p | t} + #{t in tors_i+1 : p | t}.
"""

import csv
import io
import json
import re
import runpy
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"
EXIT_CODES = GOLDEN / "exit_codes.json"

# (Z case, field case, characteristic) pairs checked by universal coefficients
UC_PAIRS = (
    [("S11-Z-reduced-5", "S11-%s" % r, p)
     for r, p in (("Q-reduced-5", 0), ("F2-reduced-6", 2),
                  ("F3-reduced-5", 3))]
    + [("N3-Z-reduced-5", "N3-Q-reduced-5", 0)]
    + [("table-d%d-Z" % d, "table-d%d-%s" % (d, r), p)
       for d in (2, 3) for r, p in (("Q", 0), ("F2", 2), ("F3", 3))]
)

_RING_CHAR = {"Q": 0, "F2": 2, "F3": 3}
_Z_CELL = re.compile(r"^(\d+)(?:\[([\d,]+)\])?$")


def load_golden(case_ids):
    """{case_id: (stdout bytes, exit code)} for the given cases."""
    codes = json.loads(EXIT_CODES.read_text(encoding="utf-8"))
    return {cid: ((GOLDEN / (cid + ".out")).read_bytes(), codes[cid])
            for cid in case_ids}


def golden_failures(case_id, stdout, rc, golden):
    want_out, want_rc = golden[case_id]
    if rc != want_rc:
        return [(case_id, "exit code %r, golden %r" % (rc, want_rc))]
    if stdout.encode("utf-8") != want_out:
        return [(case_id, "stdout differs from golden file")]
    return []


# ---------------------------------------------------------------------------
# parsing CLI outputs into {row: {degree: cell}}


def _parse_z_cell(text):
    m = _Z_CELL.match(text)
    if not m:
        raise ValueError("bad Z cell %r" % text)
    tors = tuple(int(t) for t in m.group(2).split(",")) if m.group(2) else ()
    return int(m.group(1)), tors


def _table_rows(stdout):
    """{name: row dict} of a `table` CSV output."""
    return {row["name"]: row for row in csv.DictReader(io.StringIO(stdout))}


def cohomology_cells(case_id, stdout):
    """{row: {degree: dim or (free, torsion)}}; one row for `compute`."""
    if case_id.startswith("table-"):
        out = {}
        for name, row in _table_rows(stdout).items():
            cells = {}
            for key, val in row.items():
                if key.startswith("H") and key[1:].isdigit():
                    cells[int(key[1:])] = (_parse_z_cell(val)
                                           if case_id.endswith("-Z")
                                           else int(val))
            out[name] = cells
        return out
    cells = {}
    for rec in json.loads(stdout)["H"]:
        cells[rec["degree"]] = (rec["dim"] if "dim" in rec
                                else (rec["free_rank"], tuple(rec["torsion"])))
    return {"": cells}


# ---------------------------------------------------------------------------


def universal_coefficient_failures(outputs):
    """Check every UC_PAIRS pair present in outputs ({case_id: stdout})."""
    failures = []
    for zid, fid, p in UC_PAIRS:
        if zid not in outputs or fid not in outputs:
            continue
        zrows = cohomology_cells(zid, outputs[zid])
        frows = cohomology_cells(fid, outputs[fid])
        for row, fcells in sorted(frows.items()):
            zcells = zrows.get(row)
            if zcells is None:
                failures.append((fid, "row %r missing over Z" % row))
                continue
            for i in sorted(fcells):
                if i + 1 not in zcells:
                    continue
                free, tors_i = zcells[i]
                tors_next = zcells[i + 1][1]
                want = (free + sum(1 for t in tors_i if p and t % p == 0)
                        + sum(1 for t in tors_next if p and t % p == 0))
                if fcells[i] != want:
                    failures.append(
                        (fid, "universal coefficients fail for %s H^%d: "
                              "dim %d over char %d, Z predicts %d"
                              % (row or fid, i, fcells[i], p, want)))
    return failures


def tabledata_failures(golden, tabledata_path):
    """Golden `table` outputs against the test suite's transcription."""
    td = runpy.run_path(str(tabledata_path))
    failures = []
    for case_id in sorted(golden):
        if not case_id.startswith("table-"):
            continue
        _, deg, ring = case_id.split("-")
        names = td["DEG2"] if deg == "d2" else td["DEG3"]
        rows = _table_rows(golden[case_id][0].decode("utf-8"))
        if list(rows) != list(names):
            failures.append((case_id, "row names differ from tabledata"))
            continue
        char = _RING_CHAR.get(ring, 0)
        for name, row in rows.items():
            if ring == "Z":
                want_h = ["%d[%s]" % (f, ",".join(map(str, t))) if t
                          else str(f) for f, t in td["z_data"](name)]
            else:
                want_h = [str(v) for v in td["field_dims"](name, char)]
            got_h = [row["H%d" % i] for i in range(len(want_h))]
            want_tail = [str(td["normalizer_dim"](name, char)),
                         str(td["TANGENT"][name])]
            got_tail = [row["normalizer_dim"], row["tangent_dim"]]
            if got_h != want_h or got_tail != want_tail:
                failures.append((case_id, "row %s differs from tabledata"
                                 % name))
    return failures

"""Command-line interface: compute / table / verify.

compute  -- cohomology (optionally with the moduli report) for one
            algebra, from the built-in catalog or from a JSON file.
table    -- reproduce the degree-2 or degree-3 summary table over a
            chosen coefficient ring, optionally diffing every cell
            against the embedded expected values.
verify   -- validate a JSON algebra description file.

Exit codes: 0 success, 1 expected-value mismatch in `table --expected`,
2 invalid flags or usage, 3 algebra validation failure, 4 size budget
exceeded.

Algebra description file (UTF-8 JSON):
  { "name": str, "n": int,
    "basis": [ n x n arrays of integers or "p/q" strings ],
    "splitting": optional { "idempotents": [...], "radical": [...] } }

Result document (JSON): { "algebra", "n", "d", "ring", "method",
  "H": [ per-degree records ], "moduli"?: {...} } with ring one of
  "Q", "Fp:<p>", "Z"; all numbers exact integers.
"""

import argparse
import csv
import io
import json
import sys
from fractions import Fraction

from .algebra import (AlgebraError, NotSplit, detect_splitting,
                      validate_splitting, verify_subalgebra, catalog,
                      structure_constants_ok)
from .cohomology import DegreeOutOfRange, cohomology_of
from .complexes import DEFAULT_SIZE_BUDGET, SizeBudgetExceeded
from .exactla import GF, QQ, ZZ
from .moduli import moduli_report


class UsageError(Exception):
    """Invalid flag combination or value (exit code 2)."""


# ---------------------------------------------------------------------------
# coefficient rings

def parse_ring(text):
    """'Q' | 'Z' | 'F<p>'  ->  (domain, canonical ring string)."""
    if text == "Q":
        return QQ, "Q"
    if text == "Z":
        return ZZ, "Z"
    if text.startswith("F") and text[1:].isascii() and text[1:].isdigit():
        try:
            p = int(text[1:])
        except ValueError:  # too many digits to convert
            raise UsageError("bad ring: F<p> with %d digits is too long"
                             % (len(text) - 1))
        try:
            dom = GF(p)
        except ValueError as e:
            raise UsageError("bad ring %r: %s" % (text, e))
        return dom, "Fp:%d" % p
    raise UsageError("bad ring %r: expected Q, Z, or F<p>" % text)


# ---------------------------------------------------------------------------
# algebra description files

def _parse_scalar(v):
    if isinstance(v, bool) or isinstance(v, float):
        raise AlgebraError("matrix entries must be integers or 'p/q' strings")
    if isinstance(v, int):
        return v
    if isinstance(v, str):
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError):
            raise AlgebraError("cannot parse matrix entry %r" % (v,))
    raise AlgebraError("matrix entries must be integers or 'p/q' strings")


def _parse_matrix(rows, n, what, domain):
    if (not isinstance(rows, list) or len(rows) != n
            or any(not isinstance(r, list) or len(r) != n for r in rows)):
        raise AlgebraError("%s must be an %dx%d array" % (what, n, n))
    try:
        return [[domain.normalize(_parse_scalar(v)) for v in r] for r in rows]
    except (ValueError, ZeroDivisionError) as e:
        raise AlgebraError("%s: %s" % (what, e)) from None


def algebra_from_dict(doc, domain):
    """Validate a parsed algebra description; returns an Algebra."""
    if not isinstance(doc, dict):
        raise AlgebraError("algebra file must contain a JSON object")
    try:
        name = doc["name"]
        n = doc["n"]
        basis = doc["basis"]
    except KeyError as e:
        raise AlgebraError("algebra file is missing the %s field" % e)
    if type(n) is not int or n <= 0:  # true is an int in Python
        raise AlgebraError("n must be a positive integer")
    if not isinstance(basis, list) or not basis:
        raise AlgebraError("basis must be a nonempty array of matrices")
    mats = [_parse_matrix(b, n, "basis matrix %d" % (k + 1), domain)
            for k, b in enumerate(basis)]
    A = verify_subalgebra(n, domain, mats, name=str(name))
    if "splitting" in doc:
        sp = doc["splitting"]
        if not (isinstance(sp, dict) and all(isinstance(
                sp.get(f, []), list) for f in ("idempotents", "radical"))):
            raise AlgebraError("splitting must be an object of matrix arrays")
        idem = [_parse_matrix(m, n, "idempotent %d" % (k + 1), domain)
                for k, m in enumerate(sp.get("idempotents", []))]
        rad = [_parse_matrix(m, n, "radical matrix %d" % (k + 1), domain)
               for k, m in enumerate(sp.get("radical", []))]
        validate_splitting(A, idem, rad)
    return A


def load_algebra_file(path, domain):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as e:
        raise UsageError("cannot read %s: %s" % (path, e))
    except (ValueError, RecursionError) as e:
        raise AlgebraError("%s is not valid JSON: %s" % (path, e))
    return algebra_from_dict(doc, domain)


def _emit_scalar(v):
    f = Fraction(v)
    return int(f) if f.denominator == 1 else "%d/%d" % (f.numerator,
                                                        f.denominator)


def algebra_to_dict(A):
    """Serialize an algebra to the description-file structure."""
    return {
        "name": A.name,
        "n": A.n,
        "basis": [[[_emit_scalar(b.entry(i, j)) for j in range(A.n)]
                   for i in range(A.n)] for b in A.basis],
    }


# ---------------------------------------------------------------------------
# expected table values (per-degree formulas, evaluated at any ring)

# H patterns: dim H^i over a field of characteristic 0, which is also the
# free rank over the integers.  A row's torsion prime q adds Z/q over the
# integers in odd degrees, and over F_q one to every H^i and to the
# normalizer.
def _h_const(k):
    return lambda i: k


def _h_deg0(k):
    return lambda i: k if i == 0 else 0


def _h_ladder(i):
    return 2 if i == 0 else i + 1


def _h_doubling(i):
    return 4 if i == 0 else 3 * 2 ** i


def _h_low(i):
    return 1 if i <= 1 else 0


def _h_unit_line(i):
    return 4 if i == 0 else 1


_EXPECTED_ROWS = {
    2: [
        # name, H(i), normalizer dim, tangent dim, torsion prime
        ("M2", _h_const(0), 4, 0, None),
        ("B2", _h_const(0), 3, 1, None),
        ("D2", _h_const(0), 2, 2, None),
        ("N2", _h_const(1), 3, 2, 2),
        ("C2", _h_deg0(3), 4, 0, None),
    ],
    3: [
        ("M3", _h_const(0), 9, 0, None),
        ("P21", _h_const(0), 7, 2, None),
        ("P12", _h_const(0), 7, 2, None),
        ("B3", _h_const(0), 6, 3, None),
        ("M2xD1", _h_const(0), 5, 4, None),
        ("S10", _h_const(1), 6, 4, 2),
        ("S11", _h_low, 6, 4, None),
        ("S12", _h_const(1), 6, 4, 2),
        ("S13", _h_const(0), 5, 4, None),
        ("S14", _h_const(0), 5, 4, None),
        ("B2xD1", _h_const(0), 4, 5, None),
        ("N3", _h_ladder, 6, 5, None),
        ("S6", _h_const(1), 5, 5, None),
        ("S7", _h_deg0(3), 7, 2, None),
        ("S8", _h_deg0(3), 7, 2, None),
        ("S9", _h_const(1), 5, 5, None),
        ("D3", _h_const(0), 3, 6, None),
        ("N2xD1", _h_const(1), 4, 6, 2),
        ("J3", _h_const(2), 5, 6, 3),
        ("S2", _h_deg0(2), 5, 4, None),
        ("S3", _h_deg0(2), 5, 4, None),
        ("S4", _h_doubling, 7, 8, None),
        ("S5", _h_doubling, 7, 8, None),
        ("C2xD1", _h_deg0(3), 5, 4, None),
        ("S1", _h_unit_line, 6, 4, None),
        ("C3", _h_deg0(8), 9, 0, None),
    ],
}


def expected_cell(row, degree, ring_str):
    """Expected H value in one degree: int, or (free, torsion) over Z."""
    _, h, _, _, q = row
    if ring_str == "Z":
        return h(degree), (q,) if q and degree % 2 else ()
    return h(degree) + (ring_str == "Fp:%s" % q)


def expected_normalizer(row, ring_str):
    return row[2] + (ring_str == "Fp:%s" % row[4])


# ---------------------------------------------------------------------------
# result documents

def _h_record(rec):
    if "dim" in rec:
        return {"degree": rec["degree"], "dim": rec["dim"]}
    return {"degree": rec["degree"], "free_rank": rec["free_rank"],
            "torsion": list(rec["torsion"])}


def result_document(A, ring_str, res, report=None):
    doc = {
        "algebra": A.name,
        "n": A.n,
        "d": A.dim,
        "ring": ring_str,
        "method": res.method_tag,
        "H": [_h_record(r) for r in res.records],
    }
    if report is not None:
        doc["moduli"] = report.to_dict()
    return doc


def _fmt_h(rec):
    """Compact cell text: field dim, or free rank with [torsion factors]."""
    if "dim" in rec:
        return str(rec["dim"])
    if rec["torsion"]:
        return "%d[%s]" % (rec["free_rank"],
                           ",".join(str(t) for t in rec["torsion"]))
    return str(rec["free_rank"])


def _compute_csv(doc):
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    has_moduli = "moduli" in doc
    header = ["algebra", "n", "d", "ring", "method", "degree", "dim",
              "free_rank", "torsion"]
    if has_moduli:
        header += ["normalizer_dim", "tangent_dim", "smooth", "orbit_open"]
    w.writerow(header)
    for rec in doc["H"]:
        row = [doc["algebra"], doc["n"], doc["d"], doc["ring"],
               doc["method"], rec["degree"],
               rec.get("dim", ""),
               rec.get("free_rank", ""),
               ";".join(str(t) for t in rec.get("torsion", ()))]
        if has_moduli:
            m = doc["moduli"]
            row += [m["normalizer_dim"], m["tangent_dim"], m["smooth"],
                    m["orbit_open"]]
        w.writerow(row)
    return out.getvalue()


def _write_out(text, path):
    if path:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as e:
            raise UsageError("cannot write %s: %s" % (path, e))
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# commands

def _check_limits(args):
    for flag, value in (("--max-degree", args.max_degree),
                        ("--size-budget", args.size_budget)):
        if value < 0:
            raise UsageError("%s must be >= 0" % flag)


def cmd_compute(args):
    domain, ring_str = parse_ring(args.ring)
    _check_limits(args)
    if args.algebra is not None:
        try:
            A = catalog(args.algebra, domain)
        except AlgebraError as e:
            raise UsageError(str(e))
    else:
        A = load_algebra_file(args.file, domain)
    request = dict(method=args.method, degrees=range(args.max_degree + 1),
                   budget=args.size_budget)
    try:
        report = moduli_report(A, **request) if args.moduli else None
        res = report.cohomology if args.moduli else cohomology_of(A, **request)
    except ValueError as e:
        if isinstance(e, (AlgebraError, DegreeOutOfRange)):
            raise
        raise UsageError(str(e))  # e.g. --method jn off the J_n family
    doc = result_document(A, ring_str, res, report)
    del doc["H"][args.max_degree + 1:]  # the report may reach past D
    if args.format == "json":
        text = json.dumps(doc, indent=2) + "\n"
    else:
        text = _compute_csv(doc)
    _write_out(text, args.out)
    return 0


def cmd_table(args):
    domain, ring_str = parse_ring(args.ring)
    _check_limits(args)
    rows = _EXPECTED_ROWS[args.degree]
    degrees = list(range(args.max_degree + 1))
    table = []
    any_fail = False
    for row in rows:
        name = row[0]
        A = catalog(name, domain)
        report = moduli_report(A, degrees=degrees, budget=args.size_budget)
        recs = report.cohomology.records[:len(degrees)]  # H^0..H^D
        entry = {
            "name": name,
            "d": A.dim,
            "H": [_h_record(r) for r in recs],
            "normalizer_dim": report.normalizer_dim,
            "tangent_dim": report.tangent_dim,
        }
        if args.expected:
            checks = []
            for i, rec in enumerate(recs):
                want = expected_cell(row, i, ring_str)
                if "dim" in rec:
                    ok = rec["dim"] == want
                else:
                    ok = (rec["free_rank"], tuple(rec["torsion"])) == want
                checks.append("PASS" if ok else "FAIL")
            checks.append("PASS" if report.normalizer_dim
                          == expected_normalizer(row, ring_str) else "FAIL")
            checks.append("PASS" if report.tangent_dim == row[3] else "FAIL")
            entry["checks"] = checks
            any_fail = any_fail or "FAIL" in checks
        table.append(entry)
    if args.format == "json":
        doc = {"degree": args.degree, "ring": ring_str,
               "max_degree": args.max_degree, "rows": table}
        text = json.dumps(doc, indent=2) + "\n"
    else:
        out = io.StringIO()
        w = csv.writer(out, lineterminator="\n")
        hcols = ["H%d" % i for i in degrees]
        header = ["name", "d"] + hcols + ["normalizer_dim", "tangent_dim"]
        if args.expected:
            header += ["%s_check" % c for c in hcols + ["normalizer_dim",
                                                        "tangent_dim"]]
        w.writerow(header)
        for entry in table:
            line = ([entry["name"], entry["d"]]
                    + [_fmt_h(r) for r in entry["H"]]
                    + [entry["normalizer_dim"], entry["tangent_dim"]])
            if args.expected:
                line += entry["checks"]
            w.writerow(line)
        text = out.getvalue()
    _write_out(text, args.out)
    return 1 if any_fail else 0


def cmd_verify(args):
    A = load_algebra_file(args.file, QQ)
    lines = ["name: %s" % A.name, "n: %d" % A.n, "d: %d" % A.dim]
    if not structure_constants_ok(A):
        print("\n".join(lines))
        print("structure constants: FAILED associativity/unit checks")
        return 3
    lines.append("structure constants: ok (associative, unital)")
    try:
        sp = detect_splitting(A)
        lines.append("splitting: found (%d idempotents, radical rank %d)"
                     % (len(sp.idempotents), len(sp.radical)))
    except NotSplit as e:
        lines.append("splitting: not detected (%s)" % e)
    print("\n".join(lines))
    return 0


# ---------------------------------------------------------------------------

def build_parser():
    p = argparse.ArgumentParser(
        prog="hochschild",
        description="Exact Hochschild cohomology of matrix subalgebras, "
                    "with normalizer/tangent reports and summary tables.")
    sub = p.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("compute", help="cohomology of one algebra")
    src = pc.add_mutually_exclusive_group(required=True)
    src.add_argument("--algebra", help="built-in catalog name (e.g. N2, J3)")
    src.add_argument("--file", help="JSON algebra description file")
    pc.add_argument("--ring", default="Q",
                    help="coefficient ring: Q, Z, or F<p> (default Q)")
    pc.add_argument("--max-degree", type=int, default=4)
    pc.add_argument("--method", default="auto",
                    choices=["auto", "bar", "reduced", "cibils", "jn"])
    pc.add_argument("--size-budget", type=int, default=DEFAULT_SIZE_BUDGET,
                    help="max coordinates in any built cochain space")
    pc.add_argument("--moduli", action="store_true",
                    help="include normalizer/tangent/certificate report")
    pc.add_argument("--out", help="output path (default stdout)")
    pc.add_argument("--format", default="json", choices=["json", "csv"])
    pc.set_defaults(func=cmd_compute)

    pt = sub.add_parser("table", help="reproduce a summary table")
    pt.add_argument("--degree", type=int, required=True, choices=[2, 3])
    pt.add_argument("--ring", default="Q", choices=["Q", "F2", "F3", "Z"])
    pt.add_argument("--max-degree", type=int, default=4)
    pt.add_argument("--expected", action="store_true",
                    help="diff every cell against the embedded expected "
                         "values; nonzero exit on any FAIL")
    pt.add_argument("--size-budget", type=int, default=DEFAULT_SIZE_BUDGET)
    pt.add_argument("--out", help="output path (default stdout)")
    pt.add_argument("--format", default="csv", choices=["json", "csv"])
    pt.set_defaults(func=cmd_table)

    pv = sub.add_parser("verify", help="validate an algebra description file")
    pv.add_argument("--file", required=True)
    pv.set_defaults(func=cmd_verify)
    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except SizeBudgetExceeded as e:
        print("error: %s" % e, file=sys.stderr)
        return 4
    except DegreeOutOfRange as e:
        print("error: %s" % e, file=sys.stderr)
        return 2
    except AlgebraError as e:
        print("error: %s" % e, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface: flags, file formats, table diffing, exit codes."""

import copy
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hochschild import cli
from hochschild.algebra import AlgebraError, catalog, conjugate_algebra
from hochschild.cli import (UsageError, algebra_from_dict, algebra_to_dict,
                            main, parse_ring)
from hochschild.exactla import GF, QQ, ZZ

from _tabledata import (ALL_NAMES, TANGENT, field_dims, normalizer_dim,
                        z_data)


def run(capsys, *argv):
    rc = main(list(argv))
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


# ---------------------------------------------------------------------------
# ring strings

def test_parse_ring():
    assert parse_ring("Q") == (QQ, "Q")
    assert parse_ring("Z") == (ZZ, "Z")
    dom, s = parse_ring("F5")
    assert s == "Fp:5" and dom.p == 5
    # only ASCII digits name a prime ("\u00b2" is a superscript two,
    # "\u0663" an Arabic-Indic three), and a prime too large to be decided
    # is refused like a composite, as is one too long for int()
    for bad in ("F6", "F1", "F", "X", "q", "F\u00b2", "F\u0663",
                "F3317044064679887385961981", "F" + "7" * 5000):
        with pytest.raises(UsageError):
            parse_ring(bad)


# ---------------------------------------------------------------------------
# compute command

def test_compute_example_one_dimensional_tail(capsys):
    rc, out, _ = run(capsys, "compute", "--algebra", "S11",
                     "--ring", "Q", "--max-degree", "4")
    assert rc == 0
    doc = json.loads(out)
    assert doc["algebra"] == "S11" and doc["n"] == 3 and doc["ring"] == "Q"
    assert [r["dim"] for r in doc["H"]] == [1, 1, 0, 0, 0]
    assert doc["method"] == "cibils"


def test_compute_example_torsion_over_z(capsys):
    rc, out, _ = run(capsys, "compute", "--algebra", "N2",
                     "--ring", "Z", "--max-degree", "3")
    assert rc == 0
    doc = json.loads(out)
    assert [r["free_rank"] for r in doc["H"]] == [1, 1, 1, 1]
    assert [r["torsion"] for r in doc["H"]] == [[], [2], [], [2]]


def test_compute_example_moduli(capsys):
    rc, out, _ = run(capsys, "compute", "--algebra", "J3", "--ring", "F3",
                     "--max-degree", "2", "--moduli")
    assert rc == 0
    doc = json.loads(out)
    assert [r["dim"] for r in doc["H"]] == [3, 3, 3]
    m = doc["moduli"]
    assert m["normalizer_dim"] == 6
    assert m["tangent_dim"] == 6  # 3 + 9 - 6
    assert m["smooth"] == "inconclusive" and "caveat" in m


def test_compute_csv_format(capsys):
    rc, out, _ = run(capsys, "compute", "--algebra", "N2", "--ring", "Z",
                     "--max-degree", "2", "--format", "csv", "--moduli")
    assert rc == 0
    lines = out.strip().split("\n")
    assert len(lines) == 4
    assert lines[0].startswith("algebra,n,d,ring,method,degree,dim,"
                               "free_rank,torsion,normalizer_dim")
    assert lines[2].split(",")[:9] == ["N2", "2", "2", "Z", "cibils", "1",
                                       "", "1", "2"]


def test_compute_out_file(tmp_path, capsys):
    path = tmp_path / "res.json"
    rc, out, _ = run(capsys, "compute", "--algebra", "B2", "--out",
                     str(path))
    assert rc == 0 and out == ""
    doc = json.loads(path.read_text())
    assert [r["dim"] for r in doc["H"]] == [0, 0, 0, 0, 0]


def test_compute_from_file_matches_catalog(tmp_path, capsys):
    path = tmp_path / "s6.json"
    path.write_text(json.dumps(algebra_to_dict(catalog("S6", QQ))))
    rc1, out1, _ = run(capsys, "compute", "--file", str(path))
    rc2, out2, _ = run(capsys, "compute", "--algebra", "S6")
    assert rc1 == rc2 == 0
    d1, d2 = json.loads(out1), json.loads(out2)
    assert d1["H"] == d2["H"] and d1["d"] == d2["d"]


def test_byte_stability(capsys):
    argv = ("compute", "--algebra", "S10", "--ring", "Z",
            "--max-degree", "3", "--moduli")
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second
    argv = ("table", "--degree", "2", "--ring", "F2", "--expected")
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)
    assert first == second


# ---------------------------------------------------------------------------
# table command

def test_table_degree2_expected(capsys):
    rc, out, _ = run(capsys, "table", "--degree", "2", "--ring", "Q",
                     "--expected")
    assert rc == 0
    lines = out.strip().split("\n")
    assert len(lines) == 6  # header + 5 rows
    assert "FAIL" not in out
    assert lines[0].split(",")[:2] == ["name", "d"]


def test_table_degree3_f2_expected(capsys):
    rc, out, _ = run(capsys, "table", "--degree", "3", "--ring", "F2",
                     "--expected")
    assert rc == 0
    lines = out.strip().split("\n")
    assert len(lines) == 27  # header + 26 rows
    assert "FAIL" not in out
    for name in ("N2xD1", "S10", "S12"):
        row = next(l for l in lines if l.startswith(name + ","))
        assert row.split(",")[2:7] == ["2", "2", "2", "2", "2"]


def test_table_max_degree_zero(capsys):
    rc, out, _ = run(capsys, "table", "--degree", "3", "--ring", "Q",
                     "--max-degree", "0")
    assert rc == 0
    lines = out.strip().split("\n")
    assert len(lines) == 27
    assert lines[0].split(",") == ["name", "d", "H0", "normalizer_dim",
                                   "tangent_dim"]
    c3 = next(l for l in lines if l.startswith("C3,"))
    assert c3.split(",")[2] == "8"


def test_table_json_format(capsys):
    rc, out, _ = run(capsys, "table", "--degree", "2", "--ring", "Z",
                     "--expected", "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["degree"] == 2 and doc["ring"] == "Z"
    assert len(doc["rows"]) == 5
    for row in doc["rows"]:
        assert set(row) == {"name", "d", "H", "normalizer_dim",
                            "tangent_dim", "checks"}
        assert set(row["checks"]) == {"PASS"}


@pytest.mark.parametrize("ring,char", [("Q", 0), ("Fp:2", 2), ("Fp:3", 3),
                                       ("Z", 0)])
def test_embedded_table_matches_the_transcription(ring, char):
    # the --expected gate's formulas against the suite's own transcription,
    # for every row in degrees 0..4
    rows = cli._EXPECTED_ROWS[2] + cli._EXPECTED_ROWS[3]
    assert tuple(row[0] for row in rows) == ALL_NAMES
    for row in rows:
        name = row[0]
        want = z_data(name) if ring == "Z" else field_dims(name, char)
        assert tuple(cli.expected_cell(row, i, ring)
                     for i in range(5)) == want, name
        assert cli.expected_normalizer(row, ring) == normalizer_dim(name,
                                                                    char)
        assert row[3] == TANGENT[name]


def test_table_detects_mismatch(capsys, monkeypatch):
    rows = [list(r) for r in cli._EXPECTED_ROWS[2]]
    rows[0][3] = 99  # sabotage one tangent dimension
    monkeypatch.setitem(cli._EXPECTED_ROWS, 2,
                        [tuple(r) for r in rows])
    rc, out, _ = run(capsys, "table", "--degree", "2", "--ring", "Q",
                     "--expected")
    assert rc == 1
    assert "FAIL" in out


# ---------------------------------------------------------------------------
# one cohomology pass per request

def _count_cohomology(monkeypatch):
    """Record the algebra of every cohomology_of call from cli or moduli."""
    from hochschild import moduli
    calls = []
    real = cli.cohomology_of

    def counted(A, *args, **kwargs):
        calls.append(A.name)
        return real(A, *args, **kwargs)
    monkeypatch.setattr(cli, "cohomology_of", counted)
    monkeypatch.setattr(moduli, "cohomology_of", counted)
    return calls


def test_table_computes_cohomology_once_per_row(capsys, monkeypatch):
    calls = _count_cohomology(monkeypatch)
    rc, _, _ = run(capsys, "table", "--degree", "3", "--ring", "Q",
                   "--expected")
    assert rc == 0
    assert calls == [row[0] for row in cli._EXPECTED_ROWS[3]]
    assert len(calls) == 26


@pytest.mark.parametrize("name,ring", [("J3", "Z"), ("S10", "F2")])
@pytest.mark.parametrize("max_degree,passes", [(0, 1), (1, 1), (2, 1)])
def test_compute_moduli_reuses_its_cohomology(capsys, monkeypatch, name,
                                              ring, max_degree, passes):
    argv = ["compute", "--algebra", name, "--ring", ring, "--moduli"]
    _, want, _ = run(capsys, *argv, "--max-degree", "2")
    calls = _count_cohomology(monkeypatch)
    rc, out, _ = run(capsys, *argv, "--max-degree", str(max_degree))
    assert rc == 0
    # below degree 2 the request still reaches H^2, which the report reads
    assert len(calls) == passes
    assert json.loads(out)["moduli"] == json.loads(want)["moduli"]


@pytest.mark.parametrize("max_degree", [0, 1, 2])
def test_compute_moduli_builds_one_method_complex(capsys, monkeypatch,
                                                  max_degree):
    # the report's bar complex and the cibils complex of the request, also
    # below degree 2, where the report reads H^2 from the same request
    built = _count_builds(monkeypatch)
    rc, out, _ = run(capsys, "compute", "--algebra", "S11", "--ring", "Q",
                     "--moduli", "--max-degree", str(max_degree))
    assert rc == 0
    assert built == ["bar", "cibils"]
    assert [r["degree"] for r in json.loads(out)["H"]] == list(
        range(max_degree + 1))


def _count_builds(monkeypatch):
    """Record the tag of every word complex built."""
    from hochschild import complexes
    built, real = [], complexes._word_complex

    def counted(tag, *args, **kwargs):
        built.append(tag)
        return real(tag, *args, **kwargs)
    monkeypatch.setattr(complexes, "_word_complex", counted)
    return built


@pytest.mark.parametrize("max_degree", [0, 1])
def test_table_builds_each_complex_once_per_row(capsys, monkeypatch,
                                                max_degree):
    # below degree 2 the report's H^2 comes from the same method complex:
    # per row the report's bar complex, sized first, then one cibils complex
    built = _count_builds(monkeypatch)
    rc, out, _ = run(capsys, "table", "--degree", "2", "--ring", "Q",
                     "--max-degree", str(max_degree))
    assert rc == 0
    assert built == ["bar", "cibils"] * 5
    header = out.splitlines()[0].split(",")
    assert header == ["name", "d"] + ["H%d" % i for i in range(
        max_degree + 1)] + ["normalizer_dim", "tangent_dim"]


@pytest.mark.parametrize("max_degree", [0, 1, 2])
@pytest.mark.parametrize("budget,tag,degree,rank", [(10, "bar", 1, 20),
                                                    (70, "cibils", 3, 90)])
def test_compute_moduli_budget_refusal_names_the_first_space(
        capsys, max_degree, budget, tag, degree, rank):
    # the request builds N3's bar complex to degree 2 with ranks 5, 20, 60
    # and its cibils complex to degree max(D, 2) + 1 with ranks 5, 15, 45,
    # 90 (both tops keep the words that begin with a generator): the bar
    # complex is sized first, and a refusal names the first degree over the
    # budget; at budget 100 both fit
    argv = ["compute", "--algebra", "N3", "--ring", "Q", "--moduli",
            "--max-degree", str(max_degree), "--size-budget"]
    rc, out, err = run(capsys, *argv, str(budget))
    assert rc == 4 and not out
    assert err == ("error: %s complex needs a cochain space of rank %d in "
                   "degree %d > budget %d\n" % (tag, rank, degree, budget))
    rc, out, err = run(capsys, *argv, "100")
    assert rc == 0 and not err
    assert len(json.loads(out)["H"]) == max_degree + 1


def test_compute_moduli_bar_refusal_precedes_the_splitting(capsys,
                                                          monkeypatch):
    from hochschild import cohomology
    calls, real = [], cohomology.detect_splitting

    def counted(A):
        calls.append(A.name)
        return real(A)
    monkeypatch.setattr(cohomology, "detect_splitting", counted)
    argv = ["compute", "--algebra", "N3", "--moduli", "--size-budget"]
    rc, _, err = run(capsys, *argv, "10")
    assert rc == 4 and err.startswith("error: bar complex")
    assert calls == []
    # a budget the bar complex fits reaches the splitting
    rc, _, err = run(capsys, *argv, "70")
    assert rc == 4 and err.startswith("error: cibils complex")
    assert calls == ["N3"]


@pytest.mark.parametrize("argv,code,text", [
    (["compute", "--algebra", "N3", "--max-degree", "50000"], 4,
     "error: cibils complex needs a cochain space of rank 2657205 in degree "
     "12 > budget 2000000"),
    (["table", "--degree", "3", "--max-degree", "60000"], 4,
     "error: cibils complex needs a cochain space of rank 2692538 in degree "
     "29 > budget 2000000"),
    (["compute", "--algebra", "N3", "--ring", "F" + "7" * 5000], 2,
     "error: bad ring: F<p> with 5000 digits is too long"),
], ids=["compute-max-degree", "table-max-degree", "ring-prime"])
def test_extreme_arguments_end_with_one_error_line(capsys, argv, code, text):
    # a degree far past the budget is refused at the first degree over it,
    # and a prime of more than 4,300 digits, which str -> int conversion
    # refuses, still ends with its documented exit code
    rc, out, err = run(capsys, *argv)
    assert rc == code and not out
    assert err.startswith(text) and err.count("\n") == 1
    assert "Traceback" not in err


def test_refusal_counts_no_degree_past_the_budget(capsys):
    # N3's cibils ranks 5 * 3^p pass the budget in degree 12; the 49,988
    # degrees above it are never counted
    import tracemalloc
    tracemalloc.start()
    try:
        rc, out, err = run(capsys, "compute", "--algebra", "N3",
                           "--max-degree", "50000")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 4 and not out
    assert err == ("error: cibils complex needs a cochain space of rank "
                   "2657205 in degree 12 > budget 2000000\n")
    assert peak < 2 ** 20


def test_compute_b16_moduli_within_the_default_budget(capsys):
    # the budget counts the bar complex's built top, 505,920 rows that
    # begin with a generator, not its nominal rank 2,219,520
    argv = ["compute", "--algebra", "B16", "--moduli", "--max-degree", "3"]
    rc, out, err = run(capsys, *argv)
    assert rc == 0 and not err
    assert run(capsys, *argv, "--size-budget", "100000000") == (0, out, "")


# ---------------------------------------------------------------------------
# verify command

def write_algebra(tmp_path, doc, fname="alg.json"):
    path = tmp_path / fname
    path.write_text(json.dumps(doc))
    return str(path)


def test_verify_splittable(tmp_path, capsys):
    path = write_algebra(tmp_path, algebra_to_dict(catalog("S6", QQ)))
    rc, out, _ = run(capsys, "verify", "--file", path)
    assert rc == 0
    assert "structure constants: ok (associative, unital)" in out
    assert "splitting: found (2 idempotents" in out


def test_verify_not_splittable(tmp_path, capsys):
    path = write_algebra(tmp_path, algebra_to_dict(catalog("M2", QQ)))
    rc, out, _ = run(capsys, "verify", "--file", path)
    assert rc == 0
    assert "splitting: not detected" in out


def test_verify_missing_unit(tmp_path, capsys):
    doc = {"name": "bad", "n": 2, "basis": [[[0, 1], [0, 0]]]}
    rc, _, err = run(capsys, "verify", "--file",
                     write_algebra(tmp_path, doc))
    assert rc == 3
    assert "identity matrix is not in the span" in err


def test_verify_dependent_basis(tmp_path, capsys):
    doc = {"name": "bad", "n": 2,
           "basis": [[[1, 0], [0, 1]], [[2, 0], [0, 2]]]}
    rc, _, err = run(capsys, "verify", "--file",
                     write_algebra(tmp_path, doc))
    assert rc == 3
    assert "linearly dependent" in err


def test_fraction_entries_parse_reduced(tmp_path, capsys):
    doc = {"name": "half", "n": 2,
           "basis": [[[1, 0], [0, 1]], [["3/6", 0], [0, 0]]]}
    rc, out, _ = run(capsys, "verify", "--file",
                     write_algebra(tmp_path, doc))
    assert rc == 0  # diag(1/2, 0) is idempotent-scaled: closed under product


# ---------------------------------------------------------------------------
# exit codes

def test_exit_code_bad_ring(capsys):
    rc, _, err = run(capsys, "compute", "--algebra", "N2", "--ring", "F6")
    assert rc == 2 and "ring" in err


def test_exit_code_jn_off_family(capsys):
    rc, _, err = run(capsys, "compute", "--algebra", "N2",
                     "--method", "jn")
    assert rc == 2


def test_exit_code_cibils_unsplittable(tmp_path, capsys):
    # B2 conjugated by [[1,0],[1,1]] holds no diagonal idempotent but 0 and
    # 1, so neither it nor a proper corner splits
    conj = conjugate_algebra(catalog("B2", ZZ), [[1, 0], [1, 1]])
    path = write_algebra(tmp_path, algebra_to_dict(conj))
    rc, _, err = run(capsys, "compute", "--file", path, "--method", "cibils")
    assert rc == 3 and "not a 0/1 matrix" in err
    rc, out, _ = run(capsys, "compute", "--file", path, "--ring", "Z")
    assert rc == 0 and json.loads(out)["method"] == "reduced"


def test_compute_m2_cibils_takes_the_corner(capsys):
    rc, out, _ = run(capsys, "compute", "--algebra", "M2",
                     "--method", "cibils")
    assert rc == 0
    doc = json.loads(out)
    assert doc["method"] == "cibils"
    assert [r["dim"] for r in doc["H"]] == [0] * 5


def test_compute_p33_moduli_within_budget(capsys):
    # the reduced complex of P33 exceeds the default budget in degree 4
    # below its top (the top keeps only the words that begin with a
    # generator); its basic corner B2 does not
    rc, out, _ = run(capsys, "compute", "--algebra", "P33", "--ring", "Q",
                     "--max-degree", "3", "--moduli")
    assert rc == 0
    doc = json.loads(out)
    assert doc["method"] == "cibils"
    assert [r["dim"] for r in doc["H"]] == [0] * 4
    assert doc["moduli"]["normalizer_dim"] == doc["d"]
    rc, _, err = run(capsys, "compute", "--algebra", "P33", "--ring", "Q",
                     "--max-degree", "4", "--method", "reduced")
    assert rc == 4
    assert err == ("error: reduced complex needs a cochain space of rank "
                   "4112784 in degree 4 > budget 2000000\n")


def test_exit_code_missing_file(capsys):
    rc, _, err = run(capsys, "compute", "--file", "/nonexistent/x.json")
    assert rc == 2


@pytest.mark.parametrize("argv", [
    ("compute", "--algebra", "N2"),
    ("table", "--degree", "2", "--ring", "F2")], ids=["compute", "table"])
def test_exit_code_unwritable_out(tmp_path, capsys, argv):
    # a missing directory and a directory are both refused as usage errors
    for path in ("/nonexistent/x.json", str(tmp_path)):
        rc, out, err = run(capsys, *argv, "--out", path)
        assert rc == 2 and not out
        assert err.startswith("error: cannot write %s: " % path)


def test_exit_code_malformed_file(tmp_path, capsys):
    path = tmp_path / "garbage.json"
    path.write_text("{ not json")
    rc, _, err = run(capsys, "compute", "--file", str(path))
    assert rc == 3


def test_exit_code_boolean_n(tmp_path, capsys):
    # true == 1 in Python, and a 1x1 basis would otherwise pass as n = 1
    path = tmp_path / "bool_n.json"
    path.write_text(json.dumps({"name": "T", "n": True, "basis": [[[1]]]}))
    rc, out, err = run(capsys, "compute", "--file", str(path))
    assert rc == 3 and not out and "n must be a positive integer" in err


def test_exit_code_budget(capsys):
    rc, _, err = run(capsys, "compute", "--algebra", "S4",
                     "--method", "bar", "--size-budget", "100")
    assert rc == 4 and "budget" in err


def test_exit_code_negative_degree(capsys):
    rc, _, err = run(capsys, "compute", "--algebra", "N2",
                     "--max-degree", "-1")
    assert rc == 2


@pytest.mark.parametrize("argv", [("compute", "--algebra", "N2"),
                                  ("table", "--degree", "2")])
def test_exit_code_negative_size_budget(capsys, argv):
    rc, out, err = run(capsys, *argv, "--size-budget", "-5")
    assert rc == 2 and not out and "--size-budget must be >= 0" in err


def test_compute_parabolic_by_name(capsys):
    rc, out, _ = run(capsys, "compute", "--algebra", "P22", "--ring", "Q",
                     "--max-degree", "1")
    assert rc == 0 and out


def test_exit_code_unknown_catalog_name(capsys):
    rc, _, err = run(capsys, "compute", "--algebra", "NOPE")
    assert rc == 2


@pytest.mark.parametrize("name", ["", "_", ","])
def test_exit_code_catalog_name_empty_after_normalization(capsys, name):
    # an empty --algebra is a catalog name, not an absent one
    rc, out, err = run(capsys, "compute", "--algebra", name, "--ring", "Q")
    assert rc == 2 and not out
    assert err == "error: unknown catalog name %r\n" % name


# names with no digit draw no family size, so none names an algebra
_NAME = st.text(st.characters(blacklist_categories=("Cs", "Nd", "Nl", "No")),
                max_size=4)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.one_of(st.sampled_from(["", " ", "_", ",", "P", "x", "\u00e9"]),
                 _NAME))
def test_compute_unknown_names_exit_cleanly(capsys, name):
    rc, out, err = run(capsys, "compute", "--algebra=" + name,
                       "--max-degree", "0")
    assert rc == 2 and not out, (name, err)
    assert err.startswith("error: ") and "Traceback" not in err, (name, err)


def test_argparse_usage_errors():
    with pytest.raises(SystemExit) as ei:
        main(["compute"])  # neither --algebra nor --file
    assert ei.value.code == 2
    with pytest.raises(SystemExit) as ei:
        main(["table", "--degree", "7"])  # not a valid choice
    assert ei.value.code == 2


# ---------------------------------------------------------------------------
# file round-trips and document invariants

def test_round_trip_whole_catalog():
    for name in ALL_NAMES:
        A = catalog(name, QQ)
        B = algebra_from_dict(algebra_to_dict(A), QQ)
        assert B.n == A.n and B.dim == A.dim
        assert ([dict(b.items()) for b in B.basis]
                == [dict(a.items()) for a in A.basis])
        assert B.unit_coords == A.unit_coords
        assert B.mult == A.mult


def test_result_document_invariants(capsys):
    for args in (("compute", "--algebra", "N2", "--ring", "Z"),
                 ("compute", "--algebra", "J4", "--ring", "Z",
                  "--max-degree", "5"),
                 ("compute", "--algebra", "S1", "--ring", "F2",
                  "--moduli")):
        rc, out, _ = run(capsys, *args)
        assert rc == 0
        doc = json.loads(out)
        degrees = [r["degree"] for r in doc["H"]]
        assert degrees == list(range(len(degrees)))
        for rec in doc["H"]:
            for t in rec.get("torsion", ()):
                assert isinstance(t, int) and t > 1
            tors = rec.get("torsion", ())
            assert all(tors[i + 1] % tors[i] == 0
                       for i in range(len(tors) - 1))

        def no_floats(obj):
            if isinstance(obj, float):
                raise AssertionError("float leaked into document")
            if isinstance(obj, dict):
                for v in obj.values():
                    no_floats(v)
            elif isinstance(obj, list):
                for v in obj:
                    no_floats(v)

        no_floats(doc)


# ---------------------------------------------------------------------------
# the splitting block of an algebra file

README_EXAMPLE = {
    "name": "upper-triangular-2",
    "n": 2,
    "basis": [[[1, 0], [0, 1]], [[0, 1], [0, 0]], [[0, 0], [0, "1/2"]]],
    "splitting": {"idempotents": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]],
                  "radical": [[[0, 1], [0, 0]]]},
}


@pytest.mark.parametrize("ring", ["Q", "F3"])
def test_file_splitting_feeds_cibils(tmp_path, capsys, ring):
    # the basis is not 0/1, so only the file's splitting lets cibils run
    path = write_algebra(tmp_path, README_EXAMPLE)
    docs = {}
    for method in ("cibils", "auto", "reduced"):
        rc, out, err = run(capsys, "compute", "--file", path, "--ring", ring,
                           "--method", method, "--max-degree", "3")
        assert rc == 0, err
        docs[method] = json.loads(out)
    assert docs["auto"]["method"] == "cibils"
    assert docs["cibils"]["H"] == docs["auto"]["H"] == docs["reduced"]["H"]
    no_split = {k: v for k, v in README_EXAMPLE.items() if k != "splitting"}
    rc, _, err = run(capsys, "compute", "--file",
                     write_algebra(tmp_path, no_split), "--ring", ring,
                     "--method", "cibils")
    assert rc == 3 and "not a 0/1 matrix" in err


# ---------------------------------------------------------------------------
# malformed algebra files end with exit code 2 or 3, never a traceback

# upper triangular 2x2 with its splitting; valid over every ring
_B2_DOC = {
    "name": "B2", "n": 2,
    "basis": [[[1, 0], [0, 1]], [[0, 1], [0, 0]], [[0, 0], [0, 1]]],
    "splitting": {"idempotents": [[[1, 0], [0, 0]], [[0, 0], [0, 1]]],
                  "radical": [[[0, 1], [0, 0]]]},
}


def _not_a_fraction(text):
    try:
        Fraction(text)
    except (ValueError, ZeroDivisionError):
        return True
    return False


def _not_json(text):
    try:
        json.loads(text)
    except ValueError:
        return True
    return False


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3)
    | st.floats(allow_nan=False) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6)
_BAD_SCALAR = (st.floats(allow_nan=False) | st.booleans() | st.none()
               | st.lists(st.integers(), max_size=2)
               | st.text(max_size=4).filter(_not_a_fraction))
_MATRIX_PATHS = [("basis", k) for k in range(3)] + [
    ("splitting", "idempotents", 0), ("splitting", "idempotents", 1),
    ("splitting", "radical", 0)]


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


@st.composite
def _malformed(draw):
    """(file text, ring): a valid document broken in one drawn way."""
    ring = draw(st.sampled_from(["Q", "Z", "F2", "F3"]))
    doc = copy.deepcopy(draw(st.sampled_from([_B2_DOC, README_EXAMPLE])))
    how = draw(st.sampled_from(["text", "top", "drop", "n", "basis",
                                "entry", "row", "splitting", "list",
                                "empty list"]))
    if how == "text":
        return draw(st.text(max_size=20).filter(_not_json)), ring
    if how == "top":
        doc = draw(_JSON.filter(lambda v: not isinstance(v, dict)))
    elif how == "drop":
        del doc[draw(st.sampled_from(["name", "n", "basis"]))]
    elif how == "n":
        doc["n"] = draw(_JSON.filter(
            lambda v: not (type(v) is int and v == 2)))
    elif how == "basis":
        doc["basis"] = draw(_JSON.filter(
            lambda v: not isinstance(v, list) or not v))
    elif how in ("entry", "row"):
        mat = _at(doc, draw(st.sampled_from(_MATRIX_PATHS)))
        i = draw(st.integers(0, 1))
        if how == "entry":
            mat[i][draw(st.integers(0, 1))] = draw(_BAD_SCALAR)
        else:
            mat[i] = draw(_JSON.filter(
                lambda v: not isinstance(v, list) or len(v) != 2))
    elif how == "splitting":
        doc["splitting"] = draw(_JSON.filter(
            lambda v: not isinstance(v, dict)))
    else:
        field = draw(st.sampled_from(["idempotents", "radical"]))
        doc["splitting"][field] = [] if how == "empty list" else draw(
            _JSON.filter(lambda v: not isinstance(v, list)))
    return json.dumps(doc), ring


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_malformed())
def test_malformed_files_exit_cleanly(tmp_path, capsys, case):
    text, ring = case
    path = tmp_path / "alg.json"
    path.write_text(text, encoding="utf-8")
    rc, _, err = run(capsys, "compute", "--file", str(path), "--ring", ring)
    assert rc in (2, 3) and err.startswith("error: "), (text, ring, err)


def test_import_loads_no_introspection_modules():
    # each launch compiles src/ when bytecode is not written, and the
    # dataclasses chain (inspect, ast, dis, tokenize) was about a fifth of
    # the import; a fresh interpreter without site shows what cli pulls in
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    code = ("import sys; sys.path.insert(0, %r); import hochschild.cli; "
            "print(sorted({'dataclasses', 'inspect', 'ast', 'dis', "
            "'tokenize'} & set(sys.modules)))" % src)
    out = subprocess.run([sys.executable, "-S", "-c", code], check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"

"""Acceptance gate: one test per numbered shipping criterion.

Run `python3 -m pytest -v tests/test_acceptance.py`; the PASSED/FAILED
status of each `test_criterion_NN_*` line is the verdict for that
criterion, and every test also prints its own one-line summary.
"""

import random
import time
from fractions import Fraction

import pytest

from hochschild.algebra import (catalog, conjugate_algebra, direct_product,
                                ideal_quotient_bimodule, regular_bimodule,
                                sandwich_bimodule, verify_subalgebra)
from hochschild.cohomology import cohomology_of, compute_cohomology
from hochschild.complexes import (DEFAULT_SIZE_BUDGET, Cochain, apply_d,
                                  bar_complex, cibils_complex, cup_product,
                                  jn_periodic_complex, reduced_bar_complex)
from hochschild.exactla import GF, QQ, ZZ, Mat
from hochschild.moduli import (INCONCLUSIVE, YES, certificates,
                               moduli_report, normalizer_dim,
                               tangent_dimension)

from _tabledata import (ALL_NAMES, DEG2, DEG3, TANGENT, TRANSPOSE_PAIRS,
                        field_dims, normalizer_dim as table_normalizer_dim,
                        z_data)

NOT_SPLITTABLE = {"M2", "M3", "P21", "P12", "M2xD1"}


def _ok(num, text):
    print("criterion %d: PASS - %s" % (num, text))


def test_criterion_01_degree2_catalog_over_q_and_f2():
    t0 = time.monotonic()
    for name in DEG2:
        for dom, char in ((QQ, 0), (GF(2), 2)):
            got = cohomology_of(catalog(name, dom), degrees=range(5)).dims()
            assert got == field_dims(name, char), (name, char)
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    _ok(1, "5 size-2 entries x {Q, F2} x degrees 0..4 in %.2fs" % elapsed)


def test_criterion_02_degree3_catalog_over_q_f2_f3():
    t0 = time.monotonic()
    for name in DEG3:
        for dom, char in ((QQ, 0), (GF(2), 2), (GF(3), 3)):
            res = cohomology_of(catalog(name, dom), degrees=range(5))
            assert res.dims() == field_dims(name, char), (name, char)
            assert max(res.complex.ranks) <= DEFAULT_SIZE_BUDGET
    elapsed = time.monotonic() - t0
    assert elapsed < 600.0
    _ok(2, "26 size-3 entries x {Q, F2, F3} x degrees 0..4 in %.2fs"
        % elapsed)


def test_criterion_03_integer_torsion():
    for name in ("N2", "S10", "S12"):
        r = cohomology_of(catalog(name, ZZ), degrees=range(5))
        assert r.free_ranks() == (1, 1, 1, 1, 1), name
        assert r.torsions() == ((), (2,), (), (2,), ()), name
        want = z_data(name)
        assert r.free_ranks() == tuple(w[0] for w in want)
        assert r.torsions() == tuple(tuple(w[1]) for w in want)
    for n in range(2, 6):
        r = cohomology_of(catalog("J", ZZ, n), degrees=range(6))
        assert r.method_tag == "jn_periodic"
        assert r.free_ranks() == (n - 1,) * 6, n
        assert r.torsions() == ((), (n,), (), (n,), (), (n,)), n
    _ok(3, "Z/2 odd torsion for N2/S10/S12; Z/n odd torsion for J_n, "
        "n = 2..5")


def test_criterion_04_differentials_compose_to_zero():
    checked = 0
    for name in ("N2", "C2", "S1", "S6", "N3", "J3", "P21"):
        for dom in (QQ, GF(2), ZZ):
            A = catalog(name, dom)
            for build in (bar_complex, reduced_bar_complex):
                cx = build(A, top_degree=3)
                assert cx.dd_verified
                checked += 1
            res = cohomology_of(A, degrees=range(3))
            assert res.complex.dd_verified
            checked += 1
    for n in range(2, 6):
        assert jn_periodic_complex(catalog("J", ZZ, n),
                                   top_degree=6).dd_verified
        checked += 1
    _ok(4, "d.d = 0 verified exactly on %d complexes (constructors "
        "always check)" % checked)


def test_criterion_05_method_agreement():
    for name in ALL_NAMES:
        for dom in (QQ, GF(2)):
            A = catalog(name, dom)
            dims = {}
            dims["bar"] = cohomology_of(A, method="bar",
                                        degrees=range(4)).dims()
            dims["reduced"] = cohomology_of(A, method="reduced",
                                            degrees=range(4)).dims()
            dims["cibils"] = cohomology_of(A, method="cibils",
                                           degrees=range(4)).dims()
            assert len(set(dims.values())) == 1, (name, dom, dims)
    # the non-basic entries take cibils on a basic corner eAe
    for name in sorted(NOT_SPLITTABLE) + ["P22", "P211"]:
        for dom in (QQ, GF(2), ZZ):
            A = catalog(name, dom)
            got = {}
            for m in ("auto", "cibils", "reduced"):
                r = cohomology_of(A, method=m, degrees=range(4))
                got[m] = (r.dims() if dom.is_field
                          else (r.free_ranks(), r.torsions()))
                assert m != "auto" or r.method_tag == "cibils", (name, dom)
            assert len(set(got.values())) == 1, (name, dom, got)
    _ok(5, "bar = reduced = cibils (on A or its basic corner) on all 31 "
        "entries over Q and F2, and corner = reduced on the 5 non-basic "
        "entries, P22 and P211 over Q, F2 and Z, degrees 0..3")


def test_criterion_06_normalizer_h0_law():
    for name in ALL_NAMES:
        for dom, char in ((QQ, 0), (GF(2), 2), (GF(3), 3)):
            A = catalog(name, dom)
            ndim = normalizer_dim(A)
            assert ndim == table_normalizer_dim(name, char), (name, char)
            h0 = cohomology_of(A, degrees=[0])[0]["dim"]
            assert h0 == ndim - A.dim, (name, char)
    assert normalizer_dim(catalog("J3", QQ)) == 5
    assert normalizer_dim(catalog("J3", GF(3))) == 6
    assert normalizer_dim(catalog("C3", QQ)) == 9
    _ok(6, "dim H^0 = dim N(A) - d and tabulated normalizer dims on all "
        "31 entries over Q, F2, F3")


def test_criterion_07_tangent_law():
    for name in ALL_NAMES:
        A = catalog(name, QQ)
        t = tangent_dimension(A)  # internally re-derives via 1-cocycles
        assert t == TANGENT[name], name
    for name, want in (("B3", 3), ("S4", 8), ("C3", 0), ("J3", 6),
                       ("S7", 2)):
        assert TANGENT[name] == want
    _ok(7, "tangent = dim H^1 + n^2 - dim N = derivation dim, matching "
        "the tabulated column on all 31 entries over Q")


def _random_unimodular(n, rng):
    g = Mat.identity(n, QQ)
    for _ in range(6):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        entries = dict(Mat.identity(n, QQ).items())
        entries[(i, j)] = Fraction(rng.choice((-2, -1, 1, 2)))
        g = g.mul(Mat(n, n, QQ, entries))
    return g


def test_criterion_08_invariance():
    rng = random.Random(20260815)
    for name in ("B2", "N2", "S2", "S11", "J3"):
        A = catalog(name, QQ)
        base = cohomology_of(A, degrees=range(4)).dims()
        for _ in range(5):
            g = _random_unimodular(A.n, rng)
            C = conjugate_algebra(A, g)
            assert cohomology_of(C, degrees=range(4)).dims() == base, name
    for left, right in TRANSPOSE_PAIRS:
        dl = cohomology_of(catalog(left, QQ), degrees=range(5)).dims()
        dr = cohomology_of(catalog(right, QQ), degrees=range(5)).dims()
        assert dl == dr, (left, right)
    _ok(8, "25 unimodular conjugates leave dims unchanged; 6 transpose "
        "pairs agree in degrees 0..4")


def test_criterion_09_product_formula():
    D1 = verify_subalgebra(1, QQ, [[[1]]], name="D1")
    d1_dims = cohomology_of(D1, degrees=range(4)).dims()
    assert d1_dims == (0, 0, 0, 0)
    for prod, factor in (("M2xD1", "M2"), ("B2xD1", "B2"),
                         ("N2xD1", "N2"), ("C2xD1", "C2")):
        dp = cohomology_of(catalog(prod, QQ), degrees=range(4)).dims()
        df = cohomology_of(catalog(factor, QQ), degrees=range(4)).dims()
        assert dp == tuple(a + b for a, b in zip(df, d1_dims)), prod
    dd = cohomology_of(direct_product(D1, D1), degrees=range(4)).dims()
    d2 = cohomology_of(catalog("D2", QQ), degrees=range(4)).dims()
    assert dd == d2
    _ok(9, "H(A x D1) = H(A) + H(D1) for the four tabulated products; "
        "D1 x D1 matches D2")


def test_criterion_10_fibonacci_ranks():
    A = catalog("S11", QQ)
    aux = sandwich_bimodule(A, [(1, 1)])
    cx = cibils_complex(A, M=aux, top_degree=12)
    fib = [1, 1]
    while len(fib) < 13:
        fib.append(fib[-1] + fib[-2])
    assert cx.ranks == tuple(fib)
    res = compute_cohomology(cibils_complex(A, M=aux, top_degree=7),
                             degrees=range(7))
    assert res.dims() == (1, 0, 0, 0, 0, 0, 0)
    _ok(10, "composable-word ranks F_0..F_12 are Fibonacci; auxiliary "
        "cohomology is (1, 0, 0, ...) in degrees 0..6")


def test_criterion_11_cup_products():
    rng = random.Random(11)
    for name in ("N2", "S6"):
        A = catalog(name, QQ)
        bm, pairing = regular_bimodule(A)
        cx = bar_complex(A, M=bm, top_degree=4)
        for _ in range(100):
            p, q = rng.randint(0, 1), rng.randint(0, 2)
            f = Cochain(cx, p, tuple(Fraction(rng.randint(-2, 2))
                                     for _ in range(cx.ranks[p])))
            g = Cochain(cx, q, tuple(Fraction(rng.randint(-2, 2))
                                     for _ in range(cx.ranks[q])))
            lhs = apply_d(cup_product(f, g, pairing, cx))
            rhs = cup_product(apply_d(f), g, pairing, cx).add(
                cup_product(f, apply_d(g), pairing, cx).scale((-1) ** p))
            assert lhs == rhs
    A = catalog("N3", QQ)
    T, pairing = ideal_quotient_bimodule(A, [1, 2, 3])
    cx = bar_complex(A, M=T, top_degree=3)
    U = Cochain.from_values(cx, 1, {((1,), 0): 1})
    V = Cochain.from_values(cx, 1, {((3,), 0): 1})
    W = Cochain.from_values(cx, 1, {((2,), 0): 1})
    cup = cup_product(U, V, pairing, cx)
    assert cup.add(apply_d(W)).is_zero() and not cup.is_zero()
    _ok(11, "Leibniz identity exact on 200 random pairs (N2, S6); the "
        "size-3 nilpotent cup identity holds exactly")


def test_criterion_12_certificates():
    for name in ALL_NAMES:
        for dom, char in ((QQ, 0), (GF(2), 2), (GF(3), 3)):
            dims = field_dims(name, char)
            want = (YES if dims[2] == 0 else INCONCLUSIVE,
                    YES if dims[1] == 0 else INCONCLUSIVE)
            assert certificates(catalog(name, dom)) == want, (name, char)
    assert certificates(catalog("S11", QQ)) == (YES, INCONCLUSIVE)
    rep = moduli_report(catalog("J3", QQ))
    assert rep.smooth_certificate == INCONCLUSIVE
    assert rep.orbit_open_certificate == INCONCLUSIVE
    assert rep.caveat and "may still be smooth" in rep.caveat
    _ok(12, "certificates are (yes, yes) exactly where H^1 = H^2 = 0 "
        "per the tables; J3 is doubly inconclusive with caveat")

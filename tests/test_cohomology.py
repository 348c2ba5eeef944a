"""Cohomology extraction: examples, method agreement, UCT bookkeeping."""

import random

import pytest

import hochschild.algebra
from hochschild.algebra import (NotSplit, catalog, conjugate_algebra,
                                detect_splitting, direct_product,
                                morita_corner, quotient_bimodule,
                                regular_bimodule, structure_constants_ok,
                                verify_subalgebra)
from hochschild.cohomology import (CohomologyResult, DegreeOutOfRange,
                                   _cibils_target, cohomology_of,
                                   compute_cohomology, pick_method)
from hochschild.complexes import (CochainComplex, bar_complex,
                                  cibils_complex, jn_periodic_complex,
                                  reduced_bar_complex)
from hochschild.exactla import GF, QQ, ZZ, Mat, rank, smith_normal_form

from _posets import RP2, SPHERE, TORUS
from _tabledata import ALL_NAMES, field_dims, z_data

NOT_SPLITTABLE = {"M2", "M3", "P21", "P12", "M2xD1"}


# ---------------------------------------------------------------------------
# headline examples

def test_triangular_algebra_vanishes():
    r = cohomology_of(catalog("B2", QQ), degrees=range(5))
    assert r.dims() == (0, 0, 0, 0, 0)
    assert r.method_tag == "cibils"


def test_nilpotent_size2_over_z():
    r = cohomology_of(catalog("N2", ZZ), degrees=range(5))
    assert r.free_ranks() == (1, 1, 1, 1, 1)
    assert r.torsions() == ((), (2,), (), (2,), ())


def test_jordan3_f3_periodic():
    r = cohomology_of(catalog("J3", GF(3)), degrees=range(6))
    assert r.method_tag == "jn_periodic"
    assert r.dims() == (3, 3, 3, 3, 3, 3)


def test_auto_method_examples():
    r = cohomology_of(catalog("N3", QQ), degrees=range(6))
    assert r.dims() == (2, 2, 3, 4, 5, 6)
    assert r.method_tag == "cibils"
    r = cohomology_of(catalog("S4", QQ), degrees=range(5))
    assert r.dims() == (4, 6, 12, 24, 48)
    r = cohomology_of(catalog("S11", QQ), degrees=range(5))
    assert r.dims() == (1, 1, 0, 0, 0)
    r = cohomology_of(catalog("P21", QQ), degrees=range(4))
    assert r.method_tag == "cibils"


def test_pick_method():
    assert pick_method(catalog("J", QQ, 4))[0] == "jn"
    assert pick_method(catalog("S6", QQ))[0] == "cibils"
    assert pick_method(catalog("M2", QQ))[0] == "cibils"


def test_degree_guards():
    cx = jn_periodic_complex(catalog("J", QQ, 3), top_degree=4)
    with pytest.raises(DegreeOutOfRange):
        compute_cohomology(cx, degrees=[4])
    with pytest.raises(DegreeOutOfRange):
        compute_cohomology(cx, degrees=[-1])
    with pytest.raises(DegreeOutOfRange):
        compute_cohomology(cx, degrees=[])
    with pytest.raises(DegreeOutOfRange):
        cohomology_of(catalog("N2", QQ), degrees=[])
    with pytest.raises(ValueError):
        cohomology_of(catalog("N2", QQ), method="nonsense", degrees=[0])
    with pytest.raises(ValueError):
        cohomology_of(catalog("N2", QQ), method="jn", degrees=[0])


# ---------------------------------------------------------------------------
# cross-method agreement (representative subset; the acceptance suite
# runs the full catalog)

def _h(A, method):
    r = cohomology_of(A, method=method, degrees=range(4))
    if A.domain.is_field:
        return r.dims()
    return r.free_ranks(), r.torsions()


@pytest.mark.parametrize("name", ["B2", "N2", "C2", "S6", "S11", "N3",
                                  "S2", "D3"])
def test_method_agreement(name):
    for dom in (QQ, GF(2)):
        A = catalog(name, dom)
        base = cohomology_of(A, method="bar", degrees=range(4)).dims()
        assert cohomology_of(A, method="reduced",
                             degrees=range(4)).dims() == base
        if name not in NOT_SPLITTABLE:
            assert cohomology_of(A, method="cibils",
                                 degrees=range(4)).dims() == base


# the non-basic algebras take cibils on a basic corner eAe
@pytest.mark.parametrize("name", ["M2", "M3", "P21", "P12", "M2xD1", "P22",
                                  "P211"])
def test_method_agreement_morita_corner(name):
    for dom in (QQ, GF(2), ZZ):
        A = catalog(name, dom)
        method, (B, _) = pick_method(A)
        assert method == "cibils" and B.n < A.n
        assert _h(A, "cibils") == _h(A, "auto") == _h(A, "reduced")


def _inflate(A):
    """M_2(A) = M_2 (x) A inside M_2n, on the Kronecker basis E_ij (x) a."""
    n = A.n
    return verify_subalgebra(2 * n, A.domain, [
        Mat(2 * n, 2 * n, A.domain, {(i * n + r, j * n + c): v
                                     for (r, c), v in a.items()})
        for i in range(2) for j in range(2) for a in A.basis])


@pytest.mark.parametrize("name", ["S11", "N2", "N3", "B2", "S6", "P21"])
def test_morita_inflation(name):
    # the corner idempotent of M_2(A) is E_11 (x) 1, e.g. diag(1,1,0,0)
    # for N2: a sum of diagonal units, not a single one
    for dom in (QQ, GF(2), GF(3), ZZ):
        A = catalog(name, dom)
        I = _inflate(A)
        assert cohomology_of(I, degrees=range(4)).method_tag == "cibils"
        assert _h(I, "auto") == _h(A, "reduced"), (name, dom)
    if name == "N2":
        assert _h(_inflate(catalog("N2", ZZ)), "auto") == (
            (1, 1, 1, 1), ((), (2,), (), (2,)))


def _count_calls(monkeypatch, module, fname):
    calls = []
    orig = getattr(module, fname)

    def counted(*args, **kw):
        calls.append(1)
        return orig(*args, **kw)
    monkeypatch.setattr(module, fname, counted)
    return calls


def test_corner_search_is_bounded(monkeypatch):
    b2 = conjugate_algebra(catalog("B2", ZZ), [[1, 0], [1, 1]])
    cases = [catalog("M4", ZZ), catalog("P33", ZZ), catalog("P211", QQ),
             _inflate(catalog("S11", ZZ)), _inflate(catalog("N3", GF(3))),
             _inflate(b2), b2, direct_product(b2, b2)]
    for A in cases:
        quotient_bimodule(A)
        products = _count_calls(monkeypatch, Mat, "mul")
        built = _count_calls(monkeypatch, hochschild.algebra,
                             "verify_subalgebra")
        try:
            B = morita_corner(A)
            assert B.n < A.n and len(built) == 1
        except NotSplit:
            assert not built  # e = 1: no corner is built
        assert len(products) <= A.dim ** 2, (A, len(products))
        monkeypatch.undo()


@pytest.mark.parametrize("method", ["auto", "jn"])
def test_jn_reads_the_requested_algebra(monkeypatch, method):
    # the periodic complex is built on the catalog J_n it is given, so the
    # request validates no second copy of it
    for dom in (QQ, ZZ):
        A = catalog("J", dom, 5)
        built = _count_calls(monkeypatch, hochschild.algebra,
                             "verify_subalgebra")
        res = cohomology_of(A, method=method, degrees=range(4))
        assert not built
        assert res.method_tag == "jn_periodic" and res.complex.algebra is A
        monkeypatch.undo()


def test_corner_refusals_fall_back_to_reduced():
    s11 = catalog("S11", ZZ)
    g = [[1, 2, 0], [0, 1, 0], [1, 2, 1]]  # unimodular, not 0/1
    for dom in (QQ, ZZ):
        C = conjugate_algebra(catalog("S11", dom), g)
        assert pick_method(C) == ("reduced", None)
        assert _h(C, "auto") == _h(catalog("S11", dom), "cibils")
    assert _h(conjugate_algebra(s11, g), "auto") == ((1, 1, 0, 0),
                                                     ((), (), (), ()))
    # the corner of M_2(B2 conjugated) is that conjugate, which does not
    # split: auto falls back to reduced, and cibils is refused
    I = _inflate(conjugate_algebra(catalog("B2", QQ), [[1, 0], [1, 1]]))
    assert cohomology_of(I, degrees=range(3)).method_tag == "reduced"
    with pytest.raises(NotSplit, match="not a 0/1 matrix"):
        cohomology_of(I, method="cibils", degrees=range(3))


def test_corner_needs_integral_generation():
    # X -> diag(X, g X g^-1) with g = diag(1, 2), saturated in M_4(Z):
    # over a field with 2 invertible it is M_2 with corner f = E_00 + E_22,
    # but over Z the products through the other block only give 2f
    def twisted(dom):
        return verify_subalgebra(4, dom, [
            Mat(4, 4, dom, ent) for ent in (
                {(0, 0): 1, (2, 2): 1}, {(0, 1): 2, (2, 3): 1},
                {(1, 0): 1, (3, 2): 2}, {(1, 1): 1, (3, 3): 1})])
    for dom in (QQ, GF(3)):
        A = twisted(dom)
        assert morita_corner(A).basis == (Mat.identity(2, dom),)
        assert _h(A, "auto") == _h(A, "reduced") == (3, 0, 0, 0)
    with pytest.raises(NotSplit):
        morita_corner(twisted(ZZ))


def test_twisted_m2_over_z_matches_fields():
    # the algebra above, whose Z quotient needs the unit-pivot basis:
    # every method answers over Z, consistently with Q, F2 and F3 under
    # universal coefficients
    def twisted(dom):
        return verify_subalgebra(4, dom, [
            Mat(4, 4, dom, ent) for ent in (
                {(0, 0): 1, (2, 2): 1}, {(0, 1): 2, (2, 3): 1},
                {(1, 0): 1, (3, 2): 2}, {(1, 1): 1, (3, 3): 1})])
    rz = cohomology_of(twisted(ZZ), method="reduced", degrees=range(5))
    for method in ("auto", "bar"):
        r = cohomology_of(twisted(ZZ), method=method, degrees=range(4))
        assert r.free_ranks() == rz.free_ranks()[:4]
        assert r.torsions() == rz.torsions()[:4]
    assert rz.torsions()[1] == (2,)
    for dom, p in ((QQ, 0), (GF(2), 2), (GF(3), 3)):
        got = cohomology_of(twisted(dom), degrees=range(4)).dims()
        assert got == tuple(
            rz.free_ranks()[d] + (p and sum(
                1 for t in rz.torsions()[d] + rz.torsions()[d + 1]
                if t % p == 0)) for d in range(4)), dom


def test_agreement_with_frozen_tables():
    for name in ("N2", "J3", "S11", "S4", "N3", "S1", "C3", "S10"):
        for dom, char in ((QQ, 0), (GF(2), 2), (GF(3), 3)):
            got = cohomology_of(catalog(name, dom), degrees=range(5)).dims()
            assert got == field_dims(name, char), (name, char)
        rz = cohomology_of(catalog(name, ZZ), degrees=range(5))
        want = z_data(name)
        assert rz.free_ranks() == tuple(w[0] for w in want)
        assert rz.torsions() == tuple(tuple(w[1]) for w in want)


# ---------------------------------------------------------------------------
# universal-coefficient bookkeeping: the mod-p dimension equals the free
# rank plus torsion contributions from this degree and the next

@pytest.mark.parametrize("case", [("J", 2), ("J", 3), ("N2", None),
                                  ("S10", None)])
@pytest.mark.parametrize("p", [2, 3])
def test_universal_coefficients(case, p):
    name, par = case
    rz = cohomology_of(catalog(name, ZZ, par), degrees=range(6))
    rf = cohomology_of(catalog(name, GF(p), par), degrees=range(5))
    for d in range(5):
        t_here = sum(1 for t in rz[d]["torsion"] if t % p == 0)
        t_next = sum(1 for t in rz[d + 1]["torsion"] if t % p == 0)
        assert rf[d]["dim"] == rz[d]["free_rank"] + t_here + t_next


def test_q_ranks_each_differential_once_never_mod_p(monkeypatch):
    calls = []

    def counted(m, skip=(), pivots=None):
        calls.append(m)  # the matrix is kept, so its id stays its own
        return rank(m, skip, pivots)
    monkeypatch.setattr("hochschild.cohomology.rank", counted)
    cohomology_of(catalog("S11", QQ), method="reduced", degrees=range(5))
    # the first row of `table --degree 3 --ring Q`, as cmd_table computes it
    cohomology_of(catalog("M3", QQ), degrees=range(5))
    assert calls
    assert all(m.domain == QQ for m in calls)
    assert len({id(m) for m in calls}) == len(calls)


def _each_alone(cx, degrees):
    """The records of compute_cohomology from each differential ranked (or
    put in Smith form) on its own, without clearing."""
    out = {-1: ()}
    if cx.domain == ZZ:
        for q in range(len(cx.diffs)):
            out[q] = smith_normal_form(cx.diffs[q]).invariant_factors
        return [{"degree": p,
                 "free_rank": cx.ranks[p] - len(out[p]) - len(out[p - 1]),
                 "torsion": tuple(f for f in out[p - 1] if f != 1)}
                for p in degrees]
    for q in range(len(cx.diffs)):
        out[q] = (1,) * rank(cx.diffs[q])
    return [{"degree": p, "dim": cx.ranks[p] - len(out[p]) - len(out[p - 1])}
            for p in degrees]


@pytest.mark.parametrize("dom", [QQ, GF(2), GF(3), ZZ], ids=repr)
def test_clearing_matches_each_differential_alone(dom):
    # each differential is cleared by the pivots of the one below; the
    # oracle ranks every differential on its own
    for name in ALL_NAMES:
        A = catalog(name, dom)
        for method, top in (("bar", 3), ("reduced", 4), ("cibils", 5)):
            try:
                cx = cohomology_of(A, method, range(top)).complex
            except NotSplit:
                continue
            for degrees in (range(top), [top - 1], [1, top - 1]):
                got = compute_cohomology(cx, degrees).records
                assert list(got) == _each_alone(cx, degrees), (name, method)


def test_partial_requests_clear_only_after_an_eliminated_differential(
        monkeypatch):
    calls = []

    def spied(m, skip=(), pivots=None):
        calls.append((m, list(skip)))
        return rank(m, skip, pivots)
    monkeypatch.setattr("hochschild.cohomology.rank", spied)
    cx = reduced_bar_complex(catalog("S11", QQ), top_degree=5)
    # degrees 1 and 4 read d^0, d^1, d^3 and d^4: d^1 and d^4 are cleared
    # by every pivot of the differential below, d^0 and d^3 by none, as
    # d^2 is not eliminated
    assert compute_cohomology(cx, [1, 4]).records == tuple(
        _each_alone(cx, [1, 4]))
    assert [m for m, _ in calls] == [cx.diffs[q] for q in (0, 1, 3, 4)]
    assert [len(skip) for _, skip in calls] == [
        0, rank(cx.diffs[0]), 0, rank(cx.diffs[3])]


def test_z_clears_unit_pivots_only():
    # Z -> Z^2 -> Z -> 0 with d^0 = (2, 3)^T and d^1 = (3 -2): d^0 has no
    # unit entry, so its pivot is the dense core's and clears nothing; had
    # it cleared position 0, d^1 would keep (-2) alone and H^2 would read
    # Z/2, but gcd(3, 2) = 1 and H^2 = 0
    diffs = (Mat.from_rows([[2], [3]], ZZ), Mat.from_rows([[3, -2]], ZZ),
             Mat(0, 1, ZZ))
    labels = [[((), q) for q in range(r)] for r in (1, 2, 1, 0)]
    cx = CochainComplex("hand", ZZ, (1, 2, 1, 0), diffs, labels)
    r = compute_cohomology(cx)
    assert r.free_ranks() == (0, 0, 0) and r.torsions() == ((), (), ())
    pivots = []
    assert smith_normal_form(diffs[0], (), pivots).invariant_factors == (1,)
    assert pivots == []
    # a unit pivot is recorded, and clearing by it keeps the answer
    pivots = []
    smith_normal_form(Mat.from_rows([[1], [3]], ZZ), (), pivots)
    assert pivots == [0]
    assert smith_normal_form(diffs[1], pivots).invariant_factors == (2,)
    assert smith_normal_form(Mat.from_rows([[3, -1]], ZZ), pivots) \
        .invariant_factors == (1,)


def test_rational_dims_equal_integer_free_ranks():
    for name in ("N2", "J3", "N3", "S6", "S11"):
        rq = cohomology_of(catalog(name, QQ), degrees=range(5)).dims()
        rz = cohomology_of(catalog(name, ZZ), degrees=range(5)).free_ranks()
        assert rq == rz, name


# ---------------------------------------------------------------------------
# Euler bookkeeping: alternating sums telescope onto the top differential

@pytest.mark.parametrize("name", ["S6", "N3", "S11", "J3", "N2"])
def test_euler_telescoping(name):
    A = catalog(name, QQ)
    res = cohomology_of(A, degrees=range(5))
    cx = res.complex
    lhs = sum((-1) ** p * (cx.ranks[p] - res[p]["dim"]) for p in range(5))
    top_rank = rank(cx.diffs[4])
    assert lhs == top_rank  # (-1)^4 = +1


# ---------------------------------------------------------------------------
# invariance spot checks (full parade in the acceptance suite)

def test_conjugation_invariance_spot():
    rng = random.Random(77)
    A = catalog("S11", QQ)
    base = cohomology_of(A, degrees=range(4)).dims()
    n = A.n
    g = Mat.identity(n, QQ)
    for _ in range(4):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            g = g.mul(Mat(n, n, QQ, {**dict(Mat.identity(n, QQ).items()),
                                     (i, j): rng.randint(-2, 2)}))
    C = conjugate_algebra(A, g)
    assert cohomology_of(C, degrees=range(4)).dims() == base


def test_result_accessors():
    r = cohomology_of(catalog("N2", ZZ), degrees=[0, 2, 4])
    assert r.degrees == (0, 2, 4)
    assert r[2]["free_rank"] == 1
    with pytest.raises(KeyError):
        r[1]
    assert "cibils" in repr(r)
    rq = cohomology_of(catalog("N2", QQ), degrees=[1])
    assert rq[1]["dim"] == 1 and "h^1=1" in repr(rq)


def test_result_index_returns_each_record():
    r = cohomology_of(catalog("N3", ZZ), degrees=[0, 2, 3, 5])
    for i, p in enumerate(r.degrees):
        assert r[p] is r.records[i]
    for p in (1, 4, 6, -1, "2"):
        with pytest.raises(KeyError):
            r[p]


@pytest.mark.parametrize("dom", [QQ, GF(2), GF(3), ZZ], ids=repr)
def test_request_path_builds_the_generator_top(dom):
    # cohomology_of keeps the words of C^T that begin with a generator, and
    # its records are those of the full complex
    full_of = {"bar": bar_complex, "reduced": reduced_bar_complex,
               "cibils": lambda A, **kw: cibils_complex(
                   *_cibils_target(A), **kw)}
    for name in ("N3", "S11", "B4", "J4", "P22"):
        A = catalog(name, dom)
        for method, build in full_of.items():
            res = cohomology_of(A, method, degrees=range(3))
            cx, full = res.complex, build(A, top_degree=3)
            assert cx.ranks[:3] == full.ranks[:3]
            assert cx.ranks[3] == sum(w[0] in cx.generators
                                      for w, _ in full.labels[3])
            assert res.records == compute_cohomology(full, range(3)).records


def test_compute_cohomology_on_custom_complex():
    cx = bar_complex(catalog("C2", QQ), top_degree=3)
    r = compute_cohomology(cx)
    assert r.dims() == (3, 0, 0)
    assert r.method_tag == "bar"


def test_torsion_is_sorted_divisibility_chain():
    for n in (2, 3, 4, 5):
        r = cohomology_of(catalog("J", ZZ, n), degrees=range(6))
        for rec in r.records:
            tors = rec["torsion"]
            assert all(t > 1 for t in tors)
            assert all(tors[i + 1] % tors[i] == 0
                       for i in range(len(tors) - 1))


# ---------------------------------------------------------------------------
# Gerstenhaber-Schack: HH^*(I(P), I(P)) is the cohomology of the order
# complex of P, for the incidence algebra I(P) of a finite poset

def _incidence_hh(poset, dom, build=cibils_complex, top_degree=4):
    n, leq = poset
    A = verify_subalgebra(n, dom, [Mat(n, n, dom, {xy: 1}) for xy in leq])
    cx = build(A, M=regular_bimodule(A)[0], top_degree=top_degree)
    r = compute_cohomology(cx, range(3))
    if dom == ZZ:
        return tuple(zip(r.free_ranks(), r.torsions()))
    return r.dims()


# minimal points 0, 1 below maximal points 2, 3: the order complex is a circle
CROWN = (4, [(x, x) for x in range(4)] + [(a, b) for a in (0, 1)
                                          for b in (2, 3)])


def test_gerstenhaber_schack_crown():
    assert _incidence_hh(CROWN, QQ) == (1, 1, 0)
    assert _incidence_hh(CROWN, GF(2)) == (1, 1, 0)
    assert _incidence_hh(CROWN, ZZ) == ((1, ()), (1, ()), (0, ()))
    assert _incidence_hh(CROWN, QQ, bar_complex, top_degree=3) == (1, 1, 0)


def test_gerstenhaber_schack_sphere():
    assert SPHERE[0] == 14
    assert _incidence_hh(SPHERE, ZZ) == ((1, ()), (0, ()), (1, ()))


def test_sphere_structure_constants_and_splitting():
    # all 50^3 associativity triples are checked from sparse constants; a
    # dense sum over (i, j, l, t, s) would take 50^5 products
    n, leq = SPHERE
    A = verify_subalgebra(n, QQ, [Mat(n, n, QQ, {xy: 1}) for xy in leq])
    assert structure_constants_ok(A)
    sp = detect_splitting(A)
    assert (len(sp.idempotents), len(sp.radical)) == (14, 36)


def test_gerstenhaber_schack_projective_plane():
    n, leq = RP2
    assert (n, len(leq)) == (31, 121)
    assert _incidence_hh(RP2, ZZ) == ((1, ()), (0, ()), (0, (2,)))
    assert _incidence_hh(RP2, GF(2)) == (1, 1, 1)
    assert _incidence_hh(RP2, QQ) == (1, 0, 0)


def test_gerstenhaber_schack_torus():
    n, leq = TORUS
    # 7 vertices, 21 edges, 14 triangles; a vertex lies in 6 edges and 6
    # triangles, an edge in 2 triangles
    assert n == 42 and len(leq) == 7 * 13 + 21 * 3 + 14
    assert _incidence_hh(TORUS, ZZ, top_degree=3) == (
        (1, ()), (2, ()), (1, ()))

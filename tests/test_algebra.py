"""Subalgebra presentations: validation, catalog, splittings, bimodules."""

import copy
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hochschild.algebra import (CATALOG_DEG2, CATALOG_DEG3, AlgebraError,
                                BadParams, NoSolution, NotClosed,
                                NotIndependent, NotInvertible, NotSaturated,
                                NotSplit, NoUnit, UnknownName, catalog,
                                catalog_info, conjugate_algebra,
                                detect_splitting, direct_product,
                                ideal_quotient_bimodule, mat_inverse,
                                quotient_bimodule, regular_bimodule,
                                sandwich_bimodule,
                                structure_constants_ok, transpose_algebra,
                                validate_splitting, verify_subalgebra)
from hochschild.cohomology import cohomology_of
from hochschild.exactla import GF, QQ, ZZ, Mat, rank, solve

from _posets import RP2, SPHERE
from _tabledata import ALL_NAMES, DEG2, DEG3, TRANSPOSE_PAIRS

NOT_SPLITTABLE = {"M2", "M3", "P21", "P12", "M2xD1"}

I2 = [[1, 0], [0, 1]]
E12 = [[0, 1], [0, 0]]
E21 = [[0, 0], [1, 0]]


def _dense(coords, d):
    """A sparse coordinate vector as a d-tuple, checking that it stores only
    nonzero values at indices below d; NoSolution stays NoSolution."""
    if coords is NoSolution:
        return coords
    assert all(coords.values()) and all(0 <= k < d for k in coords)
    return tuple(coords.get(k, 0) for k in range(d))


def _span_matrix(A):
    return Mat(A.dim, A.n * A.n, QQ,
               {(k, i * A.n + j): Fraction(b.entry(i, j))
                for k, b in enumerate(A.basis)
                for i in range(A.n) for j in range(A.n)})


def spans_equal(A, B):
    if (A.n, A.dim) != (B.n, B.dim):
        return False
    ma, mb = _span_matrix(A), _span_matrix(B)
    stacked = Mat(A.dim * 2, A.n * A.n, QQ,
                  {**dict(ma.items()), **{(i + A.dim, j): v
                                      for (i, j), v in mb.items()}})
    return rank(stacked) == A.dim


# ---------------------------------------------------------------------------
# validation taxonomy

def test_dependent_basis_rejected():
    with pytest.raises(NotIndependent):
        verify_subalgebra(2, QQ, [I2, [[2, 0], [0, 2]]])


def test_missing_unit_rejected():
    with pytest.raises(NoUnit):
        verify_subalgebra(2, QQ, [E12])


def test_not_closed_names_the_product():
    with pytest.raises(NotClosed) as exc:
        verify_subalgebra(2, QQ, [I2, E12, E21])
    assert exc.value.args[-1].endswith("a2 * a3 is not in the span") or \
        "a2 * a3" in str(exc.value)


def test_unsaturated_lattice_rejected_over_z():
    with pytest.raises(NotSaturated):
        verify_subalgebra(2, ZZ, [I2, [[0, 2], [0, 0]]])
    # the same span is fine over Q
    verify_subalgebra(2, QQ, [I2, [[0, 2], [0, 0]]])


def test_empty_basis_rejected():
    with pytest.raises(AlgebraError):
        verify_subalgebra(2, QQ, [])


def test_structure_constants_all_catalog():
    for name in ALL_NAMES:
        for dom in (QQ, GF(2), GF(3), GF(5), ZZ):
            A = catalog(name, dom)
            assert structure_constants_ok(A), (name, dom)


@pytest.mark.parametrize("dom", [QQ, GF(3), ZZ], ids=repr)
def test_structure_constants_ok_rejects_bad_constants(dom):
    A = catalog("N3", dom)  # basis I, b = E01, c = E02, d = E12
    assert A.mult[1][3] == {2: 1} and A.unit_coords == {0: 1}
    # one coefficient: b d = c becomes c + b, so (b d) d = b d != 0 while
    # b (d d) = 0
    bad = copy.copy(A)
    bad.mult = tuple(tuple({**c, 1: 1} if (i, j) == (1, 3) else c
                           for j, c in enumerate(row))
                     for i, row in enumerate(A.mult))
    assert not structure_constants_ok(bad)
    # one unit coordinate: 2I is no unit
    bad = copy.copy(A)
    bad.unit_coords = {0: 2}
    assert not structure_constants_ok(bad)
    assert structure_constants_ok(A)


@pytest.mark.parametrize("dom", [QQ, GF(3), ZZ], ids=repr)
def test_structure_constants_ok_reaches_triples_through_the_product(dom):
    # S12, basis E00, E01, E02, f = E11 + E22, E12: E01 E12 = E02 becomes
    # E02 + E01.  E12 E12 = 0, so l = E12 is not live for j = E12; the
    # triple (E01, E12, E12) is reached through s = E01 in the product,
    # whose live set holds E12: (E01 E12) E12 = E02 while E01 (E12 E12) = 0.
    # Every triple with l live for j, and both unit laws, still hold.
    A = catalog("S12", dom)
    assert A.mult[1][4] == {2: 1} and not A.mult[4][4]
    assert A.unit_coords == {0: 1, 3: 1}
    bad = copy.copy(A)
    bad.mult = tuple(tuple({2: 1, 1: 1} if (i, j) == (1, 4) else c
                           for j, c in enumerate(row))
                     for i, row in enumerate(A.mult))
    assert not structure_constants_ok(bad)
    assert structure_constants_ok(A)


def test_member_coords():
    A = catalog("N2", QQ)
    assert A.member_coords(A.unit_matrix()) == A.unit_coords
    assert A.member_coords(Mat(2, 2, QQ, {(1, 0): 1})) is NoSolution


# ---------------------------------------------------------------------------
# catalog

def test_catalog_sizes_and_dims():
    assert len(DEG2) == 5 and len(DEG3) == 26
    for name in ALL_NAMES:
        info = catalog_info(name)
        A = catalog(name, QQ)
        assert A.dim == info["d"], name
        assert A.n == info["degree"], name


@pytest.mark.parametrize("dom", [QQ, GF(2), ZZ], ids=["Q", "F2", "Z"])
def test_full_and_triangular_families_keep_row_major_units(dom):
    # M_n and B_n come from `_parabolic_basis`: the matrix units E_ij in
    # row-major order, all of them or those with i <= j
    for n in range(1, 9):
        for fam, upper in (("M", False), ("B", True)):
            want = [Mat(n, n, dom, {(i, j): 1}) for i in range(n)
                    for j in range(i if upper else 0, n)]
            assert list(catalog(fam + str(n), dom).basis) == want, (fam, n)


def test_catalog_unknown_and_bad_params():
    with pytest.raises(UnknownName):
        catalog("S99", QQ)
    with pytest.raises(BadParams):
        catalog("J", QQ, 1)
    for name in ("M0", "B0", "D0", "C0", "J1"):
        with pytest.raises(BadParams):
            catalog(name, QQ)
    for fam in "MBDC":
        with pytest.raises(BadParams):
            catalog(fam, ZZ, -1)


@pytest.mark.parametrize("name", ["", "_", ",", " _, ", "P", "p_"])
def test_catalog_refuses_names_empty_after_normalization(name):
    # "_" and "," normalize to the empty key, like "" itself
    with pytest.raises(UnknownName, match="unknown catalog name"):
        catalog(name, QQ)
    with pytest.raises(UnknownName):
        catalog_info(name)


def test_catalog_families():
    assert catalog("B", QQ, 4).dim == 10
    assert catalog("M", QQ, 4).dim == 16
    assert catalog("D", QQ, 5).dim == 5
    assert catalog("C", QQ, 4).dim == 1
    assert catalog("J", QQ, 5).dim == 5
    assert spans_equal(catalog("P", QQ, (2, 1)), catalog("P21", QQ))
    assert spans_equal(catalog("P", QQ, (1, 2)), catalog("P12", QQ))


def test_catalog_parabolic_by_name():
    # a parabolic outside the fixed tables is still reachable by its name
    assert spans_equal(catalog("P22", QQ), catalog("P", QQ, (2, 2)))


def test_jn_family_metadata():
    A = catalog("J", QQ, 4)
    assert A.meta["family"] == ("J", 4)
    assert catalog("J3", QQ).meta["family"] == ("J", 3)


@pytest.mark.parametrize("spelling,key", [
    ("P2,1", "P21"), ("p_21", "P21"), ("M2_XD1", "M2xD1"), ("s_11", "S11"),
    ("m2xd1", "M2xD1"), (" b2 ", "B2")])
def test_catalog_info_reads_every_spelling_catalog_reads(spelling, key):
    assert catalog(spelling, QQ).name == key
    assert catalog_info(spelling) == catalog_info(key)
    assert catalog_info(spelling)["name"] == key


def test_transpose_info_matches_pairs():
    for a, b in TRANSPOSE_PAIRS:
        assert catalog_info(a)["transpose"] == b
        assert catalog_info(b)["transpose"] == a


# ---------------------------------------------------------------------------
# unit-first re-basing

@pytest.mark.parametrize("name", ["S11", "S6", "N3", "P21", "S1"])
def test_with_unit_first(name):
    for dom in (QQ, GF(2), ZZ):
        A = catalog(name, dom)
        A1 = A.with_unit_first()
        assert A1.basis[0] == A1.unit_matrix()
        assert A1.dim == A.dim
        assert structure_constants_ok(A1)
        if dom == QQ:
            assert spans_equal(A, A1)
        if dom == ZZ:
            # re-basing must be unimodular: every old vector has integer
            # coordinates in the new basis and vice versa
            for b in A.basis:
                assert A1.member_coords(b) is not NoSolution
            for b in A1.basis:
                assert A.member_coords(b) is not NoSolution


def test_with_unit_first_over_z_without_a_unit_coordinate():
    # N2 on the basis (-I + 3N, I - 2N): I = 2 b_1 + 3 b_2, so no unit
    # coordinate is +-1 and Euclid steps must make one first
    I, N = Mat.identity(2, ZZ), Mat.from_rows(E12, ZZ)
    A = verify_subalgebra(2, ZZ, [I.scale(-1).add(N.scale(3)),
                                  I.add(N.scale(-2))], name="N2'")
    assert _dense(A.unit_coords, 2) == (2, 3)
    A1 = A.with_unit_first()
    assert A1.basis[0] == I and A1.dim == 2
    assert A1.with_unit_first() is A1
    # unimodular: each basis has integer coordinates in the other
    for X, Y in ((A, A1), (A1, A)):
        for b in X.basis:
            assert Y.member_coords(b) is not NoSolution
    want = cohomology_of(catalog("N2", ZZ), degrees=range(5)).records
    for method in ("reduced", "bar", "auto"):
        assert cohomology_of(A, method=method,
                             degrees=range(5)).records == want, method


# ---------------------------------------------------------------------------
# splittings

def test_detect_splitting_outcomes():
    for name in ALL_NAMES:
        A = catalog(name, QQ)
        if name in NOT_SPLITTABLE:
            with pytest.raises(NotSplit):
                detect_splitting(A)
        else:
            sp = detect_splitting(A)
            n = A.n
            # orthogonal idempotents summing to the identity
            total = Mat.zeros(n, n, QQ)
            for i, e in enumerate(sp.idempotents):
                assert e.mul(e) == e
                total = total.add(e)
                for j, f in enumerate(sp.idempotents):
                    if i != j:
                        assert e.mul(f).is_zero()
            assert total == Mat.identity(n, QQ)
            # radical is bigraded: e_t x e_u = x
            for x, (t, u) in zip(sp.radical, sp.bigrading):
                assert sp.idempotents[t].mul(x).mul(sp.idempotents[u]) == x


def test_radical_is_nilpotent_ideal():
    for name in ("S6", "N3", "J3", "S10", "B3"):
        A = catalog(name, QQ)
        sp = detect_splitting(A)
        rad = list(sp.radical)
        # multiply radical layers until they vanish
        layer = rad
        for _ in range(A.n + 1):
            if all(m.is_zero() for m in layer):
                break
            layer = [a.mul(b) for a in layer for b in rad]
        assert all(m.is_zero() for m in layer), name


I3 = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


@pytest.mark.parametrize("dom", [QQ, GF(2), ZZ], ids=repr)
def test_splitting_refuses_a_radical_span_that_is_no_ideal(dom):
    # P the 3-cycle: P * P^2 = I leaves the radical span {P, P^2}
    P = [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
    A = verify_subalgebra(3, dom, [I3, P, [[0, 0, 1], [1, 0, 0], [0, 1, 0]]])
    with pytest.raises(NotSplit, match="^radical span is not an ideal$"):
        detect_splitting(A)


@pytest.mark.parametrize("dom,message", [
    (GF(2), "radical is not nilpotent"),
    (QQ, "radical span is not an ideal"),
    (ZZ, "radical span is not an ideal"),
], ids=repr)
def test_splitting_refuses_a_radical_that_is_not_nilpotent(dom, message):
    # x = J_3 - I (J_3 all ones) has x^2 = x + 2I: over F2 the radical
    # span {x} is an ideal with x^2 = x, elsewhere x^2 leaves it
    x = [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
    A = verify_subalgebra(3, dom, [I3, x])
    with pytest.raises(NotSplit, match="^%s$" % message):
        detect_splitting(A)


def test_validate_splitting_roundtrip_and_rejection():
    A = catalog("S6", QQ)
    sp = detect_splitting(A)
    validate_splitting(A, list(sp.idempotents), list(sp.radical))
    with pytest.raises(AlgebraError):
        # a non-idempotent cannot be accepted
        validate_splitting(A, [Mat(3, 3, QQ, {(0, 1): 1})], list(sp.radical))
    with pytest.raises(AlgebraError):
        # dropping an idempotent breaks the unit sum
        validate_splitting(A, list(sp.idempotents)[:1], list(sp.radical))


# ---------------------------------------------------------------------------
# operations preserving the catalog entries

def test_transpose_pairs_conjugate_by_permutation():
    import itertools
    for a, b in TRANSPOSE_PAIRS:
        A, B = catalog(a, QQ), catalog(b, QQ)
        T = transpose_algebra(A)
        n = A.n
        found = False
        for perm in itertools.permutations(range(n)):
            P = Mat(n, n, QQ, {(i, perm[i]): 1 for i in range(n)})
            if spans_equal(conjugate_algebra(T, P), B):
                found = True
                break
        assert found, (a, b)


def test_self_transpose_entries():
    for name in ("M2", "B2", "D2", "N2", "C2", "N3", "J3", "S11", "S1"):
        import itertools
        A = catalog(name, QQ)
        T = transpose_algebra(A)
        n = A.n
        assert any(
            spans_equal(conjugate_algebra(
                T, Mat(n, n, QQ, {(i, p[i]): 1 for i in range(n)})), A)
            for p in itertools.permutations(range(n))), name


def test_conjugate_algebra_errors():
    A = catalog("N2", QQ)
    with pytest.raises(NotInvertible):
        conjugate_algebra(A, Mat(2, 2, QQ, {(0, 0): 1}))
    B = catalog("N2", ZZ)
    with pytest.raises(NotInvertible):
        conjugate_algebra(B, Mat(2, 2, ZZ, {(0, 0): 2, (1, 1): 1}))
    # unimodular works and validates
    g = Mat(2, 2, ZZ, {(0, 0): 1, (0, 1): 3, (1, 1): 1})
    C = conjugate_algebra(B, g)
    assert structure_constants_ok(C)


def test_direct_product_matches_catalog():
    D1 = verify_subalgebra(1, QQ, [[[1]]], name="D1")
    P = direct_product(D1, D1)
    assert spans_equal(P, catalog("D2", QQ))
    Q2 = direct_product(catalog("M2", QQ), D1)
    assert spans_equal(Q2, catalog("M2xD1", QQ))
    assert direct_product(catalog("B2", QQ), D1).dim == 4


# ---------------------------------------------------------------------------
# bimodules

def test_quotient_basis_row_major():
    bm = quotient_bimodule(catalog("B2", QQ))
    assert bm.tags == (("unit", 1, 0),)
    bm = quotient_bimodule(catalog("S1", QQ))
    assert [t[1:] for t in bm.tags] == [
        (0, 0), (0, 2), (1, 0), (1, 1), (1, 2), (2, 0), (2, 1)]
    for name in ALL_NAMES:
        A = catalog(name, QQ)
        assert quotient_bimodule(A).dim == A.n * A.n - A.dim


def test_bimodule_action_laws():
    rng = random.Random(3)
    for name in ("N2", "S6", "S11", "J3"):
        A = catalog(name, QQ)
        bm = quotient_bimodule(A)
        d, m = A.dim, bm.dim
        for _ in range(10):
            i, j = rng.randrange(d), rng.randrange(d)
            v = tuple(Fraction(rng.randint(-3, 3)) for _ in range(m))
            # (a_i a_j) . v = a_i . (a_j . v) via structure constants
            lhs = bm.act_left(i, bm.act_left(j, v))
            rhs = tuple(sum((c * x for c, x in
                             zip(_dense(A.mult[i][j], d), col)), Fraction(0))
                        for col in zip(*[bm.act_left(k, v)
                                         for k in range(d)]))
            assert lhs == rhs
            # v . (a_i a_j) = (v . a_i) . a_j
            lhs = bm.act_right(j, bm.act_right(i, v))
            rhs = tuple(sum((c * x for c, x in
                             zip(_dense(A.mult[i][j], d), col)), Fraction(0))
                        for col in zip(*[bm.act_right(k, v)
                                         for k in range(d)]))
            assert lhs == rhs


def test_regular_and_ideal_quotient_bimodules():
    A = catalog("N3", QQ)
    bm, pairing = regular_bimodule(A)
    assert bm.dim == A.dim
    T, pairT = ideal_quotient_bimodule(A, [1, 2, 3])
    assert T.dim == 1  # N3 mod its radical
    with pytest.raises(AlgebraError):
        ideal_quotient_bimodule(A, [1])  # not an ideal: misses products


def test_sandwich_bimodules_for_triangular_tower():
    A = catalog("S11", QQ)
    # span(A + E11) / span(A): one class
    mp = sandwich_bimodule(A, [(1, 1)])
    assert mp.dim == 1
    m21 = sandwich_bimodule(A, [(1, 1), (2, 1)], [(1, 1)])
    assert m21.dim == 1
    m32 = sandwich_bimodule(A, [(1, 1), (2, 1), (3, 2)], [(1, 1), (2, 1)])
    assert m32.dim == 1
    # everything over the upper-triangular span: three classes
    full = sandwich_bimodule(A, [(1, 1), (2, 1), (3, 1), (3, 2)], [(1, 1)])
    assert full.dim == 3
    with pytest.raises(AlgebraError):
        # span(A + E21) is not stable on the right under A
        sandwich_bimodule(A, [(2, 1)])


# ---------------------------------------------------------------------------
# random-presentation property: conjugation preserves validity

@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10 ** 6))
def test_random_unimodular_conjugates_stay_valid(seed):
    rng = random.Random(seed)
    name = rng.choice(["B2", "N2", "S2", "S11", "J3"])
    A = catalog(name, ZZ)
    n = A.n
    g = Mat.identity(n, ZZ)
    for _ in range(3):
        i, j = rng.randrange(n), rng.randrange(n)
        if i != j:
            e = Mat.identity(n, ZZ)
            e = Mat(n, n, ZZ, {**dict(e.items()), (i, j): rng.randint(-2, 2)})
            g = g.mul(e)
    C = conjugate_algebra(A, g)
    assert structure_constants_ok(C)
    assert C.dim == A.dim


# ---------------------------------------------------------------------------
# the quotient bimodule against its dense definition

ORACLE_EXTRA = ("B5", "J5", "P23", "conj(S11)")
ORACLE_RINGS = (QQ, GF(2), GF(3), ZZ)


def _oracle_algebra(name, dom):
    if name == "P23":
        return catalog("P", dom, (2, 3))
    if name == "conj(S11)":
        # unimodular, so the conjugate is valid over every ring
        P = [[1, 2, 0], [0, 1, 3], [0, 0, 1]]
        C = conjugate_algebra(catalog("S11", dom), P)
        if dom != GF(2):  # where entries other than 0 and 1 exist
            assert any(v not in (0, 1) for b in C.basis
                       for _, v in b.items())
        return C
    return catalog(name, dom)


def _dense_vec(m):
    n = m.rows
    return tuple(m.entry(i, j) for i in range(n) for j in range(n))


def _dense_proj(A, bm):
    """Rows d.. of the inverse of [basis | kept units], as columns."""
    n, dom = A.n, A.domain
    units = [Mat(n, n, dom, {(i, j): 1}) for _, i, j in bm.tags]
    F = Mat.from_rows([list(_dense_vec(b)) for b in A.basis]
                      + [list(_dense_vec(u)) for u in units], dom)
    Finv = mat_inverse(F.transpose())
    return Mat(bm.dim, n * n, dom, {(r - A.dim, c): v
                                    for (r, c), v in Finv.items()
                                    if r >= A.dim}), units


def _combo(dom, coords, mats, m):
    acc = Mat.zeros(m, m, dom)
    for c, x in zip(_dense(coords, len(mats)), mats):
        acc = acc.add(x.scale(c))
    return acc


@pytest.mark.parametrize("dom", ORACLE_RINGS, ids=repr)
@pytest.mark.parametrize("name", ALL_NAMES + ORACLE_EXTRA)
def test_quotient_bimodule_matches_dense_oracle(name, dom):
    A = _oracle_algebra(name, dom)
    bm = quotient_bimodule(A)
    proj, units = _dense_proj(A, bm)
    assert bm.proj == proj
    m = bm.dim
    for k, a in enumerate(A.basis):
        for q, u in enumerate(units):
            lcol = proj.apply(_dense_vec(a.mul(u)))
            rcol = proj.apply(_dense_vec(u.mul(a)))
            assert lcol == tuple(bm.left[k].entry(p, q) for p in range(m))
            assert rcol == tuple(bm.right[k].entry(p, q) for p in range(m))
    # bimodule axioms through the structure constants
    L, R = bm.left, bm.right
    for i in range(A.dim):
        for j in range(A.dim):
            c = A.mult[i][j]
            assert L[i].mul(L[j]) == _combo(dom, c, L, m), (i, j)
            assert R[j].mul(R[i]) == _combo(dom, c, R, m), (i, j)
            assert L[i].mul(R[j]) == R[j].mul(L[i]), (i, j)


def test_quotient_bimodule_is_built_once():
    A = catalog("S11", QQ)
    assert quotient_bimodule(A) is quotient_bimodule(A)


@pytest.mark.parametrize("dom", [QQ, GF(2), ZZ], ids=repr)
def test_unit_classes_leave_the_validated_echelon_alone(dom):
    # the bimodule builders grow a copy of the echelon kept by validation
    A = catalog("S11", dom)
    rows = list(A._span._rows)
    copies = [tuple(map(dict, r[1:])) for r in rows]
    quotient_bimodule(A)
    sandwich_bimodule(A, [(1, 1), (2, 1)], [(1, 1)])
    sandwich_bimodule(A, [(i, j) for i in (1, 2, 3) for j in (1, 2, 3)])
    assert A._span.rank == A.dim == len(A._span._rows)
    assert all(x is y for x, y in zip(A._span._rows, rows))
    assert [tuple(map(dict, r[1:])) for r in A._span._rows] == copies
    assert A.member_coords(A.basis[1]) == {1: 1}


# ---------------------------------------------------------------------------
# coordinates from one echelon form against one solve per vector

def _span_t(A):
    fdom = QQ if A.domain == ZZ else A.domain
    return Mat(A.dim, A.n * A.n, fdom,
               {(k, t): v for k, b in enumerate(A.basis)
                for t, v in enumerate(_dense_vec(b)) if v}).transpose()


def _solve_coords(span_t, m, dom):
    sol = solve(span_t, _dense_vec(m))
    if sol is NoSolution or dom != ZZ:
        return sol
    if any(v.denominator != 1 for v in sol):
        return NoSolution
    return tuple(int(v) for v in sol)


def _assert_constants_match_solve(C):
    """The unit and every structure constant of C, against one solve of
    the formed product each."""
    span_t, d, dom = _span_t(C), C.dim, C.domain
    assert _dense(C.unit_coords, d) == _solve_coords(span_t, C.unit_matrix(),
                                                     dom)
    for i, a in enumerate(C.basis):
        for j, b in enumerate(C.basis):
            assert _dense(C.mult[i][j], d) == _solve_coords(
                span_t, a.mul(b), dom), (C, i, j)


@pytest.mark.parametrize("seed", range(6))
def test_structure_constants_match_per_product_solve(seed):
    rng = random.Random(seed)
    for dom in (QQ, GF(3)):
        A = catalog(rng.choice(["S11", "N3", "S6", "B3", "J3", "P21"]), dom)
        n = A.n
        while True:
            P = Mat.from_rows([[rng.randint(-2, 2) for _ in range(n)]
                               for _ in range(n)], dom)
            try:
                C = conjugate_algebra(A, P)
                break
            except NotInvertible:
                continue
        _assert_constants_match_solve(C)


@pytest.mark.parametrize("dom", [QQ, GF(3), ZZ], ids=repr)
def test_structure_constants_match_solve_where_products_are_skipped(dom):
    # on matrix units most products are zero by support and never formed
    for name in ALL_NAMES + ("B5", "P22"):
        _assert_constants_match_solve(catalog(name, dom))


def test_sphere_constants_match_per_product_solve():
    # d = 50: 2,500 solves, of which 2,390 check a product never formed
    n, leq = SPHERE
    _assert_constants_match_solve(
        verify_subalgebra(n, QQ, [Mat(n, n, QQ, {xy: 1}) for xy in leq]))


def test_only_products_with_overlapping_support_are_formed(monkeypatch):
    n, leq = RP2
    products = []
    mul = Mat.mul

    def counted(a, b):
        products.append(1)
        return mul(a, b)
    monkeypatch.setattr(Mat, "mul", counted)
    A = verify_subalgebra(n, QQ, [Mat(n, n, QQ, {xy: 1}) for xy in leq])
    # E_xy E_zw is formed only when y = z, and is then E_xw
    at = {xy: k for k, xy in enumerate(leq)}
    assert len(products) == sum(y == z for _, y in leq for z, _ in leq)
    assert A.mult == tuple(tuple({at[x, w]: 1} if y == z else {}
                                 for z, w in leq) for x, y in leq)
    products.clear()
    sp = detect_splitting(A)
    assert (len(sp.idempotents), len(sp.radical)) == (31, 90)
    assert not products


def test_member_coords_match_solve_on_catalog():
    for name in ALL_NAMES:
        for dom in (QQ, GF(2), GF(3), ZZ):
            A = catalog(name, dom)
            span_t, n = _span_t(A), A.n
            probes = list(A.basis) + [Mat(n, n, dom, {(i, j): 1})
                                      for i in range(n) for j in range(n)]
            probes.append(A.basis[-1].scale(2).add(A.unit_matrix()))
            for m in probes:
                assert _dense(A.member_coords(m), A.dim) == _solve_coords(
                    span_t, m, dom)
    # over Z a rational member with fractional coordinates is no member
    A = catalog("N2", ZZ)
    assert A.member_coords(Mat(2, 2, ZZ, {(0, 0): 1})) is NoSolution


def test_radical_products_match_solve_on_catalog():
    for name in ALL_NAMES:
        if name in NOT_SPLITTABLE:
            continue
        for dom in (QQ, GF(2), ZZ):
            A = catalog(name, dom)
            sp = detect_splitting(A)
            fdom = QQ if dom == ZZ else dom
            rad_t = Mat(len(sp.radical), A.n * A.n, fdom,
                        {(k, t): v for k, x in enumerate(sp.radical)
                         for t, v in enumerate(_dense_vec(x)) if v}
                        ).transpose()
            for (i, j), coords in sp.radical_products.items():
                want = solve(rad_t, _dense_vec(sp.radical[i].mul(
                    sp.radical[j])))
                assert _dense(coords, len(sp.radical)) == tuple(
                    dom.normalize(v) for v in want)


# ---------------------------------------------------------------------------
# the quotient lattice over Z when the row-major units do not span it

def test_quotient_over_z_falls_back_to_unit_pivots():
    # X -> diag(X, g X g^-1), g = diag(1, 2): the row-major scan leaves
    # P = {22, 23, 32, 33}, whose block G has determinant 2, while the +-1
    # pivots of the basis give a unimodular G
    A = verify_subalgebra(4, ZZ, [Mat(4, 4, ZZ, ent) for ent in (
        {(0, 0): 1, (2, 2): 1}, {(0, 1): 2, (2, 3): 1},
        {(1, 0): 1, (3, 2): 2}, {(1, 1): 1, (3, 3): 1})])
    bm = quotient_bimodule(A)
    assert bm.dim == 12
    # proj is integral and kills A
    for b in A.basis:
        flat = [b.entry(i, j) for i in range(4) for j in range(4)]
        assert not any(bm.proj.apply(flat))


def test_quotient_over_z_refuses_without_unit_pivots():
    # span{I, X}, X = [[2, 3], [0, 0]] (X^2 = 2X), is saturated, but every
    # choice of two matrix units gives det G in {0, -2, +-3}
    basis = [I2, [[2, 3], [0, 0]]]
    assert quotient_bimodule(verify_subalgebra(2, QQ, basis)).dim == 2
    with pytest.raises(NotSaturated, match="quotient lattice"):
        quotient_bimodule(verify_subalgebra(2, ZZ, basis))


# ---------------------------------------------------------------------------
# the sandwich reads its classes like the quotient

ALL_UNITS = {n: [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
             for n in range(2, 6)}


def _same_bimodule(a, b):
    return (a.tags, a.left, a.right) == (b.tags, b.left, b.right)


@pytest.mark.parametrize("dom", ORACLE_RINGS, ids=repr)
def test_sandwich_on_every_unit_is_the_quotient(dom):
    # the row-major units are unimodular on every one of these, so the
    # quotient keeps its first choice and the sandwich makes the same one
    for name in ALL_NAMES + ORACLE_EXTRA:
        A = _oracle_algebra(name, dom)
        assert _same_bimodule(sandwich_bimodule(A, ALL_UNITS[A.n]),
                              quotient_bimodule(A)), name


def test_sandwich_over_z_refuses_a_sublattice():
    # the algebra of test_quotient_over_z_falls_back_to_unit_pivots: the
    # row-major units span a sublattice of index 2 of M_4(Z) / A, on which
    # the bar complex would read H^1 = H^3 = 0 instead of Z/2
    def fallback_algebra(dom):
        return verify_subalgebra(4, dom, [Mat(4, 4, dom, ent) for ent in (
            {(0, 0): 1, (2, 2): 1}, {(0, 1): 2, (2, 3): 1},
            {(1, 0): 1, (3, 2): 2}, {(1, 1): 1, (3, 3): 1})])
    Q = fallback_algebra(QQ)
    assert _same_bimodule(sandwich_bimodule(Q, ALL_UNITS[4]),
                          quotient_bimodule(Q))
    Z = fallback_algebra(ZZ)
    assert quotient_bimodule(Z).dim == 12
    with pytest.raises(NotSaturated, match="quotient lattice"):
        sandwich_bimodule(Z, ALL_UNITS[4])
    # span{I, X}, X = [[2, 3], [0, 0]]: no two units span M_2(Z) / A
    basis = [I2, [[2, 3], [0, 0]]]
    assert sandwich_bimodule(verify_subalgebra(2, QQ, basis),
                             ALL_UNITS[2]).dim == 2
    with pytest.raises(NotSaturated, match="quotient lattice"):
        sandwich_bimodule(verify_subalgebra(2, ZZ, basis), ALL_UNITS[2])


@pytest.mark.parametrize("dom", ORACLE_RINGS, ids=repr)
def test_sandwich_refusals_on_every_ring(dom):
    A = catalog("S11", dom)
    # E12 * E21 = E11 lies outside span(A + E21): as a numerator that span
    # is not stable, and as the denominator of span(A + E11 + E21) it is
    # not a sub-bimodule
    with pytest.raises(AlgebraError, match="not stable"):
        sandwich_bimodule(A, [(2, 1)])
    with pytest.raises(AlgebraError, match="not a sub-bimodule"):
        sandwich_bimodule(A, [(1, 1), (2, 1)], [(2, 1)])
    # the stable tower of test_sandwich_bimodules_for_triangular_tower
    assert sandwich_bimodule(A, [(1, 1), (2, 1)], [(1, 1)]).dim == 1

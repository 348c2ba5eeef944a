"""Exact linear algebra: examples, sympy cross-checks, and properties."""

import random
import time
import tracemalloc
from collections import Counter, defaultdict
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import chain

import pytest
import sympy
from sympy.matrices.normalforms import invariant_factors as sympy_factors
from hypothesis import given, settings
from hypothesis import strategies as st

from hochschild import exactla
from hochschild.algebra import NotInvertible, catalog, mat_inverse
from hochschild.cohomology import cohomology_of
from hochschild.complexes import CochainComplex, reduced_bar_complex
from hochschild.exactla import (GF, QQ, ZZ, DomainNotField, Echelon, Mat,
                                NoSolution, kernel_basis, rank,
                                smith_normal_form, solve)

# the commutator action of the 3x3 Jordan block on its 6-dimensional
# quotient (rows/cols over the quotient unit-class basis); reused below as
# a rank and Smith-form fixture
JORDAN3_COMMUTATOR = {
    (1, 0): 1, (3, 0): -1, (2, 1): 1, (4, 1): -1, (5, 2): -1,
    (2, 3): 1, (4, 3): 2, (5, 4): 2,
}


def _mat(rows, dom):
    return Mat.from_rows(rows, dom)


# ---------------------------------------------------------------------------
# rank

def test_rank_identity_rational():
    assert rank(Mat.identity(3, QQ)) == 3


def test_rank_zero_f2():
    assert rank(Mat.zeros(4, 7, GF(2))) == 0


def test_rank_jordan_commutator():
    m = Mat(6, 6, QQ, JORDAN3_COMMUTATOR)
    assert rank(m) == 4
    # reduction mod 3 kills one more pivot (the lone factor 3)
    assert rank(Mat(6, 6, GF(3), JORDAN3_COMMUTATOR)) == 3
    assert rank(Mat(6, 6, GF(2), JORDAN3_COMMUTATOR)) == 4


def test_rank_requires_field():
    with pytest.raises(DomainNotField):
        rank(Mat.identity(2, ZZ))


def test_rank_fractional_entries():
    m = _mat([[Fraction(1, 2), 1], [1, 2]], QQ)
    assert rank(m) == 1


# ---------------------------------------------------------------------------
# the Q domain: int when integral, Fraction otherwise, never float

def test_rationals_store_integral_values_as_int():
    assert type(QQ.normalize(Fraction(6, 3))) is int
    assert type(QQ.normalize(Fraction(1, 2))) is Fraction
    half = Fraction(1, 2)
    assert type(QQ.normalize(half - half)) is int
    assert type(QQ.normalize(half + half)) is int
    assert QQ.inv(2) == Fraction(1, 2) and QQ.inv(1) == 1
    assert type(QQ.inv(Fraction(1, 3))) is int
    m = _mat([[Fraction(4, 2), Fraction(1, 3)]], QQ)
    assert [type(m.entry(0, j)) for j in range(2)] == [int, Fraction]


def test_rationals_never_return_float():
    vals = [0, 1, -3, 7, Fraction(1, 2), Fraction(-7, 3), Fraction(4, 2)]
    outs = []
    for a in vals:
        outs += [QQ.normalize(a), QQ.normalize(-a)]
        if a:
            outs.append(QQ.inv(a))
        for b in vals:
            outs += [QQ.normalize(a + b), QQ.normalize(a - b),
                     QQ.normalize(a * b)]
    assert not any(isinstance(x, float) for x in outs)
    # int when integral
    assert all(type(x) is int or x.denominator > 1 for x in outs)


def test_rational_matrix_from_ints_equals_from_fractions():
    ints = _mat([[1, 0, -2], [3, 4, 0]], QQ)
    fracs = _mat([[Fraction(2, 2), Fraction(0), Fraction(-4, 2)],
                  [Fraction(3), Fraction(8, 2), 0]], QQ)
    assert ints == fracs and hash(ints) == hash(fracs)
    # a Fraction with denominator 1 equals and hashes like its int
    raw = Mat._adopt(2, 3, QQ, ((j, {i: Fraction(v) for i, v in col.items()})
                                for j, col in ints.columns().items()))
    assert type(raw.entry(0, 0)) is Fraction
    assert raw == ints and hash(raw) == hash(ints)
    # a product's integral sums of Fractions are stored as ints
    half = _mat([[Fraction(1, 2), 0], [0, Fraction(1, 2)]], QQ)
    prod = half.mul(Mat.identity(2, QQ).scale(2))
    assert prod == Mat.identity(2, QQ) and type(prod.entry(0, 0)) is int


def test_apply_rejects_a_vector_of_the_wrong_length():
    for m, vec in ((Mat.identity(2, QQ), [1, 2, 3]),
                   (Mat.zeros(2, 2, QQ), [5]),
                   (Mat.from_rows([[1, 2, 3]], ZZ), [1, 2])):
        with pytest.raises(ValueError, match="length"):
            m.apply(vec)
    assert Mat.zeros(2, 0, QQ).apply([]) == (0, 0)


@pytest.mark.parametrize("dom", [QQ, GF(2), GF(3), ZZ], ids=repr)
def test_apply_matches_mul_by_column(dom):
    rng = random.Random(17)
    for _ in range(20):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        rows = _random_int_rows(rng, r, c)
        vec = [rng.randint(-5, 5) for _ in range(c)]
        if dom != ZZ:
            # a denominator invertible in the field
            vec[-1] = Fraction(rng.randint(-5, 5), 3 if dom == GF(2) else 2)
        if dom == QQ:
            rows[0][0] = Fraction(rng.randint(-5, 5), rng.randint(2, 4))
        m = _mat(rows, dom)
        col = m.mul(Mat(c, 1, dom, {(j, 0): v for j, v in enumerate(vec)}))
        want = tuple(col.entry(i, 0) for i in range(r))
        got = m.apply(vec)
        assert got == want
        assert all(dom.normalize(v) == v for v in got)


# ---------------------------------------------------------------------------
# kernel

def test_kernel_identity_empty():
    assert kernel_basis(Mat.identity(2, QQ)) == []


def test_kernel_ones_f2():
    assert kernel_basis(_mat([[1, 1]], GF(2))) == [(1, 1)]


def test_kernel_zero_map_dimension():
    assert len(kernel_basis(Mat.zeros(3, 3, QQ))) == 3


def test_kernel_determinism():
    random.seed(5)
    rows = [[random.randint(-3, 3) for _ in range(7)] for _ in range(4)]
    a = kernel_basis(_mat(rows, QQ))
    b = kernel_basis(_mat(rows, QQ))
    assert a == b and len(a) == 7 - rank(_mat(rows, QQ))


def test_kernel_over_z_is_saturated():
    random.seed(11)
    for _ in range(20):
        rows = [[random.randint(-4, 4) for _ in range(5)] for _ in range(3)]
        m = _mat(rows, ZZ)
        ker = kernel_basis(m)
        mq = m.change_domain(QQ)
        assert len(ker) == 5 - rank(mq)
        for v in ker:
            prod = [sum(rows[i][j] * v[j] for j in range(5)) for i in range(3)]
            assert all(x == 0 for x in prod)
        if ker:
            stack = Mat.from_rows([list(v) for v in ker], ZZ)
            assert all(f == 1 for f in
                       smith_normal_form(stack).invariant_factors)


def test_kernel_over_z_saturates_a_coarser_rref_lattice():
    # the RREF basis over Q, b_2 = (-1/2, -1/3, 1, 0) and
    # b_3 = (-1/2, -2/3, 0, 1), is fractional at both kept positions: the
    # integral kernel vectors a b_2 + c b_3 need a + c even and a = c mod 3
    m = _mat([[2, 0, 1, 1], [0, 3, 1, 2]], ZZ)
    rref = kernel_basis(m.change_domain(QQ))
    assert rref == [(Fraction(-1, 2), Fraction(-1, 3), 1, 0),
                    (Fraction(-1, 2), Fraction(-2, 3), 0, 1)]
    ker = kernel_basis(m)
    assert len(ker) == 2
    for v in ker:
        assert all(type(x) is int for x in v) and not any(m.apply(v))
    stack = Mat.from_rows([list(v) for v in ker], ZZ)
    assert smith_normal_form(stack).invariant_factors == (1, 1)
    # the free coordinates of ker, its coefficients on b_2 and b_3, span
    # the sublattice of index 6
    (p, q), (r, s) = (v[2:] for v in ker)
    assert abs(p * s - q * r) == 6
    assert kernel_basis(_mat([[2, 1, 1]], ZZ)) == [(-1, 2, 0), (0, -1, 1)]


# ---------------------------------------------------------------------------
# Smith normal form

def test_snf_identity():
    sf = smith_normal_form(Mat.identity(3, ZZ))
    assert sf.invariant_factors == (1, 1, 1)


def test_snf_jordan_commutator():
    sf = smith_normal_form(Mat(6, 6, ZZ, JORDAN3_COMMUTATOR))
    assert sf.invariant_factors == (1, 1, 1, 3)


def test_snf_two_by_two():
    sf = smith_normal_form(_mat([[2, 4], [6, 8]], ZZ))
    assert sf.invariant_factors == (2, 4)


# ---------------------------------------------------------------------------
# solve

def test_solve_identity():
    assert solve(Mat.identity(3, QQ), [1, 0, 0]) == (1, 0, 0)


def test_solve_leftmost_pivot():
    assert solve(_mat([[1, 1]], QQ), [1]) == (1, 0)


def test_solve_membership_no_solution():
    # columns: vec(I), vec(E12), vec(E21); rhs: vec(E11)
    cols = [[1, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0]]
    m = Mat(4, 3, QQ, {(i, j): cols[j][i] for j in range(3) for i in range(4)})
    assert solve(m, [1, 0, 0, 0]) is NoSolution


def test_solve_requires_field():
    with pytest.raises(DomainNotField):
        solve(Mat.identity(2, ZZ), [1, 1])


# ---------------------------------------------------------------------------
# echelon form with transform


@pytest.mark.parametrize("dom", [QQ, GF(3)], ids=repr)
def test_echelon_coords_and_rank(dom):
    rows = [{0: 1, 1: 2}, {1: 1, 2: 1}, {0: 1, 1: 3, 2: 1}, {2: 2}]
    ech = Echelon(dom)
    # the third row is the sum of the first two
    assert [ech.add(r) for r in rows] == [True, True, False, True]
    assert ech.rank == 3
    # coordinates in the kept rows 0, 1, 3: 2*r0 - r1 + 2*r3, sparse
    assert ech.coords({0: 2, 1: 3, 2: 3}) == {
        k: dom.normalize(c) for k, c in enumerate((2, -1, 2))}
    assert ech.coords({0: 1, 1: 2}) == {0: 1}
    two_rows = Echelon(dom)
    two_rows.add(rows[0])
    assert two_rows.coords({2: 1}) is NoSolution
    assert two_rows.coords({}) == {}
    with pytest.raises(DomainNotField):
        Echelon(ZZ)


# ---------------------------------------------------------------------------
# sympy cross-checks (independent oracle)

def _random_int_rows(rng, r, c, lo=-5, hi=5, density=0.6):
    return [[rng.randint(lo, hi) if rng.random() < density else 0
             for _ in range(c)] for _ in range(r)]


def test_rank_matches_sympy_over_q():
    rng = random.Random(7)
    for _ in range(25):
        r, c = rng.randint(1, 7), rng.randint(1, 7)
        rows = _random_int_rows(rng, r, c)
        assert rank(_mat(rows, QQ)) == sympy.Matrix(rows).rank()


def _random_mixed_rows(rng, r, c):
    """Rows of ints and non-integral Fractions, the last row dependent."""
    rows = [[(Fraction(rng.randint(-5, 5), rng.choice((2, 3, 4)))
              if rng.random() < 0.4 else rng.randint(-4, 4))
             if rng.random() < 0.7 else 0 for _ in range(c)]
            for _ in range(r)]
    rows[0][0] = Fraction(rng.choice((-1, 1)), rng.choice((2, 3)))
    if r > 2:
        rows[-1] = [a + Fraction(1, 3) * b for a, b in zip(rows[0], rows[1])]
    return rows


def _from_sympy(v):
    return Fraction(int(v.p), int(v.q))


def _check_against_sympy(rng, rows):
    r = len(rows)
    m = _mat(rows, QQ)
    sm = sympy.Matrix([[sympy.Rational(v.numerator, v.denominator)
                        for v in row] for row in rows])
    assert rank(m) == sm.rank(), rows
    assert kernel_basis(m) == [tuple(_from_sympy(x) for x in v)
                               for v in sm.nullspace()], rows
    rhs = [rng.randint(-3, 3) for _ in range(r)]
    rhs[0] = Fraction(1, 2)
    try:
        sol, params = sm.gauss_jordan_solve(sympy.Matrix(rhs))
    except ValueError:  # inconsistent
        assert solve(m, rhs) is NoSolution, rows
    else:
        sol = sol.subs({t: 0 for t in params})
        assert solve(m, rhs) == tuple(_from_sympy(x) for x in sol), rows
    return m, sm


def test_mixed_rational_matrices_match_sympy():
    rng = random.Random(23)
    for _ in range(40):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        _check_against_sympy(rng, _random_mixed_rows(rng, r, c))
    # tall and sparse, as the stacked normalizer systems are
    for _ in range(20):
        r, c = rng.randint(9, 30), rng.randint(2, 8)
        rows = _random_mixed_rows(rng, r, c)
        for row in rows[1:]:
            for j in range(c):
                if rng.random() < 0.6:
                    row[j] = 0
        _check_against_sympy(rng, rows)
    # square: the inverse, or NotInvertible exactly when sympy's is singular
    inverted = 0
    for _ in range(30):
        k = rng.randint(1, 6)
        rows = _random_mixed_rows(rng, k, k)
        if rng.random() < 0.7:
            rows[-1] = [rng.randint(-3, 3) for _ in range(k)]
        m, sm = _check_against_sympy(rng, rows)
        if sm.det() == 0:
            with pytest.raises(NotInvertible):
                mat_inverse(m)
            continue
        inverted += 1
        assert mat_inverse(m) == _mat([[_from_sympy(x) for x in row]
                                       for row in sm.inv().tolist()], QQ)
    assert inverted >= 10


# rank over Q past the unit phase: every row below has gcd 1 and no +-1
# entry, so the unit phase takes nothing and the whole rank comes from the
# fraction-free residual phase.  sympy.Matrix.rank did not finish a 44 x 40
# case within two minutes, so the oracle is sympy's DomainMatrix rank.

_NO_UNIT = (2, -2, 3, -3, 4, -4, 6, -6)


def _sympy_rank(rows):
    return sympy.Matrix([[sympy.Rational(v.numerator, v.denominator)
                          for v in row] for row in rows]).to_DM().rank()


def _no_unit_row(rng, c, cols):
    """Entries in {0, +-2, +-3, +-4, +-6} on cols, with a 2 and a 3."""
    row = [0] * c
    for j in cols:
        if rng.random() < 0.5:
            row[j] = rng.choice(_NO_UNIT)
    a, b = rng.sample(cols, 2)
    row[a], row[b] = rng.choice((2, -2)), rng.choice((3, -3))
    return row


def _no_unit_rows(rng, r, c):
    """r x c rows without units, some of them dependent: a multiple of a
    row, and the sum of two rows on disjoint columns.  With r >= c, rank
    eliminates along these rows."""
    left, right = list(range(c // 2)), list(range(c // 2, c))
    rows = []
    while len(rows) < r:
        kind = rng.randrange(3)
        if kind == 0:
            a = _no_unit_row(rng, c, left + right)
            rows += [a, [rng.choice((2, -3)) * v for v in a]]
        elif kind == 1:
            a, b = _no_unit_row(rng, c, left), _no_unit_row(rng, c, right)
            rows += [a, b, [x + y for x, y in zip(a, b)]]
        else:
            rows.append(_no_unit_row(rng, c, left + right))
    rows = rows[:r]
    rng.shuffle(rows)
    return rows


@pytest.mark.parametrize("r,c", [(9, 9), (12, 9), (20, 16), (44, 40)])
def test_rank_residual_phase_matches_sympy(r, c):
    rng = random.Random(r * 100 + c)
    for _ in range(3):
        rows = _no_unit_rows(rng, r, c)
        assert rank(_mat(rows, QQ)) == _sympy_rank(rows), rows
        # a block the unit phase clears, stacked over the unit-free block
        units = _random_int_rows(rng, rng.randint(1, c // 2), c)
        for row in units:
            row[rng.randrange(c)] = rng.choice((1, -1))
        stacked = units + rows
        assert rank(_mat(stacked, QQ)) == _sympy_rank(stacked), stacked
        # rows and columns scaled by 1, 1/5 or 1/7: every row stays free
        # of units once _int_rows clears its denominators
        rs = [Fraction(1, rng.choice((1, 5, 7))) for _ in range(r)]
        cs = [Fraction(1, rng.choice((1, 5, 7))) for _ in range(c)]
        scaled = [[v * a * b for v, b in zip(row, cs)]
                  for row, a in zip(rows, rs)]
        assert rank(_mat(scaled, QQ)) == _sympy_rank(scaled), scaled


def test_modular_rank_matches_sympy_factors():
    # rank over F_p of an integer matrix = number of invariant factors
    # not divisible by p
    rng = random.Random(13)
    for _ in range(20):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        rows = _random_int_rows(rng, r, c)
        factors = list(sympy_factors(sympy.Matrix(rows)))
        for p in (2, 3, 5):
            want = sum(1 for f in factors if f % p != 0)
            assert rank(_mat(rows, GF(p))) == want, (rows, p)


def test_snf_factors_match_sympy():
    rng = random.Random(31)
    for _ in range(25):
        r, c = rng.randint(1, 6), rng.randint(1, 6)
        rows = _random_int_rows(rng, r, c, lo=-9, hi=9)
        ours = smith_normal_form(_mat(rows, ZZ)).invariant_factors
        theirs = tuple(int(abs(f)) for f in sympy_factors(sympy.Matrix(rows))
                       if f != 0)
        assert ours == theirs, rows


# ---------------------------------------------------------------------------
# F_2/F_3 rank of mid-sized sparse matrices against rank-nullity through the
# Echelon kernel, and against the rank of the transpose; this guards the
# shortest-column pivot rule over F_p

@pytest.mark.parametrize("p", [2, 3])
def test_modular_rank_nullity_and_transpose_sparse(p):
    rng = random.Random(40 + p)
    for _ in range(6):
        r, c = rng.randint(130, 180), rng.randint(130, 180)
        ent = {(i, j): rng.randint(1, p - 1)
               for i in range(r) for j in range(c) if rng.random() < 0.05}
        m = Mat(r, c, GF(p), ent)
        assert rank(m) + len(kernel_basis(m)) == m.cols
        assert rank(m.transpose()) == rank(m)


# ---------------------------------------------------------------------------
# Smith form against rank at complex scale: the number of invariant factors
# is the rank over Q, and the rank over F_p counts the factors prime to p

@pytest.mark.parametrize("name,degree", [("S11", 3), ("S11", 4), ("J4", 2)])
def test_smith_agrees_with_field_ranks_on_reduced_bar(name, degree):
    cx = cohomology_of(catalog(name, ZZ), method="reduced",
                       degrees=[degree]).complex
    d = cx.diffs[degree]
    factors = smith_normal_form(d).invariant_factors
    assert len(factors) == rank(d.change_domain(QQ))
    for p in (2, 3, 5):
        assert rank(d.change_domain(GF(p))) == sum(
            1 for f in factors if f % p), p


# ---------------------------------------------------------------------------
# properties

_small_int_matrix = st.integers(1, 5).flatmap(
    lambda r: st.integers(1, 5).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-7, 7), min_size=c, max_size=c),
            min_size=r, max_size=r)))


@settings(max_examples=60, deadline=None)
@given(_small_int_matrix)
def test_rank_transpose_invariant(rows):
    m = _mat(rows, QQ)
    assert rank(m) == rank(m.transpose())
    assert rank(m) <= min(m.rows, m.cols)


@settings(max_examples=60, deadline=None)
@given(_small_int_matrix)
def test_rank_kernel_dimension_law(rows):
    m = _mat(rows, QQ)
    assert rank(m) + len(kernel_basis(m)) == m.cols
    for v in kernel_basis(m):
        out = [sum(rows[i][j] * v[j] for j in range(m.cols))
               for i in range(m.rows)]
        assert all(x == 0 for x in out)


@settings(max_examples=60, deadline=None)
@given(_small_int_matrix)
def test_modular_rank_never_exceeds_rational(rows):
    m = _mat(rows, QQ)
    for p in (2, 3, 5):
        assert rank(_mat(rows, GF(p))) <= rank(m)


@settings(max_examples=60, deadline=None)
@given(_small_int_matrix)
def test_snf_chain_and_rank(rows):
    m = _mat(rows, ZZ)
    sf = smith_normal_form(m)
    fs = sf.invariant_factors
    assert all(f > 0 for f in fs)
    assert all(fs[i + 1] % fs[i] == 0 for i in range(len(fs) - 1))
    assert len(fs) == rank(m.change_domain(QQ))


@settings(max_examples=40, deadline=None)
@given(_small_int_matrix, st.lists(st.integers(-5, 5), min_size=1,
                                   max_size=5))
def test_solve_returns_actual_solutions(rows, rhs):
    m = _mat(rows, QQ)
    rhs = (rhs + [0] * m.rows)[:m.rows]
    got = solve(m, rhs)
    if got is not NoSolution:
        out = [sum(Fraction(rows[i][j]) * got[j] for j in range(m.cols))
               for i in range(m.rows)]
        assert out == [Fraction(v) for v in rhs]
    else:
        aug = [rows[i] + [rhs[i]] for i in range(m.rows)]
        assert sympy.Matrix(aug).rank() > sympy.Matrix(rows).rank()


# ---------------------------------------------------------------------------
# the eliminator's column index: a list per column, not a set, changes its
# memory and nothing else


def _set_index_eliminate(live, choose, update):
    # the eliminator as it was with a set per column, kept as the reference
    col_index = defaultdict(set)
    for i, r in live.items():
        for j in r:
            col_index[j].add(i)
    stride = max(live, default=0) + 1
    heap = [len(r) * stride + i for i, r in live.items()]
    heapify(heap)
    pivots = []
    while heap:
        n, pi = divmod(heappop(heap), stride)
        prow = live.get(pi)
        if prow is None or len(prow) != n:
            continue
        pj = choose(prow, col_index)
        if pj is None:
            continue
        del live[pi]
        pivots.append(pj)
        for j in prow:
            col_index[j].discard(pi)
        targets, col_index[pj] = col_index[pj], set()
        for t in targets:
            trow = live[t]
            new = update(prow, pj, trow)
            for j in prow:
                if j in new:
                    if j not in trow:
                        col_index[j].add(t)
                elif j in trow:
                    col_index[j].discard(t)
            if new:
                live[t] = new
                heappush(heap, len(new) * stride + t)
            else:
                del live[t]
    return pivots, live


_sparse_rows = st.dictionaries(
    st.integers(0, 40),
    st.dictionaries(st.integers(0, 9),
                    st.sampled_from([1, -1, 2, -2, 3, Fraction(1, 2),
                                     Fraction(-2, 3)]),
                    min_size=1, max_size=7),
    max_size=14)


def _same_elimination(rows, choose, update):
    got = exactla._eliminate(dict(rows), choose, update)
    want = _set_index_eliminate(dict(rows), choose, update)
    assert got[0] == want[0]
    assert list(got[1].items()) == list(want[1].items())
    return got


@settings(max_examples=150, deadline=None)
@given(_sparse_rows)
def test_list_index_eliminates_as_the_set_index(rows):
    # F_p, the short-column rule
    for p in (2, 3, 5):
        mod = {i: {j: v % p for j, v in r.items()
                   if not isinstance(v, Fraction) and v % p}
               for i, r in rows.items()}
        _same_elimination({i: r for i, r in mod.items() if r},
                          exactla._choose_short_column, exactla._update_mod(p))
    # Q: the unit phase, then fraction-free on what is left
    _, residual = _same_elimination(exactla._int_rows(dict(rows)),
                                    exactla._choose_unit,
                                    exactla._update_unit)
    _same_elimination(residual, exactla._choose_smallest_entry,
                      exactla._update_fraction_free)
    # Z: the unit phase of the Smith form
    ints = {i: {j: v for j, v in r.items() if not isinstance(v, Fraction)}
            for i, r in rows.items()}
    _same_elimination({i: r for i, r in ints.items() if r},
                      exactla._choose_unit, exactla._update_unit)


@pytest.mark.parametrize("dom", [GF(2), QQ, ZZ], ids=repr)
def test_rank_memory_of_a_reduced_bar_differential(dom):
    # S11 reduced d^5, 16384 x 4096 with 20,150 nonzeros: the set per
    # column peaked at 3.67 MB here, the list per column at 1.93 MB
    d = reduced_bar_complex(catalog("S11", dom), top_degree=6).diffs[5]
    tracemalloc.start()
    try:
        r = (len(smith_normal_form(d).invariant_factors) if dom == ZZ
             else rank(d))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (d.rows, d.cols, d.nnz(), r) == (16384, 4096, 20150, 3276)
    assert peak < 2.75 * 2 ** 20


# ---------------------------------------------------------------------------
# the packed store against a dict-of-dicts model, {col: {row: value}}

_MODEL_VALUES = {
    QQ: st.one_of(st.integers(-3, 3), st.fractions(max_denominator=4)),
    ZZ: st.one_of(st.integers(-3, 3),
                  st.integers(2 ** 63, 2 ** 70).map(lambda v: v * 3 - 1),
                  st.integers(-2 ** 70, -2 ** 63)),
    GF(2): st.integers(-4, 4),
    GF(3): st.integers(-5, 5),
}


def _model(dom, entries):
    """{col: {row: value}} of raw entries, normalized, without zeros."""
    out = {}
    for (i, j), v in entries.items():
        if (w := dom.normalize(v)):
            out.setdefault(j, {})[i] = w
    return out


def _model_items(model):
    return {((i, j), v) for j, col in model.items() for i, v in col.items()}


def _model_mul(dom, a, b):
    out = {}
    for j, bcol in b.items():
        acc = {}
        for k, w in bcol.items():
            for i, v in a.get(k, {}).items():
                acc[i] = acc.get(i, 0) + v * w
        if (col := _model(dom, {(i, 0): v for i, v in acc.items()})):
            out[j] = col[0]
    return out


@st.composite
def _model_cases(draw):
    dom = draw(st.sampled_from(sorted(_MODEL_VALUES, key=repr)))
    r, k, c = (draw(st.integers(0, 5)) for _ in range(3))
    values = _MODEL_VALUES[dom]

    def entries(rows, cols):
        if not rows or not cols:
            return {}
        return draw(st.dictionaries(
            st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1)),
            values, max_size=rows * cols))
    return dom, r, k, c, entries(r, k), entries(k, c), entries(r, k)


@settings(max_examples=300, deadline=None)
@given(_model_cases(), st.booleans(), st.randoms(use_true_random=False))
def test_packed_mat_matches_the_dict_model(case, arrays, rnd):
    dom, r, k, c, ea, eb, ec = case
    # with a chunk of 2 entries every matrix past it keeps arrays
    chunk = exactla._CHUNK
    exactla._CHUNK = 2 if arrays else chunk
    try:
        _check_against_model(dom, r, k, c, ea, eb, ec, rnd)
    finally:
        exactla._CHUNK = chunk


def _check_against_model(dom, r, k, c, ea, eb, ec, rnd):
    ma, mb, mc = _model(dom, ea), _model(dom, eb), _model(dom, ec)
    a = Mat(r, k, dom, ea)
    # every constructor gives the model
    pairs = list({j: {i: v for (i, jj), v in ea.items() if jj == j}
                  for (_, j) in ea}.items())
    rnd.shuffle(pairs)
    dense = [[ea.get((i, j), 0) for j in range(k)] for i in range(r)]
    built = [Mat.from_columns(r, k, dom, pairs),
             Mat._adopt(r, k, dom, sorted(ma.items()))]
    if r:
        built.append(Mat.from_rows(dense, dom))
    for m in built:
        assert m == a and hash(m) == hash(a)
        assert (m.rows, m.cols, m.domain) == (r, k, dom)
    assert Mat.zeros(r, k, dom).is_zero() and Mat.zeros(r, k, dom).nnz() == 0
    assert set(Mat.identity(r, dom).items()) == {((i, i), 1)
                                                 for i in range(r)}
    # readers
    assert set(a.items()) == _model_items(ma)
    assert a.nnz() == sum(map(len, ma.values()))
    assert a.is_zero() == (not ma)
    for j in range(-1, k + 1):
        assert a.column(j) == ma.get(j, {})
        for i in range(-1, r + 1):
            assert a.entry(i, j) == ma.get(j, {}).get(i, 0)
    assert a.columns() == ma
    # == and hash read no order of rows within a column
    shuffled = []
    for j, col in sorted(ma.items()):
        rows = list(col)
        rnd.shuffle(rows)
        shuffled.append((j, {i: col[i] for i in rows}))
    s = Mat._adopt(r, k, dom, shuffled)
    assert s == a and hash(s) == hash(a)
    assert (s == Mat(r, k, dom, ec)) == (ma == mc)
    if dom == QQ:
        # a Fraction with denominator 1 equals and hashes like its int
        f = Mat._adopt(r, k, dom, [(j, {i: Fraction(v) for i, v in
                                        col.items()})
                                   for j, col in sorted(ma.items())])
        assert f == a and hash(f) == hash(a)
    # operations
    add = {key: v for key in set(ea) | set(ec)
           if (v := ea.get(key, 0) + ec.get(key, 0))}
    assert set(a.add(Mat(r, k, dom, ec)).items()) == _model_items(
        _model(dom, add))
    for scalar in (0, 1, -2, 3):
        assert set(a.scale(scalar).items()) == _model_items(_model(dom, {
            key: v * scalar for key, v in ea.items()}))
    b = Mat(k, c, dom, eb)
    want = _model_mul(dom, ma, mb)
    assert set(a.mul(b).items()) == _model_items(want)
    assert a.mul_is_zero(b) == (not want)
    assert set(a.transpose().items()) == {((j, i), v) for (i, j), v in
                                          _model_items(ma)}
    targets = {QQ: (QQ,), ZZ: (QQ, GF(2), GF(3)), GF(2): (QQ, ZZ),
               GF(3): (QQ, ZZ)}[dom]
    for to in targets:
        assert set(a.change_domain(to).items()) == _model_items(
            _model(to, dict(_model_items(ma))))
    vec = [rnd.randint(-3, 3) for _ in range(k)]
    out = [0] * r
    for (i, j), v in _model_items(ma):
        out[i] += v * vec[j]
    assert a.apply(vec) == tuple(dom.normalize(x) for x in out)


# ---------------------------------------------------------------------------
# the peel: a vector that alone holds a position is taken there before the
# eliminator runs, which changes the work and never the answer


def _stored_columns(m, skip):
    skip = set(skip)
    return {j: col for j, col in m.columns().items() if j not in skip}


def _unpeeled_rank(m, skip, pivots):
    # rank as it was with no peel, kept as the reference
    rows = _stored_columns(m, skip)
    if isinstance(m.domain, GF):
        taken = exactla._eliminate(rows, exactla._choose_short_column,
                                   exactla._update_mod(m.domain.p))[0]
    else:
        taken, residual = exactla._eliminate(
            exactla._int_rows(rows), exactla._choose_unit,
            exactla._update_unit)
        taken += exactla._eliminate(residual, exactla._choose_smallest_entry,
                                    exactla._update_fraction_free)[0]
    pivots.extend(taken)
    return len(taken)


def _unpeeled_factors(m, skip, pivots):
    # the invariant factors as they were with no peel, kept as the reference
    ones, residual = exactla._eliminate(_stored_columns(m, skip),
                                        exactla._choose_unit,
                                        exactla._update_unit)
    pivots.extend(ones)
    factors = [1] * len(ones)
    if residual:
        cols = sorted({j for r in residual.values() for j in r})
        dense = [[r.get(j, 0) for j in cols] for r in residual.values()]
        factors.extend(exactla._snf_dense(dense, len(cols)))
    return tuple(factors)


@st.composite
def _peelable(draw):
    # sparse columns over few positions, so that some positions are held
    # by one column and others by several
    dom = draw(st.sampled_from((GF(2), GF(3), QQ, ZZ)))
    r, c = draw(st.integers(1, 8)), draw(st.integers(1, 9))
    values = st.sampled_from([1, -1, 2, -2, 3])
    if dom == QQ:
        values = st.sampled_from([1, -1, 2, Fraction(1, 2), Fraction(-2, 3)])
    ent = draw(st.dictionaries(
        st.tuples(st.integers(0, r - 1), st.integers(0, c - 1)), values,
        min_size=1, max_size=2 * c))
    return Mat(r, c, dom, ent), draw(st.sets(st.integers(0, c - 1),
                                             max_size=c // 2))


def _rows_at(m, skip, positions):
    """m without the columns in skip, restricted to the rows in positions."""
    at = {i: k for k, i in enumerate(positions)}
    return Mat(len(positions), m.cols, m.domain, {
        (at[i], j): v for (i, j), v in m.items()
        if i in at and j not in skip})


@settings(max_examples=300, deadline=None)
@given(_peelable())
def test_peel_matches_the_unpeeled_eliminator(case):
    m, skip = case
    got, want = [], []
    if m.domain == ZZ:
        factors = smith_normal_form(m, skip, got).invariant_factors
        assert factors == _unpeeled_factors(m, skip, want)
        assert len(got) <= factors.count(1)
    else:
        k = rank(m, skip, got)
        assert k == _unpeeled_rank(m, skip, want) == len(got)
    assert len(set(got)) == len(got) and set(got) <= set(range(m.rows))
    # the pivot vectors project onto the pivot positions invertibly (over
    # Z unimodularly), which is what clearing by them needs
    at = _rows_at(m, skip, got)
    if m.domain == ZZ:
        assert _unpeeled_factors(at, (), []) == (1,) * len(got)
    else:
        assert _unpeeled_rank(at, (), []) == len(got)


def _counter_peel(live, units):
    # the peel as it was with a Counter, kept as the reference
    count = Counter(chain.from_iterable(live.values()))
    taken = []
    for i in sorted(live):
        row = live[i]
        if units:
            private = [j for j, v in row.items()
                       if count[j] == 1 and (v == 1 or v == -1)]
        else:
            private = [j for j in row if count[j] == 1]
        if private:
            taken.append(min(private))
            for j in row:
                count[j] -= 1
            del live[i]
    return taken


@settings(max_examples=300, deadline=None)
@given(_peelable(), st.booleans())
def test_peel_takes_what_the_counter_peel_took(case, units):
    m, skip = case
    want = _stored_columns(m, skip)
    taken, left = exactla._peel(m, skip, units)
    assert taken == _counter_peel(want, units)
    assert left == want


def test_from_columns_normalizes_once(monkeypatch):
    calls = []
    orig = Mat._normalized

    def counted(self, columns):
        calls.append(1)
        return orig(self, columns)
    monkeypatch.setattr(Mat, "_normalized", counted)
    m = Mat.from_columns(2, 3, QQ, [(0, {0: 2, 1: 0}),
                                    (2, {1: Fraction(1, 2)})])
    assert len(calls) == 1
    assert (m.rows, m.cols, m.domain) == (2, 3, QQ)
    assert dict(m.items()) == {(0, 0): 2, (1, 2): Fraction(1, 2)}


def test_peel_takes_units_only_over_z():
    # position 0 is held by the first column alone, but with a 2, which is
    # no unit: that column is left for the dense core and its position is
    # not reported
    m = Mat.from_columns(3, 2, ZZ, {0: {0: 2}, 1: {1: 1, 2: 3}}.items())
    pivots = []
    assert smith_normal_form(m, (), pivots).invariant_factors == (1, 2)
    assert pivots == [1]


def test_cleared_rank_memory_builds_no_index_for_lone_vectors():
    # S11 reduced d^6 over F_2 (65536 x 16384, 90,438 nonzeros), cleared by
    # the pivots of d^5: every vector it keeps alone holds a position, so
    # the eliminator's column index is never built; building it for every
    # vector peaked at 8.05 MB, the peel alone at 4.31 MB
    cx = reduced_bar_complex(catalog("S11", GF(2)), top_degree=7)
    pivots = []
    for q in range(6):
        skip, pivots = pivots, []
        rank(cx.diffs[q], skip, pivots)
    d = cx.diffs[6]
    tracemalloc.start()
    try:
        r = rank(d, pivots)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (d.rows, d.cols, d.nnz(), len(pivots), r) == (
        65536, 16384, 90438, 3276, 13108)
    assert peak <= 5.5 * 2 ** 20


def test_request_memory_of_the_heaviest_field_case():
    # cohomology_of S11 over F_2, reduced, degrees 0-6: the differentials
    # to d^6 (49,152 x 16,384) as column dicts peaked at 12.71 MB and held
    # 10.31 MB after, most of it the dicts and their int keys
    A = catalog("S11", GF(2))
    tracemalloc.start()
    try:
        result = cohomology_of(A, method="reduced", degrees=range(7))
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.dims() == (1, 1, 0, 0, 0, 0, 0)
    assert sum(d.nnz() for d in result.complex.diffs) == 95232
    assert peak <= 8 * 2 ** 20 and held <= 2.5 * 2 ** 20


# ---------------------------------------------------------------------------
# primality of the field characteristic


def test_is_prime_is_fast_and_refuses_pseudoprimes():
    t = time.perf_counter()
    assert exactla._is_prime(10 ** 18 + 3)
    assert exactla._is_prime(2 ** 61 - 1)
    assert GF(10 ** 18 + 3).p == 10 ** 18 + 3
    assert time.perf_counter() - t < 1.0
    # strong pseudoprimes to the bases 2; 2..7; 2..23; 2..37
    for n in (2047, 3215031751, 3825123056546413051,
              318665857834031151167461):
        assert not exactla._is_prime(n)
    assert [p for p in range(60) if exactla._is_prime(p)] == [
        p for p in range(60) if sympy.isprime(p)]
    for bad in (6, 1, 0, 2047):
        with pytest.raises(ValueError, match="not prime"):
            GF(bad)


def test_is_prime_refuses_beyond_its_proven_bound():
    for n in (exactla._PRIME_BOUND, 10 ** 30):
        with pytest.raises(ValueError, match="too large"):
            GF(n)


# ---------------------------------------------------------------------------
# column storage: the eliminator starts from the stored columns, so no
# public routine may consume or rewrite its arguments, and every answer is
# the same for a matrix and its transpose

_RINGS = (QQ, GF(2), GF(3), ZZ)
_SHAPES = ("tall", "wide", "square", "no rows", "no columns")


@st.composite
def _stored_matrix(draw):
    dom = draw(st.sampled_from(_RINGS))
    small, large = draw(st.integers(1, 4)), draw(st.integers(5, 10))
    r, c = {"tall": (large, small), "wide": (small, large),
            "square": (small, small), "no rows": (0, large),
            "no columns": (large, 0)}[draw(st.sampled_from(_SHAPES))]
    values = st.integers(-4, 4)
    if dom == QQ:
        values = st.builds(Fraction, values, st.integers(1, 3))
    ent = {}
    if r and c:
        ent = draw(st.dictionaries(
            st.tuples(st.integers(0, r - 1), st.integers(0, c - 1)), values,
            max_size=r * c))
        empty = draw(st.sets(st.integers(0, c - 1), max_size=c))
        ent = {(i, j): v for (i, j), v in ent.items() if j not in empty}
    return Mat(r, c, dom, ent)


def _unchanged(m, call):
    """call(m), asserting that m still equals, and hashes like, a copy
    taken before the call."""
    copy, h = Mat(m.rows, m.cols, m.domain, dict(m.items())), hash(m)
    out = call(m)
    assert m == copy and hash(m) == h
    return out


def _sympy_rows(m):
    return sympy.Matrix(m.rows, m.cols, lambda i, j: m.entry(i, j))


@settings(max_examples=120, deadline=None)
@given(_stored_matrix())
def test_column_storage_arguments_survive(m):
    t = m.transpose()
    assert t.transpose() == m and t.nnz() == m.nnz()
    assert all(v for _, v in m.items())
    assert _unchanged(m, lambda x: x.mul(t)) == _unchanged(
        t, lambda x: m.mul(x))
    if m.domain == ZZ:
        factors = _unchanged(m, smith_normal_form).invariant_factors
        assert smith_normal_form(t).invariant_factors == factors
        want = ()
        if m.rows and m.cols:
            want = tuple(int(abs(f)) for f in sympy_factors(_sympy_rows(m))
                         if f != 0)
        assert factors == want
        kern = _unchanged(m, kernel_basis)
        assert len(kern) == m.cols - len(factors)
        for v in kern:
            assert all(type(x) is int for x in v)
            assert not any(m.apply(v))
        if kern:
            stack = Mat.from_rows([list(v) for v in kern], ZZ)
            assert set(smith_normal_form(stack).invariant_factors) == {1}
        return
    k = _unchanged(m, rank)
    assert rank(t) == k
    assert len(_unchanged(m, kernel_basis)) == m.cols - k
    rhs = [m.entry(i, 0) for i in range(m.rows)] if m.cols else [0] * m.rows
    assert _unchanged(m, lambda x: solve(x, rhs)) is not NoSolution
    if m.domain == QQ:
        assert k == _sympy_rows(m).rank()


# ---------------------------------------------------------------------------
# the product-is-zero test of the d.d check


@st.composite
def _product_pair(draw):
    # random sparse a (r x k) and b (k x c), b either random or built from
    # a's kernel, so that zero products are drawn as well as nonzero ones
    dom = draw(st.sampled_from(_RINGS))
    r, k, c = (draw(st.integers(1, 5)) for _ in range(3))
    values = st.integers(-4, 4)
    if dom == QQ:
        values = st.builds(Fraction, values, st.integers(1, 3))

    def sparse(rows, cols):
        return Mat(rows, cols, dom, draw(st.dictionaries(
            st.tuples(st.integers(0, rows - 1), st.integers(0, cols - 1)),
            values, min_size=1, max_size=rows * cols)))
    a = sparse(r, k)
    kern = kernel_basis(a)
    if kern and draw(st.booleans()):
        scales = draw(st.lists(st.integers(1, 3), min_size=c, max_size=c))
        return a, Mat(k, c, dom, {
            (i, j): v * f for j, f in enumerate(scales)
            for i, v in enumerate(kern[j % len(kern)])})
    return a, sparse(k, c)


@settings(max_examples=300, deadline=None)
@given(_product_pair())
def test_mul_is_zero_matches_the_stored_product(pair):
    a, b = pair
    assert a.mul_is_zero(b) == a.mul(b).is_zero()


@pytest.mark.parametrize("p, scale", [(2, 1), (3, 1), (3, 2), (5, 4)])
def test_dd_check_reduces_raw_sums_over_fp(p, scale):
    # d^1 d^0 sums p copies of scale: the raw sum p * scale is a nonzero
    # int, and zero in F_p
    dom = GF(p)
    d0 = Mat(p, 1, dom, {(i, 0): scale for i in range(p)})
    d1 = Mat(1, p, dom, {(0, i): 1 for i in range(p)})
    assert d1.mul_is_zero(d0)
    cx = CochainComplex("hand", dom, (1, p, 1), [d0, d1], [[]] * 3)
    assert cx.dd_verified
    with pytest.raises(ValueError, match="incompatible"):
        d0.mul_is_zero(d0)

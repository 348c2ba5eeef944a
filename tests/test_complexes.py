"""Cochain complexes: ranks, differentials, budgets, cup products."""

import copy
import random
import tracemalloc
from fractions import Fraction
from functools import partial

import pytest

from hochschild import complexes
from hochschild.algebra import (AlgebraError, Bimodule, catalog,
                                conjugate_algebra, detect_splitting,
                                ideal_quotient_bimodule, morita_corner,
                                quotient_bimodule, regular_bimodule,
                                sandwich_bimodule, verify_subalgebra)
from hochschild.cohomology import _cibils_target, compute_cohomology
from hochschild.complexes import (DEFAULT_SIZE_BUDGET, Cochain,
                                  CochainComplex, DegreeOverflow, SizeBudgetExceeded,
                                  apply_d, bar_complex, cibils_complex,
                                  cup_product, jn_periodic_complex,
                                  reduced_bar_complex)
from hochschild.exactla import (GF, QQ, ZZ, Echelon, Mat, kernel_basis, rank,
                                smith_normal_form)

from _posets import SPHERE
from _tabledata import ALL_NAMES
from test_exactla import JORDAN3_COMMUTATOR


# ---------------------------------------------------------------------------
# ranks and dd = 0

def test_bar_ranks():
    A = catalog("N2", QQ)  # d = 2, quotient dim 2
    cx = bar_complex(A, top_degree=5)
    assert cx.ranks == (2, 4, 8, 16, 32, 64)
    assert cx.dd_verified
    # scalar algebra: d = 1, quotient dim 3, all cochain groups rank 3
    cx = bar_complex(catalog("C2", QQ), top_degree=4)
    assert cx.ranks == (3, 3, 3, 3, 3)
    assert cx.diffs[0].is_zero()
    # full matrix algebra: zero module
    cx = bar_complex(catalog("M2", QQ), top_degree=4)
    assert cx.ranks == (0, 0, 0, 0, 0)


def test_reduced_ranks():
    cx = reduced_bar_complex(catalog("B2", QQ), top_degree=5)
    assert cx.ranks == (1, 2, 4, 8, 16, 32)
    cx = reduced_bar_complex(catalog("C2", QQ), top_degree=4)
    assert cx.ranks == (3, 0, 0, 0, 0)


def test_cibils_ranks():
    assert cibils_complex(catalog("S6", QQ), top_degree=8).ranks == \
        (2, 3, 3, 3, 3, 3, 3, 3, 3)
    assert cibils_complex(catalog("N2", QQ), top_degree=6).ranks == \
        (2,) * 7
    assert cibils_complex(catalog("D3", QQ), top_degree=6).ranks == (0,) * 7
    assert cibils_complex(catalog("C3", QQ), top_degree=6).ranks == \
        (8, 0, 0, 0, 0, 0, 0)


def test_method_tags_and_dd():
    for build, tag in ((bar_complex, "bar"), (reduced_bar_complex, "reduced"),
                       (cibils_complex, "cibils")):
        cx = build(catalog("S6", QQ), top_degree=4)
        assert cx.method_tag == tag
        assert cx.dd_verified
        for p in range(len(cx.diffs) - 1):
            assert cx.diffs[p + 1].mul(cx.diffs[p]).is_zero()


def _dense_differential(cx, p, sp=None):
    """d^p of a word complex, entry by entry from the Hochschild formula
    (df)(a_0..a_p) = a_0 f(a_1..a_p) + sum_{i=1..p} (-1)^i
    f(.., a_{i-1} a_i, ..) + (-1)^(p+1) f(a_0..a_{p-1}) a_p, on the words
    of the letters in lexicographic order, each followed by every
    coordinate of M of the word's block; a product's unit coordinate, which
    names no letter of the reduced complex, is dropped.

    Without a splitting there is one block.  With a splitting sp (cibils)
    the letters are its radical basis, each with its (source, target)
    block, the words are composable, a coordinate's block is the pair of
    idempotents that act on it as 1, and C^0 takes the coordinates whose
    block has source = target.  An entry whose column is no pair of the
    complex raises KeyError."""
    A, M = cx.algebra, cx.module
    m = M.dim
    if sp is None:
        letters = range(1, A.dim) if cx.method_tag == "reduced" else \
            range(A.dim)
        basis = dict(zip(letters, letters))
        grade = dict.fromkeys(letters, (0, 0))
        comp = [(0, 0)] * m

        def product(u, v):
            return {k: c for k, c in A.mult[u][v].items() if k in basis}
    else:
        basis = dict(enumerate(sp.radical_indices))
        letters, grade = list(basis), dict(enumerate(sp.bigrading))
        idem = [k for k in range(A.dim) if k not in sp.radical_indices]
        comp = [tuple(next(t for t, e in enumerate(idem)
                           if side[e].entry(q, q) == 1)
                      for side in (M.left, M.right)) for q in range(m)]

        def product(u, v):
            return sp.radical_products.get((u, v), {})

    def index(q):
        words = [()]
        for _ in range(q):
            words = [w + (k,) for w in words for k in letters
                     if not w or grade[w[-1]][1] == grade[k][0]]
        # a word's block runs from its first source to its last target
        return {pair: k for k, pair in enumerate(
            (w, c) for w in words for c in range(m)
            if comp[c] == ((grade[w[0]][0], grade[w[-1]][1]) if w
                           else (comp[c][1], comp[c][1])))}
    cols, rows, out = index(p), index(p + 1), {}

    def add(row, col, v):
        if v:
            out[row, cols[col]] = out.get((row, cols[col]), 0) + v
    for (w, r), row in rows.items():
        for c in range(m):
            add(row, (w[1:], c), M.left[basis[w[0]]].entry(r, c))
            add(row, (w[:-1], c),
                (-1) ** (p + 1) * M.right[basis[w[-1]]].entry(r, c))
        for i in range(1, p + 1):
            for k, v in product(w[i - 1], w[i]).items():
                add(row, (w[:i - 1] + (k,) + w[i + 1:], r), (-1) ** i * v)
    return Mat(len(rows), len(cols), cx.domain, out), list(cols)


@pytest.mark.parametrize("dom", [QQ, GF(3)], ids=repr)
@pytest.mark.parametrize("name,top", [("B4", 3), ("S11", 3), ("N3", 3),
                                      ("J3", 3)])
def test_builder_matches_dense_hochschild_formula(name, top, dom):
    A = catalog(name, dom)
    for build in (bar_complex, reduced_bar_complex):
        cx = build(A, top_degree=top)
        for p, d in enumerate(cx.diffs):
            dense, labels = _dense_differential(cx, p)
            assert list(cx.labels[p]) == labels
            assert d == dense, (name, build.__name__, p)


def _units_algebra(n, dom, diagonal, units):
    """span of the diagonal idempotents (each a set of positions) and the
    matrix units E_xy."""
    return verify_subalgebra(n, dom, [
        Mat(n, n, dom, dict.fromkeys(((i, i) for i in e), 1))
        for e in diagonal] + [Mat(n, n, dom, {xy: 1}) for xy in units])


@pytest.mark.parametrize("dom", [QQ, GF(3), ZZ], ids=repr)
@pytest.mark.parametrize("name", ["S6", "N3", "B3", "S14", "N2xD1",
                                  "P21 corner", "sphere", "chain", "loop"])
def test_cibils_matches_dense_hochschild_formula(name, dom):
    # several blocks lay C^p out in runs of unequal length; the quotient
    # bimodule of B3, S14 and the sphere's face poset (14 blocks) is zero
    # beyond C^0, so each algebra takes its regular bimodule too.  "chain"
    # is the chain 0 < 1 < 2 < 3 with vertex 0 of rank 2: two letters leave
    # vertex 1, and X_p(1, 0) and X_p(1, 1) differ in size.  "loop" is
    # k x k[x]/x^2 with the loop's block second: every letter leaves block
    # 1, so C^p is X_p(1, 1) for p >= 1, while C^0 also holds block 0's
    # coordinate, first
    if name == "sphere":
        n, leq = SPHERE
        A = _units_algebra(n, dom, [], leq)
    elif name == "chain":
        A = _units_algebra(5, dom, [(0, 1), (2,), (3,), (4,)], [
            (x, y) for x in range(4) for y in range(2, 5) if x < y])
    elif name == "loop":
        A = _units_algebra(3, dom, [(0,), (1, 2)], [(1, 2)])
    else:
        A = catalog(name.split()[0], dom)
        if name.endswith("corner"):
            A = morita_corner(A)
    sp = detect_splitting(A)
    for M in (quotient_bimodule(A), regular_bimodule(A)[0]):
        cx = cibils_complex(A, splitting=sp, M=M, top_degree=4)
        for p, d in enumerate(cx.diffs):
            dense, labels = _dense_differential(cx, p, sp)
            assert list(cx.labels[p]) == labels
            assert d == dense, (name, M.name, p)
    assert any(cx.ranks[1:])


def _radical_reversed(name, dom):
    """(catalog algebra, the same algebra with its radical basis reversed
    after the idempotents): B4's letters then leave blocks 2, 1, 1, 0, 0, 0."""
    A = catalog(name, dom)
    rad = detect_splitting(A).radical_indices
    idem = [b for k, b in enumerate(A.basis) if k not in rad]
    return A, verify_subalgebra(
        A.n, dom, idem + [A.basis[k] for k in reversed(rad)])


@pytest.mark.parametrize("dom", [QQ, GF(2), ZZ], ids=repr)
@pytest.mark.parametrize("name", ["B4", "S6", "sphere", "isolated"])
def test_cibils_lays_out_letters_by_source_block(name, dom):
    # letters listed out of block order: C^p is still X_p(s, s) for each
    # source block s in turn, so the labels are grouped by the word's source
    # block.  That permutes the lexicographic layout of the Hochschild
    # formula, entry for entry, and leaves the sorted basis's cohomology.
    # "isolated" is k x B2 with the vertex that no letter touches first:
    # its coordinate in the regular bimodule still opens C^0
    if name == "sphere":
        n, leq = SPHERE
        shuffled = list(leq)
        random.Random(20).shuffle(shuffled)
        A, B = (_units_algebra(n, dom, [], rel) for rel in (leq, shuffled))
    elif name == "isolated":
        A = B = _units_algebra(3, dom, [(0,), (1,), (2,)], [(1, 2)])
    else:
        A, B = _radical_reversed(name, dom)
    sp = detect_splitting(B)
    idem = [k for k in range(B.dim) if k not in sp.radical_indices]
    for bimodule in (quotient_bimodule, lambda X: regular_bimodule(X)[0]):
        M = bimodule(B)
        cx = cibils_complex(B, splitting=sp, M=M, top_degree=3)
        for labels in cx.labels:
            sources = [sp.bigrading[w[0]][0] if w else next(
                t for t, e in enumerate(idem) if M.left[e].entry(q, q) == 1)
                for w, q in labels]
            assert sources == sorted(sources)
        for p, d in enumerate(cx.diffs):
            dense, cols = _dense_differential(cx, p, sp)
            rows = sorted(cx.labels[p + 1])
            assert sorted(cx.labels[p]) == cols
            assert {(rows[i], cols[j]): v for (i, j), v in dense.items()} \
                == {(cx.labels[p + 1][i], cx.labels[p][j]): v
                    for (i, j), v in d.items()}, (name, p)
        want = cibils_complex(A, M=bimodule(A), top_degree=3)
        assert compute_cohomology(cx).records == \
            compute_cohomology(want).records
    assert any(cx.ranks[1:])


RINGS = [QQ, GF(2), GF(3), ZZ]
BUILDERS = [bar_complex, reduced_bar_complex, cibils_complex]


@pytest.mark.parametrize("dom", RINGS, ids=repr)
@pytest.mark.parametrize("build", BUILDERS, ids=lambda b: b.__name__)
def test_dd_check_rejects_corrupted_differential(build, dom):
    cx = build(catalog("S6", dom), top_degree=3)
    # the intact differentials pass the check
    CochainComplex(cx.method_tag, dom, cx.ranks, cx.diffs, cx.labels)
    for p in range(len(cx.diffs) - 1):
        d, after = cx.diffs[p], cx.diffs[p + 1]
        # adding 1 to d^p at a row that d^(p+1) reads adds that nonzero
        # column of d^(p+1) to the product
        row = min(c for (_, c), _ in after.items())
        diffs = list(cx.diffs)
        diffs[p] = Mat(d.rows, d.cols, dom,
                       {**dict(d.items()), (row, 0): d.entry(row, 0) + 1})
        with pytest.raises(RuntimeError,
                           match=r"is nonzero \(%s\)" % cx.method_tag):
            CochainComplex(cx.method_tag, dom, cx.ranks, diffs, cx.labels)


@pytest.mark.parametrize("dom, a, b", [
    (GF(2), 1, 1), (GF(3), 1, 2), (QQ, Fraction(1, 2), -Fraction(1, 2)),
    (ZZ, 1, -1)], ids=repr)
def test_cancelling_raw_sums_store_nothing(dom, a, b):
    m = Mat(2, 3, dom, {(0, 0): a + b, (1, 2): a})
    assert m.nnz() == 1 and m.entry(0, 0) == 0 and m.entry(1, 2) == a
    # the d.d product accumulates raw sums the same way
    row = Mat.from_rows([[a, b]], dom)
    assert row.mul(Mat.from_rows([[1], [1]], dom)).is_zero()


@pytest.mark.parametrize("dom", RINGS, ids=repr)
@pytest.mark.parametrize("key", [(2, 0), (0, 3), (-1, 0), (0, -1)])
def test_raw_sums_out_of_range(dom, key):
    with pytest.raises(IndexError):
        Mat(2, 3, dom, {(0, 0): 1, key: 1})
    # from_columns takes its indices as given; a complex checks the rows
    # of its differentials, as the word builder's come from from_columns
    i, j = key
    if 0 <= j < 3:
        d = Mat.from_columns(2, 3, dom, [(0, {0: 1}), (j, {i: 1})])
        assert not d.rows_in_range()
        with pytest.raises(IndexError, match="differential 0 has a row"):
            CochainComplex("hand", dom, (3, 2), [d], [[]] * 2)
    assert Mat.from_columns(2, 3, dom, [(2, {1: 1})]).rows_in_range()


def test_constructor_normalizes_through_the_domain():
    # every value goes through domain.normalize, including raw sums
    with pytest.raises(ValueError):
        Mat(1, 1, ZZ, {(0, 0): Fraction(1, 2)})
    assert type(Mat(1, 1, ZZ, {(0, 0): Fraction(4, 2)}).entry(0, 0)) is int
    assert Mat(1, 1, GF(3), {(0, 0): Fraction(1, 2)}).entry(0, 0) == 2
    with pytest.raises(ZeroDivisionError):
        Mat(1, 1, GF(3), {(0, 0): Fraction(1, 3)})
    q = Mat(1, 2, QQ, {(0, 0): Fraction(1, 2) + Fraction(1, 2),
                       (0, 1): Fraction(1, 3)})
    assert type(q.entry(0, 0)) is int and q.entry(0, 1) == Fraction(1, 3)


def test_fibonacci_ranks_for_auxiliary_bimodule():
    A = catalog("S11", QQ)
    mp = sandwich_bimodule(A, [(1, 1)])
    cx = cibils_complex(A, M=mp, top_degree=12)
    fib = [1, 1]
    while len(fib) < 13:
        fib.append(fib[-1] + fib[-2])
    assert cx.ranks == tuple(fib)


# ---------------------------------------------------------------------------
# the 2-periodic complex for the Jordan-block family

def test_periodic_complex_j3_matrices():
    cx = jn_periodic_complex(catalog("J", ZZ, 3), top_degree=6)
    assert cx.ranks == (6,) * 7
    even = cx.diffs[0]
    assert dict(even.items()) == JORDAN3_COMMUTATOR
    assert smith_normal_form(even).invariant_factors == (1, 1, 1, 3)
    assert cx.diffs[1].is_zero()  # the norm map vanishes on the quotient
    assert cx.diffs[2] == even
    assert cx.method_tag == "jn_periodic"


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_periodic_complex_structure(n):
    cx = jn_periodic_complex(catalog("J", ZZ, n), top_degree=5)
    size = n * (n - 1)
    assert cx.ranks == (size,) * 6
    sf = smith_normal_form(cx.diffs[0])
    # rank (n-1)^2, all invariant factors 1 except a single factor n
    assert sf.invariant_factors == (1,) * ((n - 1) ** 2 - 1) + (n,)
    assert cx.diffs[1].is_zero()


def test_periodic_complex_field_domains():
    for dom in (QQ, GF(2), GF(3)):
        cx = jn_periodic_complex(catalog("J", dom, 3), top_degree=4)
        assert cx.ranks == (6,) * 5
        assert cx.dd_verified


# ---------------------------------------------------------------------------
# guardrails

def test_size_budget():
    A = catalog("S4", QQ)
    with pytest.raises(SizeBudgetExceeded):
        bar_complex(A, top_degree=5, budget=100)
    # reduced complex of the same algebra in the same budget is fine
    reduced_bar_complex(A, top_degree=5, budget=2000)
    # ranks come from word counts, so refusals walk no words: building the
    # labels alone would take millions of words here
    S11 = catalog("S11", QQ)
    with pytest.raises(SizeBudgetExceeded,
                       match=r"^cibils complex needs a cochain space of rank "
                             r"2692538 > budget 2000000$"):
        cibils_complex(S11, top_degree=29)
    with pytest.raises(SizeBudgetExceeded,
                       match=r"^bar complex needs a cochain space of rank "
                             r"4882812500 > budget 2000000$"):
        bar_complex(S11, top_degree=13)
    # M_n / A = 0 for full matrix algebras, so no word has coordinates and
    # none is walked (8^7 and 3^12 words of top length)
    M3 = catalog("M3", QQ).with_unit_first()
    M3_quotient = quotient_bimodule(M3)
    tracemalloc.start()
    try:
        cx = reduced_bar_complex(M3, M=M3_quotient, top_degree=7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cx.ranks == (0,) * 8 and cx.labels == ((),) * 8
    assert peak < 2 ** 20
    assert reduced_bar_complex(catalog("M2", QQ),
                               top_degree=12).ranks == (0,) * 13


@pytest.mark.parametrize("worst", [10 ** 5000, 2 ** 20000 - 1, 3 ** 10000],
                         ids=["10^5000", "2^20000-1", "3^10000"])
def test_size_budget_bounds_a_rank_too_long_to_print(worst):
    # past 4,300 digits int -> str conversion refuses, so the refusal names
    # a power of ten below the rank instead of failing itself
    with pytest.raises(SizeBudgetExceeded) as refusal:
        complexes._check_budget([1, worst, 2], 10, "bar")
    head, k = str(refusal.value).split(" > ")[0].split("10^")
    assert head == "bar complex needs a cochain space of rank more than "
    assert 10 ** int(k) < worst < 10 ** (int(k) + 2)


def test_word_complex_keeps_one_degree_of_tails():
    # -F^p, the products and right actions of d^p, is kept for one degree
    # at a time and not at all for the top degree: S11's reduced complex
    # over F2 to degree 7 (d^6 is 65,536 x 16,384), d.d included, keeps
    # about 11 MB and peaks at about 12.3 MB traced; keeping -F^6 as well
    # would peak at about 17.4 MB
    A = catalog("S11", GF(2)).with_unit_first()
    M = quotient_bimodule(A)
    tracemalloc.start()
    try:
        cx = reduced_bar_complex(A, M=M, top_degree=7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cx.ranks[6:] == (16384, 65536)
    assert peak <= 15 * 2 ** 20


@pytest.mark.parametrize("build, name, top", [
    (bar_complex, "S11", 6), (reduced_bar_complex, "S10", 7),
    (cibils_complex, "S11", 20)], ids=["bar", "reduced", "cibils"])
def test_budget_is_checked_before_any_word(monkeypatch, build, name, top):
    # the full complex holds 10^4 to 10^5 words; none exists at the check
    class Checked(Exception):
        pass

    def check(ranks, budget, tag):
        raise Checked(ranks)

    A = catalog(name, QQ)
    if build is reduced_bar_complex:
        A = A.with_unit_first()
    M = quotient_bimodule(A)
    monkeypatch.setattr(complexes, "_check_budget", check)
    tracemalloc.start()
    try:
        with pytest.raises(Checked) as checked:
            build(A, M=M, top_degree=top)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert max(checked.value.args[0]) > 10 ** 4
    assert peak < 2 ** 18


def _eager_labels(cx, letters, grading=None, comp=None):
    """The labels of a word complex, enumerated from scratch: degree by
    degree, the composable words in lexicographic order of letter
    positions, each followed by the coordinates of its block."""
    if grading is None:
        grading = dict.fromkeys(letters, (0, 0))
        comp = [(0, 0)] * cx.module.dim
    block_of = {}
    for q, st in enumerate(comp):
        block_of.setdefault(st, []).append(q)
    labels = [tuple(((), q) for q, (s, t) in enumerate(comp) if s == t)]
    words = [()]
    for p in range(1, cx.top_degree + 1):
        words = [w + (k,) for w in words for k in letters
                 if not w or grading[w[-1]][1] == grading[k][0]]
        labels.append(tuple(
            (w, q) for w in words
            for q in block_of.get((grading[w[0]][0], grading[w[-1]][1]), ())))
    return tuple(labels)


@pytest.mark.parametrize("name", ["S6", "S11", "N3", "B3", "S14", "N2xD1"])
def test_ranks_count_the_labels(name):
    # ranks are counted before any word is built; the labels, built on
    # first read, enumerate them in the order of an eager walk
    A = catalog(name, QQ)
    for build in BUILDERS:
        cx = build(A, top_degree=4)
        assert cx.ranks == tuple(len(lab) for lab in cx.labels)
        assert all(len(set(lab)) == len(lab) for lab in cx.labels)
        if build is bar_complex:
            want = _eager_labels(cx, range(A.dim))
        elif build is reduced_bar_complex:
            want = _eager_labels(cx, range(1, cx.algebra.dim))
        else:
            sp = detect_splitting(A)
            M = cx.module
            idem = [k for k in range(A.dim) if k not in sp.radical_indices]

            def block(mats, q):
                return next(t for t, e in enumerate(mats) if e.column(q))
            comp = [(block([M.left[k] for k in idem], q),
                     block([M.right[k] for k in idem], q))
                    for q in range(M.dim)]
            want = _eager_labels(cx, range(len(sp.radical_indices)),
                                 sp.bigrading, comp)
        assert cx.labels == want


def test_pipeline_builds_no_labels():
    # the differentials and their ranks never read a label, so none is built
    A = catalog("S11", GF(2))
    cx = reduced_bar_complex(A, top_degree=6)
    compute_cohomology(cx)
    assert "labels" not in vars(cx)
    assert cx.labels[1][0] == ((1,), 0) and "labels" in vars(cx)


def test_reduced_needs_unit_first_basis():
    A = catalog("S11", QQ)  # first basis vector is E11+E33, not I
    with pytest.raises(AlgebraError):
        reduced_bar_complex(A, M=quotient_bimodule(A), top_degree=2)
    A1 = A.with_unit_first()
    cx = reduced_bar_complex(A1, M=quotient_bimodule(A1), top_degree=2)
    assert cx.ranks == (4, 16, 64)
    # with M omitted the constructor re-bases internally
    cx2 = reduced_bar_complex(A, top_degree=2)
    assert cx2.ranks == (4, 16, 64)


def test_cibils_rejects_unadapted_bimodule():
    A = catalog("D2", QQ)
    # basis {E12 + E21, E12 - E21} straddles the idempotent bigrading
    half = Fraction(1, 2)
    left = [Mat.from_rows([[half, half], [half, half]], QQ),
            Mat.from_rows([[half, -half], [-half, half]], QQ)]
    right = [Mat.from_rows([[half, -half], [-half, half]], QQ),
             Mat.from_rows([[half, half], [half, half]], QQ)]
    bad = Bimodule(A, ("mix1", "mix2"), left, right, name="mixed")
    with pytest.raises(AlgebraError):
        cibils_complex(A, M=bad, top_degree=2)


def test_cibils_rejects_inconsistent_splitting():
    A = catalog("S11", QQ)
    sp = detect_splitting(A)
    flipped = copy.copy(sp)
    flipped.bigrading = tuple((u, t) for t, u in sp.bigrading)
    off_block = copy.copy(sp)
    ones = dict.fromkeys(range(len(sp.radical)), 1)
    off_block.radical_products = {**sp.radical_products, (0, 0): ones}
    # S14's radical letters multiply to zero, so only their action can
    # show that letter 0 does not start in block 1
    A14 = catalog("S14", QQ)
    moved = copy.copy(detect_splitting(A14))
    assert moved.bigrading[0] == (0, 2)
    moved.bigrading = ((1, 2),) + moved.bigrading[1:]
    for alg, bad in ((A, flipped), (A, off_block), (A14, moved)):
        with pytest.raises(AlgebraError, match="splitting data is inconsistent"):
            cibils_complex(alg, splitting=bad, top_degree=3)


def test_degree_overflow():
    A = catalog("N2", QQ)
    bm, pairing = regular_bimodule(A)
    cx = bar_complex(A, M=bm, top_degree=2)
    f = Cochain.zero(cx, 2)
    with pytest.raises(DegreeOverflow):
        apply_d(f)
    with pytest.raises(DegreeOverflow):
        cup_product(f, f, pairing, cx)  # degree 4 > top degree 2


# ---------------------------------------------------------------------------
# cup products

def _random_cochain(cx, degree, rng):
    return Cochain(cx, degree,
                   tuple(Fraction(rng.randint(-2, 2))
                         for _ in range(cx.ranks[degree])))


@pytest.mark.parametrize("name", ["B2", "N2"])
def test_leibniz_rule(name):
    A = catalog(name, QQ)
    bm, pairing = regular_bimodule(A)
    cx = bar_complex(A, M=bm, top_degree=4)
    rng = random.Random(hash(name) & 0xFFFF)
    for _ in range(20):
        p, q = rng.randint(0, 1), rng.randint(0, 2)
        f = _random_cochain(cx, p, rng)
        g = _random_cochain(cx, q, rng)
        lhs = apply_d(cup_product(f, g, pairing, cx))
        rhs = cup_product(apply_d(f), g, pairing, cx).add(
            cup_product(f, apply_d(g), pairing, cx).scale(
                (-1) ** p))
        assert lhs == rhs


def test_n3_cup_identity():
    # two degree-1 classes whose product is a coboundary, exactly
    for dom in (QQ, GF(2), GF(5)):
        A = catalog("N3", dom)
        T, pairing = ideal_quotient_bimodule(A, [1, 2, 3])
        for build in (bar_complex, reduced_bar_complex):
            cx = build(A, M=T, top_degree=3)
            U = Cochain.from_values(cx, 1, {((1,), 0): 1})
            V = Cochain.from_values(cx, 1, {((3,), 0): 1})
            W = Cochain.from_values(cx, 1, {((2,), 0): 1})
            cup = cup_product(U, V, pairing, cx)
            assert cup.add(apply_d(W)).is_zero()
            assert not cup.is_zero()


def test_cup_requires_bar_like_complex():
    A = catalog("N2", QQ)
    _, pairing = regular_bimodule(A)
    cxc = cibils_complex(A, top_degree=3)
    f = Cochain.zero(cxc, 1)
    with pytest.raises(ValueError):
        cup_product(f, f, pairing, cxc)


def test_cochain_arithmetic():
    cx = bar_complex(catalog("N2", QQ), top_degree=3)
    f = Cochain.from_values(cx, 1, {((1,), 0): 2})
    g = f.scale(3)
    assert g.value(((1,), 0)) == 6
    assert f.add(f) == f.scale(2)
    assert Cochain.zero(cx, 1).is_zero()


# ---------------------------------------------------------------------------
# the generator top: C^T keeps the words that begin with a generator

GENERATOR_ALGEBRAS = ALL_NAMES + ("B4", "B5", "B6", "B7", "D7", "J4", "J5",
                                  "P22", "P33")


def _cibils_of(A, **kw):
    B, sp = _cibils_target(A)
    return cibils_complex(B, splitting=sp, **kw)


def _alphabet(cx):
    """{letter: matrix} of a word complex, and whether the unit counts."""
    B = cx.algebra
    if cx.method_tag == "cibils":
        return dict(enumerate(detect_splitting(B).radical)), False
    first = cx.method_tag == "reduced"
    return {k: b for k, b in enumerate(B.basis) if k >= first}, first


def _words_span(cx):
    """Whether the words in cx.generators, with the unit for reduced, span
    the alphabet: an echelon closure under appending a generator."""
    letters, unit = _alphabet(cx)
    n = cx.algebra.n
    ech = Echelon(QQ if cx.domain == ZZ else cx.domain)

    def flat(m):
        return {i * n + j: v for (i, j), v in m.items()}
    if unit:
        ech.add(flat(Mat.identity(n, cx.domain)))
    todo = [letters[g] for g in cx.generators if ech.add(flat(letters[g]))]
    while todo:
        w = todo.pop()
        for g in cx.generators:
            x = w.mul(letters[g])
            if ech.add(flat(x)):
                todo.append(x)
    return not any(ech.add(flat(b)) for b in letters.values())


def _fitting_top(build, A, cap=3000):
    """The full complex at the largest T <= 3 whose ranks stay within cap."""
    for T in (3, 2):
        try:
            return build(A, top_degree=T, budget=cap)
        except SizeBudgetExceeded:
            pass
    return build(A, top_degree=1)


def _check_generator_top(full, gen):
    T = full.top_degree
    assert gen.top_degree == T and gen.ranks[:T] == full.ranks[:T]
    assert gen.diffs[:T - 1] == full.diffs[:T - 1]
    assert len(gen.labels[T]) == gen.ranks[T]
    assert all(w[0] in gen.generators for w, _ in gen.labels[T])
    assert _words_span(gen)
    # d^{T-1} is the full one on the rows that begin with a generator
    at = full.col_index(T)
    row = {at[lab]: i for i, lab in enumerate(gen.labels[T])}
    assert {(row[r], c): v for (r, c), v in full.diffs[T - 1].items()
            if r in row} == dict(gen.diffs[T - 1].items())
    assert gen.ranks[T] == sum(full.labels[T][r][0][0] in gen.generators
                               for r in range(full.ranks[T]))

    def over_q(d):
        return d.change_domain(QQ) if d.domain == ZZ else d
    assert kernel_basis(over_q(gen.diffs[T - 1])) == \
        kernel_basis(over_q(full.diffs[T - 1]))
    for degrees in (range(T), [T - 1], [1, T - 1] if T > 1 else [0]):
        assert compute_cohomology(gen, degrees).records == \
            compute_cohomology(full, degrees).records, degrees


@pytest.mark.parametrize("dom", RINGS, ids=repr)
@pytest.mark.parametrize("name", GENERATOR_ALGEBRAS)
def test_generator_top_keeps_the_top_kernel(name, dom):
    A = catalog(name, dom)
    for build in BUILDERS[:2] + [_cibils_of]:
        full = _fitting_top(build, A)
        assert full.generators == tuple(_alphabet(full)[0])
        _check_generator_top(full, build(A, top_degree=full.top_degree,
                                         generator_top=True))


def _seeded_conjugate(A, seed):
    """P A P^-1, P a product of 3n factors I + c E_ij drawn from the seed."""
    rng, n, dom = random.Random(seed), A.n, A.domain
    P = Mat.identity(n, dom)
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        E = dict(Mat.identity(n, dom).items())
        E[i, j] = rng.choice((1, -1, 2))
        P = P.mul(Mat(n, n, dom, E))
    return conjugate_algebra(A, P)


@pytest.mark.parametrize("dom", RINGS, ids=repr)
@pytest.mark.parametrize("name", ["S11", "N3", "J4", "B4", "S6", "P21"])
def test_generator_top_on_conjugates(name, dom):
    # products with several letters in them, with coefficients in A itself
    # and, over a field, in M_n/A (over Z its lattice is mostly refused)
    C = _seeded_conjugate(catalog(name, dom), 1)
    for build, B in ((bar_complex, C), (reduced_bar_complex,
                                        C.with_unit_first())):
        modules = [regular_bimodule(B)[0]]
        if dom.is_field:
            modules.append(quotient_bimodule(B))
        for M in modules:
            full = _fitting_top(partial(build, M=M), B)
            _check_generator_top(full, build(B, M=M,
                                             top_degree=full.top_degree,
                                             generator_top=True))


@pytest.mark.parametrize("name, build, letters, gens", [
    ("B7", bar_complex, 28, 13), ("J7", bar_complex, 7, 2),
    ("D7", bar_complex, 7, 7), ("J5", reduced_bar_complex, 4, 1),
    ("S11", reduced_bar_complex, 4, 3), ("N3", reduced_bar_complex, 3, 2)])
def test_generator_counts(name, build, letters, gens):
    A = catalog(name, QQ)
    assert len(build(A, top_degree=1).generators) == letters
    assert len(build(A, top_degree=1, generator_top=True).generators) == gens


def test_generator_top_is_an_option():
    A = catalog("N3", QQ)
    assert bar_complex(A, top_degree=2).ranks == (5, 20, 80)
    cx = bar_complex(A, top_degree=2, generator_top=True)
    assert cx.ranks == (5, 20, 60) and cx.generators == (0, 1, 3)

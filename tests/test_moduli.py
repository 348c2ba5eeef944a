"""Normalizers, tangent spaces, and the smoothness/open-orbit certificates."""

import pytest

from hochschild.algebra import (catalog, conjugate_algebra, quotient_bimodule,
                                regular_bimodule, verify_subalgebra)
from hochschild.cohomology import cohomology_of
from hochschild.complexes import SizeBudgetExceeded, bar_complex
from hochschild.exactla import GF, QQ, ZZ, Mat, kernel_basis, rank
from hochschild.moduli import (INCONCLUSIVE, YES, ModuliReport, certificates,
                               derivation_space, moduli_report, normalizer,
                               normalizer_dim, tangent_dimension)

from _posets import RP2
from _tabledata import (ALL_NAMES, TANGENT, field_dims,
                        normalizer_dim as table_normalizer_dim)


# ---------------------------------------------------------------------------
# normalizer examples

@pytest.mark.parametrize("name,dom,want", [
    ("M3", QQ, 9),
    ("J3", QQ, 5),
    ("J3", GF(3), 6),
    ("C3", QQ, 9),
    ("M2", ZZ, 4),
    ("N2", ZZ, 3),
])
def test_normalizer_dims(name, dom, want):
    basis, dim = normalizer(catalog(name, dom))
    assert dim == want
    assert len(basis) == dim
    assert normalizer_dim(catalog(name, dom)) == want


def _stack_flat(mats, n):
    entries = {}
    for r, m in enumerate(mats):
        for (i, j), v in m.items():
            entries[(r, i * n + j)] = v
    return Mat(len(mats), n * n, QQ, entries)


def _commutator_normalizer(A):
    """N(A) from the explicit system proj([X, a_i]) = 0, with one
    n^2 x n^2 commutator matrix per basis element, as kernel vectors."""
    n, dom = A.n, A.domain
    proj = quotient_bimodule(A).proj
    m = proj.rows
    stacked = {}
    for i, a in enumerate(A.basis):
        # [X, a](r, c) = sum_s X(r, s) a(s, c) - sum_s a(r, s) X(s, c)
        K = {}
        for (s, c), v in a.items():
            for r in range(n):
                K[(r * n + c, r * n + s)] = K.get((r * n + c, r * n + s),
                                                  0) + v
        for (r, s), v in a.items():
            for c in range(n):
                K[(r * n + c, s * n + c)] = K.get((r * n + c, s * n + c),
                                                  0) - v
        for (rr, cc), v in proj.mul(Mat(n * n, n * n, dom, K)).items():
            stacked[(i * m + rr, cc)] = v
    return kernel_basis(Mat(A.dim * m, n * n, dom, stacked))


@pytest.mark.parametrize("dom", [QQ, GF(2), GF(3), ZZ], ids=repr)
def test_normalizer_matches_the_commutator_system(dom):
    # normalizer reads [X, a] mod A from the quotient's actions instead
    algebras = [catalog(name, dom) for name in ALL_NAMES + ("B5", "P22")]
    algebras += [conjugate_algebra(catalog(name, dom), P) for name, P in (
        ("S11", [[1, 2, 0], [0, 1, 3], [0, 0, 1]]),
        ("B3", [[1, 0, 0], [1, 1, 0], [2, 1, 1]]))]
    for A in algebras:
        n = A.n
        basis, dim = normalizer(A)
        assert [tuple(b.entry(r, c) for r in range(n) for c in range(n))
                for b in basis] == _commutator_normalizer(A), A
        assert dim == len(basis)


def test_normalizer_contains_algebra():
    for name in ("B3", "S6", "J3", "S11"):
        A = catalog(name, QQ)
        basis, dim = normalizer(A)
        base_rank = rank(_stack_flat(basis, A.n))
        assert base_rank == dim
        for a in A.basis:
            assert rank(_stack_flat(basis + [a], A.n)) == base_rank


def test_normalizer_against_tables():
    for name in ALL_NAMES:
        for dom, char in ((QQ, 0), (GF(2), 2), (GF(3), 3)):
            assert normalizer_dim(catalog(name, dom)) == \
                table_normalizer_dim(name, char), (name, char)


@pytest.mark.parametrize("dom", [QQ, GF(2), ZZ])
def test_normalizer_of_projective_plane_incidence_algebra(dom):
    # the face poset of the 6-vertex RP^2: n = 31, d = 121, a stacked
    # system of 101,640 x 961 that must never be densified
    n, leq = RP2
    A = verify_subalgebra(n, dom, [Mat(n, n, dom, {xy: 1}) for xy in leq])
    basis, dim = normalizer(A)
    assert dim == len(basis) == A.dim == 121
    h0 = cohomology_of(A, degrees=[0])[0]
    assert dim - A.dim == h0.get("dim", h0.get("free_rank"))


def test_normalizer_and_tangent_of_b10_agree_over_z_and_q():
    # over Z the normalizer is a saturated lattice of the same rank
    over = {dom: catalog("B10", dom) for dom in (QQ, ZZ)}
    assert normalizer_dim(over[ZZ]) == normalizer_dim(over[QQ]) == 55
    assert tangent_dimension(over[ZZ]) == tangent_dimension(over[QQ])


# ---------------------------------------------------------------------------
# derivations and tangent dimensions

@pytest.mark.parametrize("name,want", [("M3", 0), ("B3", 3), ("S4", 8)])
def test_derivation_dims(name, want):
    assert derivation_space(catalog(name, QQ)) == want


@pytest.mark.parametrize("dom", [QQ, GF(2), ZZ], ids=repr)
def test_derivations_read_the_generator_top(dom):
    # derivation_space ranks d^1 on the rows that begin with a generator;
    # the full d^1 has the same rank, whatever the coefficients
    for name in ("B4", "J4", "S11", "N3", "P21", "M2"):
        A = catalog(name, dom)
        for M in (None, regular_bimodule(A)[0]):
            full = bar_complex(A, M=M, top_degree=2)
            d1 = full.diffs[1]
            want = full.ranks[1] - rank(d1.change_domain(QQ)
                                        if dom == ZZ else d1)
            assert derivation_space(A, M) == want, (name, M)


@pytest.mark.parametrize("name,want", [
    ("C3", 0), ("J3", 6), ("B2", 1), ("S7", 2),
])
def test_tangent_dims(name, want):
    assert tangent_dimension(catalog(name, QQ)) == want


def test_tangent_against_tables():
    for name in ALL_NAMES:
        assert tangent_dimension(catalog(name, QQ)) == TANGENT[name], name


def test_tangent_law_holds():
    # tangent = h^1 + n^2 - normalizer_dim, cross-checked internally
    # against the derivation-space computation by tangent_dimension itself
    for name in ("S2", "S13", "N3", "D3", "M2xD1"):
        for dom, char in ((QQ, 0), (GF(2), 2), (GF(3), 3)):
            A = catalog(name, dom)
            h1 = field_dims(name, char)[1]
            assert tangent_dimension(A) == h1 + A.n * A.n - normalizer_dim(A)


# ---------------------------------------------------------------------------
# certificates

def test_certificates_positive():
    for name in ("B3", "S7", "B2", "M3"):
        assert certificates(catalog(name, QQ)) == (YES, YES)


def test_certificates_inconclusive():
    assert certificates(catalog("J3", QQ)) == (INCONCLUSIVE, INCONCLUSIVE)
    rep = moduli_report(catalog("J3", QQ))
    assert rep.caveat is not None
    assert "sufficient but not necessary" in rep.caveat


def test_certificates_mixed():
    # H^1 = 1 blocks the open-orbit certificate; H^2 = 0 still gives
    # smoothness
    assert certificates(catalog("S11", QQ)) == (YES, INCONCLUSIVE)
    assert moduli_report(catalog("S11", QQ)).caveat is None


def test_certificates_never_say_no():
    for name in ALL_NAMES:
        smooth, orbit = certificates(catalog(name, QQ))
        assert smooth in (YES, INCONCLUSIVE)
        assert orbit in (YES, INCONCLUSIVE)


# ---------------------------------------------------------------------------
# full reports

def test_moduli_report_fields():
    rep = moduli_report(catalog("J3", QQ))
    assert isinstance(rep, ModuliReport)
    assert rep.normalizer_dim == 5
    assert len(rep.normalizer_basis) == 5
    assert rep.derivation_dim == 6
    assert rep.tangent_dim == 6
    assert (rep.h0["dim"], rep.h1["dim"], rep.h2["dim"]) == (2, 2, 2)
    assert rep.smooth_certificate == INCONCLUSIVE
    assert rep.orbit_open_certificate == INCONCLUSIVE
    assert rep.caveat is not None
    assert rep.method_tag == "jn_periodic"
    d = rep.to_dict()
    assert d["normalizer_dim"] == 5 and d["tangent_dim"] == 6
    assert d["smooth"] == INCONCLUSIVE and "caveat" in d
    assert "N=5" in repr(rep)


def test_h0_identity_full_catalog():
    # dim H^0 always equals normalizer_dim - algebra dim
    for name in ALL_NAMES:
        for dom, char in ((QQ, 0), (GF(2), 2), (GF(3), 3)):
            A = catalog(name, dom)
            h0 = field_dims(name, char)[0]
            assert normalizer_dim(A) - A.dim == h0, (name, char)


def test_reports_over_z():
    rep = moduli_report(catalog("J3", ZZ))
    assert rep.normalizer_dim == 5
    assert rep.tangent_dim == 6  # free ranks reproduce the rational fiber
    assert rep.h1["free_rank"] == 2 and rep.h1["torsion"] == (3,)
    assert rep.smooth_certificate == INCONCLUSIVE

    rep = moduli_report(catalog("B2", ZZ))
    assert rep.smooth_certificate == YES
    assert rep.orbit_open_certificate == YES

    assert normalizer_dim(catalog("N2", ZZ)) == 3


def test_budget_threads_through():
    with pytest.raises(SizeBudgetExceeded):
        derivation_space(catalog("S4", QQ), budget=3)
    with pytest.raises(SizeBudgetExceeded):
        moduli_report(catalog("S4", QQ), budget=3)
    # a request for more degrees still leaves the derivation check bounded
    A = catalog("S4", QQ)
    with pytest.raises(SizeBudgetExceeded):
        moduli_report(A, budget=3, degrees=range(4))


@pytest.mark.parametrize("name,dom", [("J3", ZZ), ("S11", QQ), ("M2", GF(2)),
                                      ("N3", GF(3))])
def test_moduli_report_reuses_a_full_result(name, dom):
    # the report reads H^0..H^2 from its one cohomology result, which holds
    # every degree asked for
    A = catalog(name, dom)
    rep = moduli_report(A, degrees=range(4))
    assert rep.cohomology.degrees == (0, 1, 2, 3)
    assert rep.h0 is rep.cohomology[0] and rep.h2 is rep.cohomology[2]
    assert rep.to_dict() == moduli_report(A).to_dict()

"""Deformation-theoretic quantities attached to a matrix subalgebra.

For a d-dimensional subalgebra A of the n-by-n matrices this module
computes:

- the normalizer N(A) = { X : [X, a] lies in A for every a in A }, the
  kernel of d^0 of the bar complex on M_n/A lifted through its projection;
- the derivations A -> M_n/A, the 1-cocycles of the same complex (the
  report reads both from one bar complex to degree 2, under its budget);
  that complex has its generator top (`complexes`): d^1 keeps only the
  rows that begin with a generator g, since the a on which a map obeys
  the Leibniz rule form a subalgebra; `normalizer` alone stops at degree
  1, where X is in N(A) exactly when [X, g] lies in A for each g;
- the tangent dimension  dim H^1 + n^2 - dim N(A), cross-checked
  against the derivation dimension;
- two one-sided certificates: H^2 = 0 certifies smoothness of the
  deformation problem at A, and H^1 = 0 certifies that the conjugation
  orbit of A is open.  Nonvanishing proves nothing, so the negative
  answer is reported as "inconclusive", never "no".

`moduli_report` builds the bar complex first, then H^p by the chosen method
once, for the asked degrees and 0..2, and keeps that result on the report:

>>> from hochschild import QQ, catalog
>>> rep = moduli_report(catalog("N3", QQ), degrees=range(4))
>>> rep.cohomology.dims(), rep.normalizer_dim, rep.tangent_dim
((2, 2, 3, 4), 6, 5)
>>> rep.h2 is rep.cohomology[2]
True
"""

from .cohomology import cohomology_of
from .complexes import DEFAULT_SIZE_BUDGET, bar_complex
from .exactla import QQ, ZZ, Mat, kernel_basis, rank

YES = "yes"
INCONCLUSIVE = "inconclusive"

_SMOOTH_CAVEAT = (
    "H^2 is nonzero, so the smoothness test is inconclusive: the "
    "vanishing criterion is sufficient but not necessary, and the "
    "deformation problem may still be smooth at this point.")


def _normalizer(cx):
    """N(A) as n x n matrices from a bar complex on M_n/A: d^0 proj(X)
    lists [a, X] mod A over the basis a, so N(A) is its kernel."""
    n, dom = cx.algebra.n, cx.domain
    vecs = kernel_basis(cx.diffs[0].mul(cx.module.proj))
    return [Mat(n, n, dom, {(r, c): vec[r * n + c]
                            for r in range(n) for c in range(n)})
            for vec in vecs]


def _derivations(cx):
    """dim Der(A, M) = dim Z^1 of a bar complex, over Q for an integer one."""
    d1 = cx.diffs[1]
    return cx.ranks[1] - rank(d1.change_domain(QQ) if cx.domain == ZZ else d1)


def normalizer(A):
    """Basis and dimension of N(A) = { X : [X, a] in span(A) for all a }.

    N(A) is the kernel of d^0 proj, d^0 being the first differential of
    the bar complex on M_n/A, whose ranks m and d m stay within the budget
    d n^2.  Over a field the dimension is its kernel dimension; over the
    integers the same system is solved with a saturated integer kernel
    basis, so the count is the rank of N(A) as a lattice (which equals the
    rational dimension).  The returned basis always spans a space
    containing A itself.
    """
    basis = _normalizer(bar_complex(A, top_degree=1, generator_top=True,
                                    budget=A.dim * A.n * A.n))
    return basis, len(basis)


def normalizer_dim(A):
    return normalizer(A)[1]


def derivation_space(A, M=None, budget=DEFAULT_SIZE_BUDGET):
    """Dimension of the derivations A -> M (default M = M_n/A).

    These are exactly the 1-cocycles of the bar complex, so the count
    is rank C^1 minus rank of the degree-1 differential.
    """
    return _derivations(bar_complex(A, M=M, top_degree=2, budget=budget,
                                    generator_top=True))


def _h_dim(record):
    """Field dimension, or free rank over the integers."""
    return record["dim"] if "dim" in record else record["free_rank"]


def _h_is_zero(record):
    if "dim" in record:
        return record["dim"] == 0
    return record["free_rank"] == 0 and not record["torsion"]


def tangent_dimension(A, budget=DEFAULT_SIZE_BUDGET):
    """dim H^1 + n^2 - dim N(A), checked by the moduli report."""
    return moduli_report(A, budget=budget).tangent_dim


def certificates(A, method="auto", budget=DEFAULT_SIZE_BUDGET):
    """(smooth_certificate, orbit_open_certificate), each yes|inconclusive."""
    res = cohomology_of(A, method=method, degrees=[1, 2], budget=budget)
    smooth = YES if _h_is_zero(res[2]) else INCONCLUSIVE
    orbit = YES if _h_is_zero(res[1]) else INCONCLUSIVE
    return smooth, orbit


class ModuliReport:
    """Bundle of normalizer, cohomology (h0..h2 read from `cohomology`)
    and certificates."""

    __slots__ = ("normalizer_dim", "normalizer_basis", "derivation_dim",
                 "h0", "h1", "h2", "tangent_dim", "smooth_certificate",
                 "orbit_open_certificate", "caveat", "method_tag",
                 "cohomology")

    def __init__(self, **kw):
        for k in self.__slots__:
            setattr(self, k, kw[k])

    def to_dict(self):
        return {
            "normalizer_dim": self.normalizer_dim,
            "h0": dict(self.h0),
            "h1": dict(self.h1),
            "h2": dict(self.h2),
            "tangent_dim": self.tangent_dim,
            "smooth": self.smooth_certificate,
            "orbit_open": self.orbit_open_certificate,
            **({"caveat": self.caveat} if self.caveat else {}),
        }

    def __repr__(self):
        return ("ModuliReport(N=%d, tangent=%d, smooth=%s, orbit_open=%s)"
                % (self.normalizer_dim, self.tangent_dim,
                   self.smooth_certificate, self.orbit_open_certificate))


def moduli_report(A, method="auto", budget=DEFAULT_SIZE_BUDGET,
                  degrees=(0, 1, 2)):
    """Full report at A, with H^p by `method` for `degrees` and 0..2 on
    report.cohomology.  The bar complex to degree 2 (ranks d^p (n^2 - d),
    no splitting needed) is built first, so its refusal precedes any other
    work.  Over the integers the dimension formulas use free ranks (the
    saturated kernels make them agree with the rational fiber), while the
    certificates demand full vanishing including torsion."""
    cx = bar_complex(A, top_degree=2, budget=budget, generator_top=True)
    res = cohomology_of(A, method=method, degrees={0, 1, 2}.union(degrees),
                        budget=budget)
    h0, h1, h2 = res[0], res[1], res[2]
    basis = _normalizer(cx)
    ndim = len(basis)
    if _h_dim(h0) != ndim - A.dim:
        raise RuntimeError(
            "internal check failed: dim H^0 = %d but dim N(A) - d = %d"
            % (_h_dim(h0), ndim - A.dim))
    tangent = _h_dim(h1) + A.n * A.n - ndim
    der = _derivations(cx)
    if der != tangent:
        raise RuntimeError(
            "internal check failed: derivation dimension %d != tangent "
            "dimension %d" % (der, tangent))
    smooth = YES if _h_is_zero(h2) else INCONCLUSIVE
    orbit = YES if _h_is_zero(h1) else INCONCLUSIVE
    return ModuliReport(
        normalizer_dim=ndim,
        normalizer_basis=tuple(basis),
        derivation_dim=tangent,
        h0=h0, h1=h1, h2=h2,
        tangent_dim=tangent,
        smooth_certificate=smooth,
        orbit_open_certificate=orbit,
        caveat=_SMOOTH_CAVEAT if smooth == INCONCLUSIVE else None,
        method_tag=res.method_tag,
        cohomology=res,
    )

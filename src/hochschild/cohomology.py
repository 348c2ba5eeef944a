"""Cohomology extraction: H^p = ker d^p / im d^{p-1} from a cochain complex.

Over a field (Q or F_p) the answer per degree is a dimension, computed
from two differential ranks; each differential is ranked once.  Over the
integers each differential gets one Smith normal form, and both numbers
come from it: the rank of d^q is its number of invariant factors, so the
free rank of H^p is ranks[p] - rank d^p - rank d^{p-1}, and since kernels
of integer matrices are saturated, the nonunit invariant factors of
d^{p-1} are exactly the torsion invariants of H^p.

Differentials are eliminated in increasing degree, and each is cleared by
the one below (Chen and Kerber 2011; Kaczynski, Mrozek and Slusarek 1998):
the pivot vectors of d^{q-1} lie in im d^{q-1}, inside ker d^q, and are
triangular on their pivot positions, so with the unit vectors at the other
positions they form a basis of C^q on which d^q vanishes at the pivot
vectors.  The rank of d^q is then the rank of its columns off those
positions.  Over Z the basis must be unimodular, so only the +-1 pivots
clear, never those of the dense core, and the Smith form of the kept
columns is that of d^q up to zeros.  A differential whose lower neighbour
is not eliminated in the request is not cleared.

The cibils complex runs on a validated splitting supplied with A, else on
A when A splits, and otherwise on a basic corner eAe with AeA = A
(`algebra.morita_corner`): Hochschild cohomology is Morita invariant,
H^*(A, M) = H^*(eAe, eMe) (Loday, Cyclic Homology, 1.2), and e(M_n/A)e is
the canonical quotient of the corner.
"""

from .algebra import AlgebraError, NotSplit, detect_splitting, morita_corner
from .complexes import (DEFAULT_SIZE_BUDGET, bar_complex, cibils_complex,
                        jn_periodic_complex, reduced_bar_complex)
from .exactla import ZZ, rank, smith_normal_form


class DegreeOutOfRange(ValueError):
    pass


class CohomologyResult:
    """Per-degree cohomology data plus the method that produced it."""

    def __init__(self, domain, method_tag, records):
        self.domain = domain
        self.method_tag = method_tag
        self.records = tuple(records)  # dicts with "degree" and data keys
        self._by_degree = {r["degree"]: r for r in self.records}

    @property
    def degrees(self):
        return tuple(r["degree"] for r in self.records)

    def dims(self):
        return tuple(r["dim"] for r in self.records)

    def free_ranks(self):
        return tuple(r["free_rank"] for r in self.records)

    def torsions(self):
        return tuple(tuple(r["torsion"]) for r in self.records)

    def __getitem__(self, degree):
        return self._by_degree[degree]

    def __repr__(self):
        if self.domain == ZZ:
            body = ", ".join("H^%d=Z^%d%s" % (
                r["degree"], r["free_rank"],
                "+" + "+".join("Z/%d" % t for t in r["torsion"])
                if r["torsion"] else "") for r in self.records)
        else:
            body = ", ".join("h^%d=%d" % (r["degree"], r["dim"])
                             for r in self.records)
        return "CohomologyResult(%s; %s)" % (self.method_tag, body)


def _sorted_degrees(degrees):
    degs = sorted(set(int(p) for p in degrees))
    if not degs:
        raise DegreeOutOfRange("no degrees requested")
    if degs[0] < 0:
        raise DegreeOutOfRange("negative degree %d" % degs[0])
    return degs


def _normalize_degrees(cx, degrees):
    degs = _sorted_degrees(degrees)
    if degs[-1] > cx.top_degree - 1:
        raise DegreeOutOfRange(
            "degree %d needs d^%d, but the complex only carries degrees "
            "0..%d" % (degs[-1], degs[-1], cx.top_degree - 1))
    return degs


def compute_cohomology(cx, degrees=None):
    """CohomologyResult for the requested degrees (default 0..D-1); each
    differential they read is eliminated once, cleared by the one below
    when that one is eliminated too."""
    if degrees is None:
        degrees = range(cx.top_degree)
    degs = _normalize_degrees(cx, degrees)
    dom = cx.domain
    if dom.is_field:
        eliminate = rank
    elif dom == ZZ:
        def eliminate(d, skip, pivots):
            return smith_normal_form(d, skip, pivots).invariant_factors
    else:
        raise TypeError("unsupported coefficient domain %r" % (dom,))
    out, pivots = {-1: 0 if dom.is_field else ()}, []
    for q in sorted({q for p in degs for q in (p - 1, p) if q >= 0}):
        skip, pivots = (pivots if q - 1 in out else ()), []
        out[q] = eliminate(cx.diffs[q], skip, pivots)
    if dom.is_field:
        records = [{"degree": p, "dim": cx.ranks[p] - out[p] - out[p - 1]}
                   for p in degs]
    else:
        records = [{"degree": p,
                    "free_rank": cx.ranks[p] - len(out[p]) - len(out[p - 1]),
                    "torsion": tuple(f for f in out[p - 1] if f != 1)}
                   for p in degs]
    return CohomologyResult(dom, cx.method_tag, records)


def _cibils_target(A):
    """(algebra, splitting) for cibils: A's validated split re-basing, else
    A, else its basic corner eAe; or A's NotSplit."""
    if A._split is not None:
        return A._split
    try:
        return A, detect_splitting(A)
    except NotSplit as refusal:
        try:
            B = morita_corner(A)
            return B, detect_splitting(B)
        except AlgebraError:
            raise refusal from None


def pick_method(A):
    """(method, cibils target or None): jn > cibils on A or on its basic
    corner > reduced."""
    fam = A.meta.get("family")
    if fam and fam[0] == "J":
        return "jn", None
    try:
        return "cibils", _cibils_target(A)
    except NotSplit:
        return "reduced", None


def cohomology_of(A, method="auto", degrees=range(0, 5),
                  budget=DEFAULT_SIZE_BUDGET):
    """Cohomology of A with coefficients in the canonical quotient bimodule.

    method: auto | bar | reduced | cibils | jn.  Returns a CohomologyResult
    whose method_tag names the complex actually used; the built complex is
    attached as result.complex, a word complex with its generator top.
    """
    degs = _sorted_degrees(degrees)
    need_top = degs[-1] + 1
    target = None
    if method == "auto":
        method, target = pick_method(A)
    if method == "jn":
        cx = jn_periodic_complex(A, top_degree=need_top, budget=budget)
    elif method == "cibils":
        B, sp = target or _cibils_target(A)
        cx = cibils_complex(B, splitting=sp, top_degree=need_top,
                            budget=budget, generator_top=True)
    elif method == "reduced":
        cx = reduced_bar_complex(A, top_degree=need_top, budget=budget,
                                 generator_top=True)
    elif method == "bar":
        cx = bar_complex(A, top_degree=need_top, budget=budget,
                         generator_top=True)
    else:
        raise ValueError("unknown method %r" % (method,))
    result = compute_cohomology(cx, degs)
    result.complex = cx
    return result

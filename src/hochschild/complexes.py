"""Finite truncations of Hochschild cochain complexes with exact matrices.

Four constructions, sharing one convention (H^p = ker d^p / im d^{p-1},
d^{-1} = 0):

    bar_complex          C^p = Hom(A^{tensor p}, M), rank d^p * m
    reduced_bar_complex  letters range over a complement of the unit line;
                         rank (d-1)^p * m
    cibils_complex       for algebras split into diagonal 0/1 idempotents
                         plus a bigraded nilpotent radical: words are
                         composable radical letters and coefficients sit in
                         the matching block of the bimodule
    jn_periodic_complex  the 2-periodic complex for the truncated
                         polynomial algebra embedded as a Jordan block:
                         commutator map in even degrees, norm map (zero on
                         the canonical quotient) in odd degrees

Every constructor verifies d(p+1) . d(p) = 0 by exact multiplication and
enforces a size budget on cochain ranks.  The cup product is provided for
bar/reduced cochains with an explicit coefficient pairing.
"""

import itertools

from .algebra import (AlgebraError, _bimodule_from_units, catalog,
                      detect_splitting, quotient_bimodule)
from .exactla import Mat

DEFAULT_SIZE_BUDGET = 2_000_000
DEFAULT_TOP_DEGREE = {"bar": 5, "reduced": 6, "cibils": 12, "jn_periodic": 12}


class SizeBudgetExceeded(RuntimeError):
    pass


class DegreeOverflow(ValueError):
    pass


class CochainComplex:
    """Cochain spaces C^0..C^D with differentials d^0..d^{D-1}."""

    def __init__(self, method_tag, domain, ranks, diffs, labels,
                 algebra=None, module=None):
        self.method_tag = method_tag
        self.domain = domain
        self.ranks = tuple(ranks)
        self.diffs = tuple(diffs)
        self.labels = tuple(tuple(l) for l in labels)
        self.algebra = algebra
        self.module = module
        self.top_degree = len(self.ranks) - 1
        self._index = {}
        for p, d in enumerate(self.diffs):
            if (d.rows, d.cols) != (self.ranks[p + 1], self.ranks[p]):
                raise ValueError("differential %d has shape %dx%d, want %dx%d"
                                 % (p, d.rows, d.cols,
                                    self.ranks[p + 1], self.ranks[p]))
        for p in range(len(self.diffs) - 1):
            if not self.diffs[p + 1].mul(self.diffs[p]).is_zero():
                raise RuntimeError(
                    "d^%d . d^%d is nonzero (%s)" % (p + 1, p, method_tag))
        self.dd_verified = True

    def col_index(self, p):
        if p not in self._index:
            self._index[p] = {lab: i for i, lab in enumerate(self.labels[p])}
        return self._index[p]

    def __repr__(self):
        return "CochainComplex(%s over %r, ranks=%s)" % (
            self.method_tag, self.domain, list(self.ranks))


def _check_budget(ranks, budget, tag):
    worst = max(ranks)
    if worst > budget:
        raise SizeBudgetExceeded(
            "%s complex needs a cochain space of rank %d > budget %d"
            % (tag, worst, budget))


def _columns_of(mat):
    cols = [[] for _ in range(mat.cols)]
    for (r, c), v in sorted(mat._d.items()):
        cols[c].append((r, v))
    return cols


def _tensor_bar_like(A, M, top_degree, budget, letters, tag):
    """Shared assembly for bar (letters = all) / reduced (letters = 1..d-1)."""
    dom = A.domain
    m = M.dim
    base = len(letters)
    off = letters[0] if letters else 0  # letters are contiguous
    ranks = [m * base ** p if (base or p == 0) else 0
             for p in range(top_degree + 1)]
    if base == 0:
        ranks = [m] + [0] * top_degree
    _check_budget(ranks, budget, tag)
    prodmap = [[] for _ in range(A.dim)]
    for u in letters:
        for v in letters:
            coords = A.mult[u][v]
            for k in letters:
                c = dom.normalize(coords[k])
                if not dom.is_zero(c):
                    prodmap[k].append((u, v, c))
    lcols = {u: _columns_of(M.left[u]) for u in letters}
    rcols = {u: _columns_of(M.right[u]) for u in letters}
    labels = [tuple((w, q) for w in itertools.product(letters, repeat=p)
              for q in range(m)) for p in range(top_degree + 1)]
    diffs = []
    for p in range(top_degree):
        # raw sums of domain values, normalized once by Mat
        entries = {}
        get = entries.get
        sign_last = 1 if (p + 1) % 2 == 0 else -1
        for wi, word in enumerate(itertools.product(letters, repeat=p)):
            colbase = wi * m
            for u in letters:
                rw1 = ((u - off) * base ** p + wi) * m
                rw3 = (wi * base + (u - off)) * m
                for q in range(m):
                    col = colbase + q
                    for r, val in lcols[u][q]:
                        key = (rw1 + r, col)
                        entries[key] = get(key, 0) + val
                    for r, val in rcols[u][q]:
                        key = (rw3 + r, col)
                        entries[key] = get(key, 0) + sign_last * val
            for i in range(1, p + 1):
                sign = -1 if i % 2 == 1 else 1
                for u, v, c in prodmap[word[i - 1]]:
                    y = word[:i - 1] + (u, v) + word[i:]
                    yi = 0
                    for dgt in y:
                        yi = yi * base + (dgt - off)
                    val = sign * c
                    for q in range(m):
                        key = (yi * m + q, colbase + q)
                        entries[key] = get(key, 0) + val
        diffs.append(Mat(ranks[p + 1], ranks[p], dom, entries))
    return CochainComplex(tag, dom, ranks, diffs, labels, A, M)


def bar_complex(A, M=None, top_degree=None, budget=DEFAULT_SIZE_BUDGET):
    """Hom(A^{tensor p}, M) with the three-part alternating differential."""
    if top_degree is None:
        top_degree = DEFAULT_TOP_DEGREE["bar"]
    if M is None:
        M = quotient_bimodule(A)
    if len(M.left) != A.dim:
        raise AlgebraError("bimodule does not match the algebra")
    return _tensor_bar_like(A, M, top_degree, budget,
                            tuple(range(A.dim)), "bar")


def reduced_bar_complex(A, M=None, top_degree=None,
                        budget=DEFAULT_SIZE_BUDGET):
    """Bar complex over a complement of the unit line (unit-first basis)."""
    if top_degree is None:
        top_degree = DEFAULT_TOP_DEGREE["reduced"]
    if M is None:
        A = A.with_unit_first()
        M = quotient_bimodule(A)
    if not A.basis[0] == Mat.identity(A.n, A.domain):
        raise AlgebraError(
            "reduced complex needs the unit pinned first; "
            "call with_unit_first() and rebuild the bimodule")
    if len(M.left) != A.dim:
        raise AlgebraError("bimodule does not match the algebra")
    return _tensor_bar_like(A, M, top_degree, budget,
                            tuple(range(1, A.dim)), "reduced")


def cibils_complex(A, splitting=None, M=None, top_degree=None,
                   budget=DEFAULT_SIZE_BUDGET):
    """Small complex from an idempotent/radical splitting of A.

    C^0 is the part of M commuting with every idempotent; C^p for p >= 1
    has one block of coordinates per composable word of p radical letters,
    the block being the (source-of-first, target-of-last) component of M.
    """
    if top_degree is None:
        top_degree = DEFAULT_TOP_DEGREE["cibils"]
    sp = splitting if splitting is not None else detect_splitting(A)
    if M is None:
        M = quotient_bimodule(A)
    dom = A.domain
    m = M.dim
    rad_set = set(sp.radical_indices)
    idem_idx = [k for k in range(A.dim) if k not in rad_set]
    nb = len(sp.idempotents)
    R = len(sp.radical)
    tg = [g[0] for g in sp.bigrading]
    ug = [g[1] for g in sp.bigrading]

    # component of each module basis vector under e_t . m . e_u
    lcols_e = [_columns_of(M.left[idem_idx[t]]) for t in range(nb)]
    rcols_e = [_columns_of(M.right[idem_idx[t]]) for t in range(nb)]

    def _pick(cols_per_block, q):
        hit = None
        for t in range(nb):
            col = cols_per_block[t][q]
            if not col:
                continue
            if col == [(q, dom.one())]:
                if hit is not None:
                    return None
                hit = t
            else:
                return None
        return hit

    comp = []
    for q in range(m):
        t = _pick(lcols_e, q)
        u = _pick(rcols_e, q)
        if t is None or u is None:
            raise AlgebraError(
                "bimodule basis vector %d is not adapted to the splitting" % q)
        comp.append((t, u))
    comp_lists = {}
    for q, tu in enumerate(comp):
        comp_lists.setdefault(tu, []).append(q)

    words = [[()]]
    for p in range(1, top_degree + 1):
        if p == 1:
            words.append([(k,) for k in range(R)])
        else:
            words.append([w + (k,) for w in words[p - 1]
                          for k in range(R) if ug[w[-1]] == tg[k]])
    labels = []
    for p in range(top_degree + 1):
        if p == 0:
            labels.append(tuple(((), q) for q in range(m)
                                if comp[q][0] == comp[q][1]))
        else:
            labels.append(tuple((w, q) for w in words[p]
                                for q in comp_lists.get((tg[w[0]], ug[w[-1]]),
                                                        ())))
    ranks = [len(l) for l in labels]
    _check_budget(ranks, budget, "cibils")

    prodmap = [[] for _ in range(R)]
    for (u, v), coords in sp.radical_products.items():
        for k in range(R):
            c = dom.normalize(coords[k])
            if not dom.is_zero(c):
                prodmap[k].append((u, v, c))
    lcols_r = [_columns_of(M.left[sp.radical_indices[k]]) for k in range(R)]
    rcols_r = [_columns_of(M.right[sp.radical_indices[k]]) for k in range(R)]

    diffs = []
    for p in range(top_degree):
        rowix = {lab: i for i, lab in enumerate(labels[p + 1])}
        # raw sums of domain values, normalized once by Mat
        entries = {}
        get = entries.get
        sign_last = 1 if (p + 1) % 2 == 0 else -1
        for col, (w, q) in enumerate(labels[p]):
            t0 = tg[w[0]] if p else comp[q][0]
            u_end = ug[w[-1]] if p else comp[q][1]
            try:
                for k in range(R):
                    if ug[k] == t0:
                        for r, val in lcols_r[k][q]:
                            key = (rowix[((k,) + w, r)], col)
                            entries[key] = get(key, 0) + val
                    if tg[k] == u_end:
                        for r, val in rcols_r[k][q]:
                            key = (rowix[(w + (k,), r)], col)
                            entries[key] = get(key, 0) + sign_last * val
                for i in range(1, p + 1):
                    sign = -1 if i % 2 == 1 else 1
                    for u, v, c in prodmap[w[i - 1]]:
                        y = w[:i - 1] + (u, v) + w[i:]
                        key = (rowix[(y, q)], col)
                        entries[key] = get(key, 0) + sign * c
            except KeyError as bad:
                raise AlgebraError(
                    "splitting data is inconsistent: differential hit the "
                    "missing cochain label %r" % (bad.args[0],))
        diffs.append(Mat(ranks[p + 1], ranks[p], dom, entries))
    return CochainComplex("cibils", dom, ranks, diffs, labels, A, M)


def jn_periodic_complex(n, domain, top_degree=None,
                        budget=DEFAULT_SIZE_BUDGET):
    """2-periodic complex for the Jordan-block truncated polynomial algebra.

    Coefficients are the canonical quotient of the matrix ring by the
    algebra, on the matrix-unit classes E_ij with i = n..2 (top-down) and
    j = 1..n; with that basis the even-degree differential is the
    commutator-with-x matrix and the odd-degree differential is the norm
    map, which is verified to vanish.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if top_degree is None:
        top_degree = DEFAULT_TOP_DEGREE["jn_periodic"]
    A = catalog("J", domain, n)
    kept = [(i, j) for i in range(n - 1, 0, -1) for j in range(n)]
    M = _bimodule_from_units(A, kept, name="M%d/J%d" % (n, n))
    m = M.dim
    _check_budget([m], budget, "jn_periodic")
    commutator = M.right[1].sub(M.left[1])
    norm = Mat.zeros(m, m, domain)
    for i in range(n):
        norm = norm.add(M.left[i].mul(M.right[n - 1 - i]))
    if not norm.is_zero():
        raise RuntimeError("norm map is nonzero on the canonical quotient")
    ranks = [m] * (top_degree + 1)
    diffs = [commutator if p % 2 == 0 else norm for p in range(top_degree)]
    labels = [tuple(((), q) for q in range(m))] * (top_degree + 1)
    return CochainComplex("jn_periodic", domain, ranks, diffs, labels, A, M)


# ---------------------------------------------------------------------------
# cochains and the cup product


class Cochain:
    """A vector in C^p of an ambient complex."""

    def __init__(self, cx, degree, coords):
        if not 0 <= degree <= cx.top_degree:
            raise DegreeOverflow("degree %d outside 0..%d"
                                 % (degree, cx.top_degree))
        coords = [cx.domain.normalize(v) for v in coords]
        if len(coords) != cx.ranks[degree]:
            raise ValueError("coordinate length mismatch")
        self.cx = cx
        self.degree = degree
        self.coords = tuple(coords)

    @classmethod
    def zero(cls, cx, degree):
        return cls(cx, degree, [0] * cx.ranks[degree])

    @classmethod
    def from_values(cls, cx, degree, values):
        """Build from a {label: value} mapping (missing labels are 0)."""
        idx = cx.col_index(degree)
        coords = [cx.domain.zero()] * cx.ranks[degree]
        for lab, v in values.items():
            coords[idx[lab]] = cx.domain.normalize(v)
        return cls(cx, degree, coords)

    def value(self, label):
        return self.coords[self.cx.col_index(self.degree)[label]]

    def is_zero(self):
        dom = self.cx.domain
        return all(dom.is_zero(v) for v in self.coords)

    def add(self, other):
        if other.cx is not self.cx or other.degree != self.degree:
            raise ValueError("cochain mismatch")
        dom = self.cx.domain
        return Cochain(self.cx, self.degree,
                       [dom.add(a, b) for a, b in zip(self.coords,
                                                      other.coords)])

    def scale(self, c):
        dom = self.cx.domain
        c = dom.normalize(c)
        return Cochain(self.cx, self.degree,
                       [dom.mul(c, v) for v in self.coords])

    def __eq__(self, other):
        return (isinstance(other, Cochain) and other.cx is self.cx
                and other.degree == self.degree
                and other.coords == self.coords)

    def __repr__(self):
        return "Cochain(degree=%d, %d coords)" % (self.degree,
                                                  len(self.coords))


def apply_d(f):
    """The coboundary of a cochain (DegreeOverflow at the truncation edge)."""
    cx = f.cx
    if f.degree >= len(cx.diffs):
        raise DegreeOverflow("no differential out of degree %d" % f.degree)
    return Cochain(cx, f.degree + 1, list(cx.diffs[f.degree].apply(f.coords)))


def cup_product(f, g, pairing, target):
    """Concatenation-of-words product with coefficients paired bilinearly.

    f and g live on bar/reduced complexes over the same algebra; `pairing`
    maps module-basis index pairs to coordinate tuples in the target
    complex's module: pairing[q1][q2][q_out].
    """
    if f.cx.method_tag not in ("bar", "reduced"):
        raise ValueError("cup product is defined on bar/reduced complexes")
    if not (f.cx.method_tag == g.cx.method_tag == target.method_tag):
        raise ValueError("mismatched complex families")
    if not (f.cx.algebra is g.cx.algebra is target.algebra):
        raise ValueError("cochains live over different algebras")
    p, q = f.degree, g.degree
    if p + q > target.top_degree:
        raise DegreeOverflow("degree %d exceeds truncation %d"
                             % (p + q, target.top_degree))
    dom = target.domain
    out = [dom.zero()] * target.ranks[p + q]
    idx = target.col_index(p + q)
    flabels = f.cx.labels[p]
    glabels = g.cx.labels[q]
    for i, fv in enumerate(f.coords):
        if dom.is_zero(fv):
            continue
        wf, qf = flabels[i]
        for j, gv in enumerate(g.coords):
            if dom.is_zero(gv):
                continue
            wg, qg = glabels[j]
            coef = dom.mul(fv, gv)
            for qo, pv in enumerate(pairing[qf][qg]):
                pv = dom.normalize(pv)
                if dom.is_zero(pv):
                    continue
                col = idx[(wf + wg, qo)]
                out[col] = dom.add(out[col], dom.mul(coef, pv))
    return Cochain(target, p + q, out)

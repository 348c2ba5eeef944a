"""Finite truncations of Hochschild cochain complexes with exact matrices.

One convention throughout: H^p = ker d^p / im d^{p-1}, d^{-1} = 0.

bar, reduced and cibils are one word complex over three alphabets.  Letters
of A and coordinates of the bimodule M each carry a (source, target) block;
C^p is spanned by (word, q) for the composable words of p letters and the
coordinates q of the word's block.  d sums the left action of a prepended
letter, the products of neighbouring letters and the right action of an
appended letter, with alternating signs.  Ranks are counted before any word
is built, so the size budget refuses a request before any work.  The
actions that are not zero are listed once per coordinate, before any word,
so a column walks only the letters that act on its coordinate: in the bar
complex of an incidence algebra most letters act by zero on each one.

    bar_complex          all of A's basis, one block: rank d^p * m
    reduced_bar_complex  a complement of the unit line: rank (d-1)^p * m
    cibils_complex       the radical basis of an algebra split into
                         diagonal 0/1 idempotents, one block per idempotent
    jn_periodic_complex  apart from these: the 2-periodic complex of the
                         Jordan-block truncated polynomial algebra,
                         commutator in even degrees, norm map (zero on the
                         canonical quotient) in odd degrees

Every constructor verifies d(p+1) . d(p) = 0 by exact multiplication.  The
cup product is provided for bar/reduced cochains with an explicit
coefficient pairing.
"""

from functools import cached_property

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
    """Cochain spaces C^0..C^D with differentials d^0..d^{D-1}.

    `labels` gives, per degree, the label of each coordinate, or is a
    function returning them: the word complexes pass one, so labels are
    built on first read and not at all by a pipeline that reads only the
    differentials.
    """

    def __init__(self, method_tag, domain, ranks, diffs, labels,
                 algebra=None, module=None):
        self.method_tag = method_tag
        self.domain = domain
        self.ranks = tuple(ranks)
        self.diffs = tuple(diffs)
        self._make_labels = labels if callable(labels) else lambda: labels
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

    @cached_property
    def labels(self):
        return tuple(tuple(l) for l in self._make_labels())

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


def _word_complex(tag, A, M, top_degree, budget, letters, grading=None,
                  products=None, comp=None):
    """Word complex of an alphabet of letters of A with coefficients in M.

    `letters` maps each letter's name, in increasing order, to its index in
    A.basis; words are tuples of names.  `grading` gives each letter's
    (source, target) block and `comp` each coordinate's block (default: one
    block for all); products[u, v] holds the product's coordinates as
    {name: nonzero scalar} (default: A.mult), where a key that names no
    letter, the unit of the reduced complex, is left out.  C^0 takes the
    coordinates of blocks with source = target.
    """
    dom = A.domain
    if grading is None:
        grading = dict.fromkeys(letters, (0, 0))
        comp = [(0, 0)] * M.dim
    if products is None:
        products = {(u, v): A.mult[u][v] for u in letters for v in letters}
    by_block, pos = {}, []
    for q, st in enumerate(comp):
        qs = by_block.setdefault(st, [])
        pos.append(len(qs))
        qs.append(q)
    live = {s for s, _ in by_block}
    into, out_of = {}, {}
    for k in letters:
        s, t = grading[k]
        into.setdefault(t, []).append(k)
        out_of.setdefault(s, []).append(k)
    diag = [q for q, (s, t) in enumerate(comp) if s == t]

    # words per (first source, last target), times the block sizes
    ranks = [len(diag)]
    counts = {(s, s): 1 for s in live}
    for p in range(top_degree):
        grown = {}
        for (s, t), c in counts.items():
            for k in out_of.get(t, ()):
                st = (s, grading[k][1])
                grown[st] = grown.get(st, 0) + c
        counts = grown
        ranks.append(sum(c * len(by_block.get(st, ()))
                         for st, c in counts.items()))
    _check_budget(ranks, budget, tag)

    # per block of coordinates, the letters acting on it from the left,
    # then those acting from the right, as (letter word, right?); per
    # coordinate q, acts[q] holds (place in its block's list, [(row
    # position, value)]) for each of those actions that is not zero on q
    sides, acts = {}, [[] for _ in comp]
    for (s, t), qs in by_block.items():
        sides[s, t] = []
        for ks, mats, right in ((into.get(s, ()), M.left, False),
                                (out_of.get(t, ()), M.right, True)):
            for k in ks:
                want = (s, grading[k][1]) if right else (grading[k][0], t)
                cols = [(q, col) for q in qs
                        if (col := mats[letters[k]].column(q))]
                if any(comp[r] != want for _, col in cols for r in col):
                    raise AlgebraError(
                        "splitting data is inconsistent: letter %r moves a "
                        "coordinate off block %r" % (k, want))
                for q, col in cols:
                    acts[q].append((len(sides[s, t]),
                                    [(pos[r], v) for r, v in col.items()]))
                if cols:
                    sides[s, t].append(((k,), right))
    prodmap = {k: [] for k in letters}
    for (u, v), coords in products.items():
        for k, c in coords.items():
            if k not in prodmap:
                continue
            if (grading[u][0], grading[u][1], grading[v][1]) != (
                    grading[k][0], grading[v][0], grading[k][1]):
                raise AlgebraError(
                    "splitting data is inconsistent: product of letters "
                    "%r, %r has a component off their blocks" % (u, v))
            prodmap[k].append((u, v, c))

    def block(w):
        return grading[w[0]][0], grading[w[-1]][1]

    def column_blocks(p, offsets):
        """(word, first column, coordinates, their block) per block of
        columns of C^p; in degree 0 each coordinate is its own block."""
        if p == 0:
            for j, q in enumerate(diag):
                yield (), j, (q,), comp[q]
        for w, base in offsets.items():
            st = block(w)
            yield w, base, by_block[st], st

    def raw_columns(p, offsets, rowoff, row_ints):
        """(column, {row: raw sum of domain values}) for each column of d^p
        in turn: one (word, coordinate) pair each, normalized by Mat."""
        sign_last = 1 if (p + 1) % 2 == 0 else -1
        for w, base, qs, st in column_blocks(p, offsets):
            # a letter acting on the block leads to a row word that exists
            offs = [(rowoff[w + k], sign_last) if right else (rowoff[k + w], 1)
                    for k, right in sides[st]]
            # an inner product keeps the word's block, so q keeps its row
            inner = [(rowoff[w[:i] + (u, v) + w[i + 1:]], c if i % 2 else -c)
                     for i in range(p) for u, v, c in prodmap[w[i]]]
            for t, q in enumerate(qs):
                col = {}
                get = col.get
                for i, pairs in acts[q]:
                    off, sign = offs[i]
                    for r, val in pairs:
                        key = row_ints[off + r]
                        col[key] = get(key, 0) + sign * val
                for off, val in inner:
                    key = row_ints[off + t]
                    col[key] = get(key, 0) + val
                yield base + t, col

    def word_offsets():
        """{word: its first row} in C^p for p = 1..top_degree in turn, over
        the words of p letters whose block has coordinates."""
        words = [(k,) for k in letters if grading[k][0] in live]
        for p in range(top_degree):
            if p:
                words = [w + (k,) for w in words
                         for k in out_of.get(grading[w[-1]][1], ())]
            offsets, n = {}, 0
            for w in words:
                if qs := by_block.get(block(w)):
                    offsets[w], n = n, n + len(qs)
            yield offsets

    def labels():
        yield [((), q) for q in diag]
        for offsets in word_offsets():
            yield [(w, q) for w in offsets for q in by_block[block(w)]]

    diffs, rowoff = [], {}
    for p, offsets in enumerate(word_offsets()):
        cols, rowoff = rowoff, offsets
        # row keys index a range, which bounds every row (Mat.from_columns
        # does not check)
        row_ints = range(ranks[p + 1])
        diffs.append(Mat.from_columns(ranks[p + 1], ranks[p], dom,
                                      raw_columns(p, cols, rowoff, row_ints)))
    return CochainComplex(tag, dom, ranks, diffs, labels, A, M)


def bar_complex(A, M=None, top_degree=None, budget=DEFAULT_SIZE_BUDGET):
    """Hom(A^{tensor p}, M) with the three-part alternating differential."""
    if top_degree is None:
        top_degree = DEFAULT_TOP_DEGREE["bar"]
    if M is None:
        M = quotient_bimodule(A)
    if len(M.left) != A.dim:
        raise AlgebraError("bimodule does not match the algebra")
    return _word_complex("bar", A, M, top_degree, budget,
                         {k: k for k in range(A.dim)})


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
    return _word_complex("reduced", A, M, top_degree, budget,
                         {k: k for k in range(1, A.dim)})


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
    idem_idx = [k for k in range(A.dim) if k not in sp.radical_indices]
    nb = len(sp.idempotents)

    # component of each module basis vector under e_t . m . e_u
    lefts_e = [M.left[idem_idx[t]] for t in range(nb)]
    rights_e = [M.right[idem_idx[t]] for t in range(nb)]

    def _pick(mats, q):
        hits = [t for t in range(nb) if mats[t].column(q)]
        if len(hits) == 1 and mats[hits[0]].column(q) == {q: 1}:
            return hits[0]
        return None

    comp = []
    for q in range(M.dim):
        comp.append((_pick(lefts_e, q), _pick(rights_e, q)))
        if None in comp[-1]:
            raise AlgebraError(
                "bimodule basis vector %d is not adapted to the splitting" % q)
    return _word_complex("cibils", A, M, top_degree, budget,
                         dict(enumerate(sp.radical_indices)), sp.bigrading,
                         sp.radical_products, comp)


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
        coords = [0] * cx.ranks[degree]
        for lab, v in values.items():
            coords[idx[lab]] = v
        return cls(cx, degree, coords)

    def value(self, label):
        return self.coords[self.cx.col_index(self.degree)[label]]

    def is_zero(self):
        return not any(self.coords)

    def add(self, other):
        if other.cx is not self.cx or other.degree != self.degree:
            raise ValueError("cochain mismatch")
        return Cochain(self.cx, self.degree,
                       [a + b for a, b in zip(self.coords, other.coords)])

    def scale(self, c):
        c = self.cx.domain.normalize(c)
        return Cochain(self.cx, self.degree, [c * v for v in self.coords])

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
    maps module-basis index pairs to coordinates in the target complex's
    module: pairing[q1][q2] = {q_out: nonzero scalar}.
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
    out = [0] * target.ranks[p + q]
    idx = target.col_index(p + q)
    flabels = f.cx.labels[p]
    glabels = g.cx.labels[q]
    # cochain coordinates are normalized, so a zero one is falsy
    for i, fv in enumerate(f.coords):
        if not fv:
            continue
        wf, qf = flabels[i]
        for j, gv in enumerate(g.coords):
            if not gv:
                continue
            wg, qg = glabels[j]
            for qo, pv in pairing[qf][qg].items():
                out[idx[(wf + wg, qo)]] += fv * gv * pv
    return Cochain(target, p + q, out)

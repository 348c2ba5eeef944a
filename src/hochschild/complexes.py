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

Each differential is built from the one before (a prefix recursion).  The
pairs (word, q) are laid out lexicographically, word first.  X_p(a, s) is
the space of pairs (word of p letters from block a, coordinate q of block
(s, the word's target)), in that layout; the pairs of C^{p+1} that begin
with a letter w0: s -> a are one run, laid out as X_p(a, s), so prepending
w0 is a constant offset and no word is ever a tuple on this path.  Column
(w0 w', q) of d^p is the left actions on q plus F^p(w0 w', q), the
products and the right action, and

    F^p(w0 w', q) = I0(w0 w', q) - shift_w0 F^{p-1}(w', q),
    F^0(q) = -sum_k R_k q,

where I0 holds the products u v that have a w0 component, at rows
(u v w', q), and shift_w0 moves X_p(a, s) onto w0's run.  F^{p-1} is kept
on the X_{p-1}(a, s) that some later degree reads, one degree at a time;
when every letter leaves one block s, C^p is X_p(s, s), and d^p stores
F^p as it goes.  The sizes of X_p(a, s) follow the same count as the
ranks, before any work.

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
from operator import neg

from .algebra import (AlgebraError, _unit_classes, detect_splitting,
                      quotient_bimodule)
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
            if not d.rows_in_range():
                raise IndexError("differential %d has a row outside 0..%d"
                                 % (p, d.rows - 1))
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


def _word_targets(p, a, out_of, grading, memo):
    """The target of each word of p letters from block a, in order, kept in
    memo (a module function: a recursive closure would be a cycle)."""
    if (p, a) not in memo:
        memo[p, a] = [a] if not p else [
            t for k in out_of.get(a, ())
            for t in _word_targets(p - 1, grading[k][1], out_of, grading,
                                   memo)]
    return memo[p, a]


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

    # size[p][a, s]: the rank of X_p(a, s), for each letter's end a and each
    # source s with coordinates; runs[p] = {letter k: first index of the
    # pairs that begin with k} in C^p, whose run of k is X_{p-1}(target,
    # source)
    ends = {e for k in letters for e in grading[k]}
    size = [{(a, s): len(by_block.get((s, a), ())) for a in ends
             for s in live}]
    runs, ranks = [None], [len(diag)]
    for _ in range(top_degree):
        x, y, run, n = size[-1], dict.fromkeys(size[-1], 0), {}, 0
        for k in letters:
            a, b = grading[k]
            run[k] = n
            n += x.get((b, a), 0)
            for s in live:
                y[a, s] += x[b, s]
        size.append(y)
        runs.append(run)
        ranks.append(n)
    _check_budget(ranks, budget, tag)

    # per block of coordinates, sides[st][0] lists the letters acting on it
    # from the left and sides[st][1] those acting from the right; per
    # coordinate q, acts[q][side] holds (place in that list, [(row
    # position, value)]) for each of those actions that is not zero on q
    sides, acts, lsrc = {}, [([], []) for _ in comp], {}
    for (s, t), qs in by_block.items():
        sides[s, t] = ([], [])
        for right, ks, mats in ((0, into.get(s, ()), M.left),
                                (1, out_of.get(t, ()), M.right)):
            for k in ks:
                want = (s, grading[k][1]) if right else (grading[k][0], t)
                cols = [(q, col) for q in qs
                        if (col := mats[letters[k]].column(q))]
                if any(comp[r] != want for _, col in cols for r in col):
                    raise AlgebraError(
                        "splitting data is inconsistent: letter %r moves a "
                        "coordinate off block %r" % (k, want))
                for q, col in cols:
                    acts[q][right].append((len(sides[s, t][right]), [
                        (pos[r], v) for r, v in col.items()]))
                if cols:
                    sides[s, t][right].append(k)
        # the sources of the letters acting from the left on blocks (s, .)
        lsrc.setdefault(s, set()).update(grading[k][0]
                                         for k in sides[s, t][0])
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

    xruns = {}

    def xrun(p, a, s):
        """{letter k out of a: first index of the pairs of X_p(a, s) that
        begin with k}."""
        run = xruns.get((p, a, s))
        if run is None:
            run, n, x = {}, 0, size[p - 1]
            for k in out_of.get(a, ()):
                run[k] = n
                n += x[grading[k][1], s]
            xruns[p, a, s] = run
        return run

    targets = {}  # _word_targets' lists, per (length, first block)

    def add_actions(col, q, side, offs, sign):
        """col plus sign times the side's actions on q, the rows of the
        i-th letter of the side's list starting at offs[i]."""
        get = col.get
        for i, pairs in acts[q][side]:
            off = offs[i]
            for r, v in pairs:
                key = off + r
                col[key] = get(key, 0) + sign * v
        return col

    def tails(p, w0, s, run1, F):
        """([(first row, c)] for the products u v with c w0 in them,
        -F^{p-1} on the tails, shift) for the run of w0 in the layout run1
        of C^{p+1} or X_{p+1}: column j of F^p on the run is -c at each
        row first + j plus column j of -F^{p-1} shifted down to the run."""
        return ([(run1[u] + xrun(p, grading[u][1], s)[v], c)
                 for u, v, c in prodmap[w0]], F[grading[w0][1], s],
                run1[w0].__add__)

    def columns(p, F, keep):
        """(column, raw column) of d^p, each the left actions plus F^p;
        F^p's columns are appended to keep unless it is None."""
        run1 = runs[p + 1]
        if not p:
            for j, q in enumerate(diag):
                left, right = sides[comp[q]]
                col = add_actions({}, q, 1, [run1[k] for k in right], -1)
                if keep is not None:
                    keep.append((tuple(col), tuple(map(neg, col.values()))))
                yield j, add_actions(col, q, 0, [run1[k] for k in left], 1)
            return
        j = 0
        for w0 in letters:
            s, a = grading[w0]
            if not size[p - 1].get((a, s)):
                continue
            inner, prev, shift = tails(p, w0, s, run1, F)
            # at[s2]: the first index of w0 w' in X_p(s, s2), where the
            # row word k w0 w' of a left letter k from s2 begins
            at = {s2: xrun(p, s, s2)[w0] for s2 in lsrc[s]}
            i = 0
            for t in _word_targets(p - 1, a, out_of, grading, targets):
                qs = by_block.get((s, t), ())
                if qs:
                    offs = [run1[k] + at[grading[k][0]]
                            for k in sides[s, t][0]]
                for s2 in at:
                    at[s2] += len(by_block.get((s2, t), ()))
                for q in qs:
                    rows, vals = prev[i]
                    col = dict(zip(map(shift, rows), vals)) if rows else {}
                    get = col.get
                    for off, c in inner:
                        key = off + i
                        col[key] = get(key, 0) - c
                    if keep is not None:
                        keep.append((tuple(col),
                                     tuple(map(neg, col.values()))))
                    for h, pairs in acts[q][0]:
                        off = offs[h]
                        for r, v in pairs:
                            key = off + r
                            col[key] = get(key, 0) + v
                    yield j, col
                    j += 1
                    i += 1

    def tail_columns(p, a, s, F):
        """-F^p on X_p(a, s), as (rows, values) per column: for p = 0, the
        right actions."""
        run1 = xrun(p + 1, a, s)
        if not p:
            ks = sides.get((s, a), ((), ()))[1]
            cols = [add_actions({}, q, 1, [run1[k] for k in ks], -1)
                    for q in by_block.get((s, a), ())]
        else:
            cols = []
            for w0 in out_of.get(a, ()):
                if not size[p - 1][grading[w0][1], s]:
                    continue
                inner, prev, shift = tails(p, w0, s, run1, F)
                for i, (rows, vals) in enumerate(prev):
                    col = dict(zip(map(shift, rows), vals))
                    for off, c in inner:
                        col[off + i] = col.get(off + i, 0) - c
                    cols.append(col)
        return [(tuple(col), tuple(map(neg, col.values()))) for col in cols]

    # need[p]: the (a, s) whose F^p a later degree reads: d^{p+1} reads
    # X_p(target, source) of each letter, and F^{p+1} on X_{p+1}(a, s) reads
    # X_p(b, s) for each letter a -> b; the top degree and an empty X_p(a,
    # s) need none
    need = [()] * top_degree
    first = {grading[k][::-1] for k in letters if grading[k][0] in live}
    for p in range(top_degree - 2, -1, -1):
        need[p] = {(a, s) for a, s in first.union(
            (grading[k][1], s) for a, s in need[p + 1]
            for k in out_of.get(a, ())) if size[p][a, s]}
    # when the letters from sources with coordinates all leave one s, C^p is
    # X_p(s, s) for p >= 1 (the runs of the other letters are empty), and so
    # is C^0 when its coordinates are those of block (s, s); d^p then stores
    # -F^p as it goes
    srcs = live.intersection(grading[k][0] for k in letters)
    shared = (min(srcs),) * 2 if len(srcs) == 1 else None

    # F holds -F^{p-1} on the X_{p-1}(a, s) of need[p - 1]
    diffs, F = [], {}
    for p in range(top_degree):
        G, keep = {}, None
        if shared in need[p] and (p or diag == by_block[shared]):
            keep = G[shared] = []
        diffs.append(Mat.from_columns(ranks[p + 1], ranks[p], dom,
                                      columns(p, F, keep)))
        for a, s in need[p]:
            if (a, s) not in G:
                G[a, s] = tail_columns(p, a, s, F)
        F = G

    def block(w):
        return grading[w[0]][0], grading[w[-1]][1]

    def labels():
        yield [((), q) for q in diag]
        words = [(k,) for k in letters if grading[k][0] in live]
        for p in range(top_degree):
            if p:
                words = [w + (k,) for w in words
                         for k in out_of.get(grading[w[-1]][1], ())]
            yield [(w, q) for w in words for q in by_block.get(block(w), ())]

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


def jn_periodic_complex(A, top_degree=None, budget=DEFAULT_SIZE_BUDGET):
    """2-periodic complex for the Jordan-block truncated polynomial algebra.

    A is a catalog J_n, basis x^0..x^{n-1} (ValueError off the family).
    Coefficients are the canonical quotient of the matrix ring by the
    algebra, on the matrix-unit classes E_ij with i = n..2 (top-down) and
    j = 1..n; with that basis the even-degree differential is the
    commutator-with-x matrix and the odd-degree differential is the norm
    map, which is verified to vanish.
    """
    fam = A.meta.get("family")
    if not fam or fam[0] != "J":
        raise ValueError(
            "the periodic method applies only to the Jordan-block "
            "truncated polynomial family")
    if top_degree is None:
        top_degree = DEFAULT_TOP_DEGREE["jn_periodic"]
    n, domain = A.n, A.domain
    kept = [(i, j) for i in range(n - 1, 0, -1) for j in range(n)]
    M = _unit_classes(A, kept, (), "M%d/J%d" % (n, n))
    m = M.dim
    _check_budget([m], budget, "jn_periodic")
    commutator = M.right[1].add(M.left[1].scale(-1))
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

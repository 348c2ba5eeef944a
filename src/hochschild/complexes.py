"""Finite truncations of Hochschild cochain complexes with exact matrices.

One convention throughout: H^p = ker d^p / im d^{p-1}, d^{-1} = 0.

bar, reduced and cibils are one word complex over three alphabets.  Letters
of A and coordinates of the bimodule M each carry a (source, target) block;
C^p is spanned by (word, q) for the composable words of p letters and the
coordinates q of the word's block.  d sums the left action of a prepended
letter, the products of neighbouring letters and the right action of an
appended letter, with alternating signs.  Each degree's rank is counted
once, from the word counts, and checked against the size budget before the
next degree is counted, so a refusal names the first degree over the budget
and comes before any word is built; for bar and reduced on M_n/A it also
comes before the bimodule is built, as their ranks need only n^2 - d.  The
actions that are not zero are listed once per coordinate, before any word,
so a column walks only the letters that act on its coordinate: in the bar
complex of an incidence algebra most letters act by zero on each one.

Each differential is built from the one before (a prefix recursion).
X_p(a, s) is the space of pairs (word of p letters from block a, coordinate
q of block (s, the word's target)), laid out lexicographically, word first;
its pairs that begin with a letter w0: a -> b are one run, laid out as
X_{p-1}(b, s), so prepending w0 is a constant offset and no word is ever a
tuple on this path.  C^p is X_p(s, s) for each source block s in increasing
order, so its labels are grouped by the word's source block, then
lexicographic.  F^p, the products and the right action of d^p, maps X_p(a,
s) to X_{p+1}(a, s):

    F^p(w0 w', q) = I0(w0 w', q) - shift_w0 F^{p-1}(w', q),
    F^0(q) = -sum_k R_k q,

where I0 holds the products u v that have a w0 component, at rows
(u v w', q), and shift_w0 moves X_p(b, s) onto w0's run.  Column (w, q) of
d^p on X_p(s, s) is F^p(w, q), moved to the place of X_{p+1}(s, s) in
C^{p+1}, plus the left actions on q; one generator computes F^p for both.
F^{p-1} is kept on the X_{p-1}(a, s) that some later degree reads, one
degree at a time.  The sizes of X_p(a, s) follow the same count as the
ranks, before any work.  Every column is made in the domain's normal form
(over F_p, -v is p - v), with no zero stored: only a sum into a row already
present is normalized, so the kept -F^{p-1} carries no cancelled zero into
later degrees, and each column of d^p is packed into its store as it is
made, with no second pass.

With generator_top, C^T keeps only the words that begin with a letter of
a set G (`generators` on the complex), since a request reads only the
kernel of d^{T-1}, which stays the same.  For f in C^{T-1}, the a with
(df)(a, b1, ...) = 0 for all letters bi form a subspace S.  In d(df) = 0 at
(a, a', b1, ...) every term but -(df)(aa', b1, ...) begins with a or a', so
S is closed under products: when the rows of df that begin in G vanish, S
holds every word in G.  These span A for bar, the radical for cibils, and A
with the unit for reduced ((df)(1, ...) = 0 for normalized f), so df = 0.
The constructors build the full C^T by default, for cochains and cup
products; the budget counts the rank that is built:

>>> from hochschild import QQ, catalog
>>> bar_complex(catalog("N3", QQ), top_degree=2).ranks
(5, 20, 80)
>>> bar_complex(catalog("N3", QQ), top_degree=2, generator_top=True,
...             budget=70).ranks
(5, 20, 60)
>>> try:
...     bar_complex(catalog("N3", QQ), top_degree=2, budget=70)
... except SizeBudgetExceeded as refusal:
...     print(refusal)
bar complex needs a cochain space of rank 80 in degree 2 > budget 70

    bar_complex          all of A's basis, one block: rank d^p * m
    reduced_bar_complex  a complement of the unit line: rank (d-1)^p * m
    cibils_complex       the radical basis of an algebra split into
                         diagonal 0/1 idempotents, one block per idempotent
    jn_periodic_complex  apart from these: the 2-periodic complex of the
                         Jordan-block truncated polynomial algebra,
                         commutator in even degrees, norm map (zero on the
                         canonical quotient) in odd degrees

Every constructor verifies d(p+1) . d(p) = 0 by exact multiplication, one
product column at a time, with no product stored.  The cup product is
provided for bar/reduced cochains with an explicit coefficient pairing.
"""

from collections import Counter
from functools import cached_property
from itertools import chain, count
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
            if not self.diffs[p + 1].mul_is_zero(self.diffs[p]):
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


def _check_budget(rank, budget, tag, degree):
    if rank > budget:
        try:
            need = "%d" % rank
        except ValueError:  # too many digits to print: an exact lower bound
            need = "more than 10^%d" % ((rank.bit_length() - 1) * 30102
                                       // 100000)
        raise SizeBudgetExceeded(
            "%s complex needs a cochain space of rank %s in degree %d > "
            "budget %d" % (tag, need, degree, budget))


def _word_targets(p, a, out_of, grading, memo):
    """The target of each word of p letters from block a, in order, kept in
    memo (a module function: a recursive closure would be a cycle)."""
    if (p, a) not in memo:
        memo[p, a] = [a] if not p else [
            t for k in out_of.get(a, ())
            for t in _word_targets(p - 1, grading[k][1], out_of, grading,
                                   memo)]
    return memo[p, a]


def _prodmap(letters, grading, products):
    """{letter k: [(u, v, c) for each product u v of letters with c k in
    it]} from the pairs ((u, v), {name: scalar}) of `products`; a name that
    is no letter is left out."""
    prodmap = {k: [] for k in letters}
    for (u, v), coords in products:
        for k, c in coords.items():
            if k not in prodmap:
                continue
            if (grading[u][0], grading[u][1], grading[v][1]) != (
                    grading[k][0], grading[v][0], grading[k][1]):
                raise AlgebraError(
                    "splitting data is inconsistent: product of letters "
                    "%r, %r has a component off their blocks" % (u, v))
            prodmap[k].append((u, v, c))
    return prodmap


def _generators(letters, prodmap):
    """G: in increasing order of how many products of two other letters
    hold it, a letter is a generator unless it is the only letter of a
    product of two letters reached before it (more letters reach nothing)."""
    held = {k: sum(u != k != v for u, v, _ in prodmap[k]) for k in letters}
    if not any(held.values()):
        return letters
    width = Counter((u, v) for k in letters for u, v, _ in prodmap[k])
    gens, reached = set(), set()
    for k in sorted(letters, key=held.__getitem__):
        if not any(u in reached and v in reached and width[u, v] == 1
                   for u, v, _ in prodmap[k]):
            gens.add(k)
        reached.add(k)
    return gens


def _word_complex(tag, A, M, top_degree, budget, letters, grading=None,
                  products=None, comp=None, generator_top=False):
    """Word complex of an alphabet of letters of A with coefficients in M.

    `letters` maps each letter's name, in increasing order, to its index in
    A.basis; words are tuples of names.  `grading` gives each letter's
    (source, target) block and `comp` each coordinate's block (default: one
    block for all); products[u, v] holds the product's coordinates as
    {name: nonzero scalar} (default: A.mult), where a key that names no
    letter, the unit of the reduced complex, is left out.  C^0 takes the
    coordinates of blocks with source = target.  generator_top: see above.
    M = None stands for M_n/A, of dimension n^2 - d in one block, built
    only once every rank is within the budget.
    """
    dom = A.domain
    if grading is None:
        grading = dict.fromkeys(letters, (0, 0))
        comp = [(0, 0)] * (A.n * A.n - A.dim if M is None else M.dim)
    by_block, pos = {}, []
    for q, st in enumerate(comp):
        qs = by_block.setdefault(st, [])
        pos.append(len(qs))
        qs.append(q)
    live = {s for s, _ in by_block}
    order = sorted(live)
    into, out_of = {}, {}
    for k in letters:
        s, t = grading[k]
        into.setdefault(t, []).append(k)
        out_of.setdefault(s, []).append(k)

    # C^p holds X_p(s, s) from base[p][s] on, and cruns[p] = {letter k: first
    # index of the pairs that begin with k} in C^p, whose run of k is
    # X_{p-1}(target, source); at the top only the letters in gens have one.
    # size[p][a, s] is the rank of X_p(a, s), for each letter's end a and
    # each source s with coordinates.  Each degree's rank is checked against
    # the budget as it is laid out, before the next degree is counted and
    # before any word is walked
    ends = {e for k in letters for e in grading[k]}
    size = [{(a, s): len(by_block.get((s, a), ())) for a in ends
             for s in live}]
    base, cruns, ranks = [], [], []
    for p in range(top_degree + 1):
        if p == top_degree:
            pairs = products.items() if products is not None else (
                ((u, v), c) for u in letters
                for v, c in enumerate(A.mult[u]) if c and v in letters)
            prodmap = _prodmap(letters, grading, pairs)
            gens = _generators(letters, prodmap) if generator_top else letters
        b, run, n = {}, {}, 0
        for s in order:
            b[s] = n
            if not p:
                n += len(by_block.get((s, s), ()))
            for k in out_of.get(s, ()) if p else ():
                if p < top_degree or k in gens:
                    run[k] = n
                    n += size[p - 1][grading[k][1], s]
        base.append(b)
        cruns.append(run)
        ranks.append(n)
        _check_budget(n, budget, tag, p)
        if 0 < p < top_degree:
            x, y = size[p - 1], dict.fromkeys(size[p - 1], 0)
            for k in letters:
                a, t = grading[k]
                for s in live:
                    y[a, s] += x[t, s]
            size.append(y)
    if M is None:
        M = quotient_bimodule(A)

    # per block of coordinates, sides[st][0] lists the letters acting on it
    # from the left and sides[st][1] those acting from the right; per
    # coordinate q, acts[q][side] holds (place in that list, [(row
    # position, value)]) for each of those actions that is not zero on q,
    # with the right actions negated: every value is in normal form
    norm = dom.normalize
    sides, acts, lsrc, stored = {}, [([], []) for _ in comp], {}, {}
    for (s, t), qs in by_block.items():
        sides[s, t] = ([], [])
        for right, ks, mats in ((0, into.get(s, ()), M.left),
                                (1, out_of.get(t, ()), M.right)):
            for k in ks:
                want = (s, grading[k][1]) if right else (grading[k][0], t)
                # each action's stored columns, read once for all blocks
                if (right, k) not in stored:
                    stored[right, k] = mats[letters[k]].columns()
                acting = stored[right, k]
                cols = [(q, acting[q]) for q in qs if q in acting]
                if any(comp[r] != want for _, col in cols for r in col):
                    raise AlgebraError(
                        "splitting data is inconsistent: letter %r moves a "
                        "coordinate off block %r" % (k, want))
                for q, col in cols:
                    acts[q][right].append((len(sides[s, t][right]), [
                        (pos[r], norm(-v) if right else v)
                        for r, v in col.items()]))
                if cols:
                    sides[s, t][right].append(k)
        # the sources of the letters acting from the left on blocks (s, .)
        lsrc.setdefault(s, set()).update(grading[k][0]
                                         for k in sides[s, t][0])

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

    # -v in normal form, for the kept -F
    negate = dom.characteristic.__sub__ if dom.characteristic else neg

    def f_columns(p, a, s, F, keep=None, crun=None):
        """F^p on X_p(a, s), one {row: value} column at a time, with rows in
        X_{p+1}(a, s); (rows, -values) of each is appended to keep unless it
        is None.  Every value is in normal form and none is zero: only the
        sums into a row already present are normalized.  With crun, each
        letter's first index in C^{p+1}, a = s and the columns are those of
        d^p on X_p(s, s): F^p with its rows moved by base[p+1][s], plus the
        left actions, where the row word k w of a letter k: s2 -> s begins
        at k's run plus w's place in X_p(s, s2); a row whose first letter
        has no run in run1 is left out."""
        run1 = xrun(p + 1, a, s) if crun is None else crun
        for w0 in out_of.get(a, ()) if p else (None,):
            if p:
                b = grading[w0][1]
                if not size[p - 1][b, s]:
                    continue
                # column i of F^p on w0's run is -c at each row first + i
                # for the products u v with c w0 in them, plus column i of
                # -F^{p-1} (kept from base[p][s] on when b = s) moved to
                # the run
                inner = [(run1[u] + xrun(p, grading[u][1], s)[v], norm(-c))
                         for u, v, c in prodmap[w0] if u in run1]
                prev = F[b, s]
                shift = (run1[w0] - (base[p][s] if b == s else 0)).__add__ \
                    if w0 in run1 else None
                ts = _word_targets(p - 1, b, out_of, grading, targets)
            else:
                # one run, block (s, a): minus the right actions
                roffs = [run1.get(k) for k in sides[s, a][1]]
                ts = (a,)
            if crun is not None:
                # at[s2]: the place in X_p(s, s2) of the run's next word
                at = {s2: xrun(p, s, s2)[w0] if p else 0 for s2 in lsrc[s]}
            i = 0
            for t in ts:
                qs = by_block.get((s, t), ())
                if crun is not None:
                    if qs:
                        offs = [crun[k] + at[grading[k][0]] if k in crun
                                else None for k in sides[s, t][0]]
                    for s2 in at:
                        at[s2] += len(by_block.get((s2, t), ()))
                for q in qs:
                    if p:
                        rows, vals = prev[i]
                        col = dict(zip(map(shift, rows), vals)) \
                            if rows and shift else {}
                        for off, c in inner:
                            key = off + i
                            if key in col:
                                c = norm(col[key] + c)
                                if not c:
                                    del col[key]
                                    continue
                            col[key] = c
                        i += 1
                    else:
                        # the letters' runs are disjoint: no row repeats
                        col = {roffs[h] + r: v for h, pairs in acts[q][1]
                               if roffs[h] is not None for r, v in pairs}
                    if keep is not None:
                        keep.append((tuple(col),
                                     tuple(map(negate, col.values()))))
                    if crun is not None:
                        for h, pairs in acts[q][0]:
                            off = offs[h]
                            if off is None:
                                continue
                            for r, v in pairs:
                                key = off + r
                                if key in col:
                                    v = norm(col[key] + v)
                                    if not v:
                                        del col[key]
                                        continue
                                col[key] = v
                    yield col

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

    # F holds -F^{p-1} on the X_{p-1}(a, s) of need[p - 1]; d^p keeps it on
    # each X_p(s, s), and the other X_p(a, s) are walked for it alone.  The
    # columns of X_p(s, s) are numbered from base[p][s], so a source whose
    # columns are all zero is left out: one that is no letter's end, whose
    # X_p(s, s) is empty for p >= 1 and whose coordinates nothing moves
    diffs, F = [], {}
    for p in range(top_degree):
        G = {key: [] for key in need[p]}
        diffs.append(Mat._adopt(
            ranks[p + 1], ranks[p], dom, chain.from_iterable(
                zip(count(base[p][s]),
                    f_columns(p, s, s, F, G.get((s, s)), cruns[p + 1]))
                for s in order if size[p].get((s, s)))))
        for a, s in need[p]:
            if a != s:
                for _ in f_columns(p, a, s, F, G[a, s]):
                    pass
        F = G

    def labels():
        yield [((), q) for s in order for q in by_block.get((s, s), ())]
        words = {s: [(k,) for k in out_of.get(s, ())] for s in order}
        for p in range(top_degree):
            if p:
                words = {s: [w + (k,) for w in ws
                             for k in out_of.get(grading[w[-1]][1], ())]
                         for s, ws in words.items()}
            yield [(w, q) for s in order for w in words[s]
                   if p < top_degree - 1 or w[0] in gens
                   for q in by_block.get((s, grading[w[-1]][1]), ())]

    cx = CochainComplex(tag, dom, ranks, diffs, labels, A, M)
    # the letters that begin the words of C^T
    cx.generators = tuple(k for k in letters if k in gens)
    return cx


def bar_complex(A, M=None, top_degree=None, budget=DEFAULT_SIZE_BUDGET,
                generator_top=False):
    """Hom(A^{tensor p}, M) with the three-part alternating differential."""
    if top_degree is None:
        top_degree = DEFAULT_TOP_DEGREE["bar"]
    if M is not None and len(M.left) != A.dim:
        raise AlgebraError("bimodule does not match the algebra")
    return _word_complex("bar", A, M, top_degree, budget,
                         {k: k for k in range(A.dim)},
                         generator_top=generator_top)


def reduced_bar_complex(A, M=None, top_degree=None,
                        budget=DEFAULT_SIZE_BUDGET, generator_top=False):
    """Bar complex over a complement of the unit line (unit-first basis)."""
    if top_degree is None:
        top_degree = DEFAULT_TOP_DEGREE["reduced"]
    if M is None:
        A = A.with_unit_first()
    if not A.basis[0] == Mat.identity(A.n, A.domain):
        raise AlgebraError(
            "reduced complex needs the unit pinned first; "
            "call with_unit_first() and rebuild the bimodule")
    if M is not None and len(M.left) != A.dim:
        raise AlgebraError("bimodule does not match the algebra")
    return _word_complex("reduced", A, M, top_degree, budget,
                         {k: k for k in range(1, A.dim)},
                         generator_top=generator_top)


def cibils_complex(A, splitting=None, M=None, top_degree=None,
                   budget=DEFAULT_SIZE_BUDGET, generator_top=False):
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
    lefts_e = [M.left[idem_idx[t]].columns() for t in range(nb)]
    rights_e = [M.right[idem_idx[t]].columns() for t in range(nb)]

    def _pick(actions, q):
        hits = [t for t in range(nb) if q in actions[t]]
        if len(hits) == 1 and actions[hits[0]][q] == {q: 1}:
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
                         sp.radical_products, comp, generator_top)


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
    _check_budget(m, budget, "jn_periodic", 0)
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

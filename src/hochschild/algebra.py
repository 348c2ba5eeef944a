"""Subalgebras of matrix rings and their quotient bimodules.

An algebra here is a unital subalgebra A of M_n given by an explicit basis
of n x n matrices over Q, F_p or Z.  Validation derives the structure
constants c[i][j] (coordinates of a_i * a_j in the basis) and the
coordinates of the identity; over Z it additionally checks that the span is
a direct summand of M_n(Z), so the quotient is a free module.  All
coordinates are read from one echelon form of the basis (`exactla.Echelon`,
over Q when the algebra lives over Z), built once at validation and kept on
the algebra, and all are stored as Echelon.coords returns them, sparse
{index: nonzero scalar}: the structure constants, the unit, member
coordinates, the radical products of a splitting and the pairings of the
regular and ideal-quotient bimodules.  A product a_i a_j is formed and
read only when a_i's nonzero columns meet a_j's nonzero rows; otherwise
it is the zero matrix and stored as {} at once.  A product of
incidence-algebra units is one unit or zero, so most of the d^2 products
are {}, cost validation no product, and cost their readers nothing.

The module also builds the coefficient bimodules used by the cochain
complexes:

    quotient_bimodule   -- M_n / A with a deterministic matrix-unit basis,
                           built once per algebra and kept on it
    regular_bimodule    -- A acting on itself (used for cup-product tests)
    ideal_quotient_bimodule -- A / J for a spanned two-sided ideal J
    sandwich_bimodule   -- span(A, units) / span(A, units), for the
                           intermediate coefficient modules of the rank-3
                           worked examples

The quotient, the sandwich and the Jordan-block complex's M_n/J_n (in its
own unit order) come from one builder, `_unit_classes`: one Echelon of
A's basis followed by matrix units gives the class of every matrix unit,
and the actions are sums of classes, a E_ij = sum_r a[r,i] E_rj and
E_ij a = sum_c a[j,c] E_ic, over the nonzeros of a.  No matrix is
inverted and no product is formed.

plus `detect_splitting`, which finds the idempotent/radical decomposition
feeding the small complex of `complexes.cibils_complex` (its ideal and
nilpotency tests read the radical's rows of the structure constants and
form no matrix product), `morita_corner`,
the basic corner eAe of an algebra that does not split, and a catalog of
the named subalgebras of M_2 and M_3 together with the classical families
(full, upper triangular, diagonal, scalar, block parabolic, truncated
polynomial).
"""

from .exactla import (Echelon, Mat, NoSolution, QQ, ZZ, _choose_unit,
                      _column_echelon, _eliminate, _euclid_steps,
                      _update_unit, kernel_basis, smith_normal_form)


class AlgebraError(ValueError):
    pass


class NotIndependent(AlgebraError):
    pass


class NoUnit(AlgebraError):
    pass


class NotSaturated(AlgebraError):
    pass


class NotInvertible(AlgebraError):
    pass


class UnknownName(AlgebraError):
    pass


class BadParams(AlgebraError):
    pass


class NotSplit(AlgebraError):
    pass


class NotClosed(AlgebraError):
    """Product a_i * a_j (1-based indices) left the span."""

    def __init__(self, i, j):
        self.i = i
        self.j = j
        super().__init__("product a%d * a%d is not in the span" % (i, j))


def _flat(m):
    """Row-major flattening of an n x n matrix: {i * n + j: entry}."""
    n = m.cols
    return {i * n + j: v for (i, j), v in m.items()}


def _span_echelon(mats, domain):
    """Echelon form of the matrices' span, over Q for integer matrices."""
    span = Echelon(QQ if domain == ZZ else domain)
    for b in mats:
        span.add(_flat(b))
    return span


def _coords_in(span, domain, m):
    """Coordinates of m in the basis recorded by span, or NoSolution."""
    sol = span.coords(_flat(m))
    if sol is NoSolution or domain != ZZ:
        return sol
    return NoSolution if any(type(v) is not int for v in sol.values()) else sol


def _unit_matrix(n, i, j, domain):
    return Mat(n, n, domain, {(i, j): 1})


def _coerce_basis(n, domain, basis):
    mats = []
    for b in basis:
        if isinstance(b, Mat):
            if (b.rows, b.cols) != (n, n):
                raise AlgebraError("basis matrix is not %dx%d" % (n, n))
            mats.append(b if b.domain == domain else b.change_domain(domain))
        else:
            mats.append(Mat.from_rows(b, domain))
            if mats[-1].cols != n or mats[-1].rows != n:
                raise AlgebraError("basis matrix is not %dx%d" % (n, n))
    return mats


class Algebra:
    """A validated subalgebra presentation; construct via verify_subalgebra."""

    def __init__(self, n, domain, basis, name, mult, unit_coords, span,
                 meta=None):
        self.n = n
        self.domain = domain
        self.basis = tuple(basis)
        self.dim = len(basis)
        self.name = name
        # mult[i][j]: basis[i] * basis[j] as {k: nonzero coordinate}, the
        # format of Echelon.coords; unit_coords: I_n in the same format
        self.mult = mult
        self.unit_coords = unit_coords
        self.meta = dict(meta or {})
        self._span = span         # echelon form of the basis
        self._quotient = None     # quotient_bimodule(self), once built
        self._split = None        # (re-basing, splitting), validate_splitting

    def member_coords(self, m):
        """Coordinates of a matrix in the basis as {k: nonzero scalar}, or
        NoSolution (over Z also when they are not integers)."""
        return _coords_in(self._span, self.domain, m)

    def unit_matrix(self):
        return Mat.identity(self.n, self.domain)

    def with_unit_first(self):
        """The same algebra re-based so that the first basis vector is I_n.

        I_n replaces the last basis vector whose unit coordinate is a unit
        of the ring (nonzero over a field, +-1 over Z), and the others keep
        their order: over a field, the greedy echelon choice.  Over Z, when
        no coordinate is +-1, Euclid steps on the coordinates, mirrored as
        b_i += q b_j, make one so first; every step is unimodular.  Returns
        self when the basis already starts with I_n.
        """
        if self.unit_coords == {0: 1}:
            return self
        dom, basis = self.domain, list(self.basis)
        u = [self.unit_coords.get(k, 0) for k in range(self.dim)]
        if dom == ZZ and 1 not in u and -1 not in u:
            for i, j, q in _euclid_steps(u):
                basis[i] = basis[i].add(basis[j].scale(q))
        k = max(j for j, c in enumerate(u)
                if c and (dom.is_field or abs(c) == 1))
        out = verify_subalgebra(
            self.n, dom, [Mat.identity(self.n, dom)] + basis[:k]
            + basis[k + 1:], name=self.name)
        out.meta = dict(self.meta)
        return out

    def __repr__(self):
        return "Algebra(%s, n=%d, d=%d over %r)" % (
            self.name or "?", self.n, self.dim, self.domain)


def mat_inverse(m):
    """Inverse of a square matrix over a field or Z (NotInvertible
    otherwise).

    Column j of the inverse is the coordinates of e_j over m's columns,
    read from one echelon form of them, over Q for an integer matrix,
    whose inverse must then be integral.
    """
    if m.rows != m.cols:
        raise NotInvertible("not square")
    dom, n = m.domain, m.rows
    ech, kept = _column_echelon(m.change_domain(QQ) if dom == ZZ else m)
    if len(kept) != n:
        raise NotInvertible("matrix is singular")
    cols = [ech.coords({j: 1}) for j in range(n)]
    if dom == ZZ and any(type(v) is not int for c in cols for v in c.values()):
        raise NotInvertible("matrix is not unimodular")
    return Mat.from_columns(n, n, dom, enumerate(cols))


def verify_subalgebra(n, domain, basis, name=None):
    """Validate a basis as a unital subalgebra of M_n; see module docstring."""
    mats = _coerce_basis(n, domain, basis)
    if not mats:
        raise AlgebraError("empty basis")
    d = len(mats)
    span = _span_echelon(mats, domain)
    if span.rank != d:
        raise NotIndependent("basis matrices are linearly dependent")
    if domain == ZZ:
        sf = smith_normal_form(Mat(d, n * n, ZZ,
                                   {(k, t): v for k, b in enumerate(mats)
                                    for t, v in _flat(b).items()}))
        if any(f != 1 for f in sf.invariant_factors):
            raise NotSaturated(
                "span is not a direct summand of M_n(Z): invariant factors %r"
                % (sf.invariant_factors,))
    # over Z, saturation makes the rational coordinates integers
    unit = _coords_in(span, domain, Mat.identity(n, domain))
    if unit is NoSolution:
        raise NoUnit("identity matrix is not in the span")
    # a_i a_j is the zero matrix when a_i's columns miss a_j's rows
    cols = [{j for (_, j), _ in b.items()} for b in mats]
    rows = [{i for (i, _), _ in b.items()} for b in mats]
    mult = []
    for i, a in enumerate(mats):
        row = []
        for j, b in enumerate(mats):
            if cols[i].isdisjoint(rows[j]):
                row.append({})
                continue
            c = _coords_in(span, domain, a.mul(b))
            if c is NoSolution:
                raise NotClosed(i + 1, j + 1)
            row.append(c)
        mult.append(tuple(row))
    return Algebra(n, domain, mats, name, tuple(mult), unit, span)


def structure_constants_ok(A):
    """(a_i a_j) a_l = a_i (a_j a_l) for every triple and e a_j = a_j = a_j e
    for every j, with e the unit, asserted on the structure constants.

    Both sides are sparse sums of rows of c.  With live(j) the l where
    c[j][l] is not empty, only l in live(j) or in live(s) for some s in
    c[i][j] is visited: elsewhere both sides are 0 without arithmetic.
    """
    d, norm, c = A.dim, A.domain.normalize, A.mult
    live = [{l for l in range(d) if c[j][l]} for j in range(d)]
    for j in range(d):
        for i in range(d):
            cij = c[i][j]
            for l in live[j].union(*map(live.__getitem__, cij)):
                if (_combo(norm, ((v, c[s][l]) for s, v in cij.items()))
                        != _combo(norm, ((v, c[i][s])
                                         for s, v in c[j][l].items()))):
                    return False
    e = A.unit_coords.items()
    return all(_combo(norm, ((v, c[i][j]) for i, v in e)) == {j: 1}
               == _combo(norm, ((v, c[j][i]) for i, v in e))
               for j in range(d))


def _combo(norm, terms):
    """sum of v * vec over the (v, vec) terms of sparse vectors, as
    {k: nonzero normalized scalar}."""
    acc = {}
    for v, vec in terms:
        for k, w in vec.items():
            acc[k] = acc.get(k, 0) + v * w
    return {k: w for k, x in acc.items() if (w := norm(x))}


# ---------------------------------------------------------------------------
# bimodules


class Bimodule:
    """A finitely generated coefficient bimodule in a chosen basis.

    left[i] / right[i] are the m x m action matrices of the i-th algebra
    basis vector.  tags name the basis vectors; a matrix-unit class is
    tagged ("unit", i, j).  A bimodule of unit classes that reach all of
    M_n (M_n/A among them) also has proj, the m x n^2 matrix sending a
    row-major vec(X) to the class of X.
    """

    def __init__(self, algebra, tags, left, right, name=None):
        self.algebra = algebra
        self.tags = tuple(tags)
        self.dim = len(self.tags)
        self.left = tuple(left)
        self.right = tuple(right)
        self.name = name

    def act_left(self, i, vec):
        return self.left[i].apply(vec)

    def act_right(self, i, vec):
        return self.right[i].apply(vec)

    def __repr__(self):
        return "Bimodule(%s, dim=%d)" % (self.name or "?", self.dim)


def quotient_bimodule(A):
    """M_n / A on the classes of the matrix units that a row-major greedy
    scan keeps, or over Z, if those miss the quotient lattice, of the units
    off the pivot positions of the +-1 elimination of A's basis (triangular
    +-1 pivots make their classes integral).  The projection vec(X) ->
    class of X is kept as `proj`.  Built once per algebra and kept on it.
    """
    if A._quotient is None:
        n = A.n
        name = "M%d/%s" % (n, A.name or "A")
        try:
            A._quotient = _unit_classes(
                A, [divmod(t, n) for t in range(n * n)], (), name)
        except NotSaturated:
            P = set(_eliminate({k: _flat(b) for k, b in enumerate(A.basis)},
                               _choose_unit, _update_unit)[0])
            if len(P) < A.dim:
                raise
            A._quotient = _unit_classes(
                A, [divmod(t, n) for t in range(n * n) if t not in P], (),
                name)
        assert A._quotient.dim == n * n - A.dim
    return A._quotient


def _unit_classes(A, num, den, name):
    """span(A, num) / span(A, den) on the classes of the units num.

    num and den are 0-based (i, j) positions.  One Echelon, a copy of the
    one validation kept, holds A's basis, the den units, the num units
    (each kept when independent) and the remaining units, numbered from m
    on: a basis of M_n.  The class of E_t is its coordinates over the kept
    and remaining units, and the actions sum classes.  A span is stable
    when no action column has a coordinate over a remaining unit.  Over Z a
    non-integral class of a unit inside span(A, num), or of an action,
    means the kept units miss the quotient lattice; for M_n/A (A saturated)
    that is the d x d block of A at the other positions failing to be
    unimodular.  With no remaining unit the bimodule keeps proj, vec(X) ->
    class of X.
    """
    n, dom = A.n, A.domain
    fdom = QQ if dom == ZZ else dom
    span = A._span.copy()
    for i, j in den:
        span.add({i * n + j: 1})
    lo, held = span.rank, {}  # held: unit -> its index past A and den
    for t in [i * n + j for i, j in num]:
        if span.add({t: 1}):
            held[t] = len(held)
    kept = [divmod(t, n) for t in held]
    m, full, units = len(kept), span.rank == n * n, kept + list(den)
    for t in range(n * n):
        if span.rank < n * n and span.add({t: 1}):
            held[t] = len(held)
    cls = [{held[t]: 1} if t in held else
           {k - lo: v for k, v in span.coords({t: 1}).items() if k >= lo}
           for t in range(n * n)]
    left, right, off = [], [], []  # off: the images of the den units
    for a in A.basis:
        acols, arows = {}, {}
        for (r, c), v in a.items():
            acols.setdefault(c, []).append((v, r * n))
            arows.setdefault(r, []).append((v, c))
        lcols, rcols = [], []
        for i, j in units:
            # a E_ij = sum_r a[r,i] E_rj;  E_ij a = sum_c a[j,c] E_ic
            lcol, rcol = {}, {}
            for v, rn in acols.get(i, ()):
                for p, u in cls[rn + j].items():
                    lcol[p] = lcol.get(p, 0) + v * u
            for v, c in arows.get(j, ()):
                for p, u in cls[i * n + c].items():
                    rcol[p] = rcol.get(p, 0) + v * u
            lcols.append(lcol)
            rcols.append(rcol)
        left.append(Mat.from_columns(m, m, fdom, enumerate(lcols[:m])))
        right.append(Mat.from_columns(m, m, fdom, enumerate(rcols[:m])))
        off += lcols[m:] + rcols[m:]
    if not all(x.rows_in_range() for x in left + right):
        raise AlgebraError("span is not stable under the algebra action")
    if any(any(map(fdom.normalize, c.values())) for c in off):
        raise AlgebraError("denominator span is not a sub-bimodule")
    # the classes of the units inside span(A, num): every unit when full
    proj = Mat.from_columns(m, n * n, fdom, (
        (t, c) for t, c in enumerate(cls) if max(c, default=-1) < m))
    if dom == ZZ:
        mats = [proj] + left + right
        if any(type(v) is not int for x in mats for _, v in x.items()):
            raise NotSaturated("unit classes do not span the quotient lattice")
        proj, *mats = [x.change_domain(ZZ) for x in mats]
        left, right = mats[:A.dim], mats[A.dim:]
    bm = Bimodule(A, [("unit", i, j) for i, j in kept], left, right, name)
    if full:
        bm.proj = proj
    return bm


def regular_bimodule(A):
    """A as a bimodule over itself, with its multiplication pairing."""
    d, dom, c = A.dim, A.domain, A.mult
    # a_i acts on a_j by column j = c[i][j] (left) or c[j][i] (right)
    left = [Mat.from_columns(d, d, dom, enumerate(c[i])) for i in range(d)]
    right = [Mat.from_columns(d, d, dom, ((j, c[j][i]) for j in range(d)))
             for i in range(d)]
    bm = Bimodule(A, [("alg", j) for j in range(d)], left, right,
                  name="%s as bimodule" % (A.name or "A"))
    return bm, c


def ideal_quotient_bimodule(A, ideal_indices):
    """A / J for J spanned by the given basis indices (must be an ideal).

    Returns (bimodule, pairing) where the pairing is the multiplication of
    the quotient algebra A/J on itself.
    """
    dom, c = A.domain, A.mult
    ideal = set(ideal_indices)
    kept = [j for j in range(A.dim) if j not in ideal]
    for i in range(A.dim):
        for j in ideal:
            if not ideal.issuperset(c[i][j]) or not ideal.issuperset(c[j][i]):
                raise AlgebraError("spanned subspace is not a two-sided ideal")
    pos = {j: q for q, j in enumerate(kept)}

    def cls(vec):
        """The class of a coordinate vector modulo the ideal."""
        return {pos[k]: v for k, v in vec.items() if k in pos}

    m = len(kept)
    left = [Mat.from_columns(m, m, dom, ((q, cls(c[i][j]))
                                         for q, j in enumerate(kept)))
            for i in range(A.dim)]
    right = [Mat.from_columns(m, m, dom, ((q, cls(c[j][i]))
                                          for q, j in enumerate(kept)))
             for i in range(A.dim)]
    bm = Bimodule(A, [("class", j) for j in kept], left, right,
                  name="%s mod ideal" % (A.name or "A"))
    pairing = tuple(tuple(cls(c[s][t]) for t in kept) for s in kept)
    return bm, pairing


def sandwich_bimodule(A, numerator_units, denominator_units=(), name=None):
    """span(A, numerator units) / span(A, denominator units) as an A-bimodule.

    The unit lists are (row, col) pairs, 1-based to match the usual E_ij
    notation.  Both spans must be stable under multiplication by A on both
    sides, and the denominator span must sit inside the numerator span.
    The classes are read as for the quotient (`_unit_classes`), so over Z
    the kept numerator units must span the quotient lattice (NotSaturated
    otherwise), and with every unit as numerator and none as denominator
    this is quotient_bimodule(A) whenever the row-major scan suffices.
    """
    n = A.n
    num, den = ([(i - 1, j - 1) for i, j in us]
                for us in (numerator_units, denominator_units))
    if not all(0 <= x < n for ij in num + den for x in ij):
        raise IndexError("entry outside a %dx%d matrix" % (n, n))
    return _unit_classes(A, num, den,
                         name or "sandwich over %s" % (A.name or "A"))


# ---------------------------------------------------------------------------
# idempotent / radical splittings


class Splitting:
    """Orthogonal 0/1 diagonal idempotents plus a bigraded radical basis."""

    def __init__(self, idempotents, radical, radical_indices, bigrading,
                 radical_products):
        self.idempotents = tuple(idempotents)  # Mat, one per block
        self.radical = tuple(radical)          # Mat
        self.radical_indices = tuple(radical_indices)  # into A.basis
        self.bigrading = tuple(bigrading)      # (t, u) block ids, 0-based
        # (i, j) -> radical[i] * radical[j] as {k: nonzero coordinate}
        self.radical_products = radical_products

    def __repr__(self):
        return "Splitting(%d idempotents, radical rank %d)" % (
            len(self.idempotents), len(self.radical))


def detect_splitting(A):
    """Split A into diagonal 0/1 idempotents plus a nilpotent radical ideal.

    Succeeds exactly when the basis is aligned with such a decomposition:
    every basis matrix is a 0/1 sum of matrix units that is purely diagonal
    or purely off-diagonal, the diagonal ones are orthogonal idempotents
    summing to I_n, each off-diagonal one is homogeneous for the block
    bigrading, and the off-diagonal span is a nilpotent two-sided ideal.
    Raises NotSplit otherwise.  The radical is a subset of A's basis, so
    both ideal and nilpotency are read from A.mult, on coordinates.
    """
    n, dom = A.n, A.domain
    diag, offd, offd_idx = [], [], []
    for k, b in enumerate(A.basis):
        if any(v != 1 for _, v in b.items()):
            raise NotSplit("basis entry %d is not a 0/1 matrix" % (k + 1))
        positions = {ij for ij, _ in b.items()}
        if not positions:
            raise NotSplit("zero basis matrix")
        on_diag = {p for p in positions if p[0] == p[1]}
        if on_diag == positions:
            diag.append(b)
        elif not on_diag:
            offd.append(b)
            offd_idx.append(k)
        else:
            raise NotSplit(
                "basis entry %d mixes diagonal and off-diagonal units" % (k + 1))
    if not diag:
        raise NotSplit("no diagonal idempotent candidates")
    covered = {}
    for t, b in enumerate(diag):
        for (i, _), _ in b.items():
            if i in covered:
                raise NotSplit("diagonal supports are not orthogonal")
            covered[i] = t
    if len(covered) != n:
        raise NotSplit("diagonal idempotents do not sum to the identity")
    block_of_row = tuple(covered[i] for i in range(n))
    bigrading = []
    for x in offd:
        grades = {(block_of_row[i], block_of_row[j])
                  for (i, j), _ in x.items()}
        if len(grades) != 1:
            raise NotSplit("radical basis element is not bigraded")
        bigrading.append(grades.pop())
    # the radical span is a two-sided ideal (the idempotents act on a
    # bigraded element by 1 or 0) exactly when every radical product has
    # only radical coordinates in A.mult; they are re-indexed to the radical
    at = {k: r for r, k in enumerate(offd_idx)}
    products = {}
    for i, k in enumerate(offd_idx):
        for j, l in enumerate(offd_idx):
            c = A.mult[k][l]
            if not at.keys() >= c.keys():
                raise NotSplit("radical span is not an ideal")
            products[(i, j)] = {at[s]: v for s, v in c.items()}
    # nilpotency on coordinates: round k takes a basis of J^{k+1} from an
    # echelon form of a spanning set (the products for J^2), then spans
    # J^{k+2} = J^{k+1} J; J^n = 0 when J is nilpotent in M_n
    norm, r = dom.normalize, len(offd)
    layer = list(products.values())
    for _ in range(n):
        ech = Echelon(QQ if dom == ZZ else dom)
        layer = [v for v in layer if v and ech.add(v)]
        if not layer:
            break
        layer = [_combo(norm, ((w, products[i, j]) for i, w in x.items()))
                 for x in layer for j in range(r)]
    else:
        raise NotSplit("radical is not nilpotent")
    return Splitting(diag, offd, offd_idx, bigrading, products)


def validate_splitting(A, idempotent_mats, radical_mats):
    """Validate externally supplied splitting data against A (or NotSplit);
    the split re-basing of A it builds is kept on A for the cibils method."""
    n, dom = A.n, A.domain
    idem = _coerce_basis(n, dom, idempotent_mats)
    rad = _coerce_basis(n, dom, radical_mats)
    for e in idem:
        if not e.mul(e).__eq__(e):
            raise NotSplit("idempotent candidate is not idempotent")
    total = Mat.zeros(n, n, dom)
    for e in idem:
        total = total.add(e)
    if total != Mat.identity(n, dom):
        raise NotSplit("idempotents do not sum to the identity")
    for i, e in enumerate(idem):
        for j, f in enumerate(idem):
            if i != j and not e.mul_is_zero(f):
                raise NotSplit("idempotents are not orthogonal")
    # must re-span A
    sub = verify_subalgebra(n, dom, list(idem) + list(rad), name=A.name)
    if sub.dim != A.dim:
        raise NotSplit("splitting does not span the algebra")
    for b in A.basis:
        if sub.member_coords(b) is NoSolution:
            raise NotSplit("splitting does not span the algebra")
    A._split = sub, detect_splitting(sub)
    return A._split[1]


def morita_corner(A):
    """The corner eAe ⊆ M_k of A, e summing one block per Morita class.

    The diagonal matrices in A are spanned by the indicators f_s of blocks
    of rows.  Block s joins an earlier representative r when f_s lies in
    the span of (f_s A f_r)(f_r A f_s), integrally over Z: at most d^2
    products in all.  Then 1 = sum f_s lies in AeA, so H^*(A, M_n/A) =
    H^*(eAe, eM_ne/eAe).  Raises NotSplit when e = 1, and any
    AlgebraError of validating eAe.
    """
    n, dom = A.n, A.domain
    # diag(x) lies in A when sum x_i (E_ii reduced modulo A) = 0
    kern = kernel_basis(Mat(n * n, n, QQ if dom == ZZ else dom, {
        (t, i): v for i in range(n)
        for t, v in A._span._reduce({i * (n + 1): 1})[0].items()}))
    rows_of = {}
    for i in range(n):
        rows_of.setdefault(tuple(v[i] for v in kern), []).append(i)
    blocks = sorted(rows_of.values())
    block = {i: s for s, rows in enumerate(blocks) for i in rows}
    spans, pieces = {}, {}  # (s, t) -> a basis of f_s A f_t
    for a in A.basis:
        parts = {}
        for (i, j), v in a.items():
            parts.setdefault((block[i], block[j]), {})[(i, j)] = v
        for st, ent in parts.items():
            x = Mat(n, n, dom, ent)
            if spans.setdefault(st, _span_echelon([], dom)).add(_flat(x)):
                pieces.setdefault(st, []).append(x)

    def linked(s, r):
        span = _span_echelon([x.mul(y) for x in pieces.get((s, r), ())
                              for y in pieces.get((r, s), ())], dom)
        f = Mat(n, n, dom, {(i, i): 1 for i in blocks[s]})
        return _coords_in(span, dom, f) is not NoSolution

    reps = []
    for s in range(len(blocks)):
        if not any(linked(s, r) for r in reps):
            reps.append(s)
    if len(reps) == len(blocks):
        raise NotSplit("no diagonal idempotent e != 1 has AeA = A")
    at = {i: k for k, i in enumerate(sorted(i for r in reps
                                            for i in blocks[r]))}
    return verify_subalgebra(len(at), dom, [
        Mat(len(at), len(at), dom, {(at[i], at[j]): v
                                    for (i, j), v in x.items()})
        for s in reps for t in reps for x in pieces.get((s, t), ())],
        name="corner of %s" % (A.name or "A"))


# ---------------------------------------------------------------------------
# constructions


def transpose_algebra(A):
    basis = [b.transpose() for b in A.basis]
    name = None
    if A.name:
        name = "t(%s)" % A.name
    out = verify_subalgebra(A.n, A.domain, basis, name=name)
    return out


def conjugate_algebra(A, P):
    if not isinstance(P, Mat):
        P = Mat.from_rows(P, A.domain)
    if P.domain != A.domain:
        P = P.change_domain(A.domain)
    Pinv = mat_inverse(P)
    basis = [Pinv.mul(b).mul(P) for b in A.basis]
    name = "conj(%s)" % A.name if A.name else None
    return verify_subalgebra(A.n, A.domain, basis, name=name)


def direct_product(A, B):
    if A.domain != B.domain:
        raise AlgebraError("factors live over different domains")
    n = A.n + B.n
    dom = A.domain
    basis = []
    for a in A.basis:
        basis.append(Mat(n, n, dom, dict(a.items())))
    for b in B.basis:
        basis.append(Mat(n, n, dom,
                         {(i + A.n, j + A.n): v for (i, j), v in b.items()}))
    name = None
    if A.name and B.name:
        name = "%sx%s" % (A.name, B.name)
    return verify_subalgebra(n, dom, basis, name=name)


# ---------------------------------------------------------------------------
# catalog

_SHAPES_DEG2 = {
    "M2": ["* *", "* *"],
    "B2": ["* *", "0 *"],
    "D2": ["* 0", "0 *"],
    "N2": ["a b", "0 a"],
    "C2": ["a 0", "0 a"],
}

_SHAPES_DEG3 = {
    "M3": ["* * *", "* * *", "* * *"],
    "P21": ["* * *", "* * *", "0 0 *"],
    "P12": ["* * *", "0 * *", "0 * *"],
    "B3": ["* * *", "0 * *", "0 0 *"],
    "M2xD1": ["* * 0", "* * 0", "0 0 *"],
    "S10": ["a b c", "0 a d", "0 0 e"],
    "S11": ["a b c", "0 e d", "0 0 a"],
    "S12": ["a b c", "0 e d", "0 0 e"],
    "S13": ["* * *", "0 * 0", "0 0 *"],
    "S14": ["* 0 *", "0 * *", "0 0 *"],
    "B2xD1": ["* * 0", "0 * 0", "0 0 *"],
    "N3": ["a b c", "0 a d", "0 0 a"],
    "S6": ["a c d", "0 a 0", "0 0 b"],
    "S7": ["a 0 c", "0 a d", "0 0 b"],
    "S8": ["a c d", "0 b 0", "0 0 b"],
    "S9": ["a 0 c", "0 b d", "0 0 b"],
    "D3": ["* 0 0", "0 * 0", "0 0 *"],
    "N2xD1": ["a c 0", "0 a 0", "0 0 b"],
    "J3": ["a b c", "0 a b", "0 0 a"],
    "S2": ["a 0 0", "0 a c", "0 0 b"],
    "S3": ["a 0 c", "0 b 0", "0 0 b"],
    "S4": ["a b c", "0 a 0", "0 0 a"],
    "S5": ["a 0 b", "0 a c", "0 0 a"],
    "C2xD1": ["a 0 0", "0 a 0", "0 0 b"],
    "S1": ["a b 0", "0 a 0", "0 0 a"],
    "C3": ["a 0 0", "0 a 0", "0 0 a"],
}

CATALOG_DEG2 = tuple(_SHAPES_DEG2)
CATALOG_DEG3 = tuple(_SHAPES_DEG3)

TRANSPOSE_PARTNER = {
    "M2": "M2", "B2": "B2", "D2": "D2", "N2": "N2", "C2": "C2",
    "M3": "M3", "P21": "P12", "P12": "P21", "B3": "B3", "M2xD1": "M2xD1",
    "S10": "S12", "S12": "S10", "S11": "S11", "S13": "S14", "S14": "S13",
    "B2xD1": "B2xD1", "N3": "N3", "S6": "S9", "S9": "S6", "S7": "S8",
    "S8": "S7", "D3": "D3", "N2xD1": "N2xD1", "J3": "J3", "S2": "S3",
    "S3": "S2", "S4": "S5", "S5": "S4", "C2xD1": "C2xD1", "S1": "S1",
    "C3": "C3",
}


def _shape_basis(rows, domain):
    n = len(rows)
    grid = [r.split() for r in rows]
    if any(len(g) != n for g in grid):
        raise BadParams("shape rows must have %d entries" % n)
    groups = {}
    order = []
    for i in range(n):
        for j in range(n):
            sym = grid[i][j]
            if sym == "0":
                continue
            key = ("*", i, j) if sym == "*" else sym
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append((i, j))
    return [Mat(n, n, domain, {p: 1 for p in groups[k]}) for k in order]


def _jn_basis(n, domain):
    x = Mat(n, n, domain, {(i, i + 1): 1 for i in range(n - 1)})
    basis = [Mat.identity(n, domain)]
    cur = x
    for _ in range(n - 1):
        basis.append(cur)
        cur = cur.mul(x)
    return basis


def _parabolic_basis(parts, domain):
    n = sum(parts)
    if n <= 0 or any(p <= 0 for p in parts):
        raise BadParams("block sizes must be positive")
    block = []
    for b, p in enumerate(parts):
        block.extend([b] * p)
    basis = []
    for i in range(n):
        for j in range(n):
            if block[i] <= block[j]:
                basis.append(_unit_matrix(n, i, j, domain))
    return basis, n


def _catalog_key(name):
    """A catalog name spelled as the catalog keys it ("m2_x,d1" -> "M2xD1")."""
    return (str(name).strip().upper().replace(",", "").replace("_", "")
            .replace("X", "x"))


def catalog(name, domain, params=None):
    """A named subalgebra (table entries and the classical families)."""
    key = _catalog_key(name)
    if key in _SHAPES_DEG2 or key in _SHAPES_DEG3:
        shapes = _SHAPES_DEG2.get(key) or _SHAPES_DEG3.get(key)
        A = verify_subalgebra(len(shapes), domain,
                              _shape_basis(shapes, domain), name=key)
        if key == "J3":
            A.meta["family"] = ("J", 3)
        return A
    fam = key
    if params is None and len(key) > 1 and key[0] in "MBDCJ" and key[1:].isdigit():
        fam, params = key[0], int(key[1:])
    if key.startswith("P") and params is None and key[1:].isdigit():
        fam, params = "P", tuple(int(c) for c in key[1:])
    if params is None:
        raise UnknownName("unknown catalog name %r" % (name,))
    if fam in ("J", "M", "B", "D", "C"):
        n = int(params)
        least = 2 if fam == "J" else 1
        if n < least:
            raise BadParams("%s_n needs n >= %d" % (fam, least))
    if fam == "J":
        A = verify_subalgebra(n, domain, _jn_basis(n, domain), name="J%d" % n)
        A.meta["family"] = ("J", n)
        return A
    if fam in ("M", "B"):
        basis, _ = _parabolic_basis((n,) if fam == "M" else (1,) * n, domain)
        return verify_subalgebra(n, domain, basis, name=fam + str(n))
    if fam == "D":
        basis = [_unit_matrix(n, i, i, domain) for i in range(n)]
        return verify_subalgebra(n, domain, basis, name="D%d" % n)
    if fam == "C":
        return verify_subalgebra(n, domain, [Mat.identity(n, domain)],
                                 name="C%d" % n)
    if fam == "P":
        parts = tuple(int(p) for p in (params if hasattr(params, "__iter__")
                                       else (params,)))
        basis, n = _parabolic_basis(parts, domain)
        return verify_subalgebra(
            n, domain, basis, name="P" + "".join(str(p) for p in parts))
    raise UnknownName("unknown catalog name %r" % (name,))


def catalog_info(name):
    """Static facts recorded for a fixed catalog entry."""
    key = _catalog_key(name)
    table = {}
    table.update({k: 2 for k in CATALOG_DEG2})
    table.update({k: 3 for k in CATALOG_DEG3})
    if key not in table:
        raise UnknownName("no table entry named %r" % (name,))
    d = {"M2": 4, "B2": 3, "D2": 2, "N2": 2, "C2": 1,
         "M3": 9, "P21": 7, "P12": 7, "B3": 6, "M2xD1": 5, "S10": 5,
         "S11": 5, "S12": 5, "S13": 5, "S14": 5, "B2xD1": 4, "N3": 4,
         "S6": 4, "S7": 4, "S8": 4, "S9": 4, "D3": 3, "N2xD1": 3, "J3": 3,
         "S2": 3, "S3": 3, "S4": 3, "S5": 3, "C2xD1": 2, "S1": 2, "C3": 1}
    return {"name": key, "degree": table[key], "d": d[key],
            "transpose": TRANSPOSE_PARTNER[key]}

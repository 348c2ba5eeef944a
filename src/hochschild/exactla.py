"""Exact linear algebra over the rationals, prime fields and the integers.

Everything downstream (cochain differentials, normalizer systems, torsion
extraction) reduces to four primitives on exact matrices:

    rank            -- over a field, by sparse elimination
    kernel_basis    -- reduced-echelon normalized over a field; over Z, that
                       basis of m over Q, saturated to a lattice basis
    solve           -- over a field, free variables set to 0
    smith_normal_form -- over the integers, invariant factors d1 | d2 | ...
                       (no transforms)

plus `Echelon`, an echelon form of a spanning set kept with its transform,
for reading many coordinate vectors in one fixed basis.  kernel_basis and
solve (and algebra.mat_inverse) feed m's columns to one Echelon, over Q
for an integer m, left to right: the columns it keeps are the leftmost
independent set, the pivot columns of the reduced row echelon form, and
the coordinates over them of the other columns, or of the right-hand side,
are the answer.  Over Z the kernel vectors e_f - sum c_k e_{kept_k} are
then saturated in place by unimodular steps, one kept position at a time:
no transform matrix is ever formed.

A coordinate vector has one sparse format, {index: nonzero normalized
scalar}: Echelon.coords returns it (the zero vector is {}), and the
structure constants and pairings of `algebra` store it, so no reader
filters zeros again.  A matrix is stored as compressed columns (Saad,
Iterative Methods for Sparse Linear Systems, 3.4): the rows of its
nonzero entries, column after column, in one row store, their values in
one list, and the start of each column in the row store, with a last
start at its end, so complexes are built, multiplied and eliminated
column by column.  A column keeps its rows in the order they were given.
Past 4096 entries (_CHUNK) the rows and starts are arrays of 4-byte ints
(8 where an index may pass 2^31), a tenth of the memory of dicts with int
keys; up to it they stay lists, cheaper to build for the many small
matrices of a table.  Only the vectors that reach the eliminator or the dense
Smith core are made into dicts again.  Scalars over Q are `int` when
integral and `Fraction` otherwise (arithmetic may leave a `Fraction` with
denominator 1, which equals and hashes like its int); over Z they are
plain `int`, and over F_p residues in [0, p).  A domain has no arithmetic
of its own beyond `inv`: callers compute with plain + - * and int
literals, then pass the result through `domain.normalize`, which reduces
it (mod p over F_p, to an int when integral over Q) and rejects what the
domain cannot hold.  `Mat(...)` and `Mat.from_columns` take raw values and
normalize each once; a builder whose columns are already in normal form
hands them, one dict at a time, to `Mat._adopt`, which packs each as it
comes, so the builder holds one column dict at a time.  `Mat.mul_is_zero`
decides whether a product is zero one column at a time and stores no
product; over F_2, where every stored value is 1, it counts the rows of
each product column in C and tests their parity.  Rank over Q is
fraction-free: rows are scaled to integers and updated by two-term
integer combinations with gcd stripping, so intermediate swell stays
bounded by minors of the input.

Pivot choices are deterministic.  rank and the sparse phase of
smith_normal_form take the stored columns of m as their vectors (rank and
the invariant factors of m and m^T agree, and the differentials are tall,
so these are the fewer, longer vectors).  A peel goes first (the weight-1
columns of structured Gaussian elimination, LaMacchia and Odlyzko, 1990;
the apparent pairs of Ripser, Bauer, 2021): one sweep in index order takes
each vector that alone holds some position, at the least such position,
with no update and no column index.  It is exact.  Over a field no other
vector is nonzero there, so this one lies outside their span and adds 1
to their rank.  Over Z a +-1 there clears the rest of the vector by
unimodular steps, splitting off 1 (+) m'; a larger entry need not divide
the rest, so it is never taken and stays for the eliminator and the dense
core.  The peel reads the packed store: the holders of each position are
counted in a list indexed by row (a dict would cost several times its
memory), each column's least private position is found in one loop over
its rows, and only the columns it leaves are made into dicts.

The vectors left go to one eliminator.  The pivot row is the shortest
eligible row, ties broken by index, popped from a lazy min-heap instead of
found by a scan.  Within that row the pivot is the eligible entry whose
column is shortest, where eligible means +-1 over Z and in the first phase
of rank over Q, and any nonzero entry over F_p.  Column lengths come from
an index of the rows holding each column, kept as a list per column: a
list costs a fraction of a set's memory, and no row is ever listed twice.
Rows left without a unit take the entry of least magnitude in the second
phase of rank over Q, and go to a small dense Smith form over Z.  Pivot
order affects speed only, never the answer.

rank and smith_normal_form leave out the stored columns named in `skip`
and report their pivot positions in `pivots`, for clearing (Chen and
Kerber, Persistent homology computation with a twist, 2011): each pivot
vector is a combination of the eliminated vectors, with its pivot entry
nonzero and zeros at the positions taken before it (a peeled position is
held by no vector left, and no update brings it back).  Over a field every
pivot is reported, peeled or not; over Z only the +-1 pivots of the peel
and the sparse phase, which make a unimodular change of basis, and never
those of the dense core.

>>> m = Mat.from_rows([[1, 1]], QQ)
>>> kernel_basis(m)
[(-1, 1)]
>>> kernel_basis(Mat.from_rows([[2, 3]], ZZ))
[(-3, 2)]
>>> smith_normal_form(Mat.from_rows([[2, 4], [6, 8]], ZZ)).invariant_factors
(2, 4)
"""

from array import array
from collections import _count_elements, namedtuple
from fractions import Fraction
from heapq import heapify, heappop, heappush
from itertools import count, islice
from math import gcd, lcm


class DomainNotField(TypeError):
    """Raised when a field-only operation is applied over the integers."""


class _NoSolution:
    """Sentinel returned by solve() for inconsistent systems."""

    def __repr__(self):
        return "NoSolution"

    def __bool__(self):
        return False


NoSolution = _NoSolution()


# ---------------------------------------------------------------------------
# coefficient domains


class _Rationals:
    is_field = True
    characteristic = 0
    name = "Q"

    def normalize(self, x):
        if type(x) is int:
            return x
        if not isinstance(x, Fraction):
            x = Fraction(x)
        return x.numerator if x.denominator == 1 else x

    def inv(self, a):
        return self.normalize(Fraction(1) / a)

    def __repr__(self):
        return "QQ"


class _Integers:
    is_field = False
    characteristic = 0
    name = "Z"

    def normalize(self, x):
        if type(x) is int:
            return x
        if isinstance(x, Fraction):
            if x.denominator != 1:
                raise ValueError("non-integer value %r over Z" % (x,))
            return x.numerator
        return int(x)

    def inv(self, a):
        raise DomainNotField("Z is not a field")

    def __repr__(self):
        return "ZZ"


# Miller-Rabin to the bases 2, 3, ..., 41 decides primality below this
# bound (Sorenson and Webster, Math. Comp. 86, 2017)
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3317044064679887385961981


def _is_prime(p):
    """Whether p is prime, decided by deterministic Miller-Rabin; a p at
    or above _PRIME_BOUND raises ValueError instead."""
    if p >= _PRIME_BOUND:
        raise ValueError("%r is too large: primality is decided only below "
                         "%d" % (p, _PRIME_BOUND))
    if p < 2:
        return False
    if any(p % a == 0 for a in _PRIME_BASES):
        return p in _PRIME_BASES
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _PRIME_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


class GF:
    """The prime field F_p; values are residues in [0, p)."""

    is_field = True
    name = "Fp"

    def __init__(self, p):
        if not _is_prime(p):
            raise ValueError("%r is not prime" % (p,))
        self.p = p
        self.characteristic = p

    def normalize(self, x):
        if type(x) is int:
            return x % self.p
        if isinstance(x, Fraction):
            den = x.denominator % self.p
            if den == 0:
                raise ZeroDivisionError("denominator divisible by %d" % self.p)
            return x.numerator * pow(den, self.p - 2, self.p) % self.p
        return int(x) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero in F_%d" % self.p)
        return pow(a, self.p - 2, self.p)

    def __eq__(self, other):
        return isinstance(other, GF) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return "GF(%d)" % self.p


QQ = _Rationals()
ZZ = _Integers()


# ---------------------------------------------------------------------------
# matrices


class Mat:
    """Immutable-by-convention sparse matrix over one coefficient domain,
    stored as compressed columns: column j holds the rows _row[a:b] with
    the values _val[a:b], for a, b = _start[j], _start[j + 1]."""

    __slots__ = ("rows", "cols", "domain", "_start", "_row", "_val")

    def __init__(self, rows, cols, domain, entries=None):
        """Matrix from a map (row, col) -> value.

        Values may be raw sums of domain values built with plain + and *;
        each is normalized once, zeros are dropped and every kept key must
        lie in range.
        """
        self.rows = rows
        self.cols = cols
        self.domain = domain
        by_col = {}
        if entries:
            norm = domain.normalize
            for (i, j), v in entries.items():
                # a falsy raw value is zero in every domain
                if v and (w := norm(v)):
                    by_col.setdefault(j, {})[i] = w
        self._pack(sorted(by_col.items()))
        if not self.rows_in_range():
            raise IndexError("entry outside a %dx%d matrix" % (rows, cols))

    def _normalized(self, columns):
        """{col: {row: value}} from (col, {row: raw value}) pairs, each
        value normalized once and no column empty; a later pair for a col
        wins."""
        norm = self.domain.normalize
        out = {}
        for j, raw in columns:
            col = {}
            for i, v in raw.items():
                if (w := norm(v)):
                    col[i] = w
            if col:
                out[j] = col
        return out

    def _pack(self, columns):
        """Fill the store from (col, {row: value}) pairs in increasing col
        order, every value in normal form and nonzero; a col left out, or
        with an empty dict, is empty.  Rows and column ends are gathered
        in lists, which are the store of a matrix of at most _CHUNK
        entries; a larger one moves them into arrays a chunk at a time."""
        rows, cols = self.rows, self.cols
        start = None
        val, ends, buf = [], [0], []
        n = 0  # the next col
        try:
            for j, col in columns:
                if j != n:
                    if not n < j < cols:
                        raise IndexError
                    ends += [len(val)] * (j - n)
                buf += col
                val += col.values()
                ends.append(len(val))
                n = j + 1
                if len(buf) > _CHUNK:
                    if start is None:
                        start, row = _indices(rows * cols), _indices(rows)
                    row.fromlist(buf)
                    start.fromlist(ends)
                    buf, ends = [], []
            if n != cols:
                if n > cols:
                    raise IndexError
                ends += [len(val)] * (cols - n)
            if start is None:
                start, row = ends, buf
            else:
                row.fromlist(buf)
                start.fromlist(ends)
        except (IndexError, OverflowError):
            raise IndexError("entry outside a %dx%d matrix"
                             % (rows, cols)) from None
        self._start, self._row, self._val = start, row, val

    @classmethod
    def _adopt(cls, rows, cols, domain, columns):
        """Matrix packed from (col, {row: value}) pairs as they come, with
        no normalization pass: the cols must increase, and each value must
        be in the domain's normal form and nonzero and each row in range,
        so a builder that yields one column at a time never holds them
        all."""
        m = cls.__new__(cls)
        m.rows, m.cols, m.domain = rows, cols, domain
        m._pack(columns)
        return m

    @classmethod
    def from_columns(cls, rows, cols, domain, columns):
        """Matrix from (col, {row: raw value}) pairs in any order (a later
        pair for a col wins), normalized as in Mat(); for builders whose
        rows are in range by construction (not checked: see
        rows_in_range)."""
        m = cls.__new__(cls)
        m.rows, m.cols, m.domain = rows, cols, domain
        m._pack(sorted(m._normalized(columns).items()))
        return m

    @classmethod
    def from_rows(cls, data, domain):
        rows = len(data)
        cols = len(data[0]) if rows else 0
        if any(len(row) != cols for row in data):
            raise ValueError("ragged rows")
        return cls(rows, cols, domain, {(i, j): v for i, row in enumerate(data)
                                        for j, v in enumerate(row)})

    @classmethod
    def zeros(cls, rows, cols, domain):
        return cls(rows, cols, domain)

    @classmethod
    def identity(cls, n, domain):
        return cls(n, n, domain, {(i, i): 1 for i in range(n)})

    def items(self):
        """The nonzero entries as ((row, col), value), column by column."""
        start, row, val = self._start, self._row, self._val
        t = 0
        for j, b in enumerate(islice(start, 1, None)):
            while t < b:
                yield (row[t], j), val[t]
                t += 1

    def rows_in_range(self):
        """Whether every stored row index lies in 0..rows-1."""
        row = self._row
        return not row or (0 <= min(row) and max(row) < self.rows)

    def columns(self):
        """The stored columns as new dicts, {col: {row: nonzero value}}."""
        start, row, val = self._start, self._row, self._val
        return {j: dict(zip(row[a:b], val[a:b]))
                for j, a, b in zip(count(), start, islice(start, 1, None))
                if a != b}

    def column(self, j):
        """Column j as a new dict {row: nonzero value}."""
        if 0 <= j < self.cols and (a := self._start[j]) != (
                b := self._start[j + 1]):
            return dict(zip(self._row[a:b], self._val[a:b]))
        return {}

    def entry(self, i, j):
        if not 0 <= j < self.cols:
            return 0
        try:
            return self._val[self._row.index(i, self._start[j],
                                             self._start[j + 1])]
        except ValueError:
            return 0

    def nnz(self):
        return len(self._val)

    def is_zero(self):
        return not self._val

    def transpose(self):
        return Mat(self.cols, self.rows, self.domain,
                   {(j, i): v for (i, j), v in self.items()})

    def change_domain(self, domain):
        return self._with_values(domain, self._val)

    def _with_values(self, domain, values):
        """Matrix over domain with self's positions and the given values, in
        store order, each normalized once; one that normalizes to zero is
        dropped.  With none dropped it shares self's index arrays, which no
        Mat modifies."""
        m = Mat.__new__(Mat)
        m.rows, m.cols, m.domain = self.rows, self.cols, domain
        val = list(map(domain.normalize, values))
        start, row = self._start, self._row
        if all(val):
            m._start, m._row, m._val = start, row, val
        else:
            m._pack((j, {i: v for i, v in zip(row[a:b], val[a:b]) if v})
                    for j, a, b in zip(count(), start, islice(start, 1, None)))
        return m

    def add(self, other):
        self._check_compatible(other)
        ent = dict(self.items())
        for k, v in other.items():
            ent[k] = ent.get(k, 0) + v
        return Mat(self.rows, self.cols, self.domain, ent)

    def scale(self, c):
        c = self.domain.normalize(c)
        return self._with_values(self.domain, [v * c for v in self._val])

    def _check_product(self, other):
        if self.cols != other.rows or self.domain != other.domain:
            raise ValueError("incompatible shapes/domains for product")

    def _product_columns(self, other):
        """(j, column j of self * other as {row: raw sum}) for each stored
        column j of other, one at a time, read from the stores by index
        (cheaper than slicing the short columns of most products)."""
        self._check_product(other)
        lstart, lrow, lval = self._start, self._row, self._val
        start, row, val = other._start, other._row, other._val
        for j, a, b in zip(count(), start, islice(start, 1, None)):
            if a != b:
                acc = {}
                get = acc.get
                for t in range(a, b):
                    k, w = row[t], val[t]
                    for s in range(lstart[k], lstart[k + 1]):
                        i = lrow[s]
                        acc[i] = get(i, 0) + lval[s] * w
                yield j, acc

    def mul(self, other):
        """self * other, column j being sum_k other[k, j] * self[:, k]."""
        return Mat._adopt(self.rows, other.cols, self.domain, self._normalized(
            self._product_columns(other)).items())

    def mul_is_zero(self, other):
        """Whether self * other is zero, decided one column at a time with
        no product stored: in characteristic 0 an exact sum is zero iff it
        is falsy, and over F_p each sum is reduced first.  Over F_2 every
        stored value is 1, so an entry is the parity of its number of
        terms, and the rows are counted in C."""
        p = self.domain.characteristic
        if p != 2:
            return not any(
                any(map(p.__rmod__, acc.values()) if p else acc.values())
                for _, acc in self._product_columns(other))
        self._check_product(other)
        lstart, lrow = self._start, self._row
        start, row = other._start, other._row
        for a, b in zip(start, islice(start, 1, None)):
            terms = {}
            for k in row[a:b]:
                _count_elements(terms, lrow[lstart[k]:lstart[k + 1]])
            if any(map((1).__and__, terms.values())):
                return False
        return True

    def apply(self, vec):
        """Matrix-vector product; vec is a sequence of length self.cols
        (ValueError otherwise)."""
        if len(vec) != self.cols:
            raise ValueError("vector length mismatch")
        dom = self.domain
        vec = [dom.normalize(x) for x in vec]
        out = [0] * self.rows
        for (i, j), v in self.items():
            out[i] += v * vec[j]
        return tuple(dom.normalize(x) for x in out)

    def _check_compatible(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch")
        if self.domain != other.domain:
            raise ValueError("domain mismatch")

    def __eq__(self, other):
        # a column keeps its rows in the order they were packed, so columns
        # that differ only in that order are compared as dicts; equal
        # matrices have the same column sizes, so both stores are lists or
        # both arrays
        return (isinstance(other, Mat)
                and (self.rows, self.cols) == (other.rows, other.cols)
                and self.domain == other.domain
                and self._start == other._start
                and (self._row == other._row and self._val == other._val
                     or self.columns() == other.columns()))

    def __hash__(self):
        return hash((self.rows, self.cols, frozenset(self.items())))

    def __repr__(self):
        return "Mat(%dx%d over %r, %d nonzero)" % (
            self.rows, self.cols, self.domain, self.nnz())


# the most entries a matrix keeps in lists: past it, rows and column starts
# are arrays of 4 bytes each instead of lists of 8-byte pointers to ints
_CHUNK = 4096


def _indices(bound):
    """An empty array for ints in 0..bound-1, of 4 bytes each when they
    fit, else 8."""
    return array("i" if bound <= 2 ** 31 else "q")


def _require_field(m):
    if not m.domain.is_field:
        raise DomainNotField(
            "operation needs a field; use smith_normal_form over Z")


# ---------------------------------------------------------------------------
# rank


def _strip_row_gcd(row):
    """row divided by the gcd of its entries; row itself when that is 1."""
    g = 0
    for v in row.values():
        g = gcd(g, abs(v))
        if g == 1:
            return row
    return {k: v // g for k, v in row.items()} if g > 1 else row


def _int_rows(rows):
    """Per-row integer scaling of rows over Q (rank is scaling-invariant).

    Rows of normalized values that are all int need no scaling; a scaled
    row is a new dict, so the rows passed in are never modified."""
    for i, row in rows.items():
        den = 1
        for v in row.values():
            if type(v) is not int:
                den = den * v.denominator // gcd(den, v.denominator)
        if den != 1:
            row = {j: int(v * den) for j, v in row.items()}
        rows[i] = _strip_row_gcd(row)
    return rows


def _eliminate(live, choose, update):
    """Sparse elimination on rows {index: {col: value}}.

    The map `live` is consumed in place, but no row dict in it is modified,
    so it may share its rows with a matrix: each update builds a new row.
    The pivot row is the shortest eligible row, ties broken by index, taken
    from a lazy min-heap keyed on (length, index): a popped entry is stale
    when its row is gone or has changed length, and every rewritten row is
    pushed afresh.  col_index lists, per column, the rows holding it: a row
    is appended only when an update brings the column in and removed when
    it loses it, so no row is listed twice and each list's length is the
    column's; the pivot column's list is dropped whole, as no row keeps
    that column.  choose(row, col_index) returns the row's pivot column, or
    None when the row is not eligible; update(prow, pj, trow) returns a new
    row: trow with column pj cleared, differing from trow only in columns
    of prow, and empty when nothing is left.  Returns the pivot columns, in
    the order taken, and the rows left over, none eligible.
    """
    col_index = {}
    for i, r in live.items():
        for j in r:
            col_index.setdefault(j, []).append(i)
    # heap keys are length * stride + index: ints order faster than tuples
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
        # column pj leaves every row, so its list is dropped, not edited
        others = [j for j in prow if j != pj]
        for j in others:
            col_index[j].remove(pi)
        for t in col_index.pop(pj):
            if t == pi:
                continue
            trow = live[t]
            new = update(prow, pj, trow)
            # an update changes a row only in the pivot row's columns
            for j in others:
                if j in new:
                    if j not in trow:
                        col_index[j].append(t)
                elif j in trow:
                    col_index[j].remove(t)
            if new:
                live[t] = new
                heappush(heap, len(new) * stride + t)
            else:
                del live[t]
    return pivots, live


def _axpy(trow, f, prow, p=None):
    """trow - f * prow as a new row, reduced mod p when p is given."""
    new = dict(trow)
    for j, v in prow.items():
        w = new.get(j, 0) - f * v
        if p is not None:
            w %= p
        if w:
            new[j] = w
        elif j in new:
            del new[j]
    return new


def _choose_smallest_entry(row, col_index):
    # smallest magnitude, then smallest column
    return min(row, key=lambda j: (abs(row[j]), j))


def _update_fraction_free(prow, pj, trow):
    # integer two-term update pv*trow - tv*prow, then strip the row gcd
    pv = prow[pj]
    return _strip_row_gcd(
        _axpy({j: pv * v for j, v in trow.items()}, trow[pj], prow))


def _update_mod(p):
    def update(prow, pj, trow):
        return _axpy(trow, trow[pj] * pow(prow[pj], p - 2, p) % p, prow, p)
    return update


def _choose_short_column(cols, col_index):
    # the column that is shortest, then smallest; over F_p every nonzero
    # entry is a unit, so every column of the row is eligible
    return min(cols, key=lambda j: (len(col_index[j]), j))


def _choose_unit(row, col_index):
    # the +-1 entry whose column is shortest
    units = [j for j, v in row.items() if v == 1 or v == -1]
    return _choose_short_column(units, col_index) if units else None


def _update_unit(prow, pj, trow):
    return _axpy(trow, trow[pj] * prow[pj], prow)  # pivot is +-1


def _peel(m, skip, units):
    """Take, in one sweep, the stored columns of m that alone hold a
    position, reading m's store directly.

    The columns with an index in skip are left out.  The others are visited
    once, in index order.  A column is taken at the least position that no
    other live column holds and where its entry is eligible (+-1 when
    `units`, else any nonzero); it leaves the live set and lowers the count
    of each position it holds, so a later column may find a position
    freed.  No vector is updated.  Returns the positions taken, in order,
    and {index: column dict} of the columns left, the only ones made into
    dicts: each taken column is zero at the positions taken before it, and
    so is every column left.
    """
    start, row, val = m._start, m._row, m._val
    skip = set(skip)
    # the holders of each position, in a list: a dict costs several times
    # its memory; the skipped columns are counted, then taken off
    held = [0] * m.rows
    for i in row:
        held[i] += 1
    for j in skip:
        if 0 <= j < m.cols:
            for i in row[start[j]:start[j + 1]]:
                held[i] -= 1
    taken, left = [], {}
    for j, a, b in zip(count(), start, islice(start, 1, None)):
        if a == b or j in skip:
            continue
        rows = row[a:b]
        least = None
        for i in rows:
            if held[i] == 1 and (least is None or i < least):
                least = i
        if units and least is not None and val[a + rows.index(least)] not in (
                1, -1):
            # the least private entry is no unit: look past it
            least = None
            for i, v in zip(rows, val[a:b]):
                if held[i] == 1 and (least is None or i < least) and (
                        v == 1 or v == -1):
                    least = i
        if least is None:
            left[j] = dict(zip(rows, val[a:b]))
        else:
            taken.append(least)
            for i in rows:
                held[i] -= 1
    return taken, left


def rank(m, skip=(), pivots=None):
    """Rank of a matrix over Q or F_p (DomainNotField over Z).

    The stored columns with an index in `skip` are left out; when `pivots`
    is a list, every pivot position (a row index of m) is appended to it.
    A stored column that alone holds some position is taken there by the
    peel, unscaled, and only the others reach the eliminator.
    """
    _require_field(m)
    # the stored columns are the eliminated vectors (rank = rank of m^T)
    taken, rows = _peel(m, skip, False)
    if isinstance(m.domain, GF):
        taken += _eliminate(rows, _choose_short_column,
                            _update_mod(m.domain.p))[0]
    else:
        # over Q the +-1 pivots go first, as in the Smith form; the rows
        # left have no unit entry and take the fraction-free rule
        ones, residual = _eliminate(_int_rows(rows), _choose_unit,
                                    _update_unit)
        taken += ones
        taken += _eliminate(residual, _choose_smallest_entry,
                            _update_fraction_free)[0]
    if pivots is not None:
        pivots.extend(taken)
    return len(taken)


# ---------------------------------------------------------------------------
# kernel and solve


def kernel_basis(m):
    """Basis of the right kernel {v : m v = 0}.

    Each column f outside the leftmost independent set gives e_f minus its
    coordinates over that set, the RREF-normalized basis (over Z, of m
    over Q).  An integral kernel vector v is the combination of these with
    the integer coefficients v[f], so over Z only the kept positions can
    be fractional; saturating them there gives a Z-basis of the kernel
    lattice, which is the RREF basis itself when that is integral.
    """
    ech, kept = _column_echelon(m.change_domain(QQ) if m.domain == ZZ else m)
    norm = ech.domain.normalize
    basis = []
    for f in sorted(set(range(m.cols)).difference(kept)):
        v = [0] * m.cols
        v[f] = 1
        for k, c in ech.coords(m.column(f)).items():
            v[kept[k]] = norm(-c)
        basis.append(v)
    if m.domain == ZZ:
        _saturate(basis, kept)
    return [tuple(v) for v in basis]


def _euclid_steps(vals):
    """Euclid steps on a list of ints, until at most one is nonzero.

    Each step vals[j] -= q * vals[i] (i != j) is applied, then yielded as
    (i, j, q) for the caller to mirror on whatever vals are read from.
    """
    while True:
        nz = [k for k, w in enumerate(vals) if w]
        if len(nz) < 2:
            return
        i = min(nz, key=lambda k: abs(vals[k]))
        for j in nz:
            if j != i:
                q = vals[j] // vals[i]
                vals[j] -= q * vals[i]
                yield i, j, q


def _saturate(basis, positions):
    """Make rational vectors a Z-basis of the integral points of their
    Z-span, in place.

    One position t at a time, with den the lcm of the denominators at t:
    Euclid steps on the integers den * v[t], mirrored as v_j -= q v_i,
    leave one vector nonzero at t, and it is scaled by
    den / gcd(den * v[t], den).  The steps are unimodular and the scaling
    keeps exactly the combinations integral at t, while positions done
    before stay integral.  Vectors must be integral outside `positions`;
    they end as lists of int.
    """
    for t in positions:
        den = 1
        for v in basis:
            den = lcm(den, v[t].denominator)
        if den == 1:
            continue
        vals = [int(v[t] * den) for v in basis]
        for i, j, q in _euclid_steps(vals):
            basis[j] = [x - q * y for x, y in zip(basis[j], basis[i])]
        g = next(k for k, w in enumerate(vals) if w)
        s = den // gcd(vals[g], den)
        basis[g] = [x * s for x in basis[g]]
    for k, v in enumerate(basis):
        basis[k] = [ZZ.normalize(x) for x in v]


class Echelon:
    """Echelon form of a growing set of independent sparse rows.

    add(row) reduces a {col: value} row against the recorded ones and keeps
    it when something nonzero is left; kept rows form the basis, numbered
    in the order they were kept.  Each echelon row is 1 at its pivot column
    and 0 at the pivot columns of the rows before it, and carries its
    transform: its coordinates in that basis.  One pass over the echelon
    rows in order clears a vector at every pivot column; the vector lies in
    the span exactly when nothing is left, and the multiples taken, through
    the transforms, are its coordinates.  Over a field only.
    """

    def __init__(self, domain):
        if not domain.is_field:
            raise DomainNotField("echelon form needs a field")
        self.domain = domain
        self.rank = 0
        self._p = getattr(domain, "p", None)
        self._rows = []  # (pivot column, echelon row, transform)

    def _reduce(self, row):
        """(row minus a combination of echelon rows, zero at every pivot
        column; the combination's coordinates in the basis)."""
        norm, p = self.domain.normalize, self._p
        rest = {j: w for j, v in row.items() if (w := norm(v))}
        comb = {}
        for col, erow, trans in self._rows:
            f = rest.get(col)
            if f:
                rest = _axpy(rest, f, erow, p)
                comb = _axpy(comb, -f, trans, p)
        return rest, comb

    def add(self, row):
        """Record row when it is independent of the basis; True if it was."""
        rest, comb = self._reduce(row)
        if not rest:
            return False
        col = min(rest)
        norm, inv = self.domain.normalize, self.domain.inv(rest[col])
        # rest = row - comb, and row is basis vector number self.rank
        trans = _axpy({self.rank: 1}, 1, comb, self._p)
        self._rows.append((col, {j: norm(inv * v) for j, v in rest.items()},
                           {k: norm(inv * v) for k, v in trans.items()}))
        self.rank += 1
        return True

    def copy(self):
        """A new Echelon on the same recorded rows (never modified in place),
        which grows apart from this one."""
        out = Echelon(self.domain)
        out.rank, out._rows = self.rank, list(self._rows)
        return out

    def coords(self, row):
        """Coordinates of row in the recorded basis as {index: nonzero
        normalized scalar}, or NoSolution.  The zero vector is {}, which is
        falsy like NoSolution: test the result with `is NoSolution`."""
        rest, comb = self._reduce(row)
        if rest:
            return NoSolution
        norm = self.domain.normalize
        return {k: norm(v) for k, v in comb.items()}


def _column_echelon(m):
    """An Echelon of m's columns fed left to right, and the columns it kept.

    The kept columns are the leftmost independent set, which are the pivot
    columns of the reduced row echelon form of m; coords() then gives the
    unique combination of them equal to any vector in the column space.
    """
    _require_field(m)
    ech = Echelon(m.domain)
    return ech, [j for j in range(m.cols) if ech.add(m.column(j))]


def solve(m, rhs):
    """One solution of m x = rhs (free variables set to 0), or NoSolution.

    The solution is rhs's coordinates over the leftmost independent columns.
    """
    if len(rhs) != m.rows:
        raise ValueError("rhs length mismatch")
    ech, kept = _column_echelon(m)
    c = ech.coords(dict(enumerate(rhs)))
    if c is NoSolution:
        return NoSolution
    x = [0] * m.cols
    for k, v in c.items():
        x[kept[k]] = v
    return tuple(x)


# ---------------------------------------------------------------------------
# Smith normal form


SmithForm = namedtuple("SmithForm", "invariant_factors rank")


def _snf_dense(m, ncols):
    """Classic elementary-operation SNF on a dense integer matrix.

    Pivot = nonzero entry of minimal absolute value (ties: smallest row,
    then column).  The pivot is grown to divide everything that remains
    before being recorded, so the divisibility chain holds by construction.
    m (a list of ncols-long int lists) is reduced in place.  Returns the
    invariant factors.
    """
    nrows = len(m)

    def swap_cols(a, b):
        for row in m:
            row[a], row[b] = row[b], row[a]

    def addmul_row(dst, src, q):
        m[dst] = [x - q * y for x, y in zip(m[dst], m[src])]

    factors = []
    top = 0
    while top < min(nrows, ncols):
        best = None
        for i in range(top, nrows):
            for j in range(top, ncols):
                v = m[i][j]
                if v and (best is None or (abs(v), i, j) < best):
                    best = (abs(v), i, j)
        if best is None:
            break
        _, bi, bj = best
        m[top], m[bi] = m[bi], m[top]
        swap_cols(top, bj)
        while True:
            piv = m[top][top]
            # clear the pivot column, then the pivot row; a remainder
            # becomes the new pivot and the clearing starts over
            for i in range(top + 1, nrows):
                if m[i][top]:
                    q = m[i][top] // piv
                    if q:
                        addmul_row(i, top, q)
                    if m[i][top]:
                        m[top], m[i] = m[i], m[top]
                        break
            else:
                for j in range(top + 1, ncols):
                    if m[top][j]:
                        q = m[top][j] // piv
                        if q:
                            for row in m:
                                row[j] -= q * row[top]
                        if m[top][j]:
                            swap_cols(top, j)
                            break
                else:
                    # pivot must divide the remaining block
                    off = next((i for i in range(top + 1, nrows)
                                for j in range(top + 1, ncols)
                                if m[i][j] % piv), None)
                    if off is None:
                        break
                    addmul_row(top, off, -1)
        factors.append(abs(m[top][top]))
        top += 1
    return factors


def smith_normal_form(m, skip=(), pivots=None):
    """Invariant factors of an integer matrix.

    The stored columns with an index in `skip` are left out; when `pivots`
    is a list, the positions of the +-1 pivots of the peel and the sparse
    phase are appended to it, and not those of the dense core.  The peel
    takes a stored column only at a +-1 that no other column holds.
    """
    if m.domain != ZZ:
        raise DomainNotField("smith_normal_form expects a Z matrix")
    # a +-1 pivot divides everything, so unit pivots go first, sparsely;
    # what is left has no unit entry and goes to the dense core
    # the stored columns are the eliminated vectors: the invariant factors
    # of m and m^T agree
    ones, rows = _peel(m, skip, True)
    more, residual = _eliminate(rows, _choose_unit, _update_unit)
    ones += more
    if pivots is not None:
        pivots.extend(ones)
    factors = [1] * len(ones)
    if residual:
        # compact the residual block densely
        rkeys = sorted(residual)
        ckeys = sorted({j for r in residual.values() for j in r})
        cmap = {j: k for k, j in enumerate(ckeys)}
        dense = [[0] * len(ckeys) for _ in rkeys]
        for a, i in enumerate(rkeys):
            for j, v in residual[i].items():
                dense[a][cmap[j]] = v
        factors.extend(_snf_dense(dense, len(ckeys)))
    return SmithForm(tuple(factors), len(factors))

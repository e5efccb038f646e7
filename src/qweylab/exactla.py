"""Exact linear algebra over the coefficient fields.

One sparse format serves every matrix and every linear system.  A `Mat` maps
a row index to a `Row`, and a `Row` maps a column index to a nonzero scalar;
zero rows and zero entries are never stored, and an absent row or entry
reads back as zero (`m[r][c]`).  The products, powers, Kronecker products
and matrix-vector products below touch stored entries only, so their cost
follows the number of nonzeros, not the dimension.  Vectors are
plain dicts in the same layout as a row.

Kernels, ranks and spans go through `SparseEliminator`, an incremental
row-echelon accumulator over the same row layout; a stored row leaves its
pivot entry, always one, implicit.  `sparse_kernel` makes a system small
before it eliminates it: it drops the unknowns that single-unknown rows
force to zero, then eliminates each connected component of the rest on its
own.  Both steps keep the kernel and its basis exactly, so every answer is
the one that one elimination of the whole system gives.
"""

from __future__ import annotations

from .errors import ParameterError
from .scalars import Field, Scalar, binary_power

Vec = dict[int, Scalar]


# ---------------------------------------------------------------------------
# Sparse matrices
# ---------------------------------------------------------------------------


class Row(dict):
    """One matrix row, column -> nonzero scalar; an absent column reads as zero."""

    __slots__ = ("zero",)

    def __init__(self, zero: Scalar, entries=()):
        super().__init__(entries)
        self.zero = zero

    def __missing__(self, col):
        return self.zero


class Mat(dict):
    """An nrows x ncols matrix over a field: row index -> `Row` of its nonzero
    entries.  An absent row reads as an empty row."""

    __slots__ = ("nrows", "ncols", "field")

    def __init__(self, nrows: int, ncols: int, field: Field, rows=()):
        super().__init__(rows)
        self.nrows = nrows
        self.ncols = ncols
        self.field = field

    def __missing__(self, r):
        return Row(self.field.zero)


def matrix(nrows: int, ncols: int, field: Field, entries) -> Mat:
    """The matrix with the given {(row, col): scalar} entries; zeros are dropped."""
    out = Mat(nrows, ncols, field)
    for (r, c), v in entries.items():
        if not v.is_zero():
            row = out.get(r)
            if row is None:
                row = out[r] = Row(field.zero)
            row[c] = v
    return out


def identity(n: int, field: Field) -> Mat:
    one, zero = field.one, field.zero
    return Mat(n, n, field, {i: Row(zero, {i: one}) for i in range(n)})


def _add_into(acc: dict, row: dict, f: Scalar | None = None):
    """acc += f * row (f = None means 1) in place, dropping cancelled entries.
    f and the entries of row are nonzero, so a new entry needs no zero test."""
    for c, v in row.items():
        t = v if f is None else f * v
        cur = acc.get(c)
        if cur is None:
            acc[c] = t
        else:
            s = cur + t
            if s.is_zero():
                del acc[c]
            else:
                acc[c] = s


def mat_mul(a: Mat, b: Mat) -> Mat:
    if a.ncols != b.nrows:
        raise ParameterError("matrix shapes do not match for a product")
    zero = a.field.zero
    out = Mat(a.nrows, b.ncols, a.field)
    for i, arow in a.items():
        acc = Row(zero)
        for k, av in arow.items():
            brow = b.get(k)
            if brow is not None:
                _add_into(acc, brow, av)
        if acc:
            out[i] = acc
    return out


def mat_add(a: Mat, b: Mat) -> Mat:
    zero = a.field.zero
    out = Mat(a.nrows, a.ncols, a.field, {r: Row(zero, row) for r, row in a.items()})
    for r, brow in b.items():
        row = out.get(r)
        if row is None:
            out[r] = Row(zero, brow)
        else:
            _add_into(row, brow)
            if not row:
                del out[r]
    return out


def mat_scale(a: Mat, c: Scalar) -> Mat:
    """c * a, a new matrix with new rows."""
    zero = a.field.zero
    out = Mat(a.nrows, a.ncols, a.field)
    if not c.is_zero():
        for r, row in a.items():
            out[r] = Row(zero, {k: v * c for k, v in row.items()})
    return out


def mat_eq(a: Mat, b: Mat) -> bool:
    return a.nrows == b.nrows and a.ncols == b.ncols and a == b


def mat_pow(a: Mat, e: int) -> Mat:
    """a^e for e >= 0, always a new matrix: callers hold cached rep matrices."""
    if e == 1:
        return mat_scale(a, a.field.one)
    return binary_power(a, e, identity(a.nrows, a.field), mat_mul)


def kron(a: Mat, b: Mat) -> Mat:
    rb, cb = b.nrows, b.ncols
    zero = a.field.zero
    out = Mat(a.nrows * rb, a.ncols * cb, a.field)
    for i, arow in a.items():
        for k, brow in b.items():
            out[i * rb + k] = Row(
                zero,
                {j * cb + m: av * bv for j, av in arow.items() for m, bv in brow.items()},
            )
    return out


def scalar_of_identity(a: Mat) -> Scalar | None:
    """The scalar c with a = c * Id, or None if a is not scalar."""
    if a.nrows != a.ncols:
        return None
    if not a:
        return a.field.zero
    c = a.get(0, {}).get(0)
    if c is None:
        return None
    for r in range(a.nrows):
        row = a.get(r)
        if row is None or len(row) != 1 or row.get(r) != c:
            return None
    return c


def mat_vec(m: Mat, v: Vec) -> Vec:
    out = {}
    for r, row in m.items():
        acc = None
        for c, x in row.items():
            y = v.get(c)
            if y is not None:
                term = x * y
                acc = term if acc is None else acc + term
        if acc is not None and not acc.is_zero():
            out[r] = acc
    return out


# ---------------------------------------------------------------------------
# Sparse elimination
# ---------------------------------------------------------------------------


class SparseEliminator:
    """Incremental row-echelon accumulator over a field.

    Rows are dicts column -> nonzero scalar.  Each stored row is normalized
    to have coefficient one at its pivot (the smallest column index present
    at insertion time), so rank queries and span membership are exact.  That
    one is implicit: ``rows`` maps the pivot column to the row's other
    entries, so reducing by a row forms no product with its pivot.
    """

    def __init__(self, field: Field):
        self.field = field
        self.rows: dict[int, dict[int, Scalar]] = {}  # pivot col -> row

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _reduce(self, vec: dict[int, Scalar]) -> dict[int, Scalar]:
        vec = {c: v for c, v in vec.items() if not v.is_zero()}
        while vec:
            col = min(vec)
            row = self.rows.get(col)
            if row is None:
                return vec
            # the implicit pivot one cancels vec[col]
            _add_into(vec, row, -vec.pop(col))
        return vec

    def add(self, vec: dict[int, Scalar]) -> bool:
        """Insert a vector; returns True if it enlarged the span."""
        red = self._reduce(vec)
        if not red:
            return False
        col = min(red)
        inv = red.pop(col).inv()
        self.rows[col] = {c: v * inv for c, v in red.items()}
        return True

    def contains(self, vec: dict[int, Scalar]) -> bool:
        return not self._reduce(vec)


def sparse_kernel(rows, ncols: int, field: Field) -> list[dict[int, Scalar]]:
    """Basis of the right kernel of the given constraint rows.

    Rows are dicts column -> scalar; returns kernel vectors in the same
    format, one per free column, ordered by free column.  Each vector is the
    unique kernel vector with a one at its free column and zeros at every
    other free column; its keys are the free column, then the nonzero
    pivots in decreasing order.

    The system is split before it is eliminated, and neither step changes
    the kernel or the free columns:

    * a row with a single unknown forces that unknown to zero, which is then
      a pivot whose value is zero; it is dropped from every row, and this
      repeats until no single-unknown row is left;
    * the remaining rows fall into connected components (rows that share an
      unknown are connected), and one `SparseEliminator` per component
      reduces its rows.  A component's pivots are those of the whole system
      on its columns, so back-substitution within it gives the same vectors.
    """
    rows = [{c: v for c, v in row.items() if not v.is_zero()} for row in rows]
    by_col: dict[int, list[int]] = {}
    for k, row in enumerate(rows):
        for c in row:
            by_col.setdefault(c, []).append(k)
    seen = set(by_col)
    # forced zeros
    queue = [k for k, row in enumerate(rows) if len(row) == 1]
    while queue:
        row = rows[queue.pop()]
        if len(row) != 1:
            continue  # emptied since it was queued
        (col,) = row
        for k in by_col.pop(col):
            other = rows[k]
            del other[col]
            if len(other) == 1:
                queue.append(k)
    # components, by union-find over the columns
    parent = {c: c for c in by_col}

    def root(c):
        while parent[c] != c:
            parent[c] = parent[parent[c]]
            c = parent[c]
        return c

    for row in rows:
        if row:
            it = iter(row)
            first = root(next(it))
            for c in it:
                rc = root(c)
                if rc != first:
                    parent[rc] = first
    components: dict[int, list[dict[int, Scalar]]] = {}
    for row in rows:
        if row:
            components.setdefault(root(next(iter(row))), []).append(row)
    basis = {}
    for block in components.values():
        elim = SparseEliminator(field)
        for row in block:
            elim.add(row)
        pivots = sorted(elim.rows, reverse=True)
        cols = {c for row in block for c in row}
        for free in sorted(cols.difference(elim.rows)):
            # back-substitute in decreasing pivot order
            vec = {free: field.one}
            for p in pivots:
                acc = None
                for c, v in elim.rows[p].items():
                    xv = vec.get(c)
                    if xv is None:
                        continue
                    term = v * xv
                    acc = term if acc is None else acc + term
                if acc is not None and not acc.is_zero():
                    vec[p] = -acc
            basis[free] = vec
    # a column in no row is free and unconstrained
    return [
        basis.get(free) or {free: field.one}
        for free in range(ncols)
        if free in basis or free not in seen
    ]


# ---------------------------------------------------------------------------
# Integer matrices
# ---------------------------------------------------------------------------


def column_hnf(a: list[list[int]]):
    """Column-style Hermite normal form of an integer matrix.

    Returns (H, U, pivots) with H = A U, U invertible over the integers, pivots the list of
    (row, col) pivot positions; pivot entries are positive and the other
    entries on a pivot row are reduced to [0, pivot).
    """
    n = len(a)
    d = len(a[0]) if n else 0
    h = [list(row) for row in a]
    u = [[1 if i == j else 0 for j in range(d)] for i in range(d)]

    def col_op(j, k, f):
        # col_j -= f * col_k
        for i in range(n):
            h[i][j] -= f * h[i][k]
        for i in range(d):
            u[i][j] -= f * u[i][k]

    def swap(j, k):
        for i in range(n):
            h[i][j], h[i][k] = h[i][k], h[i][j]
        for i in range(d):
            u[i][j], u[i][k] = u[i][k], u[i][j]

    def negate(j):
        for i in range(n):
            h[i][j] = -h[i][j]
        for i in range(d):
            u[i][j] = -u[i][j]

    # pivot rows are scanned bottom-up, so coset reduction clears the last
    # coordinates first (for A = (1,1)^t this sends (2,1) to (1,0))
    pivots = []
    col = 0
    for row in range(n - 1, -1, -1):
        if col >= d:
            break
        # gcd out the entries of this row across columns col..d-1
        while True:
            nz = [j for j in range(col, d) if h[row][j]]
            if not nz:
                break
            jmin = min(nz, key=lambda j: abs(h[row][j]))
            if jmin != col:
                swap(col, jmin)
            if all(h[row][j] == 0 for j in range(col + 1, d)):
                break
            for j in range(col + 1, d):
                if h[row][j]:
                    col_op(j, col, h[row][j] // h[row][col])
        if col < d and h[row][col]:
            if h[row][col] < 0:
                negate(col)
            piv = h[row][col]
            for j in range(col):
                f = h[row][j] // piv
                if f:
                    col_op(j, col, f)
            pivots.append((row, col))
            col += 1
    return h, u, pivots


def hnf_reduce(c: list[int], h, u, pivots):
    """Canonical coset representative of c modulo the column lattice of H.

    Returns (reduced vector, t) with reduced = c - A t written through the
    integer transform (H = A U), so the multiplier exponents t refer to
    the original columns of A.
    """
    c = list(c)
    d = len(u)
    s = [0] * d
    for row, col in pivots:
        f = c[row] // h[row][col]
        if f:
            s[col] += f
            for i in range(len(c)):
                c[i] -= f * h[i][col]
    t = [sum(u[i][j] * s[j] for j in range(d)) for i in range(d)]
    return tuple(c), tuple(t)


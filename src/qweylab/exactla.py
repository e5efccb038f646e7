"""Exact linear algebra over the coefficient fields.

Dense matrices are lists of lists of scalars.  Kernel/rank/span computations
go through a sparse incremental eliminator (rows are dicts keyed by column
index) since most systems here are shift-structured and very sparse.
"""

from __future__ import annotations

from .errors import DomainError, ParameterError
from .scalars import Field, Scalar, binary_power

Vec = list[Scalar]
Mat = list[list[Scalar]]


# ---------------------------------------------------------------------------
# Dense matrices
# ---------------------------------------------------------------------------


def identity(n: int, field: Field) -> Mat:
    return [[field.one if i == j else field.zero for j in range(n)] for i in range(n)]


def mat_mul(a: Mat, b: Mat) -> Mat:
    rows, inner, cols = len(a), len(b), len(b[0])
    out = []
    for i in range(rows):
        ai = a[i]
        row = []
        for j in range(cols):
            acc = None
            for k in range(inner):
                if ai[k].is_zero() or b[k][j].is_zero():
                    continue
                term = ai[k] * b[k][j]
                acc = term if acc is None else acc + term
            row.append(acc if acc is not None else ai[0].field.zero)
        out.append(row)
    return out


def mat_add(a: Mat, b: Mat) -> Mat:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a: Mat, c: Scalar) -> Mat:
    return [[x * c for x in row] for row in a]


def mat_eq(a: Mat, b: Mat) -> bool:
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def mat_pow(a: Mat, e: int, field: Field) -> Mat:
    return binary_power(a, e, identity(len(a), field), mat_mul)


def mat_inv(a: Mat, field: Field) -> Mat:
    """Gauss-Jordan inverse; DomainError on singular input."""
    n = len(a)
    work = [list(row) + ident_row for row, ident_row in zip(a, identity(n, field))]
    for col in range(n):
        piv = next((r for r in range(col, n) if not work[r][col].is_zero()), None)
        if piv is None:
            raise DomainError("matrix is singular")
        work[col], work[piv] = work[piv], work[col]
        inv = work[col][col].inv()
        work[col] = [x * inv for x in work[col]]
        for r in range(n):
            if r != col and not work[r][col].is_zero():
                f = work[r][col]
                work[r] = [x - f * y for x, y in zip(work[r], work[col])]
    return [row[n:] for row in work]


def kron(a: Mat, b: Mat) -> Mat:
    ra, ca, rb, cb = len(a), len(a[0]), len(b), len(b[0])
    out = []
    for i in range(ra):
        for k in range(rb):
            row = []
            for j in range(ca):
                aij = a[i][j]
                if aij.is_zero():
                    row.extend([aij.field.zero] * cb)
                else:
                    row.extend([aij * b[k][m] for m in range(cb)])
            out.append(row)
    return out


def scalar_of_identity(a: Mat) -> Scalar | None:
    """The scalar c with a = c * Id, or None if a is not scalar."""
    c = a[0][0]
    n = len(a)
    for i in range(n):
        for j in range(n):
            if i == j:
                if a[i][j] != c:
                    return None
            elif not a[i][j].is_zero():
                return None
    return c


# ---------------------------------------------------------------------------
# Sparse elimination
# ---------------------------------------------------------------------------


class SparseEliminator:
    """Incremental row-echelon accumulator over a field.

    Rows are dicts column -> nonzero scalar.  Each stored row is normalized
    to have coefficient one at its pivot (the smallest column index present
    at insertion time), so rank queries and span membership are exact.
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
            f = vec[col]
            for c, v in row.items():
                cur = vec.get(c)
                nv = (cur - f * v) if cur is not None else -(f * v)
                if nv.is_zero():
                    vec.pop(c, None)
                else:
                    vec[c] = nv
        return vec

    def add(self, vec: dict[int, Scalar]) -> bool:
        """Insert a vector; returns True if it enlarged the span."""
        red = self._reduce(vec)
        if not red:
            return False
        col = min(red)
        inv = red[col].inv()
        self.rows[col] = {c: v * inv for c, v in red.items()}
        return True

    def contains(self, vec: dict[int, Scalar]) -> bool:
        return not self._reduce(vec)


def sparse_kernel(rows, ncols: int, field: Field) -> list[dict[int, Scalar]]:
    """Basis of the right kernel of the given constraint rows.

    Rows are dicts column -> scalar; returns kernel vectors in the same
    format, one per free column, deterministically ordered by free column.
    """
    elim = SparseEliminator(field)
    for row in rows:
        elim.add(row)
    pivots = sorted(elim.rows)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        # back-substitute in decreasing pivot order
        vec = {free: field.one}
        for p in reversed(pivots):
            row = elim.rows[p]
            acc = None
            for c, v in row.items():
                if c == p:
                    continue
                xv = vec.get(c)
                if xv is None:
                    continue
                term = v * xv
                acc = term if acc is None else acc + term
            if acc is not None and not acc.is_zero():
                vec[p] = -acc
        basis.append(vec)
    return basis


def matrix_kernel(m: Mat, field: Field) -> list[Vec]:
    """Kernel basis of a dense matrix, as dense column vectors."""
    ncols = len(m[0]) if m else 0
    rows = []
    for row in m:
        d = {j: v for j, v in enumerate(row) if not v.is_zero()}
        if d:
            rows.append(d)
    out = []
    for vec in sparse_kernel(rows, ncols, field):
        dense = [field.zero] * ncols
        for c, v in vec.items():
            dense[c] = v
        out.append(dense)
    return out


def mat_vec(m: Mat, v: Vec) -> Vec:
    out = []
    for row in m:
        acc = None
        for x, y in zip(row, v):
            if x.is_zero() or y.is_zero():
                continue
            term = x * y
            acc = term if acc is None else acc + term
        out.append(acc if acc is not None else v[0].field.zero)
    return out


def column_hnf(a: list[list[int]]):
    """Column-style Hermite normal form of an integer matrix.

    Returns (H, U, pivots) with H = A U, U unimodular, pivots the list of
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
    unimodular transform (H = A U), so the multiplier exponents t refer to
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


def int_matrix_rank(a: list[list[int]]) -> int:
    if not a or not a[0]:
        return 0
    _, _, pivots = column_hnf(a)
    return len(pivots)


def require_full_column_rank(a: list[list[int]], what: str):
    d = len(a[0]) if a else 0
    if int_matrix_rank(a) != d:
        raise ParameterError(f"{what} must have full column rank")

"""Exact linear algebra over the rationals.

Scalars are arbitrary-precision ``fractions.Fraction``.  Matrices are dense
and immutable.  A ``Subspace`` stores its basis in reduced row-echelon form,
which makes the representation canonical: two subspaces are equal iff their
basis tuples are equal.  All operations are pure functions; values may be
shared freely between threads.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Sequence

Vec = tuple[Fraction, ...]

_ZERO = Fraction(0)
_ONE = Fraction(1)


def rat(x) -> Fraction:
    """Coerce an int, a string like ``"3/4"``, or a Fraction to a Fraction."""
    return x if isinstance(x, Fraction) else Fraction(x)


def vec(entries: Iterable) -> Vec:
    return tuple(rat(e) for e in entries)


def zeros(n: int) -> Vec:
    return (_ZERO,) * n


# Structure tables are sparse: a zero entry of v leaves u's entry as it is.
def vadd(u: Vec, v: Vec) -> Vec:
    return tuple(a + b if b else a for a, b in zip(u, v))


def vsub(u: Vec, v: Vec) -> Vec:
    return tuple(a - b if b else a for a, b in zip(u, v))


def vscale(c, u: Vec) -> Vec:
    c = rat(c)
    return tuple(c * a for a in u)


def is_zero_vec(u: Vec) -> bool:
    return all(a == 0 for a in u)


def dot(u: Vec, v: Vec) -> Fraction:
    # Operator matrices are sparse: a term with a zero factor is skipped.
    return sum((a * b for a, b in zip(u, v) if a and b), _ZERO)


class Matrix:
    """Immutable dense matrix of Fractions, row-major."""

    __slots__ = ("rows", "cols", "data")

    def __init__(self, data: Sequence[Sequence]):
        rows = tuple(vec(r) for r in data)
        if rows:
            ncols = len(rows[0])
            if any(len(r) != ncols for r in rows):
                raise ValueError("ragged rows")
        else:
            ncols = 0
        object.__setattr__(self, "data", rows)
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", ncols)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @staticmethod
    def zero(rows: int, cols: int) -> "Matrix":
        return Matrix([zeros(cols)] * rows)

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix([[_ONE if i == j else _ZERO for j in range(n)] for i in range(n)])

    @staticmethod
    def from_cols(cols: Sequence[Sequence]) -> "Matrix":
        cols = [vec(c) for c in cols]
        if not cols:
            return Matrix([])
        n = len(cols[0])
        return Matrix([[c[i] for c in cols] for i in range(n)])

    def row(self, i: int) -> Vec:
        return self.data[i]

    def col(self, j: int) -> Vec:
        return tuple(r[j] for r in self.data)

    @property
    def T(self) -> "Matrix":
        return Matrix([self.col(j) for j in range(self.cols)])

    def __eq__(self, other) -> bool:
        return isinstance(other, Matrix) and self.data == other.data

    def __hash__(self):
        return hash(self.data)

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in r) for r in self.data)
        return f"Matrix({self.rows}x{self.cols}: {body})"

    def _same_shape(self, other: "Matrix"):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError(
                f"shape mismatch {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )

    def __add__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix([vadd(a, b) for a, b in zip(self.data, other.data)])

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._same_shape(other)
        return Matrix([vsub(a, b) for a, b in zip(self.data, other.data)])

    def __neg__(self) -> "Matrix":
        return Matrix([vscale(-1, r) for r in self.data])

    def scale(self, c) -> "Matrix":
        return Matrix([vscale(c, r) for r in self.data])

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        ocols = [other.col(j) for j in range(other.cols)]
        return Matrix([[dot(r, c) for c in ocols] for r in self.data])

    def matvec(self, v: Sequence) -> Vec:
        v = vec(v)
        if len(v) != self.cols:
            raise ValueError(f"matvec length {len(v)} != cols {self.cols}")
        return tuple(dot(r, v) for r in self.data)

    def is_zero(self) -> bool:
        return all(is_zero_vec(r) for r in self.data)

    def rref(self) -> "Matrix":
        reduced, _ = _rref(self.data)
        return Matrix(reduced)

    def rank(self) -> int:
        _, pivots = _rref(self.data)
        return len(pivots)


def _rref(rows: Sequence[Vec]) -> tuple[list[list[Fraction]], list[int]]:
    """Gauss-Jordan reduction; returns (reduced rows, pivot column list)."""
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv = _ONE / m[r][c]
        m[r] = [x * inv if x else x for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b if b else a for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def rref(m: Matrix) -> Matrix:
    """Reduced row-echelon form; preserves the row space."""
    return m.rref()


class Subspace:
    """A linear subspace of Q^n with a canonical RREF basis.

    Construct through :func:`span`; the raw constructor trusts its input.
    """

    __slots__ = ("ambient_dim", "basis", "pivots")

    def __init__(self, ambient_dim: int, basis: Sequence[Vec], pivots: Sequence[int]):
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "basis", tuple(tuple(b) for b in basis))
        object.__setattr__(self, "pivots", tuple(pivots))

    def __setattr__(self, name, value):
        raise AttributeError("Subspace is immutable")

    @property
    def dim(self) -> int:
        return len(self.basis)

    def is_zero(self) -> bool:
        return not self.basis

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.basis == other.basis
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.basis))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim})"

    def contains(self, v: Sequence) -> bool:
        if len(v) != self.ambient_dim:
            raise ValueError(f"vector length {len(v)} != ambient {self.ambient_dim}")
        return self.coords(v) is not None

    def coords(self, v: Sequence) -> Vec | None:
        """Coefficients of v in the RREF basis, or None if v is outside."""
        v = vec(v)
        return None if any(self._residual(v)) else tuple(v[p] for p in self.pivots)

    def _residual(self, v: Vec) -> list:
        """v minus the basis combination with v's pivot coordinates: RREF pivot
        columns are standard coordinates, so this is zero exactly when v lies
        in the subspace, else the representative of v + S zero at the pivots."""
        residual = list(v)
        for p, b in zip(self.pivots, self.basis):
            c = v[p]
            if c:
                residual = [x - c * y if y else x for x, y in zip(residual, b)]
        return residual

    def _combine(self, coeffs: Sequence) -> Vec:
        """The combination sum_i coeffs[i] * basis[i]."""
        x = zeros(self.ambient_dim)
        for c, b in zip(coeffs, self.basis):
            if c:
                x = vadd(x, vscale(c, b))
        return x

    def contains_subspace(self, other: "Subspace") -> bool:
        self._same_ambient(other)
        return all(self.contains(b) for b in other.basis)

    def sum(self, other: "Subspace") -> "Subspace":
        self._same_ambient(other)
        return span(list(self.basis) + list(other.basis), self.ambient_dim)

    def intersect(self, other: "Subspace") -> "Subspace":
        self._same_ambient(other)
        if self.is_zero() or other.is_zero():
            return span([], self.ambient_dim)
        # x in both spans: x = sum a_i s_i = sum b_j t_j; solve for (a, -b).
        cols = [list(b) for b in self.basis] + [[-x for x in b] for b in other.basis]
        ker = kernel(Matrix.from_cols(cols))
        return span([self._combine(k[: self.dim]) for k in ker.basis], self.ambient_dim)

    def _same_ambient(self, other: "Subspace"):
        if self.ambient_dim != other.ambient_dim:
            raise ValueError(
                f"ambient mismatch: {self.ambient_dim} vs {other.ambient_dim}"
            )

    def matrix(self) -> Matrix:
        """Basis vectors as rows."""
        return Matrix(self.basis) if self.basis else Matrix.zero(0, self.ambient_dim)


def span(vectors: Sequence[Sequence], ambient_dim: int) -> Subspace:
    """Canonical subspace spanned by the given coordinate vectors."""
    vs = [vec(v) for v in vectors]
    for v in vs:
        if len(v) != ambient_dim:
            raise ValueError(f"vector length {len(v)} != ambient {ambient_dim}")
    if not vs:
        return Subspace(ambient_dim, [], [])
    reduced, pivots = _rref(vs)
    return Subspace(ambient_dim, reduced[: len(pivots)], pivots)


def full_space(n: int) -> Subspace:
    """Q^n with its canonical basis, the identity rows, which are in RREF."""
    return Subspace(n, [(_ZERO,) * i + (_ONE,) + (_ZERO,) * (n - 1 - i) for i in range(n)],
                    range(n))


def kernel(m: Matrix) -> Subspace:
    """Null space {v : m v = 0} as a canonical subspace of Q^cols."""
    if m.cols == 0:
        return span([], 0)
    reduced, pivots = _rref(m.data)
    pivot_set = set(pivots)
    free = [j for j in range(m.cols) if j not in pivot_set]
    basis = []
    for f in free:
        v = [_ZERO] * m.cols
        v[f] = _ONE
        for r, p in enumerate(pivots):
            v[p] = -reduced[r][f]
        basis.append(tuple(v))
    return span(basis, m.cols)


def solve(m: Matrix, b: Sequence) -> Vec | None:
    """One solution of m x = b (free variables 0), or None if inconsistent."""
    b = vec(b)
    if len(b) != m.rows:
        raise ValueError(f"rhs length {len(b)} != rows {m.rows}")
    if m.rows == 0:
        return zeros(m.cols)
    reduced, pivots = _rref([r + (bb,) for r, bb in zip(m.data, b)])
    if pivots and pivots[-1] == m.cols:
        return None
    x = [_ZERO] * m.cols
    for r, p in enumerate(pivots):
        x[p] = reduced[r][m.cols]
    return tuple(x)


def inverse(m: Matrix) -> Matrix | None:
    """Inverse of a square matrix, or None if singular."""
    if m.rows != m.cols:
        raise ValueError("inverse of a non-square matrix")
    n = m.rows
    if n == 0:
        return Matrix([])
    eye = Matrix.identity(n)
    reduced, pivots = _rref([r + eye.row(i) for i, r in enumerate(m.data)])
    if len(pivots) < n or pivots[n - 1] != n - 1:
        return None
    return Matrix([r[n:] for r in reduced])

"""Exact linear algebra over the rationals.

Scalars are exact rationals.  The sparse layer stores an integral value as
a Python ``int`` and any other as a ``fractions.Fraction`` (see
:func:`rat`), so integer data is added and multiplied in C; every dense
view (``data``, ``row``, ``col``, ``basis``, ``matvec``, ``vec``, ``zeros``)
holds Fractions, converted once in ``_row``.  Matrices are immutable and
sparse: they store their shape and each row's nonzeros, which products,
sums, scalings and elimination walk.  Dense rows are built on first use,
only for the public ``data``, ``row``, ``col`` and ``repr``.  The public
``Matrix`` constructor reads its entries as ``vec`` does; the package
builds its own matrices from the sparse rows or columns it has.
One incremental Gauss-Jordan reducer over sparse rows does elimination,
spin (``modules.closure``) and membership: a row is reduced by its own
nonzeros against the pivot rows so far and, if nonzero, added as a pivot
row.  Elimination stops at full rank, ``solve`` and ``inverse`` at the
first row that shows the system inconsistent or the matrix singular.  A
``Subspace`` is made from the reducer's pivot rows, which membership
reduces against, and is stored as a matrix is: its canonical reduced
row-echelon basis as the sparse ``nonzeros`` that equality, hash and the
module engine read, the dense ``basis`` built on first use.  Values are
immutable and may be shared freely between threads.

One column-apply kernel, ``_apply``, forms every linear combination of
sparse vectors: the images in spin and Norton's elements, table products,
matrix products and sums, ``matvec`` and certificates.  It and the
reducer run over either field: a modulus of 0 means Q, and the fixed prime
p = 2^31 - 1 means GF(p), on sparse rows of Python ints.  Each matrix caches
its columns over Q and mod p.  Work mod p can only prove ranks full (see
``modules``), never decide an answer alone.
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Integral
from typing import Iterable, Sequence

Vec = tuple[Fraction, ...]
# an exact scalar of the sparse layer: an int when integral, else a Fraction
Scalar = int | Fraction
# a row given by its nonzero (column, value) pairs
SparseRow = Iterable[tuple[int, Scalar]]

# the zero of the dense views
_ZERO = Fraction(0)
# the GF(p) layer's prime
_P = 2 ** 31 - 1


def rat(x) -> Scalar:
    """An int, a string like ``"3/4"``, or a Fraction as an exact scalar: an
    int when it is integral, else a Fraction (never a bool).  Any other
    integer, a NumPy one of fixed width included, is read through int()."""
    if type(x) is not int:
        if not isinstance(x, Fraction):
            if isinstance(x, Integral):
                return int(x)
            x = Fraction(x)
        if x.denominator == 1:
            return x.numerator
    return x


def vec(entries: Iterable, dim: int | None = None) -> Vec:
    """The entries as Fractions, an integer that is not an int (a NumPy one
    of fixed width) read through int(); ValueError unless there are ``dim``
    of them, when ``dim`` is given."""
    v = tuple(e if isinstance(e, Fraction)
              else Fraction(e if type(e) is int or not isinstance(e, Integral) else int(e))
              for e in entries)
    if dim is not None and len(v) != dim:
        raise ValueError(f"vector length {len(v)} != dim {dim}")
    return v


def zeros(n: int) -> Vec:
    return (_ZERO,) * n


# Structure tables are sparse: a zero entry of v leaves u's entry as it is.
def vadd(u: Vec, v: Vec) -> Vec:
    return tuple(a + b if b else a for a, b in zip(u, v))


def vscale(c, u: Vec) -> Vec:
    c = rat(c)
    return tuple(c * a for a in u)


class Matrix:
    """Immutable matrix of exact scalars: its shape and sparse rows.

    ``nonzeros``, each row's nonzero ``(j, x)`` pairs in column order, is
    the canonical form that equality and hash compare with the shape.
    ``_cols`` and ``_cols_p``, the columns over Q and mod p, and the dense
    rows ``data`` are built on first use and kept.  The public constructor
    coerces dense entries; ``_sparse`` takes sparse rows or columns as they
    are, and builds the other view from them on first use.
    """

    __slots__ = ("rows", "cols", "_nz", "_c", "_d", "_p")

    def __init__(self, data: Sequence[Sequence]):
        rows = tuple(vec(r) for r in data)
        if rows and any(len(r) != len(rows[0]) for r in rows):
            raise ValueError("ragged rows")
        self._set(len(rows), len(rows[0]) if rows else 0, tuple(map(_nonzeros, rows)), None, rows)

    def _set(self, rows: int, cols: int, nz, c, d=None):
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "_nz", nz)
        object.__setattr__(self, "_c", c)
        object.__setattr__(self, "_d", d)
        object.__setattr__(self, "_p", None)

    @classmethod
    def _sparse(cls, rows: int, cols: int, nz=None, c=None) -> "Matrix":
        """The rows x cols matrix with sparse rows ``nz`` or sparse columns
        ``c``: tuples of nonzero (index, scalar) pairs in index order,
        taken as they are."""
        m = object.__new__(cls)
        m._set(rows, cols, nz, c)
        return m

    def __setattr__(self, name, value=None):
        raise AttributeError("Matrix is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        # copy and pickle rebuild through _sparse: setting the slots is refused
        return Matrix._sparse, (self.rows, self.cols, self.nonzeros)

    @property
    def nonzeros(self) -> tuple[tuple[tuple[int, Scalar], ...], ...]:
        """Each row's nonzero entries as (column, value) pairs, in column order."""
        nz = self._nz
        if nz is None:
            nz = _transpose(self._c, self.rows)
            object.__setattr__(self, "_nz", nz)
        return nz

    @property
    def _cols(self) -> tuple[tuple[tuple[int, Scalar], ...], ...]:
        """Each column's nonzero (row, value) pairs, in row order, kept."""
        c = self._c
        if c is None:
            c = _transpose(self._nz, self.cols)
            object.__setattr__(self, "_c", c)
        return c

    @property
    def _cols_p(self) -> tuple[tuple[tuple[int, int], ...], ...] | None:
        """:attr:`_cols` mod p, built on first use and kept; None when p
        divides a denominator."""
        cp = self._p
        if cp is None:
            cols = tuple(_mod_p(c) for c in self._cols)
            cp = False if None in cols else cols
            object.__setattr__(self, "_p", cp)
        return None if cp is False else cp

    @property
    def data(self) -> tuple[Vec, ...]:
        """The dense row tuples, built on first use and kept."""
        d = self._d
        if d is None:
            d = tuple(_row(self.cols, r) for r in self.nonzeros)
            object.__setattr__(self, "_d", d)
        return d

    @staticmethod
    def zero(rows: int, cols: int) -> "Matrix":
        return Matrix._sparse(rows, cols, nz=((),) * rows)

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix._sparse(n, n, nz=tuple(((i, 1),) for i in range(n)))

    @staticmethod
    def from_cols(cols: Sequence[Sequence]) -> "Matrix":
        return Matrix(cols).T

    def row(self, i: int) -> Vec:
        return self.data[i]

    def col(self, j: int) -> Vec:
        return tuple(r[j] for r in self.data)

    @property
    def T(self) -> "Matrix":
        return Matrix._sparse(self.cols, self.rows, nz=self._c, c=self._nz)

    def __eq__(self, other) -> bool:
        return (isinstance(other, Matrix) and self.rows == other.rows
                and self.cols == other.cols and self.nonzeros == other.nonzeros)

    def __hash__(self):
        return hash((self.rows, self.cols, self.nonzeros))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in r) for r in self.data)
        return f"Matrix({self.rows}x{self.cols}: {body})"

    def _same_shape(self, other: "Matrix"):
        if self.rows != other.rows or self.cols != other.cols:
            raise ValueError(
                f"shape mismatch {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )

    def _combine(self, other: "Matrix", sign: int) -> "Matrix":
        """Each row of self plus sign times that row of other."""
        self._same_shape(other)
        c = ((0, 1), (1, sign))
        return Matrix._sparse(self.rows, self.cols, nz=tuple(
            _pairs(_apply(rows, c, 0).items()) for rows in zip(self.nonzeros, other.nonzeros)))

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, 1)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, -1)

    def __neg__(self) -> "Matrix":
        return self.scale(-1)

    def scale(self, c) -> "Matrix":
        c = rat(c)
        if not c:
            return Matrix.zero(self.rows, self.cols)
        return Matrix._sparse(self.rows, self.cols,
                              nz=tuple(tuple((j, c * x) for j, x in r) for r in self.nonzeros))

    def __matmul__(self, other: "Matrix") -> "Matrix":
        """Row by row (Gustavson): row i of the product sums x * row k of
        other over the nonzeros (k, x) of row i of self."""
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        onz = other.nonzeros
        return Matrix._sparse(self.rows, other.cols, nz=tuple(
            _pairs(_apply(onz, r, 0).items()) for r in self.nonzeros))

    def matvec(self, v: Sequence) -> Vec:
        v = vec(v)
        if len(v) != self.cols:
            raise ValueError(f"matvec length {len(v)} != cols {self.cols}")
        return _row(self.rows, _apply(self._cols, _nonzeros(v), 0).items())

    def is_zero(self) -> bool:
        return not any(self._nz if self._nz is not None else self._c)

    def rref(self) -> "Matrix":
        s = Subspace(self.cols, _echelon(self.nonzeros, self.cols))
        return Matrix._sparse(self.rows, self.cols, nz=s.nonzeros + ((),) * (self.rows - s.dim))

    def rank(self) -> int:
        return len(_echelon(self.nonzeros, self.cols))


def _row(n: int, entries) -> Vec:
    """The dense length-n row of Fractions with the given (column, value)
    entries, zero elsewhere."""
    row = [_ZERO] * n
    for j, x in entries:
        row[j] = x if type(x) is Fraction else Fraction(x)
    return tuple(row)


def _nonzeros(v: Vec) -> tuple[tuple[int, Scalar], ...]:
    """The nonzero entries of a dense vector as (index, scalar) pairs."""
    return tuple((j, rat(x)) for j, x in enumerate(v) if x)


def _pairs(entries: Iterable[tuple[int, Scalar]]) -> tuple[tuple[int, Scalar], ...]:
    """The nonzero ones of (index, value) pairs with distinct indices, in
    index order: a sparse row as ``Matrix._sparse`` takes it."""
    return tuple(sorted((j, x) for j, x in entries if x))


def _sub_scaled(row: dict, f, other: dict, p: int):
    """row -= f * other, in place, keeping only the nonzero entries: over Q
    when p is 0, else mod p."""
    if p:
        for j, y in other.items():
            if x := (row.get(j, 0) - f * y) % p:
                row[j] = x
            else:
                del row[j]
        return
    for j, y in other.items():
        x = row.get(j)
        x = -f * y if x is None else x - f * y
        if x:
            row[j] = x
        else:
            del row[j]


def _reduce(piv: dict[int, dict], r: SparseRow, p: int = 0) -> dict:
    """The nonzeros of a sparse row reduced against the pivot rows, a new
    dict, over Q when p is 0, else mod p; pivot rows are zero at each
    other's pivots, so it is zero at every pivot and empty exactly when the
    row lies in their span."""
    row = dict(r)
    for c in [c for c in row if c in piv]:
        _sub_scaled(row, row.pop(c), piv[c], p)
    return row


def _add(piv: dict[int, dict], r: SparseRow, p: int = 0) -> int | None:
    """Add a sparse row to the pivot rows in place, over Q when p is 0, else
    mod p; its new pivot, or None.

    A nonzero remainder is normalised at its leading column and eliminated
    from the earlier pivot rows, so the pivot rows are the canonical RREF
    of their span whatever the order the rows came in.
    """
    row = _reduce(piv, r, p)
    if not row:
        return None
    c = min(row)
    lead = row.pop(c)
    if p:
        inv = pow(lead, -1, p)
        row = {j: x * inv % p for j, x in row.items()}
    elif lead == -1:
        row = {j: -x for j, x in row.items()}
    elif lead != 1:
        # exact on ints too, where / would give a float; a unit lead keeps int rows
        inv = Fraction(lead.denominator, lead.numerator)
        row = {j: rat(x * inv) for j, x in row.items()}
    for q in piv.values():
        f = q.pop(c, None)
        if f is not None:
            _sub_scaled(q, f, row, p)
    piv[c] = row
    return c


def _echelon(rows: Iterable[SparseRow], width: int,
             limit: int | None = None) -> dict[int, dict[int, Scalar]] | None:
    """Incremental Gauss-Jordan over sparse rows of (column, value) pairs.

    Returns the reduced row-echelon basis of the rows' span as {pivot column:
    that row's other nonzeros}, the pivot entry 1 left implicit, built by
    :func:`_add`.  Reading stops at full rank, and ``None`` is returned at
    the first remainder leading at a column >= ``limit``: an augmented row
    that reduces to 0 = c.
    """
    piv: dict[int, dict[int, Scalar]] = {}
    for r in rows:
        c = _add(piv, r)
        if c is not None and limit is not None and c >= limit:
            return None
        if len(piv) == width:
            break
    return piv


def _mod_p(r: SparseRow) -> tuple[tuple[int, int], ...] | None:
    """The nonzero (index, value) pairs mod p of a sparse rational row, or
    None when p divides a denominator (the row is not p-integral and has no
    reduction)."""
    out = []
    for j, x in r:
        if type(x) is int:
            y = x % _P
        elif x.denominator % _P:
            y = x.numerator * pow(x.denominator, -1, _P) % _P
        else:
            return None
        if y:
            out.append((j, y))
    return tuple(out)


def _apply(cols: Sequence[SparseRow] | dict, v: SparseRow, p: int) -> dict:
    """A matrix given by its columns' nonzero (row, value) pairs, indexed by
    column, applied to a sparse vector given by its nonzero (j, x) pairs:
    the sum of x * column j, as a dict of its nonzeros, over Q when p is 0,
    else mod p."""
    acc: dict = {}
    for j, x in v:
        for i, y in cols[j]:
            acc[i] = acc[i] + x * y if i in acc else x * y
    if p:
        return {i: r for i, y in acc.items() if (r := y % p)}
    return {i: y for i, y in acc.items() if y}


def _transpose(rows: Iterable[SparseRow], n: int) -> tuple[tuple[tuple[int, object], ...], ...]:
    """Sparse rows read by column: the n columns' (row, value) pairs, in row order."""
    cols: list[list] = [[] for _ in range(n)]
    for i, r in enumerate(rows):
        for j, x in r:
            cols[j].append((i, x))
    return tuple(map(tuple, cols))


def _solve_rows(rows: Iterable[SparseRow], n: int) -> Vec | None:
    """One solution, free variables 0, of the system in n unknowns whose
    augmented rows are given sparse, the right-hand side at column n; None
    at the first row that reduces to 0 = c."""
    piv = _echelon(rows, n + 1, limit=n)
    if piv is None:
        return None
    return _row(n, ((p, r[n]) for p, r in piv.items() if n in r))


class Subspace:
    """A linear subspace of Q^n with a canonical RREF basis.

    Construct through :func:`span`.  The constructor takes the reducer's
    pivot rows ``{pivot: that row's other nonzeros}``, the pivot entry 1
    left implicit, trusts that they are in RREF and keeps them as they are.
    From them it builds ``nonzeros``, each basis vector's nonzero (index,
    value) pairs in index order, pivot entry included (a pivot row's other
    nonzeros lie past its pivot), which equality and hash compare.  The
    dense ``basis`` is built on first use and kept.
    Membership and coordinates reduce against the pivot rows, which are not
    to be mutated.
    """

    __slots__ = ("ambient_dim", "pivots", "nonzeros", "_rows", "_b")

    def __init__(self, ambient_dim: int, rows: dict[int, dict[int, Scalar]]):
        pivots = tuple(sorted(rows))
        object.__setattr__(self, "ambient_dim", ambient_dim)
        object.__setattr__(self, "pivots", pivots)
        object.__setattr__(self, "nonzeros",
                           tuple(((p, 1), *sorted(rows[p].items())) for p in pivots))
        object.__setattr__(self, "_rows", rows)
        object.__setattr__(self, "_b", None)

    def __setattr__(self, name, value=None):
        raise AttributeError("Subspace is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return Subspace, (self.ambient_dim, self._rows)

    @property
    def basis(self) -> tuple[Vec, ...]:
        """The dense basis rows, built on first use and kept."""
        b = self._b
        if b is None:
            b = tuple(_row(self.ambient_dim, r) for r in self.nonzeros)
            object.__setattr__(self, "_b", b)
        return b

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def is_zero(self) -> bool:
        return not self.pivots

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Subspace)
            and self.ambient_dim == other.ambient_dim
            and self.nonzeros == other.nonzeros
        )

    def __hash__(self):
        return hash((self.ambient_dim, self.nonzeros))

    def __repr__(self):
        return f"Subspace(dim {self.dim} of Q^{self.ambient_dim})"

    def _remainder(self, v: Sequence) -> tuple[Vec, dict]:
        """v as ``vec`` reads it and its remainder against the pivot rows,
        empty exactly when v lies in the span; ValueError unless v has
        ``ambient_dim`` entries."""
        v = vec(v)
        if len(v) != self.ambient_dim:
            raise ValueError(f"vector length {len(v)} != ambient {self.ambient_dim}")
        return v, _reduce(self._rows, _nonzeros(v))

    def contains(self, v: Sequence) -> bool:
        """Whether v lies in the subspace: whether it reduces to 0 against
        the pivot rows.  No coordinates are built."""
        return not self._remainder(v)[1]

    def coords(self, v: Sequence) -> Vec | None:
        """Coefficients of v in the RREF basis, or None if v is outside."""
        v, rest = self._remainder(v)
        # RREF coordinates are the pivot entries of a vector in the span
        return None if rest else tuple(v[p] for p in self.pivots)

    def sum(self, other: "Subspace") -> "Subspace":
        _check_ambient(self, other.ambient_dim)
        n = self.ambient_dim
        return Subspace(n, _echelon(self.nonzeros + other.nonzeros, n))

    def matrix(self) -> Matrix:
        """Basis vectors as rows."""
        return Matrix._sparse(self.dim, self.ambient_dim, nz=self.nonzeros)


def _check_ambient(s: Subspace, n: int):
    """Raise ValueError unless s is a subspace of Q^n."""
    if s.ambient_dim != n:
        raise ValueError(f"ambient mismatch: {s.ambient_dim} vs {n}")


def span(vectors: Sequence[Sequence], ambient_dim: int) -> Subspace:
    """Canonical subspace spanned by the given coordinate vectors."""
    vs = [vec(v) for v in vectors]
    for v in vs:
        if len(v) != ambient_dim:
            raise ValueError(f"vector length {len(v)} != ambient {ambient_dim}")
    return Subspace(ambient_dim, _echelon(map(_nonzeros, vs), ambient_dim))


def full_space(n: int) -> Subspace:
    """Q^n with its canonical basis, the identity rows, which are in RREF."""
    return Subspace(n, {i: {} for i in range(n)})


def kernel(m: Matrix) -> Subspace:
    """Null space {v : m v = 0} as a canonical subspace of Q^cols."""
    piv = _echelon(m.nonzeros, m.cols)
    # free column f gives e_f minus the sum of piv[p][f] e_p
    free = {f: [(f, 1)] for f in range(m.cols) if f not in piv}
    for p, r in piv.items():
        for f, x in r.items():
            free[f].append((p, -x))
    return Subspace(m.cols, _echelon(free.values(), m.cols))


def solve(m: Matrix, b: Sequence) -> Vec | None:
    """One solution of m x = b (free variables 0), or None if inconsistent."""
    b = vec(b)
    if len(b) != m.rows:
        raise ValueError(f"rhs length {len(b)} != rows {m.rows}")
    n = m.cols
    return _solve_rows((r + ((n, x),) if x else r for r, x in zip(m.nonzeros, b)), n)


def inverse(m: Matrix) -> Matrix | None:
    """Inverse of a square matrix, or None if singular."""
    if m.rows != m.cols:
        raise ValueError("inverse of a non-square matrix")
    n = m.rows
    # [m | I] reduces to [I | m^-1]; a row of m dependent on the rows before
    # it leaves a remainder that leads in the identity half
    piv = _echelon((r + ((n + i, 1),) for i, r in enumerate(m.nonzeros)), 2 * n, limit=n)
    if piv is None:
        return None
    return Matrix._sparse(n, n, nz=tuple(_pairs((j - n, x) for j, x in piv[p].items())
                                         for p in range(n)))

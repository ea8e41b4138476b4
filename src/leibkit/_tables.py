"""Structure-constant tables and the bracket identities declared on them.

A table ``t`` encodes a bilinear product on a dim-dimensional space: cell
``t[i][j]`` holds only the nonzero (k, c) pairs of the product of basis
elements i, j, in ascending k, and ``()`` when that product is zero.  The
form is canonical: two tables are equal iff their products are.  Build a
table with :func:`table_from_entries` or :func:`table_from_dense` (or
:func:`as_table`, which passes a built :class:`Table` through), and read it
through its nonzeros: :func:`table_entries` (the (i, j, k, c) entries in
basis order), :func:`columns` (the cells as the columns of the
multiplication operators), :func:`product` (the product of two sparse
vectors, which reads each row of cells as the columns of a left operator;
:func:`apply_table` is its dense wrapper), :func:`operators` (those
operators as matrices) and :func:`int_scaled` (the same cells over one
common denominator, grouped by row, by column and by product coordinate
for the exact checker).

Each identity the package verifies (associativity, the right Leibniz
identity, the Jacobi identity and the four Hu-Liu compatibility identities)
is declared once below, as data: an :class:`Identity` equates two sums of
nested products, each a :class:`Term`.  Two consumers read the
declarations:

* the exact checker :func:`verify_identities` reads only the nonzero
  products, through the groupings :func:`int_scaled` builds in the pass
  that clears denominators, once per call; every term has degree two in
  the table entries, so clearing denominators cannot change which side
  differs.  It walks the leading index i upward and, for each i, adds up
  every term's contributions to the triples (i, j, k) in one block.  A term
  contributes only where its inner product is nonzero, so it reads its
  inner nonzeros by their product coordinate l and the outer cells that
  take l as an argument by row or by column l; the cells that take i as an
  argument come from the same groupings, so no empty cell is probed.  The
  first block with a nonzero residual names the lexicographically least
  failing triple.  The cost follows the nonzeros, and memory holds one
  block, at most dim^3 entries;
* the witness replay :func:`evaluate` re-evaluates a failing triple, or any
  vectors, with the original rational entries.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Sequence

from .linalg import Matrix, Vec, _apply, _row, rat, vadd, vec, zeros
from .report import Report, fail, ok


class Table(tuple):
    """A built table: dim rows of dim cells of (k, c) pairs, as above."""

    __slots__ = ()


LEFT = "(pq)r"
RIGHT = "p(qr)"


class Term(NamedTuple):
    """``outer(inner(p, q), r)`` for shape LEFT, ``outer(p, inner(q, r))`` for
    shape RIGHT.  ``outer`` and ``inner`` name tables; ``perm`` spells p, q, r
    as a permutation of the variables "xyz"."""

    outer: str
    inner: str
    shape: str
    perm: str


class Identity(NamedTuple):
    """The sum of the ``lhs`` terms equals the sum of the ``rhs`` terms."""

    name: str
    lhs: tuple[Term, ...]
    rhs: tuple[Term, ...] = ()


# Table names: "m" an associative product, "a" the angle (Leibniz) bracket
# <,>, "s" the square (Lie) bracket [,].

# (xy)z = x(yz)
ASSOCIATIVITY = Identity(
    "associativity",
    (Term("m", "m", LEFT, "xyz"),),
    (Term("m", "m", RIGHT, "xyz"),))

# <<x,y>,z> = <x,<y,z>> + <<x,z>,y>
RIGHT_LEIBNIZ = Identity(
    "right Leibniz identity",
    (Term("a", "a", LEFT, "xyz"),),
    (Term("a", "a", RIGHT, "xyz"), Term("a", "a", LEFT, "xzy")))

# [[x,y],z] + [[y,z],x] + [[z,x],y] = 0
JACOBI = Identity(
    "Jacobi identity",
    (Term("s", "s", LEFT, "xyz"), Term("s", "s", LEFT, "yzx"),
     Term("s", "s", LEFT, "zxy")))

# The identity quantifying a square <x,x> is declared through its polarized
# bilinear form, which is complete over characteristic zero.
COMPATIBILITY = (
    Identity(
        "angle absorbs square: <x,[y,z]> = <x,<y,z>>",
        (Term("a", "s", RIGHT, "xyz"),),
        (Term("a", "a", RIGHT, "xyz"),)),
    Identity(
        "squares bracket alike (polarized): [<x,y>+<y,x>,z] = <<x,y>+<y,x>,z>",
        (Term("s", "a", LEFT, "xyz"), Term("s", "a", LEFT, "yxz")),
        (Term("a", "a", LEFT, "xyz"), Term("a", "a", LEFT, "yxz"))),
    Identity(
        "mixed cycle: <[x,y],z> + [<y,z>,x] + [y,<x,z>] = 0",
        (Term("a", "s", LEFT, "xyz"), Term("s", "a", LEFT, "yzx"),
         Term("s", "a", RIGHT, "yxz"))),
    Identity(
        "mixed quadruple: [<x,y>,z] + [z,[x,y]] + [z,<y,x>] + <z,<x,y>> = 0",
        (Term("s", "a", LEFT, "xyz"), Term("s", "s", RIGHT, "zxy"),
         Term("s", "a", RIGHT, "zyx"), Term("a", "a", RIGHT, "zxy"))),
)


def basis_vec(dim: int, i: int) -> Vec:
    return tuple(Fraction(1 if k == i else 0) for k in range(dim))


def zero_table(dim: int) -> Table:
    return Table((((),) * dim,) * dim)


def as_table(x) -> Table:
    """``x`` itself when it is a built :class:`Table`; anything else is read
    as a dense ``t[i][j][k]`` nested sequence by :func:`table_from_dense`."""
    return x if isinstance(x, Table) else table_from_dense(x)


def table_from_dense(entries: Sequence[Sequence[Sequence]]) -> Table:
    dim = len(entries)
    rows = [[vec(v) for v in row] for row in entries]
    if any(len(row) != dim or any(len(v) != dim for v in row) for row in rows):
        raise ValueError("table is not dim x dim x dim")
    return Table(tuple(tuple((k, c) for k, c in enumerate(v) if c) for v in row)
                 for row in rows)


def table_from_entries(dim: int, items: Iterable[tuple[int, int, int, object]]) -> Table:
    """Build a table from sparse (i, j, k, value) items; later items add up,
    and entries that cancel to zero are dropped."""
    cells: dict[tuple[int, int], dict[int, Fraction]] = {}
    for i, j, k, val in items:
        if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
            raise ValueError(f"index ({i},{j},{k}) out of range for dim {dim}")
        cell = cells.setdefault((i, j), {})
        cell[k] = cell.get(k, 0) + rat(val)
    rows = [[()] * dim for _ in range(dim)]
    for (i, j), cell in cells.items():
        rows[i][j] = tuple((k, c) for k, c in sorted(cell.items()) if c)
    return Table(tuple(row) for row in rows)


def table_entries(t: Table) -> list[tuple[int, int, int, Fraction]]:
    return [(i, j, k, c) for i, row in enumerate(t) for j, cell in enumerate(row)
            for k, c in cell]


def apply_table(t: Table, x: Iterable, y: Iterable) -> Vec:
    """The :func:`product` of coordinate vectors x and y, whose nonzero
    entries are read as rationals."""
    dim = len(t)
    x, y = tuple(x), tuple(y)
    if len(x) != dim or len(y) != dim:
        raise ValueError(f"vector length mismatch for dim {dim}")
    xs, ys = ([(i, rat(c)) for i, c in enumerate(v) if c] for v in (x, y))
    return _row(dim, product(t, xs, ys).items())


def product(t: Table, x: Sequence, y: Sequence) -> dict:
    """x y for vectors given by their nonzero (index, Fraction) pairs, as a dict of
    its nonzeros: the sum of x_i times the left operator of e_i (row i of t) at y."""
    return _apply({i: _apply(t[i], y, 0).items() for i, _ in x}, x, 0)


def _check_side(side: str) -> bool:
    """True for side "right", False for "left"."""
    if side not in ("right", "left"):
        raise ValueError(f"side must be 'right' or 'left', not {side!r}")
    return side == "right"


def columns(t: Table, side: str) -> tuple[tuple[tuple[tuple[int, Fraction], ...], ...], ...]:
    """For j = 0..dim-1, the columns of x -> t(x, e_j) for side "right", of
    x -> t(e_j, x) for side "left", as their nonzero (k, c) pairs: column i
    is the cell t[i][j] or t[j][i], so the right operators read the table by
    column and the left ones by row."""
    return tuple(zip(*t)) if _check_side(side) else tuple(t)


def operators(t: Table, side: str) -> tuple[Matrix, ...]:
    """Matrices of x -> t(x, e_j) for side "right", of x -> t(e_j, x) for side
    "left", for j = 0..dim-1, from their :func:`columns`."""
    dim = len(t)
    return tuple(Matrix._sparse(dim, dim, c=cols) for cols in columns(t, side))


def int_scaled(tables: Sequence[Table]) -> list[tuple[list, list, list]]:
    """Clear denominators jointly, and group each table's integer nonzeros
    for the exact checker in the same pass: per input, lists indexed by
    basis index of the (b, cell) with t[a][b] nonzero by row a, the (a, cell)
    by column b, and the (a, b, c) where t[a][b] has c at l by product
    coordinate l; a cell is its (k, int) pairs.  One common factor scales
    every table, so identities mixing two tables stay homogeneous of the
    same degree.
    """
    d = math.lcm(*{c.denominator for t in tables for row in t for cell in row
                   for _, c in cell})
    views = []
    for t in tables:
        by_row, by_column, by_product = ([[] for _ in t] for _ in range(3))
        for a, row in enumerate(t):
            for b, cell in enumerate(row):
                if cell:
                    cell = tuple((k, c.numerator * (d // c.denominator)) for k, c in cell)
                    by_row[a].append((b, cell))
                    by_column[b].append((a, cell))
                    for l, c in cell:
                        by_product[l].append((a, b, c))
        views.append((by_row, by_column, by_product))
    return views


def _term_walk(sign: int, term: Term, ints: Mapping, dim: int):
    """``walk(i, acc)`` adds ``sign`` times the term at every triple (i, j, k)
    into ``acc``, keyed by (j * dim + k) * dim + m for output coordinate m;
    ``ints`` maps table names to their :func:`int_scaled` views."""
    left = term.shape == LEFT
    # key weight of p, q, r: x is the block's own index, y and z place (j, k)
    wp, wq, wr = ((0, dim * dim, dim)["xyz".index(v)] for v in term.perm)
    w1, w2 = (wp, wq) if left else (wq, wr)  # inner's two arguments
    at = term.perm.index("x")  # 0, 1, 2: x is p, q, r
    outer_row, outer_column, _ = ints[term.outer]
    inner_row, inner_column, by_l = ints[term.inner]

    if at == (2 if left else 0):
        # x is the outer product's own argument: the cells outer[l][x] of
        # column x, or outer[x][l] of row x
        at_x = outer_column if left else outer_row

        def walk(i, acc):
            for l, v in at_x[i]:
                for a, b, c in by_l[l]:
                    base, c = a * w1 + b * w2, sign * c
                    for m, cm in v:
                        key = base + m
                        acc[key] = acc.get(key, 0) + c * cm
        return walk

    # x is an argument of the inner product; s is its partner there, t the
    # outer product's own argument
    first = at == (0 if left else 1)
    ws, wt = (w2 if first else w1), (wr if left else wp)
    cells = outer_row if left else outer_column
    partners = inner_row if first else inner_column

    def walk(i, acc):
        for s, inner_cell in partners[i]:
            for l, c in inner_cell:
                c *= sign
                for t, v in cells[l]:
                    base = s * ws + t * wt
                    for m, cm in v:
                        key = base + m
                        acc[key] = acc.get(key, 0) + c * cm
    return walk


def _first_failing_triple(identity: Identity, ints: Mapping,
                          dim: int) -> tuple[int, int, int] | None:
    """First basis triple (i, j, k), in lexicographic order, where lhs != rhs."""
    walks = [_term_walk(sign, t, ints, dim)
             for sign, side in ((1, identity.lhs), (-1, identity.rhs))
             for t in side]
    for i in range(dim):
        acc: dict[int, int] = {}
        for walk in walks:
            walk(i, acc)
        failing = [key for key, v in acc.items() if v]
        if failing:
            j, k = divmod(min(failing) // dim, dim)
            return i, j, k
    return None


def verify_identities(identities: Sequence[Identity], tables: Mapping[str, Table],
                      holds: str) -> Report:
    """Check each identity on every basis triple, in order; report the first
    failure with its witness replayed in exact rationals, else ``ok(holds)``."""
    ints = dict(zip(tables, int_scaled(list(tables.values()))))
    dim = len(next(iter(tables.values())))
    for identity in identities:
        ijk = _first_failing_triple(identity, ints, dim)
        if ijk is not None:
            inputs = tuple(basis_vec(dim, x) for x in ijk)
            lhs, rhs = evaluate(identity, tables, *inputs)
            return fail(identity.name, inputs, lhs, rhs,
                        note="basis triple ({},{},{})".format(*ijk))
    return ok(holds)


def evaluate(identity: Identity, tables: Mapping[str, Table], x, y, z) -> tuple[Vec, Vec]:
    """Both sides of ``identity`` at coordinate vectors x, y, z, exactly."""
    env = {"x": x, "y": y, "z": z}
    dim = len(next(iter(tables.values())))

    def side(terms):
        acc = zeros(dim)
        for t in terms:
            p, q, r = (env[v] for v in t.perm)
            outer, inner = tables[t.outer], tables[t.inner]
            if t.shape == LEFT:
                prod = apply_table(outer, apply_table(inner, p, q), r)
            else:
                prod = apply_table(outer, p, apply_table(inner, q, r))
            acc = vadd(acc, prod)
        return acc

    return side(identity.lhs), side(identity.rhs)

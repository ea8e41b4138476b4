"""Dense structure-constant tables and the bracket identities declared on them.

A table ``t`` encodes a bilinear product on a dim-dimensional space:
``t[i][j]`` is the coordinate vector of the product of basis elements i, j.

Each identity the package verifies (associativity, the right Leibniz
identity, the Jacobi identity and the four Hu-Liu compatibility identities)
is declared once below, as data: an :class:`Identity` equates two sums of
nested products, each a :class:`Term`.  Two consumers read the
declarations:

* the exact checker :func:`verify_identities` walks basis triples over the
  nonzero rows of :func:`int_scaled` tables; every term has degree two in
  the table entries, so clearing denominators once cannot change which
  side differs;
* the witness replay :func:`evaluate` re-evaluates a failing triple, or any
  vectors, with the original rational entries.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Sequence

from .linalg import Matrix, Vec, rat, vadd, vec, zeros
from .report import Report, fail, ok

Table = tuple[tuple[Vec, ...], ...]

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
    z = zeros(dim)
    return tuple((z,) * dim for _ in range(dim))


def table_from_dense(entries: Sequence[Sequence[Sequence]]) -> Table:
    dim = len(entries)
    t = tuple(tuple(vec(entries[i][j]) for j in range(dim)) for i in range(dim))
    for row in t:
        for v in row:
            if len(v) != dim:
                raise ValueError("table is not dim x dim x dim")
    return t


def table_from_entries(dim: int, items: Iterable[tuple[int, int, int, object]]) -> Table:
    """Build a table from sparse (i, j, k, value) items; later items add up."""
    acc = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for i, j, k, val in items:
        if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
            raise ValueError(f"index ({i},{j},{k}) out of range for dim {dim}")
        acc[i][j][k] += rat(val)
    return tuple(tuple(tuple(acc[i][j]) for j in range(dim)) for i in range(dim))


def table_entries(t: Table) -> list[tuple[int, int, int, Fraction]]:
    out = []
    for i, row in enumerate(t):
        for j, v in enumerate(row):
            for k, c in enumerate(v):
                if c:
                    out.append((i, j, k, c))
    return out


def apply_table(t: Table, x: Sequence, y: Sequence) -> Vec:
    """Bilinear product of coordinate vectors x and y."""
    dim = len(t)
    x = vec(x)
    y = vec(y)
    if len(x) != dim or len(y) != dim:
        raise ValueError(f"vector length mismatch for dim {dim}")
    acc = [Fraction(0)] * dim
    for i, xi in enumerate(x):
        if not xi:
            continue
        row = t[i]
        for j, yj in enumerate(y):
            if not yj:
                continue
            c = xi * yj
            for k, v in enumerate(row[j]):
                if v:
                    acc[k] += c * v
    return tuple(acc)


def operators(t: Table, side: str) -> tuple[Matrix, ...]:
    """Matrices of x -> t(x, e_j) for side "right", of x -> t(e_j, x) for side
    "left", for j = 0..dim-1."""
    dim = len(t)
    if side == "right":
        return tuple(Matrix.from_cols([t[i][j] for i in range(dim)]) for j in range(dim))
    if side == "left":
        return tuple(Matrix.from_cols([t[j][i] for i in range(dim)]) for j in range(dim))
    raise ValueError(f"side must be 'right' or 'left', not {side!r}")


def int_scaled(tables: Sequence[Table]) -> list[tuple]:
    """Clear denominators jointly; one table of sparse rows per input table.

    ``out[n][i][j]`` lists the nonzero coordinates of the product of basis
    elements i, j as (index, int) pairs.  A single common factor multiplies
    every table so that identities mixing two tables stay homogeneous of the
    same degree.
    """
    d = math.lcm(*{c.denominator for t in tables for row in t for v in row for c in v})
    return [
        tuple(tuple(tuple((k, int(c * d)) for k, c in enumerate(v) if c) for v in row)
              for row in t)
        for t in tables
    ]


def _first_failing_triple(identity: Identity, ints: Mapping,
                          dim: int) -> tuple[int, int, int] | None:
    """First basis triple (i, j, k), in lexicographic order, where lhs != rhs."""
    # per term: sign, tables, shape, and where p, q, r sit in (x, y, z)
    terms = [(sign, ints[t.outer], ints[t.inner], t.shape == LEFT,
              *("xyz".index(v) for v in t.perm))
             for sign, side in ((1, identity.lhs), (-1, identity.rhs))
             for t in side]
    rng = range(dim)
    for i in rng:
        for j in rng:
            for k in rng:
                ijk = (i, j, k)
                acc = {}
                for sign, outer, inner, left, at_p, at_q, at_r in terms:
                    p, q, r = ijk[at_p], ijk[at_q], ijk[at_r]
                    if left:
                        for l, cl in inner[p][q]:
                            for m, cm in outer[l][r]:
                                acc[m] = acc.get(m, 0) + sign * cl * cm
                    else:
                        for l, cl in inner[q][r]:
                            for m, cm in outer[p][l]:
                                acc[m] = acc.get(m, 0) + sign * cl * cm
                if any(acc.values()):
                    return ijk
    return None


def verify_identities(identities: Sequence[Identity], tables: Mapping[str, Table],
                      holds: str) -> Report:
    """Check each identity on every basis triple, in order; report the first
    failure with its witness replayed in exact rationals, else ``ok(holds)``."""
    names = list(tables)
    ints = dict(zip(names, int_scaled([tables[n] for n in names])))
    dim = len(tables[names[0]])
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

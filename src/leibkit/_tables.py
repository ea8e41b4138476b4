"""Structure-constant tables and the bracket identities declared on them.

A table ``t`` encodes a bilinear product on a dim-dimensional space: cell
``t[i][j]`` holds only the nonzero (k, c) pairs of the product of basis
elements i, j, in ascending k, and ``()`` when that product is zero; c is
an int when it is integral, else a Fraction (``linalg.rat``).  The form is
canonical: two tables are equal iff their products are.  Build a
table with :func:`table_from_entries` or :func:`table_from_dense` (or
:func:`as_table`, which passes a built :class:`Table` through); code that
places canonical cells itself (the derived brackets, the matrix units)
wraps its rows in :class:`Table` directly.  Read a table
through its nonzeros: :func:`table_entries` (the (i, j, k, c) entries in
basis order), :func:`columns` (the cells as the columns of the
multiplication operators), :func:`product` (the product of two sparse
vectors, which reads each row of cells as the columns of a left operator;
:func:`apply_table` is its dense wrapper), :func:`operators` (those
operators as matrices) and :func:`int_scaled` (the nonzero cells over one
common denominator, for the exact checker).

Each identity the package verifies (associativity, the right Leibniz
identity, the Jacobi identity and the four Hu-Liu compatibility identities)
is declared once below, as data: an :class:`Identity` equates two sums of
nested products, each a :class:`Term`.  Three consumers are derived from
the declarations:

* the fused plan, which each :class:`Identity` derives once from its terms.
  Every term is read as outer(inner(u, v), w), the outer of a p(qr) term
  transposed.  Terms that share the inner table and u, v, w become one
  term, whose outer is the signed sum of theirs; terms that then share the
  outer, up to its sign, and u, v, w become one, whose inner is the signed
  sum of theirs.  An unfused term is a group of one.  On a derived pair the
  summed tables mostly cancel: [x,y] - <x,y> = x y1 - y1 x has 128
  nonzeros at dim 48, against 368 for the angle table and 496 for the
  square one, so there the four compatibility identities walk half the
  product chains of their declared terms (23,072 against 45,600);
* the exact checker :func:`verify_identities`, which walks the plan.  Per
  call it clears denominators jointly with :func:`int_scaled`; every term
  has degree two in the table entries, so clearing denominators cannot
  change which side differs.  Each table a term names, declared or a
  signed sum without the cells that cancel, is grouped once per call, by
  row, by column and by product coordinate, when first read; a transposed
  table swaps its table's rows and columns.  It
  walks the leading index i upward and, for each i, adds up every fused
  term's contributions to the triples (i, j, k) in one block.  A term
  contributes only where its inner product is nonzero, so it reads its
  inner nonzeros by their product coordinate l and the outer cells that
  take l as an argument by row l, flattened into key offsets once per call,
  or by column; the cells that take i as an argument come from the same
  groupings, so no empty cell is probed.  Each block's residual is the sum
  the declared terms give, so the first block with a nonzero residual names
  the lexicographically least failing triple.  The cost follows the
  nonzeros, and memory holds one block, at most dim^3 entries.

  An identity may declare an ``order``: the region of triples that holds
  its least failing triple once the checks its symmetry rests on hold, as
  the comment at its declaration says.  A caller that has run those checks
  asks for the ordered walk, in which every term adds only the chains of
  the triples in the region, so each block's residual there is still the
  declared terms' sum.  Jacobi is walked on i < j < k: it is cyclic by its
  form, a swap negates it once s is antisymmetric, and a repeated index
  then zeroes it.  Of the compatibility identities, C0 is walked on j < k
  (right Leibniz and antisymmetry make it alternating in y, z), C1 on
  i <= j (symmetric in x, y by its form) and C2 and C3 on i < j
  (alternating in x, y by antisymmetry, and for C3 right Leibniz too).
  Failing triples are closed under these swaps, and an alternating
  identity vanishes where the two swapped indices are equal, so the least
  failing triple lies in the region.  On the dim-48 ``block_upper(4,4)``
  pair Jacobi walks 2,288 chains against 14,496, and the compatibility
  identities 11,440 against 23,072.  The ordered walk checks the bounds
  the order puts on each term with one comparison a nonzero they bound,
  and does not walk the last indices, which start no triple of the
  region.  The walk of every triple runs the same loops, with every bound
  open;
* the witness replay :func:`evaluate` re-evaluates a failing triple, or any
  vectors, with the original rational entries.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Mapping, NamedTuple, Sequence

from .linalg import Matrix, Scalar, Vec, _apply, _row, rat, vadd, vec, zeros
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


class _Fused(NamedTuple):
    """``sign * outer(inner(u, v), w)``, where ``args`` = (u, v, w) are the
    indices of the variables in "xyz".  ``outer`` and ``inner`` are signed
    sums of tables, each a sorted tuple of (table name, transposed,
    coefficient) whose first coefficient is positive; an inner is never
    transposed."""

    sign: int
    outer: tuple[tuple[str, bool, int], ...]
    inner: tuple[tuple[str, bool, int], ...]
    args: tuple[int, int, int]


def _signed(parts: Mapping) -> tuple[int, tuple]:
    """(sign, sum) for a {(name, transposed): coefficient} sum, with the zero
    coefficients dropped and the sign taken out of the first one."""
    terms = sorted((*key, c) for key, c in parts.items() if c)
    sign = -1 if terms and terms[0][2] < 0 else 1
    return sign, tuple((name, tr, sign * c) for name, tr, c in terms)


def _fused_plan(lhs: Sequence[Term], rhs: Sequence[Term]) -> tuple[_Fused, ...]:
    """lhs - rhs as fused terms.  Every term is read as
    outer(inner(u, v), w), the outer of a p(qr) term transposed; terms that
    share the inner table and u, v, w become one, whose outer is the signed
    sum of theirs; terms that then share the outer (up to its sign) and
    u, v, w become one, whose inner is the signed sum of theirs."""
    outers: dict[tuple[str, tuple], dict] = {}
    for sign, side in ((1, lhs), (-1, rhs)):
        for t in side:
            p, q, r = ("xyz".index(v) for v in t.perm)
            args = (p, q, r) if t.shape == LEFT else (q, r, p)
            key = (t.outer, t.shape != LEFT)
            outer = outers.setdefault((t.inner, args), {})
            outer[key] = outer.get(key, 0) + sign
    inners: dict[tuple[tuple, tuple], dict] = {}
    for (name, args), parts in outers.items():
        sign, outer = _signed(parts)
        if outer:
            inner = inners.setdefault((outer, args), {})
            inner[name, False] = inner.get((name, False), 0) + sign
    plan = []
    for (outer, args), parts in inners.items():
        sign, inner = _signed(parts)
        if inner:
            plan.append(_Fused(sign, outer, inner, args))
    return tuple(plan)


# the gap of two variables an order leaves apart: below any difference of
# two basis indices, as a table of dim 2^20 would hold 2^40 cells
_OPEN = -(1 << 20)
# the bounds of a walk of every triple
_UNBOUNDED = (_OPEN, _OPEN, _OPEN, False)


def _chain(order: str) -> dict[int, tuple[int, int]]:
    """An order such as "x<y<z" or "x<=y", a chain of some of the variables
    ("" is every triple), as a map from each variable it names, by its index
    in "xyz", to its rank in the chain and the number of "<" before it.  x,
    the leading index of the walk, must come first when the chain names it."""
    chain, below = {}, 0
    # "x<=y<z" splits into "x", "=y", "z": a part after "<=" starts with "="
    for rank, part in enumerate(order.split("<") if order else ()):
        below += rank > 0 and not part.startswith("=")
        chain["xyz".index(part.lstrip("="))] = (rank, below)
    if chain.get(0, (0,))[0]:
        raise ValueError(f"x must lead the order {order!r}")
    return chain


def _gap(chain: Mapping, p: int, q: int) -> int | None:
    """The least value of variable q minus that of p that ``chain`` admits
    when it puts p before q; else None."""
    if p in chain and q in chain and chain[p][0] < chain[q][0]:
        return chain[q][1] - chain[p][1]
    return None


def _bounds(args: tuple[int, int, int], chain: Mapping) -> tuple:
    """What ``chain`` asks of the walk of a fused term with ``args`` =
    (u, v, w): three gaps and a flag, a gap the chain leaves open being
    :data:`_OPEN`, so that the empty chain gives :data:`_UNBOUNDED`.  When
    w is x, for a, b the values of u, v and the lead the earlier of them in
    the chain: (least lead - x, least b - a, least a - b, whether v leads);
    a bound on the lead bounds both.  Otherwise, for s the value of x's
    partner p in the inner product and t that of w: (least s - x, least
    t - s if the flag is set, else least t - x, least s - t, the flag);
    where the chain has x, p, w in that order, the bound from s implies the
    one from x."""
    u, v, w = args
    if w == 0:
        lead = min((r for r in (u, v) if r in chain), key=chain.get, default=u)
        gaps, flag = (_gap(chain, 0, lead), _gap(chain, u, v), _gap(chain, v, u)), lead == v
    else:
        p = v if u == 0 else u
        flag = _gap(chain, p, w) is not None
        gaps = _gap(chain, 0, p), _gap(chain, p if flag else 0, w), _gap(chain, w, p)
    return (*(_OPEN if g is None else g for g in gaps), flag)


class Identity:
    """The sum of the ``lhs`` terms equals the sum of the ``rhs`` terms.
    ``_plan``, lhs - rhs as fused terms, is derived from them once.

    The argument ``order`` (see :func:`_chain`) is the region of basis
    triples that holds the least failing triple once the checks the
    identity's symmetry rests on hold: the identity must take its failing
    triples to failing triples under the swaps the chain undoes, and vanish
    where a "<" ties.  ``_bounds`` holds the :func:`_bounds` of each term of
    ``_plan`` in the chain, and ``_above_x`` the number of indices the chain
    puts above x: that many of the last leading indices start no triple of
    the order."""

    __slots__ = ("name", "lhs", "rhs", "_plan", "_bounds", "_above_x")

    def __init__(self, name: str, lhs: tuple[Term, ...], rhs: tuple[Term, ...] = (),
                 order: str = ""):
        self.name, self.lhs, self.rhs = name, lhs, rhs
        self._plan = _fused_plan(lhs, rhs)
        chain = _chain(order)
        self._bounds = tuple(_bounds(term.args, chain) for term in self._plan)
        self._above_x = max(below for _, below in chain.values()) if 0 in chain else 0


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

# [[x,y],z] + [[y,z],x] + [[z,x],y] = 0.  Cyclic by its form; once s is
# antisymmetric a swap negates it, and a repeated variable zeroes it, so the
# ordered walk rests on the antisymmetry check.
JACOBI = Identity(
    "Jacobi identity",
    (Term("s", "s", LEFT, "xyz"), Term("s", "s", LEFT, "yzx"),
     Term("s", "s", LEFT, "zxy")),
    order="x<y<z")

# The identity quantifying a square <x,x> is declared through its polarized
# bilinear form, which is complete over characteristic zero.  Each is
# alternating or symmetric in two variables once the checks before it hold:
# right Leibniz at (x, y, z) plus at (x, z, y) gives <x, <y,z>+<z,y>> = 0, and
# s antisymmetric gives [u,v] + [v,u] = 0.  The ordered walk of each rests on
# the checks its comment names.
COMPATIBILITY = (
    # C0(x,y,z) + C0(x,z,y) = -<x, <y,z>+<z,y>>: right Leibniz, antisymmetry
    Identity(
        "angle absorbs square: <x,[y,z]> = <x,<y,z>>",
        (Term("a", "s", RIGHT, "xyz"),),
        (Term("a", "a", RIGHT, "xyz"),),
        order="y<z"),
    # symmetric in x, y by its form: no check
    Identity(
        "squares bracket alike (polarized): [<x,y>+<y,x>,z] = <<x,y>+<y,x>,z>",
        (Term("s", "a", LEFT, "xyz"), Term("s", "a", LEFT, "yxz")),
        (Term("a", "a", LEFT, "xyz"), Term("a", "a", LEFT, "yxz")),
        order="x<=y"),
    # C2(y,x,z) = -C2(x,y,z) term by term: antisymmetry
    Identity(
        "mixed cycle: <[x,y],z> + [<y,z>,x] + [y,<x,z>] = 0",
        (Term("a", "s", LEFT, "xyz"), Term("s", "a", LEFT, "yzx"),
         Term("s", "a", RIGHT, "yxz")),
        order="x<y"),
    # C3(x,y,z) + C3(y,x,z) = [S,z] + [z,S] + <z,S>, S = <x,y>+<y,x>: right
    # Leibniz, antisymmetry
    Identity(
        "mixed quadruple: [<x,y>,z] + [z,[x,y]] + [z,<y,x>] + <z,<x,y>> = 0",
        (Term("s", "a", LEFT, "xyz"), Term("s", "s", RIGHT, "zxy"),
         Term("s", "a", RIGHT, "zyx"), Term("a", "a", RIGHT, "zxy")),
        order="x<y"),
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
    return Table(tuple(tuple((k, rat(c)) for k, c in enumerate(v) if c) for v in row)
                 for row in rows)


def table_from_entries(dim: int, items: Iterable[tuple[int, int, int, object]]) -> Table:
    """Build a table from sparse (i, j, k, value) items; later items add up,
    and entries that cancel to zero are dropped.  An entry's first value is
    stored as :func:`rat` reads it, so only a repeated (i, j, k) costs an
    addition."""
    cells: dict[tuple[int, int], dict[int, Scalar]] = {}
    for i, j, k, val in items:
        if not (0 <= i < dim and 0 <= j < dim and 0 <= k < dim):
            raise ValueError(f"index ({i},{j},{k}) out of range for dim {dim}")
        cell = cells.setdefault((i, j), {})
        cell[k] = rat(cell[k] + rat(val)) if k in cell else rat(val)
    rows = [[()] * dim for _ in range(dim)]
    for (i, j), cell in cells.items():
        rows[i][j] = tuple((k, c) for k, c in sorted(cell.items()) if c)
    return Table(tuple(row) for row in rows)


def table_entries(t: Table) -> list[tuple[int, int, int, Scalar]]:
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
    """x y for vectors given by their nonzero (index, scalar) pairs, as a dict of
    its nonzeros: the sum of x_i times the left operator of e_i (row i of t) at y."""
    return _apply({i: _apply(t[i], y, 0).items() for i, _ in x}, x, 0)


def _check_side(side: str) -> bool:
    """True for side "right", False for "left"."""
    if side not in ("right", "left"):
        raise ValueError(f"side must be 'right' or 'left', not {side!r}")
    return side == "right"


def columns(t: Table, side: str) -> tuple[tuple[tuple[tuple[int, Scalar], ...], ...], ...]:
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


def int_scaled(tables: Sequence[Table]) -> list[list[tuple[int, int, tuple]]]:
    """Clear denominators jointly: per input, its nonzero cells as (a, b, cell)
    in basis order, a cell its (k, int) pairs.  One common factor scales
    every table, so identities mixing two tables stay homogeneous of the
    same degree.  When that factor is 1 the cells are the tables' own."""
    nonzero = [[(a, b, cell) for a, row in enumerate(t) for b, cell in enumerate(row) if cell]
               for t in tables]
    d = math.lcm(*{c.denominator for cells in nonzero for _, _, cell in cells for _, c in cell})
    if d == 1:
        return nonzero
    return [[(a, b, tuple([(k, c.numerator * (d // c.denominator)) for k, c in cell]))
             for a, b, cell in cells] for cells in nonzero]


def _grouped(spec: tuple, views: dict, dim: int) -> tuple[list, list, list]:
    """The groupings of the signed sum of tables ``spec``, built on first read
    and kept in ``views`` under ``spec``: lists indexed by basis index of the
    (b, cell) with cell (a, b) nonzero by row a, the (a, cell) by column b,
    and the (a, b, c) where cell (a, b) has c at l by product coordinate l.
    ``views`` maps each table name to its :func:`int_scaled` cells.  A
    transposed table reuses its table's groupings, rows and columns swapped;
    it is only ever an outer, which is never read by product coordinate, so
    its product grouping is None.  A sum is added once, without the cells
    that cancel."""
    grouped = views.get(spec)
    if grouped is not None:
        return grouped
    name, transposed, coef = spec[0]
    if len(spec) == 1 and coef == 1 and transposed:
        by_row, by_column, _ = _grouped(((name, False, 1),), views, dim)
        views[spec] = by_column, by_row, None
        return views[spec]
    if len(spec) == 1 and coef == 1:
        cells = views[name]
    else:
        # the sum's entries keyed by (a * dim + b) * dim + k, then read back in order
        sums: dict[int, int] = {}
        for name, transposed, coef in spec:
            for a, b, cell in views[name]:
                base = (b * dim + a if transposed else a * dim + b) * dim
                for k, c in cell:
                    key = base + k
                    sums[key] = sums.get(key, 0) + coef * c
        by_ab: dict[int, list] = {}
        for key in sorted(key for key, c in sums.items() if c):
            by_ab.setdefault(key // dim, []).append((key % dim, sums[key]))
        cells = [(*divmod(ab, dim), tuple(cell)) for ab, cell in by_ab.items()]
    basis = range(dim)
    by_row, by_column, by_product = [[] for _ in basis], [[] for _ in basis], [[] for _ in basis]
    for a, b, cell in cells:
        by_row[a].append((b, cell))
        by_column[b].append((a, cell))
        for l, c in cell:
            by_product[l].append((a, b, c))
    grouped = views[spec] = by_row, by_column, by_product
    return grouped


def _walk(term: _Fused, views: dict, dim: int, bounds: tuple):
    """``walk(i, acc)`` adds the fused term at the triples (i, j, k) that
    ``bounds`` (see :func:`_bounds`) admit into ``acc``, keyed by
    (j * dim + k) * dim + m for output coordinate m, each bound checked with
    one comparison a nonzero it bounds.  The walk of every triple passes
    :data:`_UNBOUNDED`, whose comparisons admit everything.  Against a loop
    with no bounds beside each bounded one, they cost the unordered checks
    of the corpus benchmark (dims 2-6) 5-6 % of their time in-process, and
    its median ``wall_s`` 4 % (0.278 to 0.290 s over 10 alternating pairs,
    2-vCPU host); construct's ``max_item_s`` moved 1.5 %."""
    # key weight of x, y, z: x is the block's own index, y and z place (j, k)
    weight = (0, dim * dim, dim)
    u, v, w = term.args
    wu, wv, ww = weight[u], weight[v], weight[w]
    outer_row, outer_column, _ = _grouped(term.outer, views, dim)
    inner_row, inner_column, by_l = _grouped(term.inner, views, dim)
    sign = term.sign
    keys = [None] * dim

    if w == 0:
        # x is the outer product's own argument: the cells outer[l][x] of
        # column x, each against the inner nonzeros (a, b) at l, whose keys
        # are built on first use, without the (a, b) the order rules out by
        # a and b alone, each led by the value of u or v that x bounds
        bound, b_a, a_b, by_v = bounds

        def walk(i, acc):
            lo = i + bound
            for l, cell in outer_column[i]:
                at_l = keys[l]
                if at_l is None:
                    at_l = keys[l] = [(b if by_v else a, a * wu + b * wv, sign * c)
                                      for a, b, c in by_l[l] if b - a >= b_a and a - b >= a_b]
                for lead, base, c in at_l:
                    if lead < lo:
                        continue
                    for m, cm in cell:
                        key = base + m
                        acc[key] = acc.get(key, 0) + c * cm
        return walk

    # x is an argument of the inner product and s its partner there; each
    # inner nonzero at l meets the outer row l, flattened into keys by w on
    # first use, in the order of w's value t
    partners, ws = (inner_row, wv) if u == 0 else (inner_column, wu)
    # s >= i + bound, and each row is cut to the t with t >= s + after
    # (from_s) or t >= i + after, and t <= s - before_p
    bound, after, before_p, from_s = bounds
    if after == before_p == _OPEN:
        # only s is bounded (the unordered terms, C1, C2's first term, C3):
        # one comparison a partner and none a chain; open row cuts in their
        # place cost construct's max_item_s 4-8 % (ROADMAP item 20)
        def walk(i, acc):
            lo = i + bound
            for s, cell in partners[i]:
                if s < lo:
                    continue
                base = s * ws
                for l, c in cell:
                    row = keys[l]
                    if row is None:
                        row = keys[l] = [(t * ww + m, sign * cm) for t, v in outer_row[l]
                                         for m, cm in v]
                    for off, cm in row:
                        key = base + off
                        acc[key] = acc.get(key, 0) + c * cm
        return walk
    after_w, stop_w = after * ww, (1 - before_p) * ww

    def walk(i, acc):
        lo, first = i + bound, i * ww + after_w
        for s, cell in partners[i]:
            if s < lo:
                continue
            base, sw = s * ws, s * ww
            if from_s:
                first = sw + after_w
            stop = sw + stop_w
            for l, c in cell:
                row = keys[l]
                if row is None:
                    row = keys[l] = [(t * ww + m, sign * cm) for t, v in outer_row[l]
                                     for m, cm in v]
                for off, cm in row:
                    if off < first:
                        continue
                    if off >= stop:
                        break
                    key = base + off
                    acc[key] = acc.get(key, 0) + c * cm
    return walk


def _first_failing_triple(identity: Identity, views: dict, dim: int,
                          ordered: bool = False) -> tuple[int, int, int] | None:
    """First basis triple (i, j, k), in lexicographic order, where lhs != rhs;
    ``views`` maps table names to their :func:`int_scaled` cells, and the
    groupings of every table the plan reads are added to it.  With
    ``ordered`` only the triples of the identity's order are walked, which
    finds the same triple once the checks its symmetry rests on hold."""
    blocks = range(dim - identity._above_x if ordered else dim)
    if not blocks:
        return None
    bounds = identity._bounds if ordered else (_UNBOUNDED,) * len(identity._plan)
    walks = [_walk(term, views, dim, b) for term, b in zip(identity._plan, bounds)]
    for i in blocks:
        acc: dict[int, int] = {}
        for walk in walks:
            walk(i, acc)
        if any(acc.values()):
            j, k = divmod(min(key for key, v in acc.items() if v) // dim, dim)
            return i, j, k
    return None


def verify_identities(identities: Sequence[Identity], tables: Mapping[str, Table],
                      holds: str, ordered: bool = False) -> Report:
    """Check each identity on every basis triple, in order; report the first
    failure with its witness replayed in exact rationals, else ``ok(holds)``.
    A caller passes ``ordered`` once the checks each identity's symmetry
    rests on hold; each is then walked on the triples of its order only."""
    views = dict(zip(tables, int_scaled(list(tables.values()))))
    dim = len(next(iter(tables.values())))
    for identity in identities:
        ijk = _first_failing_triple(identity, views, dim, ordered)
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

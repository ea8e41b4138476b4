"""Structure-constant algebras and square-zero even/odd gradings.

An :class:`Algebra` is a bilinear product stored as a structure-constant
table of rationals (see ``_tables``).  A :class:`GradedAlgebra` splits the
basis into an even and an odd part; the grading is *special*: products of
two odd basis elements must vanish, which is exactly what makes the derived
bracket constructions work.
Verification is exhaustive over basis tuples and certificate-producing.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from ._tables import (
    ASSOCIATIVITY,
    Table,
    apply_table,
    as_table,
    basis_vec,
    table_entries,
    table_from_entries,
    verify_identities,
)
from .linalg import Matrix, Vec, _solve_rows, vec
from .report import Checked, Report, checked_once, fail, memo, ok


class BimoduleError(ValueError):
    """A claimed bimodule action fails one of the three compatibility axioms."""

    def __init__(self, axiom: str, indices: tuple, lhs: Vec, rhs: Vec):
        self.axiom = axiom
        self.indices = indices
        self.lhs = lhs
        self.rhs = rhs
        super().__init__(f"bimodule axiom {axiom} fails at {indices}: {lhs} != {rhs}")


class Algebra(Checked):
    """Finite-dimensional algebra given by structure constants.

    ``table[i][j]`` holds the nonzero (k, c) coordinates of the product of
    basis elements i and j (see ``_tables``); a dense ``t[i][j][k]`` nested
    sequence is converted.  ``unit`` is the coordinate vector of an identity
    element when one exists (it need not be a basis element).
    """

    def __init__(self, table: Table, basis_names: Sequence[str] | None = None,
                 unit: Sequence | None = None):
        self.table = as_table(table)
        self.dim = len(self.table)
        self.basis_names = tuple(basis_names) if basis_names else tuple(
            f"e{i}" for i in range(self.dim)
        )
        if len(self.basis_names) != self.dim:
            raise ValueError("basis_names length != dim")
        self.unit = vec(unit) if unit is not None else None
        if self.unit is not None and len(self.unit) != self.dim:
            raise ValueError("unit vector length != dim")

    def multiply(self, x: Sequence, y: Sequence) -> Vec:
        return apply_table(self.table, x, y)

    def basis_vector(self, i: int) -> Vec:
        return basis_vec(self.dim, i)

    def report(self) -> Report:
        """The associativity report, checked once per object."""
        return memo(self, verify_associative)


@checked_once
def verify_associative(a: Algebra) -> Report:
    """Check (ei ej) ek = ei (ej ek) for all basis triples."""
    return verify_identities((ASSOCIATIVITY,), {"m": a.table}, "associativity")


def find_unit(a: Algebra) -> Vec | None:
    """Solve for a two-sided identity element; None if there is none.

    An entry c of e_i e_j at k is the coefficient of u_i in "u e_j = e_j at
    k" and of u_j in "e_i u = e_i at k".  An equation without entries reads
    0 = 0, or 0 = 1 when j = k, and then there is no unit."""
    # (j, k, 0) is "u e_j = e_j at k", (j, k, 1) is "e_j u = e_j at k"
    eqs: dict[tuple[int, int, int], dict] = {}
    for i, j, k, c in table_entries(a.table):
        eqs.setdefault((j, k, 0), {})[i] = c
        eqs.setdefault((i, k, 1), {})[j] = c
    if any((j, j, side) not in eqs for j in range(a.dim) for side in (0, 1)):
        return None
    # each distinct equation once; a row's unknowns were added in ascending order
    distinct = dict.fromkeys((tuple(row.items()), j == k) for (j, k, _), row in eqs.items())
    # the right-hand side, 1 when j = k, sits at column dim
    one = ((a.dim, 1),)
    return _solve_rows((row + one if diag else row for row, diag in distinct), a.dim)


class GradedAlgebra(Checked):
    """An algebra with an even/odd basis split subject to odd*odd = 0."""

    def __init__(self, algebra: Algebra, even: Sequence[int]):
        self.algebra = algebra
        even = set(even)
        self.even = tuple(sorted(even))
        if any(i < 0 or i >= algebra.dim for i in self.even):
            raise ValueError("even index out of range")
        self.odd = tuple(i for i in range(algebra.dim) if i not in even)

    @property
    def dim(self) -> int:
        return self.algebra.dim

    def even_part(self, v: Sequence) -> Vec:
        return self._without(v, self.odd)

    def odd_part(self, v: Sequence) -> Vec:
        return self._without(v, self.even)

    def _without(self, v: Sequence, drop) -> Vec:
        """v, read by ``vec`` with length dim, with the entries at ``drop`` zeroed."""
        drop = set(drop)
        return tuple(Fraction(0) if i in drop else x for i, x in enumerate(vec(v, self.dim)))

    def multiply(self, x: Sequence, y: Sequence) -> Vec:
        return self.algebra.multiply(x, y)

    def even_algebra(self) -> Algebra:
        """A0: the even basis in order, its products and the unit's even part
        (a special grading has an even unit; see ``xigroup.invert_unit``).
        Raises ValueError when an even*even product has an odd component."""
        at = {i: n for n, i in enumerate(self.even)}
        entries = []
        for i, j, k, c in table_entries(self.algebra.table):
            if i in at and j in at:
                if k not in at:
                    raise ValueError(f"even*even product ({i},{j}) has an odd component")
                entries.append((at[i], at[j], at[k], c))
        unit = self.algebra.unit
        return Algebra(table_from_entries(len(at), entries),
                       [self.algebra.basis_names[i] for i in self.even],
                       unit=None if unit is None else [unit[i] for i in self.even])

    def report(self) -> Report:
        """First failure of associativity, then of the special grading;
        each is checked once per object."""
        rep = self.algebra.report()
        return memo(self, verify_special_grading) if rep.holds else rep


@checked_once
def verify_special_grading(g: GradedAlgebra) -> Report:
    """Check even*even even, mixed products odd, and odd*odd = 0 on the basis."""
    a = g.algebra
    even, odd = set(g.even), set(g.odd)

    def clause_fail(name, i, j, allowed):
        ei, ej = a.basis_vector(i), a.basis_vector(j)
        prod = a.multiply(ei, ej)
        proj = tuple(c if k in allowed else Fraction(0) for k, c in enumerate(prod))
        return fail(name, (ei, ej), prod, proj, note=f"basis pair ({i},{j})")

    # entries come in basis-pair order, so the first bad one names the first
    # failing pair
    for i, j, k, _ in table_entries(a.table):
        if i in even and j in even:
            if k in odd:
                return clause_fail("even*even in even", i, j, even)
        elif i in odd and j in odd:
            return clause_fail("odd*odd = 0", i, j, set())
        elif k in even:
            return clause_fail("mixed products in odd", i, j, odd)
    return ok("special grading")


def _action_entries(actions: Sequence[Matrix], p: int, left: bool):
    """Sparse (row, col, k, value) entries of an action on the module basis,
    placed at indices p.. of the extension: column m of ``actions[i]`` is
    basis i acting on module basis m."""
    for i, mat in enumerate(actions):
        for k, row in enumerate(mat.nonzeros):
            for m, c in row:
                yield ((i, p + m) if left else (p + m, i)) + (p + k, c)


def _square_zero_extension(a0: Algebra, left: Sequence[Matrix],
                           right: Sequence[Matrix]) -> Algebra:
    """``a0`` plus a q-dim module M with M*M = 0, checked associative; see
    ``make_trivial_extension`` for the actions.

    A basis triple with two or more module indices multiplies to zero on both
    sides, so the extension is associative exactly when ``a0`` is and each
    bimodule axiom holds; each axiom is associativity at the triples with the
    single module index in one position.  The first failing triple, in
    lexicographic order, is raised as the axiom it instantiates, with both
    sides in module coordinates.  The associativity report stays in the
    extension's memo, so validating the extension does not check again.
    """
    p = a0.dim
    if p == 0:
        raise ValueError("base algebra of dimension 0: no action to read q from")
    if len(left) != p or len(right) != p:
        raise ValueError(f"need {p} left and {p} right actions, not {len(left)} and {len(right)}")
    q = left[0].rows
    if any(m.rows != q or m.cols != q for m in (*left, *right)):
        raise ValueError(f"action matrices must all be {q} x {q}")
    rep = a0.report()
    if not rep.holds:
        raise ValueError(f"base algebra not associative: {rep.witness.note}")
    entries = table_entries(a0.table)
    entries += _action_entries(left, p, left=True)
    entries += _action_entries(right, p, left=False)
    names = list(a0.basis_names) + [f"m{t}" for t in range(q)]
    ext = Algebra(table_from_entries(p + q, entries), names)
    rep = ext.report()
    if not rep.holds:
        w = rep.witness
        x, y, z = (v.index(1) for v in w.inputs)
        lhs, rhs = w.lhs[p:], w.rhs[p:]
        if z >= p:  # the axiom reads (ab).m = a.(b.m) right to left
            raise BimoduleError("a.(b.m) = (ab).m", (x, y, z - p), rhs, lhs)
        if y >= p:
            raise BimoduleError("(a.m).b = a.(m.b)", (x, z, y - p), lhs, rhs)
        raise BimoduleError("(m.a).b = m.(ab)", (y, z, x - p), lhs, rhs)
    return ext


def make_trivial_extension(a0: Algebra, left: Sequence[Matrix],
                           right: Sequence[Matrix]) -> GradedAlgebra:
    """Square-zero extension of ``a0`` by a q-dim bimodule.

    ``left[i]`` and ``right[i]`` are q x q matrices for basis element i of
    ``a0``: column m holds e_i.m and m.e_i, the form of ``operators``.  q is
    read from them; a wrong count or shape, or dim ``a0`` = 0, raises
    ValueError.  The product is (a+m)(b+n) = ab + (a.n + m.b); the odd part
    squares to zero.  The bimodule axioms are checked as associativity of
    that product on all basis triples; a failure raises
    :class:`BimoduleError`.
    """
    algebra = _square_zero_extension(a0, left, right)
    algebra.unit = find_unit(algebra)
    return GradedAlgebra(algebra, even=range(a0.dim)).validate()


def _matrix_units(cells: Sequence[tuple[int, int]],
                  name=lambda a, b: f"E{a + 1}{b + 1}") -> Algebra:
    """The span of the matrix units E_ab at ``cells``, in their order, with
    E_ab E_bd = E_ad when (a, d) is a cell too and products of units that do
    not meet zero; the diagonal units sum to the unit.  Unit E_ab is named
    ``name(a, b)``."""
    index = {cell: t for t, cell in enumerate(cells)}
    in_row = {}  # row b: the (d, index) of each cell (b, d), in order
    for (b, d), t in index.items():
        in_row.setdefault(b, []).append((d, t))
    rows = [[()] * len(cells) for _ in cells]
    for (a, b), s in index.items():
        for d, t in in_row.get(b, ()):
            if (a, d) in index:  # E_ab E_bd = E_ad fills exactly one cell
                rows[s][t] = ((index[a, d], 1),)
    return Algebra(Table(map(tuple, rows)), [name(a, b) for a, b in cells],
                   unit=[1 if a == b else 0 for a, b in cells])


def matrix_algebra(n: int) -> Algebra:
    """Full n x n matrix algebra on the matrix-unit basis (row-major)."""
    return _matrix_units([(a, b) for a in range(n) for b in range(n)])


def make_block_upper(p: int, q: int) -> GradedAlgebra:
    """Block matrices [[X, M], [0, Y]]: even = diagonal blocks, odd = corner.

    A concrete model family: grading holds because upper-right blocks multiply
    to zero inside the ambient (p+q) x (p+q) matrix algebra.  The basis is
    X, then Y, then M, each block row-major.
    """
    if p < 1 or q < 1:
        raise ValueError("block sizes must be >= 1")
    n = p + q
    cells = (
        [(a, b) for a in range(p) for b in range(p)]
        + [(a, b) for a in range(p, n) for b in range(p, n)]
        + [(a, b) for a in range(p) for b in range(p, n)]
    )

    def name(a, b):
        if a < p and b < p:
            return f"X{a + 1}{b + 1}"
        if a >= p and b >= p:
            return f"Y{a - p + 1}{b - p + 1}"
        return f"M{a + 1}{b - p + 1}"

    return GradedAlgebra(_matrix_units(cells, name), even=range(p * p + q * q)).validate()


def upper_triangular_model() -> GradedAlgebra:
    """The 3-dim algebra of 2x2 upper-triangular matrices, basis E11, E22, E12."""
    return GradedAlgebra(_matrix_units([(0, 0), (1, 1), (0, 1)]), even=[0, 1]).validate()


def dual_numbers() -> GradedAlgebra:
    """Basis (u, eps): u is a unit, eps^2 = 0; grading even = {u}, odd = {eps}."""
    one = Algebra([[[1]]], ["u"], unit=[1])
    return make_trivial_extension(one, [Matrix.identity(1)], [Matrix.identity(1)])

"""Bracket constructions on a special graded associative algebra.

Any verified even/odd algebra carries a right Leibniz bracket
<x, y> = x y0 - y0 x (y0 the even component of y) and, together with the
plain commutator [x, y] = xy - yx, a full Hu-Liu Leibniz structure.  The
constructions here build those bracket tables and re-verify the advertised
identities; a failure after a verified input is a bug, not bad input.
Both tables come from one pass over the associative table's cells: the
square's cell (i, j) is t[i][j] merged with t[j][i] negated, and the angle
table is the square with its odd columns emptied, since <x, e_j> = [x, e_j]
for even j and 0 for odd j.
Linearity of an abstract algebra is certified by an injective homomorphism
into a derived algebra -- only the witness is checked, never searched for.
"""

from __future__ import annotations

from dataclasses import replace

from ._tables import Table
from .algebras import GradedAlgebra
from .huliu import HuLiuAlgebra, check_huliu_homomorphism
from .leibniz import LeibnizAlgebra, check_leibniz_homomorphism
from .linalg import Matrix, rat, zeros
from .report import HomReport, Witness


def _square_table(t: Table) -> Table:
    """Cells x y - y x for basis x, y: cell (i, j) merges t[i][j] with
    t[j][i] negated.  A cell whose partner is empty is reused, or negated;
    only two nonempty cells are merged, through a dict, with ``rat`` on a
    collision, so the cells stay canonical as ``t``'s are."""
    rows = []
    for i, row in enumerate(t):
        out = []
        for j, a in enumerate(row):
            b = t[j][i]
            if not b:
                out.append(a)
            elif not a:
                out.append(tuple((k, -c) for k, c in b))
            else:
                cell = dict(a)
                for k, c in b:
                    cell[k] = rat(cell[k] - c) if k in cell else -c
                out.append(tuple((k, c) for k, c in sorted(cell.items()) if c))
        rows.append(tuple(out))
    return Table(rows)


def _angle_table(square: Table, odd) -> Table:
    """The square's cells at even columns and () at the ``odd`` ones:
    <x, e_j> = [x, e_j] for even j and 0 for odd j."""
    rows = []
    for row in square:
        row = list(row)
        for j in odd:
            row[j] = ()
        rows.append(tuple(row))
    return Table(rows)


def _verified(out):
    """``out`` once its report holds; a failure on a verified input is a bug."""
    rep = out.report()
    if not rep.holds:
        raise RuntimeError(
            f"derived bracket violates {rep.identity} at {rep.witness.note}; this is a bug"
        )
    return out


def _leibniz(g: GradedAlgebra, square: Table) -> LeibnizAlgebra:
    """The verified angle bracket of ``g``, masked from its ``square``."""
    return _verified(LeibnizAlgebra(_angle_table(square, g.odd), g.algebra.basis_names))


def derive_leibniz(g: GradedAlgebra) -> LeibnizAlgebra:
    """Angle bracket <x,y> = x y0 - y0 x on a verified graded algebra."""
    g.validate()
    return _leibniz(g, _square_table(g.algebra.table))


def derive_huliu(g: GradedAlgebra) -> HuLiuAlgebra:
    """Angle bracket plus commutator square bracket, verified."""
    g.validate()
    square = _square_table(g.algebra.table)
    return _verified(HuLiuAlgebra(_leibniz(g, square), square))


def verify_linear_embedding(algebra, g: GradedAlgebra, phi: Matrix) -> HomReport:
    """Certify linearity: phi must be an injective homomorphism into the
    algebra derived from ``g`` (both brackets when the input carries both)."""
    g.validate()
    if isinstance(algebra, HuLiuAlgebra):
        rep = check_huliu_homomorphism(algebra, derive_huliu(g), phi)
    elif isinstance(algebra, LeibnizAlgebra):
        rep = check_leibniz_homomorphism(algebra, derive_leibniz(g), phi)
    else:
        raise TypeError("expected a LeibnizAlgebra or HuLiuAlgebra")
    if rep.holds and not rep.injective:
        # a nonzero x in the kernel: lhs x, rhs 0
        x = rep.kernel.basis[0]
        return replace(rep, holds=False, identity="injectivity violated (nonzero kernel)",
                       witness=Witness((x,), x, zeros(len(x)), "nonzero x with phi(x) = 0"))
    return rep

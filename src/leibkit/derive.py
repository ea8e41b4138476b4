"""Bracket constructions on a special graded associative algebra.

Any verified even/odd algebra carries a right Leibniz bracket
<x, y> = x y0 - y0 x (y0 the even component of y) and, together with the
plain commutator [x, y] = xy - yx, a full Hu-Liu Leibniz structure.  The
constructions here build those bracket tables and re-verify the advertised
identities; a failure after a verified input is a bug, not bad input.
Linearity of an abstract algebra is certified by an injective homomorphism
into a derived algebra -- only the witness is checked, never searched for.
"""

from __future__ import annotations

from dataclasses import replace

from ._tables import table_entries, table_from_entries
from .algebras import GradedAlgebra
from .huliu import HuLiuAlgebra, check_huliu_homomorphism
from .leibniz import LeibnizAlgebra, check_leibniz_homomorphism
from .linalg import Matrix, zeros
from .report import HomReport, Witness


def _commutator_table(g: GradedAlgebra, even_only: bool):
    """Cells x y - y x for basis x, y, zero where ``even_only`` and y is odd,
    built from the nonzero products of the associative table."""
    keep = set(g.even) if even_only else range(g.dim)
    items = []
    for i, j, k, c in table_entries(g.algebra.table):
        if j in keep:  # e_i e_j is the first product of cell (i, j)
            items.append((i, j, k, c))
        if i in keep:  # and the second product of cell (j, i)
            items.append((j, i, k, -c))
    return table_from_entries(g.dim, items)


def _verified(out):
    """``out`` once its report holds; a failure on a verified input is a bug."""
    rep = out.report()
    if not rep.holds:
        raise RuntimeError(
            f"derived bracket violates {rep.identity} at {rep.witness.note}; this is a bug"
        )
    return out


def derive_leibniz(g: GradedAlgebra) -> LeibnizAlgebra:
    """Angle bracket <x,y> = x y0 - y0 x on a verified graded algebra."""
    g.validate()
    return _verified(LeibnizAlgebra(_commutator_table(g, even_only=True),
                                    g.algebra.basis_names))


def derive_huliu(g: GradedAlgebra) -> HuLiuAlgebra:
    """Angle bracket plus commutator square bracket, verified."""
    return _verified(HuLiuAlgebra(derive_leibniz(g),
                                  _commutator_table(g, even_only=False)))


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

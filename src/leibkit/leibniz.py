"""Right Leibniz algebras: identity checking, annihilator, ideals, simplicity.

The bracket is stored as a structure-constant table and is not assumed
antisymmetric.  Raw construction is deliberately allowed so the verifier has
something to run on; operations whose meaning depends on the bracket identity
(annihilator, simplicity, ...) insist on a verified algebra first.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Sequence

from ._tables import (
    RIGHT_LEIBNIZ,
    Table,
    apply_table,
    as_table,
    basis_vec,
    columns,
    evaluate,
    operators,
    product,
    table_entries,
    verify_identities,
)
from .linalg import Matrix, Subspace, Vec, _apply, _check_ambient, _echelon, _row, kernel
from .modules import (
    OperatorModule,
    _maps_into,
    closure,
    equivariant_projection_kernel,
    is_invariant,
    norton_irreducible,
    quotient,
    restriction,
)
from .report import Checked, HomReport, Report, checked_once, fail, memo, ok


class LeibnizAlgebra(Checked):
    """A bilinear bracket on Q^dim, expected to satisfy the right Leibniz identity."""

    def __init__(self, angle: Table, basis_names: Sequence[str] | None = None):
        self.angle = as_table(angle)
        self.dim = len(self.angle)
        self.basis_names = tuple(basis_names) if basis_names else tuple(
            f"e{i}" for i in range(self.dim)
        )
        if len(self.basis_names) != self.dim:
            raise ValueError("basis_names length != dim")

    def bracket(self, x: Sequence, y: Sequence) -> Vec:
        return apply_table(self.angle, x, y)

    def basis_vector(self, i: int) -> Vec:
        return basis_vec(self.dim, i)

    def report(self) -> Report:
        """The right Leibniz identity report, checked once per object."""
        return memo(self, verify_right_leibniz)


@checked_once
def verify_right_leibniz(algebra: LeibnizAlgebra) -> Report:
    """Check <<x,y>,z> = <x,<y,z>> + <<x,z>,y> on all basis triples."""
    return verify_identities((RIGHT_LEIBNIZ,), {"a": algebra.angle},
                             "right Leibniz identity")


def eval_right_leibniz(algebra: LeibnizAlgebra, x, y, z) -> tuple[Vec, Vec]:
    """Both sides of the identity at arbitrary vectors (for witness replay)."""
    return evaluate(RIGHT_LEIBNIZ, {"a": algebra.angle}, x, y, z)


def annihilator(algebra: LeibnizAlgebra) -> Subspace:
    """Span of all bracket squares <x,x>.

    Over Q the polarized generating set {<ei,ei>} + {<ei+ej,ei+ej>} spans the
    same space as the full sum over x; the symmetrized-bracket presentation
    span{<x,y>+<y,x>} is computed independently and must agree exactly --
    a mismatch is an internal bug, not bad input.
    """
    algebra.validate()
    return memo(algebra, _span_of_squares)


def _span_of_squares(algebra: LeibnizAlgebra) -> Subspace:
    dim, t = algebra.dim, algebra.angle

    def total(*cells):  # the sum of the given table cells, sparse
        return _apply(cells, [(k, 1) for k in range(len(cells))], 0)

    # only pairs with an entry in cell (i, j) or (j, i) are taken: for any
    # other, <ei,ej> + <ej,ei> = 0 and <ei+ej,ei+ej> = <ei,ei> + <ej,ej>
    pairs = sorted({(min(i, j), max(i, j)) for i, j, _, _ in table_entries(t)})
    squares = [total(t[i][i]) if i == j else total(t[i][i], t[j][j], t[i][j], t[j][i])
               for i, j in pairs]
    by_squares = Subspace(dim, _echelon(squares, dim))
    symmetrized = [total(t[i][j], t[j][i]) for i, j in pairs]
    by_symmetrized = Subspace(dim, _echelon(symmetrized, dim))
    if by_squares != by_symmetrized:
        raise RuntimeError(
            "annihilator presentations disagree; this is a bug in the bracket tables"
        )
    return by_squares


def multiplication_operators(algebra: LeibnizAlgebra) -> tuple[Matrix, ...]:
    """Right and left multiplications by all basis elements, as matrices."""
    return operators(algebra.angle, "right") + operators(algebra.angle, "left")


def is_ideal(algebra: LeibnizAlgebra, sub: Subspace) -> bool:
    """True iff <I,L> and <L,I> both land in I, checked on bases."""
    _check_ambient(sub, algebra.dim)
    t = algebra.angle
    return _maps_into(columns(t, "right") + columns(t, "left"), sub, sub)


def ideal_closure(algebra: LeibnizAlgebra, seed_space: Subspace) -> Subspace:
    """Least ideal containing the given subspace (fixpoint of adding products)."""
    _check_ambient(seed_space, algebra.dim)
    return closure(multiplication_operators(algebra), seed_space)


@dataclass(frozen=True)
class SimplicityVerdict:
    """Outcome of the simplicity test.

    NotSimple carries either a certificate ideal outside {0, annihilator, L}
    or the fact that the annihilator vanishes; Simple carries the chain of
    conditions that was established; Unknown names the inconclusive sub-test.
    """

    tag: str  # "Simple" | "NotSimple" | "Unknown"
    reason: str
    certificate: Subspace | None = None
    checks: tuple[str, ...] = ()


def _certified_not_simple(ops, ann, dim, cert: Subspace, reason: str) -> SimplicityVerdict:
    if not is_invariant(ops, cert):
        raise RuntimeError("simplicity certificate is not an ideal; classifier bug")
    if cert.dim in (0, dim) or cert == ann:
        raise RuntimeError("simplicity certificate is not a proper new ideal; classifier bug")
    return SimplicityVerdict("NotSimple", reason, certificate=cert)


def classify_simplicity(algebra: LeibnizAlgebra, seed: int = 0) -> SimplicityVerdict:
    """Decide whether the only ideals are 0, the annihilator, and everything.

    Ideals are exactly the subspaces invariant under the multiplication
    operators, so the test runs module-theoretically: the annihilator must be
    irreducible, the quotient by it must be irreducible, and it must admit no
    invariant complement.  Randomized sub-tests take an explicit seed and
    run Norton's test at its ``NORTON_BUDGET`` attempts; an exhausted budget
    yields Unknown, never a wrong answer.

    The annihilator is never all of L: the right Leibniz identity at z = y
    gives <x,<y,y>> = 0, so if the squares spanned L every bracket, and with
    it every square, would vanish.
    """
    algebra.validate()
    return _classify(algebra, multiplication_operators(algebra), seed)


def _classify(algebra: LeibnizAlgebra, ops: tuple[Matrix, ...], seed: int) -> SimplicityVerdict:
    """The module-theoretic test on a verified algebra whose ideals are the
    subspaces invariant under ``ops``.

    The last step, the search for an invariant complement of the
    annihilator, can never succeed.  Let I != 0 be the annihilator and
    suppose an ideal J had J meet I = 0 and J + I = L.  Then <J,I> and
    <I,J> lie in J meet I = 0.  Right Leibniz at z = y gives <x,<y,y>> = 0,
    so <L,I> = 0, hence <I,L> = <I,J> + <I,I> = 0.  For j in J and a in I,
    <j+a, j+a> = <j,j> lies in J, so every square lies in J and I lies in
    J meet I = 0, a contradiction.  The Hu-Liu classifier's ideals are among
    these, so the same holds there.

    The step still runs, and its check is reported.  It solves for a module
    section L/I -> L, k (d - k) unknowns for I of dimension k in L of
    dimension d, and stops at the first contradictory row.  A nonzero left
    multiplication L_a by a in I gives one outright: it kills I, as
    <L,I> = 0, and maps L into I, so its rows read 0 = c.
    """
    ann = annihilator(algebra)
    dim = algebra.dim
    mod = OperatorModule(dim, ops)
    rng = random.Random(seed)
    checks: list[str] = []

    if ann.dim == 0:
        return SimplicityVerdict("NotSimple", "annihilator is zero")

    status, wit = norton_irreducible(restriction(mod, ann), rng)
    if status == "reducible":
        # wit is in the coordinates of ann's RREF basis
        images = (_apply(ann.nonzeros, c, 0).items() for c in wit.nonzeros)
        cert = Subspace(dim, _echelon(images, dim))
        return _certified_not_simple(
            ops, ann, dim, cert, "proper ideal strictly inside the annihilator")
    if status == "unknown":
        return SimplicityVerdict(
            "Unknown", "irreducibility of the annihilator undecided within budget")
    checks.append("annihilator module irreducible")

    quo = quotient(mod, ann)
    status, wit = norton_irreducible(quo.mod, rng)
    if status == "reducible":
        # wit is in quotient coordinates, which lift to the positions quo.free
        lifted = (((quo.free[a], x) for a, x in c) for c in wit.nonzeros)
        cert = Subspace(dim, _echelon([*ann.nonzeros, *lifted], dim))
        return _certified_not_simple(
            ops, ann, dim, cert, "ideal strictly between the annihilator and L")
    if status == "unknown":
        return SimplicityVerdict(
            "Unknown", "irreducibility of the quotient module undecided within budget")
    checks.append("quotient module irreducible")

    ker = equivariant_projection_kernel(mod, ann)
    if ker is not None:
        return _certified_not_simple(
            ops, ann, dim, ker, "annihilator has an invariant complement ideal")
    checks.append("no invariant complement of the annihilator")

    return SimplicityVerdict("Simple", "only ideals are 0, the annihilator, and L",
                             checks=tuple(checks))


def _bracket_compatibility(source: Table, target: Table, phi: Matrix,
                           identity: str) -> Report:
    """First basis pair (i, j), in lexicographic order, where
    phi(source(ei, ej)) != target(phi ei, phi ej), read off phi's columns."""
    dim, n, cols = len(source), phi.rows, phi._cols
    for i in range(dim):
        for j in range(dim):
            lhs = _apply(cols, source[i][j], 0)
            rhs = product(target, cols[i], cols[j])
            if lhs != rhs:
                return fail(identity, (basis_vec(dim, i), basis_vec(dim, j)), _row(n, lhs.items()),
                            _row(n, rhs.items()), note=f"basis pair ({i},{j})")
    return ok(identity)


def check_leibniz_homomorphism(algebra: LeibnizAlgebra, target: LeibnizAlgebra,
                               phi: Matrix) -> HomReport:
    """Check phi(<x,y>) = <phi x, phi y> on basis pairs; report injectivity too."""
    if phi.rows != target.dim or phi.cols != algebra.dim:
        raise ValueError(
            f"map shape {phi.rows}x{phi.cols} does not fit {algebra.dim} -> {target.dim}"
        )
    ker = kernel(phi)
    image = Subspace(target.dim, _echelon(phi._cols, target.dim))
    rep = _bracket_compatibility(algebra.angle, target.angle, phi, "bracket compatibility")
    return HomReport(rep.holds, rep.identity, rep.witness, ker.dim == 0, ker, image)


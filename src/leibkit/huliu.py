"""Hu-Liu Leibniz algebras: a Leibniz bracket coupled to a Lie bracket.

The pair must satisfy four compatibility identities on top of the right
Leibniz identity and the Lie axioms.  The identity quantifying a square
<x,x> is checked through its polarized bilinear form, which is complete
over characteristic zero; everything else runs on basis triples.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Sequence

from ._tables import (
    COMPATIBILITY,
    JACOBI,
    Table,
    apply_table,
    as_table,
    basis_vec,
    columns,
    evaluate,
    operators,
    product,
    verify_identities,
)
from .leibniz import (
    LeibnizAlgebra,
    SimplicityVerdict,
    _bracket_compatibility,
    _classify,
    annihilator,
    check_leibniz_homomorphism,
    multiplication_operators,
)
from .linalg import Matrix, Subspace, Vec, _check_ambient, _reduce, _row, vscale, zeros
from .modules import _maps_into
from .report import Checked, HomReport, Report, checked_once, fail, memo, ok, require


class HuLiuAlgebra(Checked):
    """An angle (Leibniz) bracket and a square (Lie) bracket on the same space."""

    def __init__(self, angle: Table | LeibnizAlgebra, square: Table,
                 basis_names: Sequence[str] | None = None):
        if isinstance(angle, LeibnizAlgebra):
            if basis_names and tuple(basis_names) != angle.basis_names:
                raise ValueError("basis_names differ from the Leibniz algebra's")
            self.leibniz = angle
        else:
            self.leibniz = LeibnizAlgebra(angle, basis_names)
        self.square = as_table(square)
        if len(self.square) != self.leibniz.dim:
            raise ValueError("angle and square tables have different dimensions")

    @property
    def dim(self) -> int:
        return self.leibniz.dim

    @property
    def basis_names(self):
        return self.leibniz.basis_names

    def angle_bracket(self, x, y) -> Vec:
        return self.leibniz.bracket(x, y)

    def square_bracket(self, x, y) -> Vec:
        return apply_table(self.square, x, y)

    def report(self) -> Report:
        """First failure of the right Leibniz identity, then of the Lie axioms,
        then of the compatibility identities; each is checked once per object."""
        rep = self.leibniz.report()
        if rep.holds:
            rep = memo(self, verify_lie, self.square)
        if rep.holds:
            rep = memo(self, verify_huliu_identities)
        return rep


def verify_lie(square: Table) -> Report:
    """Antisymmetry on basis pairs, then the Jacobi identity on the basis
    triples i < j < k, where antisymmetry puts its first failure."""
    square, dim = as_table(square), len(square)
    for i in range(dim):
        for j in range(i, dim):
            a, b = square[i][j], square[j][i]
            if (a or b) and a != tuple((k, -c) for k, c in b):
                ei, ej = basis_vec(dim, i), basis_vec(dim, j)
                return fail("antisymmetry", (ei, ej), apply_table(square, ei, ej),
                            vscale(-1, apply_table(square, ej, ei)), note=f"basis pair ({i},{j})")
    return verify_identities((JACOBI,), {"s": square}, "Lie bracket", ordered=True)


def eval_huliu_identity(h: HuLiuAlgebra, which: int, x, y, z) -> tuple[Vec, Vec]:
    """lhs and rhs of compatibility identity ``which`` (0..3) at vectors."""
    if which not in range(len(COMPATIBILITY)):
        raise ValueError(f"no identity {which}")
    return evaluate(COMPATIBILITY[which], {"a": h.leibniz.angle, "s": h.square},
                    x, y, z)


@checked_once
def verify_huliu_identities(h: HuLiuAlgebra) -> Report:
    """Check the four compatibility identities; report the first that fails.

    Raises ValueError unless the layers :meth:`HuLiuAlgebra.report` checks
    before this one hold.  ``h.validate()`` would run this check itself, so
    the two layers are required here one by one.  Since they hold, each
    identity is walked on the ordered triples its ``order`` declares.
    """
    h.leibniz.validate()
    require(memo(h, verify_lie, h.square))
    return verify_identities(COMPATIBILITY, {"a": h.leibniz.angle, "s": h.square},
                             "compatibility identities", ordered=True)


def adjoint_operators(h: HuLiuAlgebra) -> tuple[Matrix, ...]:
    """Square-bracket adjoints ad_j: v -> [e_j, v] for all basis j."""
    return operators(h.square, "left")


def is_huliu_ideal(h: HuLiuAlgebra, sub: Subspace) -> bool:
    """True iff <I,L>, <L,I> and [L,I] all land in I."""
    _check_ambient(sub, h.dim)
    g = h.leibniz.angle
    return _maps_into(columns(g, "right") + columns(g, "left") + columns(h.square, "left"),
                      sub, sub)


def is_huliu_subalgebra(h: HuLiuAlgebra, sub: Subspace) -> Report:
    """Both brackets of basis pairs (a, b) of S must stay in S.

    Pairs run over a, then b, the angle bracket before the square one; the
    report names the first bracket value outside S, and reads none when S = Q^dim.
    """
    dim = h.dim
    _check_ambient(sub, dim)
    if sub.dim == dim:
        return ok("Hu-Liu subalgebra")
    for a in sub.nonzeros:
        for b in sub.nonzeros:
            for which, t in (("angle", h.leibniz.angle), ("square", h.square)):
                if _reduce(sub._rows, value := product(t, a, b)):
                    return fail(f"closure under the {which} bracket",
                                (_row(dim, a), _row(dim, b)), _row(dim, value.items()),
                                zeros(dim), note="bracket value leaves the subspace")
    return ok("Hu-Liu subalgebra")


def classify_huliu_simplicity(h: HuLiuAlgebra, seed: int = 0) -> SimplicityVerdict:
    """Same module-theoretic test, with the adjoint operators added."""
    h.validate()
    ops = multiplication_operators(h.leibniz) + adjoint_operators(h)
    verdict = _classify(h.leibniz, ops, seed)
    if verdict.tag == "NotSimple" and verdict.certificate is not None:
        if not is_huliu_ideal(h, verdict.certificate):
            raise RuntimeError("certificate fails the two-bracket ideal test; classifier bug")
    return verdict


def check_huliu_homomorphism(h: HuLiuAlgebra, target: HuLiuAlgebra,
                             phi: Matrix) -> HomReport:
    """Check both bracket compatibilities; attach kernel and image.

    When the map is a homomorphism the kernel must be an ideal and the image
    a subalgebra; both facts are re-verified and a failure is a bug.
    """
    base = check_leibniz_homomorphism(h.leibniz, target.leibniz, phi)
    if not base.holds:
        return replace(base, identity="angle " + base.identity)
    rep = _bracket_compatibility(h.square, target.square, phi,
                                 "square bracket compatibility")
    if not rep.holds:
        return replace(base, holds=False, identity=rep.identity, witness=rep.witness)
    if not is_huliu_ideal(h, base.kernel):
        raise RuntimeError("homomorphism kernel is not an ideal; check is buggy")
    if not is_huliu_subalgebra(target, base.image):
        raise RuntimeError("homomorphism image is not a subalgebra; check is buggy")
    return replace(base, identity="both brackets")


def annihilator_abelian_check(h: HuLiuAlgebra) -> Report:
    """Check [a, b] = 0 over a basis of the annihilator.

    Runnable on a raw pair whose compatibility identities fail, as a
    diagnostic; only the Leibniz part must verify (the annihilator needs it).
    """
    ann, dim = annihilator(h.leibniz), h.dim
    for a in ann.nonzeros:
        for b in ann.nonzeros:
            if val := product(h.square, a, b):
                return fail("annihilator is abelian", (_row(dim, a), _row(dim, b)),
                            _row(dim, val.items()), zeros(dim))
    return ok("annihilator is abelian")


"""Invariant subspaces of a finite set of linear operators.

This is the engine behind the simplicity classifiers: ideals of a bracket
algebra are exactly the subspaces invariant under its multiplication
operators, so deciding simplicity reduces to irreducibility of the modules
cut out by the annihilator.  Irreducibility is tested by a randomized
null-space/spin method; a nullity-one element whose kernel vector and
transpose-kernel vector both spin to the full space is a proof, any proper
spin is a counterexample, and an exhausted retry budget returns "unknown",
never a wrong answer.

Spinning is incremental and runs on linalg's one reducer: each image is
added to the pivot rows of the span so far, each image that adds a pivot is
hit once by each nonzero operator, and the spin stops at full dimension.
The pivot rows are the canonical RREF of the span, so they are the result.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from ._tables import basis_vec
from .linalg import (Matrix, Subspace, Vec, _ZERO, _add, _nonzeros, _reduce, _row, _solve_rows,
                     kernel, span)

NORTON_BUDGET = 64
NORTON_MAX_WORD = 8


@dataclass(frozen=True)
class OperatorModule:
    dim: int
    operators: tuple[Matrix, ...]


def closure(operators, s: Subspace) -> Subspace:
    """Least subspace containing s and invariant under all operators.

    The reducer starts from the pivot rows of s.  Each basis vector of s,
    and each image that adds a pivot, is hit once by each nonzero operator,
    and spinning stops at full dimension.  The images of a spanning set lie
    in the span, so it is invariant, and its pivot rows are its RREF basis.
    """
    n = s.ambient_dim
    ops = [t for t in operators if not t.is_zero()]
    piv = {p: dict(r) for p, r in s._rows.items()}
    todo = list(s.basis)
    for v in todo:
        if len(piv) == n:
            break
        for t in ops:
            w = t.matvec(v)
            if _add(piv, _nonzeros(w)) is not None:
                todo.append(w)
                if len(piv) == n:
                    break
    return s if len(piv) == s.dim else Subspace._from_rows(n, piv)


def spin(mod: OperatorModule, vectors) -> Subspace:
    return closure(mod.operators, span(vectors, mod.dim))


def is_invariant(operators, s: Subspace) -> bool:
    return all(s.contains(t.matvec(b)) for b in s.basis for t in operators)


def restriction(mod: OperatorModule, s: Subspace) -> OperatorModule:
    """Operators restricted to an invariant subspace, in its RREF-basis coordinates."""
    mats = []
    for t in mod.operators:
        cols = []
        for b in s.basis:
            coords = s.coords(t.matvec(b))
            if coords is None:
                raise ValueError("subspace is not invariant")
            cols.append(coords)
        mats.append(Matrix._trusted(tuple(zip(*cols))))
    return OperatorModule(s.dim, tuple(mats))


@dataclass(frozen=True)
class QuotientModule:
    """Module on the quotient by an invariant subspace.

    Quotient coordinates live on the non-pivot standard positions of the
    subspace's RREF basis; ``lift`` sends quotient coordinates back to
    representative vectors in the ambient space.
    """

    mod: OperatorModule
    free: tuple[int, ...]
    sub: Subspace

    @property
    def dim(self) -> int:
        return self.mod.dim

    def lift(self, coords) -> Vec:
        return _row(self.sub.ambient_dim, zip(self.free, coords))


def quotient(mod: OperatorModule, s: Subspace) -> QuotientModule:
    pivots = set(s.pivots)
    free = tuple(j for j in range(mod.dim) if j not in pivots)
    mats = []
    for t in mod.operators:
        # t e_f reduced against s is zero at the pivots: column f of the quotient
        cols = [_reduce(s._rows, _nonzeros(t.col(f))) for f in free]
        mats.append(Matrix._trusted(tuple(tuple(c.get(g, _ZERO) for c in cols) for g in free)))
    return QuotientModule(OperatorModule(len(free), tuple(mats)), free, s)


def _random_algebra_element(ops: list[Matrix], rng: random.Random) -> Matrix:
    d = ops[0].rows
    acc = Matrix.zero(d, d)
    for _ in range(rng.randint(1, 3)):
        word = None
        for _ in range(rng.randint(1, NORTON_MAX_WORD)):
            t = ops[rng.randrange(len(ops))]
            word = t if word is None else word @ t
        c = rng.choice((-3, -2, -1, 1, 2, 3))
        acc = acc + word.scale(c)
    return acc


def norton_irreducible(mod: OperatorModule, rng: random.Random,
                       budget: int = NORTON_BUDGET) -> tuple[str, Subspace | None]:
    """Decide irreducibility of the module.

    Returns ("irreducible", None), ("reducible", proper invariant subspace),
    or ("unknown", None) when the randomized budget is exhausted without a
    proof either way.
    """
    d = mod.dim
    if d == 0:
        raise ValueError("empty module")
    if d == 1:
        return "irreducible", None
    ops = [t for t in mod.operators if not t.is_zero()]
    if not ops:
        return "reducible", span([basis_vec(d, 0)], d)
    for _ in range(budget):
        theta = _random_algebra_element(ops, rng)
        ker = kernel(theta)
        if ker.dim == 0:
            continue
        for v in ker.basis:
            w = spin(mod, [v])
            if w.dim < d:
                return "reducible", w
        if ker.dim == 1:
            ops_t = [t.T for t in mod.operators]
            ker_t = kernel(theta.T)
            wt = closure(ops_t, span([ker_t.basis[0]], d))
            if wt.dim < d:
                # the annihilator of a proper dual submodule is a proper submodule
                perp = kernel(wt.matrix())
                return "reducible", perp
            return "irreducible", None
    return "unknown", None


def equivariant_projection_kernel(mod: OperatorModule, sub: Subspace) -> Subspace | None:
    """Kernel of a projection onto ``sub`` commuting with all operators.

    Solves the affine linear system P B = I, (B P) T = T (B P) for a
    coefficient matrix P; feasibility means ``sub`` has an invariant
    complement, returned as ker P.  Returns None when infeasible.  The
    system's rows are made one at a time as the solver reads them, so an
    infeasible system is left at its first contradictory row.
    """
    d, k = mod.dim, sub.dim
    if k == 0 or k == d:
        raise ValueError("complement question needs a proper nonzero subspace")
    sol = _solve_rows(_projection_system(mod, sub), k * d)
    if sol is None:
        return None
    return kernel(Matrix._trusted(tuple(sol[a * d:(a + 1) * d] for a in range(k))))


def _projection_system(mod: OperatorModule, sub: Subspace):
    """The sparse augmented rows of P B = I, (B P) T = T (B P): unknown (a, c)
    of P is column a * d + c, the right-hand side column k * d."""
    d, k = mod.dim, sub.dim
    for a in range(k):
        for bb, col in enumerate(sub.nonzeros):
            yield [(a * d + c, x) for c, x in col] + ([(k * d, Fraction(1))] if a == bb else [])
    # Row (i, j) of the commutation block for T: sum_a,c b[i][a] t[c][j] at
    # unknown (a, c), minus sum_a (T B)[i][a] at unknown (a, j).  Only the
    # nonzero products are formed; zero rows are dropped.
    b = Matrix._trusted(tuple(zip(*sub.basis)))  # d x k
    b_nz = b.nonzeros
    for t in mod.operators:
        tb_nz = (t @ b).nonzeros
        t_cols = t.T.nonzeros
        for i in range(d):
            if not b_nz[i] and not tb_nz[i]:
                continue
            for j in range(d):
                terms: dict[int, Fraction] = {}
                for a, x in b_nz[i]:
                    for c, y in t_cols[j]:
                        terms[a * d + c] = terms.get(a * d + c, 0) + x * y
                for a, x in tb_nz[i]:
                    terms[a * d + j] = terms.get(a * d + j, 0) - x
                row = [(u, x) for u, x in terms.items() if x]
                if row:
                    yield row

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

Both spin and Norton's rank test first run modulo the prime p = 2^31 - 1
(linalg's GF(p) layer), on the same inputs, and that pre-pass can only
prove an answer.  Lemma: for a matrix M with p-integral rational entries,
rank over Q >= rank over GF(p) of M mod p, since a nonzero minor mod p is
a nonzero minor over Q.  The spin of s is spanned by the vectors w(T)b for
words w in the operators and basis vectors b of s; reduction mod p is a
ring map on p-integral rationals, so those vectors reduce to the ones that
span the mod-p spin.  Hence a mod-p spin of full dimension proves that the
rational spin is full, and a Norton element theta of full rank mod p is
invertible over Q, so its kernel is 0.  A proper mod-p result proves
nothing (p may divide a minor), and then the rational computation runs
unchanged.  When p divides a denominator there is no reduction, and the
pre-pass is skipped.  Norton's random draws are the same either way, so
the pre-pass changes no result.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from ._tables import basis_vec
from .linalg import (Matrix, Subspace, Vec, _ONE, _P, _ZERO, _add, _add_p, _matvec_p, _mod_p,
                     _nonzeros, _reduce, _row, _solve_rows, full_space, kernel, span)

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
    A mod-p spin of full dimension returns the full space first.
    """
    n = s.ambient_dim
    ops = [t for t in operators if not t.is_zero()]
    if s.dim < n and _spin_full_mod_p(ops, s):
        return full_space(n)
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


def _spin_full_mod_p(ops: list[Matrix], s: Subspace) -> bool:
    """Whether the spin of s under ops, reduced mod p, is the whole space.

    True proves the rational spin is the whole space (the lemma in the
    module docstring); False proves nothing, and is also the answer when p
    divides a denominator of an operator or of s.
    """
    n = s.ambient_dim
    cols = [t._cols_p for t in ops]
    piv = {p: _mod_p(r.items()) for p, r in s._rows.items()}
    if None in cols or None in piv.values():
        return False
    # s's pivot rows stay in reduced row-echelon form mod p: pivot 1, zero at the others
    todo = [{p: 1, **r} for p, r in piv.items()]
    for v in todo:
        for c in cols:
            w = _matvec_p(c, v)
            if _add_p(piv, w) is not None:
                if len(piv) == n:
                    return True
                todo.append(w)
    return False


def spin(mod: OperatorModule, vectors) -> Subspace:
    return closure(mod.operators, span(vectors, mod.dim))


def is_invariant(operators, s: Subspace) -> bool:
    return all(s.contains(t.matvec(b)) for b in s.basis for t in operators)


def restriction(mod: OperatorModule, s: Subspace) -> OperatorModule:
    """Operators restricted to an invariant subspace, in its RREF-basis coordinates.

    Each image t b is summed from the columns of t at b's nonzeros; it lies
    in s iff it reduces to 0, and its coordinates are its pivot entries.
    """
    rows, k = s._rows, s.dim
    basis = [((p, _ONE), *rows[p].items()) for p in s.pivots]
    position = {p: a for a, p in enumerate(s.pivots)}
    mats = []
    for t in mod.operators:
        t_cols: list[list[tuple[int, Fraction]]] = [[] for _ in range(mod.dim)]
        for i, r in enumerate(t.nonzeros):
            for j, x in r:
                t_cols[j].append((i, x))
        cols = []
        for b in basis:
            w: dict[int, Fraction] = {}
            for j, x in b:
                for i, y in t_cols[j]:
                    w[i] = w[i] + x * y if i in w else x * y
            if _reduce(rows, ((i, y) for i, y in w.items() if y)):
                raise ValueError("subspace is not invariant")
            cols.append(_row(k, [(position[i], y) for i, y in w.items() if i in position]))
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


def _random_recipe(count: int, rng: random.Random) -> list[tuple[tuple[int, ...], int]]:
    """A random element of the algebra of ``count`` operators, as a recipe
    [(operator indices, coefficient)]: the sum over its terms of the
    coefficient times the product of the operators, left to right."""
    recipe = []
    for _ in range(rng.randint(1, 3)):
        word = tuple(rng.randrange(count) for _ in range(rng.randint(1, NORTON_MAX_WORD)))
        recipe.append((word, rng.choice((-3, -2, -1, 1, 2, 3))))
    return recipe


def _recipe_matrix(ops: list[Matrix], recipe) -> Matrix:
    d = ops[0].rows
    acc = Matrix.zero(d, d)
    for word, c in recipe:
        m = ops[word[0]]
        for i in word[1:]:
            m = m @ ops[i]
        acc = acc + m.scale(c)
    return acc


def _full_rank_mod_p(cols: list[tuple[dict[int, int], ...]], recipe, d: int) -> bool:
    """Whether the recipe's d x d matrix, from operators given by their
    columns mod p, has rank d mod p.  True proves it invertible over Q (the
    lemma in the module docstring); False proves nothing.  Column j is built
    as the words applied to e_j, and the test stops at the first column
    dependent on those before it."""
    piv: dict[int, dict[int, int]] = {}
    for j in range(d):
        col: dict[int, int] = {}
        for word, c in recipe:
            v = {j: 1}
            for i in reversed(word):
                v = _matvec_p(cols[i], v)
            for i, x in v.items():
                col[i] = (col.get(i, 0) + c * x) % _P
        if _add_p(piv, {i: x for i, x in col.items() if x}) is None:
            return False
    return True


def norton_irreducible(mod: OperatorModule, rng: random.Random,
                       budget: int = NORTON_BUDGET) -> tuple[str, Subspace | None]:
    """Decide irreducibility of the module.

    Returns ("irreducible", None), ("reducible", proper invariant subspace),
    or ("unknown", None) when the randomized budget is exhausted without a
    proof either way.  Each element theta is drawn as a recipe and tested
    for full rank mod p first; only a theta that fails that test is built
    over Q and its kernel taken.
    """
    d = mod.dim
    if d == 0:
        raise ValueError("empty module")
    if d == 1:
        return "irreducible", None
    ops = [t for t in mod.operators if not t.is_zero()]
    if not ops:
        return "reducible", span([basis_vec(d, 0)], d)
    cols = [t._cols_p for t in ops]
    if None in cols:
        cols = None
    for _ in range(budget):
        recipe = _random_recipe(len(ops), rng)
        if cols is not None and _full_rank_mod_p(cols, recipe, d):
            continue  # theta is invertible over Q: its kernel is 0
        theta = _recipe_matrix(ops, recipe)
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

"""Invariant subspaces of a finite set of linear operators.

This is the engine behind the simplicity classifiers: ideals of a bracket
algebra are exactly the subspaces invariant under its multiplication
operators, so deciding simplicity reduces to irreducibility of the modules
cut out by the annihilator.  Irreducibility is tested by a randomized
null-space/spin method; a nullity-one element whose kernel vector and
transpose-kernel vector both spin to the full space is a proof, any proper
spin is a counterexample, and an exhausted retry budget returns "unknown",
never a wrong answer.  Its random elements are drawn from all the nonzero
operators, but both spins run over the distinct ones: an operator that is a
nonzero multiple of another adds no invariant subspace.  Each kernel line is
spun at most once per call: a line seen again would spin to the full space
again, so it is skipped, and the random draws do not change.

One spin loop serves both fields, as does one builder of Norton's elements
from the operators' cached columns; both run on linalg's one reducer and
read a subspace's basis as its ``Subspace.nonzeros``.  Each image is added
to the pivot rows of the span so far, each image that adds a pivot is hit
once by each nonzero operator, and the spin stops at full dimension; the
pivot rows are the canonical RREF of the span.  Restricted and quotient
modules are built by one helper, which keeps a zero operator, unapplied, in
its place.

Spin and Norton's rank test first run modulo the prime p = 2^31 - 1, and
that pass can only prove an answer.  Lemma: for a matrix M with p-integral
rational entries, rank over Q >= rank over GF(p) of M mod p, since a
nonzero minor mod p is a nonzero minor over Q.  The spin of s is spanned by
the vectors w(T)b for words w in the operators and basis vectors b of s;
reduction mod p is a ring map on p-integral rationals, so those vectors
reduce to the ones that span the mod-p spin.  Hence a mod-p spin of full
dimension proves that the rational spin is full, and a Norton element
theta of full rank mod p is invertible over Q, so its kernel is 0.  A
proper mod-p result proves nothing (p may divide a minor), and then the
same spin runs over Q.  When p divides a denominator there is no
reduction, and the pass is skipped.  Norton's random draws are the same
either way, so the pass changes no result.

An invariant subspace W of V has an invariant complement exactly when
0 -> W -> V -> V/W -> 0 splits, that is, when some section V/W -> V
commutes with the operators.  The complement search solves for that
section, k (d - k) unknowns for W of dimension k in V of dimension d, from
the operators' restrictions to W, their quotient operators, and the entries
at W's pivots of their columns at W's free positions; it returns the
section's image, the kernel of an equivariant projection onto W.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .linalg import (Matrix, Subspace, _P, _add, _apply, _check_ambient, _echelon,
                     _mod_p, _pairs, _reduce, _solve_rows, full_space, kernel)

NORTON_BUDGET = 64
NORTON_MAX_WORD = 8


@dataclass(frozen=True)
class OperatorModule:
    dim: int
    operators: tuple[Matrix, ...]

    def __post_init__(self):
        _check_square(self.operators, self.dim)


def _check_square(operators, n: int):
    for t in operators:
        if t.rows != n or t.cols != n:
            raise ValueError(f"operator is {t.rows}x{t.cols}, not {n}x{n}")


def closure(operators, s: Subspace) -> Subspace:
    """Least subspace containing s and invariant under all operators, each
    of which must be square of the ambient dimension of s.

    The spin of the basis of s (:func:`_spin`) is invariant, since the
    images of a spanning set lie in the span, and its pivot rows are its
    RREF basis.  A mod-p spin of full dimension returns the full space first.
    """
    n = s.ambient_dim
    _check_square(operators, n)
    ops = [t for t in operators if not t.is_zero()]
    if s.dim < n and _spin_full_mod_p(ops, s):
        return full_space(n)
    piv = _spin([t._cols for t in ops], s.nonzeros, n)
    return s if len(piv) == s.dim else Subspace(n, piv)


def _spin(cols, vectors, n: int, p: int = 0) -> dict[int, dict]:
    """The pivot rows of the spin of vectors given as (index, value) pairs
    under the operators given by their columns (``Matrix._cols``, or
    ``_cols_p`` when p is not 0), over Q when p is 0, else mod p.  Each vector
    that adds a pivot is hit once by each operator; spinning stops at dim n."""
    piv: dict[int, dict] = {}
    todo = [v for v in vectors if _add(piv, v, p) is not None]
    for v in todo:
        for c in cols:
            if len(piv) == n:
                return piv
            w = _apply(c, v, p)
            if _add(piv, w, p) is not None:
                todo.append(w.items())
    return piv


def _spin_full_mod_p(ops: list[Matrix], s: Subspace) -> bool:
    """Whether the spin of s under ops, reduced mod p, is the whole space.

    True proves the rational spin is the whole space (the lemma in the
    module docstring); False proves nothing, and is also the answer when p
    divides a denominator of an operator or of s.
    """
    n, cols_p = s.ambient_dim, [t._cols_p for t in ops]
    vs = [_mod_p(v) for v in s.nonzeros]
    return None not in cols_p and None not in vs and len(_spin(cols_p, vs, n, _P)) == n


def is_invariant(operators, s: Subspace) -> bool:
    return all(s.contains(t.matvec(b)) for b in s.basis for t in operators)


def _maps_into(cols, s: Subspace, target: Subspace) -> bool:
    """Whether every operator, given by its columns' nonzero (row, value)
    pairs, maps s into target: each image of s's sparse basis reduces to 0
    against target's pivot rows.  The whole space holds every image, so no
    column is applied for it."""
    if target.dim == target.ambient_dim:
        return True
    rows = target._rows
    return not any(_reduce(rows, _apply(c, b, 0)) for c in cols for b in s.nonzeros)


def _induced(mod: OperatorModule, k: int, column) -> OperatorModule:
    """The k-dim module with one operator per operator t of mod, in order:
    the k x k matrix whose column a is ``column(t, a)``, as sparse pairs.  A
    zero operator becomes the zero matrix without being applied, and keeps
    its place, so Norton's draws index the same operators."""
    return OperatorModule(k, tuple(
        Matrix.zero(k, k) if t.is_zero()
        else Matrix._sparse(k, k, c=tuple(column(t, a) for a in range(k)))
        for t in mod.operators))


def restriction(mod: OperatorModule, s: Subspace) -> OperatorModule:
    """Operators restricted to an invariant subspace, in its RREF-basis coordinates.

    Each image t b is applied from t's cached columns; it lies in s iff it
    reduces to 0, and its coordinates are its pivot entries.
    """
    _check_ambient(s, mod.dim)
    position = {c: a for a, c in enumerate(s.pivots)}

    def column(t: Matrix, a: int):
        w = _apply(t._cols, s.nonzeros[a], 0)
        if _reduce(s._rows, w):
            raise ValueError("subspace is not invariant")
        return _pairs((position[i], y) for i, y in w.items() if i in position)

    return _induced(mod, s.dim, column)


@dataclass(frozen=True)
class QuotientModule:
    """Module on the quotient by an invariant subspace.

    Quotient coordinates live on the non-pivot standard positions ``free``
    of the subspace's RREF basis; placed there, they give a representative
    vector in the ambient space.
    """

    mod: OperatorModule
    free: tuple[int, ...]

    @property
    def dim(self) -> int:
        return self.mod.dim


def quotient(mod: OperatorModule, s: Subspace) -> QuotientModule:
    _check_ambient(s, mod.dim)
    free = tuple(j for j in range(mod.dim) if j not in s._rows)
    position = {f: a for a, f in enumerate(free)}
    # t e_f reduced against s is zero at the pivots: column f of the quotient
    return QuotientModule(_induced(mod, len(free), lambda t, a: _pairs(
        (position[g], y) for g, y in _reduce(s._rows, t._cols[free[a]]).items())), free)


def _random_recipe(count: int, rng: random.Random) -> list[tuple[tuple[int, ...], int]]:
    """A random element of the algebra of ``count`` operators, as a recipe
    [(operator indices, coefficient)]: the sum over its terms of the
    coefficient times the product of the operators, left to right."""
    recipe = []
    for _ in range(rng.randint(1, 3)):
        word = tuple(rng.randrange(count) for _ in range(rng.randint(1, NORTON_MAX_WORD)))
        recipe.append((word, rng.choice((-3, -2, -1, 1, 2, 3))))
    return recipe


def _recipe_columns(cols, recipe, d: int, p: int = 0):
    """The columns of the recipe's d x d matrix theta, as sparse dicts, from
    operators given by their columns, over Q when p is 0, else mod p.
    Column j applies each word to e_j, its last operator first (that image
    is the operator's column j), and sums the images with the recipe's
    coefficients: one more column apply."""
    coeffs = [(k, c) for k, (_, c) in enumerate(recipe)]
    for j in range(d):
        images = []
        for word, _ in recipe:
            v = cols[word[-1]][j]
            for i in word[-2::-1]:
                v = _apply(cols[i], v, p).items()
            images.append(v)
        yield _apply(images, coeffs, p)


def _full_rank_mod_p(cols_p, recipe, d: int) -> bool:
    """Whether the recipe's d x d matrix, from operators given by their
    columns mod p, has rank d mod p.  True proves it invertible over Q (the
    lemma in the module docstring); False proves nothing.  The test stops at
    the first column dependent on those before it."""
    piv: dict[int, dict[int, int]] = {}
    return all(_add(piv, c, _P) is not None for c in _recipe_columns(cols_p, recipe, d, _P))


def _distinct(ops: list[Matrix]) -> list[Matrix]:
    """The nonzero ops without the multiples of earlier ones, which add no
    invariant subspace: keyed by the columns over their first nonzero entry,
    divided exactly (``/`` of two ints would give a float)."""
    first: dict[tuple, Matrix] = {}
    for t in ops:
        x0 = next(c[0][1] for c in t._cols if c)
        inv = Fraction(x0.denominator, x0.numerator)
        first.setdefault(tuple(tuple((i, y * inv) for i, y in c) for c in t._cols), t)
    return list(first.values())


def norton_irreducible(mod: OperatorModule, rng: random.Random) -> tuple[str, Subspace | None]:
    """Decide irreducibility of the module.

    Returns ("irreducible", None), ("reducible", proper invariant subspace),
    or ("unknown", None) when ``NORTON_BUDGET`` random elements, the budget
    read at each call, are drawn without a proof either way.  Each element
    theta is drawn as a recipe and tested for full rank mod p first; only a
    theta that fails that test is built over Q, from its sparse columns,
    and its kernel taken.  The spins are
    closures under the distinct operators, the dual one under their
    transposes, which read the operators' rows as their columns.  Each
    kernel line is spun at most once per call: the singular elements of a
    nilpotent-heavy module keep returning the same few lines, and a line
    already spun to the full space is skipped.  The draws, kernels and
    answers are those of spinning every line.
    """
    d = mod.dim
    if d == 0:
        raise ValueError("empty module")
    if d == 1:
        return "irreducible", None
    ops = [t for t in mod.operators if not t.is_zero()]
    if not ops:
        return "reducible", Subspace(d, {0: {}})  # the line of e_0
    distinct = _distinct(ops)
    cols_p = [t._cols_p for t in ops]
    spun: set[Subspace] = set()  # kernel lines whose spin is the full space
    for _ in range(NORTON_BUDGET):
        recipe = _random_recipe(len(ops), rng)
        if None not in cols_p and _full_rank_mod_p(cols_p, recipe, d):
            continue  # theta is invertible over Q: its kernel is 0
        theta = Matrix._sparse(d, d, c=tuple(
            _pairs(c.items()) for c in _recipe_columns([t._cols for t in ops], recipe, d)))
        ker = kernel(theta)
        if ker.dim == 0:
            continue
        for p in ker.pivots:
            # an RREF basis row is the one pivot row of the line it spans
            line = Subspace(d, {p: ker._rows[p]})
            if line in spun:
                continue
            w = closure(distinct, line)
            if w.dim < d:
                return "reducible", w
            spun.add(line)
        if ker.dim == 1:
            # the dual spin: theta's transpose has a one-dimensional kernel too
            wt = closure([t.T for t in distinct], kernel(theta.T))
            if wt.dim < d:
                # the annihilator of a proper dual submodule is a proper submodule
                return "reducible", kernel(wt.matrix())
            return "irreducible", None
    return "unknown", None


def equivariant_projection_kernel(mod: OperatorModule, sub: Subspace) -> Subspace | None:
    """Kernel of a projection onto ``sub`` commuting with all operators, or
    None when there is none.

    ``sub`` = W has an invariant complement exactly when 0 -> W -> V -> V/W
    -> 0 splits, that is, when a module section V/W -> V exists.  With W's
    RREF basis b_a (a < k) and its m = d - k free positions f, a section is
    s(e_f) = e_f + sum_a X[a][f] b_a, and it commutes with every operator T
    exactly when R_T X - X Q_T = -C_T (:func:`_section_system`): k * m
    unknowns.  The image span{s(e_f)} of the solution with free unknowns 0
    is returned; it is the kernel of the equivariant projection I - s pi
    onto W.  A W that is not invariant has no such projection.

    The result is the one that solving for the projection gives: the k x d
    coefficient matrix P with P B = I and B P commuting with every T, free
    unknowns 0, and then ker P.  Row a of P is read off row a of X: P's
    column f is -X's column f, and its column at b_a's pivot is a
    combination of X's columns at the free positions past that pivot.  So a
    homogeneous solution P, unknown (a, c) ordered by a * d + c, has its
    last nonzero where X has, unknown (a, f) ordered by a * m + the index
    of f.  An unknown is free exactly when some homogeneous solution has
    its last nonzero there, so the two systems have the same free unknowns,
    and their solutions with those unknowns 0 give the same section.
    """
    _check_ambient(sub, mod.dim)
    d, k = mod.dim, sub.dim
    if k == 0 or k == d:
        raise ValueError("complement question needs a proper nonzero subspace")
    free = tuple(j for j in range(d) if j not in sub._rows)
    m = len(free)
    sol = _solve_rows(_section_system(mod, sub, free), k * m)
    if sol is None:
        return None
    # s(e_f) = e_f + sum_a X[a][f] b_a: columns b_0 .. b_(k-1), then the e_f
    cols = (*sub.nonzeros, *(((f, 1),) for f in free))
    images = (_apply(cols, [*_pairs((a, sol[a * m + i]) for a in range(k)), (k + i, 1)], 0)
              for i in range(m))
    return Subspace(d, _echelon((w.items() for w in images), d))


def _section_system(mod: OperatorModule, sub: Subspace, free: tuple[int, ...]):
    """The sparse augmented rows of R_T X - X Q_T = -C_T over the nonzero
    operators T, one operator at a time, as the solver reads them.

    X[a][i] is unknown a * m + i, the right-hand side column k * m.  Column
    b of R_T holds the pivot entries of column b of T B, T applied to basis
    vector b (as :func:`restriction` reads them); column i of Q_T is T e_f,
    f = free[i], reduced against the pivot rows (as :func:`quotient` reads
    it); and column i of C_T holds T e_f's entries at the pivots.  Only the
    nonzero rows are made.  A T that does not keep ``sub`` invariant
    contributes the row 0 = 1: no projection onto ``sub`` commutes with it.
    An infeasible system is left at its first contradictory row, so the
    operators after it are never read.
    """
    k, m = sub.dim, len(free)
    n = k * m
    position = {c: a for a, c in enumerate(sub.pivots)}
    index = {f: i for i, f in enumerate(free)}
    basis = Matrix._sparse(mod.dim, k, c=sub.nonzeros)  # d x k, column b is basis vector b
    for t in mod.operators:
        if t.is_zero():
            continue
        r_rows: list[list] = [[] for _ in range(k)]  # row a of R_T at unknowns b * m
        for b, w in enumerate((t @ basis)._cols):
            if _reduce(sub._rows, w):
                yield [(n, 1)]
                return
            for c, y in w:
                if c in position:
                    r_rows[position[c]].append((b * m, y))
        q_cols = [[(index[g], y) for g, y in _reduce(sub._rows, t._cols[f]).items()]
                  for f in free]
        c_cols = [{position[c]: y for c, y in t._cols[f] if c in position} for f in free]
        for a, r_row in enumerate(r_rows):
            for i, (q_col, c_col) in enumerate(zip(q_cols, c_cols)):
                # row (a, i): sum_b R[a][b] X[b][i] - sum_g X[a][g] Q[g][i] = -C[a][i]
                row = {bm + i: y for bm, y in r_row}
                for g, y in q_col:
                    u = a * m + g
                    row[u] = row[u] - y if u in row else -y
                if a in c_col:
                    row[n] = -c_col[a]
                if row := [(u, x) for u, x in row.items() if x]:
                    yield row

"""Independent brute-force oracles used by the tests.

Nothing here calls the classifiers under test; only the basic linear-algebra
kernel is reused (and checked itself against the entrywise references here), and the tangent-space reference re-verifies a rebuilt
bracket pair with the Hu-Liu verifiers.  The simplicity oracle for
dimension <= 2 enumerates ideal candidates two ways: closures of all
small-coordinate vectors, and (for dimension 2) the exact rational
invariant lines of the multiplication operators via eigenvalue analysis,
which makes the search exhaustive.  The per-sample xi-group loops reuse
the float primitives that the batched checks are built from (products,
membership residuals, and the batch inverse ``_unit_inverses`` on one-row
stacks), take xi(x) from the exact ``xi`` and norms from the SVD, and redo
the looping; the full-norm references are the batched checks with an exact
norm on every row, where the package bounds the norms first.  The curve
reference takes its exponential in the matrix realization and maps it back
to coordinates, where leibkit exponentiates left multiplication directly;
the line curve and its slope fit live only here.  The direct sum, the
Killing form and the two annihilator-action flags, which only tests call,
reuse the package's annihilator and operator-column test.  The dense
subalgebra and abelian-annihilator loops read each bracket as a dense
vector through the public ``apply_table`` and test it on the dense basis.
The entries-built commutator and matrix-unit tables list every nonzero
product as an (i, j, k, value) entry and sum them in ``table_from_entries``,
where the package places each cell directly.
"""

from fractions import Fraction
from itertools import product
from math import isqrt, lcm

import numpy as np

from leibkit._tables import LEFT, columns, table_entries, table_from_entries
from leibkit.huliu import HuLiuAlgebra, adjoint_operators
from leibkit.algebras import matrix_algebra
from leibkit.leibniz import LeibnizAlgebra, annihilator
from leibkit.linalg import (Matrix, Subspace, _echelon, full_space, kernel, solve, span, vadd,
                            vec, vscale, zeros)
from leibkit.modules import _maps_into
from leibkit.report import fail, ok
from leibkit.xigroup import (_UNIT_RESIDUAL, NotAUnitError, XiGroupReport, _not_a_unit,
                             _unit_inverses, check_sample_count, expm, xi)


def dense(t):
    """The coefficients t[i][j][k], as nested tuples of Fractions, of a table
    whose cell t[i][j] holds the nonzero (k, c) pairs of product i, j."""
    dim = len(t)
    return tuple(tuple(tuple(Fraction(dict(cell).get(k, 0)) for k in range(dim))
                       for cell in row) for row in t)


def dense_apply_table(t, x, y):
    """sum_ij x_i y_j t[i][j], over every basis pair, with every entry of x
    and y read as a Fraction first."""
    cells, x, y = dense(t), vec(x), vec(y)
    dim = len(cells)
    acc = zeros(dim)
    for i in range(dim):
        for j in range(dim):
            acc = vadd(acc, vscale(x[i] * y[j], cells[i][j]))
    return acc


def bracket_operators(angle):
    angle, dim = dense(angle), len(angle)
    right = [Matrix.from_cols([angle[i][j] for i in range(dim)]) for j in range(dim)]
    left = [Matrix.from_cols([angle[j][i] for i in range(dim)]) for j in range(dim)]
    return right + left


def naive_closure(ops, sub):
    cur = sub
    while True:
        extra = [t.matvec(b) for b in cur.basis for t in ops
                 if not cur.contains(t.matvec(b))]
        if not extra:
            return cur
        cur = cur.sum(span(extra, cur.ambient_dim))


def rref(m):
    """Reduced row-echelon form of a Matrix; preserves the row space."""
    return m.rref()


def _rref(rows, width):
    """Reduced row-echelon form of sparse rows by the package's reducer:
    (nonzero dense rows, pivot columns)."""
    s = Subspace(width, _echelon(rows, width))
    return list(s.basis), list(s.pivots)


def contains_subspace(s, t):
    """Whether the subspace t lies in the subspace s of the same Q^n."""
    _same_ambient(s, t)
    return all(s.contains(b) for b in t.basis)


def intersect(s, t):
    """The intersection of two subspaces of Q^n: x = sum a_i s_i = sum b_j t_j,
    so (a, -b) runs over the kernel of the matrix with columns s_i and -t_j."""
    _same_ambient(s, t)
    if s.is_zero() or t.is_zero():
        return span([], s.ambient_dim)
    cols = [list(b) for b in s.basis] + [[-x for x in b] for b in t.basis]
    ker = kernel(Matrix.from_cols(cols))
    combos = [[sum((c * b[j] for c, b in zip(k, s.basis)), Fraction(0))
               for j in range(s.ambient_dim)] for k in ker.basis]
    return span(combos, s.ambient_dim)


def _same_ambient(s, t):
    if s.ambient_dim != t.ambient_dim:
        raise ValueError(f"ambient mismatch: {s.ambient_dim} vs {t.ambient_dim}")


# -- Leibniz and Hu-Liu helpers that only tests call ----------------------------

def direct_sum(a, b):
    """The Leibniz algebra a + b with the block-diagonal bracket."""
    s = a.dim
    entries = table_entries(a.angle)
    entries += [(s + i, s + j, s + k, c) for i, j, k, c in table_entries(b.angle)]
    names = [f"a.{n}" for n in a.basis_names] + [f"b.{n}" for n in b.basis_names]
    return LeibnizAlgebra(table_from_entries(s + b.dim, entries), names)


def killing_form(h):
    """Trace form of the square-bracket adjoints."""
    ads = adjoint_operators(h)

    def trace(m):
        return sum((m.data[i][i] for i in range(m.rows)), Fraction(0))

    return Matrix([[trace(ads[i] @ ads[j]) for j in range(h.dim)] for i in range(h.dim)])


def annihilator_action_nonzero(algebra):
    """Informational flag: is <annihilator, L> nonzero?

    This is the hypothesis under which a simple algebra is claimed to be
    linear; the flag is reported, the conclusion is never asserted.
    """
    ann = annihilator(algebra)
    return not _maps_into(columns(algebra.angle, "right"), ann, span([], algebra.dim))


def annihilator_square_action_nonzero(h):
    """Informational flag: is [annihilator, L] nonzero?"""
    ann = annihilator(h.leibniz)
    return not _maps_into(columns(h.square, "right"), ann, span([], h.dim))


def rational_norton(mod, rng, budget, max_word=8):
    """Norton's null-space/spin test over Q alone, with the same random
    draws as ``modules.norton_irreducible``: every element theta is built as
    a rational matrix and its kernel taken, and every spin is the naive
    closure.  Returns (status, witness) like the tested function."""
    d = mod.dim
    if d == 1:
        return "irreducible", None
    ops = [t for t in mod.operators if not t.is_zero()]
    if not ops:
        return "reducible", span([[1] + [0] * (d - 1)], d)
    for _ in range(budget):
        theta = Matrix.zero(d, d)
        for _ in range(rng.randint(1, 3)):
            word = None
            for _ in range(rng.randint(1, max_word)):
                t = ops[rng.randrange(len(ops))]
                word = t if word is None else word @ t
            theta = theta + word.scale(rng.choice((-3, -2, -1, 1, 2, 3)))
        ker = kernel(theta)
        if ker.dim == 0:
            continue
        for v in ker.basis:
            w = naive_closure(mod.operators, span([v], d))
            if w.dim < d:
                return "reducible", w
        if ker.dim == 1:
            wt = naive_closure([t.T for t in mod.operators], span([kernel(theta.T).basis[0]], d))
            if wt.dim < d:
                return "reducible", kernel(wt.matrix())
            return "irreducible", None
    return "unknown", None


def derived_ideal(h):
    """The span of all products of the Hu-Liu pair h under both brackets,
    read from the dense table cells: every product lands in it, so it is a
    two-bracket ideal."""
    return span([cell for t in (h.leibniz.angle, h.square) for row in dense(t) for cell in row],
                h.dim)


def rotation_bracket(p):
    """Dense bracket of Phi_p: Q x + Q^(p-1) with <v, x> = C v for the
    companion matrix C of 1 + t + ... + t^(p-1); its annihilator Q^(p-1) is
    an irreducible module whose operator algebra is the field Q(zeta_p)."""
    t = [[[Fraction(0)] * p for _ in range(p)] for _ in range(p)]
    q = p - 1
    for col in range(q):
        if col < q - 1:
            t[1 + col][0][2 + col] = Fraction(1)
        else:
            for row in range(q):
                t[1 + col][0][1 + row] = Fraction(-1)
    return t


def is_invariant(ops, sub):
    return all(sub.contains(t.matvec(b)) for b in sub.basis for t in ops)


def _is_scalar(m):
    n = m.rows
    d = m.data[0][0]
    return all(m.data[i][j] == (d if i == j else 0) for i in range(n) for j in range(n))


def _rational_sqrt(x: Fraction):
    if x < 0:
        return None
    pn, qd = isqrt(x.numerator), isqrt(x.denominator)
    if pn * pn == x.numerator and qd * qd == x.denominator:
        return Fraction(pn, qd)
    return None


def invariant_lines_dim2(ops):
    """All 1-dim invariant subspaces of 2x2 operators, or 'all' when every
    operator is scalar (so every line is invariant)."""
    nonscalar = [t for t in ops if not _is_scalar(t)]
    if not nonscalar:
        return "all"
    t = nonscalar[0]
    tr = t.data[0][0] + t.data[1][1]
    det = t.data[0][0] * t.data[1][1] - t.data[0][1] * t.data[1][0]
    root = _rational_sqrt(tr * tr - 4 * det)
    if root is None:
        return []
    lines = []
    for lam in {(tr + root) / 2, (tr - root) / 2}:
        eig = kernel(t - Matrix.identity(2).scale(lam))
        for b in eig.basis:
            line = span([b], 2)
            if is_invariant(ops, line) and line not in lines:
                lines.append(line)
    return lines


def annihilator_by_symmetrization(angle):
    angle, dim = dense(angle), len(angle)
    gens = [tuple(a + b for a, b in zip(angle[i][j], angle[j][i]))
            for i in range(dim) for j in range(i, dim)]
    return span(gens, dim)


def brute_force_simplicity(angle) -> str:
    """'Simple' or 'NotSimple' for a Leibniz bracket of dimension <= 2.

    Ideal candidates: closures of every vector with coordinates in
    {-1, 0, 1}, plus (dim 2) the exact invariant lines.  Exhaustive in
    dimension <= 2 because proper nonzero ideals are lines.
    """
    dim = len(angle)
    assert dim <= 2
    ops = bracket_operators(angle)
    ann = annihilator_by_symmetrization(angle)
    if ann.dim == 0:
        return "NotSimple"
    zero = span([], dim)
    allowed = {zero, ann, full_space(dim)}
    ideals = set()
    for coords in product((-1, 0, 1), repeat=dim):
        if any(coords):
            ideals.add(naive_closure(ops, span([coords], dim)))
    if dim == 2:
        lines = invariant_lines_dim2(ops)
        if lines == "all":
            # infinitely many ideal lines; at most one of them is the annihilator
            return "NotSimple"
        ideals.update(lines)
    return "Simple" if ideals <= allowed else "NotSimple"


def matrix_unit_table(n, cells):
    """The dense table t[s][u][v] of the span of the n x n matrix units at
    ``cells``: each basis product is the product of the two dense 0/1 unit
    matrices, read back at the cells.  A product with an entry off the cells
    raises AssertionError."""
    units = []
    for a, b in cells:
        m = np.zeros((n, n), dtype=np.int64)
        m[a, b] = 1
        units.append(m)
    table = []
    for x in units:
        row = []
        for y in units:
            p = x @ y
            coords = tuple(Fraction(int(p[a, b])) for a, b in cells)
            assert sum(coords) == p.sum(), "a product leaves the span of the cells"
            row.append(coords)
        table.append(tuple(row))
    return tuple(table)


def entries_matrix_units(cells):
    """The table of the matrix units at ``cells``, from one entry
    (s, t, index of (a, d), 1) for each E_ab E_bd = E_ad."""
    index = {cell: t for t, cell in enumerate(cells)}
    in_row = {}  # row b: the (d, index) of each cell (b, d), in order
    for (b, d), t in index.items():
        in_row.setdefault(b, []).append((d, t))
    entries = [(s, t, index[a, d], 1) for (a, b), s in index.items()
               for d, t in in_row.get(b, ()) if (a, d) in index]
    return table_from_entries(len(cells), entries)


def typed(t):
    """The cells of ``t`` with each scalar's type beside it, so that == on
    two tables also tells an int from an equal Fraction."""
    return tuple(tuple(tuple((k, type(c), c) for k, c in cell) for cell in row) for row in t)


def action_matrices(p, q, left_action, right_action):
    """Nested actions, ``left_action[i][m]`` and ``right_action[m][i]`` the
    image of module basis m, as one q x q matrix per base index on each side
    whose columns are the images of the module basis."""
    def side(tensor, left):
        return [Matrix.from_cols([tensor[i][m] if left else tensor[m][i] for m in range(q)])
                for i in range(p)]
    return side(left_action, True), side(right_action, False)


def bimodule_failures(a0_table, q, left_action, right_action):
    """Every failing instance of the three bimodule axioms, by dense matrix
    products, keyed (axiom, (i, j, m)) with value (lhs, rhs).

    Keys are inserted in the order i, j, then the axioms left, right, middle,
    then m; the first key is the instance a per-pair matrix check reports.
    """
    a0_table, p = dense(a0_table), len(a0_table)
    lam, rho = action_matrices(p, q, left_action, right_action)

    def combo(mats, coeffs):
        acc = Matrix.zero(q, q)
        for c, m in zip(coeffs, mats):
            acc = acc + m.scale(c)
        return acc

    out = {}
    for i in range(p):
        for j in range(p):
            cij = a0_table[i][j]
            for axiom, lhs, rhs in (
                    ("a.(b.m) = (ab).m", lam[i] @ lam[j], combo(lam, cij)),
                    ("(m.a).b = m.(ab)", rho[j] @ rho[i], combo(rho, cij)),
                    ("(a.m).b = a.(m.b)", rho[j] @ lam[i], lam[i] @ rho[j])):
                for m in range(q):
                    if lhs.col(m) != rhs.col(m):
                        out[(axiom, (i, j, m))] = (lhs.col(m), rhs.col(m))
    return out


def first_nonmultiplicative_pair(table, embed):
    """First basis pair (i, j) with embed[i] @ embed[j] != embed(ei ej), or None."""
    n, table = embed[0].rows, dense(table)
    for i in range(len(table)):
        for j in range(len(table)):
            expect = Matrix.zero(n, n)
            for c, m in zip(table[i][j], embed):
                expect = expect + m.scale(c)
            if embed[i] @ embed[j] != expect:
                return i, j
    return None


_AXES = str.maketrans("xyz", "ijk")


def dense_residual(identity, arrays):
    """lhs - rhs of a declared identity at all basis triples, indexed
    [x, y, z, out], from float arrays by ``einsum``."""
    def side(terms):
        total = 0.0
        for t in terms:
            p, q, r = t.perm.translate(_AXES)
            subscripts = f"{p}{q}l,l{r}m->ijkm" if t.shape == LEFT else f"{q}{r}l,{p}lm->ijkm"
            total = total + np.einsum(subscripts, arrays[t.inner], arrays[t.outer])
        return total

    return side(identity.lhs) - side(identity.rhs)


def tangent_huliu_reference(sub, g):
    """The Hu-Liu report of a subspace of a graded algebra, the long way.

    Both derived brackets of every basis pair must stay in ``sub``; their
    coordinates then form restricted angle and square tables, which are
    verified from scratch as a Hu-Liu pair.
    """
    mul = g.algebra.multiply
    k = sub.dim
    angle_rows, square_rows = [], []
    for a in range(k):
        arow, srow = [], []
        for b in range(k):
            u, v = sub.basis[a], sub.basis[b]
            v0 = g.even_part(v)
            av = tuple(x - y for x, y in zip(mul(u, v0), mul(v0, u)))
            sv = tuple(x - y for x, y in zip(mul(u, v), mul(v, u)))
            ac, sc = sub.coords(av), sub.coords(sv)
            if ac is None or sc is None:
                bad, which = (av, "angle") if ac is None else (sv, "square")
                return fail(f"closure under the {which} bracket", (u, v), bad, zeros(g.dim),
                            note="bracket value leaves the tangent space")
            arow.append(ac)
            srow.append(sc)
        angle_rows.append(tuple(arow))
        square_rows.append(tuple(srow))
    if k == 0:
        return ok("tangent Hu-Liu structure (trivial)")
    rep = HuLiuAlgebra(tuple(angle_rows), tuple(square_rows)).report()
    return ok("tangent Hu-Liu structure") if rep.holds else rep


# -- entrywise references for the zero-skipping exact core ---------------------

def entrywise_dot(u, v):
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def entrywise_matvec(m, v):
    return tuple(entrywise_dot(r, v) for r in m.data)


def entrywise_matmul(a, b):
    cols = [b.col(j) for j in range(b.cols)]
    return tuple(tuple(entrywise_dot(r, c) for c in cols) for r in a.data)


def entrywise_sum(a, b, sign):
    """a + sign * b on every entry."""
    return tuple(tuple(x + sign * y for x, y in zip(r, s)) for r, s in zip(a.data, b.data))


def entrywise_scale(c, m):
    return tuple(tuple(Fraction(c) * x for x in r) for r in m.data)


def entrywise_transpose(rows, ncols=None):
    """The columns of the rows; pass ncols for rows that may be none, which
    do not show their width."""
    rows = [tuple(r) for r in rows]
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    return tuple(tuple(Fraction(r[j]) for r in rows) for j in range(ncols))


def entrywise_zero(rows, cols):
    return tuple(tuple(Fraction(0) for _ in range(cols)) for _ in range(rows))


def entrywise_identity(n):
    return tuple(tuple(Fraction(int(i == j)) for j in range(n)) for i in range(n))


def is_canonical_scalar(c):
    """How the sparse layer stores a table cell: an int (never a bool) when
    the value is integral, else a Fraction of denominator > 1."""
    return type(c) is int or (type(c) is Fraction and c.denominator > 1)


def is_exact_scalar(c):
    """An int or a Fraction, never a float or a bool."""
    return type(c) is int or type(c) is Fraction


def entrywise_nonzeros(rows):
    """Each row's (column, value) pairs with a nonzero value."""
    return tuple(tuple((j, x) for j, x in enumerate(r) if x != 0) for r in rows)


def assert_exact_rows(m):
    """data is a tuple of equal-length tuples of Fractions, and the cached
    views of its rows' and its columns' nonzeros list exactly its nonzero
    entries."""
    assert type(m.data) is tuple and len(m.data) == m.rows
    assert all(type(r) is tuple and len(r) == m.cols for r in m.data)
    assert all(type(x) is Fraction for r in m.data for x in r)
    assert m.nonzeros == entrywise_nonzeros(m.data)
    assert m._cols == entrywise_nonzeros(entrywise_transpose(m.data, m.cols))


def entrywise_realize(embed, x):
    """sum_i x_i embed_i on every entry."""
    n = embed[0].rows
    return tuple(tuple(sum((Fraction(c) * m.data[a][b] for c, m in zip(x, embed)), Fraction(0))
                       for b in range(n)) for a in range(n))


def entrywise_rref(rows):
    """Gauss-Jordan on every entry: (reduced rows as tuples, pivot columns)."""
    m = [list(r) for r in rows]
    ncols = len(m[0]) if m else 0
    pivots, r = [], 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return tuple(tuple(row) for row in m), pivots


def dense_rref(rows):
    """Column-by-column Gauss-Jordan on dense rows, skipping zeros only in the
    pivot row: (all rows reduced, zero rows last, as lists; pivot columns).
    Passed as ``rref`` to ``entrywise_solve``, ``entrywise_kernel`` and
    ``entrywise_inverse``, it is the dense reference for the sparse reducer."""
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = next((i for i in range(r, nrows) if m[i][c]), None)
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        top = m[r]
        inv = Fraction(1) / top[c]
        nz = [(j, x * inv) for j, x in enumerate(top[c:], c) if x]
        for j, x in nz:
            top[j] = x
        for i in range(nrows):
            row = m[i]
            f = row[c]
            if f and i != r:
                for j, x in nz:
                    row[j] -= f * x
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


def dense_rref_mod_p(rows, p):
    """Gauss-Jordan mod p on dense rows of p-integral Fractions, each entry
    first reduced to numerator / denominator mod p: (the nonzero reduced
    rows as tuples of ints in [0, p), pivot columns)."""
    m = [[x.numerator * pow(x.denominator, -1, p) % p for x in r] for r in rows]
    ncols = len(m[0]) if m else 0
    pivots, r = [], 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = pow(m[r][c], -1, p)
        m[r] = [x * inv % p for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return [tuple(row) for row in m[:r]], pivots


def entrywise_kernel(m, rref=entrywise_rref):
    """Canonical RREF basis of {v : m v = 0}, by the given reduction."""
    reduced, pivots = rref(m.data)
    basis = []
    for f in (j for j in range(m.cols) if j not in pivots):
        v = [Fraction(0)] * m.cols
        v[f] = Fraction(1)
        for r, p in enumerate(pivots):
            v[p] = -reduced[r][f]
        basis.append(v)
    if not basis:
        return ()
    rows, piv = rref(basis)
    return tuple(map(tuple, rows[:len(piv)]))


def entrywise_solve(m, b, rref=entrywise_rref):
    """The solution of m x = b with free variables 0, or None, by the given
    reduction of the augmented rows."""
    reduced, pivots = rref([tuple(r) + (x,) for r, x in zip(m.data, b)])
    if pivots and pivots[-1] == m.cols:
        return None
    x = [Fraction(0)] * m.cols
    for r, p in enumerate(pivots):
        x[p] = reduced[r][m.cols]
    return tuple(x)


def entrywise_inverse(m, rref=entrywise_rref):
    n = m.rows
    eye = entrywise_identity(n)
    reduced, pivots = rref([r + e for r, e in zip(m.data, eye)])
    if pivots[:n] != list(range(n)):
        return None
    return tuple(tuple(r[n:]) for r in reduced)


def dense_projection_kernel(mod, sub):
    """Kernel of an equivariant projection onto ``sub``, or None, from the
    dense linear system: every row entry is summed over all (a, c), zeros
    included, and all-zero rows are dropped."""
    d, k = mod.dim, sub.dim
    b = Matrix.from_cols(list(sub.basis))
    nunk = k * d
    rows, rhs = [], []
    for a in range(k):
        for bb in range(k):
            row = [Fraction(0)] * nunk
            for c in range(d):
                row[a * d + c] = b.data[c][bb]
            rows.append(row)
            rhs.append(Fraction(1 if a == bb else 0))
    for t in mod.operators:
        tb = t @ b
        for i in range(d):
            for j in range(d):
                row = [Fraction(0)] * nunk
                for a in range(k):
                    for c in range(d):
                        row[a * d + c] += b.data[i][a] * t.data[c][j]
                    row[a * d + j] -= tb.data[i][a]
                if any(row):
                    rows.append(row)
                    rhs.append(Fraction(0))
    sol = solve(Matrix(rows), rhs)
    if sol is None:
        return None
    return kernel(Matrix([sol[a * d:(a + 1) * d] for a in range(k)]))


def dense_system_projection_kernel(mod, sub):
    """Kernel of an equivariant projection onto ``sub``, or None: the rows'
    entries are summed over nonzero products only, but each row is written
    out dense, coerced by the public ``Matrix`` constructor and solved by
    ``dense_rref``."""
    d, k = mod.dim, sub.dim
    b = Matrix.from_cols(list(sub.basis))
    nunk = k * d
    rows, rhs = [], []
    for a in range(k):
        for bb in range(k):
            row = [Fraction(0)] * nunk
            for c in range(d):
                row[a * d + c] = b.data[c][bb]
            rows.append(row)
            rhs.append(Fraction(1 if a == bb else 0))
    b_nz = b.nonzeros
    for t in mod.operators:
        tb_nz = (t @ b).nonzeros
        t_cols = t.T.nonzeros
        for i in range(d):
            if not b_nz[i] and not tb_nz[i]:
                continue
            for j in range(d):
                terms = {}
                for a, x in b_nz[i]:
                    for c, y in t_cols[j]:
                        terms[a * d + c] = terms.get(a * d + c, 0) + x * y
                for a, x in tb_nz[i]:
                    terms[a * d + j] = terms.get(a * d + j, 0) - x
                if any(terms.values()):
                    row = [Fraction(0)] * nunk
                    for u, x in terms.items():
                        row[u] = x
                    rows.append(row)
                    rhs.append(Fraction(0))
    sol = entrywise_solve(Matrix(rows), rhs, rref=dense_rref)
    if sol is None:
        return None
    return kernel(Matrix([sol[a * d:(a + 1) * d] for a in range(k)]))


# -- a known-answer family: sl2 acting on its irreducible modules ----------------

_E, _F, _H = 0, 1, 2
_SL2 = {(_E, _F): {_H: 1}, (_F, _E): {_H: -1}, (_H, _E): {_E: 2}, (_E, _H): {_E: -2},
        (_H, _F): {_F: -2}, (_F, _H): {_F: 2}}


def _sl2_act(x, n, k):
    """x.v_k in V_n (highest weight n, basis v_0 .. v_n) as {index: coefficient}."""
    if x == _H:
        return {k: n - 2 * k}
    if x == _F:
        return {k + 1: k + 1} if k < n else {}
    return {k - 1: n - k + 1} if k > 0 else {}


def sl2_semidirect_entries(ns):
    """The (i, j, k, coefficient) entries of ``sl2_semidirect(ns)``, for
    dimensions where a dense dim^3 table is too big to build."""
    entries = [(i, j, k, c) for (i, j), out in _SL2.items() for k, c in out.items()]
    offset = 3
    for n in ns:
        for x in (_E, _F, _H):
            for k in range(n + 1):
                for m, c in _sl2_act(x, n, k).items():
                    entries.append((offset + k, x, offset + m, -c))
        offset += n + 1
    return entries


def sl2_semidirect(ns):
    """Bracket table of sl2 + V_n1 + V_n2 + ... with <v, x> = -x.v.

    Its annihilator is the module part; with one summand (n >= 1) the
    algebra is Simple, with two it is NotSimple.
    """
    dim = 3 + sum(n + 1 for n in ns)
    t = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for i, j, k, c in sl2_semidirect_entries(ns):
        t[i][j][k] += c
    return t


def sl_standard_semidirect(n, copies):
    """Bracket table of sl_n + (C^n)^copies with <x+v, y+w> = [x,y] - y.v.

    sl_n has the basis E_ij (i != j, rows first) then H_i = E_ii - E_i+1,i+1,
    and each copy of C^n its standard basis; the structure constants are
    integers.  The annihilator is the module part, of dimension copies * n.
    One copy is irreducible and nontrivial, so the algebra is Simple; two
    copies make each one a proper ideal, so it is NotSimple.  At n = 2 this
    is ``sl2_semidirect((1,))``.
    """
    off = [(i, j) for i in range(n) for j in range(n) if i != j]
    g = len(off) + n - 1

    def mat(a):  # basis element a of sl_n as {(row, column): entry}
        if a < len(off):
            return {off[a]: 1}
        i = a - len(off)
        return {(i, i): 1, (i + 1, i + 1): -1}

    def commutator(x, y):
        out = {}
        for u, v, sign in ((x, y, 1), (y, x, -1)):
            for (i, k), p in u.items():
                for (k2, j), q in v.items():
                    if k == k2:
                        out[i, j] = out.get((i, j), 0) + sign * p * q
        return out

    def coords(m):  # a traceless matrix in the basis
        out = {off.index(rc): c for rc, c in m.items() if rc[0] != rc[1]}
        h = 0
        for i in range(n - 1):  # H_i's coefficient: the first i + 1 diagonal entries' sum
            h += m.get((i, i), 0)
            out[len(off) + i] = h
        return out

    dim = g + copies * n
    t = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for a in range(g):
        for b in range(g):
            for k, c in coords(commutator(mat(a), mat(b))).items():
                t[a][b][k] = Fraction(c)
        for base in range(g, dim, n):
            for (i, j), x in mat(a).items():
                t[base + j][a][base + i] -= x  # <e_j, y> = -y e_j = -sum_i y_ij e_i
    return t


# -- dense references for the sparse identity checker --------------------------

def dense_int_scaled(tables):
    """Every table's sparse (index, int) rows over the least common
    denominator, read off the dense entries with ``int(c * d)``."""
    tables = [dense(t) for t in tables]
    d = lcm(*{c.denominator for t in tables for row in t for v in row for c in v})
    return [
        tuple(tuple(tuple((k, int(c * d)) for k, c in enumerate(v) if c) for v in row)
              for row in t)
        for t in tables
    ]


def dense_groupings(tables, spec):
    """The exact checker's groupings of the signed sum ``spec`` of
    (name, transposed, coefficient) tables, scaled by the joint least common
    denominator of ``tables``, by a plain scan of the dense sum: by row a the
    (b, cell), by column b the (a, cell), by product coordinate l the
    (a, b, c), each a list indexed by basis index; a cell is its nonzero
    (k, int) pairs."""
    arrays = {name: dense(t) for name, t in tables.items()}
    d = lcm(*{c.denominator for t in arrays.values() for row in t for v in row for c in v})
    dim = len(next(iter(arrays.values())))
    by_row, by_column, by_product = ([[] for _ in range(dim)] for _ in range(3))
    for a in range(dim):
        for b in range(dim):
            total = [sum(coef * (arrays[name][b][a] if transposed else arrays[name][a][b])[k]
                         for name, transposed, coef in spec) for k in range(dim)]
            cell = tuple((k, int(c * d)) for k, c in enumerate(total) if c)
            if cell:
                by_row[a].append((b, cell))
                by_column[b].append((a, cell))
            for l, c in cell:
                by_product[l].append((a, b, c))
    return by_row, by_column, by_product


def dense_first_failing_triple(identity, ints, dim, admits=None):
    """First basis triple (i, j, k), in lexicographic order, where the sides
    of ``identity`` differ, found by visiting every triple, or every one
    that ``admits(i, j, k)`` holds for."""
    terms = [(sign, ints[t.outer], ints[t.inner], t.shape == LEFT,
              *("xyz".index(v) for v in t.perm))
             for sign, side in ((1, identity.lhs), (-1, identity.rhs))
             for t in side]
    rng = range(dim)
    for i in rng:
        for j in rng:
            for k in rng:
                ijk = (i, j, k)
                if admits is not None and not admits(*ijk):
                    continue
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


def entries_commutator_table(g, even_only):
    """Cells x y - y x, empty where ``even_only`` and y is odd, summed from
    the entries (i, j, k, c) of each product e_i e_j and (j, i, k, -c) of
    its partner."""
    keep = set(g.even) if even_only else range(g.dim)
    items = []
    for i, j, k, c in table_entries(g.algebra.table):
        if j in keep:  # e_i e_j is the first product of cell (i, j)
            items.append((i, j, k, c))
        if i in keep:  # and the second product of cell (j, i)
            items.append((j, i, k, -c))
    return table_from_entries(g.dim, items)


def dense_commutator_table(g, even_only):
    """Cells t[i][j] - t[j][i], zero where ``even_only`` and j is odd."""
    t = dense(g.algebra.table)
    dim = g.dim
    return tuple(tuple(zeros(dim) if even_only and j not in g.even
                       else tuple(a - b for a, b in zip(t[i][j], t[j][i]))
                       for j in range(dim))
                 for i in range(dim))


def first_nonantisymmetric_pair(square):
    """First basis pair (i, j), i <= j, with [ei,ej] != -[ej,ei]."""
    square, dim = dense(square), len(square)
    for i in range(dim):
        for j in range(i, dim):
            if any(a + b for a, b in zip(square[i][j], square[j][i])):
                return i, j
    return None


def first_grading_failure(table, even):
    """(clause, i, j) of the first basis pair breaking the special grading,
    checking the dense product of every pair, or None."""
    table, dim = dense(table), len(table)
    odd = [k for k in range(dim) if k not in even]
    for i in range(dim):
        for j in range(dim):
            prod = table[i][j]
            if i in even and j in even:
                if any(prod[k] for k in odd):
                    return "even*even in even", i, j
            elif i not in even and j not in even:
                if any(prod):
                    return "odd*odd = 0", i, j
            elif any(prod[k] for k in even):
                return "mixed products in odd", i, j
    return None


# -- dense readers of table cells, as every module read tables before only
# -- _tables did; each reads every cell, zero or not

def _basis(dim, i):
    return tuple(Fraction(int(k == i)) for k in range(dim))


def dense_find_unit(table):
    """Solve the 2 dim^2 equations u e_j = e_j, e_j u = e_j for a unit."""
    table, dim = dense(table), len(table)
    rows, rhs = [], []
    for j in range(dim):
        for k in range(dim):
            rows.append([table[i][j][k] for i in range(dim)])
            rhs.append(Fraction(1 if j == k else 0))
            rows.append([table[j][i][k] for i in range(dim)])
            rhs.append(Fraction(1 if j == k else 0))
    return solve(Matrix(rows), rhs)


def dense_annihilator_presentations(angle):
    """The span of <ei,ei> and <ei+ej,ei+ej> (i < j), and the span of
    <ei,ej> + <ej,ei> (i <= j), from every cell."""
    t, dim = dense(angle), len(angle)
    squares = [t[i][i] for i in range(dim)]
    for i in range(dim):
        for j in range(i + 1, dim):
            squares.append(vadd(vadd(t[i][i], t[j][j]), vadd(t[i][j], t[j][i])))
    symmetrized = [vadd(t[i][j], t[j][i]) for i in range(dim) for j in range(i, dim)]
    return span(squares, dim), span(symmetrized, dim)


def dense_direct_sum_table(a, b):
    """The block-diagonal bracket of two tables as a dense nested list."""
    p, dim = len(a), len(a) + len(b)
    out = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for off, t in ((0, dense(a)), (p, dense(b))):
        for i in range(len(t)):
            for j in range(len(t)):
                for k, c in enumerate(t[i][j]):
                    out[off + i][off + j][off + k] = c
    return out


def dense_bracket_compatibility(source, target, phi, identity):
    """First basis pair (i, j) with phi(source[i][j]) != target(phi ei, phi ej),
    the target product taken cell by cell."""
    source, target = dense(source), dense(target)
    dim, tdim = len(source), len(target)
    for i in range(dim):
        for j in range(dim):
            lhs = phi.matvec(source[i][j])
            rhs = [Fraction(0)] * tdim
            for a, x in enumerate(phi.col(i)):
                for b, y in enumerate(phi.col(j)):
                    if x and y:
                        for k, c in enumerate(target[a][b]):
                            rhs[k] += x * y * c
            if lhs != tuple(rhs):
                return fail(identity, (_basis(dim, i), _basis(dim, j)), lhs, rhs,
                            note=f"basis pair ({i},{j})")
    return ok(identity)


def dense_huliu_subalgebra(h, sub):
    """The Hu-Liu subalgebra report by dense vectors: both brackets of each
    pair of dense basis vectors, a then b, angle before square, must pass
    the membership test."""
    for a in sub.basis:
        for b in sub.basis:
            for which, value in (("angle", h.angle_bracket(a, b)),
                                 ("square", h.square_bracket(a, b))):
                if not sub.contains(value):
                    return fail(f"closure under the {which} bracket", (a, b), value,
                                zeros(h.dim), note="bracket value leaves the subspace")
    return ok("Hu-Liu subalgebra")


def dense_annihilator_abelian_check(h):
    """The abelian-annihilator report by dense vectors: the square bracket
    of each pair of dense annihilator basis vectors must be zero."""
    ann = annihilator(h.leibniz)
    for a in ann.basis:
        for b in ann.basis:
            val = h.square_bracket(a, b)
            if any(val):
                return fail("annihilator is abelian", (a, b), val, zeros(h.dim))
    return ok("annihilator is abelian")


def dense_antisymmetry_failure(square):
    """The antisymmetry report at the first pair of first_nonantisymmetric_pair,
    with both cells read as they stand, or None."""
    pair = first_nonantisymmetric_pair(square)
    if pair is None:
        return None
    i, j = pair
    square, dim = dense(square), len(square)
    return fail("antisymmetry", (_basis(dim, i), _basis(dim, j)), square[i][j],
                vscale(-1, square[j][i]), note=f"basis pair ({i},{j})")


def dense_grading_failure(table, even):
    """The grading report at first_grading_failure, the product read from its
    cell and projected onto the allowed part, or None."""
    found = first_grading_failure(table, even)
    if found is None:
        return None
    clause, i, j = found
    table, dim = dense(table), len(table)
    allowed = {"even*even in even": set(even), "odd*odd = 0": set(),
               "mixed products in odd": set(range(dim)) - set(even)}[clause]
    prod = table[i][j]
    proj = tuple(c if k in allowed else Fraction(0) for k, c in enumerate(prod))
    return fail(clause, (_basis(dim, i), _basis(dim, j)), prod, proj,
                note=f"basis pair ({i},{j})")


def dense_even_mult_matrix(table, even, x0_even):
    """Left multiplication by sum_a x0_even[a] e_even[a] on the even part,
    one sum over every even cell per matrix entry."""
    table = dense(table)
    return Matrix([[sum((x0_even[a] * table[i][j][k] for a, i in enumerate(even)), Fraction(0))
                    for j in even] for k in even])


def dense_float_tensor(table, positions):
    """The whole table as a float array, cut down to ``positions``."""
    p = list(positions)
    return np.array(dense(table), dtype=float)[np.ix_(p, p, p)]


def dense_matrix_compatibility(name, n, table, even):
    """The ValueError message of a Mat(n) constraint family on a graded
    table with even part ``even``, comparing every even cell with the lifted
    matrix-unit product, or None when the family applies."""
    if len(even) != n * n:
        return f"{name} constraints need an even part of dimension {n * n}"
    mat, table, dim = dense(matrix_algebra(n).table), dense(table), len(table)
    for s in range(n * n):
        for t in range(n * n):
            lifted = [Fraction(0)] * dim
            for c, i in zip(mat[s][t], even):
                lifted[i] = c
            if table[even[s]][even[t]] != tuple(lifted):
                return (f"{name} constraints need the even part to be the n x n "
                        f"matrix algebra in row-major basis order")
    return None


# -- sampled xi-group checks, one sample at a time ------------------------------
#
# The two loops below are the per-sample versions of ``check_xi_group`` and
# ``verify_group_closure``: each sample is drawn, checked and compared on its
# own, so the report follows directly from the loop order.  They draw with
# ``group.sample(rng, 1)``, one point per call, so they see other points than
# the batched checks for the same seed; the tests compare verdicts, not draws.
# They scale residuals with ``svd_norm``, not ``MatrixRealization.op_norm``,
# so that the batched checks are compared with a norm they do not share.  They
# take xi(x) from the exact ``xi``, read back as floats, and each inverse from
# ``_unit_inverses`` on a one-row stack.


def svd_norm(r, x):
    """The spectral norm of the realized matrix of x, from its SVD."""
    return np.linalg.norm(r.realize_f(x), 2, axis=(-2, -1))


def unit_inverse(r, x):
    """The float inverse of one point x, from ``_unit_inverses`` on a one-row
    stack; NotAUnitError when x is no unit."""
    inv, resid = _unit_inverses(r, np.asarray(x, dtype=float)[None])
    if not resid[0] <= _UNIT_RESIDUAL:
        raise NotAUnitError(f"even component numerically singular (residual {resid[0]:.3e})")
    return inv[0]


def even_part_f(r, x):
    """xi(x) of a float point x, through the exact ``xi``: each float is read
    as the rational it represents, so reading it back is exact."""
    return np.array(xi(r.graded, x), dtype=float)


def xi_group_check_loop(group, samples=1000, seed=0):
    """Conjugation stability, one sample at a time; the witness is the first
    sample that sets the running worst residual above the tolerance."""
    if samples < 1:
        raise ValueError(f"xi-group check needs at least one sample, got {samples}")
    rng = np.random.default_rng(seed)
    r = group.realization
    worst = 0.0
    witness = None
    for _ in range(samples):
        x = group.sample(rng, 1)[0]
        h = group.sample(rng, 1)[0]
        xe = even_part_f(r, x)
        xe_inv = unit_inverse(r, xe)
        conj = r.multiply_f(r.multiply_f(xe, h), xe_inv)
        scale = max(1.0, svd_norm(r, x) * svd_norm(r, h) * svd_norm(r, xe_inv))
        resid = group.membership_residual(conj) / scale
        if resid > worst:
            worst = resid
            if resid > group.tolerance:
                witness = (x, h, resid)
    return XiGroupReport(worst <= group.tolerance, samples, worst, witness)


def group_closure_loop(group, samples=32, seed=0):
    """Closure under products and inverses, one sample at a time; stops at
    the first failure, the product checked before the inverse."""
    if samples < 1:
        raise ValueError(f"group closure check needs at least one sample, got {samples}")
    rng = np.random.default_rng(seed)
    r = group.realization
    tol = group.tolerance
    for _ in range(samples):
        x = group.sample(rng, 1)[0]
        y = group.sample(rng, 1)[0]
        prod = r.multiply_f(x, y)
        scale = max(1.0, svd_norm(r, x) * svd_norm(r, y))
        if group.membership_residual(prod) > tol * scale:
            return fail("closure under product",
                        (vec(map(Fraction, x)), vec(map(Fraction, y))),
                        vec(map(Fraction, prod)), zeros(r.dim),
                        note=f"residual {group.membership_residual(prod):.3e}")
        inv = unit_inverse(r, x)
        scale = max(1.0, svd_norm(r, inv) ** 2)
        if group.membership_residual(inv) > tol * scale:
            return fail("closure under inverse", (vec(map(Fraction, x)),),
                        vec(map(Fraction, inv)), zeros(r.dim),
                        note=f"residual {group.membership_residual(inv):.3e}")
    return ok("group closure")


def conjugation_residual(group, x, h):
    """The scaled residual of xi(x) h xi(x)^-1 for one pair, as the loop computes it."""
    r = group.realization
    xe = even_part_f(r, x)
    xe_inv = unit_inverse(r, xe)
    conj = r.multiply_f(r.multiply_f(xe, h), xe_inv)
    return group.membership_residual(conj) / max(
        1.0, svd_norm(r, x) * svd_norm(r, h) * svd_norm(r, xe_inv))


# -- sampled xi-group checks with every norm solved -----------------------------
#
# The batched checks as they were before they bounded the norms: they draw,
# invert and take residuals as the package does, then call ``op_norm`` on
# every row, so their reports are what the bounded checks must equal exactly.


def check_xi_group_full_norms(group, samples=1000, seed=0):
    """``check_xi_group`` with every sample's three norms solved."""
    check_sample_count("xi-group check", samples, group.graded.dim)
    rng = np.random.default_rng(seed)
    r = group.realization
    x, h = group.sample(rng, samples), group.sample(rng, samples)
    xe = x.copy()  # xi(x)
    xe[:, group._odd] = 0.0
    xe_inv, unit_resid = _unit_inverses(r, xe)
    if not np.all(unit_resid <= _UNIT_RESIDUAL):
        raise _not_a_unit(np.max(unit_resid))
    conj = r.multiply_f(r.multiply_f(xe, h), xe_inv)
    scale = np.maximum(1.0, r.op_norm(x) * r.op_norm(h) * r.op_norm(xe_inv))
    resid = group.membership_residual(conj) / scale
    i = int(np.argmax(resid))  # the first worst sample
    worst = float(resid[i])
    witness = (x[i], h[i], worst) if worst > group.tolerance else None
    return XiGroupReport(worst <= group.tolerance, samples, worst, witness)


def group_closure_full_norms(group, samples=32, seed=0):
    """``verify_group_closure`` with every sample's norms solved."""
    check_sample_count("group closure check", samples, group.graded.dim)
    rng = np.random.default_rng(seed)
    r = group.realization
    tol = group.tolerance
    x, y = group.sample(rng, samples), group.sample(rng, samples)
    prod = r.multiply_f(x, y)
    prod_resid = group.membership_residual(prod)
    prod_bad = prod_resid > tol * np.maximum(1.0, r.op_norm(x) * r.op_norm(y))
    inv, unit_resid = _unit_inverses(r, x)
    inv_resid = group.membership_residual(inv)
    non_unit = ~(unit_resid <= _UNIT_RESIDUAL)
    inv_bad = non_unit | (inv_resid > tol * np.maximum(1.0, r.op_norm(inv) ** 2))
    failed = np.flatnonzero(prod_bad | inv_bad)
    if not failed.size:
        return ok("group closure")
    i = failed[0]
    if prod_bad[i]:
        return fail("closure under product",
                    (vec(map(Fraction, x[i])), vec(map(Fraction, y[i]))),
                    vec(map(Fraction, prod[i])), zeros(r.dim),
                    note=f"residual {prod_resid[i]:.3e}")
    if non_unit[i]:
        raise _not_a_unit(unit_resid[i])
    return fail("closure under inverse", (vec(map(Fraction, x[i])),),
                vec(map(Fraction, inv[i])), zeros(r.dim),
                note=f"residual {inv_resid[i]:.3e}")


def exp_curve_through_realization(group, x, t_grid):
    """``holds`` and the residuals of the exp curve a(t) = exp(t X), with X
    the realized matrix of x, mapped back to coordinates through the
    pseudo-inverse of the flattened embedding; a matrix that leaves the
    realized subalgebra fails the assertion."""
    r = group.realization
    flat = r.np_embed.reshape(r.dim, -1).T  # n^2 x dim
    pinv = np.linalg.pinv(flat)
    coords = []
    for t in t_grid:
        m = expm(t * r.realize_f(x)).reshape(-1)
        c = pinv @ m
        err = float(np.linalg.norm(flat @ c - m))
        assert err <= group.tolerance * max(1.0, float(np.linalg.norm(m))), err
        coords.append(c)
    residuals = tuple(map(float, group.membership_residual(np.array(coords))))
    scale = max(1.0, *np.linalg.norm(coords, axis=-1))
    return max(residuals) <= group.tolerance * scale, residuals


def line_curve_residuals(group, x, t_grid):
    """Membership residuals of the line a(t) = 1 + t x; they are quadratic
    in t exactly when x is tangent and linear when it is not."""
    r = group.realization
    coords = r.np_unit + np.multiply.outer([float(t) for t in t_grid], np.array(x, dtype=float))
    return tuple(map(float, group.membership_residual(coords)))


def fitted_log_slope(t_grid, residuals, floor=1e-14):
    """Least-squares slope of log residual against log t.

    Residuals at or below ``floor`` are rounding noise and are dropped; if
    nothing remains the slope is reported as infinite (the curve sits in the
    group to machine precision).
    """
    pts = [(t, r) for t, r in zip(t_grid, residuals) if r > floor]
    if len(pts) < 2:
        return float("inf")
    return float(np.polyfit(*np.log10(pts).T, 1)[0])

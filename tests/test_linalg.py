import copy
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leibkit.linalg import (
    _P,
    Matrix,
    _add,
    _mod_p,
    _reduce,
    _solve_rows,
    full_space,
    inverse,
    kernel,
    solve,
    span,
    vadd,
)

import oracles
from oracles import _rref, contains_subspace, intersect, rref


def test_full_space_is_the_span_of_the_identity_rows():
    for n in range(21):
        rows = [[int(i == j) for j in range(n)] for i in range(n)]
        got, want = full_space(n), span(rows, n)
        assert got == want and got.pivots == want.pivots
        assert all(type(c) is Fraction for b in got.basis for c in b)


def test_matrix_and_subspace_refuse_attribute_deletion():
    m, s = Matrix([[1, 2]]), span([(1, 0)], 2)
    for obj, attrs in ((m, ("data", "rows", "cols", "_nz", "other")),
                       (s, ("ambient_dim", "basis", "pivots", "nonzeros", "_nz", "other"))):
        for attr in attrs:
            with pytest.raises(AttributeError, match="immutable"):
                delattr(obj, attr)
    assert m == Matrix([[1, 2]]) and m.nonzeros == (((0, 1), (1, 2)),)
    assert s == span([(1, 0)], 2) and s.dim == 1


def test_matrices_and_subspaces_survive_copy_and_pickle():
    values = (Matrix([[1, 0, Fraction(2, 3)], [0, 0, -1]]), Matrix.zero(0, 3),
              Matrix._sparse(2, 3, c=(((1, Fraction(5)),), (), ((0, Fraction(-1, 2)),))),
              span([(1, 2, 0), (0, 1, 1)], 3), span([], 2))
    for x in values:
        for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert type(y) is type(x) and y == x and hash(y) == hash(x)
            if isinstance(x, Matrix):
                assert (y.rows, y.cols, y._cols, y.data) == (x.rows, x.cols, x._cols, x.data)
                oracles.assert_exact_rows(y)
            else:
                assert (y.pivots, y.nonzeros) == (x.pivots, x.nonzeros)
                assert all(y.contains(b) for b in x.basis)
            with pytest.raises(AttributeError, match="immutable"):
                y.other = 1


def test_rref_identity_fixed():
    m = Matrix([[1, 0], [0, 1]])
    assert rref(m) == m


def test_rref_rank_one():
    assert rref(Matrix([[2, 4], [1, 2]])) == Matrix([[1, 2], [0, 0]])


def test_rref_row_swap():
    assert rref(Matrix([[0, 1], [1, 0]])) == Matrix([[1, 0], [0, 1]])


def test_span_empty_is_zero():
    s = span([], 3)
    assert s.dim == 0 and s.ambient_dim == 3 and s.is_zero()


def test_span_dependent_vectors():
    s = span([(1, 1), (2, 2)], 2)
    assert s.dim == 1
    assert s.basis == ((Fraction(1), Fraction(1)),)


def test_span_full():
    assert span([(1, 0), (1, 1)], 2) == full_space(2)


def test_span_rejects_bad_length():
    with pytest.raises(ValueError):
        span([(1, 0, 0)], 2)


def test_contains():
    s = span([(1, 0)], 2)
    assert s.contains((2, 0))
    assert not s.contains((0, 1))
    with pytest.raises(ValueError):
        s.contains((1, 0, 0))


def test_coords_rejects_a_vector_of_the_wrong_length():
    s = span([(1, 0, 0)], 3)
    for v in ((1, 0, 0, 5), (1,), ()):
        with pytest.raises(ValueError, match="ambient 3"):
            s.coords(v)


def test_contains_answers_as_coords_does_without_building_coordinates():
    rng = random.Random(44)
    answers = set()
    for _ in range(200):
        n = rng.randint(0, 5)
        s = span([[rng.choice((0, 0, 1, -2, Fraction(1, 3))) for _ in range(n)]
                  for _ in range(rng.randint(0, n))], n)
        members = [[2 * x - y for x, y in zip(s.basis[0], s.basis[-1])]] if s.dim else []
        for v in ([rng.choice((0, 1, Fraction(-3, 2))) for _ in range(n)], *members):
            answers.add(s.contains(v))
            assert s.contains(v) == (s.coords(v) is not None)
        for v in ([1] * (n + 1), [0] * (n + 2), [1] * n + [0]):
            with pytest.raises(ValueError) as by_coords:
                s.coords(v)
            with pytest.raises(ValueError) as by_contains:
                s.contains(v)
            assert str(by_contains.value) == str(by_coords.value)
    assert answers == {True, False}


def test_intersect_axes():
    s = intersect(span([(1, 0)], 2), span([(0, 1)], 2))
    assert s.is_zero()


def test_kernel_example():
    assert kernel(Matrix([[1, 1]])) == span([(1, -1)], 2)


def test_sum_and_ambient_mismatch():
    s = span([(1, 0)], 2)
    assert s.sum(span([(0, 1)], 2)) == full_space(2)
    with pytest.raises(ValueError):
        s.sum(span([(1, 0, 0)], 3))


def test_solve_and_inverse():
    m = Matrix([[2, 0], [1, 1]])
    x = solve(m, (4, 3))
    assert m.matvec(x) == (Fraction(4), Fraction(3))
    assert solve(Matrix([[1, 1], [1, 1]]), (0, 1)) is None
    inv = inverse(m)
    assert inv @ m == Matrix.identity(2)
    assert inverse(Matrix([[1, 1], [1, 1]])) is None


def test_coords_in_rref_basis():
    s = span([(1, 0, 2), (0, 1, 3)], 3)
    assert s.coords((2, 1, 7)) == (Fraction(2), Fraction(1))
    assert s.coords((0, 0, 1)) is None


small_frac = st.fractions(
    min_value=-3, max_value=3, max_denominator=4)


def vectors(n):
    return st.lists(small_frac, min_size=n, max_size=n).map(tuple)


def subspaces(n):
    return st.lists(vectors(n), min_size=0, max_size=n + 1).map(
        lambda vs: span(vs, n))


@settings(max_examples=60)
@given(subspaces(4), subspaces(4))
def test_dimension_formula(s, t):
    assert s.sum(t).dim + intersect(s, t).dim == s.dim + t.dim


@settings(max_examples=60)
@given(subspaces(4))
def test_span_idempotent(s):
    assert span(s.basis, s.ambient_dim) == s


@settings(max_examples=60)
@given(subspaces(4), vectors(4))
def test_contains_iff_sum_dim_unchanged(s, v):
    grown = s.sum(span([v], 4))
    assert s.contains(v) == (grown.dim == s.dim)


@settings(max_examples=60)
@given(subspaces(4), vectors(4), vectors(4))
def test_vector_ops_and_coords_match_entrywise_arithmetic(s, u, v):
    assert vadd(u, v) == tuple(a + b for a, b in zip(u, v))
    coeffs = s.coords(v)
    if coeffs is not None:
        rebuilt = [Fraction(0)] * 4
        for c, b in zip(coeffs, s.basis):
            rebuilt = [x + c * y for x, y in zip(rebuilt, b)]
        assert tuple(rebuilt) == v


@settings(max_examples=60)
@given(st.lists(vectors(4), min_size=1, max_size=5))
def test_rref_is_projection(rows):
    m = Matrix(rows)
    assert rref(rref(m)) == rref(m)


@settings(max_examples=40)
@given(subspaces(4), subspaces(4))
def test_intersection_contained_in_both(s, t):
    w = intersect(s, t)
    assert contains_subspace(s, w) and contains_subspace(t, w)


def _sparse_matrix(rng, rows, cols, density):
    """Random small Fractions at the given density, with one row and one
    column forced to zero half of the time."""
    zero_row = rng.randrange(rows) if rows and rng.random() < 0.5 else None
    zero_col = rng.randrange(cols) if cols and rng.random() < 0.5 else None
    return Matrix([[Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                    if i != zero_row and j != zero_col and rng.random() < density else 0
                    for j in range(cols)] for i in range(rows)])


def _by_columns(m):
    """m stored only by its columns' nonzeros."""
    return Matrix._sparse(m.rows, m.cols, c=m._cols)


def test_zero_skipping_core_matches_entrywise_arithmetic():
    rng = random.Random(6)
    for _ in range(300):
        n, k, p = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 6)
        density = rng.choice((0.0, 0.15, 0.4, 0.8, 1.0))
        a = _sparse_matrix(rng, n, k, density)
        b = _sparse_matrix(rng, k, p, density)
        v = _sparse_matrix(rng, 1, k, density).row(0)
        # stored by rows, and only by columns, as the operators of a table are
        for x, y in ((a, b), (_by_columns(a), _by_columns(b))):
            assert x.matvec(v) == oracles.entrywise_matvec(a, v)
            assert (x @ y).data == oracles.entrywise_matmul(a, b)
        reduced, pivots = oracles.entrywise_rref(a.data)
        assert rref(a).data == reduced and a.rank() == len(pivots)
        assert kernel(a).basis == oracles.entrywise_kernel(a)
        for rhs in (a.matvec(_sparse_matrix(rng, 1, k, density).row(0)),
                    _sparse_matrix(rng, 1, n, density).row(0)):
            assert solve(a, rhs) == oracles.entrywise_solve(a, rhs)
        sq = _sparse_matrix(rng, n, n, density)
        inv = inverse(sq)
        assert (inv.data if inv is not None else None) == oracles.entrywise_inverse(sq)
        for m in (a @ b, rref(a)) + ((inv,) if inv is not None else ()):
            oracles.assert_exact_rows(m)


def test_sparse_matrix_operations_match_entrywise_arithmetic():
    rng = random.Random(13)
    for _ in range(300):
        n, k = rng.randint(1, 6), rng.randint(1, 6)
        density = rng.choice((0.0, 0.15, 0.4, 0.8, 1.0))
        a, b = _sparse_matrix(rng, n, k, density), _sparse_matrix(rng, n, k, density)
        c = rng.choice((0, 1, -1, 3, Fraction(-2, 3)))
        ints = [[int(6 * x) for x in r] for r in b.data]  # coerced by the public constructor
        for got, want in (
            (a + b, oracles.entrywise_sum(a, b, 1)),
            (a - b, oracles.entrywise_sum(a, b, -1)),
            (_by_columns(a) + _by_columns(b), oracles.entrywise_sum(a, b, 1)),
            (_by_columns(a) - b, oracles.entrywise_sum(a, b, -1)),
            (-a, oracles.entrywise_scale(-1, a)),
            (a.scale(c), oracles.entrywise_scale(c, a)),
            (a.T, oracles.entrywise_transpose(a.data)),
            (Matrix.from_cols(a.data), oracles.entrywise_transpose(a.data)),
            (Matrix.from_cols(ints), oracles.entrywise_transpose(ints)),
            (Matrix.zero(n, k), oracles.entrywise_zero(n, k)),
            (Matrix.identity(k), oracles.entrywise_identity(k)),
        ):
            assert got.data == want
            oracles.assert_exact_rows(got)
        assert a.is_zero() == all(x == 0 for r in a.data for x in r)
        assert (a - a).is_zero() and Matrix.zero(n, k).is_zero()
        assert not Matrix.identity(k).is_zero()


def _random_rows(rng, rows, cols):
    """Random small Fractions, sparse or dense, with zero rows and a zero
    column mixed in at random."""
    density = rng.choice((0.1, 0.3, 0.6, 1.0))
    zero_rows = {i for i in range(rows) if rng.random() < 0.2}
    zero_col = rng.randrange(cols) if cols and rng.random() < 0.3 else None
    return [tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 4))
                  if i not in zero_rows and j != zero_col and rng.random() < density
                  else Fraction(0) for j in range(cols)) for i in range(rows)]


def _combination(rng, rows, cols):
    """A random combination of the given rows, zero when there are none."""
    out = [Fraction(0)] * cols
    for r in rows:
        c = Fraction(rng.randint(-3, 3), rng.randint(1, 2))
        out = [x + c * y for x, y in zip(out, r)]
    return tuple(out)


def _counted(rows, seen):
    for r in rows:
        seen.append(r)
        yield r


def test_sparse_reducer_matches_the_dense_reduction():
    rng = random.Random(15)
    for trial in range(400):
        n, k = rng.randint(0, 7), rng.randint(0, 7)
        rows = _random_rows(rng, n, k)
        nz = [tuple((j, x) for j, x in enumerate(r) if x) for r in rows]
        reduced, pivots = oracles.dense_rref(rows)
        assert _rref(nz, k) == ([tuple(r) for r in reduced[:len(pivots)]], pivots)
        if n == 0:
            continue  # a Matrix has no 0 x k form
        a = Matrix(rows)
        assert a.rank() == len(pivots)
        assert rref(a).data == tuple(map(tuple, reduced))
        assert kernel(a).basis == oracles.entrywise_kernel(a, rref=oracles.dense_rref)
        x0 = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(k))
        rhs = a.matvec(x0)
        assert solve(a, rhs) == oracles.entrywise_solve(a, rhs, rref=oracles.dense_rref)
        assert solve(a, rhs) is not None
        rhs = _random_rows(rng, 1, n)[0]
        assert solve(a, rhs) == oracles.entrywise_solve(a, rhs, rref=oracles.dense_rref)
        sq = Matrix(_random_rows(rng, n, n))
        inv = inverse(sq)
        assert (inv.data if inv is not None else None) == \
            oracles.entrywise_inverse(sq, rref=oracles.dense_rref)


def _p_integral_rows(rng, rows, cols):
    """Random rows whose denominators p does not divide; some entries are
    multiples of p, and some rows are a combination of the rows before them
    plus p times another row, so they are dependent mod p but may not be
    over Q."""
    out = []
    for r in _random_rows(rng, rows, cols):
        r = tuple(x * _P if rng.random() < 0.15 else x for x in r)
        if out and rng.random() < 0.3:
            r = tuple(x + _P * y for x, y in zip(_combination(rng, out, cols), r))
        out.append(r)
    return out


def _sparse(v):
    return [(j, x) for j, x in enumerate(v) if x]


def test_reducer_mod_p_matches_dense_gauss_jordan_mod_p():
    rng = random.Random(21)
    drops, members = 0, [0, 0]
    for trial in range(300):
        n, k = rng.randint(0, 7), rng.randint(1, 7)
        rows = _p_integral_rows(rng, n, k)
        piv = {}
        for r in rows:
            _add(piv, _mod_p(_sparse(r)), _P)
        want, pivots = oracles.dense_rref_mod_p(rows, _P)
        assert sorted(piv) == pivots
        got = [[0] * k for _ in pivots]
        for g, c in zip(got, pivots):
            g[c] = 1
            for j, x in piv[c].items():
                g[j] = x
        assert list(map(tuple, got)) == want
        rank_q = len(oracles.dense_rref(rows)[1])
        assert len(pivots) <= rank_q
        drops += len(pivots) < rank_q
        for v in (_combination(rng, rows, k), _random_rows(rng, 1, k)[0],
                  *_p_integral_rows(rng, 2, k)):
            in_span = len(oracles.dense_rref_mod_p(rows + [v], _P)[1]) == len(pivots)
            assert (not _reduce(piv, _mod_p(_sparse(v)), _P)) == in_span
            members[in_span] += 1
    assert drops > 20 and min(members) > 100


def test_solve_stops_at_the_first_contradictory_row():
    rng = random.Random(16)
    for trial in range(300):
        n, k = rng.randint(1, 7), rng.randint(0, 6)
        rows = _random_rows(rng, n, k)
        x0 = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(k))
        # row r depends on the rows before it (it is zero when r = 0) and
        # its right-hand side is off by one, so r is the first contradiction
        r = rng.choice((0, n - 1, rng.randrange(n)))
        rows[r] = _combination(rng, rows[:r], k)
        a = Matrix(rows)
        rhs = list(a.matvec(x0))
        rhs[r] += 1
        assert solve(a, rhs) is None
        assert oracles.entrywise_solve(a, rhs, rref=oracles.dense_rref) is None
        seen = []
        aug = [tuple((j, x) for j, x in enumerate(row + (b,)) if x) for row, b in zip(rows, rhs)]
        assert _solve_rows(_counted(aug, seen), k) is None
        assert len(seen) == r + 1


def test_elimination_of_empty_shapes():
    for k in range(4):
        assert _rref([], k) == ([], [])
        assert _solve_rows([], k) == (Fraction(0),) * k
    for n in range(1, 4):
        a = Matrix([[]] * n)  # n x 0
        assert (a.rows, a.cols, a.rank()) == (n, 0, 0)
        assert rref(a) == a and kernel(a) == span([], 0)
        assert solve(a, [0] * n) == ()
        assert solve(a, [0] * (n - 1) + [2]) is None
    assert solve(Matrix([]), []) == ()
    assert inverse(Matrix([])) == Matrix([])


def test_a_matrix_with_no_rows_keeps_its_column_count():
    for k in range(4):
        a = Matrix.zero(0, k)
        assert (a.rows, a.cols, a.data, a.rank()) == (0, k, (), 0)
        assert a.T == Matrix([[]] * k) and a.T.T == a


def test_the_kernel_of_a_matrix_with_no_rows_is_the_whole_space():
    for k in range(4):
        assert kernel(Matrix.zero(0, k)) == full_space(k)


def test_matrices_with_no_rows_and_different_column_counts_differ():
    shapes = [Matrix.zero(0, k) for k in range(4)]
    assert len(set(shapes)) == len({hash(m) for m in shapes}) == 4
    assert Matrix.zero(0, 3) != Matrix.zero(0, 5)


def test_a_matrix_built_from_no_rows_is_zero_by_zero():
    a = Matrix([])
    assert (a.rows, a.cols, a.data) == (0, 0, ()) and a == Matrix.zero(0, 0)


def test_subspace_combinations_match_the_entrywise_sum():
    rng = random.Random(29)
    sizes = set()
    for _ in range(200):
        n = rng.randint(0, 5)
        vs = [[rng.choice((0, 0, 1, -2, Fraction(1, 3))) for _ in range(n)]
              for _ in range(rng.randint(0, n + 1))]
        s = span(vs, n)
        assert s.nonzeros == oracles.entrywise_nonzeros(s.basis)
        assert s.basis is s.basis  # built on first use and kept
        sizes.add(s.dim)
    assert 0 in sizes and max(sizes) >= 4


@pytest.mark.parametrize("call, message", [
    (lambda: Matrix([[1, 2], [3]]), "ragged rows"),
    (lambda: Matrix.identity(2) + Matrix.zero(2, 3), "shape mismatch 2x2 vs 2x3"),
    (lambda: Matrix.zero(2, 3) @ Matrix.zero(2, 3), "shape mismatch 2x3 @ 2x3"),
    (lambda: Matrix.identity(2).matvec((1, 2, 3)), "matvec length 3 != cols 2"),
    (lambda: solve(Matrix.identity(2), (1,)), "rhs length 1 != rows 2"),
    (lambda: inverse(Matrix.zero(2, 3)), "inverse of a non-square matrix"),
], ids=["ragged", "add", "matmul", "matvec", "solve", "inverse"])
def test_shape_errors_name_the_shapes(call, message):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == message


def test_subspace_repr_names_its_dimensions():
    assert repr(span([(1, 0, 0), (0, 1, 0)], 3)) == "Subspace(dim 2 of Q^3)"

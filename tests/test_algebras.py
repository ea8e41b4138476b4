import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leibkit.algebras import (
    Algebra,
    BimoduleError,
    GradedAlgebra,
    dual_numbers,
    find_unit,
    make_block_upper,
    make_trivial_extension,
    matrix_algebra,
    upper_triangular_model,
    verify_associative,
    verify_special_grading,
)
from leibkit._tables import operators, table_entries, table_from_dense, table_from_entries
from leibkit.linalg import Matrix

from oracles import (action_matrices, bimodule_failures, dense, entries_matrix_units,
                     first_grading_failure, matrix_unit_table, typed)


def mat2(rows):
    """2x2 integer matrix as nested lists, for independent product oracles."""
    return rows


def matmul2(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2)] for i in range(2)]


# coordinates of span{E11, E22, E12} elements inside 2x2 matrices
def ut_coords(m):
    assert m[1][0] == 0
    return (Fraction(m[0][0]), Fraction(m[1][1]), Fraction(m[0][1]))


def ut_matrix(c):
    return [[c[0], c[2]], [0, c[1]]]


def test_multiply_dual_numbers():
    # (u + eps)^2 expanded by bilinearity: u^2 + 2 u eps + eps^2 = u + 2 eps
    dn = dual_numbers()
    assert dn.multiply((1, 1), (1, 1)) == (Fraction(1), Fraction(2))


def test_multiply_zero_left(ut_model):
    assert ut_model.multiply((0, 0, 0), (1, 2, 3)) == (0, 0, 0)


def test_multiply_matches_matrix_products(ut_model):
    # every basis pair of the upper-triangular model against literal 2x2 products
    basis_mats = [mat2([[1, 0], [0, 0]]), mat2([[0, 0], [0, 1]]), mat2([[0, 1], [0, 0]])]
    for i in range(3):
        for j in range(3):
            expected = ut_coords(matmul2(basis_mats[i], basis_mats[j]))
            got = ut_model.multiply(ut_model.algebra.basis_vector(i),
                                    ut_model.algebra.basis_vector(j))
            assert got == expected
    # the example: E12 * E11 = 0
    assert ut_model.multiply((0, 0, 1), (1, 0, 0)) == (0, 0, 0)


def test_multiply_rejects_bad_length(ut_model):
    with pytest.raises(ValueError):
        ut_model.multiply((1, 0), (0, 0, 1))


def test_associative_holds_examples(ut_model):
    assert verify_associative(dual_numbers().algebra).holds
    assert verify_associative(ut_model.algebra).holds
    one = Algebra(table_from_dense([[[2]]]))
    assert verify_associative(one).holds


def test_associative_fails_with_witness():
    # e1 e1 = e2, e2 e1 = e1: (e1 e1) e1 = e1 but e1 (e1 e2) = 0
    a = Algebra(table_from_entries(2, [(0, 0, 1, 1), (1, 0, 0, 1)]))
    rep = verify_associative(a)
    assert not rep.holds
    assert rep.witness.note == "basis triple (0,0,0)"
    e1 = a.basis_vector(0)
    lhs = a.multiply(a.multiply(e1, e1), e1)
    rhs = a.multiply(e1, a.multiply(e1, e1))
    assert (rep.witness.lhs, rep.witness.rhs) == (lhs, rhs) and lhs != rhs


def test_grading_examples(ut_model):
    assert verify_special_grading(ut_model).holds
    assert verify_special_grading(dual_numbers()).holds
    bad = GradedAlgebra(matrix_algebra(2), even=[0, 3])
    rep = verify_special_grading(bad)
    assert not rep.holds and rep.identity == "odd*odd = 0"
    # E12 * E21 = E11, an even value from two odd elements
    assert rep.witness.note == "basis pair (1,2)"


def test_trivial_extension_gives_dual_numbers():
    one = Algebra(table_from_dense([[[1]]]), unit=[1])
    g = make_trivial_extension(one, [Matrix([[1]])], [Matrix([[1]])])
    assert g.dim == 2 and g.even == (0,) and g.odd == (1,)
    assert g.algebra.table == dual_numbers().algebra.table


def test_trivial_extension_gives_upper_triangular(ut_model):
    # Q x Q on idempotents f1, f2; module with f1.m = m and m.f2 = m
    qxq = Algebra(table_from_entries(2, [(0, 0, 0, 1), (1, 1, 1, 1)]))
    g = make_trivial_extension(qxq, left=[Matrix([[1]]), Matrix([[0]])],
                               right=[Matrix([[0]]), Matrix([[1]])])
    assert g.algebra.table == ut_model.algebra.table


def test_trivial_extension_mat2_regular_bimodule():
    m2 = matrix_algebra(2)
    g = make_trivial_extension(m2, operators(m2.table, "left"), operators(m2.table, "right"))
    assert g.dim == 8
    assert verify_special_grading(g).holds
    assert g.algebra.unit is not None


@pytest.mark.parametrize("left, right", [
    ([], [Matrix([[1]])]),                         # no left action
    ([Matrix([[1]])] * 2, [Matrix([[1]])]),        # two for a dim-1 base
    ([Matrix([[1, 0]])], [Matrix([[1, 0]])]),      # not square
    ([Matrix([[1]])], [Matrix.identity(2)]),       # sides of different q
])
def test_trivial_extension_rejects_wrong_action_counts_and_shapes(left, right):
    with pytest.raises(ValueError) as exc:
        make_trivial_extension(Algebra([[[1]]], unit=[1]), left, right)
    assert type(exc.value) is ValueError


def test_trivial_extension_rejects_a_base_of_dimension_0():
    with pytest.raises(ValueError, match="dimension 0"):
        make_trivial_extension(Algebra(table_from_entries(0, [])), [], [])


def test_even_algebra_is_the_even_block(ut_model):
    a0 = ut_model.even_algebra()
    assert a0.table == table_from_entries(2, [(0, 0, 0, 1), (1, 1, 1, 1)])
    assert a0.basis_names == ("E11", "E22") and a0.unit == (1, 1)
    m2 = matrix_algebra(2)
    assert _ext8.even_algebra().table == m2.table and _ext8.even_algebra().unit == m2.unit
    b = make_block_upper(2, 1)  # even X11 X12 X21 X22 Y11: Mat(2) x Q
    mat_q = table_entries(m2.table) + [(4, 4, 4, 1)]
    assert b.even_algebra().table == table_from_entries(5, mat_q)
    assert GradedAlgebra(Algebra(table_from_entries(0, [])), []).even_algebra().dim == 0


def test_even_algebra_rejects_an_odd_component_of_an_even_product():
    g = GradedAlgebra(matrix_algebra(2), even=[1, 2])  # E12 E21 = E11 is odd
    with pytest.raises(ValueError, match=r"even\*even product \(1,2\) has an odd component"):
        g.even_algebra()


def test_trivial_extension_rejects_nonassociative_base():
    bad = Algebra(table_from_entries(2, [(0, 0, 1, 1), (1, 0, 0, 1)]))
    with pytest.raises(ValueError, match="not associative"):
        make_trivial_extension(bad, [Matrix([[0]])] * 2, [Matrix([[0]])] * 2)


def test_trivial_extension_rejects_bad_action():
    # "action" by a non-idempotent on a 1-dim module over Q x Q
    qxq = Algebra(table_from_entries(2, [(0, 0, 0, 1), (1, 1, 1, 1)]))
    with pytest.raises(BimoduleError) as exc:
        make_trivial_extension(qxq, left=[Matrix([[2]]), Matrix([[0]])],
                               right=[Matrix([[0]]), Matrix([[0]])])
    assert "a.(b.m) = (ab).m" in str(exc.value)


def _left(tensor, a, v):
    """a.v for base coordinates a and module coordinates v, summed by hand."""
    q = len(v)
    return tuple(sum((a[i] * v[m] * Fraction(tensor[i][m][k])
                      for i in range(len(a)) for m in range(q)), Fraction(0))
                 for k in range(q))


def _right(tensor, v, a):
    """v.a for module coordinates v and base coordinates a, summed by hand."""
    q = len(v)
    return tuple(sum((a[i] * v[m] * Fraction(tensor[m][i][k])
                      for i in range(len(a)) for m in range(q)), Fraction(0))
                 for k in range(q))


def _hand_sides(axiom, table, left, right, i, j, m):
    table, p, q = dense(table), len(table), len(left[0])
    ei = tuple(Fraction(int(t == i)) for t in range(p))
    ej = tuple(Fraction(int(t == j)) for t in range(p))
    em = tuple(Fraction(int(t == m)) for t in range(q))
    if axiom == "a.(b.m) = (ab).m":
        return _left(left, ei, _left(left, ej, em)), _left(left, table[i][j], em)
    if axiom == "(m.a).b = m.(ab)":
        return _right(right, _right(right, em, ei), ej), _right(right, em, table[i][j])
    return _right(right, _left(left, ei, em), ej), _left(left, ei, _right(right, em, ej))


_QXQ = table_from_entries(2, [(0, 0, 0, 1), (1, 1, 1, 1)])
_Q = table_from_entries(1, [(0, 0, 0, 1)])


@pytest.mark.parametrize("axiom, base, left, right, indices", [
    # f1 acts as 2 from the left: (f1 f1).m = 2m but f1.(f1.m) = 4m
    ("a.(b.m) = (ab).m", _QXQ, [[[2]], [[0]]], [[[0], [0]]], (0, 0, 0)),
    # f2 acts as 2 from the right
    ("(m.a).b = m.(ab)", _QXQ, [[[0]], [[0]]], [[[0], [2]]], (1, 1, 0)),
    # idempotent actions diag(1,0) from the left, [[1,1],[0,0]] from the right
    # that do not commute
    ("(a.m).b = a.(m.b)", _Q, [[[1, 0], [0, 0]]], [[[1, 0]], [[1, 0]]], (0, 0, 1)),
])
def test_trivial_extension_names_the_failing_axiom(axiom, base, left, right, indices):
    q = len(left[0])
    assert {ax for ax, _ in bimodule_failures(base, q, left, right)} == {axiom}
    with pytest.raises(BimoduleError) as exc:
        make_trivial_extension(Algebra(base), *action_matrices(len(base), q, left, right))
    e = exc.value
    assert (e.axiom, e.indices) == (axiom, indices)
    assert e.lhs != e.rhs
    assert (e.lhs, e.rhs) == _hand_sides(axiom, base, left, right, *indices)


_ACTION_BASES = [
    _Q,
    table_from_entries(1, []),
    _QXQ,
    table_from_entries(2, [(0, 0, 1, 1)]),                          # x^2 = y
    table_from_entries(3, [(i, i, i, 1) for i in range(3)]),
    table_from_entries(3, [(0, 0, 1, 1), (0, 1, 2, 1), (1, 0, 2, 1)]),  # x, x^2, x^3
    table_from_entries(3, [(0, 0, 0, 1), (1, 1, 1, 1), (0, 2, 2, 1), (2, 1, 2, 1)]),
]


def _random_action(rng):
    """A base of dim <= 3 and an action on q <= 3: zero, regular or split
    diagonal, then 0-2 entries overwritten with values in [-1, 2]."""
    base = rng.choice(_ACTION_BASES)
    cells, p = dense(base), len(base)
    start = rng.choice(("zero", "regular", "diagonal"))
    q = p if start == "regular" else rng.randint(1, 3)
    left = [[[Fraction(0)] * q for _ in range(q)] for _ in range(p)]
    right = [[[Fraction(0)] * q for _ in range(p)] for _ in range(q)]
    if start == "regular":
        for i in range(p):
            for m in range(q):
                left[i][m] = list(cells[i][m])
                right[m][i] = list(cells[m][i])
    elif start == "diagonal":
        for m in range(q):
            li, ri = rng.randrange(p), rng.randrange(p)
            if cells[li][li][li] == 1:
                left[li][m][m] = Fraction(1)
            if cells[ri][ri][ri] == 1:
                right[m][ri][m] = Fraction(1)
    for _ in range(rng.choice((0, 1, 1, 2))):
        i, m, k = rng.randrange(p), rng.randrange(q), rng.randrange(q)
        side = left[i][m] if rng.random() < 0.5 else right[m][i]
        side[k] = Fraction(rng.randint(-1, 2))
    return base, q, left, right


def _nested_extension_table(base, q, left, right):
    """The extension table written straight from the nested actions:
    e_i.m_m = left[i][m] and m_m.e_i = right[m][i], in module coordinates."""
    p = len(base)
    entries = table_entries(base)
    entries += [(i, p + m, p + k, c) for i in range(p) for m in range(q)
                for k, c in enumerate(left[i][m])]
    entries += [(p + m, i, p + k, c) for m in range(q) for i in range(p)
                for k, c in enumerate(right[m][i])]
    return table_from_entries(p + q, entries)


def test_trivial_extension_agrees_with_dense_matrix_oracle():
    rng = random.Random(20261017)
    verdicts = {True: 0, False: 0}
    for _ in range(1000):
        base, q, left, right = _random_action(rng)
        failures = bimodule_failures(base, q, left, right)
        try:
            g = make_trivial_extension(Algebra(base), *action_matrices(len(base), q, left, right))
        except BimoduleError as e:
            assert failures, "raised on a valid bimodule"
            assert failures[(e.axiom, e.indices)] == (e.lhs, e.rhs)
        else:
            assert not failures, "accepted an invalid bimodule"
            assert g.algebra.table == _nested_extension_table(base, q, left, right)
        verdicts[bool(failures)] += 1
    assert min(verdicts.values()) >= 100


def test_block_upper_family(ut_model):
    b11 = make_block_upper(1, 1)
    assert b11.algebra.table == ut_model.algebra.table
    b21 = make_block_upper(2, 1)
    assert b21.dim == 7 and len(b21.even) == 5 and len(b21.odd) == 2
    for p, q in [(1, 1), (2, 1), (2, 2)]:
        g = make_block_upper(p, q)
        assert verify_special_grading(g).holds
        for i in g.odd:
            for j in g.odd:
                assert g.multiply(g.algebra.basis_vector(i),
                                  g.algebra.basis_vector(j)) == tuple([0] * g.dim)


def _assert_matrix_units(algebra, n, cells, names):
    """Products of the dense unit matrices, the names given, and the
    diagonal units summing to the unit."""
    assert dense(algebra.table) == matrix_unit_table(n, cells)
    assert algebra.basis_names == tuple(names)
    assert algebra.unit == tuple(Fraction(a == b) for a, b in cells)


@pytest.mark.parametrize("n", range(5))
def test_matrix_algebra_multiplies_as_unit_matrices(n):
    cells = [(a, b) for a in range(n) for b in range(n)]
    _assert_matrix_units(matrix_algebra(n), n, cells, [f"E{a + 1}{b + 1}" for a, b in cells])


@pytest.mark.parametrize("p, q", [(p, q) for p in (1, 2, 3) for q in (1, 2, 3)])
def test_block_upper_multiplies_as_unit_matrices(p, q):
    """Basis X, then Y, then M, each block row-major; X and Y are even."""
    n = p + q
    x = [(a, b) for a in range(p) for b in range(p)]
    y = [(a, b) for a in range(p, n) for b in range(p, n)]
    m = [(a, b) for a in range(p) for b in range(p, n)]
    names = ([f"X{a + 1}{b + 1}" for a, b in x] + [f"Y{a - p + 1}{b - p + 1}" for a, b in y]
             + [f"M{a + 1}{b - p + 1}" for a, b in m])
    g = make_block_upper(p, q)
    _assert_matrix_units(g.algebra, n, x + y + m, names)
    assert g.even == tuple(range(len(x + y))) and g.odd == tuple(range(len(x + y), g.dim))


def _block_cells(p, q):
    n = p + q
    return ([(a, b) for a in range(p) for b in range(p)]
            + [(a, b) for a in range(p, n) for b in range(p, n)]
            + [(a, b) for a in range(p) for b in range(p, n)])


_UNIT_ALGEBRAS = {
    **{f"Mat({n})": (lambda n=n: matrix_algebra(n), [(a, b) for a in range(n) for b in range(n)])
       for n in range(7)},
    **{f"block_upper({p},{q})": (lambda p=p, q=q: make_block_upper(p, q).algebra,
                                 _block_cells(p, q))
       for p in range(1, 5) for q in range(1, 5)},
    "upper_triangular": (lambda: upper_triangular_model().algebra, [(0, 0), (1, 1), (0, 1)]),
}


@pytest.mark.parametrize("name", _UNIT_ALGEBRAS)
def test_matrix_units_equal_the_entries_built_table(name):
    """Cell for cell, coordinate order and int or Fraction included."""
    build, cells = _UNIT_ALGEBRAS[name]
    got, want = build().table, entries_matrix_units(cells)
    assert got == want and typed(got) == typed(want)


def test_upper_triangular_model_multiplies_as_unit_matrices():
    g = upper_triangular_model()
    _assert_matrix_units(g.algebra, 2, [(0, 0), (1, 1), (0, 1)], ["E11", "E22", "E12"])
    assert g.even == (0, 1) and g.odd == (2,)


def test_find_unit():
    assert find_unit(matrix_algebra(2)) == (1, 0, 0, 1)
    nil = Algebra(table_from_entries(1, []))
    assert find_unit(nil) is None


small = st.integers(min_value=-3, max_value=3)


@settings(max_examples=50)
@given(st.lists(small, min_size=3, max_size=3), st.lists(small, min_size=3, max_size=3),
       st.lists(small, min_size=3, max_size=3))
def test_multiply_bilinear(ut_model, x, xp, y):
    a = ut_model.algebra
    left = a.multiply([u + v for u, v in zip(x, xp)], y)
    assert left == tuple(p + q for p, q in zip(a.multiply(x, y), a.multiply(xp, y)))
    right = a.multiply(y, [u + v for u, v in zip(x, xp)])
    assert right == tuple(p + q for p, q in zip(a.multiply(y, x), a.multiply(y, xp)))


_m2 = matrix_algebra(2)
_ext8 = make_trivial_extension(_m2, operators(_m2.table, "left"), operators(_m2.table, "right"))


@settings(max_examples=30)
@given(st.lists(small, min_size=8, max_size=8), st.lists(small, min_size=8, max_size=8))
def test_even_projection_multiplicative(x, y):
    g = _ext8
    prod_even = g.even_part(g.multiply(x, y))
    assert prod_even == g.multiply(g.even_part(x), g.even_part(y))


def test_grading_check_names_the_first_failing_pair_of_the_dense_scan():
    rng = random.Random(4)
    outcomes = set()
    for _ in range(300):
        dim = rng.randint(1, 5)
        even = set(rng.sample(range(dim), rng.randint(0, dim)))
        items = [(i, j, k, rng.choice((1, -1, "1/2")))
                 for i in range(dim) for j in range(dim) for k in range(dim)
                 if rng.random() < rng.choice((0.02, 0.1, 0.3))]
        g = GradedAlgebra(Algebra(table_from_entries(dim, items)), even)
        rep = verify_special_grading(g)
        want = first_grading_failure(g.algebra.table, even)
        if want is None:
            assert rep.holds
        else:
            clause, i, j = want
            assert (rep.identity, rep.witness.note) == (clause, f"basis pair ({i},{j})")
        outcomes.add(rep.identity)
    assert outcomes == {"special grading", "even*even in even", "odd*odd = 0",
                        "mixed products in odd"}


@pytest.mark.parametrize("build, message", [
    (lambda: Algebra([[[1]]], ["u", "v"]), "basis_names length != dim"),
    (lambda: Algebra([[[1]]], unit=[1, 0]), "unit vector length != dim"),
    (lambda: GradedAlgebra(Algebra([[[1]]]), even=[1]), "even index out of range"),
    (lambda: make_block_upper(0, 1), "block sizes must be >= 1"),
], ids=["basis names", "unit", "even index", "block size"])
def test_algebra_constructors_reject_bad_input(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message

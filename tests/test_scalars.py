"""Exact scalars of the sparse layer, and the dense views built from them.

Every table cell is an int when its value is integral and a Fraction of
denominator > 1 otherwise, whichever builder made it and whatever form its
input took.  The sparse readers (``nonzeros``, columns, pivot rows,
certificates) hold only ints and Fractions, never a float or a bool, on
integer and rational inputs alike; the exact layer divides only where the
result must stay exact.  The dense views (``data``, ``basis``, ``matvec``,
``solve``, witnesses and exact inverses) hold Fractions only.
"""

import json
import random
from fractions import Fraction

import pytest

import oracles
from leibkit import io as lio
from leibkit._tables import table_entries, table_from_dense, table_from_entries
from leibkit.algebras import Algebra, GradedAlgebra, make_block_upper, matrix_algebra
from leibkit.derive import derive_huliu, derive_leibniz
from leibkit.huliu import adjoint_operators, classify_huliu_simplicity
from leibkit.leibniz import (LeibnizAlgebra, annihilator, classify_simplicity,
                             multiplication_operators)
from leibkit.linalg import Matrix, inverse, kernel, rat, solve, span
from leibkit.modules import OperatorModule, _distinct, closure, quotient, restriction
from leibkit.xigroup import NotAUnitError, invert_unit, mat_square_zero_extension

# every input form of an integral and a fractional value
VALUES = (1, -2, "3/4", "4/2", Fraction(6, 3), "-5/6", Fraction(2, 3), 3)
# (first, repeat) pairs whose sum is integral, zero or fractional
REPEATS = (("1/4", "3/4"), ("1/2", "-1/2"), ("1/3", "1/3"), (Fraction(5, 2), "1/2"),
           (2, -2), ("-3/4", 1))


def _assert_canonical(table):
    entries = table_entries(table)
    assert all(oracles.is_canonical_scalar(c) for *_, c in entries), entries
    assert all(oracles.is_canonical_scalar(c) for row in table for cell in row for _, c in cell)


def _items(rng, dim):
    items = []
    for _ in range(3 * dim ** 2):
        i, j, k = (rng.randrange(dim) for _ in range(3))
        if rng.random() < 0.5:
            items.append((i, j, k, rng.choice(VALUES)))
        else:
            first, repeat = rng.choice(REPEATS)
            items += [(i, j, k, first), (i, j, k, repeat)]
    return items


@pytest.mark.parametrize("seed", range(10))
def test_table_builders_store_ints_for_integral_values(seed):
    rng = random.Random(seed)
    dim = rng.randint(1, 5)
    items = _items(rng, dim)
    t = table_from_entries(dim, items)
    _assert_canonical(t)
    sums = {}
    for i, j, k, c in items:
        sums[i, j, k] = sums.get((i, j, k), 0) + Fraction(c)
    assert table_entries(t) == sorted((*key, c) for key, c in sums.items() if c)
    dense = [[[rng.choice((0, 0, *VALUES)) for _ in range(dim)] for _ in range(dim)]
             for _ in range(dim)]
    _assert_canonical(table_from_dense(dense))
    assert table_from_dense(oracles.dense(t)) == t


def test_repeats_that_add_to_an_integer_are_stored_as_ints():
    t = table_from_entries(2, [(0, 0, 0, "1/4"), (0, 0, 0, "3/4"), (0, 1, 1, "1/2"),
                               (0, 1, 1, "-1/2"), (1, 1, 0, "1/3"), (1, 1, 0, "1/3"),
                               (1, 0, 1, "4/2"), (1, 0, 0, Fraction(6, 3))])
    assert table_entries(t) == [(0, 0, 0, 1), (1, 0, 0, 2), (1, 0, 1, 2),
                                (1, 1, 0, Fraction(2, 3))]
    assert [type(c) for *_, c in table_entries(t)] == [int, int, int, Fraction]


@pytest.mark.parametrize("build", [
    lambda: matrix_algebra(3).table,
    lambda: make_block_upper(2, 3).algebra.table,
    lambda: derive_leibniz(make_block_upper(2, 2)).angle,
    lambda: derive_huliu(make_block_upper(3, 2)).square,
], ids=["matrix_algebra", "make_block_upper", "derive_leibniz", "derive_huliu"])
def test_constructions_store_int_cells(build):
    t = build()
    _assert_canonical(t)
    assert all(type(c) is int for *_, c in table_entries(t))


def test_derived_tables_of_a_rational_algebra_are_canonical():
    """x y0 - y0 x on an algebra whose structure constants include 1/2 and
    3/2: the commutator cells that add up to integers are ints."""
    # the dual numbers rescaled: u = 2 e0 (e0 e0 = e0 / 2), eps = e1
    a = Algebra(table_from_entries(2, [(0, 0, 0, "1/2"), (0, 1, 1, "1/2"), (1, 0, 1, "1/2")]),
                unit=[2, 0])
    g = GradedAlgebra(a, [0])
    h = derive_huliu(g)
    for t in (g.algebra.table, h.leibniz.angle, h.square):
        _assert_canonical(t)


def test_loaded_tables_store_ints_for_integral_values(tmp_path):
    entries = [[0, 0, 0, 1], [0, 0, 1, "4/2"], [0, 1, 0, "3/4"], [1, 0, 0, -2],
               [1, 1, 1, "1/4"], [1, 1, 1, "3/4"], [1, 1, 0, "1/2"], [1, 1, 0, "-1/2"],
               [0, 1, 1, "-6/3"]]
    p = tmp_path / "t.json"
    p.write_text(json.dumps({"kind": "huliu", "dim": 2, "basis": ["a", "b"],
                             "angle": entries, "square": entries[::-1]}))
    h = lio.load_file(p)
    for t in (h.leibniz.angle, h.square):
        _assert_canonical(t)
        assert table_entries(t) == [(0, 0, 0, 1), (0, 0, 1, 2), (0, 1, 0, Fraction(3, 4)),
                                    (0, 1, 1, -2), (1, 0, 0, -2), (1, 1, 1, 1)]


def _assert_exact_sparse(*rows):
    assert all(oracles.is_exact_scalar(x) for r in rows for _, x in r), rows


def _assert_dense(*vectors):
    assert all(type(x) is Fraction for v in vectors for x in v), vectors


def _random_matrix(rng, rows, cols, entries):
    return Matrix([[rng.choice(entries) for _ in range(cols)] for _ in range(rows)])


RATIONAL = (0, 0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-3, 4), Fraction(5, 3))
INTEGER = (0, 0, 0, 1, -1, 2, -3, 4)


@pytest.mark.parametrize("seed", range(12))
def test_linear_algebra_keeps_exact_scalars(seed):
    rng = random.Random(seed)
    entries = RATIONAL if seed % 2 else INTEGER
    n = rng.randint(1, 6)
    m = _random_matrix(rng, rng.randint(1, 6), n, entries)
    b = [rng.choice(entries) for _ in range(m.rows)]
    ker, r = kernel(m), m.rref()
    _assert_exact_sparse(*m.nonzeros, *m._cols, *ker.nonzeros, *r.nonzeros)
    _assert_exact_sparse(*(row.items() for row in ker._rows.values()))
    x = solve(m, b)
    if x is not None:
        _assert_dense(x)
        assert m.matvec(x) == tuple(map(Fraction, b))
    sq = _random_matrix(rng, n, n, entries)
    inv = inverse(sq)
    if inv is not None:
        _assert_exact_sparse(*inv.nonzeros)
        oracles.assert_exact_rows(inv)
        assert sq @ inv == Matrix.identity(n)
    s = span(m.data, n)
    _assert_exact_sparse(*s.nonzeros)
    _assert_dense(*s.basis, *ker.basis, *r.data, m.matvec([1] * n))
    ops = [_random_matrix(rng, n, n, entries) for _ in range(2)]
    c = closure(ops, s)
    _assert_exact_sparse(*c.nonzeros)
    mod = OperatorModule(n, tuple(ops))
    sub = closure(ops, span([m.data[0]], n))
    for induced in (restriction(mod, sub), quotient(mod, sub).mod):
        for t in induced.operators:
            _assert_exact_sparse(*t.nonzeros, *t._cols)


def test_unit_pivots_keep_integer_rows():
    """An integer matrix whose every pivot is +-1 reduces without a division,
    so its RREF and span hold ints only; a pivot of 2 divides exactly."""
    m = Matrix([[1, 2, 0, -3], [-2, -4, 1, 5], [0, 0, -1, 1]])
    rows = (((0, 1), (1, 2), (3, -3)), ((2, 1), (3, -1)))
    assert m.rref().nonzeros == rows + ((),) and span(m.data, 4).nonzeros == rows
    for r in (*m.rref().nonzeros, *span(m.data, 4).nonzeros):
        assert all(type(x) is int for _, x in r)
    # the kernel's free columns give (-2, 1, 0, 0) and (3, 0, 1, 1), which lead with -2
    third = Fraction(1, 3)
    assert kernel(m).nonzeros == (((0, 1), (2, third), (3, third)),
                                  ((1, 1), (2, 2 * third), (3, 2 * third)))
    assert span([[2, 4, 1]], 3).nonzeros == (((0, 1), (1, 2), (2, Fraction(1, 2))),)
    assert [type(x) for _, x in span([[2, 4, 1]], 3).nonzeros[0]] == [int, int, Fraction]


def _fraction_keyed_distinct(ops):
    """The operators ``_distinct`` keeps, keyed by columns divided as Fractions."""
    first = {}
    for t in ops:
        x0 = Fraction(next(c[0][1] for c in t._cols if c))
        first.setdefault(tuple(tuple((i, Fraction(y) / x0) for i, y in c) for c in t._cols), t)
    return list(first.values())


@pytest.mark.parametrize("leads", [(2, 4), (2, 3)])
def test_distinct_divides_exactly(leads):
    big = 2 ** 60
    a, b = leads
    ops = [Matrix([[a, 0], [a * (big + 1), 0]]), Matrix([[b, 0], [b * big, 0]]),
           Matrix([[b, 0], [b * (big + 1), 0]]), Matrix([[0, 0], [3, 0]]),
           Matrix([[0, 0], [6, 0]]), Matrix([[a, 1], [0, 0]]), Matrix([[b, Fraction(b, a)], [0, 0]])]
    kept = _distinct(ops)
    assert kept == _fraction_keyed_distinct(ops)
    assert [ops.index(t) for t in kept] == [0, 1, 3, 5]


def _integer_ladder():
    """Leibniz and Hu-Liu inputs with integer structure constants."""
    so3 = {(0, 1): (2, 1), (1, 2): (0, 1), (2, 0): (1, 1)}
    entries = [(i, j, k, c) for (i, j), (k, c) in so3.items()]
    entries += [(j, i, k, -c) for (i, j), (k, c) in so3.items()]
    sl2 = LeibnizAlgebra(oracles.sl2_semidirect((3,)))
    return [LeibnizAlgebra(table_from_entries(3, entries)), sl2,
            LeibnizAlgebra(oracles.sl2_semidirect((2, 3))),
            LeibnizAlgebra(oracles.rotation_bracket(5)),
            derive_huliu(make_block_upper(2, 2)), derive_huliu(make_block_upper(1, 2))]


@pytest.mark.parametrize("index", range(6))
def test_classifiers_keep_exact_scalars(index):
    algebra = _integer_ladder()[index]
    if isinstance(algebra, LeibnizAlgebra):
        verdict, ann = classify_simplicity(algebra), annihilator(algebra)
        ops = multiplication_operators(algebra)
    else:
        verdict, ann = classify_huliu_simplicity(algebra), annihilator(algebra.leibniz)
        ops = adjoint_operators(algebra)
    assert verdict.tag in ("Simple", "NotSimple", "Unknown")
    _assert_exact_sparse(*ann.nonzeros)
    _assert_dense(*ann.basis)
    for t in ops + tuple(_distinct([t for t in ops if not t.is_zero()])):
        _assert_exact_sparse(*t.nonzeros, *t._cols)
    if verdict.certificate is not None:
        _assert_exact_sparse(*verdict.certificate.nonzeros)
        _assert_dense(*verdict.certificate.basis)


def test_annihilator_basis_of_an_integer_algebra_is_dense_fractions(nilpotent_dim2, ut_model):
    for algebra in (nilpotent_dim2, derive_leibniz(ut_model), derive_leibniz(make_block_upper(2, 2))):
        ann = annihilator(algebra)
        assert ann.dim and all(type(c) is int for r in ann.nonzeros for _, c in r)
        assert all(type(c) is Fraction for b in ann.basis for c in b)


def test_a_failing_report_on_an_integer_algebra_has_fraction_witnesses():
    # <e0,e0> = e0 fails the right Leibniz identity; e0 e1 = e0 and e1 e0 = e1
    # fail associativity
    reports = [LeibnizAlgebra(table_from_entries(1, [(0, 0, 0, 1)])).report(),
               Algebra(table_from_entries(2, [(0, 1, 0, 1), (1, 0, 1, 1), (1, 1, 1, 2)])).report()]
    for rep in reports:
        assert not rep.holds
        w = rep.witness
        _assert_dense(*w.inputs, w.lhs, w.rhs)


@pytest.mark.parametrize("n", [2, 3])
def test_invert_unit_keeps_exact_scalars_on_matrix_units(n):
    g, r = mat_square_zero_extension(n)
    for m in r.embed:
        assert all(type(c) is int for row in m.nonzeros for _, c in row)
    rng = random.Random(n)
    unit, found = g.algebra.unit, 0
    while found < 10:
        x = tuple(u + rng.choice((0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3))) for u in unit)
        try:
            inv = invert_unit(r, x)
        except NotAUnitError:
            continue
        found += 1
        _assert_dense(inv)
        assert g.multiply(x, inv) == unit


def test_a_numpy_integer_is_read_as_an_int_of_any_width():
    # np.int64 would keep its fixed width and wrap: 2^80 is past it
    import numpy as np

    m = Matrix(np.array([[2 ** 40]]))
    assert (m @ m).nonzeros == (((0, 2 ** 80),),)
    assert type(m.nonzeros[0][0][1]) is int and type(m.data[0][0].numerator) is int
    assert type(rat(np.int64(3))) is int and rat(np.int64(3)) == 3
    assert type(rat(np.uint8(200))) is int and rat(True) == 1 and type(rat(True)) is int
    t = table_from_dense(np.array([[[2 ** 40]]]))
    assert table_entries(t) == [(0, 0, 0, 2 ** 40)] and type(t[0][0][0][1]) is int

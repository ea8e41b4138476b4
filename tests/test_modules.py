import random
from fractions import Fraction

import pytest

from leibkit.leibniz import LeibnizAlgebra, annihilator, multiplication_operators
from leibkit.linalg import Matrix, full_space, inverse, span
from leibkit.modules import (
    OperatorModule,
    closure,
    equivariant_projection_kernel,
    is_invariant,
    norton_irreducible,
    quotient,
    restriction,
    spin,
)

import oracles


def test_closure_reaches_fixpoint():
    shift = Matrix([[0, 0, 0], [1, 0, 0], [0, 1, 0]])  # e1 -> e2 -> e3
    got = closure([shift], span([(1, 0, 0)], 3))
    assert got == full_space(3)
    assert closure([shift], span([(0, 0, 1)], 3)) == span([(0, 0, 1)], 3)


def _sparse_ops(rng, d, count, density):
    return [Matrix([[Fraction(rng.randint(-3, 3), rng.randint(1, 2))
                     if rng.random() < density else 0 for _ in range(d)] for _ in range(d)])
            for _ in range(count)]


def test_closure_matches_naive_closure():
    rng = random.Random(11)
    for _ in range(150):
        d = rng.randint(1, 9)
        ops = _sparse_ops(rng, d, rng.randint(0, 3), rng.choice((0.1, 0.25, 0.5)))
        if rng.random() < 0.3:
            ops.append(Matrix.zero(d, d))
        seeds = [span([], d), full_space(d),
                 span(_sparse_ops(rng, d, 1, 0.4)[0].data[:rng.randint(1, d)], d)]
        for t in (ops, [t.T for t in ops]):
            for s in seeds:
                assert closure(t, s) == oracles.naive_closure(t, s)


def test_closure_applies_each_nonzero_operator_once_per_basis_vector(monkeypatch):
    calls = 0
    matvec = Matrix.matvec

    def counting(self, v):
        nonlocal calls
        calls += 1
        return matvec(self, v)

    monkeypatch.setattr(Matrix, "matvec", counting)
    rng = random.Random(12)
    for _ in range(60):
        d = rng.randint(1, 6)
        ops = _sparse_ops(rng, d, rng.randint(1, 4), 0.2) + [Matrix.zero(d, d)]
        calls = 0
        got = closure(ops, span([_sparse_ops(rng, d, 1, 0.5)[0].row(0)], d))
        assert calls <= sum(not t.is_zero() for t in ops) * got.dim


def test_spin_and_restriction_quotient():
    d = Matrix([[1, 0], [0, 2]])
    mod = OperatorModule(2, (d,))
    assert spin(mod, [(1, 0)]) == span([(1, 0)], 2)
    sub = span([(1, 0)], 2)
    res = restriction(mod, sub)
    assert res.operators[0] == Matrix([[1]])
    quo = quotient(mod, sub)
    assert quo.mod.operators[0] == Matrix([[2]])
    assert quo.lift((1,)) == (0, 1)


def test_quotient_operators_lift_to_the_operators_modulo_the_subspace():
    rng = random.Random(17)
    for _ in range(60):
        d = rng.randint(1, 8)
        # each block keeps e_0 .. e_(d-2) in their span, so in the basis u the
        # first d - 1 columns of u span an invariant hyperplane
        blocks = [Matrix([r if i < d - 1 else [0] * (d - 1) + [r[-1]]
                          for i, r in enumerate(t.data)])
                  for t in _sparse_ops(rng, d, rng.randint(1, 3), rng.choice((0.2, 0.5)))]
        u, uinv = _random_invertible(rng, d)
        ops = tuple(u @ t @ uinv for t in blocks)
        subs = [span([], d), span([u.col(j) for j in range(d - 1)], d)]
        subs += [closure(ops, span([_sparse_ops(rng, d, 1, 0.5)[0].row(0)], d)) for _ in range(3)]
        for s in subs:
            assert oracles.is_invariant(ops, s)
            quo = quotient(OperatorModule(d, ops), s)
            assert quo.dim == d - s.dim
            for t, qt in zip(ops, quo.mod.operators):
                for f in range(quo.dim):
                    e_f = [int(i == f) for i in range(quo.dim)]
                    diff = [x - y for x, y in zip(t.matvec(quo.lift(e_f)), quo.lift(qt.col(f)))]
                    assert len(oracles.dense_rref([*s.basis, diff])[1]) == s.dim


def test_restriction_rejects_noninvariant():
    rot = Matrix([[0, -1], [1, 0]])
    with pytest.raises(ValueError):
        restriction(OperatorModule(2, (rot,)), span([(1, 0)], 2))


def test_norton_reducible_diagonal():
    mod = OperatorModule(2, (Matrix([[1, 0], [0, 2]]),))
    status, wit = norton_irreducible(mod, random.Random(0))
    assert status == "reducible"
    assert wit.dim == 1 and is_invariant(mod.operators, wit)


def test_norton_irreducible_nullity_one():
    # shift + projection generate enough singular elements with 1-dim kernels
    ops = (Matrix([[0, 1], [0, 0]]), Matrix([[0, 0], [1, 0]]))
    mod = OperatorModule(2, ops)
    status, wit = norton_irreducible(mod, random.Random(0))
    assert status == "irreducible" and wit is None
    assert oracles.invariant_lines_dim2(list(ops)) == []


def test_norton_unknown_for_rotation():
    # the algebra generated by a rotation is a field: no nullity-one elements,
    # so the method must answer unknown rather than guess
    mod = OperatorModule(2, (Matrix([[0, -1], [1, 0]]),))
    status, wit = norton_irreducible(mod, random.Random(0), budget=16)
    assert status == "unknown" and wit is None
    assert oracles.invariant_lines_dim2(list(mod.operators)) == []


def test_norton_zero_budget_unknown():
    ops = (Matrix([[0, 1], [0, 0]]), Matrix([[0, 0], [1, 0]]))
    status, _ = norton_irreducible(OperatorModule(2, ops), random.Random(0), budget=0)
    assert status == "unknown"


def test_norton_no_operators_reducible():
    mod = OperatorModule(3, (Matrix.zero(3, 3),))
    status, wit = norton_irreducible(mod, random.Random(0))
    assert status == "reducible" and 0 < wit.dim < 3


def test_norton_agrees_with_line_oracle_randomly():
    rng = random.Random(7)
    for _ in range(40):
        ops = tuple(
            Matrix([[rng.randint(-1, 1) for _ in range(2)] for _ in range(2)])
            for _ in range(rng.randint(1, 3)))
        mod = OperatorModule(2, ops)
        status, wit = norton_irreducible(mod, random.Random(rng.randint(0, 999)))
        lines = oracles.invariant_lines_dim2(list(ops))
        if status == "reducible":
            assert is_invariant(ops, wit)
            assert lines == "all" or len(lines) > 0
        elif status == "irreducible":
            assert lines == []


def test_equivariant_complement():
    d = OperatorModule(2, (Matrix([[1, 0], [0, 2]]),))
    ker = equivariant_projection_kernel(d, span([(1, 0)], 2))
    assert ker == span([(0, 1)], 2)
    assert ker == oracles.dense_system_projection_kernel(d, span([(1, 0)], 2))
    jordan = OperatorModule(2, (Matrix([[1, 1], [0, 1]]),))
    assert equivariant_projection_kernel(jordan, span([(1, 0)], 2)) is None
    assert oracles.dense_system_projection_kernel(jordan, span([(1, 0)], 2)) is None


def _block_diagonal(a, b):
    n, m = a.rows, b.rows
    return Matrix([list(r) + [0] * m for r in a.data] + [[0] * n + list(r) for r in b.data])


def _random_invertible(rng, d):
    while True:
        u = _sparse_ops(rng, d, 1, 0.6)[0]
        uinv = inverse(u)
        if uinv is not None:
            return u, uinv


def test_sparse_complement_system_matches_the_dense_reference():
    rng = random.Random(13)
    for _ in range(40):
        # a direct sum M1 + M2 in a random basis: the image of M1 has the
        # image of M2 as an invariant complement
        d1 = rng.randint(1, 4)
        d2 = rng.randint(1, 6 - d1)
        d = d1 + d2
        ops = [_block_diagonal(a, b) for a, b in zip(
            _sparse_ops(rng, d1, 2, 0.5), _sparse_ops(rng, d2, 2, 0.5))]
        u, uinv = _random_invertible(rng, d)
        mod = OperatorModule(d, tuple(u @ t @ uinv for t in ops))
        sub = span([u.col(j) for j in range(d1)], d)
        got = equivariant_projection_kernel(mod, sub)
        assert got is not None and got == oracles.dense_projection_kernel(mod, sub)
        assert got == oracles.dense_system_projection_kernel(mod, sub)
    for n in range(2, 6):
        jordan = Matrix([[1 if j in (i, i + 1) else 0 for j in range(n)] for i in range(n)])
        mod = OperatorModule(n, (jordan,))
        for k in range(1, n):
            sub = span([[1 if j == i else 0 for j in range(n)] for i in range(k)], n)
            assert equivariant_projection_kernel(mod, sub) is None
            assert oracles.dense_projection_kernel(mod, sub) is None
            assert oracles.dense_system_projection_kernel(mod, sub) is None
    alg = LeibnizAlgebra(oracles.sl2_semidirect((4,)))
    mod = OperatorModule(alg.dim, multiplication_operators(alg))
    ann = annihilator(alg)
    assert equivariant_projection_kernel(mod, ann) is None
    assert oracles.dense_projection_kernel(mod, ann) is None


def test_complement_of_the_sl2_annihilators_matches_the_dense_system():
    for n in range(1, 9):
        alg = LeibnizAlgebra(oracles.sl2_semidirect((n,)))
        mod = OperatorModule(alg.dim, multiplication_operators(alg))
        ann = annihilator(alg)
        assert ann.dim == n + 1
        assert equivariant_projection_kernel(mod, ann) is None
        assert oracles.dense_system_projection_kernel(mod, ann) is None

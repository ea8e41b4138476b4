import functools
import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

from leibkit import _tables, fuzz
from leibkit._tables import table_from_entries, zero_table
from leibkit.algebras import make_block_upper
from leibkit.derive import derive_huliu, verify_linear_embedding
from leibkit.huliu import (HuLiuAlgebra, adjoint_operators, annihilator_abelian_check,
                           check_huliu_homomorphism, classify_huliu_simplicity, is_huliu_ideal,
                           is_huliu_subalgebra)
from leibkit.leibniz import (LeibnizAlgebra, annihilator, classify_simplicity, ideal_closure,
                             is_ideal, multiplication_operators)
from leibkit.linalg import _P, Matrix, Subspace, full_space, inverse, span
from leibkit.xigroup import (LinearXiGroup, NoConstraints, OrthogonalConstraints,
                             SpecialLinearConstraints, UnipotentConstraints,
                             mat_square_zero_extension, regular_realization, tangent_space,
                             verify_tangent_huliu)
from leibkit import modules
from leibkit.modules import (
    NORTON_BUDGET,
    _spin_full_mod_p,
    OperatorModule,
    closure,
    equivariant_projection_kernel,
    is_invariant,
    norton_irreducible,
    quotient,
    restriction,
)

import oracles


def test_closure_reaches_fixpoint():
    shift = Matrix([[0, 0, 0], [1, 0, 0], [0, 1, 0]])  # e1 -> e2 -> e3
    got = closure([shift], span([(1, 0, 0)], 3))
    assert got == full_space(3)
    assert closure([shift], span([(0, 0, 1)], 3)) == span([(0, 0, 1)], 3)


_SHIFT3 = Matrix([[0, 0, 0], [1, 0, 0], [0, 1, 0]])


class _Unread:
    """Operator columns that fail the test when any of them is read."""

    def __iter__(self):
        raise AssertionError("a column was read")

    def __getitem__(self, j):
        raise AssertionError("a column was read")


def test_a_whole_space_target_holds_every_image_without_reading_a_column():
    whole, line = full_space(3), span([(1, 2, 0)], 3)
    assert modules._maps_into(_Unread(), line, whole)
    assert modules._maps_into((_Unread(), _Unread()), whole, whole)
    with pytest.raises(AssertionError, match="a column was read"):
        modules._maps_into((_Unread(),), whole, line)


def test_closure_rejects_operators_of_another_size():
    with pytest.raises(ValueError, match="not 2x2"):
        closure([_SHIFT3], span([(1, 0)], 2))


def test_a_module_rejects_operators_of_another_size():
    # Norton's probe: the module is built before any element is drawn
    with pytest.raises(ValueError, match="not 2x2"):
        norton_irreducible(OperatorModule(2, (_SHIFT3,)), random.Random(0))


_ZERO3 = HuLiuAlgebra(zero_table(3), zero_table(3))
_MOD3 = OperatorModule(3, (_SHIFT3,))
_AMBIENT_CHECKS = {
    "is_ideal": lambda s: is_ideal(_ZERO3.leibniz, s),
    "ideal_closure": lambda s: ideal_closure(_ZERO3.leibniz, s),
    "is_huliu_ideal": lambda s: is_huliu_ideal(_ZERO3, s),
    "is_huliu_subalgebra": lambda s: is_huliu_subalgebra(_ZERO3, s),
    "Subspace.sum": lambda s: s.sum(full_space(3)),
    "restriction": lambda s: restriction(_MOD3, s),
    "quotient": lambda s: quotient(_MOD3, s),
    "equivariant_projection_kernel": lambda s: equivariant_projection_kernel(_MOD3, s),
}


@pytest.mark.parametrize("name", _AMBIENT_CHECKS)
def test_a_subspace_of_another_space_is_refused_with_one_message(name):
    # a subspace of Q^2 given with a dim-3 algebra, module or subspace
    with pytest.raises(ValueError) as e:
        _AMBIENT_CHECKS[name](span([(0, 1)], 2))
    assert str(e.value) == "ambient mismatch: 2 vs 3"


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
    # counted per field: the mod-p pre-pass and the rational spin each apply
    # every nonzero operator once to each vector that adds a pivot
    calls, total = Counter(), Counter()
    apply = modules._apply

    def counting(cols, v, p):
        calls[p] += 1
        return apply(cols, v, p)

    monkeypatch.setattr(modules, "_apply", counting)
    rng = random.Random(12)
    for _ in range(60):
        d = rng.randint(1, 6)
        ops = _sparse_ops(rng, d, rng.randint(1, 4), 0.2) + [Matrix.zero(d, d)]
        calls.clear()
        got = closure(ops, span([_sparse_ops(rng, d, 1, 0.5)[0].row(0)], d))
        bound = sum(not t.is_zero() for t in ops) * got.dim
        assert calls[0] <= bound and calls[_P] <= bound
        total.update(calls)
    assert total[0] > 0 and total[_P] > 0


def _with_entry(m, i, j, x):
    rows = [list(r) for r in m.data]
    rows[i][j] = x
    return Matrix(rows)


def test_mod_p_spin_proves_only_full_spins():
    # Operators scaled by p vanish mod p, so the mod-p spin is proper where
    # the rational one may be full and the rational spin must run; an entry
    # with denominator p has no reduction, so the pre-pass is skipped.
    rng = random.Random(17)
    seen = Counter()
    for _ in range(300):
        d = rng.randint(1, 9)
        ops = _sparse_ops(rng, d, rng.randint(1, 3), rng.choice((0.1, 0.25, 0.5)))
        kind = rng.choice(("integral", "factor p", "denominator p"))
        if kind == "factor p":
            ops = [t.scale(_P) if rng.random() < 0.7 else t for t in ops]
        elif kind == "denominator p":
            ops[0] = _with_entry(ops[0], rng.randrange(d), rng.randrange(d), Fraction(1, _P))
        s = span(_sparse_ops(rng, d, 1, 0.4)[0].data[:rng.randint(1, d)], d)
        want = oracles.naive_closure(ops, s)
        proved = _spin_full_mod_p([t for t in ops if not t.is_zero()], s)
        assert closure(ops, s) == want
        assert not proved or want.dim == d
        if kind == "denominator p":
            assert not proved
        seen[kind, proved, want.dim == d] += 1
    assert seen["integral", True, True] > 20
    assert seen["factor p", False, True] > 5
    assert seen["denominator p", False, True] > 5
    # the pre-pass proves nothing here, and the rational spin is full
    shift = Matrix([[1 if i == j + 1 else 0 for j in range(4)] for i in range(4)]).scale(_P)
    e0 = span([(1, 0, 0, 0)], 4)
    assert not _spin_full_mod_p([shift], e0)
    assert closure([shift], e0) == full_space(4) == oracles.naive_closure([shift], e0)


def _norton_modules():
    rng = random.Random(19)
    for _ in range(60):
        d = rng.randint(2, 7)
        ops = _sparse_ops(rng, d, rng.randint(1, 3), rng.choice((0.2, 0.4, 0.7)))
        if rng.random() < 0.3:
            # block upper triangular: reducible
            k = rng.randint(1, d - 1)
            ops = [Matrix([[x if i < k or j >= k else 0 for j, x in enumerate(r)]
                           for i, r in enumerate(t.data)]) for t in ops]
        if rng.random() < 0.2:
            ops[0] = ops[0].scale(_P)
        if rng.random() < 0.1:
            ops[-1] = _with_entry(ops[-1], 0, d - 1, Fraction(2, _P))
        yield OperatorModule(d, tuple(ops)), 16
    for _ in range(30):
        # copies equal up to a nonzero scalar, which the spins drop and the
        # draws keep; a copy scaled by p or 1/p vanishes or has no reduction mod p
        d = rng.randint(2, 6)
        ops = _sparse_ops(rng, d, rng.randint(1, 3), rng.choice((0.2, 0.4, 0.7)))
        ops += [t.scale(rng.choice((-1, 2, Fraction(-1, 3), _P, Fraction(1, _P))))
                for t in ops if rng.random() < 0.7] + [-ops[0]]
        rng.shuffle(ops)
        yield OperatorModule(d, tuple(ops)), 16
    for p in (5, 7):
        alg = LeibnizAlgebra(oracles.rotation_bracket(p))
        mod = OperatorModule(alg.dim, multiplication_operators(alg))
        ann = annihilator(alg)
        for m in (mod, restriction(mod, ann), quotient(mod, ann).mod):
            yield m, NORTON_BUDGET
    # the Hu-Liu classifier's modules, whose square adjoints repeat the
    # Leibniz operators up to sign
    for h in _huliu_pairs():
        mod, ann = _huliu_module(h), annihilator(h.leibniz)
        for m in (restriction(mod, ann), quotient(mod, ann).mod):
            yield m, NORTON_BUDGET
    # larger pairs, whose singular elements keep repeating the same kernel
    # lines; the dense reference is slow here, so the budget is small
    for h in (derive_huliu(mat_square_zero_extension(3)[0]), derive_huliu(make_block_upper(3, 3))):
        mod, ann = _huliu_module(h), annihilator(h.leibniz)
        for m in (restriction(mod, ann), quotient(mod, ann).mod):
            yield m, 8


def _huliu_pairs():
    return derive_huliu(make_block_upper(2, 2)), derive_huliu(mat_square_zero_extension(2)[0])


def _huliu_module(h):
    return OperatorModule(h.dim, multiplication_operators(h.leibniz) + adjoint_operators(h))


def test_norton_matches_the_rational_reference(monkeypatch):
    statuses = Counter()
    for i, (mod, budget) in enumerate(_norton_modules()):
        for budget in (4, budget):
            monkeypatch.setattr(modules, "NORTON_BUDGET", budget)
            rng, ref_rng = random.Random(i), random.Random(i)
            got = norton_irreducible(mod, rng)
            assert got == oracles.rational_norton(mod, ref_rng, budget)
            assert rng.getstate() == ref_rng.getstate()
            statuses[got[0]] += 1
    assert set(statuses) == {"irreducible", "reducible", "unknown"}


def test_norton_spins_each_kernel_line_once(monkeypatch):
    # the block_upper(2,2) pair's annihilator module: most singular elements
    # have kernels of dim 2-4 made of the same few lines
    h = _huliu_pairs()[0]
    mod = restriction(_huliu_module(h), annihilator(h.leibniz))
    lines = []
    spin = modules.closure

    def recording(ops, s):
        lines.append(s)
        return spin(ops, s)

    monkeypatch.setattr(modules, "closure", recording)
    rng, ref_rng = random.Random(0), random.Random(0)
    got = norton_irreducible(mod, rng)
    assert len(lines) == len(set(lines))
    assert got == oracles.rational_norton(mod, ref_rng, NORTON_BUDGET)
    assert rng.getstate() == ref_rng.getstate()


def _multiple(t, u):
    """Whether t and u are nonzero multiples of each other."""
    flat = [[x for r in m.data for x in r] for m in (t, u)]
    return span(flat, t.rows * t.cols).dim == 1


def test_distinct_operators_keep_the_first_of_each_multiple():
    rng = random.Random(23)
    for _ in range(100):
        d = rng.randint(1, 5)
        ops = [t for t in _sparse_ops(rng, d, 4, rng.choice((0.2, 0.5))) if not t.is_zero()]
        ops += [t.scale(rng.choice((-1, 3, Fraction(2, 5)))) for t in ops if rng.random() < 0.5]
        rng.shuffle(ops)
        want = [t for i, t in enumerate(ops) if not any(_multiple(t, u) for u in ops[:i])]
        assert modules._distinct(ops) == want


def _count_dense_reads(monkeypatch):
    """From here on, record the shape of each matrix whose dense rows are
    built, each subspace whose dense basis is built, each call of
    ``apply_table``, under every name a leibkit module binds it to, and the
    dense rows of each call of the coercing ``Matrix`` constructor."""
    built, bases, products, coerced = [], [], [], []
    data, basis, apply_table = Matrix.data, Subspace.basis, _tables.apply_table
    init = Matrix.__init__

    def counting(m):
        if m._d is None:
            built.append((m.rows, m.cols))
        return data.fget(m)

    def counting_basis(s):
        if s._b is None:
            bases.append(s)
        return basis.fget(s)

    def counting_product(*args):
        products.append(args)
        return apply_table(*args)

    def counting_init(m, rows):
        coerced.append(rows)
        init(m, rows)

    monkeypatch.setattr(Matrix, "data", property(counting))
    monkeypatch.setattr(Matrix, "__init__", counting_init)
    monkeypatch.setattr(Subspace, "basis", property(counting_basis))
    for name, module in list(sys.modules.items()):
        if name.startswith("leibkit") and getattr(module, "apply_table", None) is apply_table:
            monkeypatch.setattr(module, "apply_table", counting_product)
    return built, bases, products, coerced


def test_the_module_engine_builds_no_dense_rows(monkeypatch):
    # the classifiers build their matrices and subspaces from sparse rows or
    # columns and never ask them for dense rows, but for is_invariant, which
    # re-checks a returned certificate on its dense basis; the controls at
    # the end show the counts work
    built, bases, _, _ = _count_dense_reads(monkeypatch)
    assert classify_simplicity(LeibnizAlgebra(oracles.sl2_semidirect((8,)))).tag == "Simple"
    verdict = classify_huliu_simplicity(_huliu_pairs()[0])
    assert verdict.tag == "NotSimple"
    assert built == [] and len(bases) == 1 and bases[0] is verdict.certificate
    Matrix.identity(2).row(0)
    span([(1, 0)], 2).basis
    assert built == [(2, 2)] and len(bases) == 2


def test_the_closure_homomorphism_and_tangent_checks_read_products_sparse(monkeypatch):
    # on holding inputs these checks read every product through the sparse
    # table product: no dense matrix rows, no dense subspace basis and no
    # apply_table call; the controls at the end show the counts work
    g = make_block_upper(3, 3)
    h = derive_huliu(g).validate()
    phi = Matrix.identity(g.dim)
    r = mat_square_zero_extension(3)[1]
    group = LinearXiGroup(r, SpecialLinearConstraints(3))
    subs = (annihilator(h.leibniz), oracles.derived_ideal(h), full_space(g.dim))
    built, bases, products, _ = _count_dense_reads(monkeypatch)
    assert annihilator_abelian_check(h).holds
    for sub in subs:
        assert is_huliu_subalgebra(h, sub).holds
    assert check_huliu_homomorphism(h, h, phi).holds
    assert verify_linear_embedding(h, g, phi).holds
    assert verify_linear_embedding(h.leibniz, g, phi).holds
    t = tangent_space(group)
    assert t.subspace.dim == 8 + 9
    assert verify_tangent_huliu(t, r).holds
    assert fuzz._check_trial(g) == [] and fuzz._check_trial(r.graded) == []
    assert built == [] and bases == [] and products == []
    h.square_bracket(*full_space(g.dim).basis[:2])
    phi.col(0)
    assert len(products) == 1 and len(bases) == 1 and built == [(g.dim, g.dim)]


def test_the_xi_group_layer_builds_its_exact_matrices_from_their_nonzeros(monkeypatch):
    # realizations, the Mat(n) extension, the four families' Jacobians,
    # V1 and the tangent spaces are built and checked from sparse rows: no
    # dense matrix rows, no dense subspace basis and no coercing Matrix
    # call; the controls at the end show the counts work
    built, bases, _, coerced = _count_dense_reads(monkeypatch)
    g, r = mat_square_zero_extension(3)
    regular = regular_realization(g)
    v1 = span([[1, 2] + [0] * 7], 9)  # closed under the brackets with a pinned even part
    groups = [(family, odd) for family in (NoConstraints(), OrthogonalConstraints(3),
                                           SpecialLinearConstraints(3), UnipotentConstraints())
              for odd in (None, span([], 9))] + [(UnipotentConstraints(), v1)]
    dims = []
    for realization in (r, regular):
        for family, odd in groups:
            t = tangent_space(LinearXiGroup(realization, family, odd))
            assert verify_tangent_huliu(t, r).holds
            dims.append(t.subspace.dim)
    assert dims == [18, 9, 12, 3, 17, 8, 9, 0, 1] * 2
    assert built == [] and bases == [] and coerced == []
    Matrix([[1, 2]])
    Matrix.identity(2).row(0)
    v1.basis
    assert coerced == [[[1, 2]]] and built == [(2, 2)] and bases == [v1]


def test_spin_and_restriction_quotient():
    d = Matrix([[1, 0], [0, 2]])
    mod = OperatorModule(2, (d,))
    assert closure(mod.operators, span([(1, 0)], 2)) == span([(1, 0)], 2)
    sub = span([(1, 0)], 2)
    res = restriction(mod, sub)
    assert res.operators[0] == Matrix([[1]])
    quo = quotient(mod, sub)
    assert quo.mod.operators[0] == Matrix([[2]])
    lifted = dict(zip(quo.free, (1,)))  # quotient coordinates sit at the positions quo.free
    assert tuple(lifted.get(j, 0) for j in range(2)) == (0, 1)


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
            def lift(coords):  # quotient coordinates sit at the positions quo.free
                at = dict(zip(quo.free, coords))
                return [at.get(j, 0) for j in range(d)]

            for t, qt in zip(ops, quo.mod.operators):
                for f in range(quo.dim):
                    e_f = [int(i == f) for i in range(quo.dim)]
                    diff = [x - y for x, y in zip(t.matvec(lift(e_f)), lift(qt.col(f)))]
                    assert len(oracles.dense_rref([*s.basis, diff])[1]) == s.dim


def test_restriction_rejects_noninvariant():
    rot = Matrix([[0, -1], [1, 0]])
    with pytest.raises(ValueError):
        restriction(OperatorModule(2, (rot,)), span([(1, 0)], 2))


def test_zero_operators_restrict_and_pass_to_the_quotient_as_zero_unapplied():
    rng = random.Random(31)
    for _ in range(40):
        d = rng.randint(1, 6)
        ops = [t for t in _sparse_ops(rng, d, rng.randint(0, 3), 0.4) if not t.is_zero()]
        zeros = [Matrix.zero(d, d) for _ in range(rng.randint(1, 3))]
        mixed = list(ops)
        for z in zeros:
            mixed.insert(rng.randrange(len(mixed) + 1), z)
        s = closure(ops, span([_sparse_ops(rng, d, 1, 0.5)[0].row(0)], d))
        for got, want in ((restriction(OperatorModule(d, tuple(mixed)), s),
                           restriction(OperatorModule(d, tuple(ops)), s)),
                          (quotient(OperatorModule(d, tuple(mixed)), s).mod,
                           quotient(OperatorModule(d, tuple(ops)), s).mod)):
            k = want.dim
            rest = iter(want.operators)
            assert got.operators == tuple(Matrix.zero(k, k) if any(t is z for z in zeros)
                                          else next(rest) for t in mixed)
        # the zero operators' columns were never read
        assert all(z._c is None for z in zeros)
    rot, z = Matrix([[0, -1], [1, 0]]), Matrix.zero(2, 2)
    with pytest.raises(ValueError, match="not invariant"):
        restriction(OperatorModule(2, (z, rot, z)), span([(1, 0)], 2))


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


def test_norton_unknown_for_rotation(monkeypatch):
    # the algebra generated by a rotation is a field: no nullity-one elements,
    # so the method must answer unknown rather than guess
    monkeypatch.setattr(modules, "NORTON_BUDGET", 16)
    mod = OperatorModule(2, (Matrix([[0, -1], [1, 0]]),))
    status, wit = norton_irreducible(mod, random.Random(0))
    assert status == "unknown" and wit is None
    assert oracles.invariant_lines_dim2(list(mod.operators)) == []


def test_norton_zero_budget_unknown(monkeypatch):
    monkeypatch.setattr(modules, "NORTON_BUDGET", 0)
    ops = (Matrix([[0, 1], [0, 0]]), Matrix([[0, 0], [1, 0]]))
    status, _ = norton_irreducible(OperatorModule(2, ops), random.Random(0))
    assert status == "unknown"


def test_norton_takes_no_budget():
    # the budget is NORTON_BUDGET; the refusal comes before the module is read
    with pytest.raises(TypeError):
        norton_irreducible(OperatorModule(0, ()), random.Random(0), budget=8)


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


def _split_module(rng):
    """A direct sum of blocks in a random basis, and the image of some of
    them: repeated isomorphic blocks, zero operators and one-dimensional
    blocks make the invariant complement not unique."""
    sizes = [rng.randint(1, 3) for _ in range(rng.randint(2, 4))]
    count = rng.randint(1, 3)
    blocks = []
    for s in sizes:
        same = [b for b in blocks if b[0].rows == s]
        if same and rng.random() < 0.5:
            blocks.append(same[0])
        elif rng.random() < 0.25:
            blocks.append([Matrix.zero(s, s)] * count)
        else:
            blocks.append(_sparse_ops(rng, s, count, 0.5))
    ops = [functools.reduce(_block_diagonal, [b[c] for b in blocks]) for c in range(count)]
    d = sum(sizes)
    ops += [Matrix.zero(d, d)] * rng.randint(0, 1)
    u, uinv = _random_invertible(rng, d)
    starts = [sum(sizes[:i]) for i in range(len(sizes))]
    chosen = rng.sample(range(len(sizes)), rng.randint(1, len(sizes) - 1))
    sub = span([u.col(starts[i] + j) for i in chosen for j in range(sizes[i])], d)
    return OperatorModule(d, tuple(u @ t @ uinv for t in ops)), sub


def _non_split_module(rng):
    """A block-triangular module [[A, B], [0, A]] in a random basis, with
    the span of the first block.  It splits only if B = A X - X A for some
    X, so a nonzero B with A scalar, or a B of nonzero trace, makes it
    non-split."""
    s = rng.randint(1, 3)
    a = Matrix.identity(s).scale(rng.randint(-2, 2)) if rng.random() < 0.5 \
        else _sparse_ops(rng, s, 1, 0.5)[0]
    b = _sparse_ops(rng, s, 1, 0.6)[0]
    ops = [Matrix([list(ra) + list(rb) for ra, rb in zip(a.data, b.data)]
                  + [[0] * s + list(r) for r in a.data])]
    if rng.random() < 0.5:
        ops.append(_block_diagonal(a, a))
    u, uinv = _random_invertible(rng, 2 * s)
    sub = span([u.col(j) for j in range(s)], 2 * s)
    return OperatorModule(2 * s, tuple(u @ t @ uinv for t in ops)), sub


def test_the_section_system_matches_the_projection_system(monkeypatch):
    # the complement is found from a module section V/W -> V, k (d - k)
    # unknowns; the reference solves for the projection, k d unknowns, and
    # gives the same subspace even where the complement is not unique
    unknowns = []
    solve_rows = modules._solve_rows

    def counting(rows, n):
        unknowns.append(n)
        return solve_rows(rows, n)

    monkeypatch.setattr(modules, "_solve_rows", counting)
    rng = random.Random(27)
    cases = [_split_module(rng) for _ in range(60)] + [_non_split_module(rng) for _ in range(40)]
    for n in range(2, 6):
        jordan = Matrix([[1 if j in (i, i + 1) else 0 for j in range(n)] for i in range(n)])
        cases += [(OperatorModule(n, (jordan,)), span([[int(j == i) for j in range(n)]
                                                       for i in range(k)], n))
                  for k in range(1, n)]
    results = Counter()
    for mod, sub in cases:
        unknowns.clear()
        got = equivariant_projection_kernel(mod, sub)
        assert unknowns == [sub.dim * (mod.dim - sub.dim)]
        assert got == oracles.dense_projection_kernel(mod, sub)
        results[got is None] += 1
        if got is not None:
            assert is_invariant(mod.operators, got)
            assert got.dim + sub.dim == mod.dim and sub.sum(got) == full_space(mod.dim)
    assert results[True] >= 20 and results[False] >= 40
    for n in range(1, 17):
        alg = LeibnizAlgebra(oracles.sl2_semidirect((n,)))
        mod, ann = OperatorModule(alg.dim, multiplication_operators(alg)), annihilator(alg)
        unknowns.clear()
        assert equivariant_projection_kernel(mod, ann) is None
        assert unknowns == [(n + 1) * 3]
        assert oracles.dense_system_projection_kernel(mod, ann) is None
        if n <= 6:
            # the entrywise dense reference grows as d^5: it stops at dim 10
            assert oracles.dense_projection_kernel(mod, ann) is None


# fails the right Leibniz identity: validating it would raise a different error
_NOT_LEIBNIZ = table_from_entries(2, [(0, 0, 1, 1), (1, 0, 0, 1)])


@pytest.mark.parametrize("classify", [
    lambda **kw: classify_simplicity(LeibnizAlgebra(_NOT_LEIBNIZ), **kw),
    lambda **kw: classify_huliu_simplicity(HuLiuAlgebra(_NOT_LEIBNIZ, zero_table(2)), **kw),
], ids=["leibniz", "huliu"])
def test_the_classifiers_take_no_budget(classify):
    # Norton runs at NORTON_BUDGET; the refusal comes before validation
    with pytest.raises(TypeError):
        classify(budget=NORTON_BUDGET)


def test_norton_refuses_an_empty_module():
    with pytest.raises(ValueError) as exc:
        norton_irreducible(OperatorModule(0, ()), random.Random(0))
    assert str(exc.value) == "empty module"


@pytest.mark.parametrize("sub", [span([], 3), full_space(3)], ids=["zero", "full"])
def test_complement_question_needs_a_proper_nonzero_subspace(sub):
    with pytest.raises(ValueError) as exc:
        equivariant_projection_kernel(_MOD3, sub)
    assert str(exc.value) == "complement question needs a proper nonzero subspace"


def test_a_subspace_that_is_not_invariant_has_no_equivariant_projection():
    rotation = OperatorModule(2, (Matrix([[0, -1], [1, 0]]),))
    line = span([(1, 0)], 2)
    assert not is_invariant(rotation.operators, line)
    assert equivariant_projection_kernel(rotation, line) is None

import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from leibkit import xigroup
from leibkit.algebras import Algebra, GradedAlgebra, dual_numbers, make_block_upper
from leibkit._tables import table_entries, table_from_entries
from leibkit.linalg import Matrix, full_space, kernel, span
from leibkit.report import ok
from leibkit.xigroup import (
    MAX_SAMPLE_FLOATS,
    _UNIT_RESIDUAL,
    ConstraintFamily,
    LinearXiGroup,
    MatrixRealization,
    NoConstraints,
    NotAUnitError,
    OrthogonalConstraints,
    SamplingError,
    SpecialLinearConstraints,
    TangentSpace,
    UnipotentConstraints,
    check_sample_count,
    check_xi_group,
    constraint_family,
    exp_curve_check,
    expm,
    _unit_inverses,
    invert_unit,
    mat_square_zero_extension,
    regular_realization,
    tangent_space,
    verify_group_closure,
    verify_tangent_huliu,
    xi,
)

from oracles import (
    check_xi_group_full_norms,
    conjugation_residual,
    dense,
    entrywise_nonzeros,
    entrywise_realize,
    exp_curve_through_realization,
    first_nonmultiplicative_pair,
    fitted_log_slope,
    group_closure_full_norms,
    group_closure_loop,
    line_curve_residuals,
    svd_norm,
    tangent_huliu_reference,
    unit_inverse,
    xi_group_check_loop,
)

G2, R2 = mat_square_zero_extension(2)
G3, R3 = mat_square_zero_extension(3)


def orth_group(n, odd_subspace=None):
    r = R2 if n == 2 else R3
    return LinearXiGroup(r, OrthogonalConstraints(n), odd_subspace)


def skew_dim_oracle(n):
    """dim{X : X^T + X = 0} by solving the linear system from scratch."""
    rows = []
    for a in range(n):
        for b in range(n):
            row = [Fraction(0)] * (n * n)
            row[a * n + b] += 1
            row[b * n + a] += 1
            rows.append(row)
    return kernel(Matrix(rows)).dim


def test_realization_verified_multiplicative():
    rng = random.Random(0)
    g = G2
    for _ in range(10):
        x = tuple(Fraction(rng.randint(-2, 2)) for _ in range(g.dim))
        y = tuple(Fraction(rng.randint(-2, 2)) for _ in range(g.dim))
        assert R2.realize(x) @ R2.realize(y) == R2.realize(g.multiply(x, y))


@pytest.mark.parametrize("name", ["mat2", "mat3", "block-upper-2-1"])
def test_nonzero_view_is_invisible_and_realize_sums_the_embedding(name):
    r = {"mat2": lambda: R2, "mat3": lambda: R3,
         "block-upper-2-1": lambda: regular_realization(make_block_upper(2, 1))}[name]()
    rng = random.Random(5)
    xs = [tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(r.dim))
          for _ in range(8)]
    for x in xs:
        assert r.realize(x).data == entrywise_realize(r.embed, x)
    for m in r.embed + (r.realize(xs[0]),):
        fresh = Matrix(m.data)
        before = (fresh == m, m == fresh, hash(fresh), repr(fresh))
        assert before[:3] == (True, True, hash(m))
        assert fresh.nonzeros == entrywise_nonzeros(m.data)
        assert (fresh == m, m == fresh, hash(fresh), repr(fresh)) == before
        for attr in ("data", "rows", "cols", "nonzeros", "_nz", "other"):
            with pytest.raises(AttributeError):
                setattr(fresh, attr, None)
        assert fresh.nonzeros == entrywise_nonzeros(m.data)


def test_realization_rejects_non_multiplicative(ut_model):
    bad = [Matrix.identity(2) for _ in range(3)]
    with pytest.raises(ValueError, match=r"basis pair \(0,1\)"):
        MatrixRealization(ut_model, bad)


def test_realization_names_first_nonmultiplicative_pair(ut_model):
    rng = random.Random(5)
    realizations = [regular_realization(ut_model),
                    regular_realization(make_block_upper(2, 1)), R2]
    for _ in range(60):
        r = rng.choice(realizations)
        rows = [[list(row) for row in m.data] for m in r.embed]
        i, a, b = rng.randrange(r.dim), rng.randrange(r.n), rng.randrange(r.n)
        rows[i][a][b] += rng.choice((-1, 1, 2))
        embed = [Matrix(m) for m in rows]
        pair = first_nonmultiplicative_pair(r.graded.algebra.table, embed)
        try:
            MatrixRealization(r.graded, embed)
        except ValueError as e:
            msg = str(e)
        else:
            msg = None
        if pair is None:
            assert msg is None or "not multiplicative" not in msg
        else:
            assert msg == "embedding not multiplicative at basis pair ({},{})".format(*pair)


def test_realization_requires_unit():
    nil = Algebra(table_from_entries(2, [(0, 0, 1, 1)]))  # x^2 = y, no unit
    g = GradedAlgebra(nil, even=[0, 1])
    with pytest.raises(ValueError):
        regular_realization(g)


def test_invert_unit_examples(ut_model):
    r = regular_realization(ut_model)
    assert invert_unit(r, (1, 1, 0)) == (1, 1, 0)           # the unit itself
    assert invert_unit(r, (1, 1, 1)) == (1, 1, -1)          # [[1,1],[0,1]]^-1
    with pytest.raises(NotAUnitError):
        invert_unit(r, (0, 0, 1))                           # even part zero


def test_invert_unit_two_sided_random():
    # invert_unit trusts its formula; this test multiplies back
    rng = random.Random(4)
    for g, r in ((G2, R2), (G3, R3)):
        unit = g.algebra.unit
        found = 0
        while found < 10:
            x = tuple(unit[i] + Fraction(rng.randint(-2, 2), rng.randint(1, 3))
                      for i in range(g.dim))
            try:
                inv = invert_unit(r, x)
            except NotAUnitError:
                continue
            found += 1
            assert g.multiply(x, inv) == unit and g.multiply(inv, x) == unit


def test_invert_unit_reads_floats_exactly(ut_model):
    r = regular_realization(ut_model)
    x = (1.0, 0.5, 2.0)  # [[1, 2], [0, 1/2]], each float the rational it represents
    assert xi(ut_model, x) == (1, Fraction(1, 2), 0)
    inv = invert_unit(r, x)
    assert inv == (1, 2, -4) and all(isinstance(c, Fraction) for c in inv)
    assert invert_unit(r, map(Fraction, x)) == inv
    assert invert_unit(r, xi(ut_model, x)) == xi(ut_model, inv)
    with pytest.raises(NotAUnitError):
        invert_unit(r, (0.0, 0.0, 1.0))                     # even part singular


@pytest.mark.parametrize("form", [
    tuple,
    lambda x: list(map(Fraction, x)),
    lambda x: map(Fraction, x),
    np.array,
    lambda x: [str(Fraction(c)) for c in x],
], ids=["float-tuple", "fraction-list", "iterator", "ndarray", "strings"])
def test_xi_and_invert_unit_read_input_as_vec_does(ut_model, form):
    # a float array included: no input form selects a float path
    r = regular_realization(ut_model)
    x = (1.0, 0.5, 2.0)
    even, inv = xi(ut_model, form(x)), invert_unit(r, form(x))
    assert even == (1, Fraction(1, 2), 0) and inv == (1, 2, -4)
    assert type(even) is tuple and type(inv) is tuple
    assert all(type(c) is Fraction for c in even + inv)


@pytest.mark.parametrize("length", [0, 4, 7, 9])
def test_exact_maps_refuse_a_vector_of_another_length_than_dim(length):
    # Mat(2) extended by itself has dim 8; a 9-entry vector ends in a nonzero
    g, r = mat_square_zero_extension(2)
    x = (1,) * length
    calls = [lambda: xi(g, x), lambda: g.even_part(x), lambda: g.odd_part(x),
             lambda: r.realize(x), lambda: invert_unit(r, x)]
    for call in calls:
        with pytest.raises(ValueError, match=f"vector length {length} != dim 8"):
            call()
    # a 9-entry vector ending in 0 is refused too, not truncated
    with pytest.raises(ValueError, match="vector length 9 != dim 8"):
        r.realize((1,) * 8 + (0,))


_UNIT_MODELS = {
    "mat2-block": lambda: R2,
    "mat2-regular": lambda: regular_realization(G2),
    "mat3-block": lambda: R3,
    "block-upper-2-2": lambda: regular_realization(make_block_upper(2, 2)),
    "dual-numbers": lambda: regular_realization(dual_numbers()),
}


@pytest.mark.parametrize("name", list(_UNIT_MODELS))
def test_xi_is_an_endomorphism_of_the_unit_group(name):
    # exactly: xi(xy) = xi(x) xi(y) and xi(x^-1) = xi(x)^-1; the float batch
    # inverse agrees with the exact one on the same (dyadic) units
    r = _UNIT_MODELS[name]()
    g, unit = r.graded, r.graded.algebra.unit
    rng = random.Random(6)
    units = []
    while len(units) < 6:
        x = tuple(unit[i] + Fraction(rng.randint(-4, 4), rng.choice((1, 2, 4)))
                  for i in range(g.dim))
        try:
            units.append((x, invert_unit(r, x)))
        except NotAUnitError:
            continue
    for x, inv in units:
        assert g.multiply(x, inv) == unit and g.multiply(inv, x) == unit
        assert invert_unit(r, xi(g, x)) == xi(g, inv)
    for (x, _), (y, _) in zip(units, units[1:]):
        assert xi(g, g.multiply(x, y)) == g.multiply(xi(g, x), xi(g, y))
    inv_f, resid = _unit_inverses(r, np.array([[float(c) for c in x] for x, _ in units]))
    assert np.all(resid <= _UNIT_RESIDUAL)
    assert np.allclose(inv_f, [[float(c) for c in inv] for _, inv in units],
                       rtol=1e-9, atol=1e-12)
    # an odd element is no unit, on both paths
    odd = tuple(Fraction(0 if i in g.even else 1) for i in range(g.dim))
    with pytest.raises(NotAUnitError):
        invert_unit(r, odd)
    assert _unit_inverses(r, np.array([[float(c) for c in odd]]))[1][0] > _UNIT_RESIDUAL


def test_unit_inverses_of_one_point():
    rng = np.random.default_rng(1)
    q, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    x = np.zeros(8)
    x[:4] = q.reshape(-1)
    x[4:] = rng.standard_normal(4)
    inv, resid = _unit_inverses(R2, x)
    assert resid <= _UNIT_RESIDUAL
    assert np.allclose(R2.multiply_f(x, inv), R2.np_unit, atol=1e-12)
    assert np.allclose(R2.multiply_f(inv, x), R2.np_unit, atol=1e-12)


def test_unit_inverses_on_a_stack():
    grp = LinearXiGroup(R3, NoConstraints())
    x = grp.sample(np.random.default_rng(2), 7)
    inv, resid = _unit_inverses(R3, x)
    assert inv.shape == x.shape and resid.shape == (7,)
    assert np.all(resid <= _UNIT_RESIDUAL)
    for row, row_inv in zip(x, inv):
        assert np.allclose(R3.multiply_f(row, row_inv), R3.np_unit, atol=1e-12)
        assert np.allclose(R3.multiply_f(row_inv, row), R3.np_unit, atol=1e-12)
        assert np.allclose(_unit_inverses(R3, row[None])[0][0], row_inv, atol=1e-12)


def test_unit_inverses_flag_the_one_non_unit_of_a_stack():
    x = np.tile(R2.np_unit, (3, 1))
    x[1, :4] = [1.0, 2.0, 2.0, 4.0]  # a singular even part
    inv, resid = _unit_inverses(R2, x)
    assert resid[1] > _UNIT_RESIDUAL and np.all(inv[1] == 0.0)
    assert np.all(resid[[0, 2]] <= _UNIT_RESIDUAL)
    assert np.allclose(inv[[0, 2]], x[[0, 2]])


def test_unit_inverses_of_an_invertible_stack_take_no_determinant(monkeypatch):
    # one solve factors each even block; slogdet runs only after it fails
    signs = []
    slogdet = np.linalg.slogdet
    monkeypatch.setattr(np.linalg, "slogdet", lambda m: (signs.append(m.shape), slogdet(m))[1])
    x = LinearXiGroup(R3, NoConstraints()).sample(np.random.default_rng(3), 9)
    inv, resid = _unit_inverses(R3, x)
    assert signs == [] and np.all(resid <= _UNIT_RESIDUAL)
    singular = np.tile(R2.np_unit, (3, 1))
    singular[1, :4] = [1.0, 2.0, 2.0, 4.0]
    assert _unit_inverses(R2, singular)[1][1] == np.inf and signs == [(3, 4, 4)]


def test_float_products_and_norms_broadcast_over_leading_axes():
    rng = np.random.default_rng(7)
    x, y = rng.standard_normal((2, 3, 4, 8))
    prod, norms, mats = R2.multiply_f(x, y), R2.op_norm(x), R2.realize_f(x)
    assert prod.shape == (3, 4, 8) and norms.shape == (3, 4) and mats.shape == (3, 4, 4, 4)
    for a in range(3):
        for b in range(4):
            assert np.allclose(prod[a, b], np.einsum("i,j,ijk->k", x[a, b], y[a, b], R2.np_tensor))
            assert np.allclose(mats[a, b], np.einsum("i,ijk->jk", x[a, b], R2.np_embed))
            # the spectral norm, not the (larger) Frobenius norm
            assert np.isclose(norms[a, b], np.linalg.svd(mats[a, b], compute_uv=False)[0],
                              rtol=1e-13, atol=0.0)
    assert np.allclose(R2.multiply_f(x, y[0, 0]),
                       R2.multiply_f(x, np.broadcast_to(y[0, 0], x.shape)))


@pytest.mark.parametrize("r", [R2, regular_realization(G2)], ids=["block 4x4", "regular 8x8"])
def test_op_norm_is_the_svd_norm_on_zero_huge_and_tiny_rows_past_one_block(r):
    # entries near 1e200 overflow an unscaled Gram matrix, near 1e-200 they underflow it
    count = xigroup._GRAM_BLOCK + 7
    x = np.random.default_rng(8).standard_normal((count, r.dim))
    for start in (0, xigroup._GRAM_BLOCK - 2):
        x[start] = 0.0
        x[start + 1:start + 3] *= 1e200
        x[start + 3:start + 5] *= 1e-200
    norms = r.op_norm(x)
    assert norms.shape == (count,) and norms[0] == norms[xigroup._GRAM_BLOCK - 2] == 0.0
    svd = np.linalg.svd(r.realize_f(x), compute_uv=False)[:, 0]
    assert np.allclose(norms, svd, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("r", [R2, regular_realization(G2)], ids=["block 4x4", "regular 8x8"])
def test_norm_bounds_hold_the_op_norm_on_zero_huge_and_tiny_rows_past_one_block(r):
    count = xigroup._GRAM_BLOCK + 7
    x = np.random.default_rng(9).standard_normal((count, r.dim))
    for start in (0, xigroup._GRAM_BLOCK - 2):
        x[start] = 0.0
        x[start + 1:start + 3] *= 1e200
        x[start + 3:start + 5] *= 1e-200
    lo, hi = r.norm_bounds(x)
    norms = r.op_norm(x)
    assert lo.shape == hi.shape == (count,)
    assert np.all(lo <= norms) and np.all(norms <= hi)
    for zero in (0, xigroup._GRAM_BLOCK - 2):
        assert lo[zero] == hi[zero] == 0.0
    # within a factor sqrt(n): the trace is at least the top eigenvalue, and
    # the largest absolute row sum at most sqrt(n) times it
    assert np.all(hi <= np.sqrt(r.n) * norms * (1 + 1e-9))
    assert np.all(lo >= norms / np.sqrt(r.n) * (1 - 1e-9))
    one_lo, one_hi = r.norm_bounds(x[5])
    assert (one_lo, one_hi) == (lo[5], hi[5])
    for bad in (float("nan"), float("inf"), -float("inf")):
        x[count - 1, 2] = bad
        with np.errstate(invalid="ignore"), pytest.raises(np.linalg.LinAlgError):
            r.norm_bounds(x)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")],
                         ids=["nan", "inf", "-inf"])
def test_op_norm_raises_on_a_row_with_an_entry_that_is_not_finite(bad):
    x = np.ones((3, R2.dim))
    x[1, 2] = bad
    with np.errstate(invalid="ignore"), pytest.raises(np.linalg.LinAlgError):
        R2.op_norm(x)


def test_xi_projection(ut_model):
    assert xi(ut_model, (1, 2, 0)) == (1, 2, 0)    # purely even fixed
    assert xi(ut_model, (0, 0, 5)) == (0, 0, 0)    # purely odd killed
    assert xi(ut_model, (1, 1, 1)) == (1, 1, 0)    # E11+E22+E12 -> E11+E22


@pytest.mark.parametrize("realize", [lambda ut: R2, lambda ut: R3, regular_realization],
                         ids=["mat2", "mat3", "upper-triangular"])
def test_xi_laws_on_exact_units(ut_model, realize):
    r = realize(ut_model)
    g, rng = r.graded, random.Random(5)
    unit = g.algebra.unit

    def random_unit():
        while True:
            x = tuple(u + Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for u in unit)
            try:
                return x, invert_unit(r, x)
            except NotAUnitError:
                continue

    assert xi(g, unit) == unit
    for _ in range(12):
        (x, x_inv), (y, _) = random_unit(), random_unit()
        assert xi(g, g.multiply(x, y)) == g.multiply(xi(g, x), xi(g, y))
        assert xi(g, xi(g, x)) == xi(g, x)
        assert invert_unit(r, xi(g, x)) == xi(g, x_inv)


def test_check_xi_group_full_unit_group():
    g = LinearXiGroup(R2, NoConstraints())
    rep = check_xi_group(g, samples=100, seed=0)
    assert rep.holds and rep.worst_residual <= g.tolerance


def test_check_xi_group_orthogonal():
    rep = check_xi_group(orth_group(2), samples=200, seed=0)
    assert rep.holds and rep.worst_residual <= 1e-12


def test_check_xi_group_violation_witness():
    v1 = span([(1, 0, 0, 0)], 4)  # a single odd coordinate, not conjugation-stable
    g = orth_group(2, v1)
    rep = check_xi_group(g, samples=50, seed=0)
    assert not rep.holds
    assert rep.witness is not None and rep.witness[2] > g.tolerance


@pytest.mark.parametrize("samples", [0, -3])
def test_check_xi_group_needs_a_sample(samples):
    with pytest.raises(ValueError):
        check_xi_group(orth_group(2), samples=samples)


@pytest.mark.parametrize("samples", [0, -3])
def test_sampled_checks_need_a_sample(samples):
    with pytest.raises(ValueError, match="at least one sample"):
        verify_group_closure(orth_group(2), samples=samples)


@pytest.mark.parametrize("check", [check_xi_group, verify_group_closure])
def test_sampled_checks_refuse_a_count_above_the_bound_before_drawing(check):
    grp = orth_group(3)
    # numpy counts that would wrap in samples x (dim^2 + 16 dim) at dim 18
    for samples in (10 ** 12, np.int64(2 ** 62), np.uint64(2 ** 63 + 1)):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="above the limit"):
                check(grp, samples=samples)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000


@pytest.mark.parametrize("samples", [True, False, 2.5, 3.0, "4", None], ids=repr)
@pytest.mark.parametrize("check", [check_xi_group, verify_group_closure])
def test_sampled_checks_refuse_a_count_that_is_not_an_integer(check, samples):
    # refused before anything is drawn, not by numpy with a TypeError
    with pytest.raises(ValueError, match="needs an integer sample count"):
        check(orth_group(2), samples=samples)


@pytest.mark.parametrize("check", [check_xi_group, verify_group_closure])
def test_sampled_checks_take_a_numpy_integer_count(check):
    assert check(orth_group(2), samples=np.int64(5)).holds
    with pytest.raises(ValueError, match="at least one sample"):
        check(orth_group(2), samples=np.int64(0))


def test_sample_bound_admits_the_counts_in_use():
    most = MAX_SAMPLE_FLOATS // (18 ** 2 + 16 * 18)  # the Mat(3) extension
    assert most >= 1000  # the largest count run on it, by the checks' default
    check_sample_count("check", most, 18)
    with pytest.raises(ValueError, match="above the limit"):
        check_sample_count("check", most + 1, 18)


def _sampled_peak(check, grp, samples):
    tracemalloc.start()
    try:
        check(grp, samples=samples)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sample_bound_admits_a_flat_peak_across_dims():
    """The arrays of a sampled check grow with dim^2 (products, norms) and
    with dim (even block, residuals), so the bound weighs both."""
    one = GradedAlgebra(Algebra([[[1]]], unit=[1]), [0])
    dual = GradedAlgebra(Algebra([[[1, 0], [0, 1]], [[0, 1], [0, 0]]], unit=[1, 0]), [0])
    groups = [LinearXiGroup(regular_realization(one), NoConstraints()),
              LinearXiGroup(regular_realization(dual), NoConstraints()), orth_group(3)]
    peaks = []
    for grp in groups:
        lo, hi = 1, MAX_SAMPLE_FLOATS  # the largest count check_sample_count admits
        while lo < hi:
            mid = (lo + hi + 1) // 2
            try:
                check_sample_count("check", mid, grp.graded.dim)
                lo = mid
            except ValueError:
                hi = mid - 1
        admitted = lo
        for check in (check_xi_group, verify_group_closure):
            check(grp, samples=4)  # first-call allocations are not the samples'
            peaks.append(_sampled_peak(check, grp, admitted // 16))
    assert [g.graded.dim for g in groups] == [1, 2, 18]
    assert max(peaks) <= 3 * min(peaks)


def test_curve_check_needs_a_point():
    with pytest.raises(ValueError, match="at least one t"):
        exp_curve_check(orth_group(2), np.zeros(8), [])


def test_constraint_count_is_the_residual_length_at_the_unit():
    families = (OrthogonalConstraints(2), SpecialLinearConstraints(2), NoConstraints(),
                UnipotentConstraints())
    assert [LinearXiGroup(R2, fam).num_constraints for fam in families] == [4, 1, 0, 4]


def test_group_closure_reports():
    assert verify_group_closure(orth_group(2), samples=20, seed=0).holds
    bad = orth_group(2, span([(1, 0, 0, 0)], 4))
    assert not verify_group_closure(bad, samples=20, seed=0).holds


def test_tangent_full_unit_group(ut_model):
    r = regular_realization(ut_model)
    t = tangent_space(LinearXiGroup(r, NoConstraints()))
    assert t.subspace == full_space(3) and t.exact


def test_tangent_orthogonal_dims():
    for n, r in ((2, R2), (3, R3)):
        g = LinearXiGroup(r, OrthogonalConstraints(n))
        t = tangent_space(g)
        assert t.exact
        assert t.subspace.dim == skew_dim_oracle(n) + n * n
        assert verify_tangent_huliu(t, r).holds
        # tangent space always contains the odd subspace
        for b in g.odd_subspace.basis:
            lifted = [Fraction(0)] * r.dim
            for c, i in zip(b, r.graded.odd):
                lifted[i] = c
            assert t.subspace.contains(lifted)


def test_tangent_special_linear():
    g = LinearXiGroup(R2, SpecialLinearConstraints(2))
    t = tangent_space(g)
    assert t.subspace.dim == 3 + 4  # traceless + all odd
    assert verify_tangent_huliu(t, R2).holds


def test_tangent_unipotent_block():
    g = make_block_upper(1, 2)
    r = regular_realization(g)
    v1 = span([(1, 0)], 2)
    grp = LinearXiGroup(r, UnipotentConstraints(), v1)
    t = tangent_space(grp)
    assert t.subspace.dim == 1
    assert verify_tangent_huliu(t, r).holds
    assert check_xi_group(grp, samples=20, seed=0).holds


def test_tangent_enlarged_by_symmetric_direction_fails():
    t = tangent_space(orth_group(2))
    sym = [Fraction(0)] * 8
    sym[0] = Fraction(1)  # diag(1,0) is symmetric, not skew
    bigger = TangentSpace(t.subspace.sum(span([sym], 8)))
    rep = verify_tangent_huliu(bigger, R2)
    assert not rep.holds
    assert "closure" in rep.identity


def _enlargements(rng, sub, count):
    """``sub`` plus one standard basis vector it misses, for ``count`` of
    them drawn at random (all when fewer are missing)."""
    dim = sub.ambient_dim
    units = [tuple(int(k == i) for k in range(dim)) for i in range(dim)]
    missing = [e for e in units if not sub.contains(e)]
    for e in rng.sample(missing, min(count, len(missing))):
        yield sub.sum(span([e], dim))


def _random_spans(rng, r, count):
    """Spans of up to four small random vectors, half of them odd-supported
    (brackets of odd vectors vanish, so those spans are closed)."""
    odd = r.graded.odd
    for c in range(count):
        support = odd if c % 2 else range(r.dim)
        vecs = []
        for _ in range(rng.randint(0, 4)):
            v = [0] * r.dim
            for i in support:
                v[i] = rng.choice((-1, 0, 0, 1, 2))
            vecs.append(v)
        yield span(vecs, r.dim)


def test_tangent_certificate_matches_the_rebuild_reference():
    rng = random.Random(6)
    cases = []
    # each call derives the ambient pair again: Mat(3) gets fewer inputs
    for n, r, grown, spans in ((2, R2, 8, 150), (3, R3, 3, 20)):
        one_odd = span([[1] + [0] * (n * n - 1)], n * n)  # not conjugation-stable
        for fam in (NoConstraints(), OrthogonalConstraints(n), SpecialLinearConstraints(n),
                    UnipotentConstraints()):
            for odd in (None, one_odd):
                sub = tangent_space(LinearXiGroup(r, fam, odd)).subspace
                cases += [(r, s) for s in (sub, *_enlargements(rng, sub, grown))]
        cases += [(r, s) for s in _random_spans(rng, r, spans)]
    outcomes = []
    for r, sub in cases:
        rep = verify_tangent_huliu(TangentSpace(sub), r)
        assert rep == tangent_huliu_reference(sub, r.graded)
        outcomes.append(rep.identity)
    assert len(outcomes) == 239
    assert {"tangent Hu-Liu structure", "tangent Hu-Liu structure (trivial)",
            "closure under the angle bracket",
            "closure under the square bracket"} == set(outcomes)


@pytest.fixture(scope="module")
def big():
    """Realizations of the Mat(4) and Mat(5) extensions (dims 32 and 50),
    built once for the module."""
    return {n: mat_square_zero_extension(n)[1] for n in (4, 5)}


@pytest.mark.parametrize("family,n,want", [
    (OrthogonalConstraints, 4, 6 + 16), (SpecialLinearConstraints, 4, 15 + 16),
    (OrthogonalConstraints, 5, 10 + 25), (SpecialLinearConstraints, 5, 24 + 25),
], ids=["orthogonal-4", "special-linear-4", "orthogonal-5", "special-linear-5"])
def test_tangent_passage_at_scale(big, family, n, want):
    r = big[n]
    t = tangent_space(LinearXiGroup(r, family(n)))
    assert t.subspace.dim == want
    assert verify_tangent_huliu(t, r) == ok("tangent Hu-Liu structure")


def test_mat4_tangent_enlarged_by_symmetric_direction_fails(big):
    r = big[4]
    t = tangent_space(LinearXiGroup(r, OrthogonalConstraints(4)))
    sym = [0] * r.dim
    sym[0] = 1  # diag(1,0,0,0) is symmetric, not skew
    bigger = t.subspace.sum(span([sym], r.dim))
    rep = verify_tangent_huliu(TangentSpace(bigger), r)
    assert rep.identity == "closure under the angle bracket"
    assert rep == tangent_huliu_reference(bigger, r.graded)


def test_expm_against_rotation():
    for t in (0.1, 0.7, 2.0):
        e = expm(t * np.array([[0.0, -1.0], [1.0, 0.0]]))
        expect = np.array([[math.cos(t), -math.sin(t)], [math.sin(t), math.cos(t)]])
        assert np.allclose(e, expect, atol=1e-14)


def test_expm_against_mpmath():
    import mpmath
    mpmath.mp.dps = 30
    rng = np.random.default_rng(3)
    for _ in range(5):
        a = rng.standard_normal((4, 4)) * 2
        ours = expm(a)
        theirs = mpmath.expm(mpmath.matrix(a.tolist()))
        ref = np.array([[float(theirs[i, j]) for j in range(4)] for i in range(4)])
        assert np.allclose(ours, ref, rtol=1e-12, atol=1e-12)


def test_exp_curve_zero_vector():
    # constantly the unit: exp(0) is the identity exactly
    rep = exp_curve_check(orth_group(2), np.zeros(8), [0.5, 1.0])
    assert rep.holds and rep.max_residual == 0.0


def test_exp_curve_skew_tangent():
    x = np.zeros(8)
    x[1], x[2] = -1.0, 1.0
    x[4:] = [0.3, -0.2, 0.1, 0.7]
    rep = exp_curve_check(orth_group(2), x, [0.1, 0.5, 1.0])
    assert rep.holds and rep.max_residual <= 1e-12


def test_exp_curve_symmetric_rejected():
    y = np.zeros(8)
    y[0] = 1.0
    rep = exp_curve_check(orth_group(2), y, [0.1, 0.5, 1.0])
    assert not rep.holds
    assert rep.residuals[1] > orth_group(2).tolerance  # already past tolerance at 0.5


@pytest.mark.parametrize("ts", [(0.25, float("nan")), (float("nan"), 0.25),
                                (0.25, float("inf"))], ids=["nan last", "nan first", "inf"])
def test_exp_curve_fails_where_a_residual_is_not_finite(ts):
    grp = orth_group(2)
    x = tangent_space(grp).subspace.basis[0]
    assert exp_curve_check(grp, x, (0.25,)).holds is True
    with np.errstate(invalid="ignore"):
        rep = exp_curve_check(grp, x, ts)
    assert rep.holds is False
    assert not np.isfinite(rep.max_residual)


def test_line_curve_slopes():
    ts = [1e-1, 1e-2, 1e-3, 1e-4]
    g = orth_group(2)
    skew = np.zeros(8)
    skew[1], skew[2] = -1.0, 1.0
    tangent_residuals = line_curve_residuals(g, skew, ts)
    assert fitted_log_slope(ts, tangent_residuals) >= 1.8
    sym = np.zeros(8)
    sym[0] = 1.0
    non_residuals = line_curve_residuals(g, sym, ts)
    assert abs(fitted_log_slope(ts, non_residuals) - 1.0) <= 0.1


def _curve_groups():
    """Every family on the Mat(2) and Mat(3) extensions, and two groups of
    regular realizations."""
    for n, r in ((2, R2), (3, R3)):
        for fam in (NoConstraints(), OrthogonalConstraints(n), SpecialLinearConstraints(n),
                    UnipotentConstraints()):
            yield f"{fam.name}-{n}", LinearXiGroup(r, fam)
    yield "block-upper-2-1", LinearXiGroup(regular_realization(make_block_upper(2, 1)),
                                           NoConstraints())
    yield "block-upper-1-2", LinearXiGroup(regular_realization(make_block_upper(1, 2)),
                                           UnipotentConstraints(), span([(1, 0)], 2))


_CURVE_GROUPS = dict(_curve_groups())


@pytest.mark.parametrize("name", list(_CURVE_GROUPS))
def test_exp_curve_agrees_with_the_realization_exponential(name):
    grp = _CURVE_GROUPS[name]
    rng = np.random.default_rng(11)
    directions = [np.array(b, dtype=float) for b in tangent_space(grp).subspace.basis]
    directions += list(rng.standard_normal((3, grp.graded.dim)))
    ts = (0.1, 0.5, 1.0)
    verdicts = set()
    for x in directions:
        rep = exp_curve_check(grp, x, ts)
        holds, residuals = exp_curve_through_realization(grp, x, ts)
        assert rep.holds == holds
        for got, ref in zip(rep.residuals, residuals):
            assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))
        verdicts.add(holds)
    assert True in verdicts


class _Shifted(ConstraintFamily):
    """x0 = 2 * unit, which the unit itself violates."""

    def evaluate(self, g, x0_even):
        return np.asarray(x0_even) - 2 * R2.np_unit[list(g.even)]


class _NaNEverywhere(ConstraintFamily):
    """A NaN residual at every point, the unit included."""

    def evaluate(self, g, x0_even):
        return np.full(np.shape(x0_even)[:-1] + (1,), np.nan)


@pytest.mark.parametrize("family", [_Shifted, _NaNEverywhere], ids=["shifted", "nan"])
def test_identity_must_satisfy_constraints(family):
    with pytest.raises(ValueError, match="the identity does not satisfy the constraints"):
        LinearXiGroup(R2, family())


class _NaNBelowUnitTrace(NoConstraints):
    """The full unit group of Mat(2), but with a NaN residual wherever the
    trace of the even part is below 1 (the unit's is 2)."""

    def evaluate(self, g, x0_even):
        x = np.asarray(x0_even, dtype=float)
        return np.where(x[..., 0] + x[..., 3] < 1, np.nan, 0.0)[..., None]


def _traces(m):
    """Traces of the 2 x 2 matrices in row-major rows m."""
    return m[:, 0] + m[:, 3]


def test_conjugation_check_names_the_first_nan_sample():
    grp = LinearXiGroup(R2, _NaNBelowUnitTrace())
    rng = np.random.default_rng(0)
    x, h = grp.sample(rng, 50), grp.sample(rng, 50)
    # xi(x) h xi(x)^-1 has the trace of h's even part, none of them near 1
    traces = _traces(h[:, :4])
    assert np.abs(traces - 1).min() > 1e-3
    i = np.flatnonzero(traces < 1)[0]
    assert i > 0
    rep = check_xi_group(grp, samples=50, seed=0)
    assert not rep.holds and math.isnan(rep.worst_residual)
    wx, wh, resid = rep.witness
    assert np.array_equal(wx, x[i]) and np.array_equal(wh, h[i]) and math.isnan(resid)


def test_conjugation_check_solves_the_norms_of_the_first_nan_sample_only(monkeypatch):
    # the first NaN residual fixes the verdict and the witness: the three
    # factors' norms are solved at that one row, where they were at every row
    seen, op_norm = [], MatrixRealization.op_norm

    def spy(self, x):
        seen.append(len(x))
        return op_norm(self, x)

    monkeypatch.setattr(MatrixRealization, "op_norm", spy)
    rep = check_xi_group(LinearXiGroup(R2, _NaNBelowUnitTrace()), samples=1000, seed=0)
    assert not rep.holds and math.isnan(rep.worst_residual)
    assert seen == [1, 1, 1]


@pytest.mark.parametrize("seed, kind", [(0, "product"), (1, "inverse")])
def test_closure_fails_at_the_first_nan_sample_in_draw_order(seed, kind):
    grp = LinearXiGroup(R2, _NaNBelowUnitTrace())
    rng = np.random.default_rng(seed)
    x, y = grp.sample(rng, 16), grp.sample(rng, 16)
    xm, ym = x[:, :4].reshape(-1, 2, 2), y[:, :4].reshape(-1, 2, 2)
    prod, inv = _traces((xm @ ym).reshape(-1, 4)), _traces(np.linalg.inv(xm).reshape(-1, 4))
    assert min(np.abs(prod - 1).min(), np.abs(inv - 1).min()) > 1e-3
    i = np.flatnonzero((prod < 1) | (inv < 1))[0]
    assert i > 0 and (prod[i] < 1) == (kind == "product")
    rep = verify_group_closure(grp, samples=16, seed=seed)
    assert (rep.holds, rep.identity) == (False, f"closure under {kind}")
    assert rep.witness.inputs[0] == tuple(map(Fraction, x[i]))
    assert rep.witness.note == "residual nan"


@pytest.mark.parametrize("n", [2.7, 2.0, "2", 0, -1, True],
                         ids=["2.7", "2.0", "'2'", "0", "-1", "True"])
@pytest.mark.parametrize("family", [OrthogonalConstraints, SpecialLinearConstraints])
def test_matrix_families_need_a_positive_integer_n(family, n):
    with pytest.raises(ValueError, match="need an integer n >= 1"):
        family(n)


@pytest.mark.parametrize("tolerance", [float("nan"), float("inf"), -float("inf"), -1e-9,
                                       10 ** 400, -10 ** 400, Fraction(10 ** 400, 3)],
                         ids=["nan", "inf", "-inf", "negative", "int past the float range",
                              "negative int past the float range",
                              "Fraction past the float range"])
def test_group_tolerance_must_be_finite_and_nonnegative(tolerance):
    # a number past the float range is refused like inf, not with float()'s OverflowError
    with pytest.raises(ValueError, match="tolerance must be a finite nonnegative number"):
        LinearXiGroup(R2, OrthogonalConstraints(2), tolerance=tolerance)


def test_group_tolerance_zero_is_accepted():
    assert LinearXiGroup(R2, OrthogonalConstraints(2), tolerance=0).tolerance == 0.0


def test_constraint_family_lookup():
    assert isinstance(constraint_family("none"), NoConstraints)
    assert isinstance(constraint_family("orthogonal", n=2), OrthogonalConstraints)
    assert isinstance(constraint_family("special-linear", n=3), SpecialLinearConstraints)
    assert isinstance(constraint_family("unipotent-block"), UnipotentConstraints)
    with pytest.raises(ValueError):
        constraint_family("frobnicate")


def test_orthogonal_requires_matrix_even_part(ut_model):
    r = regular_realization(ut_model)
    with pytest.raises(ValueError):
        LinearXiGroup(r, OrthogonalConstraints(2))


@pytest.mark.parametrize("build", [lambda: make_block_upper(2, 1), lambda: G2],
                         ids=["block_upper(2,1)", "Mat(2) extension"])
def test_regular_realization_is_left_multiplication(build):
    g = build()
    t = dense(g.algebra.table)
    # column j of the i-th matrix is e_i e_j
    expected = [Matrix.from_cols([t[i][j] for j in range(g.dim)]) for i in range(g.dim)]
    assert list(regular_realization(g).embed) == expected


def _swap_basis(g, a, b):
    """The same graded algebra with basis elements a and b exchanged."""
    p = list(range(g.dim))
    p[a], p[b] = b, a
    table = table_from_entries(
        g.dim, [(p[i], p[j], p[k], c) for i, j, k, c in table_entries(g.algebra.table)])
    unit = [g.algebra.unit[p[i]] for i in range(g.dim)]
    return GradedAlgebra(Algebra(table, unit=unit), [p[i] for i in g.even])


@pytest.mark.parametrize("family", [OrthogonalConstraints, SpecialLinearConstraints])
def test_matrix_families_reject_a_wrong_even_dimension(family):
    fam = family(3)
    with pytest.raises(ValueError) as exc:
        fam.check_compatible(G2)
    assert str(exc.value) == f"{fam.name} constraints need an even part of dimension 9"


@pytest.mark.parametrize("family", [OrthogonalConstraints, SpecialLinearConstraints])
def test_matrix_families_reject_a_permuted_even_basis(family):
    g = _swap_basis(G2, 1, 2)  # even basis E11, E21, E12, E22
    assert g.even == G2.even and g.validate() is g
    fam = family(2)
    with pytest.raises(ValueError) as exc:
        fam.check_compatible(g)
    assert str(exc.value) == (f"{fam.name} constraints need the even part to be the "
                              f"n x n matrix algebra in row-major basis order")


@pytest.mark.parametrize("family", [OrthogonalConstraints, SpecialLinearConstraints])
@pytest.mark.parametrize("n", [2, 3])
def test_matrix_families_accept_the_matrix_extensions(family, n):
    g, r = (G2, R2) if n == 2 else (G3, R3)
    assert family(n).check_compatible(g) is None
    assert LinearXiGroup(r, family(n)).constraints.n == n


# -- batched sampling --------------------------------------------------------

@pytest.mark.parametrize("n", [2, 3])
def test_batched_family_draws_satisfy_their_constraints(n):
    g, r = (G2, R2) if n == 2 else (G3, R3)
    rng = np.random.default_rng(n)
    q = OrthogonalConstraints(n).sample(r, rng, 200).reshape(200, n, n)
    assert np.abs(np.swapaxes(q, 1, 2) @ q - np.eye(n)).max() <= 1e-12
    s = SpecialLinearConstraints(n).sample(r, rng, 200).reshape(200, n, n)
    assert np.abs(np.linalg.det(s) - 1.0).max() <= 1e-12
    x0 = NoConstraints().sample(r, rng, 200)
    assert x0.shape == (200, n * n)
    assert np.abs(np.linalg.det(np.tensordot(x0, r.even_tensor, 1))).min() > 1e-3
    u = UnipotentConstraints().sample(r, rng, 5)
    assert np.array_equal(u, np.tile(r.np_unit[list(g.even)], (5, 1)))


class _ScriptedNormal:
    """A generator stand-in for matrix draws: every draw is 2 * identity,
    except the rows ``zero_rows`` of the first draw (all rows, every draw,
    when ``zero_rows`` is None), which are zero."""

    def __init__(self, zero_rows=None):
        self.zero_rows, self.calls = zero_rows, []

    def standard_normal(self, shape):
        self.calls.append(shape)
        out = np.broadcast_to(2.0 * np.eye(shape[-1]), shape).copy()
        if self.zero_rows is None:
            out[...] = 0.0
        elif len(self.calls) == 1:
            out[self.zero_rows] = 0.0
        return out


def test_rejected_draws_are_drawn_again_as_one_batch():
    rng = _ScriptedNormal(zero_rows=[1, 3])
    s = SpecialLinearConstraints(2).sample(R2, rng, 5)
    assert np.array_equal(s, np.tile([1.0, 0.0, 0.0, 1.0], (5, 1)))
    assert rng.calls == [(5, 2, 2), (2, 2, 2)]


def test_sampling_gives_up_after_the_retry_budget():
    rng = _ScriptedNormal()
    with pytest.raises(SamplingError, match="well-conditioned"):
        SpecialLinearConstraints(2).sample(R2, rng, 3)
    assert len(rng.calls) == 101 and set(rng.calls[1:]) == {(3, 2, 2)}


def test_each_drawn_matrix_has_its_determinant_taken_once(monkeypatch):
    batches, det = [], np.linalg.det

    def spy(a):
        batches.append(len(a))
        return det(a)

    monkeypatch.setattr(np.linalg, "det", spy)
    SpecialLinearConstraints(2).sample(R2, _ScriptedNormal(zero_rows=[1, 3]), 5)
    assert batches == [5, 2]


_FOUR_FAMILIES = [NoConstraints, OrthogonalConstraints, SpecialLinearConstraints,
                  UnipotentConstraints]


def _group(family, n, odd=None):
    r = R2 if n == 2 else R3
    fam = family(n) if family in (OrthogonalConstraints, SpecialLinearConstraints) else family()
    if odd == "one-coordinate":
        odd = span([[1] + [0] * (n * n - 1)], n * n)
    elif odd == "first-column":
        odd = span([[int(k == i * n) for k in range(n * n)] for i in range(n)], n * n)
    return LinearXiGroup(r, fam, odd)


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("family", _FOUR_FAMILIES, ids=lambda f: f.name)
def test_membership_residual_of_a_stack_is_the_rowwise_residual(family, n):
    for odd in (None, "one-coordinate"):
        grp = _group(family, n, odd)
        rng = np.random.default_rng(3)
        x = np.concatenate([grp.sample(rng, 4), rng.standard_normal((4, grp.graded.dim))])
        batched = grp.membership_residual(x)
        assert batched.shape == (8,)
        assert np.allclose(batched, [grp.membership_residual(row) for row in x],
                           rtol=1e-12, atol=1e-15)
        assert grp.membership_residual(x.reshape(2, 4, -1)).shape == (2, 4)


@pytest.mark.parametrize("odd", [None, "one-coordinate", "first-column"])
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("family", _FOUR_FAMILIES, ids=lambda f: f.name)
def test_batched_checks_agree_with_the_per_sample_loops(family, n, odd):
    grp = _group(family, n, odd)
    tol = grp.tolerance
    for seed in range(20):
        got, want = check_xi_group(grp, 12, seed), xi_group_check_loop(grp, 12, seed)
        assert got.holds == want.holds
        assert (got.worst_residual <= tol) == (want.worst_residual <= tol)
        assert (got.witness is None) == got.holds
        rng = np.random.default_rng(seed)
        xs, hs = grp.sample(rng, 12), grp.sample(rng, 12)
        again = [conjugation_residual(grp, x, h) for x, h in zip(xs, hs)]
        assert max(again) == pytest.approx(got.worst_residual, rel=1e-9, abs=1e-18)
        if got.witness is not None:
            x, h, resid = got.witness
            i = next(i for i in range(12) if np.array_equal(xs[i], x))
            assert np.array_equal(hs[i], h) and resid == got.worst_residual
            assert again[i] == pytest.approx(resid, rel=1e-9)

        got, want = verify_group_closure(grp, 12, seed), group_closure_loop(grp, 12, seed)
        assert got.holds == want.holds
        if not got.holds:
            assert got.identity == want.identity
            rng = np.random.default_rng(seed)
            xs, ys = grp.sample(rng, 12), grp.sample(rng, 12)
            i = next(i for i in range(12)
                     if got.witness.inputs[0] == tuple(map(Fraction, xs[i])))
            # every earlier sample passes both checks, one at a time
            for x, y in zip(xs[:i], ys[:i]):
                assert _closure_ok(grp, x, y)
            note = float(got.witness.note.split()[-1])
            if got.identity == "closure under product":
                assert got.witness.inputs[1] == tuple(map(Fraction, ys[i]))
                resid = grp.membership_residual(grp.realization.multiply_f(xs[i], ys[i]))
            else:
                resid = grp.membership_residual(unit_inverse(grp.realization, xs[i]))
            assert note == pytest.approx(resid, rel=1e-3)


def _closure_ok(grp, x, y):
    """Both closure checks of the per-sample loop pass on the pair x, y."""
    r, tol = grp.realization, grp.tolerance
    inv = unit_inverse(r, x)
    prod_scale = max(1.0, svd_norm(r, x) * svd_norm(r, y))
    return (grp.membership_residual(r.multiply_f(x, y)) <= tol * prod_scale
            and grp.membership_residual(inv) <= tol * max(1.0, svd_norm(r, inv) ** 2))


@pytest.mark.parametrize("regular", [False, True], ids=["block", "regular"])
@pytest.mark.parametrize("odd", [None, "one-coordinate", "first-column"])
@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("family", _FOUR_FAMILIES, ids=lambda f: f.name)
def test_bounded_checks_report_what_the_full_norm_checks_report(family, n, odd, regular):
    grp = _group(family, n, odd)
    if regular:
        grp = LinearXiGroup(regular_realization(grp.graded), grp.constraints, grp.odd_subspace)
    # 1030 samples span two Gram blocks
    for seed, count in [(seed, 24) for seed in range(20)] + [(0, 1030)]:
        got, want = check_xi_group(grp, count, seed), check_xi_group_full_norms(grp, count, seed)
        assert (got.holds, got.samples) == (want.holds, want.samples)
        assert got.worst_residual == want.worst_residual
        assert (got.witness is None) == (want.witness is None)
        if got.witness is not None:
            assert all(np.array_equal(a, b) for a, b in zip(got.witness, want.witness))
        assert verify_group_closure(grp, count, seed) == group_closure_full_norms(grp, count, seed)


@pytest.mark.parametrize("n", [2, 3])
def test_bounded_checks_decide_at_the_threshold_as_the_full_norm_checks_do(n):
    """A tolerance just under or over a sample's scaled residual lies between
    the thresholds of the two norm bounds, so only the exact norms decide."""
    grp = _group(OrthogonalConstraints, n, "one-coordinate")
    r = grp.realization
    rng = np.random.default_rng(0)
    x, y = grp.sample(rng, 24), grp.sample(rng, 24)
    inv = _unit_inverses(r, x)[0]
    ratios = np.concatenate([
        grp.membership_residual(r.multiply_f(x, y)) / np.maximum(1.0, r.op_norm(x) * r.op_norm(y)),
        grp.membership_residual(inv) / np.maximum(1.0, r.op_norm(inv) ** 2),
        [check_xi_group_full_norms(grp, 24, 0).worst_residual]])
    assert np.all(ratios > 1e-6)  # the one odd coordinate is left by products and inverses
    for tol in np.outer(ratios, [1 - 1e-9, 1 + 1e-9]).ravel():
        g = LinearXiGroup(r, grp.constraints, grp.odd_subspace, tolerance=tol)
        assert verify_group_closure(g, 24, 0) == group_closure_full_norms(g, 24, 0)
        assert check_xi_group(g, 24, 0).holds == check_xi_group_full_norms(g, 24, 0).holds


class _Scripted(ConstraintFamily):
    """No constraints; row k of every batch drawn has the k-th even part of
    ``evens`` (the unit where the list runs out)."""

    name = "scripted"

    def __init__(self, *evens):
        self.evens = evens

    def evaluate(self, g, x0_even):
        return np.zeros(np.shape(x0_even)[:-1] + (0,))

    def sample(self, r, rng, count):
        out = np.tile(r.np_unit[list(r.graded.even)], (count, 1))
        out[:len(self.evens)] = self.evens
        return out


_SHEAR = (2.0, 1.0, 0.0, 1.0)  # [[2, 1], [0, 1]]
_SINGULAR = (0.0, 0.0, 0.0, 0.0)


def test_closure_reports_the_first_failure_before_a_later_non_unit():
    # sample 0's product leaves the single odd coordinate; sample 1 is no unit
    grp = LinearXiGroup(R2, _Scripted(_SHEAR, _SINGULAR), span([(1, 0, 0, 0)], 4))
    rep = verify_group_closure(grp, samples=3, seed=0)
    assert not rep.holds and rep.identity == "closure under product"
    assert rep.witness.inputs[0][:4] == tuple(map(Fraction, _SHEAR))


def test_closure_raises_when_the_first_failure_is_a_non_unit():
    grp = LinearXiGroup(R2, _Scripted(_SHEAR, _SINGULAR))
    with pytest.raises(NotAUnitError):
        verify_group_closure(grp, samples=3, seed=0)


def test_conjugation_check_raises_on_any_non_unit():
    grp = LinearXiGroup(R2, _Scripted(_SHEAR, _SHEAR, _SINGULAR))
    with pytest.raises(NotAUnitError):
        check_xi_group(grp, samples=5, seed=0)


@pytest.mark.parametrize("embed, message", [
    (lambda: [Matrix.identity(1)], "need one matrix per basis element"),
    (lambda: [Matrix.identity(1), Matrix.zero(2, 2)],
     "embedding matrices must be square of equal size"),
    (lambda: [Matrix.identity(1), Matrix.zero(1, 1)], "embedding is not injective"),
], ids=["one too few", "mixed sizes", "eps to zero"])
def test_realization_of_the_dual_numbers_rejects_bad_embeddings(embed, message):
    with pytest.raises(ValueError) as exc:
        MatrixRealization(dual_numbers(), embed())
    assert str(exc.value) == message


def test_odd_subspace_must_live_in_the_odd_part():
    with pytest.raises(ValueError) as exc:
        LinearXiGroup(R2, NoConstraints(), span([(1, 0, 0)], 3))
    assert str(exc.value) == "odd subspace ambient 3 != 4"


class _NonnegativeShift(ConstraintFamily):
    """The identity plus a matrix of nonnegative entries: closed under
    products, but the inverse of such a matrix has a negative entry unless
    the matrix is diagonal."""

    def evaluate(self, g, x0_even):
        return np.minimum(np.asarray(x0_even) - R2.np_unit[list(g.even)], 0.0)

    def sample(self, r, rng, count):
        return r.np_unit[list(r.graded.even)] + rng.uniform(0, 1, (count, len(r.graded.even)))


def test_group_closure_reports_a_set_not_closed_under_inverses():
    rep = verify_group_closure(LinearXiGroup(R2, _NonnegativeShift()), samples=8, seed=0)
    assert (rep.holds, rep.identity) == (False, "closure under inverse")
    assert rep.witness.note.startswith("residual ")
    (x,), inv = rep.witness.inputs, rep.witness.lhs
    assert rep.witness.rhs == (0,) * R2.dim
    unit = R2.multiply_f(np.array(x, dtype=float), np.array(inv, dtype=float))
    assert np.allclose(unit, R2.np_unit)
    assert min(inv[i] for i in G2.even) < 0

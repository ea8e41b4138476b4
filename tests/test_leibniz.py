import copy
import itertools
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leibkit._tables import operators, table_from_dense, table_from_entries, zero_table
from leibkit.algebras import matrix_algebra, make_trivial_extension
from leibkit.algebras import make_block_upper
from leibkit.derive import derive_huliu, derive_leibniz
from leibkit.fuzz import generate_corpus
from leibkit.huliu import adjoint_operators
from leibkit.leibniz import (
    LeibnizAlgebra,
    annihilator,
    check_leibniz_homomorphism,
    classify_simplicity,
    eval_right_leibniz,
    ideal_closure,
    is_ideal,
    multiplication_operators,
    verify_right_leibniz,
)
from leibkit.linalg import Matrix, full_space, span
from leibkit.modules import OperatorModule, equivariant_projection_kernel
from leibkit.xigroup import mat_square_zero_extension

import oracles
from oracles import annihilator_action_nonzero, contains_subspace, direct_sum


def brute_force_leibniz(angle) -> bool:
    """Independent oracle: expand both identity sides on all basis triples."""
    angle, dim = oracles.dense(angle), len(angle)
    br = lambda x, y: apply(angle, x, y)

    def apply(t, x, y):
        acc = [Fraction(0)] * dim
        for i, xi in enumerate(x):
            for j, yj in enumerate(y):
                for k in range(dim):
                    acc[k] += xi * yj * t[i][j][k]
        return tuple(acc)

    basis = [tuple(Fraction(1 if t == i else 0) for t in range(dim)) for i in range(dim)]
    for x in basis:
        for y in basis:
            for z in basis:
                lhs = br(br(x, y), z)
                rhs = tuple(a + b for a, b in zip(br(x, br(y, z)), br(br(x, z), y)))
                if lhs != rhs:
                    return False
    return True


def test_zero_bracket_holds():
    assert verify_right_leibniz(LeibnizAlgebra(zero_table(3))).holds


def test_dim2_example_holds(nilpotent_dim2):
    assert brute_force_leibniz(nilpotent_dim2.angle)  # oracle agrees
    assert verify_right_leibniz(nilpotent_dim2).holds


def test_dim1_square_fails():
    rep = verify_right_leibniz(LeibnizAlgebra([[[1]]]))
    assert not rep.holds
    assert rep.witness.inputs == ((Fraction(1),),) * 3
    assert rep.witness.lhs == (Fraction(1),)
    assert rep.witness.rhs == (Fraction(2),)


def test_witness_replays():
    bad = LeibnizAlgebra(table_from_entries(2, [(0, 1, 0, 1), (1, 1, 1, 1)]))
    rep = verify_right_leibniz(bad)
    assert not rep.holds
    lhs, rhs = eval_right_leibniz(bad, *rep.witness.inputs)
    assert (lhs, rhs) == (rep.witness.lhs, rep.witness.rhs) and lhs != rhs


def test_annihilator_examples(nilpotent_dim2, ut_model):
    assert annihilator(LeibnizAlgebra(zero_table(2))).is_zero()
    assert annihilator(nilpotent_dim2) == span([(1, 0)], 2)
    derived = derive_leibniz(ut_model)
    assert annihilator(derived) == span([(0, 0, 1)], 3)  # span{E12}
    # agree with the independent symmetrized-generator oracle
    assert annihilator(derived) == oracles.annihilator_by_symmetrization(derived.angle)


def test_annihilator_requires_verified():
    with pytest.raises(ValueError):
        annihilator(LeibnizAlgebra([[[1]]]))


def test_annihilator_is_never_the_whole_algebra():
    # <x,<y,y>> = 0 by the identity at z = y, so squares spanning L would
    # force every bracket, and so every square, to vanish
    checked = 0
    for dim in (1, 2):
        for flat in itertools.product((-1, 0, 1), repeat=dim ** 3):
            it = iter(flat)
            leib = LeibnizAlgebra(table_from_dense(
                [[[next(it) for _ in range(dim)] for _ in range(dim)] for _ in range(dim)]))
            if verify_right_leibniz(leib).holds:
                checked += 1
                assert annihilator(leib).dim < leib.dim, flat
    assert checked > 3


def test_annihilator_is_cached(nilpotent_dim2):
    assert annihilator(nilpotent_dim2) is annihilator(nilpotent_dim2)


def test_is_ideal_examples(nilpotent_dim2):
    assert is_ideal(nilpotent_dim2, span([], 2))
    assert is_ideal(nilpotent_dim2, span([(1, 0)], 2))
    assert not is_ideal(nilpotent_dim2, span([(0, 1)], 2))
    with pytest.raises(ValueError):
        is_ideal(nilpotent_dim2, span([(1, 0, 0)], 3))


def test_annihilator_is_ideal_always(nilpotent_dim2, solvable_dim2, ut_model):
    for alg in (nilpotent_dim2, solvable_dim2, derive_leibniz(ut_model)):
        assert is_ideal(alg, annihilator(alg))


def test_ideal_closure_examples(nilpotent_dim2):
    assert ideal_closure(nilpotent_dim2, span([], 2)).is_zero()
    assert ideal_closure(nilpotent_dim2, span([(0, 1)], 2)) == full_space(2)
    assert ideal_closure(nilpotent_dim2, span([(1, 0)], 2)) == span([(1, 0)], 2)


small_frac = st.fractions(min_value=-2, max_value=2, max_denominator=2)


@settings(max_examples=40)
@given(st.lists(st.lists(small_frac, min_size=3, max_size=3), min_size=0, max_size=3),
       st.lists(st.lists(small_frac, min_size=3, max_size=3), min_size=0, max_size=3))
def test_closure_monotone_idempotent_extensive(ut_model, rows_s, rows_t):
    alg = derive_leibniz(ut_model)
    s = span(rows_s, 3)
    t = s.sum(span(rows_t, 3))  # s <= t by construction
    cs, ct = ideal_closure(alg, s), ideal_closure(alg, t)
    assert contains_subspace(ct, cs)         # monotone
    assert ideal_closure(alg, cs) == cs      # idempotent
    assert contains_subspace(cs, s)          # extensive
    assert is_ideal(alg, cs)


def test_classify_zero_bracket():
    verdict = classify_simplicity(LeibnizAlgebra(zero_table(2)))
    assert verdict.tag == "NotSimple"
    assert verdict.reason == "annihilator is zero"
    assert verdict.certificate is None


def test_classify_dim2_simple(nilpotent_dim2):
    verdict = classify_simplicity(nilpotent_dim2)
    assert verdict.tag == "Simple"
    assert len(verdict.checks) == 3
    assert oracles.brute_force_simplicity(nilpotent_dim2.angle) == "Simple"


def test_classify_direct_sum_not_simple(nilpotent_dim2):
    ds = direct_sum(nilpotent_dim2, nilpotent_dim2)
    verdict = classify_simplicity(ds, seed=5)
    assert verdict.tag == "NotSimple"
    cert = verdict.certificate
    assert cert is not None and is_ideal(ds, cert)
    ann = annihilator(ds)
    assert cert.dim not in (0, ds.dim) and cert != ann


def test_a_verdict_with_a_certificate_survives_copy_and_pickle(nilpotent_dim2):
    verdict = classify_simplicity(direct_sum(nilpotent_dim2, nilpotent_dim2), seed=5)
    assert verdict.certificate is not None
    for got in (copy.copy(verdict), copy.deepcopy(verdict),
                pickle.loads(pickle.dumps(verdict))):
        assert got == verdict and got.certificate.pivots == verdict.certificate.pivots


def test_classify_seed_reproducible(nilpotent_dim2):
    ds = direct_sum(nilpotent_dim2, nilpotent_dim2)
    a = classify_simplicity(ds, seed=11)
    b = classify_simplicity(ds, seed=11)
    assert (a.tag, a.certificate) == (b.tag, b.certificate)


def test_classify_certifies_an_ideal_of_the_derived_mat2_extension():
    m2 = matrix_algebra(2)
    g = make_trivial_extension(m2, operators(m2.table, "left"), operators(m2.table, "right"))
    alg = derive_leibniz(g)
    assert annihilator(alg).dim >= 2  # forces the randomized sub-test
    verdict = classify_simplicity(alg, seed=1)
    assert verdict.tag == "NotSimple"  # eps*identity spans a 1-dim ideal
    assert verdict.certificate is not None and is_ideal(alg, verdict.certificate)


@pytest.mark.parametrize("copies", [1, 2])
@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_sl_standard_semidirect_verdicts_are_never_wrong(n, copies):
    # sl_n + (C^n)^copies: one copy is Simple, two are NotSimple; Unknown is
    # allowed, a wrong verdict never
    table = oracles.sl_standard_semidirect(n, copies)
    alg = LeibnizAlgebra(table)
    assert verify_right_leibniz(alg).holds
    assert annihilator(alg).dim == copies * n
    verdict = classify_simplicity(alg)
    assert verdict.tag in ({"Simple", "Unknown"} if copies == 1 else {"NotSimple", "Unknown"})
    if verdict.tag == "NotSimple":
        ops = oracles.bracket_operators(alg.angle)
        assert verdict.certificate is not None and oracles.is_invariant(ops, verdict.certificate)
    if (n, copies) == (2, 1):
        assert table == oracles.sl2_semidirect((1,))
        sl2 = classify_simplicity(LeibnizAlgebra(oracles.sl2_semidirect((1,))))
        assert verdict.tag == sl2.tag


def test_homomorphism_identity_and_zero(nilpotent_dim2):
    ident = Matrix.identity(2)
    rep = check_leibniz_homomorphism(nilpotent_dim2, nilpotent_dim2, ident)
    assert rep.holds and rep.injective
    assert rep.kernel.is_zero() and rep.image == full_space(2)
    zero = Matrix.zero(2, 2)
    rep = check_leibniz_homomorphism(nilpotent_dim2, nilpotent_dim2, zero)
    assert rep.holds and not rep.injective
    assert rep.kernel == full_space(2) and rep.image.is_zero()


def test_homomorphism_embedding_witness(solvable_dim2, ut_model):
    derived = derive_leibniz(ut_model)
    phi = Matrix.from_cols([(0, 0, -1), (1, 0, 1)])  # e1 -> -E12, e2 -> E11+E12
    rep = check_leibniz_homomorphism(solvable_dim2, derived, phi)
    assert rep.holds and rep.injective


def test_nilpotent_does_not_embed_in_ut(nilpotent_dim2, ut_model):
    # same map, wrong source algebra: the (e1, e2) pair must fail
    derived = derive_leibniz(ut_model)
    phi = Matrix.from_cols([(0, 0, -1), (1, 0, 1)])
    rep = check_leibniz_homomorphism(nilpotent_dim2, derived, phi)
    assert not rep.holds


def test_homomorphism_kernel_is_ideal(ut_model):
    derived = derive_leibniz(ut_model)
    target = LeibnizAlgebra(zero_table(2))
    phi = Matrix.from_cols([(1, 0), (0, 1), (0, 0)])  # kill E12
    rep = check_leibniz_homomorphism(derived, target, phi)
    assert rep.holds and not rep.injective
    assert rep.kernel == span([(0, 0, 1)], 3)
    assert is_ideal(derived, rep.kernel)


def test_homomorphism_shape_mismatch(nilpotent_dim2, ut_model):
    with pytest.raises(ValueError):
        check_leibniz_homomorphism(nilpotent_dim2, derive_leibniz(ut_model),
                                   Matrix.identity(2))


def test_annihilator_action_flag(nilpotent_dim2, solvable_dim2):
    assert not annihilator_action_nonzero(nilpotent_dim2)
    assert annihilator_action_nonzero(solvable_dim2)


def _complement_inputs():
    """(dim, operators, annihilator) for every algebra below whose
    annihilator is nonzero: a superset of the inputs that reach the
    classifier's complement step."""
    algebras = []
    for dim in (1, 2):
        for flat in itertools.product((-1, 0, 1), repeat=dim ** 3):
            it = iter(flat)
            leib = LeibnizAlgebra(table_from_dense(
                [[[next(it) for _ in range(dim)] for _ in range(dim)] for _ in range(dim)]))
            if verify_right_leibniz(leib).holds:
                algebras.append((leib, ()))
    algebras += [(LeibnizAlgebra(oracles.sl2_semidirect((n,))), ()) for n in range(1, 49)]
    for _, g in generate_corpus(7, 60, 3, 3):
        h = derive_huliu(g)
        algebras += [(derive_leibniz(g), ()), (h.leibniz, adjoint_operators(h))]
    for g in (make_block_upper(2, 2), mat_square_zero_extension(2)[0],
              mat_square_zero_extension(3)[0], make_block_upper(3, 3)):
        h = derive_huliu(g)
        algebras += [(h.leibniz, ()), (h.leibniz, adjoint_operators(h))]
    for alg, extra in algebras:
        ann = annihilator(alg)
        if ann.dim:
            yield alg.dim, multiplication_operators(alg) + extra, ann


def test_annihilator_never_has_an_invariant_complement():
    seen = 0
    for dim, ops, ann in _complement_inputs():
        assert equivariant_projection_kernel(OperatorModule(dim, ops), ann) is None
        seen += 1
    assert seen > 100


def test_leibniz_basis_names_and_basis_vectors(nilpotent_dim2):
    with pytest.raises(ValueError) as exc:
        LeibnizAlgebra(nilpotent_dim2.angle, ["e0"])
    assert str(exc.value) == "basis_names length != dim"
    assert nilpotent_dim2.basis_vector(1) == (Fraction(0), Fraction(1))

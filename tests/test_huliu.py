import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

from leibkit import huliu
from leibkit._tables import basis_vec, table_from_entries, zero_table
from leibkit.algebras import make_block_upper, upper_triangular_model
from leibkit.derive import derive_huliu, derive_leibniz
from leibkit.fuzz import generate_corpus
from leibkit.derive import verify_linear_embedding
from leibkit.huliu import (
    HuLiuAlgebra,
    adjoint_operators,
    annihilator_abelian_check,
    check_huliu_homomorphism,
    classify_huliu_simplicity,
    eval_huliu_identity,
    is_huliu_ideal,
    is_huliu_subalgebra,
    verify_huliu_identities,
    verify_lie,
)
from leibkit.leibniz import (
    LeibnizAlgebra,
    annihilator,
    check_leibniz_homomorphism,
    ideal_closure,
    is_ideal,
    multiplication_operators,
)
from leibkit.linalg import Matrix, full_space, kernel, span, vadd, zeros
from leibkit.modules import closure
from leibkit.report import HomReport, Report, Witness, require
from leibkit.xigroup import mat_square_zero_extension

import oracles
from oracles import (
    annihilator_action_nonzero,
    annihilator_square_action_nonzero,
    direct_sum,
    killing_form,
)


def commutator2(a, b):
    ab = [[sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2)] for i in range(2)]
    ba = [[sum(b[i][k] * a[k][j] for k in range(2)) for j in range(2)] for i in range(2)]
    return [[ab[i][j] - ba[i][j] for j in range(2)] for i in range(2)]


def test_verify_lie_zero_square():
    assert verify_lie(zero_table(3)).holds


def test_verify_lie_ut_commutators(ut_model):
    # oracle: literal 2x2 commutators of E11, E22, E12
    e = [[[1, 0], [0, 0]], [[0, 0], [0, 1]], [[0, 1], [0, 0]]]
    derived = derive_huliu(ut_model)
    for i in range(3):
        for j in range(3):
            m = commutator2(e[i], e[j])
            assert m[1][0] == 0
            expected = (Fraction(m[0][0]), Fraction(m[1][1]), Fraction(m[0][1]))
            assert oracles.dense(derived.square)[i][j] == expected
    assert verify_lie(derived.square).holds
    # the example values
    assert derived.square_bracket((1, 0, 0), (0, 0, 1)) == (0, 0, 1)   # [E11,E12]=E12
    assert derived.square_bracket((0, 0, 1), (0, 1, 0)) == (0, 0, 1)   # [E12,E22]=E12
    assert derived.square_bracket((1, 0, 0), (0, 1, 0)) == (0, 0, 0)   # [E11,E22]=0


def test_verify_lie_antisymmetry_violation():
    rep = verify_lie(table_from_entries(2, [(0, 1, 0, 1)]))
    assert not rep.holds and rep.identity == "antisymmetry"
    assert rep.witness.note == "basis pair (0,1)"


def test_huliu_identities_zero_square_zero_angle():
    h = HuLiuAlgebra(zero_table(2), zero_table(2))
    assert verify_huliu_identities(h).holds


def test_huliu_identities_need_abelian_when_angle_zero():
    # angle = 0 reduces the last identity to [z,[x,y]] = 0
    solvable = table_from_entries(2, [(0, 1, 1, 1), (1, 0, 1, -1)])  # [e1,e2]=e2
    assert verify_lie(solvable).holds
    rep = verify_huliu_identities(HuLiuAlgebra(zero_table(2), solvable))
    assert not rep.holds and rep.identity.startswith("mixed quadruple")


def test_huliu_identities_derived_pair(ut_model):
    assert verify_huliu_identities(derive_huliu(ut_model)).holds


def test_huliu_nilpotent_angle_zero_square(nilpotent_dim2):
    h = HuLiuAlgebra(nilpotent_dim2, zero_table(2))
    assert verify_huliu_identities(h).holds
    verdict = classify_huliu_simplicity(h)
    assert verdict.tag == "Simple"


def test_polarized_identity_matches_quantified_original(solvable_dim2):
    # <e1,e2> = -e1 makes the square-compat identity fail with square = 0
    h = HuLiuAlgebra(solvable_dim2, zero_table(2))
    rep = verify_huliu_identities(h)
    assert not rep.holds and rep.identity.startswith("squares bracket alike")
    ei, ej, ek = rep.witness.inputs
    # the original quantified form [<x,x>,y] = <<x,x>,y> must then fail at
    # x in {ei, ej, ei+ej} with y = ek
    def original_violated(x):
        sq = h.angle_bracket(x, x)
        return h.square_bracket(sq, ek) != h.angle_bracket(sq, ek)
    assert any(original_violated(x) for x in (ei, ej, vadd(ei, ej)))


def test_polarized_identity_on_random_vectors(ut_model):
    import random
    h = derive_huliu(ut_model)
    rng = random.Random(3)
    for _ in range(50):
        x = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(3))
        y = tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(3))
        sq = h.angle_bracket(x, x)
        assert h.square_bracket(sq, y) == h.angle_bracket(sq, y)


def test_is_huliu_ideal_examples(ut_model):
    h = derive_huliu(ut_model)
    assert is_huliu_ideal(h, span([], 3))
    assert is_huliu_ideal(h, annihilator(h.leibniz))
    assert is_huliu_ideal(h, full_space(3))
    assert not is_huliu_ideal(h, span([(1, 0, 0)], 3))  # [E11,E12]=E12 escapes
    with pytest.raises(ValueError):
        is_huliu_ideal(h, span([], 2))


def test_zero_and_the_whole_space_are_huliu_ideals_without_an_operator(monkeypatch, ut_model):
    h = derive_huliu(ut_model)

    def no_columns(*args):
        raise AssertionError("columns built")

    monkeypatch.setattr(huliu, "columns", no_columns)
    assert is_huliu_ideal(h, span([], 3)) and is_huliu_ideal(h, full_space(3))
    with pytest.raises(AssertionError, match="columns built"):
        is_huliu_ideal(h, annihilator(h.leibniz))


def test_is_huliu_subalgebra_examples(ut_model):
    h = derive_huliu(ut_model)
    assert is_huliu_subalgebra(h, full_space(3))
    assert is_huliu_subalgebra(h, span([(1, 0, 0), (0, 0, 1)], 3))
    assert is_huliu_subalgebra(h, span([(0, 0, 1)], 3))


def _no_product(*args):
    raise AssertionError("a product was read")


def test_the_whole_space_is_a_huliu_subalgebra_without_a_product_read(monkeypatch):
    h = derive_huliu(make_block_upper(2, 2))
    monkeypatch.setattr(huliu, "product", _no_product)
    assert is_huliu_subalgebra(h, full_space(h.dim)) == Report(True, "Hu-Liu subalgebra")


def test_classify_huliu_examples(ut_model):
    h = derive_huliu(ut_model)
    verdict = classify_huliu_simplicity(h, seed=2)
    assert verdict.tag == "NotSimple"
    assert verdict.certificate is not None
    assert is_huliu_ideal(h, verdict.certificate)
    hz = HuLiuAlgebra(zero_table(2), zero_table(2))
    assert classify_huliu_simplicity(hz).tag == "NotSimple"


_GRADED = {
    "Mat(3)": lambda: mat_square_zero_extension(3)[0],
    "Mat(4)": lambda: mat_square_zero_extension(4)[0],
    "block_upper(3,3)": lambda: make_block_upper(3, 3),
    "block_upper(4,4)": lambda: make_block_upper(4, 4),
}


@pytest.mark.parametrize("name", _GRADED)
def test_derived_pairs_are_never_called_simple(name):
    # the span D of all products is a proper ideal other than the
    # annihilator, so Simple would be wrong; Unknown is allowed
    h = derive_huliu(_GRADED[name]())
    d = oracles.derived_ideal(h)
    assert is_huliu_ideal(h, d)
    assert 0 < d.dim < h.dim and d != annihilator(h.leibniz)
    verdict = classify_huliu_simplicity(h)
    assert verdict.tag != "Simple"
    if verdict.tag == "NotSimple":
        assert is_huliu_ideal(h, verdict.certificate)


def test_huliu_homomorphism_identity_zero_and_quotient(ut_model):
    h = derive_huliu(ut_model)
    rep = check_huliu_homomorphism(h, h, Matrix.identity(3))
    assert rep.holds and rep.injective
    assert rep.kernel.is_zero() and rep.image == full_space(3)

    target = HuLiuAlgebra(zero_table(2), zero_table(2))
    rep = check_huliu_homomorphism(h, target, Matrix.zero(2, 3))
    assert rep.holds and rep.kernel == full_space(3) and rep.image.is_zero()

    phi = Matrix.from_cols([(1, 0), (0, 1), (0, 0)])  # E11->f1, E22->f2, E12->0
    rep = check_huliu_homomorphism(h, target, phi)
    assert rep.holds and not rep.injective
    assert rep.kernel == span([(0, 0, 1)], 3)
    assert is_huliu_ideal(h, rep.kernel)
    assert is_huliu_subalgebra(target, rep.image)


def test_huliu_homomorphism_square_failure(ut_model):
    # same angle, zeroed square: the identity map respects the angle bracket
    # but not the square bracket, so the reported failure names the square
    h = derive_huliu(ut_model)
    target = HuLiuAlgebra(h.leibniz.angle, zero_table(3))
    rep = check_huliu_homomorphism(h, target, Matrix.identity(3))
    assert not rep.holds
    assert rep.identity == "square bracket compatibility"


def test_annihilator_abelian_check(ut_model, nilpotent_dim2):
    assert annihilator_abelian_check(derive_huliu(ut_model)).holds
    # vacuous when the annihilator is zero
    hz = HuLiuAlgebra(zero_table(2), zero_table(2))
    assert annihilator_abelian_check(hz).holds
    # raw diagnostic: an antisymmetric square bracket pairing the two
    # annihilator lines of a direct sum; the pair is not a Hu-Liu algebra,
    # the check still runs and produces a witness
    ds = direct_sum(nilpotent_dim2, nilpotent_dim2)
    square = table_from_entries(4, [(0, 2, 1, 1), (2, 0, 1, -1)])
    raw = HuLiuAlgebra(ds, square)
    rep = annihilator_abelian_check(raw)
    assert not rep.holds
    assert raw.square_bracket(*rep.witness.inputs) == rep.witness.lhs


def test_killing_form_degenerate_when_annihilator_nonzero(ut_model):
    h = derive_huliu(ut_model)
    assert annihilator(h.leibniz).dim > 0
    k = killing_form(h)
    assert k.rank() < h.dim  # degenerate trace form


def test_annihilator_square_action_flag(ut_model, nilpotent_dim2):
    assert annihilator_square_action_nonzero(derive_huliu(ut_model))
    h = HuLiuAlgebra(nilpotent_dim2, zero_table(2))
    assert not annihilator_square_action_nonzero(h)


def test_eval_huliu_identity_replays_witness():
    solvable = table_from_entries(2, [(0, 1, 1, 1), (1, 0, 1, -1)])
    h = HuLiuAlgebra(zero_table(2), solvable)
    rep = verify_huliu_identities(h)
    assert not rep.holds
    which = 3  # mixed quadruple
    lhs, rhs = eval_huliu_identity(h, which, *rep.witness.inputs)
    assert (lhs, rhs) == (rep.witness.lhs, rep.witness.rhs) and lhs != rhs


def test_ideal_tests_agree_with_invariance_under_the_operators():
    rng = random.Random(3)
    verdicts, flags = set(), set()
    pairs = [derive_huliu(g) for _, g in generate_corpus(11, 30, 3, 3)]
    # In a derived pair each square adjoint is minus a right or a left angle
    # operator, so every Leibniz ideal is a Hu-Liu ideal.  Under a zero angle
    # bracket every subspace is a Leibniz ideal, and the Heisenberg square
    # bracket [e0, e1] = e2 moves e0 out of its span.
    heisenberg = table_from_entries(3, [(0, 1, 2, 1), (1, 0, 2, -1)])
    pairs += [derive_huliu(make_block_upper(2, 2)),
              HuLiuAlgebra(zero_table(3), heisenberg).validate()]
    for h in pairs:
        ops = oracles.bracket_operators(h.leibniz.angle)
        squares = oracles.bracket_operators(h.square)
        huliu_ops = ops + squares[h.dim:]  # v -> [e_j, v]
        ann = annihilator(h.leibniz)
        flag = (annihilator_action_nonzero(h.leibniz), annihilator_square_action_nonzero(h))
        assert flag == tuple(any(any(t.matvec(a)) for t in mats[:h.dim] for a in ann.basis)
                             for mats in (ops, squares))
        flags.add(flag)
        subs = [span([], h.dim), ann, full_space(h.dim)]
        for _ in range(4):
            seed_space = span([tuple(rng.choice((0, 0, 1, -1, 2)) for _ in range(h.dim))
                               for _ in range(rng.randint(1, 2))], h.dim)
            subs += [seed_space, ideal_closure(h.leibniz, seed_space)]
        for s in subs:
            want = (oracles.is_invariant(ops, s), oracles.is_invariant(huliu_ops, s))
            assert (is_ideal(h.leibniz, s), is_huliu_ideal(h, s)) == want
            verdicts.add(want)
    assert {(True, True), (False, False), (True, False)} <= verdicts
    assert {(True, True), (False, False)} <= flags


def test_huliu_algebra_refuses_names_that_differ_from_the_leibniz_algebras():
    leib = LeibnizAlgebra(zero_table(2))
    with pytest.raises(ValueError, match="basis_names differ"):
        HuLiuAlgebra(leib, zero_table(2), ["p", "q"])
    assert HuLiuAlgebra(leib, zero_table(2), ["e0", "e1"]).basis_names == ("e0", "e1")
    assert HuLiuAlgebra(leib, zero_table(2)).basis_names == ("e0", "e1")
    assert HuLiuAlgebra(zero_table(2), zero_table(2), ["p", "q"]).basis_names == ("p", "q")


def _random_vector(rng, dim):
    return tuple(rng.choice((0, 0, 0, 1, -1, 2, Fraction(1, 2))) for _ in range(dim))


def _witness_pairs(seed, trials):
    """Derived pairs of a fuzz corpus and the block_upper(2,2), (3,3) pairs."""
    pairs = [derive_huliu(g) for _, g in generate_corpus(seed, trials, 3, 3)]
    return pairs + [derive_huliu(make_block_upper(p, p)) for p in (2, 3)]


def test_subalgebra_and_abelian_reports_match_the_dense_loops():
    # random subspaces and the Hu-Liu ideals they generate, each with and
    # without one extra vector; then raw pairs with a random square bracket,
    # whose annihilator is mostly not abelian
    rng = random.Random(29)
    pairs = _witness_pairs(5, 40)
    outcomes, abelian = Counter(), Counter()
    for h in pairs:
        ops = multiplication_operators(h.leibniz) + adjoint_operators(h)
        subs = [span([], h.dim), annihilator(h.leibniz), full_space(h.dim)]
        for _ in range(2):
            seed_space = span([_random_vector(rng, h.dim) for _ in range(rng.randint(1, 2))],
                              h.dim)
            subs += [seed_space, closure(ops, seed_space)]
        for s in subs:
            for sub in (s, s.sum(span([_random_vector(rng, h.dim)], h.dim))):
                rep = is_huliu_subalgebra(h, sub)
                assert rep == oracles.dense_huliu_subalgebra(h, sub)
                outcomes[rep.identity] += 1
    raw = [HuLiuAlgebra(h.leibniz, table_from_entries(h.dim, [
        (i, j, k, rng.choice((1, -1, Fraction(2, 3)))) for i in range(h.dim)
        for j in range(h.dim) for k in range(h.dim) if rng.random() < 0.3]))
        for h in pairs[:30]]
    for h in pairs + raw:
        rep = annihilator_abelian_check(h)
        assert rep == oracles.dense_annihilator_abelian_check(h)
        abelian[rep.holds] += 1
    for h in raw:
        sub = span([_random_vector(rng, h.dim)], h.dim)
        assert is_huliu_subalgebra(h, sub) == oracles.dense_huliu_subalgebra(h, sub)
    assert set(outcomes) == {"Hu-Liu subalgebra", "closure under the angle bracket",
                             "closure under the square bracket"}
    assert abelian[True] > 0 and abelian[False] > 0


def test_homomorphism_reports_match_the_dense_bracket_compatibility():
    # phi is the identity, the identity with one entry perturbed, or the
    # identity with column j moved to k, whose image is not its row space;
    # the target is the pair itself, or its angle bracket with a zero square
    rng = random.Random(31)
    identities = Counter()
    for h in _witness_pairs(6, 20):
        n = h.dim
        rows = [[int(i == j) for j in range(n)] for i in range(n)]
        rows[rng.randrange(n)][rng.randrange(n)] += rng.choice((1, -1, Fraction(1, 2)))
        phis = [Matrix.identity(n), Matrix(rows)]
        if n > 1:
            j, k = rng.sample(range(n), 2)
            phis.append(Matrix.from_cols([(int(i == (k if c == j else c)) for i in range(n))
                                          for c in range(n)]))
        for phi in phis:
            ker, image = kernel(phi), span([phi.col(j) for j in range(n)], n)
            angle = oracles.dense_bracket_compatibility(h.leibniz.angle, h.leibniz.angle, phi,
                                                        "bracket compatibility")
            assert check_leibniz_homomorphism(h.leibniz, h.leibniz, phi) == HomReport(
                angle.holds, angle.identity, angle.witness, ker.is_zero(), ker, image)
            for target in (h, HuLiuAlgebra(h.leibniz, zero_table(n))):
                square = oracles.dense_bracket_compatibility(h.square, target.square, phi,
                                                             "square bracket compatibility")
                want = (replace(angle, identity="angle bracket compatibility")
                        if not angle.holds else square if not square.holds
                        else replace(square, identity="both brackets"))
                rep = check_huliu_homomorphism(h, target, phi)
                assert rep == HomReport(want.holds, want.identity, want.witness,
                                        ker.is_zero(), ker, image)
                identities[rep.identity] += 1
    assert set(identities) == {"both brackets", "angle bracket compatibility",
                               "square bracket compatibility"}


def test_linear_embedding_reports_keep_kernel_and_image():
    g = make_block_upper(2, 2)
    h, n = derive_huliu(g), g.dim
    assert verify_linear_embedding(h, g, Matrix.identity(n)) == HomReport(
        True, "both brackets", None, True, span([], n), full_space(n))
    x = basis_vec(n, 0)  # the first RREF basis vector of the kernel
    assert verify_linear_embedding(h, g, Matrix.zero(n, n)) == HomReport(
        False, "injectivity violated (nonzero kernel)",
        Witness((x,), x, zeros(n), "nonzero x with phi(x) = 0"), False, full_space(n), span([], n))


def test_an_injectivity_failure_carries_a_witness_that_require_reports():
    g = upper_triangular_model()
    rep = verify_linear_embedding(derive_leibniz(g), g, Matrix.zero(g.dim, g.dim))
    x = rep.witness.inputs[0]
    assert x == rep.kernel.basis[0] and any(x)
    assert (rep.witness.lhs, rep.witness.rhs) == (x, zeros(g.dim))
    with pytest.raises(ValueError, match="injectivity"):
        require(rep)


def test_huliu_constructor_and_identity_index_reject_bad_input():
    with pytest.raises(ValueError) as exc:
        HuLiuAlgebra(zero_table(2), zero_table(3))
    assert str(exc.value) == "angle and square tables have different dimensions"
    h = HuLiuAlgebra(zero_table(1), zero_table(1))
    with pytest.raises(ValueError) as exc:
        eval_huliu_identity(h, 4, (1,), (1,), (1,))
    assert str(exc.value) == "no identity 4"


def test_a_homomorphism_report_is_true_exactly_when_it_holds():
    w = Witness(((1,),), (1,), (0,), "nonzero x with phi(x) = 0")
    assert bool(HomReport(True)) and not bool(HomReport(False, "injectivity", w))
    assert isinstance(HomReport(True), Report)
    with pytest.raises(ValueError, match="holding report"):
        HomReport(True, witness=w)
    with pytest.raises(ValueError, match="failing report"):
        HomReport(False, "injectivity")

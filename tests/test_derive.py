import random
from fractions import Fraction

import pytest

from leibkit._tables import operators, table_entries, zero_table
from leibkit.algebras import (
    GradedAlgebra,
    dual_numbers,
    make_block_upper,
    matrix_algebra,
    make_trivial_extension,
)
from leibkit.derive import (
    _commutator_table,
    derive_huliu,
    derive_leibniz,
    verify_linear_embedding,
)
from leibkit.fuzz import generate_corpus
from leibkit.huliu import verify_huliu_identities, verify_lie
from leibkit.leibniz import annihilator, verify_right_leibniz
from leibkit.linalg import Matrix

import oracles


def test_derive_dual_numbers_is_abelian():
    leib = derive_leibniz(dual_numbers())
    assert leib.angle == zero_table(2)
    h = derive_huliu(dual_numbers())
    assert h.square == zero_table(2)


def test_derive_ut_model_exact_entries(ut_model):
    leib = derive_leibniz(ut_model)
    assert table_entries(leib.angle) == [
        (2, 0, 2, Fraction(-1)),   # <E12, E11> = -E12
        (2, 1, 2, Fraction(1)),    # <E12, E22> =  E12
    ]


def test_derive_matches_defining_formula(ut_model):
    # oracle: x (y0) - (y0) x computed literally in 2x2 matrices
    e = [[[1, 0], [0, 0]], [[0, 0], [0, 1]], [[0, 1], [0, 0]]]

    def mul(a, b):
        return [[sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2)]
                for i in range(2)]

    leib = derive_leibniz(ut_model)
    for i in range(3):
        for j in range(3):
            y0 = e[j] if j in ut_model.even else [[0, 0], [0, 0]]
            m = [[a - b for a, b in zip(r1, r2)] for r1, r2 in
                 zip(mul(e[i], y0), mul(y0, e[i]))]
            assert m[1][0] == 0
            assert oracles.dense(leib.angle)[i][j] == (Fraction(m[0][0]), Fraction(m[1][1]),
                                        Fraction(m[0][1]))


def test_bracket_vanishes_on_odd_second_argument():
    g = make_block_upper(2, 1)
    leib = derive_leibniz(g)
    rng = random.Random(0)
    for _ in range(20):
        x = tuple(Fraction(rng.randint(-3, 3)) for _ in range(g.dim))
        y = tuple(Fraction(rng.randint(-3, 3)) if i in g.odd else Fraction(0)
                  for i in range(g.dim))
        assert leib.bracket(x, y) == (Fraction(0),) * g.dim


def test_derive_rejects_unverified_input():
    bad = GradedAlgebra(matrix_algebra(2), even=[0, 3])  # odd*odd != 0
    with pytest.raises(ValueError):
        derive_leibniz(bad)


def test_derived_huliu_square_is_commutator(ut_model):
    h = derive_huliu(ut_model)
    a = ut_model.algebra
    for i in range(3):
        for j in range(3):
            ei, ej = a.basis_vector(i), a.basis_vector(j)
            comm = tuple(p - q for p, q in zip(a.multiply(ei, ej), a.multiply(ej, ei)))
            assert oracles.dense(h.square)[i][j] == comm


def test_eight_dim_extension_passes_everything():
    m2 = matrix_algebra(2)
    g = make_trivial_extension(m2, operators(m2.table, "left"), operators(m2.table, "right"))
    h = derive_huliu(g)
    assert verify_right_leibniz(h.leibniz).holds
    assert verify_lie(h.square).holds
    assert verify_huliu_identities(h).holds


def test_leibniz_part_of_huliu_matches_derive_leibniz(ut_model):
    assert derive_huliu(ut_model).leibniz.angle == derive_leibniz(ut_model).angle


def test_brackets_agree_on_even_part(ut_model):
    h = derive_huliu(ut_model)
    g = ut_model
    rng = random.Random(1)
    for _ in range(20):
        x = g.even_part([rng.randint(-3, 3) for _ in range(3)])
        y = g.even_part([rng.randint(-3, 3) for _ in range(3)])
        assert h.angle_bracket(x, y) == h.square_bracket(x, y)


def test_annihilator_inside_odd_part_on_corpus():
    for _, g in generate_corpus(seed=5, trials=25, max_dim0=3, max_dim1=3):
        leib = derive_leibniz(g)
        ann = annihilator(leib)
        for b in ann.basis:
            assert all(b[i] == 0 for i in g.even)


def test_embedding_identity_tautology(ut_model):
    leib = derive_leibniz(ut_model)
    rep = verify_linear_embedding(leib, ut_model, Matrix.identity(3))
    assert rep.holds and rep.injective
    h = derive_huliu(ut_model)
    rep = verify_linear_embedding(h, ut_model, Matrix.identity(3))
    assert rep.holds and rep.injective


def test_embedding_witness_dim2(solvable_dim2, ut_model):
    phi = Matrix.from_cols([(0, 0, -1), (1, 0, 1)])
    rep = verify_linear_embedding(solvable_dim2, ut_model, phi)
    assert rep.holds and rep.injective


def test_embedding_rejects_noninjective(ut_model):
    leib = derive_leibniz(ut_model)
    phi = Matrix.zero(3, 3)
    rep = verify_linear_embedding(leib, ut_model, phi)
    assert not rep.holds and not rep.injective
    assert "injectivity" in rep.identity
    assert rep.kernel is not None and rep.kernel.dim == 3


def test_commutator_tables_match_the_dense_construction():
    graded = [g for _, g in generate_corpus(seed=5, trials=25, max_dim0=3, max_dim1=3)]
    graded += [make_block_upper(k, k) for k in (1, 2, 3)]
    for g in graded:
        for even_only in (True, False):
            assert (oracles.dense(_commutator_table(g, even_only))
                    == oracles.dense_commutator_table(g, even_only))


def test_linear_embedding_needs_a_bracket_algebra():
    g = make_block_upper(1, 1)
    with pytest.raises(TypeError) as exc:
        verify_linear_embedding(g.algebra, g, Matrix.identity(g.dim))
    assert str(exc.value) == "expected a LeibnizAlgebra or HuLiuAlgebra"

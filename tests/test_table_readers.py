"""Every module outside ``_tables`` reads a table through its nonzeros.

Each reader built from the table entries is checked against the dense
reader it replaced, kept in ``oracles.py``: the unit solve, both
annihilator presentations, the direct sum, the even multiplication matrix,
the float tensors and the Mat(n) compatibility check, and the witnesses of
the antisymmetry, grading and bracket-compatibility checks.  The inputs are
the exhaustive dim-2 brackets with entries in {-1, 0, 1}, a fuzz corpus,
the block-upper family with its derived pairs, the Mat(n) square-zero
extensions, random tables with denominators, unital algebras in random
rational bases, and one-entry mutants of these.
"""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest

from leibkit._tables import (
    apply_table,
    operators,
    table_entries,
    table_from_dense,
    table_from_entries,
)
from leibkit.algebras import (
    Algebra,
    GradedAlgebra,
    find_unit,
    make_block_upper,
    matrix_algebra,
    verify_special_grading,
)
from leibkit.derive import derive_huliu
from leibkit.fuzz import generate_corpus
from leibkit.huliu import verify_lie
from leibkit.leibniz import LeibnizAlgebra, _bracket_compatibility, _span_of_squares
from leibkit.linalg import Matrix, inverse
from leibkit.xigroup import (
    OrthogonalConstraints,
    SpecialLinearConstraints,
    _combination,
    _float_rows,
    mat_square_zero_extension,
    regular_realization,
)

import oracles

VALUES = (-2, -1, 1, 2, "1/2", "-3/2", "5/3")


def dim2_tables():
    return [table_from_dense([[flat[4 * i + 2 * j:4 * i + 2 * j + 2] for j in range(2)]
                              for i in range(2)])
            for flat in itertools.product((-1, 0, 1), repeat=8)]


def random_table(rng, dim, density):
    return table_from_entries(dim, [(i, j, k, rng.choice(VALUES))
                                    for i in range(dim) for j in range(dim)
                                    for k in range(dim) if rng.random() < density])


def random_tables(seed, count=60):
    rng = random.Random(seed)
    return [random_table(rng, rng.randint(1, 6), rng.choice((0.05, 0.2, 0.5, 1.0)))
            for _ in range(count)]


def mutant(t, rng):
    """One entry changed: added to, or removed when the choice falls on one."""
    entries = table_entries(t)
    dim = len(t)
    if entries and rng.random() < 0.5:
        del entries[rng.randrange(len(entries))]
    else:
        entries.append((rng.randrange(dim), rng.randrange(dim), rng.randrange(dim),
                        rng.choice(VALUES)))
    return table_from_entries(dim, entries)


def rebased(t, rng):
    """The same algebra in the basis of the columns of a random invertible
    rational matrix, so its unit, if any, has rational coordinates."""
    dim = len(t)
    while True:
        p = Matrix([[Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(dim)]
                    for _ in range(dim)])
        p_inv = inverse(p)
        if p_inv is not None:
            break
    items = []
    for i in range(dim):
        for j in range(dim):
            prod = p_inv.matvec(apply_table(t, p.col(i), p.col(j)))
            items += [(i, j, k, c) for k, c in enumerate(prod) if c]
    return table_from_entries(dim, items)


CORPUS = [g for _, g in generate_corpus(7, 300, 3, 3)]
BLOCK_UPPER = [make_block_upper(p, q) for p in (1, 2, 3) for q in (1, 2, 3)]
MAT_EXTENSIONS = [mat_square_zero_extension(n)[0] for n in (2, 3, 4)]


UNITAL = ([g.algebra.table for g in BLOCK_UPPER + MAT_EXTENSIONS[:1] if g.dim <= 9]
          + [matrix_algebra(n).table for n in (1, 2, 3)])


def rebased_unital_tables():
    """Each small unital table in two random rational bases."""
    rng = random.Random(3)
    return [rebased(t, rng) for t in UNITAL for _ in range(2)]


def test_apply_table_matches_the_dense_product_on_mixed_inputs():
    # ints, "p/q" strings (also "0", which is truthy) and Fractions, passed as
    # tuples, lists and generators
    rng = random.Random(5)
    entries = (0, 0, "0", 1, -2, "3/4", "-5", Fraction(2, 3), Fraction(0))
    forms = (tuple, list, lambda v: (c for c in v))
    for t in random_tables(6, count=40):
        dim = len(t)
        for _ in range(3):
            x, y = ([rng.choice(entries) for _ in range(dim)] for _ in range(2))
            want = oracles.dense_apply_table(t, x, y)
            for form in forms:
                got = apply_table(t, form(x), form(y))
                assert got == want and all(type(c) is Fraction for c in got)
        for bad in ((0,) * (dim + 1), (0,) * (dim - 1)):
            for form in forms:
                with pytest.raises(ValueError, match="vector length mismatch"):
                    apply_table(t, form(bad), (1,) * dim)
                with pytest.raises(ValueError, match="vector length mismatch"):
                    apply_table(t, (1,) * dim, form(bad))


def test_find_unit_matches_the_dense_solve():
    rng = random.Random(4)
    tables = dim2_tables() + [g.algebra.table for g in CORPUS + BLOCK_UPPER + MAT_EXTENSIONS]
    rebased = rebased_unital_tables()
    tables += random_tables(5) + UNITAL + rebased
    tables += [mutant(t, rng) for t in tables[::7]]
    units = lost = 0
    for t in tables:
        unit = find_unit(Algebra(t))
        assert unit == oracles.dense_find_unit(t)
        units += unit is not None
    for t in UNITAL + [t for t in rebased if len(t) <= 4]:  # one-entry removals
        entries = table_entries(t)
        for n in range(0, len(entries), max(1, len(entries) // 6)):
            m = table_from_entries(len(t), entries[:n] + entries[n + 1:])
            unit = find_unit(Algebra(m))
            assert unit == oracles.dense_find_unit(m)
            lost += unit is None
    assert 0 < units < len(tables) and lost > 0


def test_annihilator_presentations_match_the_dense_spans():
    rng = random.Random(6)
    pairs = [derive_huliu(g) for g in CORPUS + BLOCK_UPPER]
    tables = dim2_tables() + [h.leibniz.angle for h in pairs] + [h.square for h in pairs]
    tables += random_tables(7)
    tables += [mutant(t, rng) for t in tables[::5]]
    dims = set()
    for t in tables:
        by_squares, by_symmetrized = oracles.dense_annihilator_presentations(t)
        assert by_squares == by_symmetrized
        ann = _span_of_squares(LeibnizAlgebra(t))
        assert ann == by_squares
        dims.add((len(t), ann.dim))
    assert any(d == 0 for _, d in dims) and any(0 < d < n for n, d in dims)


def test_direct_sum_matches_the_dense_table():
    rng = random.Random(8)
    tables = random_tables(9, 30) + dim2_tables()[::400]
    for _ in range(40):
        a, b = rng.choice(tables), rng.choice(tables)
        s = oracles.direct_sum(LeibnizAlgebra(a, [f"x{i}" for i in range(len(a))]), LeibnizAlgebra(b))
        assert s.angle == table_from_dense(oracles.dense_direct_sum_table(a, b))
        assert s.basis_names == tuple([f"a.x{i}" for i in range(len(a))]
                                      + [f"b.e{i}" for i in range(len(b))])


def test_antisymmetry_and_grading_witnesses_match_the_dense_reads():
    rng = random.Random(10)
    pairs = [derive_huliu(g) for g in CORPUS[:100] + BLOCK_UPPER]
    squares = dim2_tables() + random_tables(11) + [h.square for h in pairs]
    squares += [mutant(h.square, rng) for h in pairs for _ in range(2)]
    failing = 0
    for s in squares:
        expected = oracles.dense_antisymmetry_failure(s)
        rep = verify_lie(s)
        if expected is None:
            assert rep.identity != "antisymmetry"
        else:
            assert rep == expected
            failing += 1
    assert 0 < failing < len(squares)

    graded = [(g.algebra.table, g.even) for g in CORPUS + BLOCK_UPPER + MAT_EXTENSIONS]
    graded += [(mutant(t, rng), even) for t, even in graded]
    for t in random_tables(12) + dim2_tables()[::9]:
        graded.append((t, sorted(rng.sample(range(len(t)), rng.randint(0, len(t))))))
    clauses = set()
    for t, even in graded:
        expected = oracles.dense_grading_failure(t, even)
        rep = verify_special_grading(GradedAlgebra(Algebra(t), even))
        if expected is None:
            assert rep.holds
        else:
            assert rep == expected
        clauses.add(rep.identity)
    assert clauses == {"special grading", "even*even in even", "odd*odd = 0",
                       "mixed products in odd"}


def test_bracket_compatibility_witnesses_match_the_dense_reads():
    rng = random.Random(13)
    pairs = [derive_huliu(g) for g in CORPUS[:60] + BLOCK_UPPER[:4]]
    cases = []
    for h in pairs:
        for t in (h.leibniz.angle, h.square):
            dim = len(t)
            cases.append((t, t, Matrix.identity(dim)))
            cases.append((t, mutant(t, rng), Matrix.identity(dim)))
            phi = Matrix([[rng.choice((0, 0, 1, -1, "1/2")) for _ in range(dim)]
                          for _ in range(dim + 1)])
            cases.append((t, random_table(rng, dim + 1, 0.3), phi))
    holding = 0
    for source, target, phi in cases:
        rep = _bracket_compatibility(source, target, phi, "bracket compatibility")
        assert rep == oracles.dense_bracket_compatibility(source, target, phi,
                                                          "bracket compatibility")
        holding += rep.holds
    assert 0 < holding < len(cases)


def test_even_block_readers_match_the_dense_ones():
    rng = random.Random(14)
    graded = MAT_EXTENSIONS + BLOCK_UPPER + CORPUS[:80]
    realized = 0
    for g in graded:
        t, even = g.algebra.table, g.even
        a0 = g.even_algebra()
        tensor = oracles.dense_float_tensor(t, range(g.dim))
        cells = [c for row in t for c in row]
        assert np.array_equal(_float_rows(cells, g.dim).reshape(tensor.shape), tensor)
        if g.algebra.unit is not None:  # the float tables a realization keeps
            r = regular_realization(g)
            assert np.array_equal(r.np_tensor, tensor)
            assert np.array_equal(r.even_tensor, oracles.dense_float_tensor(t, even))
            assert np.array_equal(r.np_embed, np.array([m.data for m in r.embed], dtype=float))
            realized += 1
        left = operators(a0.table, "left")
        for _ in range(3):
            x0 = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in even]
            assert (_combination(x0, left, len(even))
                    == oracles.dense_even_mult_matrix(t, even, x0))
    assert realized == 33


def _message(family, g):
    try:
        family.check_compatible(g)
    except ValueError as e:
        return str(e)
    return None


def test_matrix_constraint_check_matches_the_dense_one():
    rng = random.Random(15)
    graded = MAT_EXTENSIONS + BLOCK_UPPER + CORPUS[:40]
    for g in MAT_EXTENSIONS:  # even blocks broken by a value, a lost entry, a stray entry
        t, even, odd = g.algebra.table, g.even, g.odd
        entries = table_entries(t)
        block = [n for n, (i, j, _, _) in enumerate(entries) if i in even and j in even]
        n = rng.choice(block)
        i, j, k, c = entries[n]
        broken = [entries[:n] + [(i, j, k, c + 1)] + entries[n + 1:],
                  entries[:n] + entries[n + 1:],
                  entries + [(i, j, odd[0], 1)],
                  entries + [(i, j, even[(even.index(k) + 1) % len(even)], 1)]]
        graded += [GradedAlgebra(Algebra(table_from_entries(g.dim, e)), even) for e in broken]
    outcomes = set()
    for g in graded:
        for family in (OrthogonalConstraints, SpecialLinearConstraints):
            for n in (1, 2, 3, 4):
                expected = oracles.dense_matrix_compatibility(family.name, n, g.algebra.table,
                                                              g.even)
                assert _message(family(n), g) == expected
                outcomes.add("applies" if expected is None
                             else "dimension" if "dimension" in expected else "basis")
    assert outcomes == {"applies", "dimension", "basis"}

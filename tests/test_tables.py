"""The multiplication matrices of a structure table, built in one place,
the integer scaling the exact checker walks, and the checker itself.

``_tables.operators`` and the cell columns it is built from,
``_tables.columns``, are checked against the independent builder in
``oracles.py`` on seeded random tables, for both sides.  The sparse
identity checker must name the same first failing basis triple, or none,
as the dense loop over every triple kept in ``oracles.py``, for every
declared identity, on the exhaustive dim-2 brackets, seeded random tables,
derived pairs, one-entry mutants of these, and mutants of derived pairs
that the checker's summed tables hide.  Each identity's fused plan, read
back with rational tables, must sum to lhs - rhs.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

from leibkit._tables import (
    ASSOCIATIVITY,
    COMPATIBILITY,
    JACOBI,
    RIGHT_LEIBNIZ,
    _first_failing_triple,
    _grouped,
    apply_table,
    columns,
    evaluate,
    int_scaled,
    operators,
    table_entries,
    table_from_dense,
    table_from_entries,
    verify_identities,
)
from leibkit.algebras import Algebra, make_block_upper
from leibkit.derive import derive_huliu
from leibkit.fuzz import generate_corpus
from leibkit.huliu import HuLiuAlgebra, verify_lie
from leibkit.leibniz import LeibnizAlgebra
from leibkit.linalg import vadd, vscale, zeros

import oracles

DECLARED = (ASSOCIATIVITY, RIGHT_LEIBNIZ, JACOBI, *COMPATIBILITY)


def random_table(rng, dim):
    items = [(i, j, k, rng.choice((-2, -1, 1, 2, "1/2", "-3/2")))
             for i in range(dim) for j in range(dim) for k in range(dim)
             if rng.random() < 0.3]
    return table_from_entries(dim, items)


def random_sparse_table(rng, dim, per_row):
    """A table with about ``per_row`` * dim nonzero entries in all."""
    items = [(*(rng.randrange(dim) for _ in range(3)), rng.choice((-2, -1, 1, 2, "1/2")))
             for _ in range(round(per_row * dim))]
    return table_from_entries(dim, items)


def _entry_list(rng, dim):
    """Random (i, j, k, value) items in random order, with repeats, zeros and
    pairs of items that cancel."""
    items = []
    for _ in range(rng.randint(0, 2 * dim ** 2)):
        i, j, k = (rng.randrange(dim) for _ in range(3))
        c = rng.choice((0, 1, -1, 2, "1/2", "-3/2", Fraction(2, 3)))
        items.append((i, j, k, c))
        if rng.random() < 0.3:
            items.append((i, j, k, -Fraction(c)))
    rng.shuffle(items)
    return items


@pytest.mark.parametrize("seed", range(30))
def test_tables_are_canonical(seed):
    rng = random.Random(seed)
    dim = rng.randint(1, 5)
    items = _entry_list(rng, dim)
    t = table_from_entries(dim, items)
    expected = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for i, j, k, c in items:
        expected[i][j][k] += Fraction(c)
    assert oracles.dense(t) == tuple(tuple(tuple(v) for v in row) for row in expected)
    for row in t:
        assert len(row) == dim
        for cell in row:
            assert all(c != 0 for _, c in cell)
            assert [k for k, _ in cell] == sorted({k for k, _ in cell})
    assert table_from_entries(dim, table_entries(t)) == t
    assert table_from_dense(oracles.dense(t)) == t
    nested = oracles.dense(t)
    assert Algebra(nested).table == LeibnizAlgebra(nested).angle == table_from_dense(nested)
    assert HuLiuAlgebra(nested, nested).square == table_from_dense(nested)
    assert Algebra(t).table is t


@pytest.mark.parametrize("seed", range(20))
def test_table_from_entries_adds_up_like_a_plain_accumulation(seed):
    rng = random.Random(seed)
    dim = rng.randint(1, 6)
    items = []
    for _ in range(rng.randint(0, 3 * dim ** 2)):
        i, j, k = (rng.randrange(dim) for _ in range(3))
        items.append((i, j, k, rng.choice((1, -2, "3/4", "-5/6", Fraction(2, 3), "0"))))
        if rng.random() < 0.4:  # a repeat, which often cancels the first
            items.append((i, j, k, rng.choice((-Fraction(items[-1][3]), "1/3", 2))))
    rng.shuffle(items)
    sums = {}
    for i, j, k, c in items:
        sums[i, j, k] = sums.get((i, j, k), Fraction(0)) + Fraction(c)
    entries = table_entries(table_from_entries(dim, items))
    assert entries == sorted((*key, c) for key, c in sums.items() if c)
    assert all(oracles.is_canonical_scalar(c) for *_, c in entries)


def test_table_from_dense_rejects_a_row_of_the_wrong_length():
    with pytest.raises(ValueError, match="not dim x dim x dim"):
        table_from_dense([[[1], [2]]])
    with pytest.raises(ValueError, match="not dim x dim x dim"):
        table_from_dense([[[1, 0], [0, 1]], [[0, 1]]])
    with pytest.raises(ValueError, match="not dim x dim x dim"):
        table_from_dense([[[1, 0], [0]], [[0, 1], [1, 0]]])


@pytest.mark.parametrize("seed", range(20))
def test_operators_match_the_oracle_builder(seed):
    rng = random.Random(seed)
    t = random_table(rng, rng.randint(1, 5))
    dim = len(t)
    expected = oracles.bracket_operators(t)  # right multiplications, then left
    assert operators(t, "right") == tuple(expected[:dim])
    assert operators(t, "left") == tuple(expected[dim:])
    for m in operators(t, "right") + operators(t, "left"):
        oracles.assert_exact_rows(m)


def test_operators_reject_an_unknown_side():
    with pytest.raises(ValueError, match="side"):
        operators(table_from_entries(1, []), "both")


def _views(ints):
    """The nonzero cells of an integer table as :func:`int_scaled` gives
    them, by a plain scan: the (a, b, cell) in basis order."""
    dim = len(ints)
    return [(a, b, ints[a][b]) for a in range(dim) for b in range(dim) if ints[a][b]]


@pytest.mark.parametrize("seed", range(10))
def test_int_scaled_multiplies_by_the_least_common_denominator(seed):
    rng = random.Random(seed)
    dim = rng.randint(1, 4)
    tables = [random_table(rng, dim) for _ in range(2)]
    d = 1
    for t in tables:
        for row in oracles.dense(t):
            for v in row:
                for c in v:
                    d = d * c.denominator // math.gcd(d, c.denominator)
    for t, views in zip(tables, int_scaled(tables)):
        cells = oracles.dense(t)
        ints = [[tuple((k, int(c * d)) for k, c in enumerate(cells[i][j]) if c)
                 for j in range(dim)] for i in range(dim)]
        assert views == _views(ints)


def _mutant(tables, rng):
    """``tables`` with one entry of one table changed."""
    name = rng.choice(sorted(tables))
    entries = table_entries(tables[name])
    dim = len(tables[name])
    if entries and rng.random() < 0.5:
        i, j, k, _ = rng.choice(entries)
    else:
        i, j, k = (rng.randrange(dim) for _ in range(3))
    delta = rng.choice((1, -1, 2, Fraction(1, 2), Fraction(-2, 3)))
    return {**tables, name: table_from_entries(dim, entries + [(i, j, k, delta)])}


def _same_first_failures(tables, replay=True) -> int:
    """Assert the sparse checker agrees with the dense loop on every declared
    identity and that the antisymmetry scan agrees with its reference;
    return how many identities fail.  With ``replay`` the reports, whose
    witnesses are replayed in rationals, must name the same triples."""
    names = sorted(tables)
    ints = dict(zip(names, oracles.dense_int_scaled([tables[n] for n in names])))
    views = dict(zip(names, int_scaled([tables[n] for n in names])))
    assert [views[n] for n in names] == [_views(ints[n]) for n in names]
    dim = len(tables[names[0]])
    failing = 0
    for identity in DECLARED:
        ijk = oracles.dense_first_failing_triple(identity, ints, dim)
        assert _first_failing_triple(identity, views, dim) == ijk, identity.name
        failing += ijk is not None
        if not replay:
            continue
        rep = verify_identities((identity,), tables, "holds")
        if ijk is None:
            assert rep.holds
        else:
            assert rep.witness.note == "basis triple ({},{},{})".format(*ijk)
            assert rep.witness.lhs != rep.witness.rhs
    pair = oracles.first_nonantisymmetric_pair(tables["s"])
    rep = verify_lie(tables["s"])
    if pair is None:
        assert rep.identity != "antisymmetry"
    else:
        assert (rep.identity, rep.witness.note) == ("antisymmetry", "basis pair ({},{})".format(*pair))
    return failing


def test_sparse_checker_matches_the_dense_loop_on_exhaustive_dim2_brackets():
    tables = [table_from_dense([[flat[4 * i + 2 * j:4 * i + 2 * j + 2] for j in range(2)]
                                for i in range(2)])
              for flat in itertools.product((-1, 0, 1), repeat=8)]
    rng = random.Random(0)
    failing = checked = 0
    for n, t in enumerate(tables):
        sets = {"m": t, "a": t, "s": tables[-1 - n]}
        replay = n % 16 == 0
        failing += _same_first_failures(sets, replay)
        if n % 8 == 0:
            failing += _same_first_failures(_mutant(sets, rng), replay)
            checked += 1
        checked += 1
    assert 0 < failing < checked * len(DECLARED)


def test_sparse_checker_matches_the_dense_loop_on_random_tables():
    rng = random.Random(1)
    failing = checked = 0
    for dim in range(1, 7):
        for density in (0.05, 0.1, 0.25, 0.5, 1.0):
            for _ in range(6 if dim < 6 else 2):
                sets = {}
                for name in "mas":
                    items = [(i, j, k, rng.choice((-2, -1, 1, 2, "1/2", "-3/2")))
                             for i in range(dim) for j in range(dim) for k in range(dim)
                             if rng.random() < density]
                    sets[name] = table_from_entries(dim, items)
                for tables in (sets, _mutant(sets, rng)):
                    failing += _same_first_failures(tables)
                    checked += 1
    assert 0 < failing < checked * len(DECLARED)


def test_sparse_checker_matches_the_dense_loop_on_sparse_tables_up_to_dim_12():
    # most cells are empty, so the walks read the cells at the leading index
    # from the row and column groupings and rarely find one
    rng = random.Random(3)
    failing = checked = 0
    for dim in range(7, 13):
        for per_row in (0.1, 0.25, 1, 3):
            sets = {name: random_sparse_table(rng, dim, per_row) for name in "mas"}
            for tables in (sets, _mutant(sets, rng)):
                failing += _same_first_failures(tables)
                checked += 1
    assert 0 < failing < checked * len(DECLARED)


def test_sparse_checker_matches_the_dense_loop_on_derived_pairs():
    graded = [g for _, g in generate_corpus(7, 60, 3, 3)]
    graded += [make_block_upper(k, k) for k in (1, 2, 3)]
    rng = random.Random(2)
    failing = 0
    for g in graded:
        h = derive_huliu(g)
        sets = {"m": g.algebra.table, "a": h.leibniz.angle, "s": h.square}
        assert _same_first_failures(sets) == 0
        for _ in range(2):
            failing += _same_first_failures(_mutant(sets, rng))
    assert failing > len(graded)


def _summed_table(spec, tables):
    """The rational table of a plan's signed sum of tables."""
    dim = len(next(iter(tables.values())))
    return table_from_entries(dim, [
        (j, i, k, coef * c) if transposed else (i, j, k, coef * c)
        for name, transposed, coef in spec for i, j, k, c in table_entries(tables[name])])


def test_the_groupings_of_every_planned_table_match_a_dense_scan():
    # "s" repeats most of "a" or of minus its transpose, so the summed
    # tables a - s and a^T + s lose the cells that cancel
    specs = {spec for identity in DECLARED for term in identity._plan
             for spec in (term.outer, term.inner)}
    assert {len(spec) for spec in specs} == {1, 2}
    assert any(tr for spec in specs for _, tr, _ in spec)
    rng = random.Random(5)
    cancelled = 0
    for dim in range(1, 7):
        for trial in range(4):
            a = random_table(rng, dim)
            shared = [(j, i, k, -c) if trial % 2 else (i, j, k, c)
                      for i, j, k, c in table_entries(a) if rng.random() < 0.8]
            s = table_from_entries(dim, shared + table_entries(random_sparse_table(rng, dim, 1)))
            tables = {"m": random_table(rng, dim), "a": a, "s": s}
            views = dict(zip(tables, int_scaled(list(tables.values()))))
            for spec in sorted(specs):
                grouped = _grouped(spec, views, dim)
                expected = oracles.dense_groupings(tables, spec)
                if spec[0][1] and len(spec) == 1:
                    # a transposed table is only an outer, never read by
                    # product coordinate, so it has no product grouping
                    expected = (*expected[:2], None)
                assert grouped == expected, spec
                if len(spec) == 2:
                    parts = {(j, i) if tr else (i, j) for name, tr, _ in spec
                             for i, j, _, _ in table_entries(tables[name])}
                    cancelled += sum(len(row) for row in grouped[0]) < len(parts)
    assert cancelled > 0


def test_the_plans_fuse_the_compatibility_terms():
    assert [len(identity._plan) for identity in DECLARED] == [2, 3, 3, 1, 2, 3, 3]


@pytest.mark.parametrize("identity", DECLARED, ids=lambda identity: identity.name)
def test_the_fused_plan_sums_to_lhs_minus_rhs_at_random_vectors(identity):
    rng = random.Random(identity.name)
    for dim in range(1, 5):
        tables = {name: random_table(rng, dim) for name in "mas"}
        for _ in range(4):
            xyz = [tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(dim))
                   for _ in range(3)]
            lhs, rhs = evaluate(identity, tables, *xyz)
            total = zeros(dim)
            for term in identity._plan:
                u, v, w = (xyz[a] for a in term.args)
                inner = apply_table(_summed_table(term.inner, tables), u, v)
                total = vadd(total, vscale(term.sign, apply_table(
                    _summed_table(term.outer, tables), inner, w)))
            assert total == tuple(a - b for a, b in zip(lhs, rhs))


def test_a_change_that_the_summed_tables_hide_is_still_found():
    # the same change to one cell of the angle and the square table leaves
    # their difference, a summed table of two compatibility plans, as it was
    graded = [g for _, g in generate_corpus(5, 30, 3, 3)]
    graded += [make_block_upper(k, k) for k in (1, 2, 3)]
    rng = random.Random(4)
    failing = checked = 0
    for g in graded:
        h = derive_huliu(g)
        pair = {"a": h.leibniz.angle, "s": h.square}
        difference = _summed_table((("a", False, 1), ("s", False, -1)), pair)
        for _ in range(2):
            i, j, k = (rng.randrange(h.dim) for _ in range(3))
            delta = rng.choice((1, -1, 2, Fraction(1, 2), Fraction(-2, 3)))
            mutant = {name: table_from_entries(h.dim, table_entries(t) + [(i, j, k, delta)])
                      for name, t in pair.items()}
            assert _summed_table((("a", False, 1), ("s", False, -1)), mutant) == difference
            failing += _same_first_failures({"m": g.algebra.table, **mutant}) > 0
            checked += 1
    assert failing > checked // 2


@pytest.mark.parametrize("seed", range(10))
def test_columns_are_the_operator_columns(seed):
    rng = random.Random(seed)
    t = random_table(rng, rng.randint(1, 5))
    dim = len(t)
    expected = oracles.bracket_operators(t)  # right multiplications, then left
    for side, mats in (("right", expected[:dim]), ("left", expected[dim:])):
        assert columns(t, side) == tuple(m._cols for m in operators(t, side))
        assert columns(t, side) == tuple(m._cols for m in mats)
    with pytest.raises(ValueError, match="side"):
        columns(t, "both")


def test_table_from_entries_rejects_an_index_out_of_range():
    with pytest.raises(ValueError, match=r"^index \(0,0,2\) out of range for dim 2$"):
        table_from_entries(2, [(0, 0, 2, 1)])

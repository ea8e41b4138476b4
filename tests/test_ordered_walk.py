"""The exact checker's ordered walk against its full walk.

``verify_lie`` walks the Jacobi identity on the triples i < j < k only,
once antisymmetry holds, and ``verify_huliu_identities`` walks each
compatibility identity on the region its ``order`` declares, once right
Leibniz and the Lie axioms hold.  On every set that meets those
preconditions the ordered walk must name the same first failing triple, or
none, as the full walk (which ``test_tables.py`` checks against the dense
loop): the exhaustive dim-2 sets, the ``block_upper(k,k)`` and Mat(n)
pairs, corpus pairs, and one-entry mutants of ``s`` that keep it
antisymmetric.
"""

import itertools
import random
import re
from fractions import Fraction

import pytest

import oracles
from leibkit._tables import (
    ASSOCIATIVITY,
    COMPATIBILITY,
    JACOBI,
    LEFT,
    Identity,
    Term,
    RIGHT_LEIBNIZ,
    _UNBOUNDED,
    _chain,
    _first_failing_triple,
    _walk,
    int_scaled,
    table_entries,
    table_from_dense,
    table_from_entries,
)
from leibkit.algebras import make_block_upper
from leibkit.derive import derive_huliu
from leibkit.fuzz import generate_corpus
from leibkit.leibniz import LeibnizAlgebra, verify_right_leibniz
from leibkit.xigroup import mat_square_zero_extension

ORDERED = (JACOBI, *COMPATIBILITY)


def _views(tables):
    return dict(zip(tables, int_scaled(list(tables.values())))), len(tables["s"])


def _same_triples(tables, counts):
    """Assert each ordered walk names the full walk's first failing triple;
    count the comparisons and the failing ones into ``counts`` by identity."""
    views, dim = _views(tables)
    for identity in ORDERED:
        full = _first_failing_triple(identity, views, dim)
        assert _first_failing_triple(identity, views, dim, ordered=True) == full, identity.name
        compared, failing = counts.get(identity.name, (0, 0))
        counts[identity.name] = compared + 1, failing + (full is not None)


def _antisymmetric_mutant(s, rng):
    """``s`` with s(e_i, e_j) and s(e_j, e_i) changed by opposite amounts at
    one coordinate, for some i != j."""
    dim = len(s)
    i, j = rng.sample(range(dim), 2)
    k = rng.randrange(dim)
    delta = rng.choice((1, -1, 2, Fraction(1, 2), Fraction(-2, 3)))
    return table_from_entries(dim, table_entries(s) + [(i, j, k, delta), (j, i, k, -delta)])


def _dim2_tables():
    return [table_from_dense([[flat[4 * i + 2 * j:4 * i + 2 * j + 2] for j in range(2)]
                              for i in range(2)])
            for flat in itertools.product((-1, 0, 1), repeat=8)]


def _dim2_sets():
    """The 41 right Leibniz tables and the 9 antisymmetric ones with
    entries in {-1, 0, 1}."""
    tables = _dim2_tables()
    angles = [t for t in tables if verify_right_leibniz(LeibnizAlgebra(t)).holds]
    squares = [t for t in tables if all(t[i][j] == tuple((k, -c) for k, c in t[j][i])
                                        for i in range(2) for j in range(2))]
    return angles, squares


def test_the_ordered_walk_matches_the_full_one_on_exhaustive_dim2_sets():
    angles, squares = _dim2_sets()
    assert (len(angles), len(squares)) == (41, 9)
    counts = {}
    for a, s in itertools.product(angles, squares):
        _same_triples({"a": a, "s": s}, counts)
    assert all(compared == 41 * 9 for compared, _ in counts.values())
    # no three indices differ at dim 2, so Jacobi holds; each compatibility
    # identity, C0 included, fails on some sets and holds on others
    assert counts.pop(JACOBI.name)[1] == 0
    assert all(0 < failing < compared for compared, failing in counts.values()), counts


def _pairs():
    graded = [make_block_upper(k, k) for k in range(1, 7)]
    graded += [mat_square_zero_extension(n)[0] for n in range(1, 5)]
    graded += [g for _, g in generate_corpus(11, 200, 3, 3)]
    for g in graded:
        h = derive_huliu(g)
        yield {"a": h.leibniz.angle, "s": h.square}


def test_the_ordered_walk_matches_the_full_one_on_derived_pairs_and_their_mutants():
    rng = random.Random(39)
    counts = {}
    for n, tables in enumerate(_pairs()):
        _same_triples(tables, counts)
        if len(tables["s"]) < 2:
            continue
        s = tables["s"]
        for _ in range(8 if len(s) <= 12 else 3 if len(s) <= 48 else 1):
            s = _antisymmetric_mutant(s if rng.random() < 0.5 else tables["s"], rng)
            _same_triples({**tables, "s": s}, counts)
    failing = sum(f for _, f in counts.values())
    compared = sum(c for c, _ in counts.values())
    assert 0 < failing < compared, (failing, compared)
    assert counts[JACOBI.name][1] > 0 and counts[COMPATIBILITY[3].name][1] > 0


def _chains(identity, tables, ordered):
    """How many products the walk of ``identity`` adds into its blocks."""
    added = 0

    class Block(dict):
        def __setitem__(self, key, value):
            nonlocal added
            added += 1
            dict.__setitem__(self, key, value)

    views, dim = _views(tables)
    bounds = identity._bounds if ordered else (_UNBOUNDED,) * len(identity._plan)
    walks = [_walk(term, views, dim, b) for term, b in zip(identity._plan, bounds)]
    for i in range(dim):
        block = Block()
        for walk in walks:
            walk(i, block)
    return added


def test_the_ordered_walk_adds_fewer_products():
    h = derive_huliu(make_block_upper(4, 4))
    pair = {"a": h.leibniz.angle, "s": h.square}
    full = sum(_chains(identity, pair, False) for identity in ORDERED)
    ordered = sum(_chains(identity, pair, True) for identity in ORDERED)
    assert ordered < full // 2
    assert _chains(JACOBI, pair, True) < _chains(JACOBI, pair, False) // 4
    # the derived pair gives C0 no products at all; on the dim-2 sets where it
    # has some, its ordered walk adds fewer of them
    assert _chains(COMPATIBILITY[0], pair, False) == 0
    fewer = 0
    for a, s in itertools.product(*_dim2_sets()):
        full, ordered = (_chains(COMPATIBILITY[0], {"a": a, "s": s}, o) for o in (False, True))
        assert ordered <= full
        fewer += ordered < full
    assert fewer > 0


def _admits(order):
    """The triples a chain such as "x<=z<y" admits, read from the text."""
    names = re.findall("[xyz]", order)
    relations = re.findall("<=|<", order)

    def admits(*ijk):
        value = dict(zip("xyz", ijk))
        return all(value[p] < value[q] if rel == "<" else value[p] <= value[q]
                   for p, rel, q in zip(names, relations, names[1:]))
    return admits


@pytest.mark.parametrize("order", ["x<y<z", "x<z<y", "x<=y<=z", "x<=z<y", "y<z", "z<y",
                                   "z<=y", "x<z", "x<=z", "x<y", "x<=y", ""])
def test_the_walk_of_any_chain_visits_the_triples_it_admits(order):
    # whatever the identity, an ordered walk names the first failing triple
    # among those the chain admits, as a dense loop over them does; the
    # empty chain admits every triple, so its walk is the full one
    rng = random.Random(order)
    admits = _admits(order)
    failing = checked = 0
    for dim in range(1, 6):
        for _ in range(6):
            tables = {name: table_from_entries(dim, [
                (i, j, k, rng.choice((-2, -1, 1, 2, "1/2"))) for i in range(dim)
                for j in range(dim) for k in range(dim) if rng.random() < 0.3])
                for name in "mas"}
            views = dict(zip(tables, int_scaled(list(tables.values()))))
            ints = dict(zip(tables, oracles.dense_int_scaled(list(tables.values()))))
            for declared in (ASSOCIATIVITY, RIGHT_LEIBNIZ, *ORDERED):
                identity = Identity(declared.name, declared.lhs, declared.rhs, order=order)
                ijk = oracles.dense_first_failing_triple(identity, ints, dim, admits)
                assert _first_failing_triple(identity, views, dim, ordered=True) == ijk
                failing += ijk is not None
                checked += 1
    assert 0 < failing < checked


@pytest.mark.parametrize("order, chain", [
    ("x<y<z", {0: (0, 0), 1: (1, 1), 2: (2, 2)}),
    ("x<=z<y", {0: (0, 0), 2: (1, 0), 1: (2, 1)}),
    ("y<=z", {1: (0, 0), 2: (1, 0)}),
    ("", {}),
    ("y<x", None),
    ("z<=x<y", None),
])
def test_an_order_is_a_chain_that_x_leads_when_it_names_it(order, chain):
    term = (Term("s", "s", LEFT, "xyz"),)
    if chain is None:
        with pytest.raises(ValueError, match="x must lead the order"):
            Identity("test", term, order=order)
    else:
        assert _chain(order) == chain

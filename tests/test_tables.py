"""The multiplication matrices of a structure table, built in one place,
and the integer scaling the exact checker walks.

``_tables.operators`` is checked against the independent builder in
``oracles.py`` on seeded random tables, for both sides.
"""

import math
import random

import pytest

from leibkit._tables import int_scaled, operators, table_from_entries

import oracles


def random_table(rng, dim):
    items = [(i, j, k, rng.choice((-2, -1, 1, 2, "1/2", "-3/2")))
             for i in range(dim) for j in range(dim) for k in range(dim)
             if rng.random() < 0.3]
    return table_from_entries(dim, items)


@pytest.mark.parametrize("seed", range(20))
def test_operators_match_the_oracle_builder(seed):
    rng = random.Random(seed)
    t = random_table(rng, rng.randint(1, 5))
    dim = len(t)
    expected = oracles.bracket_operators(t)  # right multiplications, then left
    assert operators(t, "right") == tuple(expected[:dim])
    assert operators(t, "left") == tuple(expected[dim:])


def test_operators_reject_an_unknown_side():
    with pytest.raises(ValueError, match="side"):
        operators(table_from_entries(1, []), "both")


@pytest.mark.parametrize("seed", range(10))
def test_int_scaled_multiplies_by_the_least_common_denominator(seed):
    rng = random.Random(seed)
    dim = rng.randint(1, 4)
    tables = [random_table(rng, dim) for _ in range(2)]
    d = 1
    for t in tables:
        for row in t:
            for v in row:
                for c in v:
                    d = d * c.denominator // math.gcd(d, c.denominator)
    for t, ints in zip(tables, int_scaled(tables)):
        for i in range(dim):
            for j in range(dim):
                assert ints[i][j] == tuple((k, int(c * d)) for k, c in enumerate(t[i][j]) if c)

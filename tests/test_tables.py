"""The multiplication matrices of a structure table, built in one place.

``_tables.operators`` is checked against the independent builder in
``oracles.py`` on seeded random tables, for both sides.
"""

import random

import pytest

from leibkit._tables import operators, table_from_entries

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

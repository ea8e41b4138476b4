"""The one-operator route of the simplicity classifier: the characteristic
polynomial of the one operator, certified irreducible by one small prime,
decides the module before Norton's draws."""

import random
from fractions import Fraction
from itertools import product

import pytest

from leibkit import leibniz, modules
from leibkit._poly import PRIMES, _squarefree, berlekamp_nullity, certifying_prime
from leibkit._tables import table_from_entries
from leibkit.leibniz import (LeibnizAlgebra, annihilator, classify_simplicity,
                             multiplication_operators)
from leibkit.linalg import Matrix, inverse
from leibkit.modules import OperatorModule, norton_irreducible, quotient, restriction

import oracles


def companion_algebra(coeffs):
    """Q x + Q^n with <v, x> = C v, C the companion matrix of the monic
    polynomial with the given lower coefficients."""
    return LeibnizAlgebra(table_from_entries(len(coeffs) + 1, oracles.companion_entries(coeffs)))


def rotation(p):
    return companion_algebra([1] * (p - 1))


def annihilator_module(alg):
    return restriction(OperatorModule(alg.dim, multiplication_operators(alg)), annihilator(alg))


def multiplicative_order(q, p):
    k, x = 1, q % p
    while x != 1:
        k, x = k + 1, x * q % p
    return k


ODD_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31)


@pytest.mark.parametrize("p", ODD_PRIMES)
def test_rotation_algebras_are_simple_with_the_certifying_prime(p):
    verdict = classify_simplicity(rotation(p))
    assert verdict.tag == "Simple"
    q = certifying_prime(annihilator_module(rotation(p)))
    # the first prime of the tuple that is a primitive root mod p: exactly
    # then is the cyclotomic polynomial of degree p - 1 irreducible mod q
    assert q == next(r for r in PRIMES if r != p and multiplicative_order(r, p) == p - 1)
    assert verdict.checks == (
        f"annihilator module irreducible (characteristic polynomial irreducible mod {q})",
        "quotient module irreducible", "no invariant complement of the annihilator")


def test_rotation_phi2_has_a_one_dimensional_annihilator_and_no_prime():
    verdict = classify_simplicity(rotation(2))
    assert verdict.tag == "Simple"
    assert verdict.checks[0] == "annihilator module irreducible"
    assert certifying_prime(annihilator_module(rotation(2))) is None


def test_rotation_phi251_from_entries_is_simple():
    verdict = classify_simplicity(rotation(251))
    assert verdict.tag == "Simple"
    assert verdict.checks[0] == (
        "annihilator module irreducible (characteristic polynomial irreducible mod 11)")


def test_rotation_phi7_is_the_dense_oracle_bracket():
    assert rotation(7).angle == LeibnizAlgebra(oracles.rotation_bracket(7)).angle


def test_phi8_is_reducible_mod_every_prime_and_stays_unknown():
    # x^4 + 1 is irreducible over Q but reducible mod every prime
    alg = companion_algebra([1, 0, 0, 0])
    mod = annihilator_module(alg)
    assert certifying_prime(mod) is None
    for q in PRIMES:
        f = [1 % q, 0, 0, 0, 1]
        assert not _squarefree(f, q) or berlekamp_nullity(f, q) > 1
    verdict = classify_simplicity(alg)
    assert (verdict.tag, verdict.reason) == (
        "Unknown", "irreducibility of the annihilator undecided within budget")


@pytest.mark.parametrize("entries, tag", [
    # 1 + x + ... + x^5 = (1 + x)(1 - x + x^2)(1 + x + x^2)
    (oracles.companion_entries([1] * 5), "NotSimple"),
    # (x^2 + 1)(x^2 + 2): a singular element p(T) needs p divisible by a
    # quadratic factor, which the draws do not hit, and e_0 .. e_3 are cyclic
    (oracles.companion_entries([2, 0, 3, 0]), "Unknown"),
    # 2 times the identity on Q^3: a scalar module
    ([(k, 0, k, 2) for k in (1, 2, 3)], "NotSimple"),
], ids=["reducible cyclotomic", "two quadratic factors", "scalar"])
def test_a_module_the_route_leaves_gets_the_verdict_of_the_test_without_it(
        monkeypatch, entries, tag):
    dim = 1 + max(i for i, _, _, _ in entries)
    alg = LeibnizAlgebra(table_from_entries(dim, entries))
    assert certifying_prime(annihilator_module(alg)) is None
    verdict = classify_simplicity(alg, seed=3)
    monkeypatch.setattr(leibniz, "certifying_prime", lambda mod: None)
    assert classify_simplicity(alg, seed=3) == verdict
    assert verdict.tag == tag


def _conjugated_companion(coeffs, rng):
    """A rational conjugate P C P^-1 of the companion matrix of the monic
    polynomial with the given lower coefficients."""
    n = len(coeffs)
    c = Matrix([[1 if i == j + 1 else 0 for j in range(n - 1)] + [-coeffs[i]] for i in range(n)])
    while True:
        p = Matrix([[Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
                    for _ in range(n)])
        if (p_inv := inverse(p)) is not None:
            return p @ c @ p_inv


def _decided_modules():
    for p in ODD_PRIMES:
        alg = rotation(p)
        yield annihilator_module(alg)
    rng = random.Random(5)
    # x^3 - 2 (Eisenstein), x^4 + x + 1 and x^2 + x/2 + 1/2, each conjugated
    # and given as several multiples of one operator, with a zero among them
    for coeffs in ([-2, 0, 0], [1, 1, 0, 0], [Fraction(1, 2), Fraction(1, 2)]):
        t = _conjugated_companion(coeffs, rng)
        n = len(coeffs)
        yield OperatorModule(n, (Matrix.zero(n, n), t, t.scale(2), t.scale(Fraction(-1, 3))))


@pytest.mark.parametrize("mod", list(_decided_modules()), ids=lambda m: f"dim {m.dim}")
def test_norton_answers_unknown_on_every_module_the_route_decides(monkeypatch, mod):
    # Q[T] is a field: each element Norton draws is 0 or invertible
    assert certifying_prime(mod) is not None
    monkeypatch.setattr(modules, "NORTON_BUDGET", 16)
    assert norton_irreducible(mod, random.Random(0)) == ("unknown", None)


def test_a_prime_dividing_a_denominator_is_skipped():
    # x^2 + x/2 + 1/2 has no reduction mod 2, and is irreducible mod 3
    t = _conjugated_companion([Fraction(1, 2), Fraction(1, 2)], random.Random(1))
    assert certifying_prime(OperatorModule(2, (t,))) == 3


def test_the_route_needs_one_operator_and_a_cyclic_e0():
    c = Matrix([[0, -1], [1, 0]])  # x^2 + 1, irreducible mod 3
    assert certifying_prime(OperatorModule(2, (c,))) == 3
    # two operators that are not multiples of one another
    assert certifying_prime(OperatorModule(2, (c, Matrix.identity(2)))) is None
    # C + C on Q^4: chi = (x^2 + 1)^2, and the Krylov space of e_0 is proper
    blocks = Matrix([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]])
    assert certifying_prime(OperatorModule(4, (blocks,))) is None
    # a zero module and a one-dimensional one are left to Norton
    assert certifying_prime(OperatorModule(2, (Matrix.zero(2, 2),))) is None
    assert certifying_prime(OperatorModule(1, (Matrix([[2]]),))) is None


def test_the_route_draws_nothing_and_its_quotient_is_one_dimensional():
    alg = rotation(7)
    mod = OperatorModule(alg.dim, multiplication_operators(alg))
    assert quotient(mod, annihilator(alg)).dim == 1

    rng = random.Random(0)
    state = rng.getstate()
    assert leibniz._irreducibility(annihilator_module(alg), rng) == (
        "irreducible", None, " (characteristic polynomial irreducible mod 3)")
    assert rng.getstate() == state


def _monic(q, n):
    return ([*low, 1] for low in product(range(q), repeat=n))


@pytest.mark.parametrize("q", [2, 3, 5])
def test_berlekamp_counts_the_distinct_factors_that_trial_division_finds(q):
    irreducibles = oracles.monic_irreducibles_mod(q, 3)
    rng = random.Random(q)
    for n in range(1, 7):
        fs = list(_monic(q, n))
        if len(fs) > 1000:
            fs = rng.sample(fs, 1000)
        for f in fs:
            mults = oracles.factor_multiplicities_mod(f, q, irreducibles)
            assert berlekamp_nullity(f, q) == len(mults), f
            assert _squarefree(f, q) == (max(mults) == 1), f


def test_the_oracle_counts_the_irreducibles_by_gauss_formula():
    # the number of monic irreducibles of degree n over GF(q) is
    # (1/n) sum over d | n of mu(d) q^(n/d)
    for q, counts in ((2, [2, 1, 2, 3, 6, 9]), (3, [3, 3, 8, 18, 48, 116])):
        found = oracles.monic_irreducibles_mod(q, 6)
        assert [sum(len(g) - 1 == n for g in found) for n in range(1, 7)] == counts

"""Randomized corpus of square-zero extensions and the cross-check driver.

Trials draw a small associative base algebra from known-associative families,
a bimodule action with integer constants, and an optional unimodular basis
twist; candidates violating the bimodule axioms or leaving the [-2, 2]
constant range are rejected and redrawn.  Per-trial seeds derive from the
run seed and the trial index through a stable hash so identical parameters
reproduce byte-identical reports.
"""

from __future__ import annotations

import hashlib
import os
import random
from fractions import Fraction

from ._tables import operators, table_entries, table_from_entries
from .algebras import (
    Algebra,
    BimoduleError,
    GradedAlgebra,
    make_trivial_extension,
    upper_triangular_model,
)
from .derive import derive_huliu, derive_leibniz
from .huliu import annihilator_abelian_check, is_huliu_ideal
from .leibniz import annihilator
from .linalg import Matrix, full_space, span

_MAX_CONSTANT = 2
_GENERATOR_RETRIES = 400


class FuzzGenerationError(RuntimeError):
    """The generator could not produce a valid algebra within its retry budget."""


def trial_seed(seed: int, index: int) -> int:
    digest = hashlib.sha256(f"{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def _split_idempotent(p: int) -> Algebra:
    return Algebra(table_from_entries(p, [(i, i, i, 1) for i in range(p)]))


def _chain_nilpotent(p: int) -> Algebra:
    entries = [(i, j, i + j + 1, 1) for i in range(p) for j in range(p) if i + j + 1 < p]
    return Algebra(table_from_entries(p, entries))


def _random_shear(rng: random.Random, q: int) -> tuple[Matrix, Matrix]:
    a = rng.randrange(q)
    b = rng.randrange(q)
    while b == a:
        b = rng.randrange(q)
    c = rng.choice((-1, 1))
    u = [[Fraction(1 if i == j else 0) for j in range(q)] for i in range(q)]
    uinv = [r[:] for r in u]
    u[a][b] = Fraction(c)
    uinv[a][b] = Fraction(-c)
    return Matrix(u), Matrix(uinv)


def _twist(rng: random.Random, lam, rho, q: int):
    """Conjugate the module basis by a random unimodular shear (or none)."""
    if q < 2 or rng.random() < 0.4:
        return lam, rho
    u, uinv = _random_shear(rng, q)
    return [u @ m @ uinv for m in lam], [u @ m @ uinv for m in rho]


def _strategy_split(rng: random.Random, p: int, q: int):
    lam = [[[0] * q for _ in range(q)] for _ in range(p)]
    rho = [[[0] * q for _ in range(q)] for _ in range(p)]
    for m in range(q):
        li = rng.randint(0, p)
        ri = rng.randint(0, p)
        if li:
            lam[li - 1][m][m] = 1
        if ri:
            rho[ri - 1][m][m] = 1
    return _split_idempotent(p), _twist(rng, list(map(Matrix, lam)), list(map(Matrix, rho)), q)


def _strategy_chain(rng: random.Random, p: int, q: int):
    a0 = _chain_nilpotent(p)
    n = [[Fraction(0)] * q for _ in range(q)]
    for i in range(q):
        for j in range(i + 1, q):
            if rng.random() < 0.7:
                n[i][j] = Fraction(rng.randint(-_MAX_CONSTANT, _MAX_CONSTANT))
    nm = Matrix(n)
    em = rng.choice((0, 1, 1, 2))
    cm = rng.randint(-_MAX_CONSTANT, _MAX_CONSTANT)
    mm = Matrix.zero(q, q)
    if em:
        mm = nm.scale(cm)
        for _ in range(em - 1):
            mm = mm @ nm
    powers_l = [nm]
    powers_r = [mm]
    for _ in range(1, p):
        powers_l.append(powers_l[-1] @ nm)
        powers_r.append(powers_r[-1] @ mm)
    return a0, (powers_l, powers_r)


def _strategy_one_dim(rng: random.Random, q: int):
    c = rng.choice((-2, -1, 0, 1, 2))
    a0 = Algebra(table_from_entries(1, [(0, 0, 0, c)] if c else []))

    def action() -> Matrix:
        rows = [[0] * q for _ in range(q)]
        if rng.random() >= 0.6 and c:
            rows = [[rng.choice((0, 0, 1, -1)) for _ in range(q)] for _ in range(q)]
        elif c:  # c * (an idempotent diagonal) always squares correctly
            for i in range(q):
                rows[i][i] = c * rng.choice((0, 1))
        elif q >= 2:  # c = 0 needs a square-zero matrix instead
            rows[0][q - 1] = rng.randint(-_MAX_CONSTANT, _MAX_CONSTANT)
        return Matrix(rows)

    lam, rho = [action()], [action()]
    return a0, _twist(rng, lam, rho, q)


def _strategy_triangular(rng: random.Random, q: int):
    a0 = upper_triangular_model().algebra
    zero = Matrix.zero(q, q)
    if q == 1:
        one = Matrix([[Fraction(1)]])
        lam = [one, zero, zero]          # E11 acts as 1 from the left
        rho = [zero, one, zero]          # E22 acts as 1 from the right
    elif q == 2:
        d1 = Matrix([[1, 0], [0, 0]])
        d2 = Matrix([[0, 0], [0, 1]])
        nil_up = Matrix([[0, 1], [0, 0]])
        nil_down = Matrix([[0, 0], [1, 0]])
        if rng.random() < 0.5:
            lam, rho = [d1, d2, nil_up], [zero, zero, zero]   # column module
        else:
            lam, rho = [zero, zero, zero], [d1, d2, nil_down]  # row module
    else:
        lam, rho = operators(a0.table, "left"), operators(a0.table, "right")
    return a0, _twist(rng, lam, rho, q)


def random_trivial_extension(rng: random.Random, max_dim0: int, max_dim1: int) -> GradedAlgebra:
    """One random valid square-zero extension with constants in [-2, 2]."""
    for _ in range(_GENERATOR_RETRIES):
        p = rng.randint(1, max_dim0)
        q = rng.randint(1, max_dim1)
        pick = rng.random()
        try:
            if p == 1 and pick < 0.45:
                a0, (lam, rho) = _strategy_one_dim(rng, q)
            elif p == 3 and q <= 3 and pick < 0.35:
                a0, (lam, rho) = _strategy_triangular(rng, q)
            elif pick < 0.7:
                a0, (lam, rho) = _strategy_split(rng, p, q)
            else:
                a0, (lam, rho) = _strategy_chain(rng, p, q)
            g = make_trivial_extension(a0, lam, rho)
        except (BimoduleError, ValueError):
            continue
        if all(c.denominator == 1 and abs(c) <= _MAX_CONSTANT
               for _, _, _, c in table_entries(g.algebra.table)):
            return g
    raise FuzzGenerationError(
        f"no valid extension within {_GENERATOR_RETRIES} draws (dims {max_dim0},{max_dim1})")


def generate_corpus(seed: int, trials: int, max_dim0: int, max_dim1: int):
    for index in range(trials):
        rng = random.Random(trial_seed(seed, index))
        yield index, random_trivial_extension(rng, max_dim0, max_dim1)


def _check_trial(g: GradedAlgebra) -> list[str]:
    """All derivation identities and cross-checks for one algebra.

    Returns a list of failed check names (empty means the trial passed).
    """
    bad = []
    try:
        hu = derive_huliu(g)
    except RuntimeError:
        try:  # name the layer that failed
            derive_leibniz(g)
        except RuntimeError:
            return ["derived bracket fails the right Leibniz identity"]
        return ["derived pair fails the Lie or compatibility identities"]
    try:
        ann = annihilator(hu.leibniz)
    except RuntimeError:
        return ["annihilator presentations disagree"]
    if not set(g.even).isdisjoint(i for b in ann.nonzeros for i, _ in b):
        bad.append("annihilator not inside the odd part")
    if not annihilator_abelian_check(hu).holds:
        bad.append("annihilator not abelian for the square bracket")
    zero = span([], g.dim)
    if not (is_huliu_ideal(hu, zero) and is_huliu_ideal(hu, ann)
            and is_huliu_ideal(hu, full_space(g.dim))):
        bad.append("ideal triple {0, annihilator, L} fails")
    return bad


def run_fuzz(trials: int, seed: int, dim0: int, dim1: int, writer,
             dump_dir: str = ".") -> int:
    """Drive the corpus through every verifier; 0 all pass, 1 any failure,
    2 when generation is infeasible.  Output is deterministic in the seed.
    Raises ValueError, writing nothing, unless all of trials, dim0, dim1 >= 1."""
    from .io import save_file

    if trials < 1 or dim0 < 1 or dim1 < 1:
        raise ValueError(f"fuzz needs trials, dim0 and dim1 >= 1, got {trials}, {dim0}, {dim1}")
    failures = 0
    try:
        for index, g in generate_corpus(seed, trials, dim0, dim1):
            bad = _check_trial(g)
            tag = f"trial {index:04d} dim {g.dim} (even {len(g.even)} odd {len(g.odd)})"
            if bad:
                failures += 1
                path = os.path.join(dump_dir, f"fuzz-failure-{seed}-{index:04d}.json")
                save_file(g, path)
                writer.write(f"{tag} FAIL: {'; '.join(bad)}; dumped {path}\n")
            else:
                writer.write(f"{tag} ok\n")
    except FuzzGenerationError as e:
        writer.write(f"fuzz: generation infeasible: {e}\n")
        return 2
    writer.write(
        f"fuzz: {trials - failures}/{trials} trials passed "
        f"(seed {seed}, dims <= {dim0}+{dim1})\n")
    return 0 if failures == 0 else 1

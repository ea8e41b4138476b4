"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The derivation criteria share one 500-algebra random corpus.
"""

import contextlib
import io
import itertools
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from leibkit import cli
from leibkit._tables import apply_table, table_from_dense
from leibkit.algebras import upper_triangular_model
from leibkit.derive import derive_huliu, derive_leibniz, verify_linear_embedding
from leibkit.fuzz import generate_corpus
from leibkit.huliu import is_huliu_ideal, verify_huliu_identities, verify_lie
from leibkit.leibniz import (
    LeibnizAlgebra,
    annihilator,
    classify_simplicity,
    verify_right_leibniz,
)
from leibkit.linalg import Matrix, full_space, span
from leibkit.xigroup import (
    LinearXiGroup,
    OrthogonalConstraints,
    check_xi_group,
    mat_square_zero_extension,
    tangent_space,
    verify_tangent_huliu,
)

import oracles

CORPUS_SEED = 20240717
CORPUS_SIZE = 500


def report(number, ok, text, elapsed=None):
    status = "PASS" if ok else "FAIL"
    suffix = f" [{elapsed:.1f}s]" if elapsed is not None else ""
    print(f"[{status}] criterion {number}: {text}{suffix}")


@pytest.fixture(scope="module")
def corpus():
    return [g for _, g in generate_corpus(CORPUS_SEED, CORPUS_SIZE, 3, 3)]


@pytest.fixture(scope="module")
def derived_pairs(corpus):
    return [derive_huliu(g) for g in corpus]


def test_criterion_1_derived_bracket_is_leibniz(corpus):
    start = time.time()
    ok = True
    for g in corpus:
        leib = LeibnizAlgebra(derive_leibniz(g).angle)  # re-verify from scratch
        if not verify_right_leibniz(leib).holds:
            ok = False
            break
    elapsed = time.time() - start
    report(1, ok and elapsed < 30,
           f"{CORPUS_SIZE} random square-zero extensions derive exact Leibniz brackets",
           elapsed)
    assert ok
    assert elapsed < 30


def test_criterion_2_derived_pair_is_huliu(corpus):
    start = time.time()
    ok = True
    for g in corpus:
        h = derive_huliu(g)
        if not (verify_lie(h.square).holds and verify_huliu_identities(h).holds):
            ok = False
            break
    elapsed = time.time() - start
    report(2, ok, f"{CORPUS_SIZE} derived pairs satisfy the Lie and all four "
                  "compatibility identities exactly", elapsed)
    assert ok


def _squares_span(angle):
    """Independent route: polarized generating set of bracket squares."""
    angle, dim = oracles.dense(angle), len(angle)
    gens = [angle[i][i] for i in range(dim)]
    for i in range(dim):
        for j in range(i + 1, dim):
            gens.append(tuple(angle[i][i][k] + angle[i][j][k] + angle[j][i][k]
                              + angle[j][j][k] for k in range(dim)))
    return span(gens, dim)


def _unimodular(rng, n):
    u = Matrix.identity(n)
    for _ in range(rng.randint(1, 2)):
        a, b = rng.sample(range(n), 2) if n > 1 else (0, 0)
        if a == b:
            continue
        rows = [list(r) for r in Matrix.identity(n).data]
        rows[a][b] = Fraction(rng.choice((-1, 1)))
        u = u @ Matrix(rows)
    return u


def _basis_change(angle, u, uinv):
    dim = len(angle)
    return table_from_dense([
        [list(uinv.matvec(apply_table(angle, u.col(i), u.col(j))))
         for j in range(dim)]
        for i in range(dim)])


def test_criterion_3_annihilator_presentations_agree(corpus):
    start = time.time()
    rng = random.Random(99)
    raws = []
    for g in corpus[:100]:
        angle = derive_leibniz(g).angle
        u = _unimodular(rng, len(angle))
        raws.append(_basis_change(angle, u, _inv(u)))
    ok = True
    for g in corpus:
        angle = derive_leibniz(g).angle
        if _squares_span(angle) != oracles.annihilator_by_symmetrization(angle):
            ok = False
            break
    if ok:
        for angle in raws:
            leib = LeibnizAlgebra(angle)
            assert verify_right_leibniz(leib).holds
            if (_squares_span(angle) != oracles.annihilator_by_symmetrization(angle)
                    or annihilator(leib) != _squares_span(angle)):
                ok = False
                break
    elapsed = time.time() - start
    report(3, ok, "bracket-square span equals symmetrized-bracket span on the "
                  "corpus plus 100 basis-changed raw tensors", elapsed)
    assert ok


def _inv(u):
    from leibkit.linalg import inverse
    got = inverse(u)
    assert got is not None
    return got


def test_criterion_4_annihilator_location(corpus, derived_pairs):
    start = time.time()
    ok = True
    for g, h in zip(corpus, derived_pairs):
        ann = annihilator(h.leibniz)
        if any(any(b[i] for i in g.even) for b in ann.basis):
            ok = False
            break
        for a in ann.basis:
            for b in ann.basis:
                if any(h.square_bracket(a, b)):
                    ok = False
                    break
    elapsed = time.time() - start
    report(4, ok, "annihilators live in the odd part and are abelian for the "
                  "square bracket, exactly", elapsed)
    assert ok


def test_criterion_5_ideal_triple(corpus, derived_pairs):
    start = time.time()
    ok = True
    for h in derived_pairs:
        ann = annihilator(h.leibniz)
        if not (is_huliu_ideal(h, span([], h.dim))
                and is_huliu_ideal(h, ann)
                and is_huliu_ideal(h, full_space(h.dim))):
            ok = False
            break
    elapsed = time.time() - start
    report(5, ok, "zero, annihilator, and the full space are two-bracket "
                  "ideals of every derived pair", elapsed)
    assert ok


def test_criterion_6_simplicity_matches_brute_force():
    start = time.time()
    checked = disagreements = 0
    nilpotent_verdict = None
    for dim in (1, 2):
        for flat in itertools.product((-1, 0, 1), repeat=dim ** 3):
            it = iter(flat)
            angle = table_from_dense(
                [[[next(it) for _ in range(dim)] for _ in range(dim)]
                 for _ in range(dim)])
            leib = LeibnizAlgebra(angle)
            if not verify_right_leibniz(leib).holds:
                continue
            checked += 1
            verdict = classify_simplicity(leib)
            assert verdict.tag != "Unknown"
            if verdict.tag != oracles.brute_force_simplicity(angle):
                disagreements += 1
            if dim == 2 and flat == (0, 0, 0, 0, 0, 0, 1, 0):
                nilpotent_verdict = verdict.tag
    elapsed = time.time() - start
    ok = disagreements == 0 and nilpotent_verdict == "Simple" and elapsed < 300
    report(6, ok, f"classifier agrees with the exhaustive ideal search on all "
                  f"{checked} small Leibniz brackets; the nilpotent example is "
                  f"Simple", elapsed)
    assert disagreements == 0
    assert nilpotent_verdict == "Simple"
    assert elapsed < 300


def test_criterion_7_orthogonal_tangents():
    start = time.time()
    ok = True
    details = []
    for n, want in ((2, 5), (3, 12)):
        g, r = mat_square_zero_extension(n)
        grp = LinearXiGroup(r, OrthogonalConstraints(n))
        t = tangent_space(grp)
        structure = verify_tangent_huliu(t, r)
        chk = check_xi_group(grp, samples=1000, seed=2024)
        details.append(f"n={n}: dim {t.subspace.dim}, worst {chk.worst_residual:.1e}")
        if not (t.subspace.dim == want and t.exact and structure.holds
                and chk.holds and chk.worst_residual <= 1e-9):
            ok = False
    elapsed = time.time() - start
    ok = ok and elapsed < 10
    report(7, ok, "; ".join(details), elapsed)
    assert ok


def test_criterion_8_curve_slopes():
    start = time.time()
    g, r = mat_square_zero_extension(2)
    grp = LinearXiGroup(r, OrthogonalConstraints(2))
    ts = [1e-1, 1e-2, 1e-3, 1e-4]
    skew = np.zeros(8)
    skew[1], skew[2] = -1.0, 1.0
    skew[4:] = [0.4, -0.3, 0.2, 0.1]
    tangent_slope = oracles.fitted_log_slope(
        ts, oracles.line_curve_residuals(grp, skew, ts))
    sym = np.zeros(8)
    sym[0], sym[3] = 1.0, -0.5
    sym[1] = sym[2] = 0.25
    non_tangent_slope = oracles.fitted_log_slope(
        ts, oracles.line_curve_residuals(grp, sym, ts))
    ok = tangent_slope >= 1.8 and abs(non_tangent_slope - 1.0) <= 0.1
    elapsed = time.time() - start
    report(8, ok, f"first-order curve residual slopes: tangent "
                  f"{tangent_slope:.2f} (>= 1.8), symmetric "
                  f"{non_tangent_slope:.2f} (1.0 +/- 0.1)", elapsed)
    assert ok


def test_criterion_9_fuzz_determinism(tmp_path):
    start = time.time()
    outputs = []
    for _ in range(2):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["fuzz", "--trials", "100", "--seed", "7",
                             "--dump-dir", str(tmp_path)])
        assert code == 0
        outputs.append(buf.getvalue())
    ok = outputs[0] == outputs[1] and "100/100" in outputs[0]
    elapsed = time.time() - start
    report(9, ok, "two fuzz runs with --trials 100 --seed 7 are byte-identical",
           elapsed)
    assert ok


def test_criterion_10_embedding_witness():
    start = time.time()
    ut = upper_triangular_model()
    # <e2,e2> = e1, <e1,e2> = -e1: the simple 2-dim algebra carried by the
    # image of the stated map inside the derived upper-triangular algebra
    algebra = LeibnizAlgebra([[[0, 0], [-1, 0]], [[0, 0], [1, 0]]])
    assert classify_simplicity(algebra).tag == "Simple"
    phi = Matrix.from_cols([(0, 0, -1), (1, 0, 1)])  # e1 -> -E12, e2 -> E11+E12
    rep = verify_linear_embedding(algebra, ut, phi)
    ok = rep.holds and rep.injective
    elapsed = time.time() - start
    report(10, ok, "the dim-2 simple algebra embeds injectively via "
                   "e1 -> -E12, e2 -> E11+E12", elapsed)
    assert ok

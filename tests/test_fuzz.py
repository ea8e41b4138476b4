import hashlib
import io

import pytest

from leibkit import fuzz
from leibkit import io as lio
from leibkit._tables import table_entries
from leibkit.algebras import verify_associative, verify_special_grading
from leibkit.huliu import HuLiuAlgebra
from leibkit.leibniz import LeibnizAlgebra
from leibkit.report import fail


def test_trial_seed_stable_and_spread():
    assert fuzz.trial_seed(7, 0) == fuzz.trial_seed(7, 0)
    seeds = {fuzz.trial_seed(7, i) for i in range(50)}
    assert len(seeds) == 50


def test_corpus_members_are_valid():
    for _, g in fuzz.generate_corpus(seed=31, trials=40, max_dim0=3, max_dim1=3):
        assert verify_associative(g.algebra).holds
        assert verify_special_grading(g).holds
        assert 1 <= len(g.even) <= 3 and 1 <= len(g.odd) <= 3
        for _, _, _, c in table_entries(g.algebra.table):
            assert c.denominator == 1 and abs(c) <= 2


@pytest.mark.parametrize("cls, message", [
    (LeibnizAlgebra, "derived bracket fails the right Leibniz identity"),
    (HuLiuAlgebra, "derived pair fails the Lie or compatibility identities"),
], ids=["leibniz", "huliu"])
def test_a_trial_names_the_derived_layer_that_fails(monkeypatch, cls, message):
    # a derived structure failing its identities is a bug; the trial names its layer
    _, g = next(fuzz.generate_corpus(seed=3, trials=1, max_dim0=2, max_dim1=2))
    assert fuzz._check_trial(g) == []
    monkeypatch.setattr(cls, "report", lambda self: fail("planted", (), (), (), note="nowhere"))
    assert fuzz._check_trial(g) == [message]


def test_run_fuzz_deterministic():
    a, b = io.StringIO(), io.StringIO()
    assert fuzz.run_fuzz(30, 9, 3, 3, a) == 0
    assert fuzz.run_fuzz(30, 9, 3, 3, b) == 0
    assert a.getvalue() == b.getvalue()
    assert "30/30 trials passed" in a.getvalue()


def test_run_fuzz_output_pinned(tmp_path):
    buf = io.StringIO()
    assert fuzz.run_fuzz(100, 7, 3, 3, buf, dump_dir=str(tmp_path)) == 0
    digest = hashlib.sha256(buf.getvalue().encode()).hexdigest()
    assert digest == "706f46303f0b0e249c6ba111e8fcf04062332f88689c6752ba0de836ee54129f"


def test_run_fuzz_bad_params(monkeypatch):
    buf = io.StringIO()
    for args in ((0, 1, 3, 3), (5, 1, 0, 3), (5, 1, 3, -1)):
        with pytest.raises(ValueError, match=">= 1"):
            fuzz.run_fuzz(*args, buf)
    assert buf.getvalue() == ""

    def infeasible(rng, max_dim0, max_dim1):
        raise fuzz.FuzzGenerationError("no valid extension")

    monkeypatch.setattr(fuzz, "random_trivial_extension", infeasible)
    assert fuzz.run_fuzz(5, 1, 3, 3, buf) == 2
    assert buf.getvalue() == "fuzz: generation infeasible: no valid extension\n"


def test_run_fuzz_failure_dumps_replayable_file(tmp_path, monkeypatch):
    real = fuzz._check_trial

    def flaky(g):
        flaky.count += 1
        return ["synthetic failure"] if flaky.count == 3 else real(g)

    flaky.count = 0
    monkeypatch.setattr(fuzz, "_check_trial", flaky)
    buf = io.StringIO()
    assert fuzz.run_fuzz(5, 13, 2, 2, buf, dump_dir=str(tmp_path)) == 1
    out = buf.getvalue()
    assert "FAIL: synthetic failure" in out and "4/5 trials passed" in out
    dumped = list(tmp_path.glob("fuzz-failure-*.json"))
    assert len(dumped) == 1
    replayed = lio.load_file(dumped[0])
    # the dumped algebra replays: same tables as the trial that "failed"
    trial_index = int(dumped[0].stem.split("-")[-1])
    regenerated = dict(fuzz.generate_corpus(13, 5, 2, 2))[trial_index]
    assert replayed.algebra.table == regenerated.algebra.table
    assert replayed.even == regenerated.even

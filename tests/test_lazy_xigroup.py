"""numpy loads only with ``leibkit.xigroup``, on the first use of a xi-group.

The package's xi-group names resolve through a module ``__getattr__``, and
``io`` and ``cli`` import ``xigroup`` only where a xi-group file is loaded
or a xi-group command runs.  Each exact command is run in a fresh
interpreter in which ``import numpy`` fails, and must print what it prints,
with the same exit code, in one where numpy is importable but never loaded.
"""

import hashlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import leibkit
from leibkit import cli
from leibkit import io as lio
from leibkit.algebras import make_block_upper, upper_triangular_model
from leibkit.derive import derive_leibniz
from leibkit.leibniz import LeibnizAlgebra
from leibkit.linalg import span
from leibkit.xigroup import LinearXiGroup, OrthogonalConstraints, mat_square_zero_extension

import oracles

SRC = str(Path(leibkit.__file__).resolve().parents[1])

# (arguments, exit code, sha256 of stdout or None); "{d}" is the directory
# of the input files
COMMANDS = [
    (["verify", "{d}/L.json", "--kind", "leibniz"], 0, None),
    (["verify", "{d}/bad.json", "--kind", "leibniz", "--json"], 1, None),
    (["verify", "{d}/g.json", "--kind", "grading"], 0, None),
    (["derive", "{d}/g.json", "--huliu", "-o", "{d}/h.json"], 0, None),
    (["verify", "{d}/h.json", "--kind", "huliu", "--json"], 0, None),
    (["derive", "{d}/g.json", "-o", "{d}/L2.json"], 0, None),
    (["simple", "{d}/L.json", "--json"], 1, None),
    (["simple", "{d}/simple.json"], 0, None),
    (["annihilator", "{d}/L.json", "--json"], 0, None),
    (["annihilator", "{d}/bad.json"], 2, None),
    (["fuzz", "--trials", "5", "--seed", "2", "--dump-dir", "{d}"], 0, None),
    (["simple", "{d}/sl2-v8.json", "--json"], 0,
     "0d493efabef7e7fd6ea2cbf884b039fc16d3af873111d603b7d4c07eac147da9"),
    (["annihilator", "{d}/sl2-v8.json", "--json"], 0,
     "35c42dd0b2be17b01985e653c32fcb739367ac9873d53bdaa4540226f457b9a3"),
    (["fuzz", "--trials", "100", "--seed", "7", "--dump-dir", "{d}"], 0,
     "706f46303f0b0e249c6ba111e8fcf04062332f88689c6752ba0de836ee54129f"),
    (["derive", "{d}/bu.json", "--huliu", "-o", "{d}/bu-pair.json"], 0, None),
]

# writes the inputs with save_file, beside the ones the test writes, then
# runs COMMANDS through cli.main;
# prints {"codes": [...], "out": [...], "numpy": whether numpy got loaded}
SCRIPT = """
import contextlib, io, json, sys
from pathlib import Path
if sys.argv[3] == "blocked":
    sys.modules["numpy"] = None
import leibkit
from leibkit import cli
from leibkit import io as lio
d, commands = Path(sys.argv[1]), json.loads(sys.argv[2])
g = leibkit.upper_triangular_model()
lio.save_file(g, d / "g.json")
lio.save_file(leibkit.derive_leibniz(g), d / "L.json")
lio.save_file(leibkit.LeibnizAlgebra([[[1]]]), d / "bad.json")
lio.save_file(leibkit.LeibnizAlgebra([[[0, 0], [0, 0]], [[0, 0], [1, 0]]]), d / "simple.json")
codes, outs = [], []
for argv in commands:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        codes.append(cli.main([a.replace("{d}", str(d)) for a in argv]))
    outs.append(buf.getvalue().replace(str(d), "{d}"))
print(json.dumps({"codes": codes, "out": outs,
                  "numpy": sys.modules.get("numpy") is not None}))
"""


def run(script, *args):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])}
    done = subprocess.run([sys.executable, "-c", script, *map(str, args)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_exact_commands_run_without_numpy(tmp_path):
    commands = [argv for argv, _, _ in COMMANDS]
    for name in ("blocked", "normal"):
        # sl2 + V_8 is built by the test oracles, which need numpy
        (tmp_path / name).mkdir()
        lio.save_file(LeibnizAlgebra(oracles.sl2_semidirect((8,))), tmp_path / name / "sl2-v8.json")
        lio.save_file(make_block_upper(2, 2), tmp_path / name / "bu.json")
    blocked = run(SCRIPT, tmp_path / "blocked", json.dumps(commands), "blocked")
    normal = run(SCRIPT, tmp_path / "normal", json.dumps(commands), "normal")
    assert blocked["codes"] == [code for _, code, _ in COMMANDS]
    assert not blocked["numpy"] and not normal["numpy"]
    assert blocked == normal
    for (_, _, digest), out in zip(COMMANDS, blocked["out"]):
        assert digest is None or hashlib.sha256(out.encode()).hexdigest() == digest
    for name in ("h.json", "L2.json", "bu-pair.json"):
        assert ((tmp_path / "blocked" / name).read_text()
                == (tmp_path / "normal" / name).read_text())
    pair = (tmp_path / "blocked" / "bu-pair.json").read_bytes()
    assert (hashlib.sha256(pair).hexdigest()
            == "56ced1dacd70d17cce40c700ef623f4365de0332f7517d2ad1629cdf5271cf12")


def test_xigroup_file_loads_and_saves_in_a_fresh_interpreter(tmp_path):
    # nothing has imported leibkit.xigroup when the file is loaded
    grp = LinearXiGroup(mat_square_zero_extension(2)[1], OrthogonalConstraints(2),
                        span([(1, 0, 0, 0)], 4), 1e-8)
    path = tmp_path / "x.json"
    lio.save_file(grp, path)
    script = ("import json, sys, leibkit.io as lio; "
              "assert 'leibkit.xigroup' not in sys.modules; "
              "obj = lio.load_file(sys.argv[1]); "
              "print(json.dumps([type(obj).__name__, lio.dumps(obj)]))")
    assert run(script, path) == ["LinearXiGroup", path.read_text()]
    script = ("import json, sys; from leibkit import cli; "
              "print(json.dumps(cli.main(['verify', sys.argv[1], '--kind', 'grading'])))")
    assert run(script, path) == 0


def test_xigroup_names_resolve_on_the_package(monkeypatch):
    from leibkit import check_xi_group
    from leibkit import xigroup

    assert leibkit.LinearXiGroup is xigroup.LinearXiGroup
    assert check_xi_group is xigroup.check_xi_group
    assert {"LinearXiGroup", "check_xi_group", "xi", "classify_simplicity"} <= set(dir(leibkit))
    # looked up on each access, never stored on the package, so rebinding the
    # function on its module is seen through the package
    assert "check_xi_group" not in vars(leibkit)
    monkeypatch.setattr(xigroup, "check_xi_group", len)
    assert leibkit.check_xi_group is len
    with pytest.raises(AttributeError, match="no_such_name"):
        leibkit.no_such_name
    with pytest.raises(ImportError):
        from leibkit import no_such_name  # noqa: F401


PUBLIC_NAMES = {
    "Algebra", "BimoduleError", "CurveReport", "GradedAlgebra", "HomReport", "HuLiuAlgebra",
    "LeibnizAlgebra", "LinearXiGroup", "Matrix", "MatrixRealization", "NoConstraints",
    "NotAUnitError", "OrthogonalConstraints", "Report", "SamplingError", "SchemaError",
    "SimplicityVerdict", "SpecialLinearConstraints", "Subspace", "TangentSpace",
    "UnipotentConstraints", "Witness", "XiGroupReport", "annihilator",
    "annihilator_abelian_check", "check_huliu_homomorphism", "check_leibniz_homomorphism",
    "check_xi_group", "classify_huliu_simplicity", "classify_simplicity", "constraint_family",
    "derive_huliu", "derive_leibniz", "dual_numbers", "exp_curve_check", "expm", "find_unit",
    "full_space", "generate_corpus", "ideal_closure", "invert_unit", "is_huliu_ideal",
    "is_huliu_subalgebra", "is_ideal", "kernel", "load_file", "make_block_upper",
    "make_trivial_extension", "mat_square_zero_extension", "matrix_algebra",
    "regular_realization", "run_fuzz", "save_file", "span", "tangent_space",
    "upper_triangular_model", "verify_associative", "verify_group_closure",
    "verify_huliu_identities", "verify_lie", "verify_linear_embedding", "verify_right_leibniz",
    "verify_special_grading", "verify_tangent_huliu", "xi",
}


def test_public_names_on_the_package():
    names = {n for n in dir(leibkit)
             if not n.startswith("_") and not inspect.ismodule(getattr(leibkit, n))}
    assert names == PUBLIC_NAMES


def test_cli_tangent_and_verify_on_an_xigroup_file(tmp_path, capsys):
    grp = LinearXiGroup(mat_square_zero_extension(2)[1], OrthogonalConstraints(2))
    path = str(tmp_path / "x.json")
    lio.save_file(grp, path)
    assert cli.main(["verify", path, "--kind", "assoc"]) == 0
    assert cli.main(["tangent", path]) == 0
    leib = str(tmp_path / "L.json")
    lio.save_file(derive_leibniz(upper_triangular_model()), leib)
    assert cli.main(["tangent", leib]) == 2
    assert cli.main(["xi-check", leib]) == 2
    assert "needs an xigroup file" in capsys.readouterr().err

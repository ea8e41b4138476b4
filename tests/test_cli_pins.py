"""The CLI's outputs on fixed inputs, run in-process through ``cli.main``.

``PINS`` holds the sha256 digests of ``--json`` reports and written files
that no other test module pins.  The CI workflow reruns a few pinned
outputs through the installed ``leibkit`` script, under wall-time bounds,
and a test below fails when it checks a digest that no test module holds.
The text tests below hold the plain output of each command.
"""

import hashlib
import json
import re
from pathlib import Path

import pytest

from leibkit import cli
from leibkit import io as lio
from leibkit._tables import table_from_entries
from leibkit.algebras import dual_numbers, make_block_upper
from leibkit.derive import derive_huliu
from leibkit.huliu import HuLiuAlgebra
from leibkit.leibniz import LeibnizAlgebra
from leibkit.linalg import span
from leibkit.xigroup import (
    LinearXiGroup,
    OrthogonalConstraints,
    constraint_family,
    mat_square_zero_extension,
)

import oracles


def sl2_module(*ns):
    """sl2 + V_n1 + ..., saved as the dense ``oracles.sl2_semidirect(ns)`` saves,
    without its dim^3 cells (16.7 million at V_252)."""
    return LeibnizAlgebra(table_from_entries(3 + sum(n + 1 for n in ns),
                                             oracles.sl2_semidirect_entries(ns)))


def orthogonal_mat(n, odd=None):
    return LinearXiGroup(mat_square_zero_extension(n)[1], OrthogonalConstraints(n), odd)


def mat2_group(family):
    return LinearXiGroup(mat_square_zero_extension(2)[1], constraint_family(family))


SIMPLE = "0d493efabef7e7fd6ea2cbf884b039fc16d3af873111d603b7d4c07eac147da9"

# (id, input, arguments, exit code, sha256); the input is saved as "{in}",
# and the digest is of the file "{out}" when the arguments name it, of
# stdout when they do not, and of the saved input when there are none
PINS = [
    *[(f"simple sl2-v{n}", lambda n=n: sl2_module(n), ["simple", "{in}", "--json"], 0, SIMPLE)
      for n in (8, 16, 32, 64, 128, 252)],
    ("simple block_upper(2,2) pair", lambda: derive_huliu(make_block_upper(2, 2)),
     ["simple", "{in}", "--json"], 1,
     "d14a7c51f5b6d4c3a3dc63abdda23ab99406cd87c07e81a5681570cdb65ec477"),
    ("simple phi7", lambda: LeibnizAlgebra(oracles.rotation_bracket(7)),
     ["simple", "{in}", "--json"], 0,
     "81f95f127ae05882c15c226c423361afbac56e183966c62cf5f0f652363812e6"),
    ("simple sl2-v3-v4", lambda: sl2_module(3, 4), ["simple", "{in}", "--json"], 1,
     "f7e25d525b9615620b5e46c1b883dbd6a0e37e79ea8a0801f81325185cfab455"),
    ("simple Mat(2) pair", lambda: derive_huliu(mat_square_zero_extension(2)[0]),
     ["simple", "{in}", "--json"], 1,
     "a0e2ba185a1a2d703f8be216c307cb5eaee770f6b51ca989b094f720ab32a721"),
    ("tangent orthogonal Mat(3)", lambda: orthogonal_mat(3), ["tangent", "{in}", "--json"], 0,
     "5f2bc34c50aff4120e4a1a338376ad821a441b4e3a83efd988af843fc415c2db"),
    ("tangent orthogonal Mat(3), one odd line",
     lambda: orthogonal_mat(3, span([[1] + [0] * 8], 9)), ["tangent", "{in}", "--json"], 1,
     "4336ea0aaf59e048042a0a03aeb7faa016a6f5ea915e7c14c6d252ba0b6303bc"),
    ("tangent Mat(2) none", lambda: mat2_group("none"), ["tangent", "{in}", "--json"], 0,
     "00d801cc340e30ee0d4ea0be3cf431f2ff0b266316789f1859eb7929adeb7c87"),
    ("tangent Mat(2) unipotent-block", lambda: mat2_group("unipotent-block"),
     ["tangent", "{in}", "--json"], 0,
     "3b04d1de87f829eff114869155e4a3689b8bcc559c2b437a2124f2be17c313cd"),
    ("saved Mat(3) extension", lambda: mat_square_zero_extension(3)[0], [], 0,
     "4946933e08152c15d8f7ba1cb3fc56ac47cbfbd7746ac228b2fa92a974955c76"),
    ("saved dual numbers", dual_numbers, [], 0,
     "91ba5c60ef7469fe363069a436466dbb31de2ab77434d0dc6acc579af233163e"),
    ("derive Mat(3) pair", lambda: mat_square_zero_extension(3)[0],
     ["derive", "{in}", "--huliu", "-o", "{out}"], 0,
     "e66a6f0b6743da1cbe02d61ef7f39e290fda4f264d4146b208304ade115af669"),
    ("annihilator Mat(3) pair", lambda: derive_huliu(mat_square_zero_extension(3)[0]),
     ["annihilator", "{in}", "--json"], 0,
     "f3a35b59406635602cdf637835f068b1bff23ff21803f17ccbd1df0d736e26f8"),
]


@pytest.mark.parametrize("make, args, status, digest", [p[1:] for p in PINS],
                         ids=[p[0] for p in PINS])
def test_cli_output_is_pinned(tmp_path, capsys, make, args, status, digest):
    paths = {"{in}": tmp_path / "in.json", "{out}": tmp_path / "out.json"}
    lio.save_file(make(), paths["{in}"])
    if args:
        assert cli.main([str(paths.get(a, a)) for a in args]) == status
    stdout = capsys.readouterr().out
    pinned = (paths["{out}"].read_bytes() if "{out}" in args else stdout.encode() if args
              else paths["{in}"].read_bytes())
    assert hashlib.sha256(pinned).hexdigest() == digest


def test_every_digest_the_workflow_pins_is_pinned_by_a_test():
    root = Path(__file__).resolve().parents[1]
    workflow = (root / ".github" / "workflows" / "tests.yml").read_text()
    tests = "".join(p.read_text() for p in (root / "tests").glob("*.py"))
    assert {d for d in re.findall(r"\b[0-9a-f]{64}\b", workflow) if d not in tests} == set()


def test_dim_192_block_upper_8_pair_is_never_called_simple(tmp_path, capsys):
    path = str(tmp_path / "pair.json")
    lio.save_file(derive_huliu(make_block_upper(8, 8)), path)
    status = cli.main(["simple", path, "--json"])
    verdict = json.loads(capsys.readouterr().out)["verdict"]
    assert (status, verdict) in ((1, "NotSimple"), (3, "Unknown"))


def run(tmp_path, capsys, obj, *args):
    """Exit code and stdout of ``args`` with obj saved as "{in}"; stderr must be empty."""
    path = tmp_path / "in.json"
    lio.save_file(obj, path)
    status = cli.main([str(path) if a == "{in}" else a for a in args])
    out, err = capsys.readouterr()
    assert err == ""
    return status, out


def test_simple_text_of_a_simple_algebra_lists_its_checks(tmp_path, capsys):
    assert run(tmp_path, capsys, sl2_module(8), "simple", "{in}") == (0, (
        "Simple: only ideals are 0, the annihilator, and L\n"
        "  checked: annihilator module irreducible\n"
        "  checked: quotient module irreducible\n"
        "  checked: no invariant complement of the annihilator\n"))


def test_simple_text_of_a_pair_that_is_not_simple_lists_its_certificate(tmp_path, capsys):
    pair = derive_huliu(make_block_upper(2, 2))
    assert run(tmp_path, capsys, pair, "simple", "{in}") == (1, (
        "NotSimple: ideal strictly between the annihilator and L\n"
        "  certificate ideal basis:\n"
        "    (1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0)\n"
        "    (0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0)\n"
        "    (0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0)\n"
        "    (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0)\n"
        "    (0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1)\n"))


def test_simple_text_of_an_undecided_algebra(tmp_path, capsys):
    # the rotation by the companion of x^4 + 1, which is reducible mod every prime
    phi8 = LeibnizAlgebra(table_from_entries(5, oracles.companion_entries([1, 0, 0, 0])))
    assert run(tmp_path, capsys, phi8, "simple", "{in}") == (
        3, "Unknown: irreducibility of the annihilator undecided within budget\n")


def test_tangent_text_when_the_structure_holds(tmp_path, capsys):
    assert run(tmp_path, capsys, orthogonal_mat(2), "tangent", "{in}") == (0, (
        "tangent space dimension 5 (exact)\n"
        "  (0, 1, -1, 0, 0, 0, 0, 0)\n"
        "  (0, 0, 0, 0, 1, 0, 0, 0)\n"
        "  (0, 0, 0, 0, 0, 1, 0, 0)\n"
        "  (0, 0, 0, 0, 0, 0, 1, 0)\n"
        "  (0, 0, 0, 0, 0, 0, 0, 1)\n"
        "holds: tangent Hu-Liu structure\n"))


def test_tangent_text_when_the_structure_fails(tmp_path, capsys):
    group = orthogonal_mat(2, span([(1, 0, 0, 0)], 4))
    assert run(tmp_path, capsys, group, "tangent", "{in}") == (1, (
        "tangent space dimension 2 (exact)\n"
        "  (0, 1, -1, 0, 0, 0, 0, 0)\n"
        "  (0, 0, 0, 0, 1, 0, 0, 0)\n"
        "falsified: closure under the square bracket (bracket value leaves the tangent space)\n"
        "  input (0, 1, -1, 0, 0, 0, 0, 0)\n"
        "  input (0, 0, 0, 0, 1, 0, 0, 0)\n"
        "  lhs (0, 0, 0, 0, 0, -1, -1, 0)\n"
        "  rhs (0, 0, 0, 0, 0, 0, 0, 0)\n"))


@pytest.mark.parametrize("make, kind, identity", [
    (lambda: sl2_module(8), "leibniz", "right Leibniz identity"),
    (lambda: derive_huliu(make_block_upper(2, 2)), "huliu", "compatibility identities"),
], ids=["leibniz", "huliu"])
def test_verify_text_when_the_identities_hold(tmp_path, capsys, make, kind, identity):
    assert run(tmp_path, capsys, make(), "verify", "{in}", "--kind", kind) == (
        0, f"holds: {identity}\n")


@pytest.mark.parametrize("flags, kind, cls", [
    ([], "leibniz", LeibnizAlgebra), (["--huliu"], "huliu", HuLiuAlgebra),
], ids=["leibniz", "huliu"])
def test_derive_text_names_the_file_it_wrote(tmp_path, capsys, flags, kind, cls):
    out = str(tmp_path / "out.json")
    assert run(tmp_path, capsys, make_block_upper(2, 2), "derive", "{in}", *flags, "-o", out) == (
        0, f"wrote {kind} file {out}\n")
    assert isinstance(lio.load_file(out), cls)


@pytest.mark.parametrize("odd, status, verdict", [
    (None, 0, "holds"), (span([(1, 0, 0, 0)], 4), 1, "violated"),
], ids=["orthogonal Mat(2)", "one odd line"])
def test_xi_check_text_format(tmp_path, capsys, odd, status, verdict):
    # only the format: the residual's digits may differ across BLAS builds
    code, out = run(tmp_path, capsys, orthogonal_mat(2, odd), "xi-check", "{in}",
                    "--samples", "30")
    assert code == status
    assert re.fullmatch(r"conjugation stability over 30 samples: "
                        rf"worst residual \d\.\d{{3}}e[-+]\d\d \({verdict}\)\n", out)


@pytest.mark.parametrize("odd, status", [
    (None, 0), (span([[1] + [0] * 8], 9), 1),
], ids=["orthogonal Mat(3)", "one odd line"])
def test_xi_check_json_at_the_default_sample_count_decides(tmp_path, capsys, odd, status):
    # the verdict only: the residual's digits may differ across BLAS builds
    code, out = run(tmp_path, capsys, orthogonal_mat(3, odd), "xi-check", "{in}", "--json")
    assert code == status
    assert json.loads(out)["holds"] is (status == 0)

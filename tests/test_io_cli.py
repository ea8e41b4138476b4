import hashlib
import json
import re
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from leibkit import cli
from leibkit import io as lio
from leibkit._tables import table_entries, table_from_entries
from leibkit.algebras import Algebra, GradedAlgebra, dual_numbers, make_block_upper
from leibkit.derive import derive_huliu, derive_leibniz
from leibkit.huliu import HuLiuAlgebra
from leibkit.leibniz import LeibnizAlgebra, eval_right_leibniz
from leibkit.linalg import Matrix, span
from leibkit.xigroup import (
    ConstraintFamily,
    LinearXiGroup,
    NoConstraints,
    OrthogonalConstraints,
    SamplingError,
    SpecialLinearConstraints,
    UnipotentConstraints,
    check_xi_group,
    mat_square_zero_extension,
    regular_realization,
    tangent_space,
)

import oracles


def test_graded_roundtrip(tmp_path, ut_model):
    p = tmp_path / "g.json"
    lio.save_file(ut_model, p)
    loaded = lio.load_file(p)
    assert isinstance(loaded, GradedAlgebra)
    assert loaded.algebra.table == ut_model.algebra.table
    assert loaded.even == ut_model.even
    assert loaded.algebra.basis_names == ut_model.algebra.basis_names
    assert loaded.algebra.unit == ut_model.algebra.unit  # re-solved on load


def test_huliu_roundtrip(tmp_path, ut_model):
    h = derive_huliu(ut_model)
    p = tmp_path / "h.json"
    lio.save_file(h, p)
    loaded = lio.load_file(p)
    assert isinstance(loaded, HuLiuAlgebra)
    assert loaded.leibniz.angle == h.leibniz.angle
    assert loaded.square == h.square


@pytest.mark.parametrize("family", [
    NoConstraints(), OrthogonalConstraints(2), SpecialLinearConstraints(2), UnipotentConstraints(),
], ids=lambda f: f.name)
@pytest.mark.parametrize("odd", [None, span([(1, 0, 0, 0)], 4)], ids=["all-odd", "one-odd-line"])
def test_xigroup_roundtrip(tmp_path, family, odd):
    g2, r2 = mat_square_zero_extension(2)
    grp = LinearXiGroup(r2, family, odd, 1e-8)
    p = tmp_path / "x.json"
    lio.save_file(grp, p)
    loaded = lio.load_file(p)
    assert isinstance(loaded, LinearXiGroup)
    assert loaded.constraints.name == family.name
    assert loaded.constraints.params() == family.params()
    assert loaded.odd_subspace == grp.odd_subspace
    assert loaded.tolerance == 1e-8
    assert lio.dumps(loaded) == p.read_text()
    assert tangent_space(loaded).subspace.dim == tangent_space(grp).subspace.dim


@pytest.mark.parametrize("mutate, message", [
    (lambda d: d.update(extra=1), "unknown fields"),
    (lambda d: d.pop("product"), "missing fields"),
    (lambda d: d.update(kind="nope"), "unknown or missing kind"),
    (lambda d: d["product"].append([9, 0, 0, "1"]), "out of range"),
    (lambda d: d["product"].append([0, 0, 0, "1/0"]), "bad rational"),
    (lambda d: d["product"].append([0, 0, "0", "1"]), "indices must be integers"),
    (lambda d: d.update(dim=True), "positive integer"),
    (lambda d: d.update(basis=["only-one"]), "list of 3 names"),
    (lambda d: d["product"].append([0, 0, 0, True]), "rational must be an int"),
    (lambda d: d["product"].append([0, 0, 0, 0.5]), "rational must be an int"),
    (lambda d: d.update(product={}), "must be a list of [i, j, k, value] entries"),
    (lambda d: d["product"].append([0, 0, 0]), "expected [i, j, k, value]"),
    (lambda d: d.update(even=[0, 3]), "field 'even' must be a list of in-range indices"),
    (lambda d: d.update(even="0"), "field 'even' must be a list of in-range indices"),
])
def test_schema_rejections(tmp_path, ut_model, mutate, message):
    data = lio.dump_obj(ut_model)
    mutate(data)
    with pytest.raises(lio.SchemaError) as exc:
        lio.load_obj(data)
    assert message in str(exc.value)


@pytest.mark.parametrize("data", [[], "graded", None])
def test_a_document_that_is_not_an_object_is_rejected(data):
    with pytest.raises(lio.SchemaError, match="top level must be a JSON object"):
        lio.load_obj(data)


def _block_upper_xigroup():
    """The xigroup document of the full unit group of make_block_upper(1, 1):
    dim 3, even part the two diagonal units, odd part the corner."""
    return {**lio.dump_obj(make_block_upper(1, 1)), "kind": "xigroup",
            "constraints": {"family": "none"}}


def test_the_block_upper_xigroup_document_loads():
    group = lio.load_obj({**_block_upper_xigroup(), "odd_subspace": [["1"]]})
    assert isinstance(group, LinearXiGroup) and group.odd_subspace.dim == 1
    assert group.tolerance == 1e-9


@pytest.mark.parametrize("extra, message", [
    ({"constraints": "none"}, "field 'constraints' must be {'family': name, ...}"),
    ({"constraints": {"n": 2}}, "field 'constraints' must be {'family': name, ...}"),
    ({"odd_subspace": {"0": ["1"]}}, "field 'odd_subspace' must be a list of vectors"),
    ({"odd_subspace": [["1", "0"]]}, "odd_subspace[0]: expected a vector of length 1"),
    ({"odd_subspace": ["1"]}, "odd_subspace[0]: expected a vector of length 1"),
    ({"constraints": {"family": "orthogonal", "n": 1}},
     "orthogonal constraints need an even part of dimension 1"),
], ids=["constraints not a dict", "no family", "odd_subspace not a list",
        "odd vector too long", "odd vector not a list", "family does not fit"])
def test_xigroup_schema_rejections(extra, message):
    with pytest.raises(lio.SchemaError) as exc:
        lio.load_obj({**_block_upper_xigroup(), **extra})
    assert message in str(exc.value)


def test_load_truncated_file(tmp_path):
    p = tmp_path / "trunc.json"
    p.write_text('{"kind": "leibniz", "dim": 2,')
    with pytest.raises(lio.SchemaError):
        lio.load_file(p)


def write(tmp_path, obj, name):
    p = tmp_path / name
    lio.save_file(obj, p)
    return str(p)


def test_cli_verify_exit_codes(tmp_path, ut_model, capsys):
    good = write(tmp_path, derive_leibniz(ut_model), "good.json")
    assert cli.main(["verify", good, "--kind", "leibniz"]) == 0
    bad = write(tmp_path, LeibnizAlgebra([[[1]]]), "bad.json")
    assert cli.main(["verify", bad, "--kind", "leibniz"]) == 1
    out = capsys.readouterr().out
    assert "falsified" in out and "lhs (1)" in out and "rhs (2)" in out
    trunc = tmp_path / "trunc.json"
    trunc.write_text("{")
    assert cli.main(["verify", str(trunc), "--kind", "leibniz"]) == 2
    assert cli.main(["verify", good, "--kind", "grading"]) == 2  # wrong kind of file


def test_cli_verify_huliu_and_grading(tmp_path, ut_model, capsys):
    gp = write(tmp_path, ut_model, "g.json")
    assert cli.main(["verify", gp, "--kind", "grading"]) == 0
    assert cli.main(["verify", gp, "--kind", "assoc"]) == 0
    hp = write(tmp_path, derive_huliu(ut_model), "h.json")
    assert cli.main(["verify", hp, "--kind", "huliu"]) == 0


def test_cli_witness_replay_from_json(tmp_path, capsys):
    bad = LeibnizAlgebra([[[1]]])
    path = write(tmp_path, bad, "bad.json")
    assert cli.main(["verify", path, "--kind", "leibniz", "--json"]) == 1
    report = json.loads(capsys.readouterr().out)
    w = report["witness"]
    inputs = [tuple(map(lambda s: __import__("fractions").Fraction(s), v))
              for v in w["inputs"]]
    lhs, rhs = eval_right_leibniz(bad, *inputs)
    assert [str(c) for c in lhs] == w["lhs"]
    assert [str(c) for c in rhs] == w["rhs"]
    assert lhs != rhs


def test_cli_annihilator_and_simple(tmp_path, ut_model, capsys):
    lp = write(tmp_path, derive_leibniz(ut_model), "L.json")
    assert cli.main(["annihilator", lp, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["dim"] == 1 and data["basis"] == [["0", "0", "1"]]
    assert cli.main(["simple", lp]) == 1  # proper ideal between ann and L
    simple = write(tmp_path, LeibnizAlgebra([[[0, 0], [0, 0]], [[0, 0], [1, 0]]]),
                   "simple.json")
    assert cli.main(["simple", simple]) == 0
    # unverifiable input is an input error
    bad = write(tmp_path, LeibnizAlgebra([[[1]]]), "bad.json")
    assert cli.main(["annihilator", bad]) == 2
    assert cli.main(["simple", bad]) == 2


def test_cli_simple_json_keys(tmp_path, ut_model, capsys):
    lp = write(tmp_path, derive_leibniz(ut_model), "L.json")
    assert cli.main(["simple", lp, "--json"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert list(data) == ["verdict", "reason", "checks", "certificate"]
    assert data["verdict"] == "NotSimple" and data["certificate"]


def test_cli_derive_writes_verifiable_files(tmp_path, ut_model):
    gp = write(tmp_path, ut_model, "g.json")
    outp = str(tmp_path / "out.json")
    assert cli.main(["derive", gp, "-o", outp]) == 0
    assert cli.main(["verify", outp, "--kind", "leibniz"]) == 0
    assert cli.main(["derive", gp, "--huliu", "-o", outp]) == 0
    assert cli.main(["verify", outp, "--kind", "huliu"]) == 0
    # deriving from a non-graded file is an input error
    assert cli.main(["derive", outp, "-o", outp]) == 2


def test_cli_tangent_and_xi_check(tmp_path, capsys):
    g2, r2 = mat_square_zero_extension(2)
    grp = LinearXiGroup(r2, OrthogonalConstraints(2))
    xp = write(tmp_path, grp, "x.json")
    assert cli.main(["tangent", xp, "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["dim"] == 5 and data["exact"] and data["huliu_structure"]["holds"]
    assert cli.main(["xi-check", xp, "--samples", "50", "--seed", "1"]) == 0


def test_cli_fuzz_exit_codes(tmp_path, capsys):
    assert cli.main(["fuzz", "--trials", "5", "--seed", "2",
                     "--dump-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    for bad in (["--trials", "0"], ["--trials", "5", "--dim0", "0"]):
        assert cli.main(["fuzz", *bad, "--seed", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert cli.main(["nonsense"]) == 2


@pytest.mark.parametrize("content", [
    b'{"kind": "leibniz", "dim": 1, "basis": ["e0"], "angle": [[0, 0, 0, '
    + b"7" * 5000 + b"]]}",  # over Python's 4300-digit integer limit
    b"\xff\xfe{",
], ids=["oversized integer literal", "not UTF-8"])
def test_cli_unreadable_json_is_an_input_error(tmp_path, capsys, content):
    p = tmp_path / "unreadable.json"
    p.write_bytes(content)
    assert cli.main(["verify", str(p), "--kind", "leibniz"]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_unreadable_path_is_an_input_error(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    for path in (missing, tmp_path):  # no such file, and a directory
        assert cli.main(["verify", str(path), "--kind", "leibniz"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot read {path}: ")
        assert captured.err.count("\n") == 1


def test_cli_dim_above_the_limit_is_an_input_error(tmp_path, capsys):
    dim = lio.MAX_DIM + 1
    p = tmp_path / "wide.json"
    p.write_text(json.dumps({"kind": "leibniz", "dim": dim,
                             "basis": [f"e{i}" for i in range(dim)], "angle": []}))
    assert cli.main(["verify", str(p), "--kind", "leibniz"]) == 2
    assert str(lio.MAX_DIM) in capsys.readouterr().err


def _entries_doc(kind, field, count):
    """A dim-2 document of the kind whose tensor field has count entries, the
    last with a bad rational; every other tensor field is empty."""
    fields = {"algebra": ("product",), "leibniz": ("angle",), "huliu": ("angle", "square")}[kind]
    doc = {"kind": kind, "dim": 2, "basis": ["a", "b"], **{f: [] for f in fields}}
    doc[field] = [[0, 0, 0, 1]] * (count - 1) + [[0, 0, 0, "1/0"]]
    return doc


@pytest.mark.parametrize("kind, field", [("algebra", "product"), ("leibniz", "angle"),
                                         ("huliu", "angle"), ("huliu", "square")])
def test_entry_count_above_the_limit_is_refused_before_any_entry_is_read(monkeypatch, kind,
                                                                         field):
    monkeypatch.setattr(lio, "MAX_ENTRIES", 3)
    with pytest.raises(lio.SchemaError, match=rf"field '{field}' has 4 entries, above the limit 3"):
        lio.load_obj(_entries_doc(kind, field, 4))
    # at the limit the entries are read, and the bad rational is found
    with pytest.raises(lio.SchemaError, match="bad rational"):
        lio.load_obj(_entries_doc(kind, field, 3))


def test_cli_entry_count_above_the_limit_is_an_input_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(lio, "MAX_ENTRIES", 3)
    p = tmp_path / "long.json"
    p.write_text(json.dumps(_entries_doc("leibniz", "angle", 4)))
    assert cli.main(["verify", str(p), "--kind", "leibniz"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "above the limit 3" in captured.err


def _odd_rows_doc(count):
    """A xigroup document of the dual numbers (odd dimension 1, three product
    entries) whose odd_subspace has count rows, the last with a bad rational."""
    doc = lio.dump_obj(LinearXiGroup(regular_realization(dual_numbers()), NoConstraints()))
    doc["odd_subspace"] = [["1"]] * (count - 1) + [["1/0"]]
    return doc


def test_odd_subspace_above_the_limit_is_refused_before_any_entry_is_read(monkeypatch):
    monkeypatch.setattr(lio, "MAX_ENTRIES", 3)
    with pytest.raises(lio.SchemaError,
                       match=r"field 'odd_subspace' has 4 rows of 1 entries, above the limit 3"):
        lio.load_obj(_odd_rows_doc(4))
    # at the limit the rows are read, and the bad rational is found
    with pytest.raises(lio.SchemaError, match="bad rational"):
        lio.load_obj(_odd_rows_doc(3))


def test_cli_odd_subspace_above_the_limit_is_an_input_error(tmp_path, capsys, monkeypatch):
    # 12 '[' in the file, within the count of 2 * MAX_ENTRIES + 4 lists
    monkeypatch.setattr(lio, "MAX_ENTRIES", 4)
    p = tmp_path / "tall.json"
    p.write_text(json.dumps(_odd_rows_doc(5)))
    assert cli.main(["xi-check", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "field 'odd_subspace' has 5 rows" in captured.err


def test_odd_subspace_rows_count_when_the_odd_part_is_zero(monkeypatch):
    """With no odd index a row has no entries, but still counts as one."""
    unit = GradedAlgebra(Algebra(table_from_entries(1, [(0, 0, 0, 1)]), ["u"], unit=[1]), [0])
    doc = lio.dump_obj(LinearXiGroup(regular_realization(unit), NoConstraints()))
    monkeypatch.setattr(lio, "MAX_ENTRIES", 10)
    doc["odd_subspace"] = [[]] * 11
    with pytest.raises(lio.SchemaError, match=r"field 'odd_subspace' has 11 rows of 0 entries, "
                                              r"above the limit 10 \(a row counts at least one\)$"):
        lio.load_obj(doc)
    doc["odd_subspace"] = [[]] * 10
    assert lio.load_obj(doc).odd_subspace.dim == 0


def _unparsed(text):
    raise AssertionError("the file was parsed")


def test_file_above_the_size_limit_is_refused_before_it_is_parsed(tmp_path, monkeypatch):
    p = tmp_path / "dual.json"
    lio.save_file(dual_numbers(), p)
    size = p.stat().st_size
    monkeypatch.setattr(lio, "MAX_FILE_BYTES", size - 1)
    monkeypatch.setattr(json, "loads", _unparsed)
    with pytest.raises(lio.SchemaError,
                       match=rf"file has {size} bytes, above the limit {size - 1}$"):
        lio.load_file(p)
    # at the limit the file is parsed, and loads
    monkeypatch.undo()
    monkeypatch.setattr(lio, "MAX_FILE_BYTES", size)
    assert lio.dumps(lio.load_file(p)) == p.read_text()


def test_cli_file_above_the_size_limit_is_an_input_error(tmp_path, capsys, monkeypatch):
    p = tmp_path / "dual.json"
    lio.save_file(dual_numbers(), p)
    monkeypatch.setattr(lio, "MAX_FILE_BYTES", 10)
    monkeypatch.setattr(json, "loads", _unparsed)
    assert cli.main(["verify", str(p), "--kind", "assoc"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {p}: file has {p.stat().st_size} bytes, "
                            "above the limit 10\n")


def test_file_with_more_lists_than_the_bounds_allow_is_refused_before_it_is_parsed(
        tmp_path, monkeypatch):
    """With MAX_ENTRIES 3 a file holds at most 10 lists: the dual numbers'
    three product entries and three odd_subspace rows, two outer lists,
    'basis' and 'even'."""
    monkeypatch.setattr(lio, "MAX_ENTRIES", 3)
    p = tmp_path / "lists.json"
    p.write_text(json.dumps(_odd_rows_doc(4)))
    monkeypatch.setattr(json, "loads", _unparsed)
    with pytest.raises(lio.SchemaError, match=re.escape(
            f"{p}: file has 11 '[' characters, above the limit 10") + "$"):
        lio.load_file(p)
    # at the limit the file is parsed, and its bad rational is found
    monkeypatch.undo()
    monkeypatch.setattr(lio, "MAX_ENTRIES", 3)
    p.write_text(json.dumps(_odd_rows_doc(3)))
    with pytest.raises(lio.SchemaError, match="bad rational"):
        lio.load_file(p)


def test_file_with_more_strings_than_the_bounds_allow_is_refused_before_it_is_parsed(
        tmp_path, monkeypatch):
    """With MAX_ENTRIES 3 and MAX_DIM 2 a file holds at most 20 strings: 6
    values, 2 basis names and 12 strings of the schema.  A leibniz document
    has 5 of its own (four keys and its kind), so 16 basis names are one
    string too many."""
    monkeypatch.setattr(lio, "MAX_ENTRIES", 3)
    monkeypatch.setattr(lio, "MAX_DIM", 2)
    p = tmp_path / "names.json"
    doc = {"kind": "leibniz", "dim": 2, "basis": ["ab"] * 16, "angle": []}
    p.write_text(json.dumps(doc))
    monkeypatch.setattr(json, "loads", _unparsed)
    with pytest.raises(lio.SchemaError, match=re.escape(
            f"""{p}: file has 42 '"' characters, above the limit 40""") + "$"):
        lio.load_file(p)
    # at the limit the file is parsed, and its basis is refused
    monkeypatch.undo()
    monkeypatch.setattr(lio, "MAX_ENTRIES", 3)
    monkeypatch.setattr(lio, "MAX_DIM", 2)
    doc["basis"] = ["ab"] * 15
    p.write_text(json.dumps(doc))
    with pytest.raises(lio.SchemaError, match="field 'basis' must be a list of 2 names"):
        lio.load_file(p)


def test_the_fullest_file_within_the_bounds_passes_the_string_count(tmp_path, monkeypatch):
    """The dual numbers as a xigroup file with MAX_ENTRIES 3 and MAX_DIM 2:
    three product values and three odd_subspace values as strings, both
    basis names and every key its kind has."""
    monkeypatch.setattr(lio, "MAX_ENTRIES", 3)
    monkeypatch.setattr(lio, "MAX_DIM", 2)
    p = tmp_path / "full.json"
    p.write_text(json.dumps(_odd_rows_doc(3)))
    with pytest.raises(lio.SchemaError, match="bad rational"):
        lio.load_file(p)


def _padded_pair(commas):
    """A dim-2 huliu document with three entries in each bracket whose text
    holds ``commas`` ',' characters, the ones past its own 27 inside its
    first basis name."""
    entries = [[0, 0, 0, 1], [0, 1, 1, 1], [1, 0, 1, -1]]
    doc = {"kind": "huliu", "dim": 2, "basis": ["a" + "," * (commas - 27), "b"],
           "angle": entries, "square": entries}
    assert json.dumps(doc).count(",") == commas
    return doc


@pytest.mark.parametrize("text", [
    json.dumps(_padded_pair(41)),
    '{"kind": "leibniz", "dim": 2, "angle": [], "basis": [' + ", ".join(["0.5"] * 42) + "]}",
], ids=["padded pair", "bare numbers"])
def test_file_with_more_commas_than_the_bounds_allow_is_refused_before_it_is_parsed(
        tmp_path, monkeypatch, text):
    """With MAX_ENTRIES 3 and MAX_DIM 2 a file holds at most 40 ',': four a
    tensor entry in two fields, two basis names, two 'even' indices and 12
    for the members of the schema.  A basis of bare numbers holds no '[' or
    '"' past its own, so only the ',' count refuses it unparsed."""
    monkeypatch.setattr(lio, "MAX_ENTRIES", 3)
    monkeypatch.setattr(lio, "MAX_DIM", 2)
    p = tmp_path / "commas.json"
    p.write_text(text)
    monkeypatch.setattr(json, "loads", _unparsed)
    with pytest.raises(lio.SchemaError, match=re.escape(
            f"{p}: file has {text.count(',')} ',' characters, above the limit 40") + "$"):
        lio.load_file(p)


def test_a_file_at_the_comma_limit_loads(tmp_path, monkeypatch):
    monkeypatch.setattr(lio, "MAX_ENTRIES", 3)
    monkeypatch.setattr(lio, "MAX_DIM", 2)
    p = tmp_path / "commas.json"
    doc = _padded_pair(40)
    p.write_text(json.dumps(doc))
    h = lio.load_file(p)
    assert h.basis_names == tuple(doc["basis"])
    assert table_entries(h.square) == [tuple(e) for e in doc["square"]]


@pytest.mark.parametrize("basis", ["[{}, {}]", "[" + ", ".join(["{}"] * 10000) + "]"])
def test_a_third_json_object_is_refused_while_the_file_is_parsed(tmp_path, capsys, basis):
    """A valid file holds two objects, the document and its 'constraints';
    the third one parsed stops the parse, so a basis of many objects is
    never built."""
    p = tmp_path / "objects.json"
    p.write_text('{"kind": "leibniz", "dim": 2, "basis": ' + basis + ', "angle": []}')
    with pytest.raises(lio.SchemaError, match=re.escape(
            f"{p}: file holds more than 2 JSON objects") + "$"):
        lio.load_file(p)
    assert cli.main(["verify", str(p), "--kind", "leibniz"]) == 2
    assert capsys.readouterr().out == ""


@pytest.fixture()
def no_int_digit_limit():
    """The interpreter's int-string digit limit switched off for one test."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    yield
    sys.set_int_max_str_digits(saved)


@pytest.mark.parametrize("value, digits", [
    ("{}", None),                       # an integer literal
    ('"{}/3"', None),                   # a numerator
    ('"-2/{}"', None),                  # a denominator
    ('"1e{}"', 1),                      # 1 and the exponent's zeros
])
def test_rationals_past_the_digit_limit_are_refused_whatever_the_interpreter_allows(
        tmp_path, capsys, no_int_digit_limit, value, digits):
    limit = sys.int_info.default_max_str_digits
    assert lio.MAX_DIGITS == limit == 4300

    def leibniz_file(n):
        text = value.format(str(n - digits) if digits else "1" * n)
        p = tmp_path / f"long{n}.json"
        p.write_text('{"kind": "leibniz", "dim": 1, "basis": ["a"], "angle": [[0, 0, 0, '
                     + text + "]]}")
        return p

    p = leibniz_file(limit + 1)
    assert cli.main(["verify", str(p), "--kind", "leibniz"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert f"more than {limit} digits" in captured.err or (
        f"integer literal of {limit + 1} digits, above the limit {limit}" in captured.err)
    # at the limit the value loads
    (*_, c), = table_entries(lio.load_file(leibniz_file(limit)).angle)
    assert c and oracles.is_canonical_scalar(c)


@pytest.mark.parametrize("samples", ["0", "-3"])
def test_cli_xi_check_without_samples_is_an_input_error(tmp_path, capsys, samples):
    _, r2 = mat_square_zero_extension(2)
    xp = write(tmp_path, LinearXiGroup(r2, OrthogonalConstraints(2)), "x.json")
    assert cli.main(["xi-check", xp, "--samples", samples]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "sample" in captured.err


def test_cli_xi_check_above_the_sample_bound_is_an_input_error(tmp_path, capsys):
    _, r3 = mat_square_zero_extension(3)
    xp = write(tmp_path, LinearXiGroup(r3, OrthogonalConstraints(3)), "x.json")
    assert cli.main(["xi-check", xp, "--samples", str(10 ** 12)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "above the limit" in captured.err


class _StubFamily(ConstraintFamily):
    """No constraints; its draws are singular even parts, or it fails to draw."""

    name = "stub"

    def __init__(self, draws):
        self.draws = draws

    def evaluate(self, g, x0_even):
        return np.zeros(np.shape(x0_even)[:-1] + (0,))

    def sample(self, r, rng, count):
        if not self.draws:
            raise SamplingError("could not sample an invertible even element")
        return np.zeros((count, len(r.graded.even)))


@pytest.mark.parametrize("draws,message", [
    (True, "numerically singular"), (False, "could not sample"),
], ids=["non-unit sample", "sampler gives up"])
def test_cli_xi_check_on_a_sample_it_cannot_use_is_undecided(monkeypatch, capsys, draws,
                                                              message):
    _, r2 = mat_square_zero_extension(2)
    group = LinearXiGroup(r2, _StubFamily(draws))
    monkeypatch.setattr(cli.lio, "load_file", lambda path: group)
    for extra in ([], ["--json"]):
        assert cli.main(["xi-check", "stub.json", "--samples", "3", *extra]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("undecided: ") and captured.err.count("\n") == 1
        assert message in captured.err


def test_block_upper_file_checks(tmp_path):
    gp = write(tmp_path, make_block_upper(2, 1), "b.json")
    assert cli.main(["verify", gp, "--kind", "grading"]) == 0


def _xigroup_text(tolerance="1e-9", constraints=None):
    """A Mat(2) orthogonal group whose odd subspace is not conjugation-stable
    (worst residual about 0.86), with the tolerance spliced in as raw JSON."""
    _, r2 = mat_square_zero_extension(2)
    data = lio.dump_obj(LinearXiGroup(r2, OrthogonalConstraints(2), span([(1, 0, 0, 0)], 4)))
    data["tolerance"] = "TOLERANCE"
    if constraints is not None:
        data["constraints"] = constraints
    return json.dumps(data).replace('"TOLERANCE"', tolerance)


def test_cli_xi_check_violation_at_the_default_tolerance(tmp_path, capsys):
    p = tmp_path / "x.json"
    p.write_text(_xigroup_text())
    assert cli.main(["xi-check", str(p), "--samples", "20"]) == 1
    assert "violated" in capsys.readouterr().out


@pytest.mark.parametrize("literal", ["Infinity", "NaN", "1e400"])
def test_cli_non_finite_tolerance_is_an_input_error(tmp_path, capsys, literal):
    p = tmp_path / "x.json"
    p.write_text(_xigroup_text(tolerance=literal))
    assert cli.main(["xi-check", str(p), "--samples", "20"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "tolerance" in captured.err


@pytest.mark.parametrize("constraints", [
    {"family": "orthogonal", "n": 2, "typo": 1},
    {"family": "none", "n": 5},
], ids=["extra key", "key the family does not take"])
def test_cli_unknown_constraint_parameter_is_an_input_error(tmp_path, capsys, constraints):
    p = tmp_path / "x.json"
    p.write_text(_xigroup_text(constraints=constraints))
    assert cli.main(["xi-check", str(p), "--samples", "20"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "bad constraints" in captured.err


@pytest.mark.parametrize("literal,code", [
    ("2", 1), ("2.7", 2), ("2.0", 2), ('"2"', 2), ("0", 2), ("true", 2),
], ids=["2", "2.7", "2.0", "string 2", "0", "true"])
def test_cli_constraint_n_must_be_a_positive_integer(tmp_path, capsys, literal, code):
    p = tmp_path / "x.json"
    text = _xigroup_text(constraints={"family": "orthogonal", "n": "N_LITERAL"})
    p.write_text(text.replace('"N_LITERAL"', literal))
    assert cli.main(["tangent", str(p)]) == code
    if code == 2:
        captured = capsys.readouterr()
        assert captured.out == "" and "bad constraints" in captured.err


def test_empty_file_at_the_dimension_limit_loads_in_dim_squared_memory(tmp_path):
    dim = lio.MAX_DIM
    p = tmp_path / "empty.json"
    p.write_text(json.dumps({"kind": "leibniz", "dim": dim,
                             "basis": [f"e{i}" for i in range(dim)], "angle": []}))
    tracemalloc.start()
    try:
        leib = lio.load_file(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert leib.dim == dim and not table_entries(leib.angle)
    # one pointer per cell is dim^2 * 8 bytes, 0.5 MB; a Fraction per slot
    # of a dense dim^3 accumulator would be over 100 MB
    assert peak < 4 * 2 ** 20


@pytest.mark.parametrize("kind, extra", [("algebra", {}), ("graded", {"even": [0, 1]})])
def test_empty_algebra_files_at_the_dimension_limit_load_without_a_unit(tmp_path, kind, extra):
    dim = lio.MAX_DIM
    p = tmp_path / "empty.json"
    p.write_text(json.dumps({"kind": kind, "dim": dim, "basis": [f"e{i}" for i in range(dim)],
                             "product": [], **extra}))
    tracemalloc.start()
    try:
        obj = lio.load_file(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    a = obj.algebra if kind == "graded" else obj
    assert a.dim == dim and a.unit is None and not table_entries(a.table)
    # the unit solve stops at its first diagonal equation without entries;
    # the 2 dim^2 x dim dense system would be over 100 MB
    assert peak < 4 * 2 ** 20


@pytest.mark.parametrize("name, digest", [
    ("sl2-v8", "35c42dd0b2be17b01985e653c32fcb739367ac9873d53bdaa4540226f457b9a3"),
    ("block-upper-3-3", "69a0c5cd64a18f8354fb52a8f19c2d33340f3f60d03cb8ccd1898f43b242db0d"),
])
def test_annihilator_json_is_pinned(tmp_path, capsys, name, digest):
    obj = (LeibnizAlgebra(oracles.sl2_semidirect((8,))) if name == "sl2-v8"
           else derive_huliu(make_block_upper(3, 3)))
    path = str(tmp_path / "in.json")
    lio.save_file(obj, path)
    assert cli.main(["annihilator", path, "--json"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def _last_angle_entry_plus(delta):
    def mutate(h):
        e = table_entries(h.leibniz.angle)
        i, j, k, c = e[-1]
        return HuLiuAlgebra(table_from_entries(h.dim, e[:-1] + [(i, j, k, c + delta)]),
                            h.square, h.basis_names)
    return mutate


def _square_plus_antisymmetric_half(h):
    """+1/2 at (i,j,k) and -1/2 at (j,i,k), for the last square entry (i,j,k)."""
    e = table_entries(h.square)
    i, j, k, _ = e[-1]
    half = Fraction(1, 2)
    return HuLiuAlgebra(h.leibniz.angle,
                        table_from_entries(h.dim, e + [(i, j, k, half), (j, i, k, -half)]),
                        h.basis_names)


def _square_halved(h):
    return HuLiuAlgebra(h.leibniz.angle, table_from_entries(
        h.dim, [(i, j, k, c / 2) for i, j, k, c in table_entries(h.square)]), h.basis_names)


# The rational mutants make the checker clear a denominator of 2: right
# Leibniz fails at (20,6,17), Jacobi at (2,17,26), and, with the square a
# Lie bracket still, "angle absorbs square" at (0,0,1), over the joint
# denominator of the two tables.
@pytest.mark.parametrize("mutate, status, digest", [
    (None, 0, "610d0f6fd43777b4dc8d42c6fa1a45e4b41f88160e671c2f9ecf9ae18b456902"),
    (_last_angle_entry_plus(1), 1,
     "5cfc33d3ecfe94ea710f481636bb0f643527ebd65828ad698afe8697fb6e9142"),
    (_last_angle_entry_plus(Fraction(1, 2)), 1,
     "0661238169ba41b97d1c0814f5aa907d504ebd9f47c877fa4b7e81c06441e16a"),
    (_square_plus_antisymmetric_half, 1,
     "f57fec7771ed5adf11c46cd535d8fef5e79502586520eca88182716827740ddc"),
    (_square_halved, 1, "9a70c941a5b9e1ffab1186edb0d6bc2d4f10177278b5a21236bf7105acc087e6"),
], ids=["pair", "one-entry mutant", "angle plus a half", "square plus an antisymmetric half",
        "square halved"])
def test_verify_json_of_the_block_upper_3_pair_is_pinned(tmp_path, capsys, mutate, status,
                                                          digest):
    h = derive_huliu(make_block_upper(3, 3))
    if mutate is not None:
        h = mutate(h)
    path = str(tmp_path / "pair.json")
    lio.save_file(h, path)
    assert cli.main(["verify", path, "--kind", "huliu", "--json"]) == status
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize("command", ["simple", "annihilator"])
def test_simple_and_annihilator_refuse_the_one_entry_mutant_of_the_block_upper_3_pair(
        tmp_path, capsys, command):
    path = str(tmp_path / "mutant.json")
    lio.save_file(_last_angle_entry_plus(1)(derive_huliu(make_block_upper(3, 3))), path)
    assert cli.main([command, path]) == 2
    assert capsys.readouterr() == (
        "", "error: right Leibniz identity fails at basis triple (20,6,17)\n")


def test_derived_huliu_file_of_block_upper_2_is_pinned(tmp_path, capsys):
    path, out = str(tmp_path / "bu.json"), tmp_path / "pair.json"
    lio.save_file(make_block_upper(2, 2), path)
    assert cli.main(["derive", path, "--huliu", "-o", str(out)]) == 0
    digest = "56ced1dacd70d17cce40c700ef623f4365de0332f7517d2ad1629cdf5271cf12"
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_only_the_package_structures_serialize():
    with pytest.raises(TypeError) as exc:
        lio.dump_obj(Matrix.identity(2))
    assert str(exc.value) == "cannot serialize Matrix"


@pytest.mark.parametrize("args, message", [
    (["annihilator", "A.json"], "this command needs a leibniz or huliu file"),
    (["verify", "L.json", "--kind", "assoc"],
     "kind 'assoc' needs an algebra, graded, or xigroup file"),
    (["verify", "L.json", "--kind", "huliu"], "kind 'huliu' needs a huliu file"),
], ids=["annihilator of an algebra", "assoc of a leibniz file", "huliu of a leibniz file"])
def test_cli_command_on_the_wrong_kind_of_file_is_an_input_error(tmp_path, ut_model, capsys,
                                                                  args, message):
    write(tmp_path, ut_model.algebra, "A.json")
    write(tmp_path, derive_leibniz(ut_model), "L.json")
    args = [str(tmp_path / a) if a.endswith(".json") else a for a in args]
    assert cli.main(args) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


def test_cli_annihilator_text_and_simple_on_a_huliu_file(tmp_path, ut_model, capsys):
    lp = write(tmp_path, derive_leibniz(ut_model), "L.json")
    assert cli.main(["annihilator", lp]) == 0
    assert capsys.readouterr().out == "annihilator dimension 1\n  (0, 0, 1)\n"
    hp = write(tmp_path, derive_huliu(ut_model), "H.json")
    assert cli.main(["simple", hp]) == 1
    assert capsys.readouterr().out.startswith(
        "NotSimple: ideal strictly between the annihilator and L\n")


def test_cli_xi_check_json_reports_the_witness_of_the_one_odd_group(tmp_path, capsys):
    grp = LinearXiGroup(mat_square_zero_extension(2)[1], OrthogonalConstraints(2),
                        span([(1, 0, 0, 0)], 4))
    xp = write(tmp_path, grp, "x.json")
    assert cli.main(["xi-check", xp, "--json", "--samples", "20", "--seed", "0"]) == 1
    data = json.loads(capsys.readouterr().out)
    assert list(data) == ["holds", "samples", "worst_residual", "witness"]
    assert list(data["witness"]) == ["x", "h", "residual"]
    chk = check_xi_group(lio.load_file(xp), samples=20, seed=0)
    assert (data["holds"], data["samples"]) == (False, 20)
    assert data["worst_residual"] == data["witness"]["residual"] == chk.worst_residual
    assert data["witness"]["x"] == list(chk.witness[0])
    assert data["witness"]["h"] == list(chk.witness[1])

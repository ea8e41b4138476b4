"""The declared bracket identities, their two consumers, and the
verification stacks built on them.

Each case is a small hand-made table set whose first failing identity is
the one named.  The exact checker must name it and give a witness that a
hand-written evaluation of the identity reproduces; an independent float
evaluation of the declarations (``oracles.dense_residual``) must name the
same identity first and vanish on derived pairs.  A structure's
``report()``, its ``validate()`` and ``leibkit verify`` must all name the
first failing layer of the structure's stack, and the four structures share
one ``validate()``.
"""

import functools
import random
from fractions import Fraction

import numpy as np
import pytest

from leibkit._tables import (
    ASSOCIATIVITY,
    COMPATIBILITY,
    JACOBI,
    RIGHT_LEIBNIZ,
    apply_table,
    evaluate,
    table_from_entries,
)
from leibkit import algebras, cli, derive, huliu, leibniz, xigroup
from leibkit import io as lio
from leibkit.algebras import Algebra, GradedAlgebra, make_block_upper, upper_triangular_model
from leibkit.derive import derive_huliu
from leibkit.huliu import HuLiuAlgebra, classify_huliu_simplicity, eval_huliu_identity
from leibkit.leibniz import (
    LeibnizAlgebra,
    annihilator,
    eval_right_leibniz,
    verify_right_leibniz,
)
from leibkit.linalg import vadd, zeros
from leibkit.report import Report, Witness
from leibkit.xigroup import (
    DEFAULT_TOLERANCE,
    LinearXiGroup,
    OrthogonalConstraints,
    mat_square_zero_extension,
    tangent_space,
    verify_tangent_huliu,
)

from oracles import dense, dense_residual

# every declared identity, in the order the exact paths check them
DECLARED = (ASSOCIATIVITY, RIGHT_LEIBNIZ, JACOBI, *COMPATIBILITY)


def _reference(name, tables, x, y, z):
    """Both sides of the identity called ``name``, written out by hand."""
    m, a, s = (functools.partial(apply_table, tables[k]) if k in tables else None
               for k in "mas")
    dim = len(x)

    def add(*vs):
        return functools.reduce(vadd, vs, zeros(dim))

    if name == "associativity":
        return m(m(x, y), z), m(x, m(y, z))
    if name == "right Leibniz identity":
        return a(a(x, y), z), add(a(x, a(y, z)), a(a(x, z), y))
    if name == "Jacobi identity":
        return add(s(s(x, y), z), s(s(y, z), x), s(s(z, x), y)), zeros(dim)
    which = [c.name for c in COMPATIBILITY].index(name)
    if which == 0:
        return a(x, s(y, z)), a(x, a(y, z))
    if which == 1:
        u = add(a(x, y), a(y, x))
        return s(u, z), a(u, z)
    if which == 2:
        return add(a(s(x, y), z), s(a(y, z), x), s(y, a(x, z))), zeros(dim)
    return add(s(a(x, y), z), s(z, s(x, y)), s(z, a(y, x)), a(z, a(x, y))), zeros(dim)


def _exact_report(tables):
    if "m" in tables:
        return algebras.verify_associative(Algebra(tables["m"]))
    if "s" not in tables:
        return verify_right_leibniz(LeibnizAlgebra(tables["a"]))
    if "a" not in tables:
        return huliu.verify_lie(tables["s"])
    return huliu.verify_huliu_identities(HuLiuAlgebra(tables["a"], tables["s"]))


def _applicable(tables):
    """The declared identities over the given tables, in checking order."""
    return [idn for idn in DECLARED
            if {t.outer for t in idn.lhs + idn.rhs} <= set(tables)]


# (first failing identity, dim, sparse (i, j, k, value) items per table)
FAILING = [
    (ASSOCIATIVITY, 2, {"m": [(0, 0, 1, 1), (1, 0, 0, 1)]}),
    (RIGHT_LEIBNIZ, 2, {"a": [(0, 0, 0, 1)]}),
    (JACOBI, 3, {"s": [(0, 1, 0, 1), (1, 0, 0, -1), (0, 2, 2, 1), (2, 0, 2, -1),
                       (1, 2, 1, 1), (2, 1, 1, -1)]}),
    (COMPATIBILITY[0], 2, {"a": [(0, 0, 1, -1)], "s": [(0, 1, 0, -1), (1, 0, 0, 1)]}),
    (COMPATIBILITY[1], 2, {"a": [(0, 0, 1, -1)], "s": [(0, 1, 1, -1), (1, 0, 1, 1)]}),
    (COMPATIBILITY[2], 3, {"a": [(0, 1, 0, -1)],
                           "s": [(0, 1, 0, -1), (1, 0, 0, 1), (1, 2, 0, -1), (2, 1, 0, 1)]}),
    (COMPATIBILITY[3], 2, {"a": [], "s": [(0, 1, 0, -1), (1, 0, 0, 1)]}),
]


def _tables(dim, items):
    return {k: table_from_entries(dim, v) for k, v in items.items()}


@pytest.mark.parametrize("identity,dim,items", FAILING, ids=[c[0].name for c in FAILING])
def test_first_failure_and_witness_replay(identity, dim, items):
    tables = _tables(dim, items)
    rep = _exact_report(tables)
    assert not rep.holds and rep.identity == identity.name
    w = rep.witness
    assert w.note.startswith("basis triple (")
    lhs, rhs = _reference(identity.name, tables, *w.inputs)
    assert (lhs, rhs) == (w.lhs, w.rhs) and lhs != rhs
    if identity is RIGHT_LEIBNIZ:
        assert eval_right_leibniz(LeibnizAlgebra(tables["a"]), *w.inputs) == (lhs, rhs)
    if identity in COMPATIBILITY:
        h = HuLiuAlgebra(tables["a"], tables["s"])
        assert eval_huliu_identity(h, COMPATIBILITY.index(identity), *w.inputs) == (lhs, rhs)


@pytest.mark.parametrize("identity", DECLARED, ids=[i.name for i in DECLARED])
def test_declaration_matches_hand_written_identity(identity):
    rng = random.Random(identity.name)
    dim = 3
    tables = {k: table_from_entries(dim, [(rng.randrange(dim), rng.randrange(dim),
                                           rng.randrange(dim), rng.randint(-3, 3))
                                          for _ in range(8)])
              for k in "mas"}
    for _ in range(5):
        x, y, z = ([Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(dim)]
                   for _ in range(3))
        assert evaluate(identity, tables, x, y, z) == _reference(identity.name, tables, x, y, z)


# the Hu-Liu stack: right Leibniz, antisymmetry, Jacobi, the compatibility identities
PAIR_FAILING = [(identity.name, dim, items) for identity, dim, items in FAILING[1:]]
PAIR_FAILING.insert(1, ("antisymmetry", 2, {"s": [(0, 1, 0, 1)]}))

# the graded stack: associativity, then the three clauses of the special grading
# (first failing identity, dim, sparse product items, even indices)
GRADED_FAILING = [
    ("associativity", 2, FAILING[0][2]["m"], [0, 1]),
    ("even*even in even", 2, [(0, 0, 1, 1)], [0]),
    ("mixed products in odd", 3, [(0, 2, 1, 1)], [0, 1]),
    ("odd*odd = 0", 2, [(1, 1, 0, 1)], [0]),
]


def _assert_first_failure(obj, identity, kind, tmp_path, capsys):
    rep = obj.report()
    assert not rep.holds and rep.identity == identity
    with pytest.raises(ValueError) as exc:
        obj.validate()
    assert identity in str(exc.value) and rep.witness.note in str(exc.value)
    path = tmp_path / "structure.json"
    lio.save_file(obj, path)
    assert cli.main(["verify", str(path), "--kind", kind]) == 1
    assert capsys.readouterr().out.startswith(f"falsified: {identity} ({rep.witness.note})\n")


@pytest.mark.parametrize("identity,dim,items", PAIR_FAILING,
                         ids=[c[0] for c in PAIR_FAILING])
def test_huliu_report_validate_and_cli_name_the_first_failure(
        identity, dim, items, tmp_path, capsys):
    tables = _tables(dim, items)
    empty = table_from_entries(dim, [])
    h = HuLiuAlgebra(tables.get("a", empty), tables.get("s", empty))
    _assert_first_failure(h, identity, "huliu", tmp_path, capsys)


@pytest.mark.parametrize("identity,dim,items,even", GRADED_FAILING,
                         ids=[c[0] for c in GRADED_FAILING])
def test_graded_report_validate_and_cli_name_the_first_failure(
        identity, dim, items, even, tmp_path, capsys):
    g = GradedAlgebra(Algebra(table_from_entries(dim, items)), even)
    _assert_first_failure(g, identity, "grading", tmp_path, capsys)


def test_algebra_report_validate_and_cli_name_the_first_failure(tmp_path, capsys):
    a = Algebra(table_from_entries(2, FAILING[0][2]["m"]))
    _assert_first_failure(a, "associativity", "assoc", tmp_path, capsys)


@pytest.mark.parametrize("build", [
    lambda: algebras.matrix_algebra(2),
    upper_triangular_model,
    lambda: derive.derive_leibniz(upper_triangular_model()),
    lambda: derive_huliu(upper_triangular_model()),
], ids=["algebra", "graded", "leibniz", "huliu"])
def test_validate_returns_a_structure_whose_report_holds(build):
    obj = build()
    assert obj.validate() is obj and obj.report().holds


def test_the_four_structures_share_one_validate():
    assert (Algebra.validate is GradedAlgebra.validate is LeibnizAlgebra.validate
            is HuLiuAlgebra.validate)


def _float_arrays(tables):
    return {k: np.array([[[float(c) for c in v] for v in row] for row in dense(t)])
            for k, t in tables.items()}


@pytest.mark.parametrize("identity,dim,items", FAILING, ids=[c[0].name for c in FAILING])
def test_float_residual_names_the_exact_first_failure(identity, dim, items):
    tables = _tables(dim, items)
    arrays = _float_arrays(tables)
    first = next(idn for idn in _applicable(tables)
                 if np.max(np.abs(dense_residual(idn, arrays))) > DEFAULT_TOLERANCE)
    assert first.name == _exact_report(tables).identity == identity.name


@pytest.mark.parametrize("build", [upper_triangular_model, lambda: make_block_upper(2, 2)],
                         ids=["upper_triangular", "block_upper(2,2)"])
def test_float_residuals_vanish_on_derived_pairs(build):
    g = build()
    h = derive_huliu(g)
    arrays = _float_arrays({"m": g.algebra.table, "a": h.leibniz.angle, "s": h.square})
    for idn in DECLARED:
        res = dense_residual(idn, arrays)
        assert res.shape == (g.dim,) * 4
        assert np.max(np.abs(res)) <= DEFAULT_TOLERANCE, idn.name


def _counting(monkeypatch, fn, *modules):
    calls = []

    @functools.wraps(fn)
    def counted(*args):
        calls.append(args)
        return fn(*args)

    for mod in modules:
        monkeypatch.setattr(mod, fn.__name__, counted)
    return calls


def test_failing_associativity_report_is_cached(monkeypatch):
    calls = _counting(monkeypatch, algebras.verify_associative, algebras)
    a = Algebra(table_from_entries(2, FAILING[0][2]["m"]))
    g = GradedAlgebra(a, even=[0, 1])
    assert [g.report().holds for _ in range(3)] == [False] * 3
    assert not a.report().holds
    assert len(calls) == 1


def _fresh_block_pair():
    h = derive_huliu(make_block_upper(1, 1))
    pair = HuLiuAlgebra(h.leibniz.angle, h.square)
    return lambda: classify_huliu_simplicity(pair)


def _exact_tangent():
    _, r = mat_square_zero_extension(2)
    t = tangent_space(LinearXiGroup(r, OrthogonalConstraints(2)))
    assert t.exact
    return lambda: verify_tangent_huliu(t, r).holds


@pytest.mark.parametrize("setup", [
    lambda: lambda: derive_huliu(make_block_upper(1, 1)),
    _fresh_block_pair,
    _exact_tangent,
], ids=["derive_huliu", "classify_huliu_simplicity", "exact verify_tangent_huliu"])
def test_lie_check_runs_once_per_object(monkeypatch, setup):
    run = setup()
    # the counted function is the only verify_lie any caller can reach
    assert not any(hasattr(mod, "verify_lie") for mod in (cli, derive, xigroup))
    calls = _counting(monkeypatch, huliu.verify_lie, huliu)
    assert run()
    assert len(calls) == 1


def _check_runs(monkeypatch, *modules):
    calls = []
    for mod in modules:
        real = mod.verify_identities

        def counted(*args, real=real, **kwargs):
            calls.append(args[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(mod, "verify_identities", counted)
    return calls


@pytest.mark.parametrize("direct_first", [True, False], ids=["direct first", "report first"])
def test_direct_verifier_calls_and_reports_share_one_run(monkeypatch, direct_first):
    g = make_block_upper(1, 1)
    h = derive_huliu(g)
    g = GradedAlgebra(Algebra(g.algebra.table), g.even)
    leib = LeibnizAlgebra(h.leibniz.angle)
    h = HuLiuAlgebra(leib, h.square)
    calls = _check_runs(monkeypatch, algebras, leibniz, huliu)
    pairs = [(algebras.verify_associative, g.algebra), (algebras.verify_special_grading, g),
             (verify_right_leibniz, leib), (huliu.verify_huliu_identities, h)]
    for verify, obj in pairs:
        first = verify(obj) if direct_first else obj.report()
        assert first.holds
        annihilator(leib)
        assert verify(obj) is first and obj.report() is first
    # associativity, right Leibniz, Jacobi and compatibility: once each
    assert [identities[0].name for identities in calls] == [
        "associativity", "right Leibniz identity", "Jacobi identity",
        COMPATIBILITY[0].name]


@pytest.mark.parametrize("holds, witness, message", [
    (True, Witness((), (), ()), "a holding report cannot carry a witness"),
    (False, None, "a failing report must carry a witness"),
], ids=["holding with a witness", "failing without one"])
def test_a_report_carries_a_witness_exactly_when_it_fails(holds, witness, message):
    with pytest.raises(ValueError) as exc:
        Report(holds, "identity", witness)
    assert str(exc.value) == message

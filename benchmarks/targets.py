"""The traced leibkit functions, their work counters, and the per-layer metrics.

A layer is a leibkit module.  Every traced function reports
``<layer>.<function>.calls`` and ``.self_s``; the counters below add the work
measures named in the metric list.  The ``_tables`` module is reported under
the layer name ``tables`` because metric names must start with a letter.
"""

from __future__ import annotations

from collections import Counter, defaultdict

import leibkit._tables as _tables
import leibkit.algebras as algebras
import leibkit.derive as derive
import leibkit.fuzz as fuzz
import leibkit.huliu as huliu
import leibkit.leibniz as leibniz
import leibkit.linalg as linalg
import leibkit.modules as modules
import leibkit.xigroup as xigroup

from tracer import table_nnz


def _matvec(tr, args, kwargs):
    m, v = args[0], args[1]
    if len(v) != m.cols:
        return
    cols, _ = tr.nnz_profile(m)
    tr.counts["matvec.madds"] += m.rows * m.cols
    tr.counts["matvec.nz"] += sum(c for c, x in zip(cols, v) if x)
    if tr.active["modules.closure"]:
        tr.counts["closure.matvecs"] += 1


def _matmul(tr, args, kwargs):
    a, b = args[0], args[1]
    if a.cols != b.rows:
        return
    a_cols, _ = tr.nnz_profile(a)
    _, b_rows = tr.nnz_profile(b)
    tr.counts["matmul.madds"] += a.rows * a.cols * b.cols
    tr.counts["matmul.nz"] += sum(x * y for x, y in zip(a_cols, b_rows))


def _density(*tables):
    def pre(tr, args, kwargs):
        for get in tables:
            t = get(args[0])
            tr.counts["density.nnz"] += table_nnz(t)
            tr.counts["density.cells"] += len(t) ** 3
    return pre


def _kernel(tr, args, kwargs):
    if tr.active["modules.norton_irreducible"]:
        tr.counts["norton.attempts"] += 1


def _trivial_extension(tr, args, kwargs):
    if tr.active["fuzz.random_trivial_extension"]:
        tr.counts["fuzz.attempts"] += 1


def _norton_done(tr, result, args, kwargs):
    if result[0] != "unknown":
        tr.counts["norton.decided"] += 1


def _projection(tr, args, kwargs):
    mod, sub = args[0], args[1]
    tr.counts["projection.unknowns"] += sub.dim * mod.dim


M = linalg.Matrix
# (metric prefix, owner, attribute, pre hook, post hook)
TARGETS = [
    ("linalg.Matrix.matvec", M, "matvec", _matvec, None),
    ("linalg.Matrix.matmul", M, "__matmul__", _matmul, None),
    ("linalg.Matrix.rank", M, "rank", None, None),
    ("linalg.span", linalg, "span", None, None),
    ("linalg.kernel", linalg, "kernel", _kernel, None),
    ("linalg.solve", linalg, "solve", None, None),
    ("linalg.inverse", linalg, "inverse", None, None),
    ("tables.apply_table", _tables, "apply_table", None, None),
    ("tables.int_scaled", _tables, "int_scaled", None, None),
    ("tables.table_from_entries", _tables, "table_from_entries", None, None),
    ("algebras.verify_associative", algebras, "verify_associative",
     _density(lambda a: a.table), None),
    ("algebras.verify_special_grading", algebras, "verify_special_grading", None, None),
    ("algebras.make_trivial_extension", algebras, "make_trivial_extension",
     _trivial_extension, None),
    ("algebras.find_unit", algebras, "find_unit", None, None),
    ("leibniz.verify_right_leibniz", leibniz, "verify_right_leibniz",
     _density(lambda a: a.angle), None),
    ("leibniz.annihilator", leibniz, "annihilator", None, None),
    ("leibniz.is_ideal", leibniz, "is_ideal", None, None),
    ("leibniz.classify_simplicity", leibniz, "classify_simplicity", None, None),
    ("huliu.verify_lie", huliu, "verify_lie", _density(lambda s: s), None),
    ("huliu.verify_huliu_identities", huliu, "verify_huliu_identities",
     _density(lambda h: h.leibniz.angle, lambda h: h.square), None),
    ("huliu.is_huliu_ideal", huliu, "is_huliu_ideal", None, None),
    ("huliu.annihilator_abelian_check", huliu, "annihilator_abelian_check", None, None),
    ("huliu.classify_huliu_simplicity", huliu, "classify_huliu_simplicity", None, None),
    ("derive.derive_leibniz", derive, "derive_leibniz", None, None),
    ("derive.derive_huliu", derive, "derive_huliu", None, None),
    ("modules.closure", modules, "closure", None, None),
    ("modules.norton_irreducible", modules, "norton_irreducible", None, _norton_done),
    ("modules.equivariant_projection_kernel", modules, "equivariant_projection_kernel",
     _projection, None),
    ("modules.restriction", modules, "restriction", None, None),
    ("modules.quotient", modules, "quotient", None, None),
    ("modules.is_invariant", modules, "is_invariant", None, None),
    ("xigroup.MatrixRealization", xigroup.MatrixRealization, "__init__", None, None),
    ("xigroup.tangent_space", xigroup, "tangent_space", None, None),
    ("xigroup.verify_tangent_huliu", xigroup, "verify_tangent_huliu", None, None),
    ("xigroup.check_xi_group", xigroup, "check_xi_group", None, None),
    ("xigroup.verify_group_closure", xigroup, "verify_group_closure", None, None),
    ("xigroup.invert_unit", xigroup, "invert_unit", None, None),
    ("xigroup.exp_curve_check", xigroup, "exp_curve_check", None, None),
    ("fuzz.random_trivial_extension", fuzz, "random_trivial_extension", None, None),
]


def _ratio(a, b):
    return a / b if b else 0.0


# computed per-layer metrics: name -> (unit, function of (calls, counts))
COMPUTED = {
    "linalg.Matrix.matvec.madds": ("count", lambda n, c: c["matvec.madds"]),
    "linalg.Matrix.matvec.nonzero_frac":
        ("ratio", lambda n, c: _ratio(c["matvec.nz"], c["matvec.madds"])),
    "linalg.Matrix.matmul.madds": ("count", lambda n, c: c["matmul.madds"]),
    "linalg.Matrix.matmul.nonzero_frac":
        ("ratio", lambda n, c: _ratio(c["matmul.nz"], c["matmul.madds"])),
    "tables.density": ("ratio", lambda n, c: _ratio(c["density.nnz"], c["density.cells"])),
    "modules.closure.matvecs": ("count", lambda n, c: c["closure.matvecs"]),
    "modules.norton_irreducible.attempts": ("count", lambda n, c: c["norton.attempts"]),
    "modules.norton_irreducible.decided_frac":
        ("ratio", lambda n, c: _ratio(c["norton.decided"], n["modules.norton_irreducible"])),
    "modules.equivariant_projection_kernel.unknowns":
        ("count", lambda n, c: c["projection.unknowns"]),
    "fuzz.accept_frac":
        ("ratio", lambda n, c: _ratio(n["fuzz.random_trivial_extension"], c["fuzz.attempts"])),
}

OVERHEAD = "trace.overhead_frac"

# Metrics of work that a workload does only in its set-up (the corpus is
# generated there); they cover the traced set-up, all others one traced pass.
SETUP_ONLY = ("fuzz.",)


def per_layer_metrics() -> list[tuple[str, str]]:
    """Every per-layer metric name with its unit, in report order."""
    out = []
    for name, *_ in TARGETS:
        out.append((f"{name}.calls", "count"))
        out.append((f"{name}.self_s", "s"))
    out += [(name, unit) for name, (unit, _) in COMPUTED.items()]
    out.append((OVERHEAD, "ratio"))
    return out


def window(start, end):
    """(calls, self_s, counts) accumulated between two ``Tracer.snapshot``s."""
    calls = Counter(end[0])
    calls.subtract(start[0])
    self_s, counts = defaultdict(float, end[1]), defaultdict(float, end[2])
    for k, v in start[1].items():
        self_s[k] -= v
    for k, v in start[2].items():
        counts[k] -= v
    return calls, self_s, counts


def layer_values(pass_window, setup_window) -> dict[str, float]:
    """Per-layer values, without the overhead metric, from two ``window``s."""
    def pick(name):
        return setup_window if name.startswith(SETUP_ONLY) else pass_window

    out = {}
    for name, *_ in TARGETS:
        calls, self_s, _ = pick(name)
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.self_s"] = self_s[name]
    for name, (_, fn) in COMPUTED.items():
        calls, _, counts = pick(name)
        out[name] = fn(calls, counts)
    return out

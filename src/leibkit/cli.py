"""Command-line front end.

Each file command returns ``(exit code, JSON object, text lines)``, and
``main`` prints exactly one of the two forms of its result: the JSON object
on one line under ``--json``, the text lines otherwise.  ``derive`` has no
JSON form and ``fuzz`` streams its report.  An input error prints one
``error:`` line on stderr and nothing on stdout.

Exit codes: 0 holds/success, 1 falsified or negative verdict, 2 input or
usage error, 3 unknown/undecided.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import io as lio
from .algebras import Algebra, GradedAlgebra
from .derive import derive_huliu, derive_leibniz
from .fuzz import run_fuzz
from .huliu import HuLiuAlgebra, classify_huliu_simplicity
from .leibniz import LeibnizAlgebra, annihilator, classify_simplicity
from .report import Report


def _vec(v):
    return "(" + ", ".join(str(c) for c in v) + ")"


def _strs(vectors):
    return [[str(c) for c in v] for v in vectors]


def _report(rep: Report) -> tuple[dict, list[str]]:
    """The JSON object and the text lines of a report."""
    w = rep.witness
    if w is None:
        return {"holds": rep.holds, "identity": rep.identity, "witness": None}, [
            f"holds: {rep.identity}"]
    return {"holds": rep.holds, "identity": rep.identity, "witness": {
        "inputs": _strs(w.inputs), "lhs": [str(c) for c in w.lhs],
        "rhs": [str(c) for c in w.rhs], "note": w.note,
    }}, [f"falsified: {rep.identity} ({w.note})", *(f"  input {_vec(v)}" for v in w.inputs),
         f"  lhs {_vec(w.lhs)}", f"  rhs {_vec(w.rhs)}"]


def _load(args, cls, kind: str):
    """The structure in the file ``args.path``, which must be a ``cls``."""
    obj = lio.load_file(args.path)
    if not isinstance(obj, cls):
        raise lio.SchemaError(f"{args.command} needs {kind} file")
    return obj


def _as_leibniz(obj):
    if isinstance(obj, LeibnizAlgebra):
        return obj
    if isinstance(obj, HuLiuAlgebra):
        return obj.leibniz
    raise lio.SchemaError("this command needs a leibniz or huliu file")


def cmd_verify(args):
    """The report of the structure ``--kind`` names: its first failing layer."""
    obj = lio.load_file(args.path)
    if lio._is_xi_group(obj):
        obj = obj.graded
    if args.kind == "leibniz":
        obj = _as_leibniz(obj)
    elif args.kind == "assoc":
        if isinstance(obj, GradedAlgebra):
            obj = obj.algebra
        if not isinstance(obj, Algebra):
            raise lio.SchemaError("kind 'assoc' needs an algebra, graded, or xigroup file")
    elif args.kind == "grading" and not isinstance(obj, GradedAlgebra):
        raise lio.SchemaError("kind 'grading' needs a graded or xigroup file")
    elif args.kind == "huliu" and not isinstance(obj, HuLiuAlgebra):
        raise lio.SchemaError("kind 'huliu' needs a huliu file")
    rep = obj.report()
    return (0 if rep.holds else 1, *_report(rep))


def cmd_annihilator(args):
    ann = annihilator(_as_leibniz(lio.load_file(args.path)))
    return 0, {"dim": ann.dim, "basis": _strs(ann.basis)}, [
        f"annihilator dimension {ann.dim}", *(f"  {_vec(b)}" for b in ann.basis)]


def cmd_simple(args):
    obj = lio.load_file(args.path)
    if isinstance(obj, HuLiuAlgebra):
        verdict = classify_huliu_simplicity(obj, seed=args.seed)
    else:
        verdict = classify_simplicity(_as_leibniz(obj), seed=args.seed)
    cert = verdict.certificate
    lines = [f"{verdict.tag}: {verdict.reason}", *(f"  checked: {c}" for c in verdict.checks)]
    if cert is not None:
        lines += ["  certificate ideal basis:", *(f"    {_vec(b)}" for b in cert.basis)]
    return {"Simple": 0, "NotSimple": 1, "Unknown": 3}[verdict.tag], {
        "verdict": verdict.tag,
        "reason": verdict.reason,
        "checks": list(verdict.checks),
        "certificate": None if cert is None else _strs(cert.basis),
    }, lines


def cmd_derive(args):
    graded = _load(args, GradedAlgebra, "a graded")
    lio.save_file(derive_huliu(graded) if args.huliu else derive_leibniz(graded), args.output)
    return 0, None, [f"wrote {'huliu' if args.huliu else 'leibniz'} file {args.output}"]


def cmd_tangent(args):
    from .xigroup import LinearXiGroup, tangent_space, verify_tangent_huliu

    group = _load(args, LinearXiGroup, "an xigroup")
    t = tangent_space(group)
    rep = verify_tangent_huliu(t, group.realization)
    rep_json, rep_lines = _report(rep)
    return 0 if rep.holds else 1, {
        "dim": t.subspace.dim,
        "exact": t.exact,
        "basis": _strs(t.subspace.basis),
        "huliu_structure": rep_json,
    }, [f"tangent space dimension {t.subspace.dim} (exact)",
        *(f"  {_vec(b)}" for b in t.subspace.basis), *rep_lines]


def cmd_xi_check(args):
    from .xigroup import LinearXiGroup, NotAUnitError, SamplingError, check_xi_group

    group = _load(args, LinearXiGroup, "an xigroup")
    try:
        chk = check_xi_group(group, samples=args.samples, seed=args.seed)
    except (NotAUnitError, SamplingError) as e:  # a sample the check cannot use
        sys.stderr.write(f"undecided: {e}\n")
        return 3, None, []
    return 0 if chk.holds else 1, {
        "holds": chk.holds, "samples": chk.samples, "worst_residual": chk.worst_residual,
        "witness": None if chk.witness is None else {
            "x": list(map(float, chk.witness[0])),
            "h": list(map(float, chk.witness[1])),
            "residual": chk.witness[2]},
    }, [f"conjugation stability over {chk.samples} samples: "
        f"worst residual {chk.worst_residual:.3e} ({'holds' if chk.holds else 'violated'})"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="leibkit",
        description="Verify, derive, and probe Leibniz-type bracket algebras "
                    "and linear xi-groups stored as JSON files.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("path")
        p.set_defaults(run=run)
        return p

    command("verify", cmd_verify, "check a defining identity set").add_argument(
        "--kind", required=True, choices=["leibniz", "huliu", "assoc", "grading"])
    command("annihilator", cmd_annihilator, "print the annihilator basis")
    command("simple", cmd_simple, "classify simplicity").add_argument(
        "--seed", type=int, default=0)
    p = command("derive", cmd_derive, "derive brackets from a graded algebra")
    p.add_argument("--huliu", action="store_true")
    p.add_argument("-o", "--output", required=True)
    command("tangent", cmd_tangent, "tangent space of a linear xi-group")
    p = command("xi-check", cmd_xi_check, "sampled conjugation-stability check")
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    for name in ("verify", "annihilator", "simple", "tangent", "xi-check"):  # last in --help
        sub.choices[name].add_argument("--json", action="store_true")

    p = sub.add_parser("fuzz", help="random square-zero extensions through all verifiers")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dim0", type=int, default=3)
    p.add_argument("--dim1", type=int, default=3)
    p.add_argument("--dump-dir", default=".")
    p.set_defaults(run=lambda a: (run_fuzz(a.trials, a.seed, a.dim0, a.dim1, sys.stdout,
                                           dump_dir=a.dump_dir), None, []))

    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0

    try:
        code, obj, lines = args.run(args)
    except (ValueError, OSError) as e:  # bad input; a RuntimeError is a bug
        sys.stderr.write(f"error: {e}\n")
        return 2
    if getattr(args, "json", False) and obj is not None:
        lines = [json.dumps(obj)]
    sys.stdout.writelines(f"{line}\n" for line in lines)
    return code


if __name__ == "__main__":
    raise SystemExit(main())

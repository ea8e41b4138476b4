"""Command-line front end.

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


def _report_json(rep: Report) -> dict:
    w = rep.witness
    return {"holds": rep.holds, "identity": rep.identity, "witness": None if w is None else {
        "inputs": [[str(c) for c in v] for v in w.inputs],
        "lhs": [str(c) for c in w.lhs],
        "rhs": [str(c) for c in w.rhs],
        "note": w.note,
    }}


def _emit_report(rep: Report, as_json: bool, out) -> int:
    if as_json:
        json.dump(_report_json(rep), out)
        out.write("\n")
    elif rep.holds:
        out.write(f"holds: {rep.identity}\n")
    else:
        w = rep.witness
        out.write(f"falsified: {rep.identity} ({w.note})\n")
        for v in w.inputs:
            out.write(f"  input {_vec(v)}\n")
        out.write(f"  lhs {_vec(w.lhs)}\n  rhs {_vec(w.rhs)}\n")
    return 0 if rep.holds else 1


def _as_leibniz(obj):
    if isinstance(obj, LeibnizAlgebra):
        return obj
    if isinstance(obj, HuLiuAlgebra):
        return obj.leibniz
    raise lio.SchemaError("this command needs a leibniz or huliu file")


def cmd_verify(args, out) -> int:
    """Emit the report of the structure ``--kind`` names: its first failing layer."""
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
    return _emit_report(obj.report(), args.json, out)


def cmd_annihilator(args, out) -> int:
    ann = annihilator(_as_leibniz(lio.load_file(args.path)))
    if args.json:
        json.dump({"dim": ann.dim,
                   "basis": [[str(c) for c in b] for b in ann.basis]}, out)
        out.write("\n")
    else:
        out.write(f"annihilator dimension {ann.dim}\n")
        for b in ann.basis:
            out.write(f"  {_vec(b)}\n")
    return 0


def cmd_simple(args, out) -> int:
    obj = lio.load_file(args.path)
    if isinstance(obj, HuLiuAlgebra):
        verdict = classify_huliu_simplicity(obj, seed=args.seed)
    else:
        verdict = classify_simplicity(_as_leibniz(obj), seed=args.seed)
    if args.json:
        json.dump({
            "verdict": verdict.tag,
            "reason": verdict.reason,
            "checks": list(verdict.checks),
            "certificate": None if verdict.certificate is None
            else [[str(c) for c in b] for b in verdict.certificate.basis],
        }, out)
        out.write("\n")
    else:
        out.write(f"{verdict.tag}: {verdict.reason}\n")
        for c in verdict.checks:
            out.write(f"  checked: {c}\n")
        if verdict.certificate is not None:
            out.write("  certificate ideal basis:\n")
            for b in verdict.certificate.basis:
                out.write(f"    {_vec(b)}\n")
    return {"Simple": 0, "NotSimple": 1, "Unknown": 3}[verdict.tag]


def cmd_derive(args, out) -> int:
    obj = lio.load_file(args.path)
    if not isinstance(obj, GradedAlgebra):
        raise lio.SchemaError("derive needs a graded file")
    derived = derive_huliu(obj) if args.huliu else derive_leibniz(obj)
    lio.save_file(derived, args.output)
    out.write(f"wrote {'huliu' if args.huliu else 'leibniz'} file {args.output}\n")
    return 0


def cmd_tangent(args, out) -> int:
    from .xigroup import LinearXiGroup, tangent_space, verify_tangent_huliu

    group = lio.load_file(args.path)
    if not isinstance(group, LinearXiGroup):
        raise lio.SchemaError("tangent needs an xigroup file")
    t = tangent_space(group)
    rep = verify_tangent_huliu(t, group.realization)
    if args.json:
        json.dump({
            "dim": t.subspace.dim,
            "exact": t.exact,
            "basis": [[str(c) for c in b] for b in t.subspace.basis],
            "huliu_structure": _report_json(rep),
        }, out)
        out.write("\n")
    else:
        out.write(f"tangent space dimension {t.subspace.dim} (exact)\n")
        for b in t.subspace.basis:
            out.write(f"  {_vec(b)}\n")
        _emit_report(rep, False, out)
    return 0 if rep.holds else 1


def cmd_xi_check(args, out) -> int:
    from .xigroup import LinearXiGroup, NotAUnitError, SamplingError, check_xi_group

    group = lio.load_file(args.path)
    if not isinstance(group, LinearXiGroup):
        raise lio.SchemaError("xi-check needs an xigroup file")
    try:
        chk = check_xi_group(group, samples=args.samples, seed=args.seed)
    except (NotAUnitError, SamplingError) as e:  # a sample the check cannot use
        sys.stderr.write(f"undecided: {e}\n")
        return 3
    if args.json:
        json.dump({"holds": chk.holds, "samples": chk.samples,
                   "worst_residual": chk.worst_residual,
                   "witness": None if chk.witness is None else {
                       "x": list(map(float, chk.witness[0])),
                       "h": list(map(float, chk.witness[1])),
                       "residual": chk.witness[2]}}, out)
        out.write("\n")
    else:
        out.write(f"conjugation stability over {chk.samples} samples: "
                  f"worst residual {chk.worst_residual:.3e} "
                  f"({'holds' if chk.holds else 'violated'})\n")
    return 0 if chk.holds else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="leibkit",
        description="Verify, derive, and probe Leibniz-type bracket algebras "
                    "and linear xi-groups stored as JSON files.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check a defining identity set")
    p.add_argument("path")
    p.add_argument("--kind", required=True,
                   choices=["leibniz", "huliu", "assoc", "grading"])
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("annihilator", help="print the annihilator basis")
    p.add_argument("path")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("simple", help="classify simplicity")
    p.add_argument("path")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("derive", help="derive brackets from a graded algebra")
    p.add_argument("path")
    p.add_argument("--huliu", action="store_true")
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("tangent", help="tangent space of a linear xi-group")
    p.add_argument("path")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("xi-check", help="sampled conjugation-stability check")
    p.add_argument("path")
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("fuzz", help="random square-zero extensions through all verifiers")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--dim0", type=int, default=3)
    p.add_argument("--dim1", type=int, default=3)
    p.add_argument("--dump-dir", default=".")

    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0

    out = sys.stdout
    dispatch = {
        "verify": cmd_verify,
        "annihilator": cmd_annihilator,
        "simple": cmd_simple,
        "derive": cmd_derive,
        "tangent": cmd_tangent,
        "xi-check": cmd_xi_check,
    }
    try:
        if args.command == "fuzz":
            return run_fuzz(args.trials, args.seed, args.dim0, args.dim1, out,
                            dump_dir=args.dump_dir)
        return dispatch[args.command](args, out)
    except (ValueError, OSError) as e:  # bad input; a RuntimeError is a bug
        sys.stderr.write(f"error: {e}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())

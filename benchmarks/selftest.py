"""Self-test of the benchmark's tracer; exits nonzero on any failure.

    python3 benchmarks/selftest.py

1. In-process: installing the tracer rebinds every alias of the traced
   functions (including ``from .x import y`` copies such as
   ``leibniz.closure`` and ``modules.kernel``) and the Matrix methods, and
   restoring puts every original back.
2. A traced run of all four workloads through ``run.py --trace 1``: each run
   checks that its two traced passes make identical per-layer call counts
   and that traced and untraced passes give the same verdicts, dims and
   residuals.  Here every per-layer ``.calls`` metric must also be nonzero on
   at least one workload, and the reported metrics must be the ones
   BENCHMARK.json declares.  The share of traced self time per layer is
   printed for each workload.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def check_rebinding() -> list[str]:
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import leibkit
    import leibkit.leibniz
    import leibkit.linalg
    import leibkit.modules
    import targets
    from tracer import Tracer

    def snapshot():
        mods = [m for n, m in sys.modules.items() if n == "leibkit" or n.startswith("leibkit.")]
        out = {(m.__name__, k): v for m in mods for k, v in vars(m).items()}
        for _, owner, attr, *_ in targets.TARGETS:
            if isinstance(owner, type):
                out[(owner.__qualname__, attr)] = owner.__dict__[attr]
        return out

    before = snapshot()
    problems = []
    tr = Tracer()
    tr.install(targets.TARGETS)
    try:
        for owner, attr in ((leibkit.modules, "kernel"), (leibkit.leibniz, "closure"),
                            (leibkit.modules, "closure"), (leibkit, "span"),
                            (leibkit.linalg.Matrix, "__matmul__")):
            if getattr(getattr(owner, attr), "__wrapped__", None) is None:
                problems.append(f"{owner.__name__}.{attr} was not rebound")
        m = leibkit.linalg.Matrix([[1, 2], [0, 1]])
        (m @ m).matvec((1, 1))
        if tr.calls["linalg.Matrix.matmul"] != 1 or tr.calls["linalg.Matrix.matvec"] != 1:
            problems.append(f"Matrix method calls not counted: {dict(tr.calls)}")
    finally:
        tr.restore()
    after = snapshot()
    changed = [k for k in before if after.get(k) is not before[k]]
    if changed:
        problems.append(f"not restored: {changed}")
    return problems


def check_traced_runs() -> list[str]:
    out = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", "all",
                          "--seed", "7", "--trace", "1"],
                         cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    problems = [] if out.returncode == 0 else [f"traced run exited {out.returncode}"]
    runs = [json.loads(line) for line in out.stdout.splitlines() if line.startswith("{")]
    infos = [r["info"] for r in runs if "info" in r]
    results = [r for r in runs if "metrics" in r]
    if len(results) != 4:
        return problems + [f"expected 4 workload results, got {len(results)}"]
    seen = {}
    for info, res in zip(infos, results):
        problems += [f"{info['workload']}: {p}" for p in info["problems"]]
        m = res["metrics"]
        for k, v in m.items():
            if k.endswith(".calls"):
                seen[k] = seen.get(k, 0) + v["value"]
        selfs = {k[:-len(".self_s")]: v["value"] for k, v in m.items() if k.endswith(".self_s")}
        total = sum(selfs.values()) or 1.0
        layers = {}
        for k, v in selfs.items():
            layers[k.split(".")[0]] = layers.get(k.split(".")[0], 0.0) + v

        def shares(d, n):
            top = sorted(d.items(), key=lambda kv: -kv[1])[:n]
            return ", ".join(f"{k} {v / total:.0%}" for k, v in top)

        print(f"{info['workload']:9s} overhead {m['trace.overhead_frac']['value']:+.2f}; "
              f"layers {shares(layers, 9)}; top {shares(selfs, 4)}")
    problems += [f"{k} is 0 on every workload" for k, v in seen.items() if v == 0]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = [(m["name"], m["unit"]) for m in json.load(f)["per_layer"]]
    reported = [(k, v["unit"]) for k, v in results[0]["metrics"].items()]
    if declared != reported:
        problems.append("per-layer metrics differ from BENCHMARK.json")
    return problems


def main() -> int:
    problems = check_rebinding() + check_traced_runs()
    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

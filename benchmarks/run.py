"""leibkit benchmark: four closed-loop workloads, each in fresh processes.

Usage, from the repository root:

    python3 benchmarks/run.py --workload corpus --seed 1 --seconds 15 --trace 0

``--workload`` is one of corpus, classify, construct, xigroup, or all (the
default, which runs the four one after another).  With ``--trace 0`` the
last line of standard output is a JSON object whose metrics are the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
traced run, and the spans are written under ``.bench_out/``.  The exit code
is 0 only when every output matched its known answer: an item whose answer
is wrong, or that raises (leibkit raises RuntimeError when one of its own
identity checks fails), makes the result ``correct: false`` and the exit
code 1.  A deadline overrun and a float tolerance breach are soft failures:
they count in ``failed`` and lower ``decided_frac``.  ``Unknown`` only lowers
``decided_frac``.

End-to-end metrics (tracing off).  Times are at reference speed: measured
seconds scaled by the machine speed sampled over the same interval (see
calibrate.py); the info line before the result gives the raw medians.
  setup_s       median over five fresh processes of ``import leibkit`` plus
                the workload's set-up
  wall_s        median time of one pass over the workload's items
  items_per_s   items completed per second over all passes
  item_p50_ms   median over the items of each item's median time across
                passes (one sample per item: 500 on corpus, 18 on xigroup,
                5 on classify, 3 on construct)
  item_p98_ms   98th percentile of the same samples; only corpus has 10
                samples beyond it, elsewhere it sits on the slowest rung
  max_item_s    the slowest of the same samples
  decided_frac  items that returned a correct, decided answer in time, over
                items attempted (1 - fail_frac: Unknown, deadline or
                tolerance breach count against it)
  peak_rss_mb   peak resident memory of the measuring process

Per-layer metrics (``--trace 1``) cover one traced pass, without set-up,
except the ``fuzz.*`` metrics, which cover the traced set-up: the corpus is
generated there and nowhere else.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".bench_out")

WORKLOAD_NAMES = ("corpus", "classify", "construct", "xigroup")
SETUP_PROCESSES = 5
# All workers of one workload must end within this many seconds, so that a
# run exits within its 180 s limit even when a worker hangs.
RUN_DEADLINE_S = 170

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "items_per_s": "1/s",
    "item_p50_ms": "ms",
    "item_p98_ms": "ms",
    "max_item_s": "s",
    "decided_frac": "ratio",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, HERE])
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    return env


def build():
    """Byte-compile the sources so no timed import pays for compilation."""
    if not os.path.isfile(os.path.join(SRC, "leibkit", "__init__.py")):
        raise BenchError(f"leibkit sources not found under {SRC}")
    subprocess.run([sys.executable, "-m", "compileall", "-q", os.path.join(SRC, "leibkit"), HERE],
                   check=True, stdout=subprocess.DEVNULL, timeout=60)


def run_worker(workload, seed, seconds, mode, deadline, spans=None) -> dict:
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--mode", mode]
    if spans:
        cmd += ["--spans", spans]
    try:
        proc = subprocess.run(cmd, env=worker_env(), cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} worker ({mode}) overran the run deadline") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} worker ({mode}) exited with {proc.returncode}")
    return json.loads(lines[-1])


# Item statuses that mean the program is at fault; the run is then incorrect.
HARD_FAILURES = ("wrong", "error")


def item_summary(passes):
    """(attempted, decided, failed, hard failures as 'item (status)')."""
    records = [r for p in passes for r in p["items"]]
    attempted = len(records)
    decided = sum(1 for r in records if r[2] == "ok")
    failed = sum(1 for r in records if r[2] not in ("ok", "unknown"))
    hard = [f"{r[0]} ({r[2]})" for r in records if r[2] in HARD_FAILURES]
    return attempted, decided, failed, hard


def end_to_end(res, setup_samples):
    """End-to-end metrics at reference speed; raw medians go to the info line.

    Item statistics are taken over each item's median time across passes, so
    a one-off stall in one pass does not decide the slowest item.
    """
    passes = res["passes"]
    attempted, decided, failed, hard = item_summary(passes)
    walls = [p["wall_s"] * p["scale"] for p in passes]
    per_item: dict[str, list[float]] = {}
    for p in passes:
        for name, t, _, k in p["items"]:
            per_item.setdefault(name, []).append(t * (k or p["scale"]))
    times = [statistics.median(ts) for ts in per_item.values()]
    values = {
        "setup_s": statistics.median(s * k for s, k in setup_samples),
        "wall_s": statistics.median(walls),
        "items_per_s": attempted / sum(walls),
        "item_p50_ms": 1000.0 * statistics.median(times),
        "item_p98_ms": 1000.0 * statistics.quantiles(times, n=50, method="inclusive")[-1],
        "max_item_s": max(times),
        "decided_frac": decided / attempted,
        "peak_rss_mb": res["peak_rss_mb"],
    }
    metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    info = {"passes": len(passes), "item_samples": len(times),
            "unknown": sum(1 for p in passes for r in p["items"] if r[2] == "unknown"),
            "raw_setup_s": statistics.median(s for s, _ in setup_samples),
            "raw_wall_s": statistics.median(p["wall_s"] for p in passes),
            "speed": [round(1.0 / p["scale"], 3) for p in passes]}
    return metrics, attempted, failed, hard, info


def per_layer(res):
    layers = res["layers"]
    metrics = {k: {"value": layers[k], "unit": u} for k, u in res["units"]}
    attempted, _, failed, hard = item_summary(res["passes"])
    return metrics, attempted, failed, hard


def commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(seed) -> dict:
    import numpy
    return {"seed": seed, "commit": commit(), "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count()}


def run_one(workload, seed, seconds, traced) -> bool:
    deadline = time.monotonic() + RUN_DEADLINE_S
    info = {"workload": workload, **environment(seed)}
    if traced:
        os.makedirs(OUT_DIR, exist_ok=True)
        spans = os.path.join(OUT_DIR, f"spans-{workload}-{seed}.jsonl")
        res = run_worker(workload, seed, seconds, "trace", deadline, spans)
        metrics, attempted, failed, hard = per_layer(res)
        problems = res["problems"]
        info["spans"] = os.path.relpath(spans, ROOT)
    else:
        runs = [run_worker(workload, seed, seconds, "setup", deadline)
                for _ in range(SETUP_PROCESSES - 1)]
        res = run_worker(workload, seed, seconds, "measure", deadline)
        setup = [(r["setup_s"], r["setup_scale"]) for r in runs + [res]]
        metrics, attempted, failed, hard, extra = end_to_end(res, setup)
        info.update(extra)
        problems = []
    problems += [f"failed check: {name}" for name in hard]
    info["problems"] = problems
    print(json.dumps({"info": info}))
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}), flush=True)
    return correct


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    try:
        build()
        ok = [run_one(w, args.seed, args.seconds, bool(args.trace)) for w in names]
    except (BenchError, subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 2
    return 0 if all(ok) else 1


if __name__ == "__main__":
    sys.exit(main())

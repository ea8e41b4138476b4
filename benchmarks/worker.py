"""One workload in one fresh process; prints one JSON line.

Modes:
  setup    time ``import leibkit`` plus the workload's set-up, then exit;
  measure  set up, then run timed passes until --seconds have passed;
  trace    set up, run one untraced pass, then trace a fresh set-up and two
           passes.  The two traced passes must make identical per-layer call
           counts, and all three passes must give identical fingerprints.
           Per-layer values are those of the first traced pass (set-up-only
           layers: of the traced set-up; see targets.SETUP_ONLY).

Every timing comes with the scale to reference speed measured by the speed
probe over the same interval (see calibrate.py).  Run through ``run.py``,
which sets the environment (PYTHONPATH, one BLAS thread) and combines the
results.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import statistics
import sys
import time
import traceback

from calibrate import SpeedProbe

PROBE = SpeedProbe()
PROBE.start()
T_START = time.perf_counter()  # set-up is timed from here

# A worker stops starting items after this long, so that run.py's deadline
# for the whole process is never reached.
RUN_BUDGET_S = 150.0


class ItemDeadline(Exception):
    """Raised from the alarm handler when an item overruns its deadline."""


def _alarm(signum, frame):
    raise ItemDeadline()


def run_pass(wl, state, seed, tracer=None, pass_id=0):
    """Run every item once.

    Returns ({"wall_s", "scale", "items": [(name, seconds, status, scale)]},
    fingerprints).  An item's scale is None when it was too short for the
    probe to sample it well; the pass's scale then applies.
    """
    from workloads import WrongAnswer

    records, prints = [], []
    pass_mark = PROBE.mark()
    for name, fn in wl.items(state, seed):
        left = RUN_BUDGET_S - (time.perf_counter() - T_START)
        if left <= 0:
            records.append((name, 0.0, "deadline", None))
            prints.append((name, "deadline"))
            continue
        if tracer is not None:
            tracer.start_item(f"{pass_id}:{name}")
        mark = PROBE.mark()
        signal.setitimer(signal.ITIMER_REAL, min(wl.item_deadline_s, left))
        try:
            status, fp = fn()
        except ItemDeadline:
            status, fp = "deadline", None
        except WrongAnswer as e:
            status, fp = "wrong", str(e)
        except RuntimeError as e:  # leibkit's own identity checks failed
            traceback.print_exc(file=sys.stderr)
            status, fp = "wrong", f"RuntimeError: {e}"
        except Exception:  # any other raise fails the run too (see run.py)
            traceback.print_exc(file=sys.stderr)
            status, fp = "error", None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        seconds, scale = PROBE.interval(mark)
        records.append((name, seconds, status, scale))
        prints.append((name, status, fp))
    wall, scale = PROBE.interval(pass_mark, top_up=True)
    return {"wall_s": wall, "scale": scale, "items": records}, prints


def measure(wl, state, seed, seconds):
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(wl, state, seed)[0])
        if time.perf_counter() - start >= seconds:
            break
    return {"passes": passes,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def trace(wl, state, seed, spans_path):
    import targets
    from tracer import Tracer

    plain, prints_plain = run_pass(wl, state, seed)
    tr = Tracer()
    PROBE.on_tick = tr.exclude
    tr.install(targets.TARGETS)
    try:
        tr.start_item("setup")
        start = tr.snapshot()
        state = wl.setup(seed)
        after_setup = tr.snapshot()
        traced_a, prints_a = run_pass(wl, state, seed, tr, 1)
        after_a = tr.snapshot()
        traced_b, prints_b = run_pass(wl, state, seed, tr, 2)
        end = tr.snapshot()
    finally:
        tr.restore()
        PROBE.on_tick = None
    tr.write_spans(spans_path)
    pass_a = targets.window(after_setup, after_a)
    values = targets.layer_values(pass_a, targets.window(start, after_setup))
    pass_b = targets.window(after_a, end)
    names = [n for n, *_ in targets.TARGETS]
    calls_a = {n: pass_a[0][n] for n in names}
    calls_b = {n: pass_b[0][n] for n in names}
    problems = []
    if calls_a != calls_b:
        diff = {n: (calls_a[n], calls_b[n]) for n in names if calls_a[n] != calls_b[n]}
        problems.append(f"traced passes differ in calls: {diff}")
    if not (prints_plain == prints_a == prints_b):
        problems.append("traced and untraced passes differ in verdicts, dims or residuals")

    def ref_wall(p):
        return p["wall_s"] * p["scale"]

    values[targets.OVERHEAD] = (statistics.mean([ref_wall(traced_a), ref_wall(traced_b)])
                                / ref_wall(plain) - 1.0)
    return {"passes": [plain, traced_a, traced_b], "layers": values,
            "units": targets.per_layer_metrics(), "problems": problems}


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    p.add_argument("--spans", default=os.devnull)
    args = p.parse_args(argv)

    import leibkit  # noqa: F401  (timed as part of set-up)
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    signal.signal(signal.SIGALRM, _alarm)
    state = wl.setup(args.seed)
    setup_s, setup_scale = PROBE.interval((0, 0.0, T_START), top_up=True)
    out = {"setup_s": setup_s, "setup_scale": setup_scale}
    if args.mode == "measure":
        out.update(measure(wl, state, args.seed, args.seconds))
    elif args.mode == "trace":
        out.update(trace(wl, state, args.seed, args.spans))
    PROBE.stop()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())

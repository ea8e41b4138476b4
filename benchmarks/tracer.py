"""Outside-in tracer: wraps leibkit's public functions without editing them.

``Tracer.install`` rebinds every alias of each traced function across the
loaded ``leibkit.*`` namespaces (``from .linalg import kernel`` leaves a
copy in ``modules``, ``leibniz``, ``xigroup``, ...), and the traced methods
on their classes; ``Tracer.restore`` puts every original back.

Each call records a span (name, start, end, parent span, item id).  Self time
is a span's duration minus the durations of its child spans.  Work counters
(multiply-adds, densities) and the tracer's own bookkeeping run outside the
span timestamps, and their cost is subtracted from every enclosing span, so
the counting does not inflate the self time of any layer.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict

perf = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: defaultdict = defaultdict(float)
        self.active: Counter = Counter()
        self.item = None
        self._stack: list[list] = []
        self._excluded = 0.0  # bookkeeping seconds, subtracted from open spans
        self._bound: list[tuple] = []
        self._nnz_cache: dict[int, tuple] = {}

    # -- rebinding -----------------------------------------------------------

    def install(self, targets):
        """Wrap each (name, owner, attr, pre, post) target; see ``targets.py``."""
        mods = [m for n, m in list(sys.modules.items())
                if m is not None and (n == "leibkit" or n.startswith("leibkit."))]
        for name, owner, attr, pre, post in targets:
            orig = owner.__dict__[attr]
            wrapped = self._wrap(name, orig, pre, post)
            if isinstance(owner, type):
                self._rebind(owner, attr, orig, wrapped)
            for m in mods:
                for key, val in list(vars(m).items()):
                    if val is orig:
                        self._rebind(m, key, orig, wrapped)

    def _rebind(self, owner, attr, orig, wrapped):
        setattr(owner, attr, wrapped)
        self._bound.append((owner, attr, orig))

    def restore(self):
        for owner, attr, orig in reversed(self._bound):
            setattr(owner, attr, orig)
        self._bound.clear()

    def snapshot(self):
        """Copies of (calls, self_s, counts); see ``targets.window``."""
        return Counter(self.calls), dict(self.self_s), dict(self.counts)

    def exclude(self, seconds: float):
        """Subtract time spent outside the traced program from open spans."""
        self._excluded += seconds

    def start_item(self, item_id):
        self.item = item_id
        self._stack.clear()  # an interrupted item may leave open frames
        self._nnz_cache.clear()

    # -- spans ---------------------------------------------------------------

    def _wrap(self, name, fn, pre, post):
        tracer = self
        stack = self._stack

        def traced(*args, **kwargs):
            h0 = perf()
            if pre is not None:
                pre(tracer, args, kwargs)
            parent = stack[-1][0] if stack else -1
            frame = [len(tracer.spans), 0.0, 0.0]  # span id, child time, excluded at start
            tracer.spans.append(None)
            stack.append(frame)
            tracer.active[name] += 1
            frame[2] = tracer._excluded
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                tracer.active[name] -= 1
                if stack and stack[-1] is frame:
                    stack.pop()
                dur = (t1 - t0) - (tracer._excluded - frame[2])
                if stack:
                    stack[-1][1] += dur
                tracer.calls[name] += 1
                tracer.self_s[name] += dur - frame[1]
                tracer.spans[frame[0]] = (name, t0, t1, parent, tracer.item)
            if post is not None:
                post(tracer, result, args, kwargs)
            tracer._excluded += (t0 - h0) + (perf() - t1)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = fn.__doc__
        return traced

    def write_spans(self, path):
        with open(path, "w") as f:
            for s in self.spans:
                if s is not None:
                    f.write(json.dumps(s) + "\n")

    # -- counters ------------------------------------------------------------

    def nnz_profile(self, m):
        """(nonzeros per column, nonzeros per row) of a Matrix, cached per item."""
        hit = self._nnz_cache.get(id(m))
        if hit is not None and hit[0] is m:
            return hit[1], hit[2]
        cols = [0] * m.cols
        rows = []
        for r in m.data:
            n = 0
            for j, x in enumerate(r):
                if x:
                    cols[j] += 1
                    n += 1
            rows.append(n)
        self._nnz_cache[id(m)] = (m, cols, rows)
        return cols, rows


def table_nnz(t) -> int:
    return sum(1 for row in t for v in row for c in v if c)

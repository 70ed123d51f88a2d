"""In-memory span tracer that wraps zenosim's public functions from outside.

A span is (id, name, start, end, parent id). Spans are kept in memory and
written out once, at the end of the run. Per-name totals are kept as the
spans close: calls, wall time and self time, where self time is the
span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from typing import Callable, Dict, List, Optional, Tuple

# Raw spans kept for the trace file; totals are kept for every span.
MAX_SPANS = 100_000


class Tracer:
    def __init__(self) -> None:
        self.totals: Dict[str, List[float]] = {}  # name -> [calls, wall, self]
        self.counters: Dict[str, float] = {}
        self.spans: List[Tuple[int, str, float, float, int]] = []
        self.absent: List[str] = []
        self._stack: List[list] = []  # [id, name, start, child time, parent]
        self._next_id = 0
        self._patched: List[Tuple[object, str, object]] = []

    def begin(self, name: str) -> None:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append([sid, name, time.perf_counter(), 0.0, parent])

    def end(self) -> None:
        stop = time.perf_counter()
        sid, name, start, child, parent = self._stack.pop()
        wall = stop - start
        tot = self.totals.get(name)
        if tot is None:
            tot = self.totals[name] = [0, 0.0, 0.0]
        tot[0] += 1
        tot[1] += wall
        tot[2] += wall - child
        if self._stack:
            self._stack[-1][3] += wall
        if sid < MAX_SPANS:
            self.spans.append((sid, name, start, stop, parent))

    def count(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def wrap(self, fn: Callable, name: str,
             before: Optional[Callable] = None,
             after: Optional[Callable] = None) -> Callable:
        """Span around fn; `before(tracer, args, kwargs)` and `after(tracer, result)` add counts."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(tracer, args, kwargs)
            tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end()
            if after is not None:
                after(tracer, result)
            return result

        return traced

    def install(self, package: str, targets) -> None:
        """Replace each target function wherever the package binds it.

        targets: iterable of (module, function, before, after). A function
        that the module no longer defines is recorded as absent.
        """
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == package or n.startswith(package + "."))]
        for mod_name, fn_name, before, after in targets:
            module = sys.modules.get(f"{package}.{mod_name}")
            orig = getattr(module, fn_name, None) if module is not None else None
            if not callable(orig):
                label = f"{mod_name}.{fn_name}"
                if label not in self.absent:
                    self.absent.append(label)
                continue
            traced = self.wrap(orig, f"{mod_name}.{fn_name}", before, after)
            for m in modules:
                for attr in [a for a, v in vars(m).items() if v is orig]:
                    setattr(m, attr, traced)
                    self._patched.append((m, attr, orig))

    def uninstall(self) -> None:
        """Put back every function object that install replaced."""
        for module, attr, orig in reversed(self._patched):
            setattr(module, attr, orig)
        self._patched.clear()

    def write(self, path) -> None:
        """Write spans, totals and counters as one JSON document."""
        doc = {
            "spans": [{"id": s, "name": n, "start": a, "end": b, "parent": p}
                      for s, n, a, b, p in self.spans],
            "spans_total": self._next_id,
            "totals": {n: {"calls": c, "wall_s": w, "self_s": s}
                       for n, (c, w, s) in sorted(self.totals.items())},
            "counters": dict(sorted(self.counters.items())),
            "absent": self.absent,
        }
        with open(path, "w") as f:
            json.dump(doc, f)

"""Span tracing around the public functions of each semilie module.

Nothing under ``src/`` is touched: the tracer replaces a function in every
``semilie`` module namespace that holds it (``semilie.orbital``,
``semilie.kernel`` and ``semilie.verify`` all hold ``derivative_closed_form``,
so all three are patched), and a method on its class.  That attributes calls
that cross layers to the layer that owns the function.

Spans are not kept one by one: a grid pass crosses millions of boundaries.
They are aggregated in memory by (name, parent) into call count, inclusive
time and self time (the span minus its child spans), and written at exit.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter


class Tracer:
    def __init__(self):
        # (name, parent name or None) -> [calls, inclusive seconds, self seconds]
        self.stats: dict[tuple[str, str | None], list] = {}
        self.counts: Counter = Counter()
        self.active = False
        self._stack: list[list] = []  # frames of [name, seconds spent in children]
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, pre=None):
        """Return ``fn`` recording a span ``name`` on each call while active.

        ``pre(args)`` runs before the clock starts, so what it counts is not
        charged to the span."""
        stack, stats, clock = self._stack, self.stats, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if pre is not None:
                pre(args)
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += dt
                rec = stats.get((name, parent))
                if rec is None:
                    rec = stats[(name, parent)] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - frame[1]

        return traced

    def patch(self, name: str, module: str, attr: str, pre=None, inner=None) -> None:
        """Wrap ``module.attr`` (``attr`` may be ``Class.method``) everywhere
        a ``semilie`` module refers to it.  ``inner`` adapts the original
        function first, for counters that need its arguments and result."""
        owner = sys.modules[module]
        *cls_path, leaf = attr.split(".")
        for part in cls_path:
            owner = getattr(owner, part)
        original = owner.__dict__[leaf] if cls_path else getattr(owner, leaf)
        wrapped = self.wrap(name, inner(original) if inner else original, pre)
        if cls_path:
            self._set(owner, leaf, wrapped)
            return
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "semilie" and not mod_name.startswith("semilie."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, key, wrapped)

    def _set(self, owner, key: str, value) -> None:
        self._undo.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def unpatch(self) -> None:
        while self._undo:
            owner, key, value = self._undo.pop()
            setattr(owner, key, value)

    # ------------------------------------------------------------ reading
    def calls(self, name: str, parent: str | None = "*") -> int:
        return sum(rec[0] for (n, p), rec in self.stats.items() if n == name and parent in ("*", p))

    def self_time(self, name: str) -> float:
        return sum(rec[2] for (n, _), rec in self.stats.items() if n == name)

    def inclusive(self, name: str, parent: str | None = "*") -> float:
        return sum(rec[1] for (n, p), rec in self.stats.items() if n == name and parent in ("*", p))

    def dump(self, path) -> None:
        spans = [
            {"name": n, "parent": p, "calls": c, "inclusive_s": t, "self_s": s}
            for (n, p), (c, t, s) in sorted(self.stats.items(), key=lambda kv: -kv[1][2])
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"spans": spans, "counts": dict(self.counts)}, indent=1))

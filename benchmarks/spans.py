"""In-memory span recorder for the traced benchmark run.

Timing wrappers are installed from outside the program. A wrapped function
is replaced in every ``sinkmass`` module that holds a reference to it, so a
caller that imported the name directly (``from .linear import fit_ols``)
goes through the wrapper too and no call is silently bypassed. Methods are
replaced on their class. Spans keep their parent's id, stay in memory while
the run goes on, and are turned into per-layer metrics at the end.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager


class Recorder:
    def __init__(self):
        self.spans: list[tuple[str, int, int, float, float]] = []  # name, id, parent, t0, t1
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._stack: list[int] = [0]
        self._next_id = 1
        self._installed: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(span_id)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans.append((name, span_id, parent, t0, t1))

    def add(self, name: str, value: float) -> None:
        self.counts[name] += value

    def install(self, owner, attr: str, name, count=None) -> None:
        """Time every call of ``owner.attr`` as a span.

        ``name`` is the span name, or a function of the call's positional
        arguments returning it. ``count(recorder, args, result)`` records
        counts after the call returns.
        """
        original = getattr(owner, attr)
        recorder = self

        def wrapper(*args, **kwargs):
            with recorder.span(name(args) if callable(name) else name):
                result = original(*args, **kwargs)
            if count is not None:
                count(recorder, args, result)
            return result

        if isinstance(owner, type):
            targets = [owner]
        else:
            targets = [
                m for key, m in list(sys.modules.items())
                if key == "sinkmass" or key.startswith("sinkmass.")
            ]
        patched = 0
        for target in targets:
            for key, value in list(vars(target).items()):
                if value is original:
                    setattr(target, key, wrapper)
                    self._installed.append((target, key, original))
                    patched += 1
        if not patched:
            raise LookupError(f"{name}: no sinkmass module holds {attr}")

    def uninstall(self) -> None:
        for target, key, original in reversed(self._installed):
            setattr(target, key, original)
        self._installed.clear()

    def totals(self) -> tuple[dict[str, float], dict[str, int], dict[str, float]]:
        """Busy seconds, call counts and self seconds per span name.

        Self time is a span's duration minus the durations of its direct
        children; calls run on one thread, so children never overlap.
        """
        child_s: defaultdict[int, float] = defaultdict(float)
        for _, _, parent, t0, t1 in self.spans:
            child_s[parent] += t1 - t0
        busy: defaultdict[str, float] = defaultdict(float)
        calls: defaultdict[str, int] = defaultdict(int)
        self_s: defaultdict[str, float] = defaultdict(float)
        for name, span_id, _, t0, t1 in self.spans:
            busy[name] += t1 - t0
            calls[name] += 1
            self_s[name] += t1 - t0 - child_s[span_id]
        return busy, calls, self_s

"""In-memory spans around calls into qcanary's public functions.

The tracer replaces a function in the module namespace its caller looks it
up in (qcanary.audit calls ``train`` as ``qcanary.audit.train``), records
one span per call, name, start, end and parent, and adds per-call counts.
Nothing under ``src/`` changes; ``restore`` puts the originals back.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        # [name, start, end, parent index or -1]
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list = []
        self._patched: list = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, module, attr: str, name: str, count=None,
             required: bool = True) -> None:
        """Trace module.attr as span `name`; count(args, kwargs) -> {key: n}.

        A private name that a later refactor may remove is wrapped with
        required=False: its spans then go missing and a note goes to stderr.
        """
        original = getattr(module, attr, None)
        if original is None:
            if required:
                raise AttributeError(f"{module.__name__} has no {attr}")
            print(f"trace: {module.__name__}.{attr} not found; no {name} spans",
                  file=sys.stderr)
            return
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if count is not None:
                tracer.counts.update(count(args, kwargs))
            index = tracer.open(name)
            try:
                return original(*args, **kwargs)
            finally:
                tracer.close(index)

        setattr(module, attr, traced)
        self._patched.append((module, attr, original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def durations(self, name: str) -> list:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def totals(self) -> dict:
        """{name: (total seconds, self seconds, calls)}.

        Self time is a span's duration minus that of its direct children.
        """
        child_time = defaultdict(float)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        total, own, calls = defaultdict(float), defaultdict(float), Counter()
        for i, (name, start, end, _) in enumerate(self.spans):
            total[name] += end - start
            own[name] += end - start - child_time[i]
            calls[name] += 1
        return {n: (total[n], own[n], calls[n]) for n in total}

    def dump(self, path) -> None:
        with open(path, "w") as f:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, f)

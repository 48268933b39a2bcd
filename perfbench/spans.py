"""In-memory spans and counters recorded around the benchmark's calls into dabss.

Spans are recorded only from the benchmark's own files: each call the
benchmark makes into a layer's public function is wrapped, nothing inside
`src/` is touched. A span holds its name, start, end, parent span and op id;
its self time is its duration minus the time its direct children cover.
`NullTracer` is what untraced runs use, so the timed code path is the same
function objects the library exports.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict


class NullTracer:
    enabled = False

    def span(self, name: str):
        return contextlib.nullcontext()

    def wrap(self, name: str, fn):
        return fn

    def count(self, name: str, n: float = 1) -> None:
        pass


class Tracer(NullTracer):
    enabled = True

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int] | None] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.op_id = -1
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(index, name, start)

    def wrap(self, name: str, fn):
        open_, close, clock = self._open, self._close, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = open_()
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                close(index, name, start)
        return traced

    def _open(self) -> int:
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        return index

    def _close(self, index: int, name: str, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[index] = (name, start, end, parent, self.op_id)

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] += n

    def sample(self, name: str, value: float) -> None:
        self.samples[name].append(value)

    def self_times(self, root: str | None = None) -> dict[str, tuple[int, float]]:
        """Per span name: (number of spans, summed self time in seconds).

        With `root`, only spans in trees whose outermost span has that name.
        """
        covered = [0.0] * len(self.spans)
        roots = []
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
            roots.append(roots[parent] if parent >= 0 else name)
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for (name, start, end, _, _), child, top in zip(self.spans, covered, roots):
            if root is not None and top != root:
                continue
            entry = out[name]
            entry[0] += 1
            entry[1] += (end - start) - child
        return {name: (n, busy) for name, (n, busy) in out.items()}

    def durations(self, name: str) -> list[float]:
        return [end - start for (n, start, end, _, _) in self.spans if n == name]

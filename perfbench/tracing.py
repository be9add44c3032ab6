"""In-memory spans around the calls the benchmark makes into noisemod.

Nothing inside the package changes: the tracer replaces module-level
names in the modules that look them up (for example
`noisemod.harness.compute_moments`) with timing wrappers and puts the
originals back afterwards.  A name that does not exist at the revision
under test is skipped and its layer reports null.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    """Nested spans kept in memory; a span's parent is the span open around it."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.variates = 0  # counted by CountingGenerator
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index][1] = start
            self.spans[index][2] = end

    def wrap(self, name: str, fn, on_call=None):
        """fn timed as span `name`; on_call(args, kwargs) runs first, for counting."""

        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            with self.span(name):
                return fn(*args, **kwargs)

        return traced

    def patch(self, module, attr: str, name: str, on_call=None) -> bool:
        """Replace module.attr by a traced wrapper; False if it does not exist."""
        original = getattr(module, attr, None)
        return original is not None and self.replace(module, attr, self.wrap(name, original, on_call))

    def replace(self, module, attr: str, value) -> bool:
        """Replace module.attr by value until restore(); False if it does not exist."""
        original = getattr(module, attr, None)
        if original is None:
            return False
        self._patched.append((module, attr, original))
        setattr(module, attr, value)
        return True

    def restore(self) -> None:
        while self._patched:
            module, attr, original = self._patched.pop()
            setattr(module, attr, original)

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: total seconds, self seconds (minus direct children), calls."""
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for (name, start, end, _), children in zip(self.spans, child_time):
            agg = out.setdefault(name, {"total": 0.0, "self": 0.0, "calls": 0})
            agg["total"] += end - start
            agg["self"] += end - start - children
            agg["calls"] += 1
        return out

    def children_of(self, name: str) -> dict[str, float]:
        """Seconds in the direct children of spans called `name`, by child name."""
        out: dict[str, float] = {}
        for child, start, end, parent in self.spans:
            if parent >= 0 and self.spans[parent][0] == name:
                out[child] = out.get(child, 0.0) + end - start
        return out


class CountingGenerator:
    """Generator proxy: every draw method is a span and its variates are counted."""

    def __init__(self, gen, tracer: Tracer):
        self._gen = gen
        self._tracer = tracer

    def __getattr__(self, attr):
        value = getattr(self._gen, attr)
        if not callable(value):
            return value
        tracer = self._tracer

        def draw(*args, **kwargs):
            with tracer.span(f"generator.{attr}"):
                out = value(*args, **kwargs)
            tracer.variates += getattr(out, "size", 1)
            return out

        return draw

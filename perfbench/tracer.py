"""In-memory span tracer that wraps subseqlab call points from outside.

A target names a module of the package, an attribute path inside it and
the span name its calls are recorded under.  The same function is often
imported into several modules (``extremal`` calls ``_search_most_common``
through its own binding, ``construction`` calls ``lcs2`` through its
own), so one span name can have several targets; each binding is wrapped
separately.  A target that no longer exists raises at install time, so a
renamed function cannot silently drop a layer from the trace.

Spans are kept in a list of ``[name, start, end, parent]`` records while
the run lasts and written out as JSON lines when it ends.  The code under
test is single-threaded, so child spans never overlap and a span's self
time is its duration minus the sum of its children's durations.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass(frozen=True)
class Target:
    """One binding to wrap: ``module.attr`` recorded as span ``name``.

    ``observe(tracer, args, result)`` runs after each call and may bump
    counters.  With ``span=False`` the call is only counted, as
    ``<name>.count``, for call points hit so often that a span each
    would swamp the run.
    """

    module: str
    attr: str
    name: str
    observe: Callable | None = None
    span: bool = True


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        record = [name, self.clock(), 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            return fn(*args, **kwargs)
        finally:
            record[2] = self.clock()
            self._stack.pop()

    def wrap(self, target: Target, fn: Callable) -> Callable:
        tracer = self
        name, observe, span = target.name, target.observe, target.span

        def wrapper(*args, **kwargs):
            if span:
                result = tracer.call(name, fn, *args, **kwargs)
            else:
                tracer.counters[name + ".count"] += 1
                result = fn(*args, **kwargs)
            if observe is not None:
                observe(tracer, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installing -----------------------------------------------------

    def install(self, package: str, targets) -> None:
        """Replace every target binding by a recording wrapper.

        All targets are resolved before any is replaced, so a missing one
        leaves the package untouched.
        """
        resolved = []
        for t in targets:
            owner = importlib.import_module(f"{package}.{t.module}")
            *path, leaf = t.attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            fn = owner.__dict__.get(leaf) if isinstance(owner, type) else getattr(owner, leaf, None)
            if not callable(fn):
                raise LookupError(f"trace target {package}.{t.module}.{t.attr} not found")
            resolved.append((owner, leaf, fn, t))
        for owner, leaf, fn, t in resolved:
            self._restore.append((owner, leaf, fn))
            setattr(owner, leaf, self.wrap(t, fn))

    def uninstall(self) -> None:
        while self._restore:
            owner, leaf, fn = self._restore.pop()
            setattr(owner, leaf, fn)

    # -- reporting ------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy time and self time."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict[str, float]] = {}
        for (name, start, end, _), inner in zip(self.spans, child_time):
            agg = out.setdefault(name, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
            agg["calls"] += 1
            agg["busy_s"] += end - start
            agg["self_s"] += end - start - inner
        return out

    def busy_within(self, name: str, ancestor: str) -> float:
        """Total time of ``name`` spans that run inside an ``ancestor`` span."""
        total = 0.0
        for name_, start, end, parent in self.spans:
            if name_ != name:
                continue
            while parent >= 0 and self.spans[parent][0] != ancestor:
                parent = self.spans[parent][3]
            if parent >= 0:
                total += end - start
        return total

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end, "parent": parent}))
                fh.write("\n")

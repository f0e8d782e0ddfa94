"""In-memory span recorder wrapped around ddlab's public functions.

The package is never edited: `instrumented` swaps module attributes for
timing wrappers for the length of a `with` block and puts the originals
back afterwards.  A span has a name (``<module>.<function>``), a start, an
end and the id of the span that was open when it began.

Pool workers forked during a traced sweep inherit the wrappers and a copy
of the tracer.  A worker keeps its spans in memory and writes them to the
spool directory when its outermost span closes; the parent merges them
with `Tracer.collect_spool`.  ``time.perf_counter`` reads the system-wide
monotonic clock on Linux, so worker and parent spans share one time axis.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path

MODULES = ("bench", "cli", "harness", "solver", "reference", "diagnostics",
           "model", "grids")


@dataclass
class Span:
    id: str
    name: str
    parent: str | None
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def module(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, spool_dir=None):
        self.spans: list[Span] = []
        self.spool_dir = Path(spool_dir) if spool_dir is not None else None
        self._stack: list[Span] = []
        self._ids = itertools.count()
        self._pid = os.getpid()
        self._worker_base = None   # stack depth inherited by a forked worker

    @contextmanager
    def span(self, name: str, **attrs):
        pid = os.getpid()
        if pid != self._pid:
            # first span in a forked worker: drop the parent's spans
            self._pid = pid
            self.spans = []
            self._worker_base = len(self._stack)
        parent = self._stack[-1].id if self._stack else None
        s = Span(f"{pid}-{next(self._ids)}", name, parent, time.perf_counter(),
                 attrs=dict(attrs))
        self._stack.append(s)
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()
            self.spans.append(s)
            if self._worker_base is not None and \
                    len(self._stack) == self._worker_base:
                self._flush_worker()

    def _flush_worker(self):
        path = self.spool_dir / f"{self._pid}-{next(self._ids)}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps([asdict(s) for s in self.spans]))
        os.replace(tmp, path)
        self.spans = []

    def collect_spool(self) -> int:
        """Merge span files written by forked workers; returns the count."""
        if self.spool_dir is None or not self.spool_dir.is_dir():
            return 0
        n = 0
        for path in sorted(self.spool_dir.glob("*.json")):
            for d in json.loads(path.read_text()):
                self.spans.append(Span(**d))
                n += 1
        return n

    def wrap(self, fn, name: str, attrs_of=None):
        """Timing wrapper; attrs_of(args, kwargs, result) adds span attrs."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as s:
                out = fn(*args, **kwargs)
                if attrs_of is not None:
                    s.attrs.update(attrs_of(args, kwargs, out))
                return out
        return traced


@contextmanager
def instrumented(tracer: Tracer, targets):
    """Patch each (module, attribute, span name, attrs_of) for the block."""
    saved = []
    try:
        for mod, attr, name, attrs_of in targets:
            original = getattr(mod, attr)
            saved.append((mod, attr, original))
            setattr(mod, attr, tracer.wrap(original, name, attrs_of))
        yield tracer
    finally:
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part its children cover.  Children of
    one span may overlap (pool workers), so their union is subtracted."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.id: s.duration - _covered(children[s.id], s.start, s.end)
            for s in spans}


def module_self_times(spans) -> dict:
    out = {m: 0.0 for m in MODULES}
    own = self_times(spans)
    for s in spans:
        out[s.module] = out.get(s.module, 0.0) + own[s.id]
    return out


def tree_problems(spans, tol: float = 1e-9) -> list:
    """Structural defects: unknown parents, children outside their parent,
    negative self time.  An empty list means the tree is well formed."""
    by_id = {s.id: s for s in spans}
    problems = []
    if len(by_id) != len(spans):
        problems.append("duplicate span ids")
    for s in spans:
        if s.end < s.start:
            problems.append(f"{s.name} ({s.id}) ends before it starts")
        if s.parent is None:
            continue
        p = by_id.get(s.parent)
        if p is None:
            problems.append(f"{s.name} ({s.id}) has unknown parent {s.parent}")
        elif s.start < p.start - tol or s.end > p.end + tol:
            problems.append(f"{s.name} ({s.id}) lies outside parent {p.name}")
    for sid, t in self_times(spans).items():
        if t < -tol:
            problems.append(f"span {sid} has negative self time {t}")
    return problems

"""In-memory spans for the traced run.

A span is one call into a layer: name, start, end, the span that was
open on the same thread when it began (its parent), the batch it
belongs to and the thread it ran on. Spans stay in memory and are
written out once, when the benchmark ends.

A span's *self time* is its duration minus the part of its interval
that its child spans cover, so the self times of one batch's spans on
the computing thread add up to the wall time of that batch.
"""
import contextlib
import itertools
import json
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    batch: int | None
    thread: str
    start: float
    end: float = 0.0
    tags: dict = field(default_factory=dict)   # counts taken at the call

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans; ``span()`` nests per thread."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_batch(self, batch: int | None) -> None:
        """Batch that top-level spans on this thread belong to from now."""
        self._local.batch = batch

    @contextlib.contextmanager
    def span(self, name: str, batch: int | None = None):
        """Time the block as one call; without ``batch`` the span takes
        its parent's batch, or this thread's current one."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        if batch is None:
            batch = (parent.batch if parent is not None
                     else getattr(self._local, "batch", None))
        s = Span(next(self._ids), name, parent.id if parent else None, batch,
                 threading.current_thread().name, self.clock())
        stack.append(s)
        try:
            yield s
        finally:
            s.end = self.clock()
            stack.pop()
            self.spans.append(s)  # list.append is atomic

    def add(self, name: str, start: float, end: float, batch: int | None,
            thread: str) -> Span:
        """Record a span whose interval was measured elsewhere."""
        s = Span(next(self._ids), name, None, batch, thread, start, end)
        self.spans.append(s)
        return s

    def discard(self, span: Span) -> None:
        self.spans.remove(span)

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            for s in sorted(self.spans, key=lambda s: s.start):
                f.write(json.dumps(asdict(s)) + "\n")


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
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


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the time its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {
        s.id: s.duration - covered(children[s.id], s.start, s.end)
        for s in spans
    }


def self_by_name(spans) -> dict[str, list[float]]:
    """Layer-call name -> self time of each call."""
    own = self_times(spans)
    out = defaultdict(list)
    for s in spans:
        out[s.name].append(own[s.id])
    return dict(out)


def add_batch_roots(tracer: Tracer, thread: str, skip=()) -> None:
    """Give each batch one ``pipeline.batch`` root span on ``thread``.

    The root runs from the batch's first to its last top-level layer
    call on that thread and becomes their parent, so its self time is
    the driver loop's own time between layer calls. Spans named in
    ``skip`` (waits that precede the batch) stay unparented.
    """
    tops = defaultdict(list)
    for s in tracer.spans:
        if (s.thread == thread and s.parent is None and s.batch is not None
                and s.name not in skip and s.name != "pipeline.batch"):
            tops[s.batch].append(s)
    for batch, group in tops.items():
        root = tracer.add("pipeline.batch", min(s.start for s in group),
                          max(s.end for s in group), batch, thread)
        for s in group:
            s.parent = root.id


def batch_self_sums(spans, thread: str, skip=()) -> dict[int, dict[str, float]]:
    """Batch id -> {span name: summed self time} over spans on ``thread``,
    leaving out the names in ``skip``."""
    own = self_times(spans)
    out: dict = defaultdict(lambda: defaultdict(float))
    for s in spans:
        if s.batch is not None and s.thread == thread and s.name not in skip:
            out[s.batch][s.name] += own[s.id]
    return {b: dict(v) for b, v in out.items()}

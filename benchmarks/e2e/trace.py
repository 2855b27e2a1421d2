"""In-memory span recorder for the end-to-end benchmark.

A :class:`Tracer` records one :class:`Span` per call into a layer: its
name, ``perf_counter_ns`` start and end, the enclosing span and the
request (operation) it belongs to.  Spans stay in memory until
:meth:`Tracer.write` dumps them to ``trace.json`` at the end of a run.

Self time is a span's duration minus the part of its interval that its
child spans cover.  Per-layer totals are sums of self time by span name;
whatever no span covers, plus the self time of the per-request root
spans, is *unattributed*.

A disabled tracer (``Tracer(enabled=False)``) records nothing and hands
out a shared no-op context, so the same replay code runs with and
without tracing and the difference between the two is the overhead.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass

#: Name of the per-request root span; its self time is unattributed.
ROOT = "request"


@dataclass
class Span:
    id: int
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    request: int | None

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """Records nested spans; one instance per traced run."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._request: int | None = None
        self.started_ns = time.perf_counter_ns()
        self.ended_ns: int | None = None

    def span(self, name: str):
        """Context manager timing one layer call."""
        if not self.enabled:
            return nullcontext()
        return self._span(name)

    @contextmanager
    def _span(self, name: str):
        sid = len(self.spans)
        span = Span(sid, name, time.perf_counter_ns(), 0,
                    self._stack[-1] if self._stack else None, self._request)
        self.spans.append(span)
        self._stack.append(sid)
        try:
            yield span
        finally:
            self._stack.pop()
            span.end_ns = time.perf_counter_ns()

    @contextmanager
    def request(self, request_id: int):
        """Root span of one operation; nested spans carry its id."""
        if not self.enabled:
            yield
            return
        self._request = request_id
        try:
            with self._span(ROOT):
                yield
        finally:
            self._request = None

    def add_children(self, parts: list[tuple[str, float]]) -> None:
        """Attach already-measured sub-steps (name, seconds) to the open
        span, laid end to end from its start.

        Used for timings a layer reports itself, such as the compiler's
        per-pass records; only their durations are known, so their
        placement inside the parent is nominal.
        """
        if not self.enabled or not self._stack:
            return
        parent = self.spans[self._stack[-1]]
        cursor = parent.start_ns
        for name, seconds in parts:
            end = cursor + int(seconds * 1e9)
            self.spans.append(Span(len(self.spans), name, cursor, end,
                                   parent.id, parent.request))
            cursor = end

    def finish(self) -> None:
        self.ended_ns = time.perf_counter_ns()

    # -- analysis ---------------------------------------------------------------

    @property
    def wall_ns(self) -> int:
        end = self.ended_ns if self.ended_ns is not None else \
            time.perf_counter_ns()
        return end - self.started_ns

    def self_times(self) -> dict[int, int]:
        """Span id -> self time in ns (duration minus child coverage)."""
        children: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        out = {}
        for span in self.spans:
            covered = _covered_ns(span, children.get(span.id, ()))
            out[span.id] = span.duration_ns - covered
        return out

    def layer_totals(self, scale=None) -> dict[str, float]:
        """Layer name -> summed self time in seconds (root excluded).

        *scale*, if given, converts each span's self time: it is called
        as ``scale(seconds, start_s, end_s)`` with the span's interval in
        ``perf_counter`` seconds (``clock.SpeedClock.scale``)."""
        totals: dict[str, float] = {}
        for sid, ns in self.self_times().items():
            span = self.spans[sid]
            if span.name == ROOT:
                continue
            seconds = ns / 1e9
            if scale is not None:
                seconds = scale(seconds, span.start_ns / 1e9,
                                span.end_ns / 1e9)
            totals[span.name] = totals.get(span.name, 0.0) + seconds
        return totals

    def unattributed_share(self) -> float:
        """Share of the tracer's wall time no layer span covers."""
        attributed = sum(self.layer_totals().values())
        wall = self.wall_ns / 1e9
        return (wall - attributed) / wall if wall > 0 else 0.0

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"wall_ns": self.wall_ns,
                       "spans": [asdict(s) for s in self.spans]}, fh)


def _covered_ns(span: Span, children) -> int:
    """Length of the union of *children* intervals clipped to *span*."""
    intervals = sorted((max(c.start_ns, span.start_ns),
                        min(c.end_ns, span.end_ns)) for c in children)
    covered = 0
    cur_start = cur_end = None
    for start, end in intervals:
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                covered += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        covered += cur_end - cur_start
    return covered

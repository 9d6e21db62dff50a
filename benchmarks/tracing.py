"""Spans recorded around calls into volkey, kept in memory until the run ends.

A span is (name, start, end, parent, op): `name` is ``<module>.<function>``,
so its first component names the volkey layer; `parent` is the index of the
enclosing span or None; `op` is the id of the op the span belongs to.
"""
from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class NullTracer:
    """Stands in for a Tracer in the untraced pipeline: records nothing."""

    def span(self, name: str):
        return nullcontext()


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    op: int | None = None
    _open: list[int] = field(default_factory=list)
    _origin: float = field(default_factory=time.perf_counter)

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        start = time.perf_counter() - self._origin
        self.spans.append(Span(name, start, start, parent, self.op))
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index].end = time.perf_counter() - self._origin

    def write(self, path: Path) -> None:
        rows = [
            {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "op": s.op}
            for s in self.spans
        ]
        path.write_text(json.dumps(rows) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part its direct children cover.

    Children run one after another inside their parent, so the covered part
    is the sum of their durations.
    """
    own = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            own[s.parent] -= s.duration
    return own


def totals_by_op(spans: list[Span], values: list[float] | None = None) -> dict[int, dict[str, float]]:
    """Per op, the summed value (duration by default) of each span name."""
    out: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for i, s in enumerate(spans):
        out[s.op][s.name] += s.duration if values is None else values[i]
    return out

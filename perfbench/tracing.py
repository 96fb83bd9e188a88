"""In-memory spans around the benchmark's calls into ccaps.

A span holds a name, start and end (``time.perf_counter`` seconds), the
index of its parent span and the op it belongs to. Spans are appended to a
list while the run is live and written out once, when it ends. The untraced
path uses :data:`NULL_TRACER`, whose ``span`` hands back one shared
``nullcontext``, so the same workload code runs with and without tracing.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass
from pathlib import Path


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    op: int

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op = -1

    @contextmanager
    def op(self, op_id: int):
        """Root span of one op, named ``op``; every span opened inside it carries `op_id`."""
        self._op = op_id
        with self.span("op"):
            yield

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)  # placeholder keeps parents before children
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = Span(name, start, end, parent, self._op)

    def per_op_totals(self) -> dict[int, dict[str, float]]:
        """Seconds per span name per op; ``residual`` is root time outside every child."""
        spans = self.spans  # complete once the run has left every span
        out: dict[int, dict[str, float]] = {}
        children: dict[int, float] = {}
        for s in spans:
            totals = out.setdefault(s.op, {})
            totals[s.name] = totals.get(s.name, 0.0) + s.seconds
            if s.parent is not None:
                children[s.parent] = children.get(s.parent, 0.0) + s.seconds
        for index, s in enumerate(spans):
            if s.parent is None:
                out[s.op]["residual"] = s.seconds - children.get(index, 0.0)
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [asdict(s) for s in self.spans]
        path.write_text(json.dumps(rows))


class _NullTracer:
    _null = nullcontext()

    def span(self, name: str):
        return self._null

    def op(self, op_id: int):
        return self._null


NULL_TRACER = _NullTracer()

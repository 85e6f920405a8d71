"""In-memory span tracer installed around the layers' public entry points.

The tracer patches class and module attributes of ``repro`` for the
duration of one traced run and restores them afterwards; nothing under
``src/`` is edited.  Two kinds of wrapper exist:

* **span** wrappers (engine construction and ``run``, digest builds,
  MRC passes) record one :class:`Span` per call, with its parent span,
  and keep it in memory until :meth:`Tracer.dump` writes them out;
* **leaf** wrappers (cache, index and bloom calls, made millions of
  times per run) are aggregated per name and per enclosing span into
  call counts and seconds, because one object per call would cost more
  memory than the replay itself.

Every wrapped call pushes a frame on one stack, so a frame's *self*
time is its duration minus the time of the wrapped calls made inside
it, whether those were spans or leaves.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    child_s: float = 0.0
    #: leaf name -> [calls, self seconds] for leaves called directly
    #: inside this span.
    leaves: dict[str, list] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.seconds - self.child_s


class _Frame:
    __slots__ = ("child_s",)

    def __init__(self) -> None:
        self.child_s = 0.0


class Tracer:
    """Spans and leaf counters for one traced run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: open frames, innermost last; a Span for span wrappers and a
        #: bare _Frame for leaf wrappers.
        self._stack: list[Any] = []
        self._open_spans: list[Span] = []
        #: leaf name -> [calls, self seconds]
        self.leaf_totals: dict[str, list] = {}
        #: free-form counters fed by observers (evictions, lookup hits).
        self.counters: dict[str, float] = {}
        #: results returned by span-wrapped calls, by span name.
        self.returns: dict[str, list] = {}
        self._patches: list[tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def _open_span(self, name: str) -> Span:
        parent = self._open_spans[-1].id if self._open_spans else None
        span = Span(len(self.spans), name, parent, perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        self._open_spans.append(span)
        return span

    def _close_span(self, span: Span) -> None:
        span.end = perf_counter()
        self._stack.pop()
        self._open_spans.pop()
        if self._stack:
            self._stack[-1].child_s += span.seconds

    @contextmanager
    def span(self, name: str):
        """Record one span around the benchmark's own call into a layer."""
        span = self._open_span(name)
        try:
            yield span
        finally:
            self._close_span(span)

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    # -- patching ----------------------------------------------------------

    def _patch(self, owner: Any, attr: str, wrapper: Callable) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def wrap_span(self, owner: Any, attr: str, name: str, keep_return: bool = False) -> None:
        """Record a span around every call of ``owner.attr``."""
        fn = getattr(owner, attr)
        tracer = self
        returns = self.returns.setdefault(name, [])

        def wrapper(*args, **kwargs):
            span = tracer._open_span(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close_span(span)
            if keep_return:
                returns.append(result)
            return result

        self._patch(owner, attr, wrapper)

    def wrap_leaf(
        self,
        owner: Any,
        attr: str,
        name: str,
        observe: Callable[[Any], None] | None = None,
    ) -> None:
        """Aggregate calls of ``owner.attr`` into counts and self time."""
        fn = getattr(owner, attr)
        stack = self._stack
        open_spans = self._open_spans
        totals = self.leaf_totals.setdefault(name, [0, 0.0])

        def wrapper(*args, **kwargs):
            frame = _Frame()
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                self_s = dt - frame.child_s
                totals[0] += 1
                totals[1] += self_s
                if stack:
                    stack[-1].child_s += dt
                if open_spans:
                    per_span = open_spans[-1].leaves.get(name)
                    if per_span is None:
                        open_spans[-1].leaves[name] = [1, self_s]
                    else:
                        per_span[0] += 1
                        per_span[1] += self_s
            if observe is not None:
                observe(result)
            return result

        self._patch(owner, attr, wrapper)

    def wrap_row_source(self, owner: Any, attr: str, name: str) -> None:
        """Time the rows pulled from ``owner.attr`` (an iterator method):
        only the time spent producing each row counts."""
        fn = getattr(owner, attr)
        stack = self._stack
        totals = self.leaf_totals.setdefault(name, [0, 0.0])

        def wrapper(*args, **kwargs):
            rows = fn(*args, **kwargs)
            pull = rows.__next__
            while True:
                t0 = perf_counter()
                try:
                    row = pull()
                except StopIteration:
                    totals[1] += perf_counter() - t0
                    return
                dt = perf_counter() - t0
                totals[0] += 1
                totals[1] += dt
                if stack:
                    stack[-1].child_s += dt
                yield row

        self._patch(owner, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading -----------------------------------------------------------

    def span_seconds(self, name: str) -> float:
        return sum(s.seconds for s in self.spans if s.name == name)

    def span_self_seconds(self, name: str) -> float:
        return sum(s.self_s for s in self.spans if s.name == name)

    def span_count(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def leaf_calls(self, name: str) -> int:
        return self.leaf_totals.get(name, [0, 0.0])[0]

    def leaf_seconds(self, name: str) -> float:
        return self.leaf_totals.get(name, [0, 0.0])[1]

    def dump(self, path, extra: dict) -> None:
        """Write every span (with its aggregated leaves) and *extra* as JSON."""
        payload = {
            "spans": [
                {
                    "id": s.id,
                    "name": s.name,
                    "parent": s.parent,
                    "start": s.start,
                    "end": s.end,
                    "self_s": s.self_s,
                    "leaves": {k: {"calls": v[0], "self_s": v[1]} for k, v in s.leaves.items()},
                }
                for s in self.spans
            ],
            "leaf_totals": {
                k: {"calls": v[0], "self_s": v[1]} for k, v in self.leaf_totals.items()
            },
            "counters": self.counters,
            **extra,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=1) + "\n")

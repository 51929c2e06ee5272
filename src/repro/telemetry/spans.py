"""Request-scoped span tracing on the simulated clock.

A :class:`Span` is one named interval on the *simulated* timeline —
microseconds of modelled GPU/serving time, never host wall time — with
optional correlation IDs tying it to the request it serves
(``request_id``) and the dispatch/megabatch it rode (``batch_id``).
Spans nest: the :class:`SpanTracer` keeps an open-span stack, so a
``graph.replay`` span recorded while a dispatch attempt is open becomes
that attempt's child, and the whole chaos replay of one request yields a
causal tree from arrival to scatter-back.

Two properties make the tracer safe to leave on in production runs:

* **Observation only.**  Spans never launch kernels, never advance the
  simulated clock and never touch the RNG streams — the tracer reads
  times the runtime already computed.  Telemetry on/off is therefore
  bitwise-neutral to model outputs and to the modelled timeline (the
  neutrality regression test asserts exactly that).
* **Thread confinement.**  A tracer records only from the thread that
  created it.  Instrumented library code (packing, graph replay) may be
  called from other threads; calls from foreign threads are ignored
  rather than corrupting the span stack.

The tracer has no clock of its own: the serving runtime *sets* the
cursor (:meth:`SpanTracer.set_now`) as its simulated clock advances, and
spans opened without an explicit ``start_us`` begin at the cursor.
"""

from __future__ import annotations

import contextlib
import threading
from dataclasses import dataclass, field
from typing import Iterator

#: span category for request-root spans; the Chrome exporter renders
#: these as async events keyed by request id (they overlap freely),
#: while every other category becomes a nested complete event
REQUEST_CATEGORY = "request"


@dataclass
class Span:
    """One named interval on the simulated timeline."""

    span_id: int
    parent_id: int | None
    name: str
    category: str
    start_us: float
    #: ``None`` while the span is still open
    end_us: float | None = None
    #: correlation ids: the request this span serves / the dispatch it
    #: rode; inherited from the enclosing span when not given explicitly
    request_id: int | None = None
    batch_id: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def duration_us(self) -> float:
        return 0.0 if self.end_us is None else self.end_us - self.start_us

    @property
    def is_instant(self) -> bool:
        return self.end_us == self.start_us

    def to_dict(self) -> dict:
        """JSON-able form (the JSONL exporter's record payload)."""
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "category": self.category,
            "start_us": self.start_us,
            "end_us": self.end_us,
            "request_id": self.request_id,
            "batch_id": self.batch_id,
            "attrs": dict(self.attrs),
        }


class SpanTracer:
    """Records nestable spans; owned by (and confined to) one thread."""

    def __init__(self) -> None:
        #: completed and open spans, in begin order
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._next_id = 0
        #: the simulated-clock cursor spans default their times to
        self.now_us = 0.0
        self._owner = threading.get_ident()

    def owns_current_thread(self) -> bool:
        """Whether the calling thread may record into this tracer."""
        return threading.get_ident() == self._owner

    def set_now(self, now_us: float) -> None:
        """Advance (or rewind) the simulated-clock cursor."""
        if self.owns_current_thread():
            self.now_us = now_us

    @property
    def depth(self) -> int:
        return len(self._stack)

    def begin(
        self,
        name: str,
        *,
        category: str = "stage",
        start_us: float | None = None,
        request_id: int | None = None,
        batch_id: int | None = None,
        **attrs,
    ) -> Span:
        """Open a span nested under the innermost open one.

        Correlation ids default to the parent's.  From a foreign thread
        the span is detached: returned (so call sites stay unconditional)
        but never recorded.
        """
        parent = self._stack[-1] if self._stack else None
        if start_us is None:
            start_us = self.now_us
        if parent is not None:
            if request_id is None:
                request_id = parent.request_id
            if batch_id is None:
                batch_id = parent.batch_id
        span = Span(
            span_id=self._next_id,
            parent_id=None if parent is None else parent.span_id,
            name=name,
            category=category,
            start_us=start_us,
            request_id=request_id,
            batch_id=batch_id,
            attrs=dict(attrs),
        )
        if not self.owns_current_thread():
            return span
        self._next_id += 1
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, end_us: float | None = None, **attrs) -> Span | None:
        """Close the innermost open span (at the cursor by default)."""
        if not self.owns_current_thread():
            return None
        if not self._stack:
            raise RuntimeError("no open span to end")
        span = self._stack.pop()
        if end_us is None:
            end_us = max(span.start_us, self.now_us)
        if end_us < span.start_us:
            raise ValueError(
                f"span {span.name!r} cannot end at {end_us} before its "
                f"start {span.start_us}"
            )
        span.end_us = end_us
        span.attrs.update(attrs)
        return span

    @contextlib.contextmanager
    def span(self, name: str, **kwargs) -> Iterator[Span]:
        """``with``-scoped :meth:`begin`/:meth:`end` pair."""
        opened = self.begin(name, **kwargs)
        try:
            yield opened
        finally:
            if self.owns_current_thread():
                self.end()

    def instant(
        self,
        name: str,
        *,
        category: str = "mark",
        t_us: float | None = None,
        request_id: int | None = None,
        batch_id: int | None = None,
        **attrs,
    ) -> Span | None:
        """A zero-duration marker at ``t_us`` (cursor by default)."""
        span = self.begin(
            name,
            category=category,
            start_us=t_us,
            request_id=request_id,
            batch_id=batch_id,
            **attrs,
        )
        if not self.owns_current_thread():
            return None
        return self.end(end_us=span.start_us)

    def add_span(
        self,
        name: str,
        *,
        category: str,
        start_us: float,
        end_us: float,
        request_id: int | None = None,
        batch_id: int | None = None,
        parent_id: int | None = None,
        **attrs,
    ) -> Span | None:
        """Record a closed span directly, outside the nesting stack.

        Request-root spans overlap arbitrarily (requests queue while
        others are served), so they cannot live on the stack; the
        runtime records them with this once the request settles.
        """
        if not self.owns_current_thread():
            return None
        if end_us < start_us:
            raise ValueError(
                f"span {name!r} cannot end at {end_us} before {start_us}"
            )
        span = Span(
            span_id=self._next_id,
            parent_id=parent_id,
            name=name,
            category=category,
            start_us=start_us,
            end_us=end_us,
            request_id=request_id,
            batch_id=batch_id,
            attrs=dict(attrs),
        )
        self._next_id += 1
        self.spans.append(span)
        return span

    def completed(self) -> list[Span]:
        """Spans that have been closed, in begin order."""
        return [s for s in self.spans if s.end_us is not None]

    def by_request(self, request_id: int) -> list[Span]:
        """Every span correlated to one request, in begin order."""
        return [s for s in self.spans if s.request_id == request_id]

    def children_of(self, span: Span) -> list[Span]:
        return [s for s in self.spans if s.parent_id == span.span_id]

"""The :class:`Telemetry` bundle and the ambient-installation helpers.

One :class:`Telemetry` object carries everything a run observes: the
span tracer, the metrics registry and the kernel-timeline segments that
let the Chrome exporter nest request/stage spans *above* the kernel
events.  The serving runtime installs it as the *current* telemetry
(:func:`use_telemetry`) for the duration of a replay, so instrumented
library code — the batcher's admit/cut path, cross-request packing,
launch-graph capture/replay, the degradation ladder — can record
without the telemetry object being threaded through every signature:

.. code-block:: python

    tel = current_telemetry()
    if tel is not None and tel.owns_current_thread():
        tel.tracer.instant("batch.cut", ...)

The ``owns_current_thread`` guard keeps recording confined to the
thread that created the telemetry: forwards run on other threads
must not interleave into the span stack.
When no telemetry is installed every call site short-circuits on the
``None`` check — the off state costs one attribute read and leaves the
run bitwise-identical.
"""

from __future__ import annotations

import contextlib
import threading
from dataclasses import dataclass
from typing import Iterator, Sequence

from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.spans import SpanTracer


@dataclass(frozen=True)
class KernelSegment:
    """One attempt's kernel records, offset onto the global sim clock.

    ``records`` duck-type :class:`~repro.gpusim.stream.KernelRecord`
    (``launch`` / ``time_us`` / ``start_us``); the segment's
    ``offset_us`` is the simulated instant the attempt started, so a
    record's global timestamp is ``offset_us + record.start_us``.
    ``device`` is the data-parallel replica the attempt executed on —
    the Chrome exporter renders one kernel lane per device.
    """

    offset_us: float
    records: tuple
    device: int = 0


class Telemetry:
    """Tracer + registry + kernel timeline for one observed run."""

    def __init__(
        self,
        *,
        tracer: SpanTracer | None = None,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.tracer = tracer if tracer is not None else SpanTracer()
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.kernel_segments: list[KernelSegment] = []
        self._owner = threading.get_ident()

    def owns_current_thread(self) -> bool:
        """Whether the calling thread may record into this telemetry."""
        return threading.get_ident() == self._owner

    def add_kernel_segment(
        self, offset_us: float, records: Sequence, device: int = 0
    ) -> None:
        """Adopt an execution context's records at ``offset_us``."""
        if not self.owns_current_thread():
            return
        if records:
            self.kernel_segments.append(
                KernelSegment(
                    offset_us=offset_us,
                    records=tuple(records),
                    device=device,
                )
            )

    def kernel_event_count(self) -> int:
        return sum(len(seg.records) for seg in self.kernel_segments)


_current: list[Telemetry] = []


def current_telemetry() -> Telemetry | None:
    """The innermost installed telemetry, or ``None`` (the off state)."""
    return _current[-1] if _current else None


@contextlib.contextmanager
def use_telemetry(telemetry: Telemetry | None) -> Iterator[Telemetry | None]:
    """Install ``telemetry`` as current within the block.

    ``None`` is accepted and installs nothing, so call sites can write
    ``with use_telemetry(self.telemetry):`` unconditionally.
    """
    if telemetry is None:
        yield None
        return
    _current.append(telemetry)
    try:
        yield telemetry
    finally:
        popped = _current.pop()
        assert popped is telemetry, "use_telemetry stack corrupted"

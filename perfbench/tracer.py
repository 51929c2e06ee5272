"""Span tracer that wraps the public functions each layer's callers resolve.

The code under test imports with ``from module import f``, so a function
is wrapped at every name its callers look it up under (for example
``repro.core.encoder.tile_gemm`` and ``repro.serving.generation.gemm``),
never at its defining module alone.  Methods are wrapped on their class.

Each call records one span: name, start, end, parent span and run id
(the index of the benchmark operation it belongs to).  Spans stay in
memory in flat lists while the traced pass runs and are written out once
by :meth:`Tracer.write` when the run ends.  Counters are recorded at the
same boundaries by optional ``observe`` callbacks.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Iterator

#: layers of the ``repro`` package, in the order reports list them
LAYERS = (
    "core", "kernels", "attention", "gpusim", "workloads", "serving",
    "decoder",
)

Observer = Callable[["Tracer", tuple, Any], None]


class Tracer:
    """Records spans and counters around wrapped callables."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.span_name: list[int] = []
        self.span_parent: list[int] = []
        self.span_run: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.run_id = -1
        self._stack: list[int] = []
        self._thread = threading.get_ident()
        self._patches: list[tuple[Any, str, Any]] = []
        self._op_name = self._name_id("bench", "op")

    # -- recording -----------------------------------------------------

    def _name_id(self, layer: str, name: str) -> int:
        self.names.append(name)
        self.layer_of.append(layer)
        return len(self.names) - 1

    def _wrap(
        self,
        fn: Callable,
        layer: str,
        name: str,
        observe: Observer | None,
    ) -> Callable:
        nid = self._name_id(layer, name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if threading.get_ident() != self._thread:
                return fn(*args, **kwargs)
            idx = len(self.span_start)
            self.span_name.append(nid)
            self.span_parent.append(self._stack[-1] if self._stack else -1)
            self.span_run.append(self.run_id)
            self.span_start.append(0.0)
            self.span_end.append(0.0)
            self._stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self._stack.pop()
                self.span_start[idx] = start
                self.span_end[idx] = end
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    def patch(
        self,
        target: str,
        layer: str,
        name: str,
        observe: Observer | None = None,
    ) -> None:
        """Wrap ``module.attr`` or ``module.Class.method`` in place."""
        module_name, _, rest = target.partition(":")
        owner: Any = importlib.import_module(module_name)
        *path, attr = rest.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = owner.__dict__[attr] if isinstance(owner, type) else (
            getattr(owner, attr)
        )
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original, layer, name, observe))

    def unpatch(self) -> None:
        """Restore every wrapped callable, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def root(self, run_id: int) -> Iterator[None]:
        """The benchmark's own span around one operation."""
        self.run_id = run_id
        idx = len(self.span_start)
        self.span_name.append(self._op_name)
        self.span_parent.append(-1)
        self.span_run.append(run_id)
        self.span_start.append(time.perf_counter())
        self.span_end.append(0.0)
        self._stack.append(idx)
        try:
            yield
        finally:
            self.span_end[idx] = time.perf_counter()
            self._stack.pop()

    # -- analysis ------------------------------------------------------

    @property
    def span_count(self) -> int:
        return len(self.span_start)

    def summarize(self) -> tuple[dict, dict, dict, dict]:
        """Totals over every recorded span.

        Returns ``(inclusive_s, self_s, layer_self_s, calls)``.
        ``inclusive_s``, ``self_s`` and ``calls`` are keyed by span name;
        ``layer_self_s`` by layer (plus ``"bench"`` for root-span time no
        layer span covers).  A span's self time is its duration minus its
        children's.
        """
        n = self.span_count
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            parent = self.span_parent[i]
            if parent >= 0:
                child[parent] += dur[i]
        inclusive: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        layer_own: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for i in range(n):
            nid = self.span_name[i]
            name = self.names[nid]
            inclusive[name] += dur[i]
            own[name] += dur[i] - child[i]
            layer_own[self.layer_of[nid]] += dur[i] - child[i]
            calls[name] += 1
        return inclusive, own, layer_own, calls

    def write(self, path: Path) -> None:
        """Write every span as one tab-separated line (gzip)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            fh.write("span\tparent\trun\tlayer\tname\tstart_s\tend_s\n")
            for i in range(self.span_count):
                nid = self.span_name[i]
                fh.write(
                    f"{i}\t{self.span_parent[i]}\t{self.span_run[i]}\t"
                    f"{self.layer_of[nid]}\t{self.names[nid]}\t"
                    f"{self.span_start[i]:.9f}\t{self.span_end[i]:.9f}\n"
                )

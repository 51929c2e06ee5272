"""Activation-memory accounting for the encoder pipelines.

The paper's second motivation for zero padding is memory: "these padded
zeros also introduce significant memory overhead that can hinder a large
Transformer model from being efficiently deployed".  This module makes
that claim measurable:

* :class:`ActivationTrace` records the alloc/free sequence of every
  intermediate tensor a pipeline materialises (mirroring the launch
  sequences of :mod:`repro.core.estimator`);
* :func:`peak_live_bytes` gives the lower bound any allocator must pay;
* :class:`ArenaAllocator` is a best-fit offset allocator with free-list
  reuse — the strategy TurboTransformer's run-time memory scheduler uses
  — whose arena size upper-bounds a real deployment's activation pool.

The interesting output is the padded-vs-packed comparison: the unfused
padded pipelines must hold the quadratic ``B x H x S x S`` score tensor,
the packed fused pipelines either never materialise it (short kernel) or
hold only the ``sum(len_i^2)`` valid region (grouped kernel).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.core.config import BertConfig, OptimizationConfig
from repro.gpusim.memory import BYTES_PER_ELEMENT, BYTES_PER_FP32


@dataclass(frozen=True)
class MemEvent:
    """One allocation (positive bytes) or free (negative bytes)."""

    tensor: str
    bytes: int

    def __post_init__(self) -> None:
        if self.bytes == 0:
            raise ValueError(f"{self.tensor}: zero-byte event")


@dataclass
class ActivationTrace:
    """Ordered alloc/free events of one forward pass."""

    events: list[MemEvent] = field(default_factory=list)
    _live: dict[str, int] = field(default_factory=dict)

    def alloc(self, tensor: str, nbytes: float) -> None:
        nbytes = int(nbytes)
        if tensor in self._live:
            raise ValueError(f"tensor {tensor!r} already live")
        if nbytes <= 0:
            raise ValueError(f"{tensor}: allocation must be positive")
        self._live[tensor] = nbytes
        self.events.append(MemEvent(tensor, nbytes))

    def free(self, tensor: str) -> None:
        if tensor not in self._live:
            raise ValueError(f"tensor {tensor!r} is not live")
        nbytes = self._live.pop(tensor)
        self.events.append(MemEvent(tensor, -nbytes))

    def free_all(self) -> None:
        for tensor in list(self._live):
            self.free(tensor)

    @property
    def live_bytes(self) -> int:
        return sum(self._live.values())

    def __iter__(self) -> Iterator[MemEvent]:
        return iter(self.events)


def peak_live_bytes(trace: ActivationTrace) -> int:
    """Maximum simultaneously-live activation bytes — the floor for any
    allocator."""
    peak = 0
    live = 0
    for event in trace:
        live += event.bytes
        peak = max(peak, live)
    if live != 0:
        raise ValueError(
            f"trace leaks {live} bytes (unbalanced alloc/free)"
        )
    return peak


@dataclass(frozen=True)
class Placement:
    tensor: str
    offset: int
    bytes: int

    @property
    def end(self) -> int:
        return self.offset + self.bytes


class ArenaAllocator:
    """Best-fit offset assignment with free-chunk coalescing.

    Replays an :class:`ActivationTrace` and assigns every allocation a
    byte offset in a single arena, reusing freed space — the model-aware
    allocation strategy of TurboTransformer's memory scheduler.  The
    resulting :attr:`arena_bytes` is what a static activation pool would
    need.
    """

    def __init__(self, alignment: int = 256) -> None:
        if alignment <= 0:
            raise ValueError("alignment must be positive")
        self.alignment = alignment
        self.arena_bytes = 0
        self._placements: dict[str, Placement] = {}
        #: sorted list of (offset, bytes) free chunks inside the arena
        self._free: list[tuple[int, int]] = []
        self.history: list[Placement] = []

    def _align(self, value: int) -> int:
        a = self.alignment
        return ((value + a - 1) // a) * a

    def allocate(self, tensor: str, nbytes: int) -> Placement:
        if tensor in self._placements:
            raise ValueError(f"tensor {tensor!r} already placed")
        need = self._align(nbytes)
        # best fit: smallest free chunk that holds the request
        best = None
        for i, (off, size) in enumerate(self._free):
            if size >= need and (best is None or size < self._free[best][1]):
                best = i
        if best is not None:
            off, size = self._free.pop(best)
            if size > need:
                self._free.append((off + need, size - need))
                self._free.sort()
            placement = Placement(tensor, off, need)
        else:
            placement = Placement(tensor, self.arena_bytes, need)
            self.arena_bytes += need
        self._placements[tensor] = placement
        self.history.append(placement)
        return placement

    def release(self, tensor: str) -> None:
        placement = self._placements.pop(tensor, None)
        if placement is None:
            raise ValueError(f"tensor {tensor!r} is not placed")
        self._free.append((placement.offset, placement.bytes))
        self._free.sort()
        # coalesce adjacent free chunks
        merged: list[tuple[int, int]] = []
        for off, size in self._free:
            if merged and merged[-1][0] + merged[-1][1] == off:
                merged[-1] = (merged[-1][0], merged[-1][1] + size)
            else:
                merged.append((off, size))
        self._free = merged

    def replay(self, trace: ActivationTrace) -> int:
        """Place a whole trace; returns the final arena size in bytes."""
        sizes: dict[str, int] = {}
        for event in trace:
            if event.bytes > 0:
                sizes[event.tensor] = event.bytes
                self.allocate(event.tensor, event.bytes)
            else:
                self.release(event.tensor)
        return self.arena_bytes

    def live_placements(self) -> list[Placement]:
        return sorted(self._placements.values(), key=lambda p: p.offset)


def trace_encoder_layer(
    config: BertConfig,
    opt: OptimizationConfig,
    seq_lens: np.ndarray,
    max_seq_len: int,
    trace: ActivationTrace | None = None,
    layer: int = 0,
) -> ActivationTrace:
    """Activation alloc/free sequence of one encoder layer.

    Mirrors the pipelines of :mod:`repro.core.encoder`: the padded
    variants materialise padded intermediates including the quadratic
    score tensor; the packed variants keep everything at
    ``T = sum(len_i)`` rows, and with ``fused_mha`` the score tensor
    either never exists (short kernel) or exists packed plus its
    reduction statistics (grouped kernel).
    """
    t = trace if trace is not None else ActivationTrace()
    batch = len(seq_lens)
    hidden = config.hidden_size
    heads = config.num_heads
    tokens = int(np.sum(seq_lens))
    padded_rows = batch * max_seq_len
    rows = tokens if opt.remove_padding else padded_rows
    p = f"L{layer}."
    elem = BYTES_PER_ELEMENT

    # x (the layer input / residual) is assumed live on entry
    t.alloc(p + "qkv", rows * 3 * hidden * elem)
    if opt.fused_mha:
        max_len = int(np.max(seq_lens))
        short_ok = max_len <= opt.fused_mha_short_max_seq
        if short_ok:
            # Algorithm III.1: logits live in shared memory only
            t.alloc(p + "attn", tokens * hidden * elem)
        else:
            scores = int(np.sum(seq_lens.astype(np.int64) ** 2)) * heads
            stats_rows = tokens * heads
            t.alloc(p + "scores", scores * elem)
            t.alloc(p + "stats", 2 * stats_rows * BYTES_PER_FP32)
            t.alloc(p + "attn", tokens * hidden * elem)
            t.free(p + "scores")
            t.free(p + "stats")
    else:
        # batched-GEMM MHA: padded Q/K/V copies + padded score tensor
        t.alloc(p + "qkv_split", padded_rows * 3 * hidden * elem)
        t.alloc(p + "scores", batch * heads * max_seq_len * max_seq_len * elem)
        t.alloc(p + "attn", rows * hidden * elem)
        t.free(p + "scores")
        t.free(p + "qkv_split")
    t.free(p + "qkv")

    t.alloc(p + "proj", rows * hidden * elem)
    t.free(p + "attn")
    t.alloc(p + "ln0", rows * hidden * elem)
    if not opt.fuse_layernorm:
        # the unfused pipeline round-trips a temporary through memory
        t.alloc(p + "ln0_tmp", rows * hidden * elem)
        t.free(p + "ln0_tmp")
    t.free(p + "proj")

    t.alloc(p + "ffn_up", rows * config.ffn_size * elem)
    t.alloc(p + "ffn_down", rows * hidden * elem)
    t.free(p + "ffn_up")
    t.alloc(p + "out", rows * hidden * elem)
    if not opt.fuse_layernorm:
        t.alloc(p + "ln1_tmp", rows * hidden * elem)
        t.free(p + "ln1_tmp")
    t.free(p + "ffn_down")
    t.free(p + "ln0")
    t.free(p + "out")
    return t


def trace_model(
    config: BertConfig,
    opt: OptimizationConfig,
    seq_lens: np.ndarray,
    max_seq_len: int,
) -> ActivationTrace:
    """Activation trace of the whole stack (input/output buffers included)."""
    trace = ActivationTrace()
    batch = len(seq_lens)
    hidden = config.hidden_size
    tokens = int(np.sum(seq_lens))
    padded = batch * max_seq_len * hidden * BYTES_PER_ELEMENT

    trace.alloc("input", padded)
    if opt.remove_padding:
        trace.alloc("packed_input", tokens * hidden * BYTES_PER_ELEMENT)
        trace.free("input")
    for layer in range(config.num_layers):
        trace_encoder_layer(
            config, opt, seq_lens, max_seq_len, trace=trace, layer=layer
        )
    if opt.remove_padding:
        trace.alloc("output", padded)
        trace.free("packed_input")
    trace.free_all()
    return trace


@dataclass(frozen=True)
class MemoryReport:
    """Peak live bytes and reusing-arena size for one configuration."""

    label: str
    peak_bytes: int
    arena_bytes: int

    @property
    def peak_mb(self) -> float:
        return self.peak_bytes / 1e6

    @property
    def arena_mb(self) -> float:
        return self.arena_bytes / 1e6


def memory_report(
    config: BertConfig,
    opt: OptimizationConfig,
    seq_lens: np.ndarray,
    max_seq_len: int,
) -> MemoryReport:
    """Peak-live and reusing-arena footprint of one configuration."""
    trace = trace_model(config, opt, seq_lens, max_seq_len)
    peak = peak_live_bytes(trace)
    arena = ArenaAllocator().replay(trace)
    return MemoryReport(label=opt.label, peak_bytes=peak, arena_bytes=arena)

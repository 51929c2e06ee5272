"""The zero-padding algorithm (§III-D, Figure 4).

Given the ``[B, S]`` input mask, a warp-level prefix sum yields, for every
valid token, its row in the *packed* tensor; the packed tensor has exactly
``valid_word_cnt`` rows, so every downstream operation that indexes
through the offsets does zero work on padding.  :class:`PackedSeqs` is the
positioning structure every other module consumes: gather indices
(packed row → padded row), per-sentence offsets (prefix of sequence
lengths) and the valid lengths themselves.

All metadata builders are loop-free (``np.repeat``/``np.arange``), and a
:class:`PackingCache` keyed by ``(max_seq_len, lengths)`` lets serving
traces with repeated shapes skip the host-side rebuild entirely.  The
prefix-sum *kernel launch* is still recorded on every
:func:`packing_from_mask` call — caching only elides host work, never the
modelled GPU cost.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.gpusim.stream import ExecutionContext
from repro.kernels.packing import pack_tokens, unpack_tokens
from repro.kernels.prefix_sum import mask_prefix_sum, warp_scan_sequence
from repro.telemetry import current_telemetry


def _observe_mega(name: str, mega: "CrossRequestPacking") -> None:
    """Mark one cross-request pack/scatter in the installed telemetry.

    Observation only (an instant span at the tracer's cursor); a ``None``
    or foreign-thread telemetry short-circuits, so the numeric plane is
    untouched with telemetry off and calls from other threads never
    interleave into the span stack.
    """
    tel = current_telemetry()
    if tel is None or not tel.owns_current_thread():
        return
    tel.tracer.instant(
        name,
        category="packing",
        segments=mega.num_segments,
        tokens=mega.total_tokens,
        tile=mega.tile,
        pad_tokens=mega.pad_tokens,
    )


@dataclass(frozen=True)
class PackedSeqs:
    """Positioning information of a packed variable-length batch.

    Attributes
    ----------
    batch, max_seq_len:
        Padded layout this packing came from.
    seq_lens:
        ``[B]`` valid token count of each sentence.
    seq_offsets:
        ``[B + 1]`` exclusive prefix of ``seq_lens``; sentence ``b``
        occupies packed rows ``seq_offsets[b] : seq_offsets[b + 1]``.
    gather_idx:
        ``[T]`` padded linear row (``b * S + s``) of each packed row —
        the "position offset vector" the paper's kernels index with.
    """

    batch: int
    max_seq_len: int
    seq_lens: np.ndarray
    seq_offsets: np.ndarray
    gather_idx: np.ndarray

    def __post_init__(self) -> None:
        if self.seq_lens.shape != (self.batch,):
            raise ValueError(
                f"seq_lens shape {self.seq_lens.shape} != ({self.batch},)"
            )
        if self.seq_offsets.shape != (self.batch + 1,):
            raise ValueError(
                f"seq_offsets shape {self.seq_offsets.shape} != "
                f"({self.batch + 1},)"
            )
        if self.seq_lens.min() <= 0:
            raise ValueError("every sentence needs at least one valid token")
        if self.seq_lens.max() > self.max_seq_len:
            raise ValueError("a sequence length exceeds max_seq_len")
        if self.gather_idx.shape != (int(self.seq_lens.sum()),):
            raise ValueError("gather_idx size != total valid tokens")

    @property
    def total_tokens(self) -> int:
        """``valid_word_cnt`` — rows of the packed tensor."""
        return int(self.seq_offsets[-1])

    @property
    def padded_rows(self) -> int:
        return self.batch * self.max_seq_len

    @property
    def fill_ratio(self) -> float:
        """Valid fraction of the padded layout (the paper's α on average)."""
        return self.total_tokens / self.padded_rows

    def rows_of(self, b: int) -> slice:
        """Packed row range of sentence ``b``."""
        return slice(int(self.seq_offsets[b]), int(self.seq_offsets[b + 1]))

    def to_mask(self) -> np.ndarray:
        """Reconstruct the ``[B, S]`` 0/1 mask (left-aligned tokens)."""
        positions = np.arange(self.max_seq_len, dtype=np.int64)
        return (positions[None, :] < self.seq_lens[:, None]).astype(np.int64)


def _build_gather(
    seq_lens: np.ndarray, seq_offsets: np.ndarray, max_seq_len: int
) -> np.ndarray:
    """Loop-free gather_idx: padded linear row of every packed row."""
    total = int(seq_offsets[-1])
    batch = seq_lens.shape[0]
    # position of each packed token within its own sentence ...
    within = np.arange(total, dtype=np.int64) - np.repeat(
        seq_offsets[:-1], seq_lens
    )
    # ... plus its sentence's padded base row
    base = np.arange(batch, dtype=np.int64) * max_seq_len
    within += np.repeat(base, seq_lens)
    return within


def _build_packing(lens: np.ndarray, max_seq_len: int) -> PackedSeqs:
    batch = lens.shape[0]
    offsets = np.zeros(batch + 1, dtype=np.int64)
    np.cumsum(lens, out=offsets[1:])
    gather = _build_gather(lens, offsets, max_seq_len)
    return PackedSeqs(
        batch=batch,
        max_seq_len=max_seq_len,
        seq_lens=lens,
        seq_offsets=offsets,
        gather_idx=gather,
    )


class PackingCache:
    """LRU cache of :class:`PackedSeqs` keyed by ``(max_seq_len, lengths)``.

    Serving traces repeat shapes constantly (same bucket of requests, same
    padding layout); a hit returns the previously built metadata without
    touching the offsets/gather builders.  Cached entries have read-only
    arrays and own private copies of the lengths, so callers can mutate
    their inputs freely.
    """

    def __init__(self, capacity: int = 1024) -> None:
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries: OrderedDict[tuple[int, bytes], PackedSeqs] = (
            OrderedDict()
        )

    def __len__(self) -> int:
        return len(self._entries)

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get_or_build(self, lens: np.ndarray, max_seq_len: int) -> PackedSeqs:
        """Return the cached packing for ``lens`` or build + insert it."""
        key = (int(max_seq_len), lens.tobytes())
        hit = self._entries.get(key)
        if hit is not None:
            self._entries.move_to_end(key)
            self.hits += 1
            return hit
        self.misses += 1
        packing = _build_packing(lens.copy(), max_seq_len)
        for arr in (
            packing.seq_lens,
            packing.seq_offsets,
            packing.gather_idx,
        ):
            arr.flags.writeable = False
        self._entries[key] = packing
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.evictions += 1
        return packing


_default_cache = PackingCache()

#: sentinel: "use the module-default cache"
_USE_DEFAULT = object()


def default_packing_cache() -> PackingCache:
    """The process-wide cache used when callers don't pass their own."""
    return _default_cache


def _validate_lengths(lens: np.ndarray, max_seq_len: int) -> None:
    if lens.ndim != 1:
        raise ValueError(f"seq_lens must be 1-D, got shape {lens.shape}")
    if lens.size == 0:
        raise ValueError("need at least one sequence")
    if lens.min() <= 0 or lens.max() > max_seq_len:
        raise ValueError(
            f"lengths must lie in [1, {max_seq_len}], got "
            f"[{lens.min()}, {lens.max()}]"
        )


def packing_from_mask(
    mask: np.ndarray,
    *,
    ctx: ExecutionContext | None = None,
    cache: PackingCache | None = _USE_DEFAULT,  # type: ignore[assignment]
) -> PackedSeqs:
    """Run the prefix-sum kernel on ``mask`` and build :class:`PackedSeqs`.

    The paper's serving path assumes left-aligned tokens (a sentence's
    words occupy positions ``0..len-1``); the mask is validated to be of
    that form.  The prefix-sum kernel is launched (and its modelled cost
    recorded) unconditionally; ``cache`` only short-circuits the host-side
    metadata build.  Pass ``cache=None`` to disable caching.
    """
    if mask.ndim != 2:
        raise ValueError(f"expected a [B, S] mask, got {mask.shape}")
    prefix = mask_prefix_sum(mask, ctx=ctx)
    batch, max_seq_len = mask.shape

    seq_lens = np.ascontiguousarray(prefix[:, -1], dtype=np.int64)
    if (seq_lens <= 0).any():
        raise ValueError("every sentence needs at least one valid token")
    # left-alignment check: a row with len total ones is left-aligned iff
    # its first len positions are all ones, i.e. the prefix sum at index
    # len - 1 already equals len (the prefix is non-decreasing)
    aligned = (
        prefix[np.arange(batch), seq_lens - 1] == seq_lens
    )
    if not aligned.all():
        b = int(np.flatnonzero(~aligned)[0])
        raise ValueError(
            f"sentence {b} has interior padding; the serving path "
            "expects left-aligned tokens"
        )

    if cache is _USE_DEFAULT:
        cache = _default_cache
    if cache is not None:
        return cache.get_or_build(seq_lens, max_seq_len)
    return _build_packing(seq_lens, max_seq_len)


def packing_from_mask_reference(mask: np.ndarray) -> PackedSeqs:
    """The seed's per-sentence packing builder, kept as the numerics
    reference for the loop-free :func:`packing_from_mask`: one warp scan
    per sentence, then per-sentence validation and gather rows.  No
    kernel launch and no cache."""
    prefix = np.stack([warp_scan_sequence(row) for row in mask])
    batch, max_seq_len = mask.shape
    seq_lens = prefix[:, -1].copy()
    for b in range(batch):
        length = int(seq_lens[b])
        expected = np.arange(1, length + 1)
        if not np.array_equal(prefix[b, :length], expected):
            raise ValueError(f"sentence {b} has interior padding")
    seq_offsets = np.zeros(batch + 1, dtype=np.int64)
    np.cumsum(seq_lens, out=seq_offsets[1:])
    gather = np.empty(int(seq_offsets[-1]), dtype=np.int64)
    for b in range(batch):
        length = int(seq_lens[b])
        gather[seq_offsets[b] : seq_offsets[b + 1]] = (
            b * max_seq_len + np.arange(length)
        )
    return PackedSeqs(
        batch=batch,
        max_seq_len=max_seq_len,
        seq_lens=seq_lens,
        seq_offsets=seq_offsets,
        gather_idx=gather,
    )


def packing_from_lengths(
    seq_lens: np.ndarray | list[int],
    max_seq_len: int,
    *,
    cache: PackingCache | None = _USE_DEFAULT,  # type: ignore[assignment]
) -> PackedSeqs:
    """Build :class:`PackedSeqs` directly from known lengths (no kernel).

    ``seq_lens`` may be a plain Python list or any array-like; an existing
    C-contiguous ``int64`` array is used as-is without an intermediate
    copy.  Pass ``cache=None`` to bypass the :class:`PackingCache`.
    """
    if isinstance(seq_lens, np.ndarray) and seq_lens.dtype == np.int64:
        lens = np.ascontiguousarray(seq_lens)  # no copy when already C-order
    else:
        lens = np.asarray(seq_lens, dtype=np.int64)
    _validate_lengths(lens, max_seq_len)
    if cache is _USE_DEFAULT:
        cache = _default_cache
    if cache is not None:
        return cache.get_or_build(lens, max_seq_len)
    return _build_packing(lens, max_seq_len)


# ----------------------------------------------------------------------
# cross-request packing: many requests, one packed buffer


class EmptySegmentError(ValueError):
    """A request contributed zero valid tokens to a cross-request pack.

    The packed layout has no representation for an empty segment (every
    sentence owns at least one packed row), so the scheduler must shed
    such a request instead of admitting it into a megabatch.
    """


class TileOverflowError(ValueError):
    """The merged segments hold more valid tokens than the tile allows."""


@dataclass(frozen=True)
class CrossRequestPacking:
    """Positioning of many requests merged into one tile-sized packed buffer.

    The continuous batcher admits whole requests into a rolling megabatch
    bounded by a token budget; this structure is the pack/merge result:
    each request becomes one *segment* (a sentence of the underlying
    :class:`PackedSeqs`), segments are concatenated in admission order,
    and the buffer is quantized to ``tile`` rows — the tail
    ``tile - total_tokens`` rows are zero-padding that exists *only
    inside the packed buffer* (no padded ``[B, S]`` layout is ever
    materialised for it).

    Attributes
    ----------
    packing:
        :class:`PackedSeqs` over the real segments: ``seq_lens[i]`` is
        request ``i``'s length, ``seq_offsets`` are the per-request
        segment offsets the scatter-back path indexes with.
    tile:
        Quantized row count of the packed buffer (``>= total_tokens``).
    """

    packing: PackedSeqs
    tile: int

    def __post_init__(self) -> None:
        if self.tile < self.packing.total_tokens:
            raise TileOverflowError(
                f"{self.packing.total_tokens} merged tokens do not fit a "
                f"{self.tile}-token tile"
            )

    @property
    def num_segments(self) -> int:
        return self.packing.batch

    @property
    def total_tokens(self) -> int:
        """Valid (real) tokens; rows ``total_tokens:tile`` are padding."""
        return self.packing.total_tokens

    @property
    def pad_tokens(self) -> int:
        """Quantization padding inside the buffer — bounded by ``tile - 1``."""
        return self.tile - self.total_tokens

    @property
    def seq_lens(self) -> np.ndarray:
        return self.packing.seq_lens

    @property
    def segment_offsets(self) -> np.ndarray:
        """``[num_segments + 1]`` exclusive prefix of segment lengths."""
        return self.packing.seq_offsets

    def rows_of(self, i: int) -> slice:
        """Packed row range of segment (request) ``i``."""
        return self.packing.rows_of(i)


def merge_request_lengths(
    seq_lens: np.ndarray | list[int],
    max_seq_len: int,
    tile: int,
    *,
    cache: PackingCache | None = _USE_DEFAULT,  # type: ignore[assignment]
) -> CrossRequestPacking:
    """Merge per-request lengths into one :class:`CrossRequestPacking`.

    Each request keeps its own segment (attention never crosses segment
    boundaries); the packed buffer is sized to ``tile`` rows.  Raises
    :class:`EmptySegmentError` for a zero-length request and
    :class:`TileOverflowError` when the lengths sum past the tile.
    """
    lens = np.asarray(seq_lens, dtype=np.int64)
    if lens.ndim != 1 or lens.size == 0:
        raise ValueError("need a non-empty 1-D vector of request lengths")
    if (lens <= 0).any():
        i = int(np.flatnonzero(lens <= 0)[0])
        raise EmptySegmentError(
            f"request {i} contributes {int(lens[i])} valid tokens; "
            "a megabatch segment needs at least one"
        )
    total = int(lens.sum())
    if total > tile:
        raise TileOverflowError(
            f"{total} merged tokens do not fit a {tile}-token tile"
        )
    packing = packing_from_lengths(lens, max_seq_len, cache=cache)
    return CrossRequestPacking(packing=packing, tile=tile)


def pack_segments(
    segments: Sequence[np.ndarray],
    mega: CrossRequestPacking,
) -> np.ndarray:
    """Concatenate per-request ``[L_i, H]`` tensors into the tile buffer.

    Returns a ``[tile, H]`` array whose first ``total_tokens`` rows are
    the segments in order and whose tail rows are exactly zero (the
    quantization padding lives only here, never in a padded layout).
    """
    if len(segments) != mega.num_segments:
        raise ValueError(
            f"{len(segments)} segment tensors != {mega.num_segments} "
            "merged requests"
        )
    hidden = segments[0].shape[-1]
    out = np.empty((mega.tile, hidden), dtype=segments[0].dtype)
    offsets = mega.segment_offsets
    for i, seg in enumerate(segments):
        rows = seg.reshape(-1, hidden)
        expected = int(mega.seq_lens[i])
        if rows.shape[0] != expected:
            raise ValueError(
                f"segment {i} has {rows.shape[0]} rows, packing expects "
                f"{expected}"
            )
        out[offsets[i] : offsets[i + 1]] = rows
    out[mega.total_tokens :] = 0.0
    _observe_mega("pack.segments", mega)
    return out


def scatter_segments(
    packed: np.ndarray, mega: CrossRequestPacking
) -> list[np.ndarray]:
    """Split a packed ``[tile, H]`` (or ``[total, H]``) result back into
    per-request ``[L_i, H]`` views, in admission order.

    The views alias ``packed``.
    """
    if packed.ndim != 2 or packed.shape[0] < mega.total_tokens:
        raise ValueError(
            f"expected at least [{mega.total_tokens}, H], got {packed.shape}"
        )
    _observe_mega("scatter.segments", mega)
    return [packed[mega.rows_of(i)] for i in range(mega.num_segments)]


def pack(
    x_padded: np.ndarray,
    packing: PackedSeqs,
    *,
    ctx: ExecutionContext | None = None,
) -> np.ndarray:
    """Pack a padded ``[B, S, H]`` or ``[B*S, H]`` tensor to ``[T, H]``."""
    if x_padded.ndim == 3:
        batch, seq, hidden = x_padded.shape
        if batch != packing.batch or seq != packing.max_seq_len:
            raise ValueError(
                f"tensor layout {x_padded.shape[:2]} does not match packing "
                f"({packing.batch}, {packing.max_seq_len})"
            )
        x_padded = x_padded.reshape(batch * seq, hidden)
    elif x_padded.ndim == 2:
        if x_padded.shape[0] != packing.padded_rows:
            raise ValueError(
                f"{x_padded.shape[0]} rows != padded layout "
                f"{packing.padded_rows}"
            )
    else:
        raise ValueError(f"expected 2-D or 3-D tensor, got {x_padded.shape}")
    return pack_tokens(x_padded, packing.gather_idx, ctx=ctx)


def unpack(
    x_packed: np.ndarray,
    packing: PackedSeqs,
    *,
    ctx: ExecutionContext | None = None,
) -> np.ndarray:
    """Unpack ``[T, H]`` back to padded ``[B*S, H]`` (padding zeroed)."""
    if x_packed.ndim != 2 or x_packed.shape[0] != packing.total_tokens:
        raise ValueError(
            f"expected [{packing.total_tokens}, H], got {x_packed.shape}"
        )
    return unpack_tokens(
        x_packed, packing.gather_idx, packing.padded_rows, ctx=ctx
    )

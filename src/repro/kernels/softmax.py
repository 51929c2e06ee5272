"""Softmax kernels over attention-score matrices.

Variants model the implementations compared in Figures 11/12:

* :func:`softmax` — one fused kernel over a 2-D view (read + write);
* :func:`masked_softmax` — the padded-batch kernel conventional frameworks
  launch: it touches the full ``seq_len x seq_len`` score matrix of every
  batch, padded positions included;
* :func:`zeropad_softmax` — the paper's zero-padding variant: it indexes
  the score tensor through the prefix-sum offsets and only reads/writes
  the ``len_i x len_i`` valid region of each batch, so its DRAM traffic
  scales with the *valid* token count;
* the multi-kernel eager sequence (scale, mask-add, then softmax) used by
  the PyTorch-style baseline is built from :func:`scale_scores`,
  :func:`add_mask` and :func:`softmax`.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.gpusim.kernel import ComputeUnit, KernelLaunch
from repro.gpusim.memory import tensor_bytes
from repro.gpusim.stream import ExecutionContext, resolve_context

#: large negative additive-mask value (matches fp16-safe practice)
MASK_VALUE = -1e4
_ROWS_PER_BLOCK = 8


def softmax_reference(x: np.ndarray) -> np.ndarray:
    """Numerically stable row softmax along the last axis."""
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _softmax_launch(
    rows: int, cols: int, name: str, category: str, passes: float = 2.0
) -> KernelLaunch:
    grid = max(1, math.ceil(rows / _ROWS_PER_BLOCK))
    # exp + two reductions + scale: ~8 flops/element; the score-matrix
    # read is hot (the batched GEMM just produced it)
    return KernelLaunch(
        name=name,
        category=category,
        grid=grid,
        block_threads=256,
        flops=8.0 * rows * cols,
        dram_bytes=(passes - 1.0) * tensor_bytes(rows, cols),
        hot_bytes=tensor_bytes(rows, cols),
        compute_unit=ComputeUnit.FP32,
        compute_efficiency=0.5,
        regs_per_thread=48,
    )


def softmax_launch(
    rows: int, cols: int, category: str = "attention", name: str = "softmax"
) -> KernelLaunch:
    """Cost descriptor of the fused single-kernel softmax."""
    return _softmax_launch(rows, cols, name, category)


def scale_scores_launch(
    rows: int, cols: int, category: str = "attention"
) -> KernelLaunch:
    """Cost descriptor of the standalone score-scaling kernel."""
    return KernelLaunch(
        name="scale_scores",
        category=category,
        grid=max(1, math.ceil(rows / _ROWS_PER_BLOCK)),
        block_threads=256,
        flops=float(rows) * cols,
        dram_bytes=tensor_bytes(rows, cols),
        hot_bytes=tensor_bytes(rows, cols),
        compute_unit=ComputeUnit.FP16,
        compute_efficiency=0.5,
        regs_per_thread=24,
    )


def add_mask_launch(
    rows: int, cols: int, mask_elems: int, category: str = "attention"
) -> KernelLaunch:
    """Cost descriptor of the standalone additive-mask kernel."""
    return KernelLaunch(
        name="add_mask",
        category=category,
        grid=max(1, math.ceil(rows / _ROWS_PER_BLOCK)),
        block_threads=256,
        flops=2.0 * rows * cols,
        dram_bytes=tensor_bytes(rows, cols) + tensor_bytes(mask_elems),
        hot_bytes=tensor_bytes(rows, cols),
        compute_unit=ComputeUnit.FP16,
        compute_efficiency=0.5,
        regs_per_thread=24,
    )


def zeropad_softmax_launch(
    seq_lens: Sequence[int], heads: int, category: str = "attention"
) -> KernelLaunch:
    """Cost descriptor of the padding-free softmax for a length vector."""
    valid_rows = sum(heads * int(l) for l in seq_lens)
    valid_elems = sum(heads * int(l) * int(l) for l in seq_lens)
    return KernelLaunch(
        name="zeropad_softmax",
        category=category,
        grid=max(1, math.ceil(valid_rows / _ROWS_PER_BLOCK)),
        block_threads=256,
        flops=8.0 * valid_elems,
        dram_bytes=valid_elems * 2  # write pass, fp16
        + tensor_bytes(len(seq_lens)),  # offset vector
        hot_bytes=valid_elems * 2,  # hot read of the just-written scores
        compute_unit=ComputeUnit.FP32,
        compute_efficiency=0.5,
        regs_per_thread=48,
    )


def softmax(
    x: np.ndarray,
    *,
    ctx: ExecutionContext | None = None,
    category: str = "attention",
) -> np.ndarray:
    """Fused single-kernel softmax over the last axis of ``x``."""
    rows = int(np.prod(x.shape[:-1]))
    cols = x.shape[-1]
    resolve_context(ctx).launch(softmax_launch(rows, cols, category))
    return softmax_reference(x)


def scale_scores(
    x: np.ndarray,
    scale: float,
    *,
    ctx: ExecutionContext | None = None,
    category: str = "attention",
) -> np.ndarray:
    """Standalone score-scaling kernel (eager PyTorch launches this)."""
    rows = int(np.prod(x.shape[:-1]))
    cols = x.shape[-1]
    resolve_context(ctx).launch(scale_scores_launch(rows, cols, category))
    return x * scale


def add_mask(
    x: np.ndarray,
    mask: np.ndarray,
    *,
    ctx: ExecutionContext | None = None,
    category: str = "attention",
) -> np.ndarray:
    """Standalone additive-mask kernel.

    ``mask`` holds 1 for valid key positions and 0 for padding; invalid
    positions receive :data:`MASK_VALUE` before softmax.  Broadcasts over
    leading axes of ``x``.
    """
    rows = int(np.prod(x.shape[:-1]))
    cols = x.shape[-1]
    resolve_context(ctx).launch(
        add_mask_launch(rows, cols, int(np.prod(mask.shape)), category)
    )
    return x + (1.0 - mask) * MASK_VALUE


def masked_softmax(
    x: np.ndarray,
    mask: np.ndarray,
    *,
    ctx: ExecutionContext | None = None,
    category: str = "attention",
) -> np.ndarray:
    """Fused masked softmax over the *padded* score tensor.

    One kernel, but it still streams the whole padded tensor, so its cost
    grows with ``seq_len**2`` regardless of the valid lengths.
    """
    rows = int(np.prod(x.shape[:-1]))
    cols = x.shape[-1]
    resolve_context(ctx).launch(
        softmax_launch(rows, cols, category, name="masked_softmax")
    )
    return softmax_reference(x + (1.0 - mask) * MASK_VALUE)


def zeropad_softmax(
    scores: np.ndarray,
    seq_lens: Sequence[int],
    *,
    ctx: ExecutionContext | None = None,
    category: str = "attention",
) -> np.ndarray:
    """Padding-free softmax over a padded ``[B, H, S, S]`` score tensor.

    Only the ``len_b x len_b`` valid block of each batch is read,
    transformed and written; everything else is left untouched (zeroed in
    the output so downstream GEMMs see no garbage).  Traffic and FLOPs are
    summed over valid blocks only — this is the ``cuBLAS + zero padding``
    variant of Figures 11/12.
    """
    if scores.ndim != 4:
        raise ValueError(f"expected [B, H, S, S] scores, got {scores.shape}")
    batch, heads, max_len, max_len2 = scores.shape
    if max_len != max_len2:
        raise ValueError(f"score matrix must be square, got {scores.shape}")
    if len(seq_lens) != batch:
        raise ValueError(
            f"{len(seq_lens)} lengths for batch of {batch}"
        )

    # batch same-length sentences: one stacked [B', H, l, l] softmax per
    # distinct length instead of one Python iteration per sentence
    from repro.attention.bucketed import (
        group_by_length,
        softmax_lastaxis_inplace,
    )

    lens = np.asarray(list(seq_lens), dtype=np.int64)
    bad = (lens <= 0) | (lens > max_len)
    if bad.any():
        first = int(lens[np.flatnonzero(bad)[0]])
        raise ValueError(
            f"sequence length {first} out of range (0, {max_len}]"
        )
    out = np.zeros_like(scores)
    for length, idx in group_by_length(lens):
        block = scores[idx][:, :, :length, :length]
        out[idx, :, :length, :length] = softmax_lastaxis_inplace(block)

    resolve_context(ctx).launch(
        zeropad_softmax_launch(list(seq_lens), heads, category)
    )
    return out


def zeropad_softmax_reference(
    scores: np.ndarray, seq_lens: Sequence[int]
) -> np.ndarray:
    """Per-sentence numerics of :func:`zeropad_softmax` (no launch).

    One :func:`softmax_reference` over each sentence's valid
    ``len_b x len_b`` block, zeros elsewhere: the reference the batched
    per-length kernel path is checked against.
    """
    out = np.zeros_like(scores)
    for b, length in enumerate(seq_lens):
        out[b, :, :length, :length] = softmax_reference(
            scores[b, :, :length, :length]
        )
    return out

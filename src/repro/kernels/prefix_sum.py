"""Warp-level prefix sum over the input mask (§III-D).

The paper computes the packing offsets with one CUDA kernel: each *warp*
scans the mask of one sentence (32 tokens at a time with a running carry,
using shuffle-based Hillis–Steele steps), and ``batch_size`` warps run per
thread block.  We emulate the warp scan at lane granularity so the
algorithm — not just its result — is reproduced, and verify it against
``np.cumsum`` in the tests.
"""

from __future__ import annotations

import math

import numpy as np

from repro.gpusim.kernel import ComputeUnit, KernelLaunch
from repro.gpusim.memory import BYTES_PER_FP32
from repro.gpusim.stream import ExecutionContext, resolve_context

WARP_SIZE = 32


def warp_inclusive_scan(lane_values: np.ndarray) -> np.ndarray:
    """Hillis–Steele inclusive scan over one warp's 32 lanes.

    Emulates ``__shfl_up_sync``: at step ``d`` every lane ``i >= d`` adds
    the value held by lane ``i - d``.  ``lane_values`` must have exactly
    :data:`WARP_SIZE` entries.
    """
    if lane_values.shape != (WARP_SIZE,):
        raise ValueError(
            f"warp scan needs exactly {WARP_SIZE} lanes, got "
            f"{lane_values.shape}"
        )
    values = lane_values.astype(np.int64).copy()
    step = 1
    while step < WARP_SIZE:
        shifted = np.zeros_like(values)
        shifted[step:] = values[:-step]
        values += shifted
        step *= 2
    return values


def warp_scan_sequence(tokens: np.ndarray) -> np.ndarray:
    """Inclusive scan of an arbitrary-length vector by a single warp.

    The warp processes the vector in :data:`WARP_SIZE`-wide chunks,
    carrying the running total (held by the last lane) into the next
    chunk — exactly the loop structure of the paper's kernel.
    """
    if tokens.ndim != 1:
        raise ValueError(f"expected a 1-D token vector, got {tokens.shape}")
    n = tokens.shape[0]
    out = np.zeros(n, dtype=np.int64)
    carry = 0
    for start in range(0, n, WARP_SIZE):
        chunk = np.zeros(WARP_SIZE, dtype=np.int64)
        width = min(WARP_SIZE, n - start)
        chunk[:width] = tokens[start : start + width]
        scanned = warp_inclusive_scan(chunk) + carry
        out[start : start + width] = scanned[:width]
        carry = scanned[WARP_SIZE - 1]
    return out


def prefix_sum_launch(
    batch: int, seq: int, category: str = "packing"
) -> KernelLaunch:
    """Cost descriptor of the mask prefix-sum kernel (one warp/sentence)."""
    warps_per_block = batch
    threads = min(1024, warps_per_block * WARP_SIZE)
    grid = max(1, math.ceil(warps_per_block * WARP_SIZE / threads))
    return KernelLaunch(
        name="mask_prefix_sum",
        category=category,
        grid=grid,
        block_threads=threads,
        flops=float(batch) * seq * math.ceil(math.log2(WARP_SIZE)),
        dram_bytes=2.0 * batch * seq * BYTES_PER_FP32,
        compute_unit=ComputeUnit.FP32,
        compute_efficiency=0.3,
        regs_per_thread=24,
    )


def mask_prefix_sum(
    mask: np.ndarray,
    *,
    ctx: ExecutionContext | None = None,
    category: str = "packing",
) -> np.ndarray:
    """Per-sentence inclusive prefix sum of a ``[B, S]`` 0/1 mask.

    Returns an int64 ``[B, S]`` array where entry ``[b, s]`` is the number
    of valid tokens in sentence ``b`` up to and including position ``s``.
    One warp per sentence, ``batch_size`` warps per block (one block for
    the whole grid at BERT-scale batch sizes).
    """
    if mask.ndim != 2:
        raise ValueError(f"expected a [B, S] mask, got {mask.shape}")
    if not ((mask == 0) | (mask == 1)).all():
        raise ValueError("mask must contain only 0s and 1s")
    batch, seq = mask.shape

    # One cumsum over the whole mask: integer adds are associative, so
    # this is exactly the warp scan's result for 0/1 inputs (the per-row
    # warp_scan_sequence is the reference the tests check it against).
    out = np.cumsum(mask, axis=1, dtype=np.int64)

    resolve_context(ctx).launch(prefix_sum_launch(batch, seq, category))
    return out

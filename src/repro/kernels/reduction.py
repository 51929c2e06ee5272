"""Two-phase softmax reduction for the grouped-GEMM fused MHA (Figure 8).

Cross-CTA communication is impractical inside one kernel, so the paper
splits the softmax reduction:

1. **partial reduction** — fused into the first grouped GEMM's epilogue:
   each CTA reduces its ``128``-column tile of the score matrix to one
   per-row partial max and one per-row partial sum of
   ``exp(x - partial_max)``, stored to global memory
   (``seq_len x seq_len/128`` per attention unit);
2. **full reduction** — a separate lightweight kernel combines the
   partials into per-row max/sum vectors.  Combining sums requires
   rescaling each partial sum by ``exp(partial_max - full_max)``.  Its
   workload is ~1/128 of the partials', which is why the paper measures it
   at ~2% of fused-MHA time;
3. the element-wise transform ``exp(x - max) / sum`` is then fused into
   the second grouped GEMM's *mainloop* (Algorithm III.2) — zero extra
   kernels and zero extra traffic.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.gpusim.kernel import ComputeUnit, KernelLaunch
from repro.gpusim.memory import BYTES_PER_FP32

#: epilogue tile width over which a CTA can reduce locally (N_C in Fig. 8)
EPILOGUE_TILE_N = 128


def partial_softmax_stats(
    scores: np.ndarray, tile_n: int = EPILOGUE_TILE_N
) -> tuple[np.ndarray, np.ndarray]:
    """Per-row partial max and partial exp-sum over ``tile_n``-wide blocks.

    ``scores`` is one attention unit's ``[m, n]`` score matrix; returns
    ``(partial_max, partial_sum)`` of shape ``[m, ceil(n / tile_n)]``.
    This is what the first grouped GEMM's epilogue writes to global memory.
    """
    if scores.ndim != 2:
        raise ValueError(f"expected [m, n] scores, got {scores.shape}")
    m, n = scores.shape
    blocks = math.ceil(n / tile_n)
    partial_max = np.full((m, blocks), -np.inf)
    partial_sum = np.zeros((m, blocks))
    for blk in range(blocks):
        chunk = scores[:, blk * tile_n : (blk + 1) * tile_n]
        pmax = chunk.max(axis=1)
        partial_max[:, blk] = pmax
        partial_sum[:, blk] = np.exp(chunk - pmax[:, None]).sum(axis=1)
    return partial_max, partial_sum


def full_reduce_stats(
    partial_max: np.ndarray, partial_sum: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Combine per-block partials into per-row max and sum.

    ``sum_row = sum_blk partial_sum[blk] * exp(partial_max[blk] - max_row)``
    — the rescaling keeps the result identical to a direct single-pass
    reduction (verified by tests).
    """
    if partial_max.shape != partial_sum.shape:
        raise ValueError(
            f"partial shapes differ: {partial_max.shape} vs "
            f"{partial_sum.shape}"
        )
    row_max = partial_max.max(axis=1)
    scale = np.exp(partial_max - row_max[:, None])
    row_sum = (partial_sum * scale).sum(axis=1)
    return row_max, row_sum


def apply_softmax_transform(
    scores: np.ndarray, row_max: np.ndarray, row_sum: np.ndarray
) -> np.ndarray:
    """Element-wise ``exp(x - max) / sum`` given fully-reduced statistics.

    Numerics of the transform Algorithm III.2 fuses into the second GEMM's
    mainloop; when fused it contributes no kernel launch of its own.
    """
    if scores.shape[0] != row_max.shape[0] or row_max.shape != row_sum.shape:
        raise ValueError(
            f"stat shapes {row_max.shape}/{row_sum.shape} do not match "
            f"scores {scores.shape}"
        )
    return np.exp(scores - row_max[:, None]) / row_sum[:, None]


def full_reduction_launch(
    seq_lens: Sequence[int],
    heads: int,
    category: str = "attention",
    tile_n: int = EPILOGUE_TILE_N,
) -> KernelLaunch:
    """Cost descriptor of the full-reduction kernel for a length vector."""
    total_rows = sum(heads * int(l) for l in seq_lens)
    total_elems = sum(
        heads * int(l) * math.ceil(int(l) / tile_n) for l in seq_lens
    )
    return KernelLaunch(
        name="softmax_full_reduction",
        category=category,
        grid=max(1, math.ceil(total_rows / 32)),
        block_threads=256,
        flops=4.0 * total_elems,
        dram_bytes=(2.0 * total_elems + 2.0 * total_rows) * BYTES_PER_FP32,
        compute_unit=ComputeUnit.FP32,
        compute_efficiency=0.4,
        regs_per_thread=32,
    )


def partial_stats_store_bytes(seq_lens: Sequence[int], heads: int) -> float:
    """Bytes the GEMM1 epilogue stores for partial max+sum (all units)."""
    total = 0
    for length in seq_lens:
        blocks = math.ceil(length / EPILOGUE_TILE_N)
        total += heads * length * blocks * 2  # max and sum
    return float(total) * BYTES_PER_FP32


def partial_stats_flops(seq_lens: Sequence[int], heads: int) -> float:
    """Extra epilogue FLOPs for the intra-thread/intra-warp reductions."""
    total = 0
    for length in seq_lens:
        total += heads * length * length * 3  # max cmp, exp, add per elem
    return float(total)

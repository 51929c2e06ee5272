"""Batched GEMM with identical sub-problem shapes (cuBLAS-style).

This is the primitive conventional MHA implementations rely on — and the
reason they cannot exploit variable lengths: every sub-problem in the
batch must share one ``(m, n, k)`` shape, so inputs are padded to the
longest sequence and the padded FLOPs are burned for real (§III-D).

:func:`tile_gemm` is the opposite end of the spectrum: the host mirror
of the paper's *grouped* GEMM.  The per-segment projections of a packed
megabatch all share ``(n, k)`` and stack contiguously along ``m``, so —
instead of one BLAS call per segment, each paying its own dispatch and
threading ramp — a single call covers every segment of the tile at
once, exactly as the grouped kernel amortises CTA scheduling across
variable-length sub-problems.
"""

from __future__ import annotations

import math

import numpy as np

from repro.gpusim.kernel import ComputeUnit, KernelLaunch
from repro.gpusim.memory import tensor_bytes
from repro.gpusim.stream import ExecutionContext, resolve_context
from repro.kernels.gemm import gemm, gemm_efficiency, select_tile


def batched_gemm_launch(
    batch_count: int,
    m: int,
    n: int,
    k: int,
    *,
    name: str = "batched_gemm",
    category: str = "attention",
) -> KernelLaunch:
    """Cost descriptor for ``batch_count`` identical ``m x n x k`` GEMMs."""
    if batch_count <= 0:
        raise ValueError(f"batch_count must be positive, got {batch_count}")
    tile = select_tile(m, n)
    tiles = math.ceil(m / tile.tile_m) * math.ceil(n / tile.tile_n)
    return KernelLaunch(
        name=name,
        category=category,
        grid=batch_count * tiles,
        block_threads=tile.block_threads,
        flops=2.0 * batch_count * m * n * k,
        dram_bytes=batch_count * tensor_bytes(m, n),
        hot_bytes=batch_count * (tensor_bytes(m, k) + tensor_bytes(k, n)),
        compute_unit=ComputeUnit.TENSOR_FP16,
        compute_efficiency=gemm_efficiency(m, n, k, tile),
        shared_mem_per_block=tile.smem_bytes,
        regs_per_thread=tile.regs_per_thread,
    )


def batched_gemm(
    a: np.ndarray,
    b: np.ndarray,
    *,
    transpose_b: bool = False,
    ctx: ExecutionContext | None = None,
    name: str = "batched_gemm",
    category: str = "attention",
) -> np.ndarray:
    """Compute ``a @ b`` (or ``a @ b.T``) over leading batch axes.

    ``a`` and ``b`` are ``[..., m, k]`` and ``[..., k, n]`` (or
    ``[..., n, k]`` with ``transpose_b``); leading axes must match and are
    flattened into the cuBLAS batch count.
    """
    if a.ndim < 3 or b.ndim < 3:
        raise ValueError(
            f"batched gemm expects >=3-D operands, got {a.shape}, {b.shape}"
        )
    if a.shape[:-2] != b.shape[:-2]:
        raise ValueError(
            f"batch axes mismatch: {a.shape[:-2]} vs {b.shape[:-2]}"
        )
    b_eff = np.swapaxes(b, -1, -2) if transpose_b else b
    if a.shape[-1] != b_eff.shape[-2]:
        raise ValueError(f"inner dims mismatch: {a.shape} @ {b_eff.shape}")

    batch_count = int(np.prod(a.shape[:-2]))
    m, k = a.shape[-2], a.shape[-1]
    n = b_eff.shape[-1]

    resolve_context(ctx).launch(
        batched_gemm_launch(batch_count, m, n, k, name=name, category=category)
    )
    return a @ b_eff


def tile_gemm(
    x_packed: np.ndarray,
    w: np.ndarray,
    *,
    segment_offsets: np.ndarray,
    bias: np.ndarray | None = None,
    activation: str | None = None,
    ctx: ExecutionContext | None = None,
    name: str = "gemm",
    category: str = "gemm",
) -> np.ndarray:
    """Project every segment of a packed tile buffer in **one** BLAS call.

    ``x_packed`` is the ``[T, K]`` concatenation of variable-length
    segments whose row boundaries are ``segment_offsets`` (monotone,
    ``offsets[0] == 0``, ``offsets[-1] == T`` — the prefix sums of
    :class:`~repro.core.padding.PackedSeqs`).  Because every segment
    shares the same weight ``w``, the per-segment products are row
    blocks of one ``T x N`` GEMM, and BLAS row-splits ``m`` (never
    ``k``), so the single call is bitwise identical to looping the
    segments — while paying one dispatch instead of ``num_segments``.

    Cost plane: delegates to :func:`repro.kernels.gemm.gemm` with the
    same name/category, so the launch descriptor — and therefore the
    captured graph and modelled µs — is exactly what the packed
    pipeline always priced.  The grouping is a host-scheduling win, not
    a cost-model change.
    """
    offs = np.asarray(segment_offsets, dtype=np.int64)
    if offs.ndim != 1 or offs.shape[0] < 2:
        raise ValueError(
            f"segment_offsets must hold >= 2 boundaries, got {offs.shape}"
        )
    if offs[0] != 0 or offs[-1] != x_packed.shape[0]:
        raise ValueError(
            f"segment_offsets {offs[0]}..{offs[-1]} do not cover the "
            f"{x_packed.shape[0]}-row packed buffer"
        )
    if np.any(np.diff(offs) < 0):
        raise ValueError("segment_offsets must be non-decreasing")
    return gemm(
        x_packed,
        w,
        bias=bias,
        activation=activation,
        ctx=ctx,
        name=name,
        category=category,
    )

"""Pack/unpack kernels for the zero-padding algorithm (§III-D, Figure 4).

``pack`` gathers the valid rows of a padded ``[B*S, H]`` tensor into a
condensed ``[T, H]`` tensor (``T`` = total valid tokens) using the gather
indices produced by the mask prefix sum; ``unpack`` scatters a packed
tensor back to padded layout, zero-filling the padding.  Standalone
kernels are provided here; the *fused* pack/unpack variants (folded into
add-bias and head-transpose footprints, as the paper does to hide their
cost) live in :mod:`repro.kernels.transpose`.
"""

from __future__ import annotations

import math

import numpy as np

from repro.gpusim.kernel import ComputeUnit, KernelLaunch
from repro.gpusim.memory import BYTES_PER_FP32, tensor_bytes
from repro.gpusim.stream import ExecutionContext, resolve_context

_ROWS_PER_BLOCK = 4


def _check_gather(gather_idx: np.ndarray, padded_rows: int) -> None:
    if gather_idx.ndim != 1:
        raise ValueError(f"gather_idx must be 1-D, got {gather_idx.shape}")
    if gather_idx.size == 0:
        raise ValueError("gather_idx must contain at least one token")
    if gather_idx.min() < 0 or gather_idx.max() >= padded_rows:
        raise ValueError(
            f"gather indices out of range [0, {padded_rows}) "
            f"(min {gather_idx.min()}, max {gather_idx.max()})"
        )


def pack_launch(
    tokens: int, hidden: int, category: str = "packing"
) -> KernelLaunch:
    """Cost descriptor of the standalone pack (gather) kernel."""
    return KernelLaunch(
        name="pack_tokens",
        category=category,
        grid=max(1, math.ceil(tokens / _ROWS_PER_BLOCK)),
        block_threads=256,
        flops=0.0,
        dram_bytes=2.0 * tensor_bytes(tokens, hidden)
        + tokens * BYTES_PER_FP32,
        compute_unit=ComputeUnit.FP16,
        compute_efficiency=0.5,
        regs_per_thread=24,
    )


def unpack_launch(
    tokens: int, padded_rows: int, hidden: int, category: str = "packing"
) -> KernelLaunch:
    """Cost descriptor of the standalone unpack (scatter) kernel."""
    return KernelLaunch(
        name="unpack_tokens",
        category=category,
        grid=max(1, math.ceil(padded_rows / _ROWS_PER_BLOCK)),
        block_threads=256,
        flops=0.0,
        dram_bytes=tensor_bytes(padded_rows, hidden)
        + tokens * BYTES_PER_FP32,
        hot_bytes=tensor_bytes(tokens, hidden),
        compute_unit=ComputeUnit.FP16,
        compute_efficiency=0.5,
        regs_per_thread=24,
    )


def pack_tokens(
    x_padded: np.ndarray,
    gather_idx: np.ndarray,
    *,
    ctx: ExecutionContext | None = None,
    category: str = "packing",
) -> np.ndarray:
    """Gather valid rows: ``[B*S, H]`` + indices ``[T]`` → ``[T, H]``."""
    if x_padded.ndim != 2:
        raise ValueError(f"expected [rows, H], got {x_padded.shape}")
    _check_gather(gather_idx, x_padded.shape[0])
    tokens = gather_idx.shape[0]
    hidden = x_padded.shape[1]
    resolve_context(ctx).launch(pack_launch(tokens, hidden, category))
    return x_padded[gather_idx]


def unpack_tokens(
    x_packed: np.ndarray,
    gather_idx: np.ndarray,
    padded_rows: int,
    *,
    ctx: ExecutionContext | None = None,
    category: str = "packing",
) -> np.ndarray:
    """Scatter packed rows back to padded layout, zero-filling padding.

    Writes the whole padded tensor (real kernels memset + scatter), so its
    cost scales with ``B*S`` — which is exactly why the paper fuses unpack
    into neighbouring kernels rather than paying for it standalone.
    """
    if x_packed.ndim != 2:
        raise ValueError(f"expected [T, H], got {x_packed.shape}")
    _check_gather(gather_idx, padded_rows)
    if gather_idx.shape[0] != x_packed.shape[0]:
        raise ValueError(
            f"{gather_idx.shape[0]} indices for {x_packed.shape[0]} rows"
        )
    tokens, hidden = x_packed.shape
    resolve_context(ctx).launch(
        unpack_launch(tokens, padded_rows, hidden, category)
    )
    out = np.zeros((padded_rows, hidden), dtype=x_packed.dtype)
    out[gather_idx] = x_packed
    return out

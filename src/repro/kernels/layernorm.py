"""Layer normalisation kernels, fused and unfused (§III-C.1, Figure 9).

After MHA-projection and after the FFN, BERT computes
``LayerNorm(x + residual + bias)``.  The unfused pipeline launches two
kernels (add-bias-and-residual, then layernorm) and round-trips the
intermediate through DRAM — five tensor passes in total.  The fused kernel
does everything in one pass pair (read ``x`` and ``residual``, write the
normalised output — three passes), which is where the paper's ~61-69%
kernel-level win comes from.
"""

from __future__ import annotations

import math

import numpy as np

from repro.gpusim.kernel import ComputeUnit, KernelLaunch
from repro.gpusim.memory import tensor_bytes
from repro.gpusim.stream import ExecutionContext, resolve_context

#: default normalisation epsilon (matches BERT)
LAYERNORM_EPS = 1e-12
#: rows handled per thread block (one warp per row, 8 warps per block)
_ROWS_PER_BLOCK = 8


def layernorm_reference(
    x: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    eps: float = LAYERNORM_EPS,
) -> np.ndarray:
    """Row-wise layer normalisation oracle."""
    mean = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mean) / np.sqrt(var + eps) * gamma + beta


def _ln_launch(
    rows: int, cols: int, name: str, category: str, tensor_passes: float
) -> KernelLaunch:
    grid = max(1, math.ceil(rows / _ROWS_PER_BLOCK))
    # ~10 flops/element: two reduction passes plus the normalisation math.
    # One read pass is hot (the tensor the previous kernel just wrote).
    return KernelLaunch(
        name=name,
        category=category,
        grid=grid,
        block_threads=256,
        flops=10.0 * rows * cols,
        dram_bytes=(tensor_passes - 1.0) * tensor_bytes(rows, cols)
        + 2 * tensor_bytes(cols),
        hot_bytes=tensor_bytes(rows, cols),
        compute_unit=ComputeUnit.FP16,
        compute_efficiency=0.5,
        regs_per_thread=40,
    )


def layernorm_launch(rows: int, cols: int, category: str = "layernorm") -> KernelLaunch:
    """Cost descriptor of the standalone layernorm kernel."""
    return _ln_launch(rows, cols, "layernorm", category, 2.0)


def fused_layernorm_launch(
    rows: int, cols: int, category: str = "layernorm"
) -> KernelLaunch:
    """Cost descriptor of the fused add-bias + residual + layernorm kernel."""
    return _ln_launch(
        rows, cols, "fused_add_bias_residual_layernorm", category, 3.0
    )


def add_bias_residual_launch(
    rows: int, cols: int, category: str = "layernorm"
) -> KernelLaunch:
    """Cost descriptor of the standalone add-bias-and-residual kernel."""
    return KernelLaunch(
        name="add_bias_residual",
        category=category,
        grid=max(1, math.ceil(rows / _ROWS_PER_BLOCK)),
        block_threads=256,
        flops=2.0 * rows * cols,
        dram_bytes=2.0 * tensor_bytes(rows, cols) + tensor_bytes(cols),
        hot_bytes=tensor_bytes(rows, cols),
        compute_unit=ComputeUnit.FP16,
        compute_efficiency=0.5,
        regs_per_thread=32,
    )


def layernorm(
    x: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    *,
    eps: float = LAYERNORM_EPS,
    ctx: ExecutionContext | None = None,
    category: str = "layernorm",
) -> np.ndarray:
    """Standalone layernorm kernel: read tensor, normalise, write."""
    if x.ndim != 2:
        raise ValueError(f"layernorm expects a 2-D tensor, got {x.shape}")
    rows, cols = x.shape
    if gamma.shape != (cols,) or beta.shape != (cols,):
        raise ValueError("gamma/beta must match the hidden dimension")
    resolve_context(ctx).launch(layernorm_launch(rows, cols, category))
    return layernorm_reference(x, gamma, beta, eps)


def add_bias_residual(
    x: np.ndarray,
    bias: np.ndarray,
    residual: np.ndarray,
    *,
    ctx: ExecutionContext | None = None,
    category: str = "layernorm",
) -> np.ndarray:
    """Standalone kernel computing ``x + bias + residual``.

    Reads two tensors and the bias vector, writes one tensor (three tensor
    passes).  Part of the *unfused* layernorm pipeline.
    """
    if x.shape != residual.shape:
        raise ValueError(
            f"residual shape {residual.shape} != input shape {x.shape}"
        )
    if bias.shape != (x.shape[-1],):
        raise ValueError(f"bias shape {bias.shape} != ({x.shape[-1]},)")
    rows, cols = x.shape
    resolve_context(ctx).launch(
        add_bias_residual_launch(rows, cols, category)
    )
    return x + bias + residual


def add_bias_residual_layernorm_unfused(
    x: np.ndarray,
    bias: np.ndarray,
    residual: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    *,
    eps: float = LAYERNORM_EPS,
    ctx: ExecutionContext | None = None,
    category: str = "layernorm",
) -> np.ndarray:
    """Two-kernel baseline: add-bias-and-residual, then layernorm."""
    inter = add_bias_residual(x, bias, residual, ctx=ctx, category=category)
    return layernorm(inter, gamma, beta, eps=eps, ctx=ctx, category=category)


def add_bias_residual_layernorm(
    x: np.ndarray,
    bias: np.ndarray,
    residual: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    *,
    eps: float = LAYERNORM_EPS,
    ctx: ExecutionContext | None = None,
    category: str = "layernorm",
) -> np.ndarray:
    """Fused kernel: ``LayerNorm(x + bias + residual)`` in one launch.

    Reads ``x`` and ``residual`` once, keeps the sum in registers through
    both reduction rounds (FP16 SIMD2 in the paper's kernel), writes the
    output once — three tensor passes instead of five.
    """
    if x.shape != residual.shape:
        raise ValueError(
            f"residual shape {residual.shape} != input shape {x.shape}"
        )
    if x.ndim != 2:
        raise ValueError(f"expected a 2-D tensor, got {x.shape}")
    rows, cols = x.shape
    if bias.shape != (cols,):
        raise ValueError(f"bias shape {bias.shape} != ({cols},)")
    if gamma.shape != (cols,) or beta.shape != (cols,):
        raise ValueError("gamma/beta must match the hidden dimension")
    resolve_context(ctx).launch(fused_layernorm_launch(rows, cols, category))
    return layernorm_reference(x + bias + residual, gamma, beta, eps)

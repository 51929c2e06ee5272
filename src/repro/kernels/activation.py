"""Element-wise activation kernels: GELU and add-bias variants.

Two execution styles are provided, matching the paper's §III-C.2
comparison:

* :func:`add_bias_gelu` — the standalone kernel an *unfused* pipeline
  launches after a GEMM: it reads the GEMM output back from DRAM, adds the
  bias, applies GELU and writes the result (two full passes over the
  tensor plus the bias vector);
* fusion into the GEMM epilogue is expressed by calling
  :func:`repro.kernels.gemm.gemm` with ``bias=...`` and
  ``activation="gelu"`` — no standalone kernel, no extra tensor traffic.

One GELU
--------
:func:`apply_gelu` is the only GELU formula; every host path (the GEMM
epilogue, both standalone kernels and the reference models) calls it.
It computes ``x * Phi(x)`` with ``Phi = 0.5 + 0.5 * erf(x / sqrt(2))``
and the float32 rational erf of Eigen/XLA: an odd degree-13 numerator
over an even degree-8 denominator, argument clamped to ±4.  The
rational is divided by its own value at the clamp and ``Phi`` is
clipped to ``[0, 1]``, so beyond ±4·sqrt(2) ``Phi`` is exactly 1 or 0:
GELU(x) = x and GELU(-x) = 0 there, up to ``finfo.max``.  ``Phi`` is
always computed in float32; the final product keeps the input dtype.
Its max |error| against float64 ``x * Phi(x)`` is below 2e-6 over the
reals.

The kernel walks the leading axis in :data:`GELU_BLOCK_ROWS`-row
blocks with one small float32 temporary per call.  Only ``+ × ÷`` and
``clip`` touch the data, and NumPy rounds those correctly in its SIMD
and scalar loops alike, so each element's bits depend on its value
alone — not on block size, row count, batch composition or alignment.
That is what keeps the batched-vs-per-request bitwise oracles exact.
"""

from __future__ import annotations

import math

import numpy as np

from repro.gpusim.kernel import ComputeUnit, KernelLaunch
from repro.gpusim.memory import tensor_bytes
from repro.gpusim.stream import ExecutionContext, resolve_context

#: rows of the (rows x hidden) tensor processed per thread block
_ROWS_PER_BLOCK = 4

#: leading-axis rows :func:`apply_gelu` transforms per step
GELU_BLOCK_ROWS = 32

#: Eigen/XLA float32 rational erf(z) = z * P(z^2) / Q(z^2), coefficients
#: highest power first (Horner order)
_ERF_P = tuple(
    np.float32(c)
    for c in (
        -2.72614225801306e-10, 2.77068142495902e-08, -2.10102402082508e-06,
        -5.69250639462346e-05, -7.34990630326855e-04, -2.95459980854025e-03,
        -1.60960333262415e-02,
    )
)
_ERF_Q = tuple(
    np.float32(c)
    for c in (
        -1.45660718464996e-05, -2.13374055278905e-04, -1.68282697438203e-03,
        -7.37332916720468e-03, -1.42647390514189e-02,
    )
)
_SQRT_HALF = np.float32(1.0 / math.sqrt(2.0))
#: clamp on ``x`` so erf's argument ``x / sqrt(2)`` stays within ±4
_X_CLAMP = 4.0 * math.sqrt(2.0)


def _horner(z2: np.ndarray, coeffs: tuple, out: np.ndarray) -> None:
    np.multiply(z2, coeffs[0], out=out)
    np.add(out, coeffs[1], out=out)
    for c in coeffs[2:]:
        np.multiply(out, z2, out=out)
        np.add(out, c, out=out)


def _erf_into(
    x: np.ndarray, z: np.ndarray, z2: np.ndarray, p: np.ndarray, q: np.ndarray
) -> np.ndarray:
    """Rational ``erf(x / sqrt(2))`` into the float32 buffer ``p``.

    ``x`` is clamped in its own dtype before the float32 cast, so a
    float64 input as large as ``finfo.max`` never overflows the cast.
    """
    np.clip(x, -_X_CLAMP, _X_CLAMP, out=z)
    np.multiply(z, _SQRT_HALF, out=z)
    np.multiply(z, z, out=z2)
    _horner(z2, _ERF_P, p)
    _horner(z2, _ERF_Q, q)
    np.divide(p, q, out=p)
    np.multiply(p, z, out=p)
    return p


#: twice the rational erf at the clamp, where it reads 0.99999994, not
#: 1; dividing by it makes Phi exactly 0 and 1 beyond the clamp
_TWICE_ERF_AT_CLAMP = np.float32(2.0) * _erf_into(
    np.array([_X_CLAMP]), *np.empty((4, 1), np.float32)
)[0]


def apply_gelu(x: np.ndarray, *, out: np.ndarray) -> np.ndarray:
    """GELU of ``x`` into ``out``, which may be ``x`` itself.

    Walks the leading axis in :data:`GELU_BLOCK_ROWS`-row blocks with
    one float32 temporary of four block-sized buffers; ``Phi`` is
    float32 whatever ``x``'s dtype, the product keeps ``out``'s.
    """
    if out.shape != x.shape:
        raise ValueError(f"out shape {out.shape} != input shape {x.shape}")
    if x.ndim > 2:
        for i in range(x.shape[0]):
            apply_gelu(x[i], out=out[i])
        return out
    x2d, out2d = np.atleast_2d(x, out)
    rows = min(GELU_BLOCK_ROWS, x2d.shape[0])
    scratch = np.empty((4, rows, x2d.shape[1]), np.float32)
    for lo in range(0, x2d.shape[0], GELU_BLOCK_ROWS):
        xb = x2d[lo:lo + GELU_BLOCK_ROWS]
        phi = _erf_into(xb, *scratch[:, : xb.shape[0]])
        np.divide(phi, _TWICE_ERF_AT_CLAMP, out=phi)
        np.add(phi, 0.5, out=phi)
        np.clip(phi, 0.0, 1.0, out=phi)
        np.multiply(xb, phi, out=out2d[lo:lo + xb.shape[0]])
    return out


def gelu_reference(x: np.ndarray) -> np.ndarray:
    """GELU ``x * Phi(x)`` of a float array, as a new array."""
    return apply_gelu(x, out=np.empty_like(x))


def _elementwise_launch(
    rows: int, cols: int, name: str, category: str, passes: float, flops_per_elem: float
) -> KernelLaunch:
    grid = max(1, math.ceil(rows / _ROWS_PER_BLOCK))
    # the input read is *hot*: it follows the kernel that produced it
    return KernelLaunch(
        name=name,
        category=category,
        grid=grid,
        block_threads=256,
        flops=flops_per_elem * rows * cols,
        dram_bytes=(passes - 1.0) * tensor_bytes(rows, cols)
        + tensor_bytes(cols),
        hot_bytes=tensor_bytes(rows, cols),
        compute_unit=ComputeUnit.FP16,
        compute_efficiency=0.5,
        regs_per_thread=32,
    )


def add_bias_launch(rows: int, cols: int, category: str = "activation") -> KernelLaunch:
    """Cost descriptor of the standalone add-bias kernel."""
    return _elementwise_launch(rows, cols, "add_bias", category, 2.0, 1.0)


def gelu_launch(rows: int, cols: int, category: str = "activation") -> KernelLaunch:
    """Cost descriptor of the standalone GELU kernel."""
    return _elementwise_launch(rows, cols, "gelu", category, 2.0, 8.0)


def add_bias_gelu_launch(
    rows: int, cols: int, category: str = "activation"
) -> KernelLaunch:
    """Cost descriptor of the fused-elementwise add-bias + GELU kernel."""
    return _elementwise_launch(rows, cols, "add_bias_gelu", category, 2.0, 9.0)


def add_bias(
    x: np.ndarray,
    bias: np.ndarray,
    *,
    ctx: ExecutionContext | None = None,
    category: str = "activation",
) -> np.ndarray:
    """Standalone add-bias kernel: read tensor, add bias vector, write."""
    if x.ndim != 2:
        raise ValueError(f"add_bias expects a 2-D tensor, got {x.shape}")
    if bias.shape != (x.shape[1],):
        raise ValueError(f"bias shape {bias.shape} != ({x.shape[1]},)")
    rows, cols = x.shape
    resolve_context(ctx).launch(
        add_bias_launch(rows, cols, category)
    )
    return x + bias


def gelu(
    x: np.ndarray,
    *,
    ctx: ExecutionContext | None = None,
    category: str = "activation",
) -> np.ndarray:
    """Standalone GELU kernel: read tensor, transform, write."""
    if x.ndim != 2:
        raise ValueError(f"gelu expects a 2-D tensor, got {x.shape}")
    rows, cols = x.shape
    resolve_context(ctx).launch(
        gelu_launch(rows, cols, category)
    )
    return gelu_reference(x)


def add_bias_gelu(
    x: np.ndarray,
    bias: np.ndarray,
    *,
    ctx: ExecutionContext | None = None,
    category: str = "activation",
) -> np.ndarray:
    """Fused-elementwise (but not GEMM-fused) add-bias + GELU kernel.

    One read and one write of the tensor.  This is what a framework with
    element-wise fusion (e.g. XLA, JIT) launches after an unfused GEMM.
    Only the result tensor is allocated; GELU runs in place on it.
    """
    if x.ndim != 2:
        raise ValueError(f"add_bias_gelu expects a 2-D tensor, got {x.shape}")
    if bias.shape != (x.shape[1],):
        raise ValueError(f"bias shape {bias.shape} != ({x.shape[1]},)")
    rows, cols = x.shape
    resolve_context(ctx).launch(
        add_bias_gelu_launch(rows, cols, category)
    )
    out = x + bias
    return apply_gelu(out, out=out)

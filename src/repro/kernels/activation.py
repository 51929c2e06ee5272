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

GELU variants
-------------
Two host formulas compute the activation; **both price as the same
kernel** — variant selection is a numeric-plane concern only, so the
launch stream and modelled µs are unchanged by it:

* ``"exact"`` — ``x * Phi(x)`` via ``scipy.special.erf`` (the default,
  bitwise-stable reference);
* ``"tanh"`` — the tanh approximation BERT implementations ship, about
  an order of magnitude cheaper on the host than erf; its worst-case
  error against exact GELU is :data:`FAST_GELU_ATOL` (the documented
  tolerance the ``fast-gelu`` preset is bench-gated against).

:func:`force_gelu_variant` mirrors
:func:`repro.attention.dispatch.force_mha_path`: the degradation ladder
pins conservative rungs to ``"exact"`` regardless of the preset.
"""

from __future__ import annotations

import contextlib
import math
from typing import Iterator

import numpy as np
from scipy.special import erf

from repro.core.memory_planner import KERNEL_SCRATCH
from repro.gpusim.kernel import ComputeUnit, KernelLaunch
from repro.gpusim.memory import tensor_bytes
from repro.gpusim.stream import ExecutionContext, resolve_context

#: rows of the (rows x hidden) tensor processed per thread block
_ROWS_PER_BLOCK = 4

#: the host GELU formulas a preset may select
GELU_VARIANTS = ("exact", "tanh")

#: documented worst-case |tanh-GELU - exact-GELU| over the reals for
#: ONE application; the maximum of the error curve sits near |x| ~ 2
#: and is independent of scale, so this bounds the per-element error of
#: any activation tensor.  Through a full model the error compounds at
#: most linearly in depth (one GELU per layer, layernorm renormalises
#: between layers), so the end-to-end bound the bench gates against is
#: ``num_layers * FAST_GELU_ATOL``.
FAST_GELU_ATOL = 5e-4

_forced_variant: list[str] = []


def forced_gelu_variant() -> str | None:
    """The innermost forced GELU variant, or ``None``."""
    return _forced_variant[-1] if _forced_variant else None


@contextlib.contextmanager
def force_gelu_variant(variant: str) -> Iterator[None]:
    """Pin the GELU formula within the ``with`` block.

    The degradation ladder uses this to hold conservative rungs on the
    exact formula even when the serving preset is ``fast-gelu`` —
    mirroring :func:`repro.attention.dispatch.force_mha_path`.
    """
    if variant not in GELU_VARIANTS:
        raise ValueError(
            f"unknown GELU variant {variant!r}; pick one of {GELU_VARIANTS}"
        )
    _forced_variant.append(variant)
    try:
        yield
    finally:
        _forced_variant.pop()


def resolve_gelu_variant(variant: str) -> str:
    """``variant`` unless a :func:`force_gelu_variant` block overrides it."""
    if variant not in GELU_VARIANTS:
        raise ValueError(
            f"unknown GELU variant {variant!r}; pick one of {GELU_VARIANTS}"
        )
    forced = forced_gelu_variant()
    return forced if forced is not None else variant


def gelu_reference(x: np.ndarray) -> np.ndarray:
    """Exact GELU: ``x * Phi(x)`` with the Gaussian CDF."""
    return 0.5 * x * (1.0 + erf(x / math.sqrt(2.0)))


def gelu_into(
    x: np.ndarray, *, out: np.ndarray, tmp: np.ndarray
) -> np.ndarray:
    """:func:`gelu_reference` into caller-provided storage, bit for bit.

    Runs the reference expression as the same ufunc sequence with ``out=``
    targets, so no intermediate is allocated and the result is bitwise
    identical (``x * 0.5`` commutes exactly with ``0.5 * x`` under IEEE
    754).  ``out`` may alias ``x``; ``tmp`` must not alias either and
    must match ``x``'s shape.
    """
    np.divide(x, math.sqrt(2.0), out=tmp)
    erf(tmp, out=tmp)
    np.add(tmp, 1.0, out=tmp)
    np.multiply(x, 0.5, out=out)
    np.multiply(out, tmp, out=out)
    return out


def gelu_tanh(x: np.ndarray) -> np.ndarray:
    """The tanh approximation of GELU used by BERT implementations.

    The cube is ``(x*x)*x`` rather than ``x**3``: ``np.power`` rounds
    differently in the last bit, and :func:`gelu_tanh_into` must be able
    to replay this expression bitwise from plain multiplies.
    """
    c = math.sqrt(2.0 / math.pi)
    return 0.5 * x * (1.0 + np.tanh(c * (x + 0.044715 * ((x * x) * x))))


def gelu_tanh_into(
    x: np.ndarray, *, out: np.ndarray, tmp: np.ndarray
) -> np.ndarray:
    """:func:`gelu_tanh` into caller-provided storage, bit for bit.

    The same ufunc sequence with ``out=`` targets — including the
    ``(x*x)*x`` cube — so the two forms agree bitwise.  ``out`` may
    alias ``x``; ``tmp`` must not alias either and must match ``x``'s
    shape.
    """
    c = math.sqrt(2.0 / math.pi)
    np.multiply(x, x, out=tmp)
    np.multiply(tmp, x, out=tmp)
    np.multiply(tmp, 0.044715, out=tmp)
    np.add(x, tmp, out=tmp)
    np.multiply(tmp, c, out=tmp)
    np.tanh(tmp, out=tmp)
    np.add(tmp, 1.0, out=tmp)
    np.multiply(x, 0.5, out=out)
    np.multiply(out, tmp, out=out)
    return out


def apply_gelu(
    x: np.ndarray,
    *,
    out: np.ndarray,
    tmp: np.ndarray,
    variant: str = "exact",
) -> np.ndarray:
    """Dispatch to the in-place formula for ``variant`` (post-forcing)."""
    v = resolve_gelu_variant(variant)
    into = gelu_into if v == "exact" else gelu_tanh_into
    return into(x, out=out, tmp=tmp)


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
    variant: str = "exact",
) -> np.ndarray:
    """Fused-elementwise (but not GEMM-fused) add-bias + GELU kernel.

    One read and one write of the tensor.  This is what a framework with
    element-wise fusion (e.g. XLA, JIT) launches after an unfused GEMM.
    Only the result tensor is allocated — the erf/tanh temporary comes
    from the pooled :data:`~repro.core.memory_planner.KERNEL_SCRATCH`.
    ``variant``
    selects the host formula; the launch descriptor is the same either
    way (see module docstring).
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
    return apply_gelu(
        out,
        out=out,
        tmp=KERNEL_SCRATCH.take(out.shape, out.dtype),
        variant=variant,
    )

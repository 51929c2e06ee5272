"""Numerical GPU kernels with paired cost descriptors.

Every function in this package computes its result with NumPy *and*
records a :class:`repro.gpusim.KernelLaunch` into the active
:class:`repro.gpusim.ExecutionContext` (explicit ``ctx=`` argument, the
ambient :func:`repro.gpusim.use_context` context, or a no-op null context
when neither is present).
"""

from repro.kernels.activation import (
    add_bias,
    add_bias_gelu,
    gelu,
    gelu_reference,
)
from repro.kernels.batched_gemm import batched_gemm, batched_gemm_launch
from repro.kernels.gemm import (
    gemm,
    gemm_efficiency,
    gemm_flops,
    gemm_launch,
    select_tile,
)
from repro.kernels.grouped_gemm import (
    GemmProblem,
    GroupedSchedule,
    SchedulerKind,
    grouped_gemm,
    grouped_gemm_launch,
    simulate_schedule,
)
from repro.kernels.layernorm import (
    add_bias_residual,
    add_bias_residual_layernorm,
    add_bias_residual_layernorm_unfused,
    layernorm,
    layernorm_reference,
)
from repro.kernels.packing import pack_tokens, unpack_tokens
from repro.kernels.prefix_sum import (
    mask_prefix_sum,
    warp_inclusive_scan,
    warp_scan_sequence,
)
from repro.kernels.reduction import (
    apply_softmax_transform,
    full_reduce_stats,
    partial_softmax_stats,
)
from repro.kernels.softmax import (
    add_mask,
    masked_softmax,
    scale_scores,
    softmax,
    softmax_reference,
    zeropad_softmax,
    zeropad_softmax_reference,
)
from repro.kernels.transpose import (
    add_bias_split_heads_packed_qkv,
    add_bias_split_heads_qkv,
    add_bias_unpack_split_heads_qkv,
    merge_heads,
    pack_merge_heads,
    split_heads,
)

__all__ = [
    "add_bias",
    "add_bias_gelu",
    "gelu",
    "gelu_reference",
    "batched_gemm",
    "batched_gemm_launch",
    "gemm",
    "gemm_efficiency",
    "gemm_flops",
    "gemm_launch",
    "select_tile",
    "GemmProblem",
    "GroupedSchedule",
    "SchedulerKind",
    "grouped_gemm",
    "grouped_gemm_launch",
    "simulate_schedule",
    "add_bias_residual",
    "add_bias_residual_layernorm",
    "add_bias_residual_layernorm_unfused",
    "layernorm",
    "layernorm_reference",
    "pack_tokens",
    "unpack_tokens",
    "mask_prefix_sum",
    "warp_inclusive_scan",
    "warp_scan_sequence",
    "apply_softmax_transform",
    "full_reduce_stats",
    "partial_softmax_stats",
    "add_mask",
    "masked_softmax",
    "scale_scores",
    "softmax",
    "softmax_reference",
    "zeropad_softmax",
    "zeropad_softmax_reference",
    "add_bias_split_heads_packed_qkv",
    "add_bias_split_heads_qkv",
    "add_bias_unpack_split_heads_qkv",
    "merge_heads",
    "pack_merge_heads",
    "split_heads",
]

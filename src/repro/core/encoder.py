"""BERT encoder layer pipelines — Figure 2 (a), (b) and (c).

One function per tensor layout:

* :func:`encoder_layer_padded` — the conventional padded pipeline.  With
  all fusion flags off it is the paper's *baseline* (Figure 2 (a));
  enabling ``fuse_layernorm``/``fuse_gelu`` yields Figure 2 (b).
* :func:`encoder_layer_packed` — the zero-padding pipeline (Figure 2 (c)):
  activations stay packed (``[T, H]``) through every GEMM and memory-bound
  op; the MHA either re-pads internally (batched-GEMM MHA with zero-padding
  softmax) or, with ``fused_mha``, never pads at all.

Kernel categories match the paper's profiling buckets (Figure 3): GEMM0 is
the QKV projection, ``attention`` the MHA block, GEMM1 the attention output
projection, GEMM2/GEMM3 the FFN, ``layernorm0``/``layernorm1`` the two
add-bias + layernorm groups, ``activation`` the add-bias + GELU group.
"""

from __future__ import annotations

import numpy as np

from repro.attention.dispatch import byte_mha
from repro.attention.unfused_cublas import unfused_cublas_mha
from repro.attention.zeropad_softmax_mha import zeropad_softmax_mha
from repro.core.config import BertConfig, OptimizationConfig
from repro.core.padding import PackedSeqs
from repro.core.weights import LayerWeights
from repro.gpusim.stream import ExecutionContext, resolve_context
from repro.kernels.activation import add_bias_gelu
from repro.kernels.batched_gemm import tile_gemm
from repro.kernels.gemm import gemm
from repro.kernels.grouped_gemm import SchedulerKind
from repro.kernels.layernorm import (
    add_bias_residual_layernorm,
    add_bias_residual_layernorm_unfused,
)


def _layernorm_block(
    x: np.ndarray,
    bias: np.ndarray,
    residual: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray,
    eps: float,
    fused: bool,
    category: str,
    ctx: ExecutionContext,
) -> np.ndarray:
    kernel = (
        add_bias_residual_layernorm
        if fused
        else add_bias_residual_layernorm_unfused
    )
    return kernel(
        x, bias, residual, gamma, beta, eps=eps, ctx=ctx, category=category
    )


def _ffn_block(
    x: np.ndarray,
    weights: LayerWeights,
    fuse_gelu: bool,
    ctx: ExecutionContext,
    segment_offsets: np.ndarray | None = None,
) -> np.ndarray:
    """GEMM2 + add-bias + GELU, fused into the epilogue or standalone.

    With ``segment_offsets`` (the packed pipeline), the up-projection is
    a single-call :func:`tile_gemm` over every segment of the buffer.
    """
    def up_gemm(**kwargs: object) -> np.ndarray:
        if segment_offsets is not None:
            return tile_gemm(
                x, weights.ffn_in_weight,
                segment_offsets=segment_offsets, **kwargs,
            )
        return gemm(x, weights.ffn_in_weight, **kwargs)

    if fuse_gelu:
        return up_gemm(
            bias=weights.ffn_in_bias,
            activation="gelu",
            ctx=ctx,
            name="gemm2_fused_bias_gelu",
            category="gemm2",
        )
    up = up_gemm(ctx=ctx, name="gemm2", category="gemm2")
    return add_bias_gelu(
        up, weights.ffn_in_bias, ctx=ctx, category="activation"
    )


def encoder_layer_padded(
    x: np.ndarray,
    weights: LayerWeights,
    config: BertConfig,
    opt: OptimizationConfig,
    mask: np.ndarray,
    *,
    ctx: ExecutionContext | None = None,
) -> np.ndarray:
    """One encoder layer on a padded ``[B*S, H]`` activation tensor.

    ``mask`` is the ``[B, S]`` validity mask; padded rows flow through the
    whole pipeline (the cost the zero-padding algorithm removes).
    """
    if opt.remove_padding:
        raise ValueError(
            "padded pipeline called with remove_padding; use "
            "encoder_layer_packed"
        )
    batch, seq_len = mask.shape
    if x.shape[0] != batch * seq_len:
        raise ValueError(
            f"{x.shape[0]} rows != batch {batch} * seq {seq_len}"
        )
    context = resolve_context(ctx)

    qkv = gemm(
        x, weights.qkv_weight, ctx=context, name="gemm0_qkv", category="gemm0"
    )
    attn = unfused_cublas_mha(
        qkv, weights.qkv_bias, batch, seq_len, config.num_heads, mask,
        ctx=context,
    )
    proj = gemm(
        attn,
        weights.attn_out_weight,
        ctx=context,
        name="gemm1_attn_out",
        category="gemm1",
    )
    ln0 = _layernorm_block(
        proj,
        weights.attn_out_bias,
        x,
        weights.ln0_gamma,
        weights.ln0_beta,
        config.layernorm_eps,
        opt.fuse_layernorm,
        "layernorm0",
        context,
    )
    ffn = _ffn_block(ln0, weights, opt.fuse_gelu, context)
    down = gemm(
        ffn,
        weights.ffn_out_weight,
        ctx=context,
        name="gemm3_ffn_out",
        category="gemm3",
    )
    return _layernorm_block(
        down,
        weights.ffn_out_bias,
        ln0,
        weights.ln1_gamma,
        weights.ln1_beta,
        config.layernorm_eps,
        opt.fuse_layernorm,
        "layernorm1",
        context,
    )


def encoder_layer_packed(
    x_packed: np.ndarray,
    weights: LayerWeights,
    config: BertConfig,
    opt: OptimizationConfig,
    packing: PackedSeqs,
    *,
    ctx: ExecutionContext | None = None,
) -> np.ndarray:
    """One encoder layer on a packed ``[T, H]`` activation tensor.

    Every projection (QKV, attention output, both FFN GEMMs) goes
    through :func:`repro.kernels.batched_gemm.tile_gemm`: one BLAS call
    covers all of ``packing``'s segments — whether that is a single
    request's buckets or a whole cross-request megabatch tile — rather
    than a call per segment.  Same launches, same bits, one dispatch.
    """
    if not opt.remove_padding:
        raise ValueError(
            "packed pipeline called without remove_padding; use "
            "encoder_layer_padded"
        )
    if x_packed.shape[0] != packing.total_tokens:
        raise ValueError(
            f"{x_packed.shape[0]} rows != packed total "
            f"{packing.total_tokens}"
        )
    context = resolve_context(ctx)
    offsets = packing.seq_offsets

    qkv = tile_gemm(
        x_packed,
        weights.qkv_weight,
        segment_offsets=offsets,
        ctx=context,
        name="gemm0_qkv",
        category="gemm0",
    )
    if opt.fused_mha:
        scheduler = (
            SchedulerKind.WARP_PREFETCH
            if opt.warp_prefetch_scheduler
            else SchedulerKind.PER_THREAD
        )
        attn = byte_mha(
            qkv,
            weights.qkv_bias,
            packing,
            config.num_heads,
            short_max_seq=opt.fused_mha_short_max_seq,
            scheduler=scheduler,
            ctx=context,
        )
    else:
        attn = zeropad_softmax_mha(
            qkv, weights.qkv_bias, packing, config.num_heads, ctx=context
        )
    proj = tile_gemm(
        attn,
        weights.attn_out_weight,
        segment_offsets=offsets,
        ctx=context,
        name="gemm1_attn_out",
        category="gemm1",
    )
    ln0 = _layernorm_block(
        proj,
        weights.attn_out_bias,
        x_packed,
        weights.ln0_gamma,
        weights.ln0_beta,
        config.layernorm_eps,
        opt.fuse_layernorm,
        "layernorm0",
        context,
    )
    ffn = _ffn_block(
        ln0, weights, opt.fuse_gelu, context, segment_offsets=offsets
    )
    down = tile_gemm(
        ffn,
        weights.ffn_out_weight,
        segment_offsets=offsets,
        ctx=context,
        name="gemm3_ffn_out",
        category="gemm3",
    )
    return _layernorm_block(
        down,
        weights.ffn_out_bias,
        ln0,
        weights.ln1_gamma,
        weights.ln1_beta,
        config.layernorm_eps,
        opt.fuse_layernorm,
        "layernorm1",
        context,
    )

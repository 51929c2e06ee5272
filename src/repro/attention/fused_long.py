"""Unpadded fused MHA for long sequences — grouped-GEMM FMHA (§III-E.2).

Three launches, regardless of batch and sequence composition:

1. **grouped GEMM** ``P_i = Q_i K_i^T`` over all ``batch x head`` attention
   units (variable ``len_i x len_i`` shapes — batched GEMM cannot do
   this).  The softmax *partial* reduction (per-row max and exp-sum over
   each 128-wide CTA tile, Figure 8) is fused into the epilogue; the bias
   add and ``1/sqrt(d)`` scale are fused into the operand loads.
2. a **lightweight full-reduction kernel** combining the partial
   statistics (measured at ~2% of fused-MHA time in the paper);
3. **grouped GEMM** ``O_i = softmax(P_i) V_i`` with the element-wise
   ``exp(x - max)/sum`` transform fused into the mainloop right after each
   A-fragment load (Algorithm III.2), so the transform's memory latency
   hides behind tensor-core math.

The intermediate matrix is written once and read once (vs four padded
passes for the unfused chain), and every FLOP is on a valid token.
"""

from __future__ import annotations

import math

import numpy as np

from repro.attention.bucketed import (
    LengthBucket,
    _bucket_qkv,
    _scatter_bucket,
    build_buckets,
)
from repro.core.padding import PackedSeqs
from repro.gpusim.memory import BYTES_PER_FP32
from repro.gpusim.stream import ExecutionContext, resolve_context
from repro.kernels.grouped_gemm import (
    GemmProblem,
    SchedulerKind,
    grouped_gemm_launch,
)
from repro.kernels.reduction import (
    EPILOGUE_TILE_N,
    apply_softmax_transform,
    full_reduce_stats,
    full_reduction_launch,
    partial_softmax_stats,
    partial_stats_flops,
    partial_stats_store_bytes,
)

#: sustained base efficiency of the FMHA grouped GEMMs (~25 TFLOPS on
#: attention shapes).  Far below plain CUTLASS grouped GEMM: head_size-64
#: reduction depth, the softmax partial reduction in the epilogue and the
#: element-wise transform in the mainloop all steal issue slots from the
#: tensor-core pipeline.  Calibrated so fused-vs-(cuBLAS+zero-padding)
#: lands near the paper's ~1.8x on long sequences.
FMHA_GROUPED_EFFICIENCY = 0.23


def fused_long_mha(
    qkv_packed: np.ndarray,
    qkv_bias: np.ndarray,
    packing: PackedSeqs,
    num_heads: int,
    *,
    scheduler: SchedulerKind = SchedulerKind.WARP_PREFETCH,
    ctx: ExecutionContext | None = None,
    category: str = "attention",
) -> np.ndarray:
    """Grouped-GEMM fused MHA on a packed ``[T, 3H]`` QKV tensor.

    Returns the packed ``[T, H]`` attention output.  Works for any
    sequence length; it is the dispatch target for ``max_seq_len`` beyond
    the short kernel's resource limit.
    """
    tokens, three_hidden = qkv_packed.shape
    if tokens != packing.total_tokens:
        raise ValueError(
            f"{tokens} packed rows != packing total {packing.total_tokens}"
        )
    if qkv_bias.shape != (three_hidden,):
        raise ValueError(f"bias shape {qkv_bias.shape} != ({three_hidden},)")
    hidden = three_hidden // 3
    if hidden % num_heads != 0:
        raise ValueError(f"hidden {hidden} not divisible by {num_heads} heads")
    head_size = hidden // num_heads
    context = resolve_context(ctx)
    scale = 1.0 / math.sqrt(head_size)

    seq_lens = [int(length) for length in packing.seq_lens]

    # the three cost descriptors depend only on the shape vector, one
    # attention unit per (batch, head) in batch-major order
    unit_lens = [length for length in seq_lens for _ in range(num_heads)]

    # ---- launch 1: grouped GEMM Q K^T with partial-reduction epilogue ----
    context.launch(
        grouped_gemm_launch(
            [GemmProblem(m=n, n=n, k=head_size) for n in unit_lens],
            context.device,
            scheduler=scheduler,
            name="fmha_grouped_qk",
            category=category,
            extra_bytes=partial_stats_store_bytes(seq_lens, num_heads),
            extra_flops=partial_stats_flops(seq_lens, num_heads),
            base_efficiency=FMHA_GROUPED_EFFICIENCY,
        )
    )
    # ---- launch 2: lightweight full reduction over the partials ----
    # the batched host path reduces each row in one pass, which equals
    # the two-phase partial/full reduction exactly (same math, fp64);
    # the modelled kernel is still the per-unit full reduction
    context.launch(
        full_reduction_launch(unit_lens, heads=1, category=category)
    )
    out = _bucketed_fused_long(
        qkv_packed, qkv_bias, packing, num_heads, head_size, scale
    )
    # ---- launch 3: grouped GEMM P V with mainloop softmax transform ----
    # per-unit epilogue sums are integers, so these closed forms equal a
    # per-unit float accumulation exactly
    sq_total = sum(length * length for length in seq_lens)
    context.launch(
        grouped_gemm_launch(
            [GemmProblem(m=n, n=head_size, k=n) for n in unit_lens],
            context.device,
            scheduler=scheduler,
            name="fmha_grouped_pv",
            category=category,
            extra_bytes=2.0 * num_heads * sum(seq_lens) * BYTES_PER_FP32,
            extra_flops=2.0 * num_heads * sq_total,
            base_efficiency=FMHA_GROUPED_EFFICIENCY,
        )
    )
    return out


def fused_long_reference(
    qkv_packed: np.ndarray,
    qkv_bias: np.ndarray,
    packing: PackedSeqs,
    num_heads: int,
) -> np.ndarray:
    """Per-``(batch, head)`` numerics of :func:`fused_long_mha`.

    Each unit runs the paper's two-phase softmax as written: scores,
    :func:`partial_softmax_stats` over 128-wide tiles,
    :func:`full_reduce_stats`, then :func:`apply_softmax_transform`
    and the P·V product.  Computes numbers only — no launch; the
    bucketed kernel path is checked against it (bit for bit with exact
    buckets).
    """
    hidden = qkv_packed.shape[1] // 3
    head_size = hidden // num_heads
    scale = 1.0 / math.sqrt(head_size)
    biased = qkv_packed + qkv_bias
    q_all = biased[:, :hidden]
    k_all = biased[:, hidden : 2 * hidden]
    v_all = biased[:, 2 * hidden :]
    out = np.empty((qkv_packed.shape[0], hidden), dtype=qkv_packed.dtype)
    for b in range(packing.batch):
        rows = packing.rows_of(b)
        for h in range(num_heads):
            cols = slice(h * head_size, (h + 1) * head_size)
            p = (q_all[rows, cols] @ k_all[rows, cols].T) * scale
            row_max, row_sum = full_reduce_stats(*partial_softmax_stats(p))
            probs = apply_softmax_transform(p, row_max, row_sum)
            out[rows, cols] = probs @ v_all[rows, cols]
    return out


def _bucketed_fused_long(
    qkv_packed: np.ndarray,
    qkv_bias: np.ndarray,
    packing: PackedSeqs,
    num_heads: int,
    head_size: int,
    scale: float,
) -> np.ndarray:
    """Batched numerics of the grouped-GEMM FMHA, one bucket at a time.

    :func:`fused_long_reference` runs its softmax transform and P·V
    product through the float64 partial-statistics arrays; this path
    mirrors that dtype flow (fp32 scores, fp64 transform + P·V) so the
    two agree to fp64 rounding, not merely 1e-6.
    """
    tokens = packing.total_tokens
    hidden = num_heads * head_size
    out = np.empty((tokens, hidden), dtype=qkv_packed.dtype)

    def run_bucket(bucket: LengthBucket) -> None:
        bsz, length = bucket.rows.shape
        q, kt, v = _bucket_qkv(
            qkv_packed, qkv_bias, bucket, num_heads, head_size
        )
        scores = np.matmul(q, kt)
        scores *= scale
        if bucket.valid is not None:
            np.copyto(
                scores,
                np.float32(-1e30),
                where=~bucket.valid[:, None, None, :],
            )
        # batched two-phase reduction (Figure 8): per-128-column-tile
        # partial max / exp-sum in fp32, combined with fp64 rescaling —
        # the same op sequence (and dtypes) as partial_softmax_stats +
        # full_reduce_stats run per unit, so it matches the reference
        # bitwise
        blocks = math.ceil(length / EPILOGUE_TILE_N)
        pmax = np.empty(scores.shape[:-1] + (blocks,))
        psum = np.empty_like(pmax)
        for blk in range(blocks):
            chunk = scores[
                ..., blk * EPILOGUE_TILE_N : (blk + 1) * EPILOGUE_TILE_N
            ]
            cmax = chunk.max(axis=-1)
            pmax[..., blk] = cmax
            psum[..., blk] = np.exp(chunk - cmax[..., None]).sum(axis=-1)
        row_max = pmax.max(axis=-1)
        rescale = np.exp(pmax - row_max[..., None])
        row_sum = (psum * rescale).sum(axis=-1)
        probs = np.exp(scores - row_max[..., None]) / row_sum[..., None]
        attn = np.matmul(probs, v.astype(np.float64))
        merged = attn.transpose(0, 2, 1, 3).reshape(bsz * length, hidden)
        _scatter_bucket(out, bucket, merged)

    # one call per bucket: each bucket's temporaries are freed before the
    # next bucket allocates its own, which bounds the peak at one bucket
    for bucket in build_buckets(packing):
        run_bucket(bucket)
    return out

"""Unpadded fused MHA for short sequences (Algorithm III.1).

One kernel for the whole attention: each CTA owns a ``split_seq_len``-row
tile of one (batch, head) attention unit, loads its Q tile and the unit's
full K and V into shared memory (bias add fused with the loads), computes
``Q K^T`` with tensor-core WMMA into a shared-memory logits buffer,
performs softmax with the whole row resident in registers, then computes
``P V`` and streams the result to global memory.

Because CTAs are only created for *valid* rows (the grid is derived from
the prefix-sum offsets, not from ``max_seq_len``), no padded work exists
anywhere.  The intermediate matrix never touches DRAM — that is the 6x
over standard PyTorch MHA.

Shared-memory/register pressure bounds the kernel to short sequences
(~384); :mod:`repro.attention.fused_long` takes over beyond that.
"""

from __future__ import annotations

import math

import numpy as np

from repro.attention.bucketed import bucketed_sdpa
from repro.core.padding import PackedSeqs
from repro.gpusim.kernel import ComputeUnit, KernelLaunch
from repro.gpusim.memory import BYTES_PER_ELEMENT, BYTES_PER_FP32
from repro.gpusim.stream import ExecutionContext, resolve_context
from repro.kernels.softmax import softmax_reference

#: shared-memory skew padding to avoid bank conflicts (halves), from the
#: paper's ``#define SKEW_HALF 8``
SKEW_HALF = 8
#: default CTA row-tile (the paper uses 32 or 48)
DEFAULT_SPLIT_SEQ_LEN = 32
#: largest max_seq_len the short kernel supports (register/smem bound)
SHORT_KERNEL_MAX_SEQ = 384
#: sustained WMMA efficiency of the hand-written kernel.  Calibrated to
#: the paper's measured speedups (fused ~1.3x over cuBLAS+zero-padding on
#: short sequences): ~19 TFLOPS effective — plausible for plain wmma
#: fragments with shared-memory phase barriers and no cp.async pipeline,
#: far below CUTLASS's ~220 TFLOPS on large GEMMs.
_WMMA_EFFICIENCY = 0.06


def short_kernel_shared_mem(max_seq_len: int, head_size: int, split_seq_len: int) -> int:
    """Bytes of shared memory Algorithm III.1 allocates per CTA.

    ``s_kv`` (re-used for K then V), ``s_query`` and ``s_logits``, all in
    halves with the skew padding.
    """
    skewed = head_size + SKEW_HALF
    s_kv = max_seq_len * skewed
    s_query = split_seq_len * skewed
    s_logits = split_seq_len * (max_seq_len + SKEW_HALF)
    return (s_kv + s_query + s_logits) * BYTES_PER_ELEMENT


def short_kernel_block_threads(max_seq_len: int, split_seq_len: int) -> int:
    """Threads per CTA: ``split_seq_len/16 * ceil(max_seq_len/16)`` warps,
    as the paper computes the warp count from the maximal sequence length,
    capped at the hardware's 1024-thread block limit."""
    warps = max(
        4, (split_seq_len // 16) * max(1, math.ceil(max_seq_len / 16))
    )
    return min(1024, warps * 32)


def short_kernel_registers(max_seq_len: int, block_threads: int) -> int:
    """Registers/thread for the softmax's register-resident logits row.

    The logits row is spread over a warp's lanes in halves, so pressure
    grows slowly with the sequence; the kernel is compiled with a launch
    bound that keeps at least one CTA resident, which caps the allocation
    at the register file divided by the block size.
    """
    wanted = 40 + max_seq_len // 16
    launch_bound = max(32, (65536 // block_threads // 8) * 8 - 8)
    return min(255, wanted, launch_bound)


def supports(
    max_seq_len: int,
    head_size: int,
    max_shared_mem_per_block: int = 163 * 1024,
) -> bool:
    """Whether the short kernel's resources fit this problem.

    ``max_shared_mem_per_block`` defaults to the A100's limit; pass the
    target device's limit so dispatch degrades correctly on smaller
    parts (a V100's 96 KiB cuts the supported length roughly in half).
    """
    if max_seq_len > SHORT_KERNEL_MAX_SEQ:
        return False
    smem = short_kernel_shared_mem(
        max_seq_len, head_size, DEFAULT_SPLIT_SEQ_LEN
    )
    return smem <= max_shared_mem_per_block


def fused_short_launch(
    seq_lens: np.ndarray,
    num_heads: int,
    head_size: int,
    *,
    split_seq_len: int = DEFAULT_SPLIT_SEQ_LEN,
    category: str = "attention",
    efficiency: float = _WMMA_EFFICIENCY,
    name: str = "fused_mha_short",
) -> KernelLaunch:
    """Cost descriptor of the short fused-MHA kernel for a length vector.

    ``efficiency`` allows modelling other vendors' fused-MHA kernels (e.g.
    the TensorRT plugin FasterTransformer uses) on the same structure.
    """
    lens = np.asarray(seq_lens, dtype=np.int64)
    max_len = int(lens.max())
    batch = lens.shape[0]
    hidden = num_heads * head_size
    tokens = int(lens.sum())

    # integer-exact reductions: identical to the per-length loop because
    # every addend is an integer representable in float64
    grid = int(num_heads * np.sum(-(-lens // split_seq_len)))
    sq = np.sum(lens * lens, dtype=np.int64)
    flops = float(num_heads) * (4.0 * float(sq) * head_size + 8.0 * float(sq))

    block_threads = short_kernel_block_threads(max_len, split_seq_len)
    return KernelLaunch(
        name=name,
        category=category,
        grid=grid,
        block_threads=block_threads,
        flops=flops,
        dram_bytes=tokens * hidden * BYTES_PER_ELEMENT
        + 3 * hidden * BYTES_PER_ELEMENT
        + (batch + 1) * BYTES_PER_FP32,
        hot_bytes=3.0 * tokens * hidden * BYTES_PER_ELEMENT,
        compute_unit=ComputeUnit.TENSOR_FP16,
        compute_efficiency=efficiency,
        shared_mem_per_block=short_kernel_shared_mem(
            max_len, head_size, split_seq_len
        ),
        regs_per_thread=short_kernel_registers(max_len, block_threads),
    )


def fused_short_mha(
    qkv_packed: np.ndarray,
    qkv_bias: np.ndarray,
    packing: PackedSeqs,
    num_heads: int,
    *,
    split_seq_len: int = DEFAULT_SPLIT_SEQ_LEN,
    ctx: ExecutionContext | None = None,
    category: str = "attention",
) -> np.ndarray:
    """Single-kernel padding-free MHA for short sequences.

    Takes the packed ``[T, 3H]`` QKV tensor (bias *not* yet added — the
    kernel fuses the bias with its shared-memory loads), returns the
    packed ``[T, H]`` attention output.
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
    max_len = int(packing.seq_lens.max())
    if not supports(max_len, head_size):
        raise ValueError(
            f"short fused MHA does not support max_seq_len {max_len} "
            f"(limit {SHORT_KERNEL_MAX_SEQ})"
        )
    if split_seq_len <= 0:
        raise ValueError(f"split_seq_len must be positive, got {split_seq_len}")

    out = bucketed_sdpa(
        qkv_packed, qkv_bias, packing, num_heads,
        scale=1.0 / math.sqrt(head_size),
    )

    # DRAM traffic (in the descriptor): packed Q, K, V read once (K/V tile
    # re-reads are served by L2 at these sizes), packed output written
    # once, plus the bias vectors and offsets
    resolve_context(ctx).launch(
        fused_short_launch(
            packing.seq_lens,
            num_heads,
            head_size,
            split_seq_len=split_seq_len,
            category=category,
        )
    )
    return out


def fused_short_reference(
    qkv_packed: np.ndarray,
    qkv_bias: np.ndarray,
    packing: PackedSeqs,
    num_heads: int,
) -> np.ndarray:
    """Per-``(batch, head)`` numerics of :func:`fused_short_mha`.

    One Python iteration per attention unit, as the kernel's grid covers
    only valid rows (CTAs per {head, valid-seq-tile, batch}, never from
    ``max_seq_len``).  Computes numbers only — no launch; the bucketed
    kernel path is checked against it (bit for bit with exact buckets).
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
            logits = (q_all[rows, cols] @ k_all[rows, cols].T) * scale
            out[rows, cols] = softmax_reference(logits) @ v_all[rows, cols]
    return out

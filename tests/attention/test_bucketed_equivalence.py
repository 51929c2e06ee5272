"""Bucketed attention kernels against their per-unit references.

Each padding-free attention kernel runs length-bucketed batched matmuls
on the host; its numbers must match the plain per-``(batch, head)``
(or per-sentence) reference function next to it: ``atol=1e-6`` on every
length mix, and bit for bit with the default exact-length buckets.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.attention.bucketed import bucketed_sdpa, build_buckets
from repro.attention.fused_long import fused_long_mha, fused_long_reference
from repro.attention.fused_short import fused_short_mha, fused_short_reference
from repro.core.config import FUSED_MHA, STEPWISE_PRESETS, BertConfig
from repro.core.estimator import estimate_model
from repro.core.model import BertEncoderModel
from repro.core.padding import packing_from_lengths
from repro.gpusim.stream import ExecutionContext
from repro.kernels.grouped_gemm import grouped_gemm
from repro.kernels.softmax import zeropad_softmax, zeropad_softmax_reference
from repro.workloads.generator import make_batch

MAX_SEQ = 48
NUM_HEADS = 4
HEAD_SIZE = 16
HIDDEN = NUM_HEADS * HEAD_SIZE

# Length mixes the bucketing must survive: random draws from three
# distributions, plus the degenerate shapes (one bucket, all-singleton
# buckets, batch of one, a length-1 sentence).
LENGTH_CASES = {
    "uniform": [31, 7, 44, 18, 25, 12],
    "normal": [22, 27, 24, 30, 19, 26, 23],
    "zipf": [1, 1, 2, 3, 1, 9, 2, 48],
    "all_equal": [24, 24, 24, 24],
    "all_distinct": [5, 12, 19, 26, 33, 40, 47],
    "batch_of_one": [37],
    "length_one": [1, 48, 16],
}


def _make_case(lengths, seed=0):
    packing = packing_from_lengths(
        np.asarray(lengths, dtype=np.int64), MAX_SEQ, cache=None
    )
    rng = np.random.default_rng(seed)
    qkv = rng.standard_normal(
        (packing.total_tokens, 3 * HIDDEN), dtype=np.float32
    )
    bias = rng.standard_normal(3 * HIDDEN, dtype=np.float32)
    return packing, qkv, bias


def _mha_pair(kernel, reference):
    def run(packing, qkv, bias):
        return (
            kernel(qkv.copy(), bias, packing, NUM_HEADS),
            reference(qkv.copy(), bias, packing, NUM_HEADS),
        )

    return run


def _zeropad_softmax_pair(packing, qkv, bias):
    """The zeropad MHA's only bucketed step: its padding-free softmax,
    on padded ``[B, H, S, S]`` scores with garbage in the padding."""
    rng = np.random.default_rng(packing.total_tokens)
    scores = rng.standard_normal(
        (packing.batch, NUM_HEADS, MAX_SEQ, MAX_SEQ), dtype=np.float32
    )
    lens = list(packing.seq_lens)
    return zeropad_softmax(scores, lens), zeropad_softmax_reference(
        scores, lens
    )


VARIANTS = {
    "fused_short": _mha_pair(fused_short_mha, fused_short_reference),
    "zeropad_softmax": _zeropad_softmax_pair,
    "fused_long": _mha_pair(fused_long_mha, fused_long_reference),
}


@pytest.mark.parametrize("case", sorted(LENGTH_CASES))
@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_matches_reference(variant, case):
    """Same outputs as the per-unit reference (atol 1e-6)."""
    packing, qkv, bias = _make_case(LENGTH_CASES[case])
    out, ref = VARIANTS[variant](packing, qkv, bias)
    np.testing.assert_allclose(out, ref, rtol=0, atol=1e-6)


@pytest.mark.parametrize("variant", sorted(VARIANTS))
def test_exact_buckets_are_bitwise(variant):
    """bucket_step=1 reproduces the reference bit for bit, not just closely."""
    packing, qkv, bias = _make_case(LENGTH_CASES["uniform"], seed=3)
    out, ref = VARIANTS[variant](packing, qkv, bias)
    assert np.array_equal(out, ref)


@pytest.mark.parametrize("step", [8, 32, 64])
def test_quantized_buckets_match_exact(step):
    """Padded+masked quantized buckets agree with exact buckets 1e-6."""
    packing, qkv, bias = _make_case(LENGTH_CASES["zipf"], seed=5)
    exact = bucketed_sdpa(qkv, bias, packing, NUM_HEADS, bucket_step=1)
    quant = bucketed_sdpa(qkv, bias, packing, NUM_HEADS, bucket_step=step)
    np.testing.assert_allclose(quant, exact, rtol=0, atol=1e-6)
    # quantization reduces the bucket count to the distinct rounded keys
    n_quant = len(build_buckets(packing, step))
    n_exact = len(build_buckets(packing, 1))
    assert n_quant <= n_exact


def test_grouped_gemm_matches_per_problem_products(rng):
    """Shape-bucketed batched matmul == per-problem products, one launch."""
    shapes = [(9, 13, 7), (9, 13, 7), (4, 4, 4), (9, 13, 7), (17, 3, 5)]
    a_list = [rng.standard_normal((m, k)).astype(np.float32) for m, _, k in shapes]
    b_list = [rng.standard_normal((k, n)).astype(np.float32) for _, n, k in shapes]
    ctx = ExecutionContext()
    outs = grouped_gemm(a_list, b_list, ctx=ctx)
    for a, b, out in zip(a_list, b_list, outs):
        np.testing.assert_allclose(out, a @ b, rtol=0, atol=1e-6)
    assert ctx.kernel_count() == 1


def test_grouped_gemm_transpose_b(rng):
    a = [rng.standard_normal((6, 8)).astype(np.float32) for _ in range(3)]
    b = [rng.standard_normal((5, 8)).astype(np.float32) for _ in range(3)]
    outs = grouped_gemm(a, b, transpose_b=True)
    for ai, bi, oi in zip(a, b, outs):
        np.testing.assert_allclose(oi, ai @ bi.T, rtol=0, atol=1e-5)


FULL_MODEL_PRESETS = {
    **{p.label: p for p in STEPWISE_PRESETS},
    # every sentence through the grouped-GEMM long kernel
    "forced long": dataclasses.replace(FUSED_MHA, fused_mha_short_max_seq=1),
}


@pytest.mark.parametrize("label", ["rm padding", "fused MHA", "forced long"])
def test_full_model_launch_stream_identity(label):
    """End to end: the forward launches the estimator's chain record for
    record, and its bits match each sentence run alone — bucket
    composition never changes a value."""
    preset = FULL_MODEL_PRESETS[label]
    config = BertConfig(num_heads=NUM_HEADS, head_size=HEAD_SIZE, num_layers=2)
    data = make_batch(5, MAX_SEQ, config.hidden_size, alpha=0.6, seed=11)
    model = BertEncoderModel(config, preset, seed=2)
    ctx = ExecutionContext()
    out = model.forward(data.x, data.mask, ctx=ctx)
    names = {r.launch.name for r in ctx.records}
    assert ("fmha_grouped_qk" in names) == (label == "forced long")
    estimated = ExecutionContext()
    estimate_model(estimated, config, preset, data.seq_lens, MAX_SEQ)
    assert [(r.launch, r.time_us, r.start_us) for r in ctx.records] == [
        (r.launch, r.time_us, r.start_us) for r in estimated.records
    ]
    for b, length in enumerate(data.seq_lens):
        alone = model.forward(
            data.x[b : b + 1, :length], data.mask[b : b + 1, :length]
        )
        assert np.array_equal(alone[0], out[b, :length])

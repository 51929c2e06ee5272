"""Two-phase softmax reduction (Figure 8) — the heart of the long FMHA."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels.reduction import (
    apply_softmax_transform,
    full_reduce_stats,
    full_reduction_launch,
    partial_softmax_stats,
    partial_stats_flops,
    partial_stats_store_bytes,
)
from repro.kernels.softmax import softmax_reference


class TestTwoPhaseReduction:
    def test_equals_direct_reduction(self, rng):
        scores = rng.normal(size=(10, 300))
        pmax, psum = partial_softmax_stats(scores, tile_n=128)
        row_max, row_sum = full_reduce_stats(pmax, psum)
        np.testing.assert_allclose(row_max, scores.max(axis=1), rtol=1e-12)
        direct_sum = np.exp(scores - scores.max(axis=1, keepdims=True)).sum(
            axis=1
        )
        np.testing.assert_allclose(row_sum, direct_sum, rtol=1e-12)

    def test_partial_block_count(self, rng):
        scores = rng.normal(size=(4, 257))
        pmax, psum = partial_softmax_stats(scores, tile_n=128)
        assert pmax.shape == (4, 3)  # ceil(257/128)
        assert psum.shape == (4, 3)

    def test_single_block_degenerates(self, rng):
        scores = rng.normal(size=(5, 64))
        pmax, psum = partial_softmax_stats(scores, tile_n=128)
        assert pmax.shape == (5, 1)
        row_max, row_sum = full_reduce_stats(pmax, psum)
        np.testing.assert_allclose(row_max, scores.max(axis=1))

    def test_rescaling_matters(self):
        """Blocks with very different maxima: naive sum of partial sums
        would be wrong; the exp-rescaling fixes it."""
        scores = np.array([[0.0, 0.0, 100.0, 100.0]])
        pmax, psum = partial_softmax_stats(scores, tile_n=2)
        _, row_sum = full_reduce_stats(pmax, psum)
        direct = np.exp(scores - 100.0).sum()
        np.testing.assert_allclose(row_sum, [direct], rtol=1e-12)
        # the unrescaled sum would have been 4.0 (2 per block)
        assert not np.isclose(psum.sum(), direct)

    @given(
        rows=st.integers(1, 8),
        cols=st.integers(1, 200),
        tile=st.sampled_from([16, 64, 128]),
    )
    @settings(max_examples=40, deadline=None)
    def test_property_any_tiling_matches_direct(self, rows, cols, tile):
        rng = np.random.default_rng(rows * 1000 + cols)
        scores = rng.normal(size=(rows, cols)) * 5
        row_max, row_sum = full_reduce_stats(
            *partial_softmax_stats(scores, tile_n=tile)
        )
        np.testing.assert_allclose(row_max, scores.max(axis=1), rtol=1e-12)
        np.testing.assert_allclose(
            row_sum,
            np.exp(scores - scores.max(axis=1, keepdims=True)).sum(axis=1),
            rtol=1e-10,
        )


class TestTransform:
    def test_transform_completes_softmax(self, rng):
        scores = rng.normal(size=(6, 150))
        row_max, row_sum = full_reduce_stats(
            *partial_softmax_stats(scores)
        )
        probs = apply_softmax_transform(scores, row_max, row_sum)
        np.testing.assert_allclose(
            probs, softmax_reference(scores), rtol=1e-12
        )

    def test_shape_mismatch_rejected(self, rng):
        scores = rng.normal(size=(4, 8))
        with pytest.raises(ValueError, match="stat shapes"):
            apply_softmax_transform(scores, np.zeros(3), np.ones(3))


class TestFullReductionKernel:
    def test_lightweight_relative_to_partials(self):
        """The full reduction touches ~seq/128 fewer elements than the
        score matrix — the basis of the paper's ~2% claim."""
        lens = [512] * 16
        launch = full_reduction_launch(lens, heads=12)
        score_elems = sum(12 * length * length for length in lens)
        assert launch.flops < 0.05 * score_elems

    def test_store_bytes_scale_with_blocks(self):
        short = partial_stats_store_bytes([128], heads=1)
        long = partial_stats_store_bytes([1024], heads=1)
        # 1024 has 8 blocks of 128 -> 8x rows x 8 blocks = 64x
        assert long == pytest.approx(64 * short)

    def test_epilogue_flops_quadratic(self):
        assert partial_stats_flops([256], 1) == pytest.approx(
            4 * partial_stats_flops([128], 1)
        )

    def test_partial_requires_2d(self, rng):
        with pytest.raises(ValueError, match=r"\[m, n\]"):
            partial_softmax_stats(rng.normal(size=(4,)))

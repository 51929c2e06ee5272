"""Softmax kernels: numerics, masking, the zero-padding variant."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpusim import ExecutionContext
from repro.kernels.softmax import (
    MASK_VALUE,
    add_mask,
    masked_softmax,
    scale_scores,
    softmax,
    softmax_reference,
    zeropad_softmax,
    zeropad_softmax_launch,
)

finite_rows = st.lists(
    st.lists(st.floats(-30, 30), min_size=2, max_size=12),
    min_size=1,
    max_size=8,
).filter(lambda rows: len({len(r) for r in rows}) == 1)


class TestReference:
    def test_rows_sum_to_one(self, rng):
        x = rng.normal(size=(6, 10))
        np.testing.assert_allclose(
            softmax_reference(x).sum(axis=-1), 1.0, rtol=1e-12
        )

    def test_matches_scipy(self, rng):
        scipy_special = pytest.importorskip("scipy.special")
        scipy_softmax = scipy_special.softmax

        x = rng.normal(size=(4, 7))
        np.testing.assert_allclose(
            softmax_reference(x), scipy_softmax(x, axis=-1), rtol=1e-12
        )

    def test_shift_invariance(self, rng):
        x = rng.normal(size=(3, 5))
        np.testing.assert_allclose(
            softmax_reference(x), softmax_reference(x + 100.0), rtol=1e-10
        )

    def test_numerically_stable_for_large_values(self):
        x = np.array([[1000.0, 1000.0, -1000.0]])
        out = softmax_reference(x)
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out[0, :2], 0.5, rtol=1e-12)

    @given(rows=finite_rows)
    @settings(max_examples=30, deadline=None)
    def test_output_is_probability_distribution(self, rows):
        x = np.asarray(rows, dtype=np.float64)
        out = softmax_reference(x)
        assert (out >= 0).all()
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, rtol=1e-9)


class TestKernels:
    def test_softmax_kernel_matches_reference(self, rng):
        x = rng.normal(size=(2, 3, 8))
        np.testing.assert_array_equal(softmax(x), softmax_reference(x))

    def test_scale_scores(self, rng):
        x = rng.normal(size=(2, 4, 4))
        np.testing.assert_allclose(scale_scores(x, 0.125), x * 0.125)

    def test_add_mask_pushes_invalid_down(self, rng):
        x = rng.normal(size=(1, 1, 2, 4))
        mask = np.array([[1.0, 1.0, 0.0, 0.0]])[:, None, None, :]
        out = add_mask(x, mask)
        np.testing.assert_array_equal(out[..., :2], x[..., :2])
        np.testing.assert_allclose(out[..., 2:], x[..., 2:] + MASK_VALUE)

    def test_masked_softmax_suppresses_padding(self, rng):
        x = rng.normal(size=(1, 1, 3, 5))
        mask = np.zeros((1, 1, 1, 5))
        mask[..., :3] = 1.0
        probs = masked_softmax(x, mask)
        assert probs[..., 3:].max() < 1e-4
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, rtol=1e-6)

    def test_each_kernel_records_one_launch(self, rng):
        x = rng.normal(size=(2, 4, 8))
        for fn in (
            lambda c: softmax(x, ctx=c),
            lambda c: scale_scores(x, 0.5, ctx=c),
        ):
            ctx = ExecutionContext()
            fn(ctx)
            assert ctx.kernel_count() == 1


class TestZeropadSoftmax:
    def make_scores(self, rng, batch=3, heads=2, max_len=8):
        return rng.normal(size=(batch, heads, max_len, max_len))

    def test_valid_region_matches_reference(self, rng):
        scores = self.make_scores(rng)
        lens = [3, 8, 5]
        out = zeropad_softmax(scores, lens)
        for b, length in enumerate(lens):
            np.testing.assert_allclose(
                out[b, :, :length, :length],
                softmax_reference(scores[b, :, :length, :length]),
                rtol=1e-12,
            )

    def test_padding_region_zeroed(self, rng):
        scores = self.make_scores(rng)
        out = zeropad_softmax(scores, [3, 8, 5])
        assert (out[0, :, 3:, :] == 0).all()
        assert (out[0, :, :, 3:] == 0).all()

    def test_agrees_with_masked_softmax_on_valid_rows(self, rng):
        scores = self.make_scores(rng)
        lens = [4, 6, 8]
        mask = np.zeros((3, 8))
        for b, length in enumerate(lens):
            mask[b, :length] = 1
        dense = masked_softmax(scores, mask[:, None, None, :])
        packed = zeropad_softmax(scores, lens)
        for b, length in enumerate(lens):
            np.testing.assert_allclose(
                packed[b, :, :length, :length],
                dense[b, :, :length, :length],
                rtol=1e-6,
                atol=1e-9,
            )

    def test_traffic_scales_with_valid_tokens(self):
        full = zeropad_softmax_launch([8, 8, 8], heads=2)
        partial = zeropad_softmax_launch([4, 4, 4], heads=2)
        assert partial.dram_bytes < full.dram_bytes
        assert partial.flops == pytest.approx(full.flops / 4)

    def test_non_square_rejected(self, rng):
        with pytest.raises(ValueError, match="square"):
            zeropad_softmax(rng.normal(size=(1, 1, 4, 5)), [4])

    def test_length_out_of_range(self, rng):
        with pytest.raises(ValueError, match="out of range"):
            zeropad_softmax(rng.normal(size=(1, 1, 4, 4)), [5])

    def test_length_count_mismatch(self, rng):
        with pytest.raises(ValueError, match="lengths"):
            zeropad_softmax(rng.normal(size=(2, 1, 4, 4)), [4])

    def test_3d_input_rejected(self, rng):
        with pytest.raises(ValueError, match=r"\[B, H, S, S\]"):
            zeropad_softmax(rng.normal(size=(2, 4, 4)), [4, 4])

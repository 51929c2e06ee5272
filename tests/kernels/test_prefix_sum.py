"""Warp-level prefix sum: the kernel behind the zero-padding algorithm."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpusim import ExecutionContext
from repro.kernels.prefix_sum import (
    WARP_SIZE,
    mask_prefix_sum,
    warp_inclusive_scan,
    warp_scan_sequence,
)


class TestWarpScan:
    def test_matches_cumsum(self, rng):
        lanes = rng.integers(0, 10, size=WARP_SIZE)
        np.testing.assert_array_equal(
            warp_inclusive_scan(lanes), np.cumsum(lanes)
        )

    def test_all_ones(self):
        out = warp_inclusive_scan(np.ones(WARP_SIZE, dtype=np.int64))
        np.testing.assert_array_equal(out, np.arange(1, WARP_SIZE + 1))

    def test_wrong_width_rejected(self):
        with pytest.raises(ValueError, match="lanes"):
            warp_inclusive_scan(np.ones(16, dtype=np.int64))

    @given(
        lanes=st.lists(
            st.integers(0, 1000), min_size=WARP_SIZE, max_size=WARP_SIZE
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_property_equals_cumsum(self, lanes):
        arr = np.asarray(lanes, dtype=np.int64)
        np.testing.assert_array_equal(
            warp_inclusive_scan(arr), np.cumsum(arr)
        )


class TestSequenceScan:
    @pytest.mark.parametrize("n", [1, 31, 32, 33, 64, 100, 257])
    def test_arbitrary_lengths(self, n, rng):
        tokens = rng.integers(0, 5, size=n)
        np.testing.assert_array_equal(
            warp_scan_sequence(tokens), np.cumsum(tokens)
        )

    def test_carry_across_chunks(self):
        tokens = np.ones(3 * WARP_SIZE + 7, dtype=np.int64)
        out = warp_scan_sequence(tokens)
        np.testing.assert_array_equal(out, np.arange(1, len(tokens) + 1))

    def test_requires_1d(self, rng):
        with pytest.raises(ValueError, match="1-D"):
            warp_scan_sequence(rng.integers(0, 2, size=(4, 4)))

    @given(
        tokens=st.lists(st.integers(0, 1), min_size=1, max_size=200)
    )
    @settings(max_examples=50, deadline=None)
    def test_property_binary_masks(self, tokens):
        arr = np.asarray(tokens, dtype=np.int64)
        np.testing.assert_array_equal(
            warp_scan_sequence(arr), np.cumsum(arr)
        )


class TestMaskPrefixSum:
    def test_per_sentence_scan(self):
        mask = np.array([[1, 1, 0, 0], [1, 1, 1, 1], [1, 0, 0, 0]])
        out = mask_prefix_sum(mask)
        np.testing.assert_array_equal(
            out, np.cumsum(mask, axis=1)
        )

    def test_matches_per_sentence_warp_scan(self):
        """The whole-mask cumsum equals one warp scan per sentence,
        across warp-chunk boundaries."""
        lengths = [70, 0, 33, 32, 1, 64]
        mask = (np.arange(70) < np.array(lengths)[:, None]).astype(np.int64)
        np.testing.assert_array_equal(
            mask_prefix_sum(mask),
            np.stack([warp_scan_sequence(row) for row in mask]),
        )

    def test_final_column_is_length(self):
        mask = np.array([[1, 1, 1, 0, 0], [1, 1, 1, 1, 1]])
        out = mask_prefix_sum(mask)
        np.testing.assert_array_equal(out[:, -1], [3, 5])

    def test_records_one_launch(self):
        ctx = ExecutionContext()
        mask_prefix_sum(np.ones((4, 8), dtype=np.int64), ctx=ctx)
        assert ctx.kernel_count() == 1

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError, match="0s and 1s"):
            mask_prefix_sum(np.array([[2, 1]]))

    def test_rejects_1d(self):
        with pytest.raises(ValueError, match=r"\[B, S\]"):
            mask_prefix_sum(np.ones(8, dtype=np.int64))

"""The zero-padding algorithm: PackedSeqs and its construction paths."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.padding import (
    EmptySegmentError,
    PackedSeqs,
    TileOverflowError,
    merge_request_lengths,
    pack,
    pack_segments,
    packing_from_lengths,
    packing_from_mask,
    scatter_segments,
    unpack,
)
from repro.gpusim import ExecutionContext

lengths_strategy = st.lists(st.integers(1, 16), min_size=1, max_size=8)


def mask_from_lengths(lens, max_len):
    mask = np.zeros((len(lens), max_len), dtype=np.int64)
    for b, length in enumerate(lens):
        mask[b, :length] = 1
    return mask


class TestConstruction:
    def test_from_mask_matches_from_lengths(self):
        lens = [3, 5, 1]
        via_mask = packing_from_mask(mask_from_lengths(lens, 5))
        via_lens = packing_from_lengths(lens, 5)
        np.testing.assert_array_equal(via_mask.seq_lens, via_lens.seq_lens)
        np.testing.assert_array_equal(
            via_mask.gather_idx, via_lens.gather_idx
        )
        np.testing.assert_array_equal(
            via_mask.seq_offsets, via_lens.seq_offsets
        )

    def test_figure4_example(self):
        """The paper's Figure 4: sentences of 5, 2 and 4 words."""
        packing = packing_from_lengths([5, 2, 4], 5)
        assert packing.total_tokens == 11
        np.testing.assert_array_equal(packing.seq_offsets, [0, 5, 7, 11])
        # sentence 1's tokens sit at packed rows 5..6, from padded rows 5..6
        np.testing.assert_array_equal(packing.gather_idx[5:7], [5, 6])

    def test_interior_padding_rejected(self):
        mask = np.array([[1, 0, 1, 0]])
        with pytest.raises(ValueError, match="interior padding"):
            packing_from_mask(mask)

    def test_empty_sentence_rejected(self):
        with pytest.raises(ValueError, match="valid token"):
            packing_from_mask(np.array([[1, 1], [0, 0]]))

    def test_length_bounds(self):
        with pytest.raises(ValueError, match="lengths"):
            packing_from_lengths([5], max_seq_len=4)
        with pytest.raises(ValueError, match="lengths"):
            packing_from_lengths([0], max_seq_len=4)

    def test_mask_records_prefix_sum_kernel(self):
        ctx = ExecutionContext()
        packing_from_mask(mask_from_lengths([2, 3], 4), ctx=ctx)
        assert ctx.kernel_count() == 1
        assert ctx.records[0].launch.name == "mask_prefix_sum"


class TestProperties:
    @given(lens=lengths_strategy)
    @settings(max_examples=50, deadline=None)
    def test_invariants(self, lens):
        max_len = max(lens)
        packing = packing_from_lengths(lens, max_len)
        assert packing.total_tokens == sum(lens)
        assert 0 < packing.fill_ratio <= 1.0
        # gather indices strictly increasing within each sentence
        for b in range(len(lens)):
            rows = packing.gather_idx[packing.rows_of(b)]
            assert (np.diff(rows) == 1).all()

    @given(lens=lengths_strategy)
    @settings(max_examples=50, deadline=None)
    def test_mask_roundtrip(self, lens):
        max_len = max(lens)
        packing = packing_from_lengths(lens, max_len)
        np.testing.assert_array_equal(
            packing.to_mask(), mask_from_lengths(lens, max_len)
        )

    @given(lens=lengths_strategy, hidden=st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_pack_unpack_roundtrip(self, lens, hidden):
        rng = np.random.default_rng(sum(lens))
        max_len = max(lens)
        packing = packing_from_lengths(lens, max_len)
        x = rng.normal(size=(len(lens), max_len, hidden))
        x *= packing.to_mask()[:, :, None]

        packed = pack(x, packing)
        assert packed.shape == (packing.total_tokens, hidden)
        restored = unpack(packed, packing)
        np.testing.assert_array_equal(
            restored.reshape(x.shape), x
        )

    def test_fill_ratio_full_batch(self):
        packing = packing_from_lengths([4, 4], 4)
        assert packing.fill_ratio == 1.0


class TestPackUnpackValidation:
    def test_pack_layout_mismatch(self, rng):
        packing = packing_from_lengths([2, 3], 4)
        with pytest.raises(ValueError, match="layout"):
            pack(rng.normal(size=(3, 4, 8)), packing)

    def test_pack_2d_rows_mismatch(self, rng):
        packing = packing_from_lengths([2, 3], 4)
        with pytest.raises(ValueError, match="rows"):
            pack(rng.normal(size=(7, 8)), packing)

    def test_unpack_rows_mismatch(self, rng):
        packing = packing_from_lengths([2, 3], 4)
        with pytest.raises(ValueError, match="expected"):
            unpack(rng.normal(size=(4, 8)), packing)

    def test_packedseqs_validation(self):
        with pytest.raises(ValueError, match="gather_idx"):
            PackedSeqs(
                batch=1,
                max_seq_len=4,
                seq_lens=np.array([2]),
                seq_offsets=np.array([0, 2]),
                gather_idx=np.array([0]),
            )


class TestCrossRequestPacking:
    """The megabatch merge path: merge_request_lengths / pack_segments /
    scatter_segments and the edge cases continuous batching exposes."""

    def test_merge_layout(self):
        mega = merge_request_lengths(np.array([3, 5, 2]), 8, 16)
        assert mega.tile == 16
        assert mega.total_tokens == 10
        assert mega.pad_tokens == 6
        assert mega.num_segments == 3
        np.testing.assert_array_equal(
            mega.segment_offsets, [0, 3, 8, 10]
        )

    def test_pack_scatter_roundtrip(self, rng):
        lens = np.array([3, 5, 2])
        mega = merge_request_lengths(lens, 8, 16)
        segs = [rng.normal(size=(int(l), 4)) for l in lens]
        tile = pack_segments(segs, mega)
        assert tile.shape == (16, 4)
        # quantization tail zero-padded inside the packed buffer only
        assert not tile[mega.total_tokens :].any()
        for seg, back in zip(segs, scatter_segments(tile, mega)):
            np.testing.assert_array_equal(seg, back)

    def test_scatter_returns_views(self, rng):
        mega = merge_request_lengths(np.array([2, 2]), 4, 8)
        tile = pack_segments(
            [rng.normal(size=(2, 4)) for _ in range(2)], mega
        )
        for view in scatter_segments(tile, mega):
            assert np.shares_memory(view, tile)

    def test_zero_valid_token_request_typed_error(self):
        with pytest.raises(EmptySegmentError, match="request 1"):
            merge_request_lengths(np.array([3, 0, 2]), 8, 16)

    def test_request_larger_than_tile_typed_error(self):
        with pytest.raises(TileOverflowError, match="16-token tile"):
            merge_request_lengths(np.array([9, 9]), 16, 16)
        # the typed errors are ValueErrors, so CLI error handling applies
        assert issubclass(TileOverflowError, ValueError)
        assert issubclass(EmptySegmentError, ValueError)

    def test_exact_tile_no_quantization_padding(self):
        # all requests the same length, tile exactly full
        mega = merge_request_lengths(np.array([4, 4, 4, 4]), 4, 16)
        assert mega.pad_tokens == 0
        assert mega.total_tokens == mega.tile

    def test_pack_segments_validates_segments(self, rng):
        mega = merge_request_lengths(np.array([2, 3]), 4, 8)
        with pytest.raises(ValueError, match="segment tensors"):
            pack_segments([rng.normal(size=(2, 4))], mega)
        with pytest.raises(ValueError, match="rows"):
            pack_segments(
                [rng.normal(size=(2, 4)), rng.normal(size=(4, 4))], mega
            )

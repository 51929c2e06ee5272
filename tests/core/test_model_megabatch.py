"""Cross-request megabatch forward: bitwise oracle, isolation, graphs.

The continuous-batching tentpole rides on ``forward_packed``: many
requests merged into one tile buffer must compute exactly the bits each
request would get alone and price the tile's canonical launch chain, so
one launch graph per tile serves every composition.
"""

import numpy as np
import pytest

from repro.core.config import FUSED_MHA, BertConfig
from repro.core.estimator import estimate_model_tiled
from repro.core.model import BertEncoderModel
from repro.core.padding import (
    merge_request_lengths,
    pack_segments,
    scatter_segments,
)
from repro.gpusim import ExecutionContext
from repro.gpusim.graph import GraphCache

MAX_SEQ = 16
TILE = 64


@pytest.fixture()
def model(small_config, small_weights):
    return BertEncoderModel(small_config, FUSED_MHA, weights=small_weights)


def make_megabatch(small_config, rng, lens):
    mega = merge_request_lengths(
        np.asarray(lens, dtype=np.int64), MAX_SEQ, TILE
    )
    segments = [
        rng.normal(size=(length, small_config.hidden_size))
        for length in lens
    ]
    return segments, mega, pack_segments(segments, mega)


def looped_oracle(model, segments):
    """What each request computes when served alone (padded, mask=1)."""
    return [
        model.forward(
            segment[np.newaxis],
            np.ones((1, segment.shape[0]), dtype=np.int64),
        )[0]
        for segment in segments
    ]


def vectorized_oracle(model, segments):
    """What each request computes in one ordinary padded batch."""
    lens = [segment.shape[0] for segment in segments]
    x = np.zeros((len(segments), max(lens), segments[0].shape[1]))
    mask = np.zeros(x.shape[:2], dtype=np.int64)
    for b, segment in enumerate(segments):
        x[b, : lens[b]] = segment
        mask[b, : lens[b]] = 1
    out = model.forward(x, mask)
    return [out[b, :length] for b, length in enumerate(lens)]


ORACLES = {"looped": looped_oracle, "vectorized": vectorized_oracle}


class TestBitwiseOracle:
    @pytest.mark.parametrize("oracle", sorted(ORACLES))
    def test_scatter_back_matches_looped_single_request(
        self, model, small_config, rng, oracle
    ):
        segments, mega, x_tile = make_megabatch(
            small_config, rng, [5, 12, 3, 8]
        )
        outs = [
            out.copy()
            for out in scatter_segments(
                model.forward_packed(x_tile, mega), mega
            )
        ]
        expected = ORACLES[oracle](model, segments)
        for out, want in zip(outs, expected):
            np.testing.assert_array_equal(out, want)

    def test_quantization_tail_zeroed(self, model, small_config, rng):
        _, mega, x_tile = make_megabatch(small_config, rng, [5, 12, 3])
        # garbage in the tail must not leak into (or survive in) the output
        x_tile[mega.total_tokens :] = 123.0
        out = model.forward_packed(x_tile, mega)
        assert not out[mega.total_tokens :].any()

    def test_no_cross_request_leakage(self, model, small_config, rng):
        # perturbing one request must not change any *other* request's
        # bits — attention is windowed to per-request segments
        lens = [5, 12, 3, 8]
        segments, mega, x_tile = make_megabatch(small_config, rng, lens)
        baseline = scatter_segments(
            model.forward_packed(x_tile, mega).copy(), mega
        )
        perturbed = [s.copy() for s in segments]
        perturbed[1] = perturbed[1] + 10.0
        out = scatter_segments(
            model.forward_packed(pack_segments(perturbed, mega), mega), mega
        )
        for i in (0, 2, 3):
            np.testing.assert_array_equal(out[i], baseline[i])
        assert not np.array_equal(out[1], baseline[1])


class TestTileGraphReuse:
    def test_one_capture_then_replays_across_compositions(
        self, small_config, rng
    ):
        # every composition of one tile prices the tile's canonical
        # chain, so one captured graph serves them all
        cache = GraphCache()
        ctx = ExecutionContext()
        for lens in ([5, 12, 3, 8], [16, 16, 16, 16], [1, 1], [30]):
            lens = [min(length, MAX_SEQ) for length in lens]
            _, mega, _ = make_megabatch(small_config, rng, lens)
            estimate_model_tiled(
                ctx, small_config, FUSED_MHA, mega.tile, MAX_SEQ, cache=cache
            )
        counts = cache.kind_counts()["tile"]
        assert counts == {"captures": 1, "replays": 3}

    def test_forward_packed_records_the_tiled_chain(
        self, model, small_config, rng
    ):
        _, mega, x_tile = make_megabatch(small_config, rng, [5, 12, 3, 8])
        ctx = ExecutionContext()
        model.forward_packed(x_tile, mega, ctx=ctx)
        priced = ExecutionContext()
        estimate_model_tiled(
            priced, small_config, FUSED_MHA, mega.tile, MAX_SEQ
        )
        assert [
            (r.launch.name, r.start_us, r.time_us) for r in ctx.records
        ] == [(r.launch.name, r.start_us, r.time_us) for r in priced.records]
        assert ctx.elapsed_us() == priced.elapsed_us()

    def test_validation(self, small_config, small_weights, rng):
        padded = BertEncoderModel(small_config, weights=small_weights)
        _, mega, x_tile = make_megabatch(small_config, rng, [5, 3])
        with pytest.raises(ValueError, match="remove_padding"):
            padded.forward_packed(x_tile, mega)
        packed = BertEncoderModel(
            small_config, FUSED_MHA, weights=small_weights
        )
        with pytest.raises(ValueError, match="tile buffer"):
            packed.forward_packed(x_tile[:-1], mega)

"""partition_weighted: contiguous, weight-balanced, deterministic cuts."""

import numpy as np

from repro.core.parallel import partition_weighted


class TestPartitionWeighted:
    def test_covers_range_contiguously(self):
        parts = partition_weighted([3, 1, 4, 1, 5, 9, 2, 6], 3)
        assert parts[0][0] == 0 and parts[-1][1] == 8
        assert all(
            parts[i][1] == parts[i + 1][0] for i in range(len(parts) - 1)
        )
        assert all(end > start for start, end in parts)

    def test_balances_by_weight(self):
        # one huge item up front: it gets a chunk to itself
        parts = partition_weighted([100, 1, 1, 1, 1, 1], 3)
        assert parts[0] == (0, 1)

    def test_never_more_parts_than_items(self):
        assert partition_weighted([1.0, 2.0], 5) == [(0, 1), (1, 2)]

    def test_single_part_and_empty(self):
        assert partition_weighted([1, 2, 3], 1) == [(0, 3)]
        assert partition_weighted([], 4) == []

    def test_deterministic(self):
        w = np.arange(1, 40) % 7 + 1
        assert partition_weighted(w, 4) == partition_weighted(list(w), 4)

    def test_quadratic_mode_matches_squared_weights(self):
        lens = [32] + [8] * 12
        got = partition_weighted(lens, 2, quadratic=True)
        squared = partition_weighted([l * l for l in lens], 2)
        assert got == squared
        # by Σlen² the long sequence alone outweighs the rest combined
        # (32² > 12·8²), while by raw tokens it is only a quarter of the
        # total — quadratic mode must isolate it, linear must not
        assert got[0] == (0, 1)
        assert partition_weighted(lens, 2)[0] != (0, 1)

    def test_quadratic_balance_bound_on_zipf_lengths(self):
        # property: every chunk's Σlen² is within max(len²) of the ideal
        # total/parts share, for Zipf-mixed length profiles (the serving
        # traffic shape) across seeds and part counts
        rng = np.random.default_rng(7)
        for seed in range(8):
            lens = np.minimum(
                rng.zipf(1.3, size=96).astype(np.int64) * 8, 512
            )
            for parts in (2, 4, 8):
                chunks = partition_weighted(lens, parts, quadratic=True)
                work = np.asarray(
                    [float(np.sum(lens[s:e] ** 2)) for s, e in chunks]
                )
                ideal = float(np.sum(lens.astype(np.float64) ** 2)) / len(
                    chunks
                )
                bound = float(np.max(lens.astype(np.float64) ** 2))
                assert np.max(work) <= ideal + bound + 1e-6
                assert np.min(work) >= ideal - bound - 1e-6

"""Paged KV arena: block tables, eviction/resume, a fixed block pool."""

import numpy as np
import pytest

from repro.decoder.paged_kv import (
    DEFAULT_KV_BLOCK_TOKENS,
    KVPressureError,
    PagedKVArena,
)

HIDDEN = 32


def rows(rng, n):
    return rng.normal(size=(n, HIDDEN)), rng.normal(size=(n, HIDDEN))


class TestPool:
    def test_capacity_rounds_up_to_whole_blocks(self):
        arena = PagedKVArena(HIDDEN, 50, block_tokens=16)
        assert arena.num_blocks == 4
        assert arena.capacity_tokens == 64

    def test_default_block_size(self):
        arena = PagedKVArena(HIDDEN, 64)
        assert arena.block_tokens == DEFAULT_KV_BLOCK_TOKENS

    def test_full_churn_returns_every_block(self, rng):
        arena = PagedKVArena(HIDDEN, 64, block_tokens=8)
        for cycle in range(3):
            for rid in range(4):
                arena.append_rows(rid, *rows(rng, 13))
            for rid in range(4):
                arena.free(rid)
        assert arena.free_blocks == arena.num_blocks

    def test_block_handout_is_deterministic_lifo(self, rng):
        a = PagedKVArena(HIDDEN, 64, block_tokens=8)
        b = PagedKVArena(HIDDEN, 64, block_tokens=8)
        for arena in (a, b):
            arena.append_rows(7, *rows(rng, 10))
            arena.append_rows(9, *rows(rng, 3))
        assert a.block_table(7) == b.block_table(7) == (0, 1)
        assert a.block_table(9) == b.block_table(9) == (2,)

    def test_blocks_needed(self, rng):
        arena = PagedKVArena(HIDDEN, 64, block_tokens=8)
        assert arena.blocks_needed(0, 9) == 2
        arena.append_rows(0, *rows(rng, 9))
        # 7 more tokens fit the half-full second block
        assert arena.blocks_needed(0, 7) == 0
        assert arena.blocks_needed(0, 8) == 1
        with pytest.raises(ValueError, match=">= 0"):
            arena.blocks_needed(0, -1)

    def test_occupancy_counts_only_valid_slots(self, rng):
        arena = PagedKVArena(HIDDEN, 64, block_tokens=8)
        assert arena.occupancy == 1.0  # empty pool: vacuously dense
        arena.append_rows(0, *rows(rng, 12))  # 2 blocks, 4 tail slots idle
        assert arena.occupancy == pytest.approx(12 / 16)
        assert arena.live_tokens == 12
        assert arena.live_blocks == 2


class TestGather:
    def test_gathered_is_bitwise_append_order(self, rng):
        arena = PagedKVArena(HIDDEN, 64, block_tokens=8)
        k1, v1 = rows(rng, 11)
        k2, v2 = rows(rng, 1)
        arena.append_rows(0, k1, v1)
        arena.append_rows(0, k2, v2)
        keys, values = arena.gathered(0)
        np.testing.assert_array_equal(keys, np.concatenate([k1, k2]))
        np.testing.assert_array_equal(values, np.concatenate([v1, v2]))

    def test_interleaved_requests_stay_isolated(self, rng):
        arena = PagedKVArena(HIDDEN, 128, block_tokens=8)
        streams = {rid: rows(rng, 5 + rid) for rid in range(3)}
        for step in range(3):
            for rid, (k, v) in streams.items():
                arena.append_rows(rid, k[step : step + 1], v[step : step + 1])
        for rid, (k, v) in streams.items():
            keys, values = arena.gathered(rid)
            np.testing.assert_array_equal(keys, k[:3])
            np.testing.assert_array_equal(values, v[:3])

    def test_unknown_request_raises(self):
        arena = PagedKVArena(HIDDEN, 64)
        with pytest.raises(KeyError, match="no KV blocks"):
            arena.gathered(42)
        with pytest.raises(KeyError, match="no KV blocks"):
            arena.context_len(42)


class TestPressure:
    def test_exhausted_pool_raises_not_allocates(self, rng):
        arena = PagedKVArena(HIDDEN, 32, block_tokens=8)
        arena.append_rows(0, *rows(rng, 32))
        with pytest.raises(KVPressureError, match="free"):
            arena.append_rows(1, *rows(rng, 1))

    def test_swap_out_then_in_is_bitwise(self, rng):
        arena = PagedKVArena(HIDDEN, 64, block_tokens=8)
        k, v = rows(rng, 13)
        arena.append_rows(0, k, v)
        assert arena.swap_out(0) == 13
        assert arena.is_swapped(0)
        assert not arena.has(0)
        assert arena.free_blocks == arena.num_blocks
        assert arena.swap_in(0) == 13
        keys, values = arena.gathered(0)
        np.testing.assert_array_equal(keys, k)
        np.testing.assert_array_equal(values, v)
        assert arena.evictions == 1
        assert arena.swap_ins == 1

    def test_append_to_swapped_request_raises(self, rng):
        arena = PagedKVArena(HIDDEN, 64, block_tokens=8)
        arena.append_rows(0, *rows(rng, 4))
        arena.swap_out(0)
        with pytest.raises(KVPressureError, match="swapped out"):
            arena.append_rows(0, *rows(rng, 1))

    def test_swap_in_without_room_raises(self, rng):
        arena = PagedKVArena(HIDDEN, 32, block_tokens=8)
        arena.append_rows(0, *rows(rng, 16))
        arena.swap_out(0)
        arena.append_rows(1, *rows(rng, 32))
        with pytest.raises(KVPressureError, match="swap_in"):
            arena.swap_in(0)
        # the host copy survives the refused restore
        assert arena.is_swapped(0)

    def test_swap_in_unknown_raises(self):
        arena = PagedKVArena(HIDDEN, 32)
        with pytest.raises(KeyError, match="not swapped out"):
            arena.swap_in(5)

    def test_free_returns_blocks_and_drops_swapped_copy(self, rng):
        arena = PagedKVArena(HIDDEN, 64, block_tokens=8)
        arena.append_rows(0, *rows(rng, 10))
        arena.swap_out(0)
        arena.free(0)  # finished while swapped out
        assert not arena.is_swapped(0)
        assert arena.free_blocks == arena.num_blocks


class TestAccounting:
    def test_modelled_bytes_are_fp16_blocks(self, rng):
        arena = PagedKVArena(HIDDEN, 64, block_tokens=8)
        arena.append_rows(0, *rows(rng, 9))  # 2 live blocks
        assert arena.live_bytes == 2 * 8 * 2 * HIDDEN * 2
        arena.free(0)
        assert arena.live_bytes == 0
        assert arena.peak_live_bytes == 2 * 8 * 2 * HIDDEN * 2

    def test_shape_validation(self, rng):
        arena = PagedKVArena(HIDDEN, 32)
        k, v = rows(rng, 2)
        with pytest.raises(ValueError, match="key rows"):
            arena.append_rows(0, k[:, :8], v[:, :8])
        with pytest.raises(ValueError, match="must match"):
            arena.append_rows(0, k, v[:1])

"""PackingCache behavior and the loop-free metadata builders."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.padding import (
    PackingCache,
    default_packing_cache,
    packing_from_lengths,
    packing_from_mask,
    packing_from_mask_reference,
)
from repro.gpusim.stream import NullContext


def _mask(lengths, max_seq_len):
    lens = np.asarray(lengths, dtype=np.int64)
    return (
        np.arange(max_seq_len)[None, :] < lens[:, None]
    ).astype(np.int64)


def test_cache_hit_returns_same_instance():
    cache = PackingCache()
    a = packing_from_lengths([3, 7, 2], 8, cache=cache)
    b = packing_from_lengths([3, 7, 2], 8, cache=cache)
    assert a is b
    assert cache.hits == 1 and cache.misses == 1


def test_cache_distinguishes_max_seq_len():
    cache = PackingCache()
    a = packing_from_lengths([3, 7, 2], 8, cache=cache)
    b = packing_from_lengths([3, 7, 2], 16, cache=cache)
    assert a is not b
    assert cache.misses == 2


def test_cache_eviction_at_capacity():
    cache = PackingCache(capacity=2)
    packing_from_lengths([1], 4, cache=cache)
    packing_from_lengths([2], 4, cache=cache)
    packing_from_lengths([3], 4, cache=cache)  # evicts [1]
    assert len(cache) == 2
    packing_from_lengths([1], 4, cache=cache)  # rebuilt, not a hit
    assert cache.hits == 0 and cache.misses == 4


def test_cache_lru_order():
    cache = PackingCache(capacity=2)
    packing_from_lengths([1], 4, cache=cache)
    packing_from_lengths([2], 4, cache=cache)
    packing_from_lengths([1], 4, cache=cache)  # refresh [1]
    packing_from_lengths([3], 4, cache=cache)  # evicts [2], not [1]
    packing_from_lengths([1], 4, cache=cache)
    assert cache.hits == 2


def test_cached_arrays_are_read_only():
    cache = PackingCache()
    packing = packing_from_lengths([3, 5], 8, cache=cache)
    for arr in (packing.seq_lens, packing.seq_offsets, packing.gather_idx):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 99


def test_cache_copies_caller_lengths():
    cache = PackingCache()
    lens = np.array([3, 5], dtype=np.int64)
    packing = packing_from_lengths(lens, 8, cache=cache)
    lens[0] = 1  # caller mutates its array after the call
    assert packing.seq_lens[0] == 3
    hit = packing_from_lengths([3, 5], 8, cache=cache)
    assert hit is packing


def test_cache_none_bypasses():
    a = packing_from_lengths([3, 7], 8, cache=None)
    b = packing_from_lengths([3, 7], 8, cache=None)
    assert a is not b
    assert a.seq_lens.flags.writeable


def test_default_cache_is_used():
    default = default_packing_cache()
    hits = default.hits
    packing_from_lengths([6, 2, 6], 8)
    packing_from_lengths([6, 2, 6], 8)
    assert default.hits > hits


def test_clear_resets_stats():
    cache = PackingCache()
    packing_from_lengths([4], 8, cache=cache)
    packing_from_lengths([4], 8, cache=cache)
    cache.clear()
    assert len(cache) == 0 and cache.hits == 0 and cache.misses == 0


def test_no_copy_for_int64_arrays():
    lens = np.array([3, 7, 2], dtype=np.int64)
    packing = packing_from_lengths(lens, 8, cache=None)
    assert packing.seq_lens is lens  # used as-is, no intermediate copy


def test_loop_free_matches_naive_construction():
    lengths = [5, 1, 8, 3, 6]
    packing = packing_from_lengths(lengths, 8, cache=None)
    offsets = [0]
    gather = []
    for b, length in enumerate(lengths):
        offsets.append(offsets[-1] + length)
        gather.extend(b * 8 + s for s in range(length))
    np.testing.assert_array_equal(packing.seq_offsets, offsets)
    np.testing.assert_array_equal(packing.gather_idx, gather)


def test_to_mask_round_trip():
    lengths = [5, 1, 8, 3]
    mask = _mask(lengths, 8)
    packing = packing_from_mask(mask, ctx=NullContext(), cache=None)
    np.testing.assert_array_equal(packing.to_mask(), mask)


#: the two mask -> packing builders: the seed's per-sentence warp-scan
#: loop and the loop-free builder the serving path runs
BUILDERS = {
    "looped": packing_from_mask_reference,
    "vectorized": lambda mask: packing_from_mask(
        mask, ctx=NullContext(), cache=None
    ),
}


@pytest.mark.parametrize("builder", sorted(BUILDERS))
def test_interior_padding_rejected(builder):
    mask = _mask([5, 4, 6], 8)
    mask[1, 1] = 0  # hole inside sentence 1
    with pytest.raises(ValueError, match="interior padding"):
        BUILDERS[builder](mask)


@pytest.mark.parametrize("builder", sorted(BUILDERS))
def test_mask_packing_engine_equivalence(builder):
    """Both builders derive the same lengths, offsets and gather rows."""
    mask = _mask([5, 1, 8, 3, 6], 8)
    packing = BUILDERS[builder](mask)
    np.testing.assert_array_equal(packing.seq_lens, [5, 1, 8, 3, 6])
    np.testing.assert_array_equal(
        packing.seq_offsets, [0, 5, 6, 14, 17, 23]
    )
    np.testing.assert_array_equal(
        packing.gather_idx, np.flatnonzero(mask.reshape(-1))
    )


def test_packing_from_mask_uses_cache():
    cache = PackingCache()
    mask = _mask([4, 2], 8)
    a = packing_from_mask(mask, ctx=NullContext(), cache=cache)
    b = packing_from_mask(mask, ctx=NullContext(), cache=cache)
    assert a is b
    assert cache.hits == 1


def test_cache_rejects_bad_capacity():
    with pytest.raises(ValueError):
        PackingCache(capacity=0)


def test_lru_eviction_counts_and_drops_oldest():
    cache = PackingCache(capacity=2)
    packing_from_lengths([1, 2], 8, cache=cache)
    packing_from_lengths([3, 4], 8, cache=cache)
    packing_from_lengths([1, 2], 8, cache=cache)  # refresh: [3, 4] is LRU
    packing_from_lengths([5, 6], 8, cache=cache)  # evicts [3, 4]
    assert cache.evictions == 1
    assert len(cache) == 2
    packing_from_lengths([3, 4], 8, cache=cache)  # rebuilt, not a hit
    assert cache.hits == 1 and cache.misses == 4


def test_clear_resets_eviction_counter():
    cache = PackingCache(capacity=1)
    packing_from_lengths([1, 2], 8, cache=cache)
    packing_from_lengths([3, 4], 8, cache=cache)
    assert cache.evictions == 1
    cache.clear()
    assert cache.evictions == 0 and len(cache) == 0

"""Activation-memory planner: traces, peak accounting, arena allocator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import BASELINE, FUSED_MHA, RM_PADDING, BertConfig
from repro.core.memory_planner import (
    ActivationTrace,
    ArenaAllocator,
    memory_report,
    peak_live_bytes,
    trace_encoder_layer,
    trace_model,
)

CFG = BertConfig(num_layers=2)


def lens(*values):
    return np.asarray(values, dtype=np.int64)


class TestTrace:
    def test_alloc_free_balance(self):
        t = ActivationTrace()
        t.alloc("a", 100)
        t.alloc("b", 50)
        assert t.live_bytes == 150
        t.free("a")
        assert t.live_bytes == 50
        t.free_all()
        assert t.live_bytes == 0

    def test_double_alloc_rejected(self):
        t = ActivationTrace()
        t.alloc("a", 10)
        with pytest.raises(ValueError, match="already live"):
            t.alloc("a", 10)

    def test_free_unknown_rejected(self):
        with pytest.raises(ValueError, match="not live"):
            ActivationTrace().free("ghost")

    def test_zero_alloc_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            ActivationTrace().alloc("a", 0)

    def test_peak_simple(self):
        t = ActivationTrace()
        t.alloc("a", 100)
        t.alloc("b", 200)
        t.free("a")
        t.alloc("c", 50)
        t.free_all()
        assert peak_live_bytes(t) == 300

    def test_leaky_trace_rejected(self):
        t = ActivationTrace()
        t.alloc("a", 10)
        with pytest.raises(ValueError, match="leaks"):
            peak_live_bytes(t)


class TestArenaAllocator:
    def test_reuses_freed_space(self):
        arena = ArenaAllocator(alignment=1)
        arena.allocate("a", 100)
        arena.release("a")
        p = arena.allocate("b", 100)
        assert p.offset == 0
        assert arena.arena_bytes == 100

    def test_best_fit_prefers_tight_chunk(self):
        arena = ArenaAllocator(alignment=1)
        arena.allocate("big", 300)
        arena.allocate("keep1", 60)  # separates the two future holes
        arena.allocate("small", 50)
        arena.allocate("keep2", 10)
        arena.release("big")
        arena.release("small")
        # 40-byte request fits both holes; best fit picks the 50-byte one
        p = arena.allocate("x", 40)
        assert p.offset == 360

    def test_coalescing(self):
        arena = ArenaAllocator(alignment=1)
        arena.allocate("a", 64)
        arena.allocate("b", 64)
        arena.allocate("c", 1)
        arena.release("a")
        arena.release("b")
        # the two adjacent holes coalesce into one 128-byte chunk
        p = arena.allocate("big", 128)
        assert p.offset == 0

    def test_alignment(self):
        arena = ArenaAllocator(alignment=256)
        arena.allocate("a", 10)
        p = arena.allocate("b", 10)
        assert p.offset % 256 == 0

    def test_release_unknown_rejected(self):
        with pytest.raises(ValueError, match="not placed"):
            ArenaAllocator().release("ghost")

    @given(
        ops=st.lists(
            st.tuples(st.integers(1, 1000), st.booleans()),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_no_live_overlap_property(self, ops):
        """Live placements never overlap, and the arena is at least the
        peak live footprint (with alignment slack)."""
        arena = ArenaAllocator(alignment=1)
        live = {}
        counter = 0
        for size, release_one in ops:
            if release_one and live:
                name = next(iter(live))
                arena.release(name)
                del live[name]
            else:
                name = f"t{counter}"
                counter += 1
                live[name] = size
                arena.allocate(name, size)
            placements = arena.live_placements()
            for a, b in zip(placements, placements[1:]):
                assert a.end <= b.offset
        assert arena.arena_bytes >= sum(live.values())


class TestPipelineTraces:
    def test_padded_peak_dominated_by_scores(self):
        workload = lens(500, 600, 512, 640)
        trace = trace_encoder_layer(CFG, BASELINE, workload, 640)
        peak = peak_live_bytes(trace)
        score_bytes = 4 * CFG.num_heads * 640 * 640 * 2
        assert peak > score_bytes  # scores plus the live operands

    def test_packed_fused_short_never_materialises_scores(self):
        workload = lens(100, 120, 90)
        trace = trace_encoder_layer(CFG, FUSED_MHA, workload, 128)
        names = {e.tensor for e in trace if e.bytes > 0}
        assert not any("scores" in n for n in names)

    def test_packed_fused_long_has_packed_scores(self):
        workload = lens(500, 600, 512)
        trace = trace_encoder_layer(CFG, FUSED_MHA, workload, 640)
        allocs = {e.tensor: e.bytes for e in trace if e.bytes > 0}
        score_key = next(n for n in allocs if "scores" in n)
        expected = int((workload.astype(np.int64) ** 2).sum()) * CFG.num_heads * 2
        assert allocs[score_key] == expected

    def test_fused_uses_less_memory_than_baseline(self):
        workload = lens(150, 200, 180, 256)
        base = memory_report(CFG, BASELINE, workload, 256)
        fused = memory_report(CFG, FUSED_MHA, workload, 256)
        assert fused.peak_bytes < base.peak_bytes
        assert fused.arena_bytes < base.arena_bytes

    def test_packing_alone_already_helps(self):
        workload = lens(150, 200, 180, 256)
        base = memory_report(CFG, BASELINE, workload, 256)
        packed = memory_report(CFG, RM_PADDING, workload, 256)
        assert packed.peak_bytes < base.peak_bytes

    def test_arena_at_least_peak(self):
        workload = lens(64, 100, 80)
        for opt in (BASELINE, RM_PADDING, FUSED_MHA):
            trace = trace_model(CFG, opt, workload, 128)
            peak = peak_live_bytes(trace)
            arena = ArenaAllocator().replay(
                trace_model(CFG, opt, workload, 128)
            )
            assert arena >= peak * 0.99

    def test_model_trace_balances(self):
        workload = lens(64, 100, 80)
        trace = trace_model(CFG, FUSED_MHA, workload, 128)
        assert peak_live_bytes(trace) > 0  # raises if unbalanced

    def test_layers_share_arena(self):
        """Layer activations are freed layer by layer, so the arena for 2
        layers is far below 2x one layer's."""
        workload = lens(128, 100, 110)
        one = BertConfig(num_layers=1)
        two = BertConfig(num_layers=2)
        arena_one = ArenaAllocator().replay(
            trace_model(one, BASELINE, workload, 128)
        )
        arena_two = ArenaAllocator().replay(
            trace_model(two, BASELINE, workload, 128)
        )
        assert arena_two < 1.3 * arena_one

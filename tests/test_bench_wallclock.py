"""Schema and sanity of the wall-clock benchmark harness (quick shape)."""

from __future__ import annotations

import json

import pytest

from repro.bench.wallclock import (
    QUICK_OVERRIDES,
    check_invariants,
    check_warnings,
    format_summary,
    run_wallclock_bench,
    write_bench_json,
)


@pytest.fixture(scope="module")
def result():
    return run_wallclock_bench(**QUICK_OVERRIDES)


def test_required_schema_keys(result):
    for key in (
        "config",
        "wall_us",
        "modelled_us",
        "sections",
        "invariants",
        "notes",
    ):
        assert key in result, key


def test_config_section(result):
    config = result["config"]
    for key in (
        "batch",
        "max_seq_len",
        "alpha",
        "layers",
        "preset",
        "repeats",
        "seed",
        "hidden_size",
        "num_heads",
        "total_tokens",
    ):
        assert key in config, key
    assert config["batch"] == QUICK_OVERRIDES["batch"]
    assert config["max_seq_len"] == QUICK_OVERRIDES["max_seq_len"]
    assert config["layers"] == QUICK_OVERRIDES["layers"]


def test_timings_positive(result):
    assert result["wall_us"] > 0
    assert result["modelled_us"] > 0
    assert result["sections"]["forward"]["wall_us"] == result["wall_us"]
    packing = result["sections"]["packing"]
    for key in (
        "reference_loop_us",
        "vectorized_build_us",
        "cache_hit_us",
        "speedup_vs_reference",
        "speedup_cache_hit",
    ):
        assert packing[key] > 0, key


def test_invariants_hold(result):
    inv = result["invariants"]
    assert inv["kernel_count"] > 0
    # one launch path: no second stream or modelled time to compare
    for key in (
        "outputs_match_atol_1e-6",
        "launch_streams_identical",
        "modelled_us_looped",
        "modelled_us_vectorized",
    ):
        assert key not in inv, key


def test_attention_section_present_for_fused_preset(result):
    attention = result["sections"]["attention"]
    assert attention["wall_us"] > 0
    assert attention["reference_wall_us"] > 0
    assert attention["outputs_match_atol_1e-6"] is True
    assert attention["max_abs_diff"] <= 1e-6


def test_attention_output_gate_fails_check(result):
    broken = json.loads(json.dumps(result))  # deep copy
    attention = broken["sections"]["attention"]
    attention["outputs_match_atol_1e-6"] = False
    attention["max_abs_diff"] = 3e-3
    failures = check_invariants(broken)
    assert any("byte_mha diverges" in f for f in failures)


def test_graph_replay_section(result):
    graph = result["sections"]["graph_replay"]
    assert graph["eager_us"] > 0
    assert graph["capture_us"] > 0
    assert graph["replay_us"] > 0
    assert graph["speedup_vs_eager"] > 1.0  # replay must beat eager pricing
    assert "steady_state_forward" not in graph
    inv = result["invariants"]
    assert inv["graph_modelled_us_equal"] is True
    assert inv["graph_streams_identical"] is True
    # the model-level arena and graph cache are gone, and so are their
    # steady-state audit and invariants
    assert "steady_state_alloc" not in result["sections"]
    assert not [key for key in inv if key.startswith("steady_")]


def test_cache_stats_reported(result):
    stats = {s["name"]: s for s in result["cache_stats"]}
    for name in ("packing", "estimator_graphs"):
        assert name in stats, name
        assert stats[name]["misses"] >= 1
    # the bench exercises every cache's hit path
    assert stats["estimator_graphs"]["hits"] >= 1


def test_check_invariants_passes_and_detects_breakage(result):
    assert check_invariants(result) == []
    broken = json.loads(json.dumps(result))  # deep copy
    broken["invariants"]["graph_streams_identical"] = False
    broken["invariants"]["graph_modelled_us_equal"] = False
    failures = check_invariants(broken)
    assert any("stream" in f for f in failures)
    assert any("changed modelled_us" in f for f in failures)


def test_json_round_trip(result, tmp_path):
    path = write_bench_json(result, tmp_path / "bench.json")
    loaded = json.loads(path.read_text())
    assert loaded["config"]["preset"] == result["config"]["preset"]
    assert loaded["wall_us"] == pytest.approx(result["wall_us"])


def test_summary_renders(result):
    text = format_summary(result)
    assert "wall-clock bench" in text
    assert "invariants" in text


def test_unknown_preset_rejected():
    with pytest.raises(ValueError, match="unknown preset"):
        run_wallclock_bench(preset="nope", **QUICK_OVERRIDES)


def test_continuous_serving_section(result):
    serving = result["sections"]["continuous_serving"]
    for key in (
        "trace",
        "token_budget",
        "baseline",
        "continuous",
        "speedup_vs_reference",
        "floor",
        "hit_rate_floor",
    ):
        assert key in serving, key
    for run in (serving["baseline"], serving["continuous"]):
        assert run["gpu_busy_us"] > 0
        assert run["served_tokens"] > 0
        assert run["us_per_token"] > 0
        assert 0.0 <= run["steady_hit_rate"] <= 1.0
    # acceptance gates: steady-state tile graphs replay, and merged
    # megabatches price no worse per token than bucketed dispatches
    assert serving["continuous"]["steady_hit_rate"] >= serving["hit_rate_floor"]
    assert serving["speedup_vs_reference"] >= serving["floor"]
    tile = serving["continuous"]["graph_kinds"].get("tile", {})
    assert tile.get("replays", 0) >= 1


def test_floor_fields_present(result):
    # the forward has no reference to be faster than
    assert "floor" not in result["sections"]["forward"]
    assert result["sections"]["attention"]["floor"] == 1.0
    assert result["sections"]["attention"]["wall_clock_floor"] is True


def test_floor_breach_fails_only_on_modelled_clock_sections(result):
    # continuous_serving's speedup is a modelled-clock metric
    # (deterministic), so its floor is a hard --check gate
    broken = json.loads(json.dumps(result))  # deep copy
    broken["sections"]["continuous_serving"]["speedup_vs_reference"] = 0.5
    failures = check_invariants(broken)
    assert any("continuous_serving" in f and "floor" in f for f in failures)
    # attention is a noisy wall-clock measurement: its breach warns but
    # never fails
    warned = json.loads(json.dumps(result))
    warned["sections"]["attention"]["speedup_vs_reference"] = 0.5
    assert not any("attention" in f for f in check_invariants(warned))
    warnings = check_warnings(warned)
    assert any("attention" in w and "wall-clock" in w for w in warnings)


def test_hit_rate_breach_fails(result):
    broken = json.loads(json.dumps(result))
    broken["sections"]["continuous_serving"]["continuous"][
        "steady_hit_rate"
    ] = 0.1
    failures = check_invariants(broken)
    assert any("hit rate" in f for f in failures)


def test_summary_mentions_serving(result):
    assert "serving" in format_summary(result)


def test_no_host_fan_out_section(result):
    assert "host_parallel" not in result["sections"]
    assert "workers" not in result["config"]


def test_sharded_serving_section(result):
    sharded = result["sections"]["sharded_serving"]
    points = sharded["scaling"]["points"]
    assert [p["devices"] for p in points] == [2, 4, 8]
    for point in points:
        assert point["served"] == 384
        # dp floors are hard: the modelled clock is deterministic
        assert point["speedup_vs_single_device"] >= point["floor"]
    assert points[-1]["floor"] == 6.5  # the 8-device acceptance bar
    for name, leg in sharded["bitwise"].items():
        assert leg["served"] > 0, name
        assert leg["outputs_bitwise_equal"] is True, name
    chaos_leg = sharded["bitwise"]["tp_collective_chaos"]
    assert chaos_leg["collective_faults_injected"] >= 1
    rows = sharded["crossover"]["rows"]
    assert rows and all(0.0 < r["comm_fraction"] < 1.0 for r in rows)
    # at a fixed tile, more tensor-parallel ranks shift the balance
    # toward communication: more all-reduce hops, less compute per rank
    for tile in {r["tile"] for r in rows}:
        fracs = [r["comm_fraction"] for r in rows if r["tile"] == tile]
        assert fracs == sorted(fracs)


def test_sharded_floor_breach_fails_check(result):
    broken = json.loads(json.dumps(result))  # deep copy
    point = broken["sections"]["sharded_serving"]["scaling"]["points"][-1]
    point["speedup_vs_single_device"] = 1.0
    failures = check_invariants(broken)
    assert any("sharded serving" in f and "floor" in f for f in failures)
    missed = json.loads(json.dumps(result))
    missed["sections"]["sharded_serving"]["bitwise"]["tp_collective_chaos"][
        "collective_faults_injected"
    ] = 0
    assert any(
        "collective" in f for f in check_invariants(missed)
    )

"""Bench-history records and the noise-aware baseline gate."""

import json

import pytest

from repro.observe.history import (
    SCHEMA_VERSION,
    append_record,
    baseline_gate,
    load_history,
    record_from_result,
)


def fake_result(modelled_us=1000.0, wall_us=50_000.0, speedup=1.5, **over):
    config = {
        "batch": 4,
        "max_seq_len": 64,
        "alpha": 0.6,
        "layers": 2,
        "preset": "fused MHA",
        "serve_requests": 12,
        "devices": 2,
        "shard": "dp",
        "host": "x86_64",
        "python": "3.11",
        "numpy": "2.0",
    }
    config.update(over.pop("config", {}))
    result = {
        "config": config,
        "modelled_us": modelled_us,
        "wall_us": wall_us,
        "sections": {
            "attention": {"speedup_vs_reference": speedup},
            "continuous_serving": {
                "speedup_vs_reference": 1.4,
                "continuous": {
                    "us_per_token": 2.0,
                    "steady_hit_rate": 1.0,
                },
            },
        },
    }
    result.update(over)
    return result


def record(**kw):
    return record_from_result(fake_result(**kw), git_sha="abc1234")


class TestRecord:
    def test_record_carries_fingerprint_and_metrics(self):
        rec = record()
        assert rec["schema"] == SCHEMA_VERSION
        assert rec["git_sha"] == "abc1234"
        assert rec["shape"]["max_seq_len"] == 64
        assert rec["env"]["python"] == "3.11"
        assert rec["metrics"]["modelled_us"] == 1000.0
        assert (
            rec["metrics"][
                "sections/continuous_serving/continuous/us_per_token"
            ]
            == 2.0
        )

    def test_missing_sections_simply_absent(self):
        rec = record()
        assert "sections/decode_serving/mixed/us_per_token" not in (
            rec["metrics"]
        )


class TestAppendLoad:
    def test_append_numbers_records_and_load_orders_them(self, tmp_path):
        first = append_record(tmp_path, record(modelled_us=1.0))
        second = append_record(tmp_path, record(modelled_us=2.0))
        assert first.name == "record-0000.json"
        assert second.name == "record-0001.json"
        loaded = load_history(tmp_path)
        assert [r["metrics"]["modelled_us"] for r in loaded] == [1.0, 2.0]

    def test_append_never_overwrites(self, tmp_path):
        append_record(tmp_path, record())
        append_record(tmp_path, record())
        names = sorted(p.name for p in tmp_path.glob("record-*.json"))
        assert names == ["record-0000.json", "record-0001.json"]

    def test_load_missing_directory_is_empty(self, tmp_path):
        assert load_history(tmp_path / "nope") == []


class TestGate:
    def history(self, n=3, **kw):
        return [record(**kw) for _ in range(n)]

    def test_same_seed_rerun_passes_clean(self):
        gate = baseline_gate(record(), self.history())
        assert gate.passed
        assert not gate.warnings
        assert gate.baseline_count == 3

    def test_no_history_passes_vacuously(self):
        gate = baseline_gate(record(), [])
        assert gate.passed
        assert "vacuously" in gate.note

    def test_shape_mismatch_never_gated(self):
        other_shape = [
            record(config={"max_seq_len": 256}) for _ in range(3)
        ]
        gate = baseline_gate(record(), other_shape)
        assert gate.passed
        assert gate.baseline_count == 0

    def test_hard_regression_fails(self):
        # modelled µs is deterministic: +10% over a flat history is a
        # code change, and a "lower is better" move in the bad direction
        gate = baseline_gate(
            record(modelled_us=1100.0), self.history()
        )
        assert not gate.passed
        assert any(v.path == "modelled_us" for v in gate.failures)

    def test_hard_improvement_passes(self):
        gate = baseline_gate(record(modelled_us=900.0), self.history())
        assert gate.passed

    def test_soft_regression_only_warns(self):
        gate = baseline_gate(
            record(wall_us=500_000.0, speedup=0.5), self.history()
        )
        assert gate.passed
        warned = {v.path for v in gate.warnings}
        assert "wall_us" in warned
        assert "sections/attention/speedup_vs_reference" in warned

    def test_mad_band_absorbs_history_noise(self):
        # noisy-but-stationary history widens the band: a value inside
        # 3 * 1.4826 * MAD of the median is not a regression
        noisy = [
            record(modelled_us=us)
            for us in (950.0, 1000.0, 1050.0, 980.0, 1020.0)
        ]
        gate = baseline_gate(record(modelled_us=1080.0), noisy)
        assert all(
            v.status == "ok" for v in gate.verdicts if v.path == "modelled_us"
        )

    def test_last_k_window(self):
        old_bad = [record(modelled_us=10_000.0) for _ in range(4)]
        recent = [record(modelled_us=1000.0) for _ in range(5)]
        gate = baseline_gate(record(), old_bad + recent, k=5)
        assert gate.passed
        assert gate.baseline_count == 5

    def test_render_text_names_the_verdicts(self):
        gate = baseline_gate(
            record(modelled_us=1100.0), self.history()
        )
        text = gate.render_text()
        assert "FAIL modelled_us" in text
        assert "baseline gate: FAIL" in text


class TestSeededHistory:
    def test_committed_record_zero_gates_the_committed_snapshot(self):
        """The seeded record 0 must accept the very snapshot it was
        distilled from — the trajectory starts consistent."""
        from pathlib import Path

        root = Path(__file__).resolve().parents[2]
        history = load_history(root / "benchmarks" / "history")
        assert history, "benchmarks/history/ should be seeded"
        snapshot = json.loads((root / "BENCH_wallclock.json").read_text())
        fresh = record_from_result(snapshot)
        gate = baseline_gate(fresh, history)
        assert gate.baseline_count >= 1
        assert gate.passed
        assert not gate.warnings

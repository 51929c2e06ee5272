"""Critical-path attribution: sum-checks, slack, buckets, batches."""

import pytest

from repro.core.config import BertConfig
from repro.observe import BUCKETS, CriticalPathReport, bucket_of_category
from repro.serving import (
    DegradationLadder,
    FaultSpec,
    NO_FAULTS,
    ServingRuntime,
)
from repro.telemetry import Telemetry
from repro.workloads.batching import ContinuousBatcher, TimeoutBatcher
from repro.workloads.serving import make_trace

CONFIG = BertConfig(num_heads=4, head_size=16, num_layers=2)
CHAOS = FaultSpec(
    launch_failure_rate=0.06,
    transient_oom_rate=0.04,
    target_prefixes=("fused_mha", "fmha_"),
)
EPS = 1e-6


def observed_replay(faults=CHAOS, *, batcher=None, sharding=None, seed=11):
    tel = Telemetry()
    runtime = ServingRuntime(
        CONFIG,
        batcher=(
            batcher
            if batcher is not None
            else ContinuousBatcher(token_budget=1024)
        ),
        ladder=DegradationLadder(
            trip_threshold=2, window_us=20_000.0, cooldown_us=15_000.0
        ),
        faults=faults,
        seed=seed,
        telemetry=tel,
        sharding=sharding,
    )
    report = runtime.run(
        make_trace(32, 96, mean_interarrival_us=250.0, seed=5)
    )
    return report, CriticalPathReport.from_telemetry(tel)


@pytest.fixture(scope="module")
def chaos_pair():
    return observed_replay()


class TestBucketMap:
    def test_known_categories(self):
        assert bucket_of_category("gemm0") == "gemm"
        assert bucket_of_category("decode_gemm") == "gemm"
        assert bucket_of_category("attention") == "attention"
        assert bucket_of_category("decode_attention") == "attention"
        assert bucket_of_category("packing") == "pack"
        assert bucket_of_category("collective") == "collective"

    def test_unknown_falls_to_other(self):
        assert bucket_of_category("layernorm0") == "other"
        assert bucket_of_category("kv_swap") == "other"

    def test_every_bucket_is_declared(self):
        for cat in ("gemm1", "attention", "packing", "collective", "probe"):
            assert bucket_of_category(cat) in BUCKETS


class TestSumCheck:
    def test_every_request_has_a_path(self, chaos_pair):
        report, cp = chaos_pair
        assert {p.request_id for p in cp.requests} == {
            o.request_id for o in report.outcomes
        }

    def test_served_paths_tile_latency_exactly(self, chaos_pair):
        """Queue + attempts + backoffs tile [arrival, settle]: the path
        equals the served latency even through retries, never exceeds
        it otherwise."""
        report, cp = chaos_pair
        latency = {o.request_id: o.latency_us for o in report.outcomes}
        outcome = {o.request_id: o.outcome.value for o in report.outcomes}
        checked_retried = 0
        for path in cp.requests:
            if outcome[path.request_id] != "served":
                continue
            assert path.path_us <= latency[path.request_id] + EPS
            if path.decomposed:
                assert path.path_us == pytest.approx(
                    latency[path.request_id], abs=EPS
                )
            if path.retries:
                checked_retried += 1
        assert checked_retried > 0  # chaos actually exercised retries

    def test_bucket_totals_match_path(self, chaos_pair):
        _, cp = chaos_pair
        for path in cp.requests:
            assert sum(path.bucket_totals().values()) == pytest.approx(
                path.path_us
            )
            assert all(v >= 0 for v in path.bucket_totals().values())

    def test_slack_nonnegative(self, chaos_pair):
        _, cp = chaos_pair
        for path in cp.requests:
            for edge in path.edges:
                assert edge.slack_us >= -EPS


class TestAttribution:
    def test_chaos_run_pays_retry_penalty(self, chaos_pair):
        _, cp = chaos_pair
        totals = cp.totals()
        assert totals.get("retry-penalty", 0.0) > 0.0
        assert totals.get("queue", 0.0) > 0.0
        assert totals.get("gemm", 0.0) > 0.0

    def test_clean_run_pays_no_penalties(self):
        _, cp = observed_replay(NO_FAULTS)
        totals = cp.totals()
        assert totals.get("retry-penalty", 0.0) == 0.0
        assert totals.get("ladder-penalty", 0.0) == 0.0

    def test_degraded_run_pays_ladder_penalty(self, chaos_pair):
        report, cp = chaos_pair
        if not report.transitions:
            pytest.skip("chaos seed produced no degradation")
        assert cp.totals().get("ladder-penalty", 0.0) > 0.0

    def test_sharded_run_attributes_per_device(self):
        from repro.serving.sharded import ShardConfig

        _, cp = observed_replay(
            NO_FAULTS, sharding=ShardConfig(devices=2, mode="dp")
        )
        assert len(cp.device_buckets) == 2
        assert set(cp.device_buckets) == {0, 1}


class TestBatches:
    def test_batches_cover_dispatches(self, chaos_pair):
        _, cp = chaos_pair
        assert cp.batches
        for batch in cp.batches:
            assert batch.request_ids
            assert batch.end_us >= batch.start_us

    def test_member_slack_of_critical_member_is_zero(self, chaos_pair):
        _, cp = chaos_pair
        for batch in cp.batches:
            if batch.critical_request_id is None:
                continue
            assert (
                batch.member_slack_us[batch.critical_request_id]
                == pytest.approx(0.0, abs=EPS)
            )
            assert all(
                slack >= -EPS for slack in batch.member_slack_us.values()
            )


class TestRendering:
    def test_render_text_mentions_buckets_and_requests(self, chaos_pair):
        _, cp = chaos_pair
        text = cp.render_text(top=3)
        assert "critical path" in text
        assert "queue" in text
        assert "retry-penalty" in text

    def test_to_json_roundtrips_through_stdlib(self, chaos_pair):
        import json

        _, cp = chaos_pair
        payload = json.loads(json.dumps(cp.to_json()))
        assert payload["requests"]
        assert payload["buckets"]
        assert payload["batches"]

    def test_critical_request_is_slowest_served(self, chaos_pair):
        report, cp = chaos_pair
        slowest = max(
            (o for o in report.outcomes if o.latency_us is not None),
            key=lambda o: o.latency_us,
        )
        assert cp.critical_request().request_id == slowest.request_id


class TestGenerationFallback:
    def test_decode_runs_get_undecomposed_paths(self):
        from repro.serving.generation import GenerationRuntime
        from repro.workloads.serving import make_generation_trace

        tel = Telemetry()
        runtime = GenerationRuntime(
            CONFIG,
            seed=3,
            compute_outputs=False,
            telemetry=tel,
        )
        report = runtime.run(
            make_generation_trace(6, 64, decode_tokens=4, seed=3)
        )
        cp = CriticalPathReport.from_telemetry(tel)
        assert {p.request_id for p in cp.requests} == {
            o.request_id for o in report.outcomes
        }
        latency = {
            o.request_id: o.latency_us
            for o in report.outcomes
            if o.latency_us is not None
        }
        for path in cp.requests:
            if path.request_id in latency:
                assert not path.decomposed
                assert path.path_us <= latency[path.request_id] + EPS


    def test_decode_paths_carry_their_tenant(self):
        import dataclasses

        from repro.serving.generation import GenerationRuntime
        from repro.workloads.serving import ServingTrace, make_generation_trace

        parts = [
            make_generation_trace(4, 64, decode_tokens=4, seed=seed, tenant=t)
            for seed, t in ((3, "chat"), (4, "batch"))
        ]
        merged = sorted(
            (r for part in parts for r in part.requests),
            key=lambda r: r.arrival_us,
        )
        requests = tuple(
            dataclasses.replace(r, request_id=i) for i, r in enumerate(merged)
        )
        tel = Telemetry()
        GenerationRuntime(
            CONFIG, seed=3, compute_outputs=False, telemetry=tel
        ).run(ServingTrace(requests, 64))
        cp = CriticalPathReport.from_telemetry(tel)
        assert {p.request_id: p.tenant for p in cp.requests} == {
            r.request_id: r.tenant for r in requests
        }
        assert {p.tenant for p in cp.requests} == {"chat", "batch"}


class TestChromeTraceLane:
    def test_trace_gains_critical_lane_only_when_asked(self, chaos_pair):
        from repro.gpusim.trace import telemetry_chrome_trace

        report, cp = chaos_pair
        tel = Telemetry()
        runtime = ServingRuntime(
            CONFIG,
            batcher=ContinuousBatcher(token_budget=1024),
            ladder=DegradationLadder(
                trip_threshold=2, window_us=20_000.0, cooldown_us=15_000.0
            ),
            faults=CHAOS,
            seed=11,
            telemetry=tel,
        )
        runtime.run(make_trace(32, 96, mean_interarrival_us=250.0, seed=5))
        plain = telemetry_chrome_trace(tel)
        fresh_cp = CriticalPathReport.from_telemetry(tel)
        lane = telemetry_chrome_trace(
            tel, critical_path=fresh_cp.critical_request()
        )
        # None emits the legacy layout byte for byte
        assert plain == telemetry_chrome_trace(tel, critical_path=None)
        crit = [
            e
            for e in lane["traceEvents"]
            if e.get("cat") == "critical-path"
        ]
        assert len(crit) == len(fresh_cp.critical_request().edges)
        names = {
            e["args"]["name"]
            for e in lane["traceEvents"]
            if e.get("name") == "thread_name"
        }
        assert "critical path" in names

"""Decode serving runtime: batched rounds bitwise-equal to the oracle."""

import numpy as np
import pytest

from repro.core.config import BertConfig
from repro.serving.faults import FaultSpec
from repro.serving.gateway import AdmissionGateway, QosClass, TenantPolicy
from repro.serving.generation import (
    GenerationRuntime,
    generate_reference_outputs,
)
from repro.serving.report import Outcome, REASON_ADMISSION
from repro.telemetry import SloReport, Telemetry
from repro.telemetry.slo import (
    DECODE_TOKENS_TOTAL,
    GATEWAY_REJECTED_TOTAL,
    GATEWAY_RELEASE_WAIT_US,
    GATEWAY_RETRY_AFTER_US,
    KV_BYTES_PEAK,
    KV_EVICTIONS_TOTAL,
    REQUEST_RETRIES,
)
from repro.workloads.serving import (
    GenerationRequest,
    ServingTrace,
    make_generation_trace,
)

CFG = BertConfig(num_heads=4, head_size=16, num_layers=2)


def gen_trace(n=10, msl=64, **kwargs):
    kwargs.setdefault("decode_tokens", 8)
    kwargs.setdefault("mean_interarrival_us", 25.0)
    return make_generation_trace(n, msl, **kwargs)


def assert_served_bitwise(runtime, trace, report):
    oracle = generate_reference_outputs(runtime, trace)
    assert report.outputs, "nothing served"
    for rid, out in report.outputs.items():
        np.testing.assert_array_equal(out, oracle[rid])


class TestCleanServing:
    def test_all_served_bitwise_equal_to_oracle(self):
        trace = gen_trace()
        runtime = GenerationRuntime(CFG, seed=0)
        report = runtime.run(trace)
        assert report.counts() == {
            "served": 10, "shed": 0, "failed": 0, "rejected": 0,
        }
        assert_served_bitwise(runtime, trace, report)

    def test_conservation_every_request_settles_once(self):
        trace = gen_trace(n=16)
        report = GenerationRuntime(CFG, seed=1).run(trace)
        assert len(report.outcomes) == trace.num_requests
        assert sorted(o.request_id for o in report.outcomes) == list(
            range(trace.num_requests)
        )

    def test_one_token_prompt(self):
        trace = ServingTrace(
            requests=(
                GenerationRequest(
                    request_id=0, arrival_us=1.0, seq_len=1, decode_tokens=5
                ),
            ),
            max_seq_len=64,
        )
        runtime = GenerationRuntime(CFG, seed=0)
        report = runtime.run(trace)
        assert report.outputs[0].shape == (5, CFG.hidden_size)
        assert_served_bitwise(runtime, trace, report)

    def test_max_context_truncates_the_stream(self):
        # prompt 60 of 64: the last token appends no KV row, so exactly
        # max_context - prompt + 1 = 5 decode steps fit the window
        trace = ServingTrace(
            requests=(
                GenerationRequest(
                    request_id=0, arrival_us=1.0, seq_len=60, decode_tokens=50
                ),
            ),
            max_seq_len=64,
        )
        runtime = GenerationRuntime(CFG, seed=0)
        report = runtime.run(trace)
        assert report.generated_tokens == 5
        assert_served_bitwise(runtime, trace, report)

    def test_stalled_arrivals_advance_the_clock(self):
        # gaps far beyond a round's service time: every round between
        # arrivals is empty and the runtime must jump, not spin
        trace = gen_trace(n=4, mean_interarrival_us=1e6)
        report = GenerationRuntime(CFG, seed=0).run(trace)
        assert len(report.served) == 4
        assert report.makespan_us > 1e5

    def test_grouping_independence_exact(self):
        # same streams, radically different round cuts (budget squeeze):
        # generated bits must not change
        trace = gen_trace(n=6)
        from repro.workloads.batching import MixedContinuousBatcher

        wide = GenerationRuntime(CFG, seed=3)
        narrow = GenerationRuntime(
            CFG,
            seed=3,
            batcher=MixedContinuousBatcher(token_budget=80),
        )
        out_w = wide.run(trace).outputs
        out_n = narrow.run(trace).outputs
        assert out_w.keys() == out_n.keys()
        for rid in out_w:
            np.testing.assert_array_equal(out_w[rid], out_n[rid])


class TestKVPressure:
    def test_eviction_resume_is_bitwise(self):
        trace = gen_trace(n=10, mean_interarrival_us=5.0)
        runtime = GenerationRuntime(CFG, seed=0, kv_capacity_tokens=128)
        report = runtime.run(trace)
        assert report.kv_stats["evictions"] >= 1
        assert report.kv_stats["swap_ins"] >= 1
        assert len(report.served) == 10
        assert_served_bitwise(runtime, trace, report)

    def test_impossible_prompt_shed_at_admission(self):
        trace = ServingTrace(
            requests=(
                GenerationRequest(
                    request_id=0, arrival_us=1.0, seq_len=60, decode_tokens=2
                ),
            ),
            max_seq_len=64,
        )
        report = GenerationRuntime(CFG, seed=0, kv_capacity_tokens=32).run(
            trace
        )
        (outcome,) = report.outcomes
        assert outcome.outcome is Outcome.SHED
        assert outcome.reason == REASON_ADMISSION

    def test_kv_telemetry_gauges(self):
        tel = Telemetry()
        trace = gen_trace(n=8, mean_interarrival_us=5.0)
        GenerationRuntime(
            CFG, seed=0, kv_capacity_tokens=128, telemetry=tel
        ).run(trace)
        snapshot = str(tel.metrics.snapshot())
        assert KV_BYTES_PEAK in snapshot
        assert KV_EVICTIONS_TOTAL in snapshot
        assert DECODE_TOKENS_TOTAL in snapshot


class TestChaos:
    def test_served_streams_survive_faults_bitwise(self):
        trace = gen_trace(n=10)
        runtime = GenerationRuntime(
            CFG,
            seed=0,
            faults=FaultSpec(
                launch_failure_rate=0.25,
                transient_oom_rate=0.1,
                target_prefixes=("paged_decode",),
            ),
        )
        report = runtime.run(trace)
        assert report.injected_faults
        assert len(report.outcomes) == 10
        assert_served_bitwise(runtime, trace, report)

    def test_ladder_escapes_to_looped_decode(self):
        trace = gen_trace(n=12)
        runtime = GenerationRuntime(
            CFG,
            seed=0,
            faults=FaultSpec(
                launch_failure_rate=0.5,
                target_prefixes=("paged_decode",),
            ),
        )
        report = runtime.run(trace)
        assert any(
            t.to_level == "decode-looped" for t in report.transitions
        )
        assert_served_bitwise(runtime, trace, report)

    def test_chaos_with_eviction_pressure(self):
        trace = gen_trace(n=10, mean_interarrival_us=5.0)
        runtime = GenerationRuntime(
            CFG,
            seed=0,
            kv_capacity_tokens=128,
            faults=FaultSpec(
                launch_failure_rate=0.15,
                transient_oom_rate=0.05,
                target_prefixes=("paged_decode",),
            ),
        )
        report = runtime.run(trace)
        assert report.kv_stats["evictions"] >= 1
        assert_served_bitwise(runtime, trace, report)


class TestGateway:
    def test_decode_slo_tenant_settles_everything(self):
        trace = gen_trace(n=8, tenant="chat")
        runtime = GenerationRuntime(
            CFG,
            seed=0,
            gateway=AdmissionGateway(
                [
                    TenantPolicy(
                        "chat",
                        qos=QosClass.LATENCY_SLO,
                        slo_target=0.5,
                        decode_slo_us=1.0,  # every token is "late"
                    )
                ]
            ),
        )
        report = runtime.run(trace)
        assert len(report.outcomes) == 8
        assert len(report.served) == 8
        assert_served_bitwise(runtime, trace, report)

    @staticmethod
    def rate_limited_run():
        """16 deadline-carrying requests of one SLO tenant; the token
        bucket turns 11 of them away at the gateway."""
        tel = Telemetry()
        trace = gen_trace(n=16, tenant="chat", deadline_us=5_000.0)
        runtime = GenerationRuntime(
            CFG,
            seed=0,
            telemetry=tel,
            gateway=AdmissionGateway(
                [
                    TenantPolicy(
                        "chat",
                        qos=QosClass.LATENCY_SLO,
                        rate_tokens_per_s=1e5,
                        burst_tokens=64,
                    )
                ]
            ),
        )
        return runtime.run(trace), tel

    def test_settles_feed_tenant_and_deadline_series(self):
        report, tel = self.rate_limited_run()
        assert report.counts() == {
            "served": 5, "shed": 0, "failed": 0, "rejected": 11,
        }
        tenant = SloReport.for_tenant(tel.metrics, "chat")
        assert (tenant.total, tenant.served, tenant.rejected) == (16, 5, 11)
        assert tenant.with_deadline == 16
        overall = SloReport.from_registry(tel.metrics)
        assert (overall.total, overall.with_deadline) == (16, 16)
        assert tel.metrics.find(REQUEST_RETRIES).count == 16

    def test_gateway_rejections_are_observed(self):
        report, tel = self.rate_limited_run()
        gateway = [s for s in tel.tracer.spans if s.category == "gateway"]
        assert [s.name for s in gateway] == ["gateway.reject"] * 11
        assert sorted(s.request_id for s in gateway) == sorted(
            o.request_id for o in report.rejected
        )
        rejected = tel.metrics.find(
            GATEWAY_REJECTED_TOTAL, tenant="chat", reason="rate-limit"
        )
        assert rejected.value == 11
        assert tel.metrics.find(GATEWAY_RETRY_AFTER_US).count == 11
        assert tel.metrics.find(GATEWAY_RELEASE_WAIT_US).count == 5


class TestReport:
    def test_us_per_token_and_hit_rate(self):
        trace = gen_trace(n=10)
        report = GenerationRuntime(CFG, seed=0).run(trace)
        assert report.us_per_token == pytest.approx(
            report.gpu_busy_us / report.generated_tokens
        )
        assert 0.0 <= report.graph_hit_rate <= 1.0
        text = report.render_text()
        assert "generation report" in text
        assert "kv arena" in text

    def test_token_times_are_monotone(self):
        trace = gen_trace(n=6)
        report = GenerationRuntime(CFG, seed=0).run(trace)
        for times in report.token_times.values():
            assert list(times) == sorted(times)
            assert len(set(times)) == len(times)

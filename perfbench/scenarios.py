"""The four benchmark workloads, driven through the public ``repro`` API.

Each workload has the same shape:

* ``build(seed)`` makes the program and its inputs (timed, repeated);
* ``warm(state)`` runs one untimed operation so caches and launch-graph
  captures are filled before timing;
* ``op(state, i)`` is one timed operation; ``record(state, result)``
  turns its result into numbers outside the timed region;
* ``check(state, records)`` runs the correctness gates, outside timing,
  and returns the failures with the count of outputs the oracle refused;
* ``end_to_end`` / ``extras`` / ``counters`` turn records into metrics.

``PATCHES`` lists, per layer, the public callables the traced run wraps,
at the names their callers resolve.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro import FUSED_MHA, BertConfig, BertEncoderModel, make_batch
from repro.core.estimator import estimate_model
from repro.core.reference import reference_encoder
from repro.gpusim import ExecutionContext
from repro.observe import CriticalPathReport
from repro.serving import (
    AdmissionGateway,
    Outcome,
    QosClass,
    ServingRuntime,
    TenantPolicy,
)
from repro.serving.generation import (
    GenerationRuntime,
    generate_reference_outputs,
)
from repro.telemetry import Telemetry
from repro.workloads.batching import ContinuousBatcher, MixedContinuousBatcher
from repro.workloads.generator import LengthDistribution
from repro.workloads.serving import make_generation_trace
from repro.workloads.traffic import (
    DiurnalArrivals,
    FlashCrowd,
    LengthProfile,
    MmppArrivals,
    TenantTraffic,
    generate_traffic,
)

# tolerance of the full-scale encoder test (tests/test_integration_full_scale)
RTOL, ATOL = 5e-3, 5e-4
#: the paper's setting: average sequence length = 0.6 x the maximum
ALPHA = 0.6
#: serve-tenants: sequence cap, batcher budget, interactive load as a
#: share of capacity, and the interactive deadline
SERVE_MAX_SEQ_LEN = 256
SERVE_TOKEN_BUDGET = 2048
SERVE_SLO_LOAD = 0.25
SERVE_DEADLINE_US = 25_000.0


def _pct(values: list[float] | np.ndarray, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


# ----------------------------------------------------------------------
# encoder-short / encoder-long


@dataclass
class EncoderState:
    model: BertEncoderModel
    batches: list
    #: last output of each batch index, for the oracle
    outputs: dict[int, np.ndarray] = field(default_factory=dict)


@dataclass(frozen=True)
class EncoderWorkload:
    """``BertEncoderModel(opt=FUSED_MHA).forward`` on variable-length batches.

    ``batches_per_run`` distinct batches are cycled through; batch 0 of
    seed ``s`` is ``make_batch(..., seed=s)``, so seed 0 prices exactly
    the paper's Fig. 14 batch.  More batches per run average out the
    length draw, which per-token metrics still feel on a 4-sequence
    batch.
    """

    name: str
    batch: int
    max_seq_len: int
    batches_per_run: int = 1
    layers: int = 12

    @property
    def min_ops(self) -> int:
        return self.batches_per_run

    @property
    def config(self) -> BertConfig:
        return BertConfig(num_layers=self.layers)

    def batch_seed(self, seed: int, k: int) -> int:
        return seed * self.batches_per_run + k

    def build(self, seed: int) -> EncoderState:
        config = self.config
        model = BertEncoderModel(config, FUSED_MHA, seed=seed)
        batches = [
            make_batch(
                self.batch, self.max_seq_len, config.hidden_size,
                alpha=ALPHA, seed=self.batch_seed(seed, k),
            )
            for k in range(self.batches_per_run)
        ]
        return EncoderState(model=model, batches=batches)

    def warm(self, state: EncoderState) -> None:
        b = state.batches[0]
        state.model.forward(b.x, b.mask, ctx=ExecutionContext())

    def op(self, state: EncoderState, i: int) -> tuple:
        k = i % len(state.batches)
        b = state.batches[k]
        ctx = ExecutionContext()
        state.outputs[k] = state.model.forward(b.x, b.mask, ctx=ctx)
        return k, ctx

    def record(self, state: EncoderState, result: tuple) -> dict:
        k, ctx = result
        b = state.batches[k]
        return {
            "batch": k,
            "tokens": int(b.seq_lens.sum()),
            "requests": b.batch,
            "modelled_us": ctx.elapsed_us(),
            "launches": ctx.kernel_count(),
            "flops": ctx.total_flops(),
            "dram_bytes": ctx.total_dram_bytes(),
        }

    def check(self, state: EncoderState, records: list[dict]) -> tuple:
        failures = []
        bad_sequences = 0
        model = state.model
        for k, out in sorted(state.outputs.items()):
            b = state.batches[k]
            valid = b.mask.astype(bool)
            if np.any(out[~valid] != 0):
                failures.append(f"batch {k}: padding rows are not zero")
            # per-sequence oracle at the exact length: no cross-sequence
            # leakage can hide, and a float mask keeps it in float32
            for s, length in enumerate(b.seq_lens):
                ref = reference_encoder(
                    b.x[s : s + 1, :length], model.weights, model.config,
                    np.ones((1, length), dtype=b.x.dtype),
                )
                if not np.allclose(
                    out[s, :length], ref[0], rtol=RTOL, atol=ATOL
                ):
                    err = float(np.max(np.abs(out[s, :length] - ref[0])))
                    bad_sequences += 1
                    failures.append(
                        f"batch {k} sequence {s}: max |err| {err:.3g} "
                        "outside the oracle tolerance"
                    )
            price = estimate_model(
                ExecutionContext(), model.config, model.opt, b.seq_lens,
                b.max_seq_len,
            )
            for r in records:
                if r["batch"] == k and r["modelled_us"] != price:
                    failures.append(
                        f"batch {k}: modelled {r['modelled_us']!r} us != "
                        f"shape-only estimate {price!r} us"
                    )
                    break
        return failures, bad_sequences

    def end_to_end(self, state: EncoderState, records: list[dict]) -> dict:
        first = _first_per_batch(records)
        tokens = sum(r["tokens"] for r in first)
        return {
            "modelled_us_per_token": sum(r["modelled_us"] for r in first)
            / tokens,
        }

    def extras(self, state: EncoderState, records: list[dict]) -> dict:
        first = _first_per_batch(records)
        b = state.batches[0]
        # shape-only price of batch 0 on the full 12-layer BERT-base: the
        # forward's modelled time is gated equal to this estimate
        bert_base_us = estimate_model(
            ExecutionContext(), BertConfig(), FUSED_MHA, b.seq_lens,
            b.max_seq_len,
        )
        return {
            "modelled_fwd_us": (first[0]["modelled_us"], "us"),
            "bert_base_fwd_us_computed": (bert_base_us, "us"),
            "valid_tokens": (first[0]["tokens"], "count"),
        }

    def counters(self, state: EncoderState, records: list[dict]) -> dict:
        first = _first_per_batch(records)
        packings = [state.batches[r["batch"]].packing() for r in first]
        tokens = sum(p.total_tokens for p in packings)
        slots = sum(p.padded_rows for p in packings)
        n = len(first)
        return {
            "core.fill_ratio": tokens / slots,
            "core.valid_tokens": tokens / n,
            "core.slots": slots / n,
            "kernels.flops_per_fwd": sum(r["flops"] for r in first) / n,
            "kernels.dram_bytes_per_fwd": sum(r["dram_bytes"] for r in first)
            / n,
            "gpusim.launches_per_fwd": sum(r["launches"] for r in first) / n,
            "gpusim.modelled_fwd_us": first[0]["modelled_us"],
        }

    def traced_extras(self, seed: int) -> dict:
        return {}


def _graph_delta(state) -> tuple[int, int]:
    """(hits, lookups) of the runtime's launch-graph cache since the
    last call; the cache lives as long as the runtime."""
    cache = state.runtime.graph_cache
    hits, lookups = cache.hits, cache.hits + cache.misses
    seen_hits, seen_lookups = state.graph_seen
    state.graph_seen = (hits, lookups)
    return hits - seen_hits, lookups - seen_lookups


def _graph_counters(record: dict) -> dict:
    hits, lookups = record["graph"]
    return {
        "gpusim.graph_lookups": lookups,
        "gpusim.graph_hit_rate": hits / lookups if lookups else 0.0,
    }


def _compare_log(state, outcomes: tuple) -> None:
    if outcomes != state.warm_outcomes:
        state.log_failures.append(
            "an outcome log differs from the warm-up's for the same seed"
        )


def _first_per_batch(records: list[dict]) -> list[dict]:
    seen: dict[int, dict] = {}
    for r in records:
        seen.setdefault(r["batch"], r)
    return [seen[k] for k in sorted(seen)]


# ----------------------------------------------------------------------
# serve-tenants


@dataclass
class ServeState:
    runtime: ServingRuntime
    trace: Any
    warm_outcomes: tuple = ()
    #: gate failures found while recording ops (logs are not kept, so
    #: memory does not grow with the number of ops)
    log_failures: list = field(default_factory=list)
    graph_seen: tuple = (0, 0)


@dataclass(frozen=True)
class ServeWorkload:
    """The two-tenant ``repro loadtest`` scenario on the cost plane.

    Mirrors the loadtest defaults (4-layer BERT-base shape, 256-token
    sequences, diurnal interactive tenant with a 3x flash crowd and a
    25 ms deadline, MMPP analytics tenant rate-limited to 40% of
    capacity) with a 2,048-token continuous batcher and a longer
    horizon.  The loop is open on the simulated clock.
    """

    name: str = "serve-tenants"
    horizon_us: float = 2_400_000.0
    layers: int = 4
    #: interactive loads (capacity fractions) scanned for slo_max_load
    load_grid: tuple[float, ...] = (0.15, 0.2, 0.25, 0.3, 0.35, 0.4)
    grid_horizon_us: float = 1_000_000.0
    min_ops: int = 3

    def scenario(
        self,
        seed: int,
        slo_load: float,
        horizon_us: float,
        telemetry: Telemetry | None = None,
    ) -> ServeState:
        config = BertConfig(num_layers=self.layers)
        runtime = ServingRuntime(
            config,
            batcher=ContinuousBatcher(token_budget=SERVE_TOKEN_BUDGET),
            numerics=None,
            seed=seed,
            telemetry=telemetry,
        )
        n = SERVE_MAX_SEQ_LEN
        rate = runtime.estimate_service_rate(n)
        capacity = rate * 1e6
        slo_profile = LengthProfile.zipf_mixed(n)
        batch_profile = LengthProfile.single(
            n, LengthDistribution.UNIFORM, alpha=0.7
        )
        mean_slo = float(
            slo_profile.sample(4096, np.random.default_rng(0)).mean()
        )
        mean_batch = float(
            batch_profile.sample(4096, np.random.default_rng(1)).mean()
        )
        crowd = FlashCrowd(
            start_us=0.35 * horizon_us,
            duration_us=0.25 * horizon_us,
            multiplier=3.0,
        )
        probe = MmppArrivals(1.0)
        tenants = [
            TenantTraffic(
                "interactive",
                DiurnalArrivals(
                    slo_load * capacity / mean_slo,
                    period_us=horizon_us, depth=0.2, phase=0.5,
                ),
                slo_profile,
                deadline_us=SERVE_DEADLINE_US,
                flash_crowds=(crowd,),
            ),
            TenantTraffic(
                "analytics",
                MmppArrivals(
                    0.55 * capacity / mean_batch
                    / (probe.mean_rate_per_us * 1e6)
                ),
                batch_profile,
            ),
        ]
        trace = generate_traffic(tenants, horizon_us, seed=seed)
        limit = 0.4 * capacity
        runtime.gateway = AdmissionGateway(
            [
                TenantPolicy(
                    "interactive", qos=QosClass.LATENCY_SLO, weight=3.0,
                    max_queue_tokens=1 << 30,
                ),
                TenantPolicy(
                    "analytics", qos=QosClass.THROUGHPUT_BATCH, weight=1.0,
                    rate_tokens_per_s=limit,
                    burst_tokens=max(n, 0.01 * limit),
                    max_queue_tokens=max(4 * n, int(rate * 3_000.0)),
                    slo_target=0.5,
                ),
            ],
            service_rate_tokens_per_us=rate,
            quantum_tokens=256,
            max_total_queue_tokens=max(8 * n, int(rate * 40_000.0)),
        )
        return ServeState(runtime=runtime, trace=trace)

    def build(self, seed: int) -> ServeState:
        return self.scenario(seed, SERVE_SLO_LOAD, self.horizon_us)

    def warm(self, state: ServeState) -> None:
        state.warm_outcomes = state.runtime.run(state.trace).outcomes
        _graph_delta(state)

    def op(self, state: ServeState, i: int):
        return state.runtime.run(state.trace)

    def record(self, state: ServeState, report) -> dict:
        ids = sorted(r.request_id for r in state.trace.requests)
        if sorted(o.request_id for o in report.outcomes) != ids:
            state.log_failures.append(
                "a replay has not one outcome per request"
            )
        _compare_log(state, report.outcomes)
        return {
            **_serve_record(report, state.trace),
            "graph": _graph_delta(state),
        }

    def check(self, state: ServeState, records: list[dict]) -> tuple:
        failures = state.log_failures + [
            f"replay {i}: {r['failed']} requests failed"
            for i, r in enumerate(records)
            if r["failed"]
        ]
        state.log_failures = []
        return failures, 0

    def end_to_end(self, state: ServeState, records: list[dict]) -> dict:
        r = records[0]
        return {"modelled_us_per_token": r["busy_us"] / r["served_tokens"]}

    def extras(self, state: ServeState, records: list[dict]) -> dict:
        r = records[0]
        return {
            "requests": (r["requests"], "count"),
            "interactive_requests": (r["slo_total"], "count"),
            "refused_share": (r["refused"] / r["requests"], "share"),
        }

    def counters(self, state: ServeState, records: list[dict]) -> dict:
        r = records[0]
        counts = r["counts"]
        return {
            **_graph_counters(r),
            "serving.shed": counts["shed"],
            "serving.rejected": counts["rejected"],
            "serving.failed": counts["failed"],
            "serving.degraded": counts["served-degraded"],
            "serving.retries": r["retries"],
            "serving.gpu_busy_share": r["busy_us"] / r["makespan_us"],
            "serving.slo_p50_ms": r["slo_p50_ms"],
            "serving.slo_p99_ms": r["slo_p99_ms"],
            "serving.slo_attainment": r["slo_attainment"],
        }

    def traced_extras(self, seed: int) -> dict:
        """Modelled figures that need extra replays: queue waits from the
        runtime's telemetry spans, and the interactive load limit."""
        state = self.scenario(
            seed, SERVE_SLO_LOAD, self.horizon_us, telemetry=Telemetry()
        )
        report = state.runtime.run(state.trace)
        tel = state.runtime.telemetry
        dispatches = sum(
            1
            for s in tel.tracer.spans
            if s.category == "dispatch" and not s.is_instant
        )
        paths = CriticalPathReport.from_telemetry(tel)
        waits = [
            p.edges[0].duration_us / 1000.0
            for p in paths.requests
            if p.outcome == "served" and p.edges and p.edges[0].name == "queue"
        ]
        max_load = 0.0
        for load in self.load_grid:
            grid = self.scenario(seed, load, self.grid_horizon_us)
            r = _serve_record(grid.runtime.run(grid.trace), grid.trace)
            late = r["slo_p99_ms"] * 1000.0 > SERVE_DEADLINE_US
            if r["slo_refused"] or late:
                break
            max_load = load
        return {
            "gpusim.modelled_fwd_us": report.gpu_busy_us / dispatches,
            "serving.queue_wait_p50_ms": _pct(waits, 50) if waits else 0.0,
            "serving.queue_wait_p99_ms": _pct(waits, 99) if waits else 0.0,
            "serving.slo_max_load": max_load,
        }


def _serve_record(report, trace) -> dict:
    by_id = {r.request_id: r for r in trace.requests}
    served_tokens = sum(by_id[o.request_id].seq_len for o in report.served)
    slo = report.by_tenant("interactive")
    deadline = {r.request_id: r.deadline_us for r in trace.requests}
    lat = [o.latency_us for o in slo if o.outcome is Outcome.SERVED]
    met = sum(
        1
        for o in slo
        if o.outcome is Outcome.SERVED
        and o.latency_us <= deadline[o.request_id]
    )
    counts = report.counts()
    return {
        "tokens": sum(r.seq_len for r in trace.requests),
        "requests": len(report.outcomes),
        "served_tokens": served_tokens,
        "busy_us": report.gpu_busy_us,
        "makespan_us": report.makespan_us,
        "refused": counts["shed"] + counts["rejected"],
        "failed": counts["failed"],
        "counts": counts,
        "retries": sum(o.retries for o in report.outcomes),
        "slo_total": len(slo),
        "slo_refused": len(slo) - len(lat),
        "slo_p50_ms": _pct(lat, 50) / 1000.0 if lat else 0.0,
        "slo_p99_ms": _pct(lat, 99) / 1000.0 if lat else 0.0,
        "slo_attainment": met / len(slo) if slo else 0.0,
    }


# ----------------------------------------------------------------------
# decode-evict


@dataclass
class DecodeState:
    runtime: GenerationRuntime
    trace: Any
    warm_outcomes: tuple = ()
    log_failures: list = field(default_factory=list)
    graph_seen: tuple = (0, 0)
    #: served streams of the latest run, for the oracle
    outputs: dict = field(default_factory=dict)


@dataclass(frozen=True)
class DecodeWorkload:
    """Numeric decode serving with a KV arena smaller than the working set.

    Prompts up to 256 tokens, about 32 decode tokens each, 25 us mean
    interarrival, so many streams are in flight at once and the
    2,048-token paged arena must swap streams out and back in.  A
    4-head x 64 decode cell keeps the bitwise oracle affordable in
    every run.  128 requests leave more than ten samples beyond the
    TTFT p90 and the inter-token p99.
    """

    name: str = "decode-evict"
    requests: int = 128
    max_seq_len: int = 256
    decode_tokens: int = 32
    kv_capacity_tokens: int = 2048
    heads: int = 4
    head_size: int = 64
    min_ops: int = 3

    def build(self, seed: int) -> DecodeState:
        runtime = GenerationRuntime(
            BertConfig(num_heads=self.heads, head_size=self.head_size),
            batcher=MixedContinuousBatcher(),
            seed=seed,
            kv_capacity_tokens=self.kv_capacity_tokens,
        )
        trace = make_generation_trace(
            self.requests, self.max_seq_len,
            decode_tokens=self.decode_tokens,
            mean_interarrival_us=25.0,
            seed=seed,
        )
        return DecodeState(runtime=runtime, trace=trace)

    def warm(self, state: DecodeState) -> None:
        state.warm_outcomes = state.runtime.run(state.trace).outcomes
        _graph_delta(state)

    def op(self, state: DecodeState, i: int):
        return state.runtime.run(state.trace)

    def record(self, state: DecodeState, report) -> dict:
        _compare_log(state, report.outcomes)
        state.outputs = report.outputs
        arrival = {r.request_id: r.arrival_us for r in state.trace.requests}
        ttft = [
            report.ttft_us(rid, arrival[rid]) for rid in report.token_times
        ]
        itl = [
            b - a
            for times in report.token_times.values()
            for a, b in zip(times, times[1:])
        ]
        counts = report.counts()
        return {
            "tokens": report.generated_tokens,
            "requests": len(report.outcomes),
            "busy_us": report.gpu_busy_us,
            "makespan_us": report.makespan_us,
            "refused": counts["shed"] + counts["rejected"],
            "failed": counts["failed"],
            "counts": counts,
            "rounds": report.rounds,
            "kv": dict(report.kv_stats),
            "graph": _graph_delta(state),
            "ttft": ttft,
            "itl": itl,
        }

    def check(self, state: DecodeState, records: list[dict]) -> tuple:
        failures = state.log_failures + [
            f"run {i}: {r['failed']} requests failed"
            for i, r in enumerate(records)
            if r["failed"]
        ]
        state.log_failures = []
        oracle = generate_reference_outputs(state.runtime, state.trace)
        bad_streams = 0
        for rid, expected in oracle.items():
            got = state.outputs.get(rid)
            if got is None or not np.array_equal(got, expected):
                bad_streams += 1
                failures.append(
                    f"request {rid}: served stream != per-request oracle"
                )
        return failures, bad_streams

    def end_to_end(self, state: DecodeState, records: list[dict]) -> dict:
        r = records[0]
        return {"modelled_us_per_token": r["busy_us"] / r["tokens"]}

    def extras(self, state: DecodeState, records: list[dict]) -> dict:
        r = records[0]
        return {
            "ttft_samples": (len(r["ttft"]), "count"),
            "itl_samples": (len(r["itl"]), "count"),
            "refused_share": (r["refused"] / r["requests"], "share"),
        }

    def counters(self, state: DecodeState, records: list[dict]) -> dict:
        r = records[0]
        kv = r["kv"]
        counts = r["counts"]
        return {
            **_graph_counters(r),
            "gpusim.modelled_fwd_us": r["busy_us"] / r["rounds"],
            "serving.shed": counts["shed"],
            "serving.rejected": counts["rejected"],
            "serving.failed": counts["failed"],
            "serving.gpu_busy_share": r["busy_us"] / r["makespan_us"],
            "decoder.evictions": kv["evictions"],
            "decoder.swap_ins": kv["swap_ins"],
            "decoder.kv_peak_bytes": kv["peak_live_bytes"],
            "decoder.kv_capacity_tokens": kv["capacity_tokens"],
            "decoder.rounds": r["rounds"],
            "decoder.decode_batch_mean": r["tokens"] / r["rounds"],
            "decoder.ttft_p50_us": _pct(r["ttft"], 50),
            "decoder.ttft_p90_us": _pct(r["ttft"], 90),
            "decoder.itl_p50_us": _pct(r["itl"], 50),
            "decoder.itl_p99_us": _pct(r["itl"], 99),
        }

    def traced_extras(self, seed: int) -> dict:
        return {}


WORKLOADS = {
    w.name: w
    for w in (
        EncoderWorkload("encoder-short", batch=16, max_seq_len=256),
        EncoderWorkload(
            "encoder-long", batch=4, max_seq_len=1024, layers=1,
            batches_per_run=8,
        ),
        ServeWorkload(),
        DecodeWorkload(),
    )
}

"""Decode serving: continuous prefill/decode batching over a paged KV arena.

:class:`GenerationRuntime` is the autoregressive sibling of
:class:`~repro.serving.runtime.ServingRuntime`, a second adapter over
the shared request lifecycle in :mod:`repro.serving.core`: it replays a
trace of
:class:`~repro.workloads.serving.GenerationRequest`\\ s through mixed
prefill/decode rounds cut by a
:class:`~repro.workloads.batching.MixedContinuousBatcher`, holds every
in-flight request's KV history in a
:class:`~repro.decoder.paged_kv.PagedKVArena`, and prices each round as
one batched kernel chain (fused QKV GEMM + packed varlen prefill
attention + paged varlen decode attention + output GEMM), graph-cached
under tile-quantized keys.

Two planes, one contract — decode edition
-----------------------------------------
Latency lives on the *cost plane*: a round's service time is the
modelled batched chain at the ladder's current rung (``batched`` paged
varlen or the ``looped`` per-request fallback), and injected faults
strike that chain.  Generated tokens live on the *numeric plane*: every
round commits one packed QKV GEMM over all its rows, per-request
attention over KV gathered from the paged arena, and one packed output
GEMM.  Row-stacked GEMMs are bitwise row-equal to per-request GEMMs
(the M=1 pinning + row-split invariance contract in
:mod:`repro.kernels.gemm`), and the arena gathers exactly the
contiguous K/V layout the per-request cache holds — so every request's
token stream is *bitwise* equal to the looped
:func:`~repro.decoder.generation.generate_cell_reference` oracle,
however the scheduler interleaved, preempted or resumed it.  The chaos
tests assert exactly that.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from repro.core.config import BertConfig
from repro.decoder.estimator import (
    estimate_decode_round_looped,
    estimate_decode_round_tiled,
)
from repro.decoder.generation import (
    DecodeCellWeights,
    attend_to_cache,
    init_decode_cell,
    max_decode_steps,
)
from repro.decoder.paged_kv import (
    DEFAULT_KV_BLOCK_TOKENS,
    PagedKVArena,
)
from repro.gpusim.device import A100_SPEC, DeviceSpec
from repro.gpusim.graph import GraphCache
from repro.gpusim.kernel import KernelLaunch
from repro.gpusim.memory import BYTES_PER_ELEMENT
from repro.gpusim.stream import ExecutionContext, NullContext
from repro.kernels.gemm import gemm
from repro.serving.core import ServingCore
from repro.serving.degradation import (
    DECODE_LEVELS,
    DegradationLadder,
    DegradationLevel,
)
from repro.serving.faults import NO_FAULTS, FaultSpec
from repro.serving.gateway import AdmissionGateway
from repro.serving.report import (
    GenerationReport,
    Outcome,
    REASON_ADMISSION,
    REASON_RETRY_BUDGET,
)
from repro.serving.retry import RetryPolicy
from repro.telemetry import (
    COUNT_BUCKETS,
    RATIO_BUCKETS,
    Telemetry,
    use_telemetry,
)
from repro.telemetry import slo as metric_names
from repro.workloads.batching import (
    MixedContinuousBatcher,
    TokenBudgetExceededError,
)
from repro.workloads.serving import Request, ServingTrace


def _kv_swap_launch(tokens: int, hidden: int, name: str) -> KernelLaunch:
    """Host<->device copy of one request's K/V rows (eviction traffic)."""
    return KernelLaunch(
        name=name,
        category="kv_swap",
        grid=max(1, -(-tokens // DEFAULT_KV_BLOCK_TOKENS)),
        block_threads=128,
        dram_bytes=2.0 * tokens * hidden * BYTES_PER_ELEMENT,
        regs_per_thread=32,
    )


@dataclass
class _GenState:
    """One admitted request's progress through the decode runtime."""

    request: Request  # possibly gateway-re-anchored
    steps_total: int
    tokens: list[np.ndarray] = field(default_factory=list)
    token_times: list[float] = field(default_factory=list)
    retries: int = 0

    @property
    def done(self) -> bool:
        return len(self.tokens) >= self.steps_total


class GenerationRuntime:
    """Serve autoregressive traces through mixed prefill/decode rounds.

    Parameters
    ----------
    config:
        Model shape; the decode cell weights derive from it.
    batcher:
        Round-cutting policy; a default
        :class:`~repro.workloads.batching.MixedContinuousBatcher` when
        omitted.
    retry / gateway / ladder / faults / telemetry:
        The same robustness knobs :class:`ServingRuntime` takes.  The
        default ladder is :data:`~repro.serving.degradation.DECODE_LEVELS`
        (batched paged varlen, then looped per-request pricing — same
        bits on both rungs).
    kv_capacity_tokens:
        KV arena size.  ``None`` sizes it to hold every admitted
        request's full trajectory (no eviction ever); smaller values
        exercise swap-out preemption and resume.
    kv_block_tokens:
        Tokens per KV block.
    weights:
        Decode cell weights; defaults to
        :func:`~repro.decoder.generation.init_decode_cell` at ``seed``.
    compute_outputs:
        When ``False`` the numeric plane is skipped entirely (cost-plane
        pricing only — much faster for large benches); outputs/token
        bits are then unavailable, but modelled times, outcomes and KV
        block accounting are unchanged (KV bookkeeping runs on lengths
        alone, never on the values).
    """

    def __init__(
        self,
        config: BertConfig,
        *,
        batcher: MixedContinuousBatcher | None = None,
        retry: RetryPolicy | None = None,
        gateway: AdmissionGateway | None = None,
        ladder: DegradationLadder | None = None,
        faults: FaultSpec = NO_FAULTS,
        device: DeviceSpec = A100_SPEC,
        seed: int = 0,
        use_graph: bool = True,
        kv_capacity_tokens: int | None = None,
        kv_block_tokens: int = DEFAULT_KV_BLOCK_TOKENS,
        weights: DecodeCellWeights | None = None,
        compute_outputs: bool = True,
        telemetry: Telemetry | None = None,
    ) -> None:
        self.config = config
        self.batcher = (
            batcher if batcher is not None else MixedContinuousBatcher()
        )
        self.retry = retry if retry is not None else RetryPolicy()
        self.gateway = gateway
        self.ladder = (
            ladder if ladder is not None else DegradationLadder(DECODE_LEVELS)
        )
        self.faults = faults
        self.device = device
        self.seed = seed
        self.graph_cache = GraphCache() if use_graph else None
        self.kv_capacity_tokens = kv_capacity_tokens
        self.kv_block_tokens = kv_block_tokens
        self.weights = (
            weights if weights is not None else init_decode_cell(config, seed)
        )
        self.compute_outputs = compute_outputs
        self.telemetry = telemetry
        #: the arena of the most recent run (inspection/tests)
        self.arena: PagedKVArena | None = None

    # ------------------------------------------------------------------

    def _new_ctx(self) -> ExecutionContext:
        return ExecutionContext(self.device)

    def prompt_for(self, request: Request) -> np.ndarray:
        """Deterministic ``[len, H]`` prompt, independent of batching."""
        rng = np.random.default_rng([self.seed, request.request_id])
        return rng.standard_normal(
            (request.seq_len, self.config.hidden_size)
        )

    def decode_steps_for(self, request: Request, max_context: int) -> int:
        """Tokens ``request`` actually gets under the context cap."""
        return max_decode_steps(
            request.seq_len,
            getattr(request, "decode_tokens", 1),
            max_context,
        )

    def estimate_service_rate(self, max_seq_len: int) -> float:
        """Modelled drain capacity in tokens/µs for the gateway DRR."""
        tile = max(self.batcher.effective_tiles())
        service = estimate_decode_round_tiled(
            self._new_ctx(),
            self.config,
            prefill_tile=tile,
            decode_batch=0,
            kv_tokens=0,
            max_seq_len=max_seq_len,
            block_tokens=self.kv_block_tokens,
        )
        return tile / service

    def _price_round(
        self,
        ctx: ExecutionContext,
        level: DegradationLevel,
        prefill_lens: list[int],
        prefill_tile: int,
        decode_contexts: list[int],
        max_seq_len: int,
    ) -> float:
        if level.decode_path == "looped":
            return estimate_decode_round_looped(
                ctx,
                self.config,
                np.asarray(prefill_lens, dtype=np.int64),
                np.asarray(decode_contexts, dtype=np.int64),
            )
        return estimate_decode_round_tiled(
            ctx,
            self.config,
            prefill_tile=prefill_tile if prefill_lens else 0,
            decode_batch=len(decode_contexts),
            kv_tokens=int(sum(decode_contexts)),
            max_seq_len=max_seq_len,
            block_tokens=self.kv_block_tokens,
            cache=self.graph_cache,
        )

    # ------------------------------------------------------------------

    def run(self, trace: ServingTrace) -> GenerationReport:
        """Replay ``trace``; every request gets exactly one outcome."""
        with use_telemetry(self.telemetry):
            return self._run(trace)

    def _run(self, trace: ServingTrace) -> GenerationReport:
        run = ServingCore(self, trace)
        settle = run.settle
        tel = run.tel
        config = self.config
        hidden = config.hidden_size
        heads = config.num_heads
        max_context = trace.max_seq_len
        for request in trace.requests:
            if request.seq_len > self.batcher.token_budget:
                raise TokenBudgetExceededError(
                    f"request {request.request_id} has {request.seq_len} "
                    f"prompt tokens, more than the "
                    f"{self.batcher.token_budget}-token budget"
                )
        if self.gateway is not None:
            admitted = sorted(
                (r for _, r in run.gateway_pass(self.estimate_service_rate)),
                key=lambda r: (r.arrival_us, r.request_id),
            )
        else:
            admitted = list(trace.requests)

        # -- the arena, sized to the admitted stream -------------------
        block = self.kv_block_tokens
        if self.kv_capacity_tokens is not None:
            capacity = self.kv_capacity_tokens
        else:
            # full-trajectory blocks per request: never any eviction
            blocks = sum(
                -(-(r.seq_len + self.decode_steps_for(r, max_context) - 1)
                  // block)
                for r in admitted
            )
            capacity = block * max(1, blocks)
        arena = PagedKVArena(
            hidden, capacity, block_tokens=block, dtype=np.float64
        )
        self.arena = arena

        states: dict[int, _GenState] = {}
        for request in admitted:
            if -(-request.seq_len // block) > arena.num_blocks:
                # the prompt alone can never fit the arena: refuse at
                # admission instead of deadlocking the eviction loop
                settle(
                    request, Outcome.SHED, REASON_ADMISSION, None, 0,
                    now_us=request.arrival_us,
                )
                continue
            states[request.request_id] = _GenState(
                request=request,
                steps_total=self.decode_steps_for(request, max_context),
            )

        pending: deque[Request] = deque(
            s.request
            for s in sorted(
                states.values(),
                key=lambda s: (s.request.arrival_us, s.request.request_id),
            )
        )
        waiting: list[Request] = []
        active: list[int] = []
        paused: list[int] = []
        busy = 0.0
        now = 0.0
        makespan = 0.0
        rounds = 0
        generated = 0
        weights = self.weights
        null_ctx = NullContext()

        def settle_served(state: _GenState, finish: float) -> None:
            rid = state.request.request_id
            settle(
                state.request, Outcome.SERVED, "",
                finish - state.request.arrival_us, state.retries,
                now_us=finish, token_times=tuple(state.token_times),
            )
            arena.free(rid)
            if rid in active:
                active.remove(rid)

        def charge_swap(tokens: int, name: str) -> None:
            """Run one K/V host<->device copy on the device clock."""
            nonlocal busy, now, makespan
            ctx = self._new_ctx()
            ctx.launch(_kv_swap_launch(tokens, hidden, name))
            busy += ctx.elapsed_us()
            now += ctx.elapsed_us()
            makespan = max(makespan, now)

        while pending or waiting or active or paused:
            while pending and pending[0].arrival_us <= now:
                waiting.append(pending.popleft())
            waiting = run.shed_expired(waiting, now)
            # resume preempted requests (oldest paused first) while their
            # blocks fit; the swap-in copy is priced, and the restored
            # K/V are bit-for-bit what was evicted
            while paused:
                rid = paused[0]
                need = -(-(states[rid].request.seq_len
                           + len(states[rid].tokens) - 1) // block)
                if need > arena.free_blocks:
                    break
                charge_swap(arena.swap_in(rid), "kv_swap_in")
                paused.pop(0)
                active.append(rid)
            round_ = self.batcher.plan_round(waiting, active, now)
            if round_ is None:
                if pending:
                    now = max(now, pending[0].arrival_us)
                    continue
                if paused and not active and not waiting:
                    # can't happen with a paused-fits-alone arena (the
                    # admission check refused larger prompts), but never
                    # spin silently
                    raise RuntimeError(
                        f"paused requests {paused} can never resume"
                    )
                break
            decode_ids = list(round_.decode_ids)
            prefills = list(round_.prefills)

            # -- KV pressure: evict the youngest active streams --------
            def blocks_required() -> int:
                need = sum(arena.blocks_needed(rid, 1) for rid in decode_ids)
                need += sum(-(-r.seq_len // block) for r in prefills)
                return need

            while blocks_required() > arena.free_blocks and active:
                victim = max(
                    active,
                    key=lambda rid: (
                        states[rid].request.arrival_us,
                        rid,
                    ),
                )
                charge_swap(arena.swap_out(victim), "kv_swap_out")
                active.remove(victim)
                paused.append(victim)
                if victim in decode_ids:
                    decode_ids.remove(victim)
                if tel is not None:
                    tel.metrics.counter(
                        metric_names.KV_EVICTIONS_TOTAL,
                        help="KV arena swap-out preemptions",
                    ).inc()
            while blocks_required() > arena.free_blocks and prefills:
                # even an empty pool can't host every prompt this round:
                # defer the least urgent admissions to a later round
                prefills.pop()
            if not decode_ids and not prefills:
                # everything this round was evicted or deferred.  The
                # eviction freed blocks (or a deferral shrank the ask),
                # so the next iteration's swap-in/plan makes progress:
                # the admission check guarantees any single prompt or
                # paused stream fits an otherwise-empty arena.
                continue

            prefill_lens = [r.seq_len for r in prefills]
            decode_contexts = [
                arena.context_len(rid) + 1 for rid in decode_ids
            ]
            rounds += 1

            # -- the attempt loop (cost plane) -------------------------
            price = partial(
                self._price_round,
                prefill_lens=prefill_lens,
                prefill_tile=round_.prefill_tile,
                decode_contexts=decode_contexts,
                max_seq_len=max_context,
            )
            start = now
            attempt = 0
            while True:
                ctx = self._new_ctx()
                service = run.attempt(
                    ctx, partial(price, level=self.ladder.level)
                )
                if service is not None:
                    break
                burnt = ctx.elapsed_us()
                busy += burnt
                now = start + burnt
                backoff = run.retry_after_fault(now, attempt)
                if backoff is None:
                    break
                start = now + backoff
                attempt += 1
            if service is None:
                # the retry budget is spent: the whole round fails
                for request in prefills:
                    settle(
                        request, Outcome.FAILED, REASON_RETRY_BUDGET, None,
                        attempt, now_us=now,
                    )
                    del states[request.request_id]
                waiting = [r for r in waiting if r.request_id in states]
                for rid in decode_ids:
                    settle(
                        states[rid].request, Outcome.FAILED,
                        REASON_RETRY_BUDGET, None,
                        states[rid].retries + attempt, now_us=now,
                    )
                    arena.free(rid)
                    active.remove(rid)
                    del states[rid]
                makespan = max(makespan, now)
                continue

            finish = start + service
            busy += service
            now = finish
            makespan = max(makespan, finish)

            # -- commit (numeric plane) --------------------------------
            # One packed QKV GEMM over every row in the round, then
            # per-request attention over arena-gathered K/V, then one
            # packed output GEMM.  KV state mutates only here — a
            # faulted attempt never touched it.
            if self.compute_outputs:
                segments = [self.prompt_for(r) for r in prefills]
                if decode_ids:
                    segments.append(
                        np.stack(
                            [states[rid].tokens[-1] for rid in decode_ids]
                        )
                    )
                packed = np.concatenate(segments) if segments else None
                qkv = gemm(
                    packed, weights.qkv_weight, bias=weights.qkv_bias,
                    ctx=null_ctx, name="decode_qkv", category="decode_gemm",
                )
                attn_rows = []
                offset = 0
                for request in prefills:
                    rid = request.request_id
                    seg = qkv[offset : offset + request.seq_len]
                    offset += request.seq_len
                    arena.append_rows(
                        rid,
                        seg[:, hidden : 2 * hidden],
                        seg[:, 2 * hidden :],
                    )
                    keys, values = arena.gathered(rid)
                    attn_rows.append(
                        attend_to_cache(
                            seg[-1, :hidden], keys, values, heads
                        )
                    )
                for rid in decode_ids:
                    row = qkv[offset]
                    offset += 1
                    arena.append_rows(
                        rid,
                        row[None, hidden : 2 * hidden],
                        row[None, 2 * hidden :],
                    )
                    keys, values = arena.gathered(rid)
                    attn_rows.append(
                        attend_to_cache(row[:hidden], keys, values, heads)
                    )
                out = gemm(
                    np.stack(attn_rows), weights.out_weight,
                    bias=weights.out_bias,
                    ctx=null_ctx, name="decode_out", category="decode_gemm",
                )
            else:
                out = None
                for request in prefills:
                    arena.append_rows(
                        request.request_id,
                        np.zeros((request.seq_len, hidden)),
                        np.zeros((request.seq_len, hidden)),
                    )
                for rid in decode_ids:
                    arena.append_rows(
                        rid, np.zeros((1, hidden)), np.zeros((1, hidden))
                    )

            prefilled = [r.request_id for r in prefills]
            waiting = [r for r in waiting if r.request_id not in prefilled]
            for i, rid in enumerate(prefilled + decode_ids):
                state = states[rid]
                state.tokens.append(
                    out[i] if out is not None else np.zeros(hidden)
                )
                state.token_times.append(finish)
                state.retries += attempt
                generated += 1
                if state.done:
                    settle_served(state, finish)
                elif i < len(prefilled):
                    active.append(rid)
            self.ladder.record_success(finish)
            if tel is not None:
                tel.tracer.set_now(finish)
                tel.metrics.counter(
                    metric_names.DECODE_TOKENS_TOTAL,
                    help="tokens generated by decode rounds",
                ).inc(len(prefills) + len(decode_ids))
                tel.metrics.histogram(
                    metric_names.KV_BLOCK_OCCUPANCY,
                    help="valid-token fraction of live KV blocks per round",
                    buckets=RATIO_BUCKETS,
                ).observe(arena.occupancy)
                tel.metrics.histogram(
                    metric_names.US_PER_TOKEN,
                    help="modelled service time per valid token (us)",
                    buckets=COUNT_BUCKETS,
                ).observe(service / max(1, round_.total_tokens))
                tel.tracer.instant(
                    "decode.round",
                    category="dispatch",
                    t_us=finish,
                    prefills=len(prefills),
                    decode=len(decode_ids),
                    tile=round_.prefill_tile or None,
                )

        if tel is not None:
            tel.metrics.gauge(
                metric_names.KV_BYTES_LIVE,
                help="modelled KV bytes live at the end of the replay",
            ).set(arena.live_bytes)
            tel.metrics.gauge(
                metric_names.KV_BYTES_PEAK,
                help="modelled peak KV bytes over the replay",
            ).set(arena.peak_live_bytes)
        shared = run.finish([busy], makespan)
        cache = self.graph_cache
        return GenerationReport(
            **shared,
            outputs={
                rid: np.stack(state.tokens)
                for rid, state in states.items()
                if state.tokens
                and run.outcomes[rid].outcome is Outcome.SERVED
                and self.compute_outputs
            },
            token_times={
                rid: tuple(state.token_times)
                for rid, state in states.items()
                if state.token_times
            },
            generated_tokens=generated,
            rounds=rounds,
            kv_stats={
                "capacity_tokens": float(arena.capacity_tokens),
                "peak_live_bytes": float(arena.peak_live_bytes),
                "evictions": float(arena.evictions),
                "swap_ins": float(arena.swap_ins),
            },
            graph_hits=cache.hits if cache else 0,
            graph_lookups=cache.hits + cache.misses if cache else 0,
        )


def generate_reference_outputs(
    runtime: GenerationRuntime,
    trace: ServingTrace,
) -> dict[int, np.ndarray]:
    """Looped per-request oracle outputs for every request in ``trace``.

    Each request runs alone through
    :func:`~repro.decoder.generation.generate_cell_reference` with the
    same deterministic prompt and step count the runtime uses — the
    bitwise target the batched paged path must reproduce.
    """
    from repro.decoder.generation import generate_cell_reference

    outputs: dict[int, np.ndarray] = {}
    for request in trace.requests:
        steps = runtime.decode_steps_for(request, trace.max_seq_len)
        outputs[request.request_id] = generate_cell_reference(
            runtime.weights,
            runtime.prompt_for(request),
            steps,
            runtime.config.num_heads,
        )
    return outputs

"""The request lifecycle both serving runtimes share.

:class:`~repro.serving.runtime.ServingRuntime` schedules encoder
dispatches and :class:`~repro.serving.generation.GenerationRuntime`
schedules prefill/decode rounds, but every request either of them sees
goes through the same lifecycle: the gateway pre-pass admits, rejects
or sheds it; a faulted attempt is retried with backoff until the retry
budget is spent; it settles exactly once with one outcome, which burns
its tenant's error budget and feeds telemetry; and the run ends by
checking that no request was lost.  :class:`ServingCore` holds one
replay's state for that lifecycle and its only implementation, so each
runtime is an adapter that keeps just its own scheduling loop.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Sequence

import numpy as np

from repro.gpusim.errors import TransientFault
from repro.gpusim.stream import ExecutionContext
from repro.serving.faults import FaultPlan
from repro.serving.gateway import QosClass
from repro.serving.report import Outcome, REASON_DEADLINE, RequestOutcome
from repro.telemetry import (
    COUNT_BUCKETS,
    DEFAULT_LATENCY_BUCKETS_US,
    REQUEST_CATEGORY,
)
from repro.telemetry import slo as metric_names
from repro.workloads import batching
from repro.workloads.serving import Request, ServingTrace


class ServingCore:
    """One replay's lifecycle state: faults, jitter, outcomes, telemetry.

    Built at the start of a run from either runtime (it reads
    ``ladder``, ``gateway``, ``retry``, ``faults``, ``seed``,
    ``telemetry`` and ``graph_cache``); resets the ladder.
    """

    def __init__(self, runtime, trace: ServingTrace) -> None:
        self.trace = trace
        self.ladder = runtime.ladder
        self.gateway = runtime.gateway
        self.retry = runtime.retry
        self.graph_cache = runtime.graph_cache
        self.ladder.reset()
        self.fault_plan = FaultPlan(runtime.faults, seed=runtime.seed)
        self.jitter_rng = np.random.default_rng([runtime.seed, 0x5E])
        self.outcomes: dict[int, RequestOutcome] = {}
        #: gateway-admitted requests by id, keyed to the *original*
        #: (pre-re-anchoring) request — settling always accounts against
        #: the original arrival and deadline
        self.originals: dict[int, Request] = {}
        #: per-SLO-tenant running [settled, bad] counts for budget burn
        self.burn_stats: dict[str, list[int]] = {}
        tel = runtime.telemetry
        if tel is not None and not tel.owns_current_thread():
            tel = None
        #: the run's telemetry, when this thread may record into it
        self.tel = tel

    # ------------------------------------------------------------------
    # settlement

    def settle(
        self,
        request: Request,
        outcome: Outcome,
        reason: str,
        latency_us: float | None,
        retries: int,
        *,
        now_us: float,
        level: str | None = None,
        token_times: tuple[float, ...] = (),
    ) -> None:
        """Record ``request``'s one outcome at simulated ``now_us``.

        ``latency_us`` is measured from the (possibly gateway-re-anchored)
        ``request``; the gateway wait is folded back in.  ``token_times``
        are a served decode stream's per-token finish instants.
        """
        orig = self.originals.get(request.request_id, request)
        if latency_us is not None and orig.arrival_us != request.arrival_us:
            # dispatches hold gateway-re-anchored requests; fold the
            # gateway queue wait back in so the recorded latency is
            # end-to-end from the original arrival
            latency_us += request.arrival_us - orig.arrival_us
        if orig.request_id in self.outcomes:
            raise RuntimeError(f"request {orig.request_id} settled twice")
        self.outcomes[orig.request_id] = RequestOutcome(
            request_id=orig.request_id,
            outcome=outcome,
            reason=reason,
            latency_us=latency_us,
            retries=retries,
            level=level if level is not None else self.ladder.level.name,
            tenant=orig.tenant,
        )
        # per-token streaming accounting: TTFT then inter-token gaps,
        # measured from the ORIGINAL arrival (gateway wait included)
        per_token: list[float] = []
        if token_times:
            gateway_wait = request.arrival_us - orig.arrival_us
            per_token = [token_times[0] - request.arrival_us + gateway_wait]
            per_token += [b - a for a, b in zip(token_times, token_times[1:])]
        self._burn_budget(orig, outcome, per_token, now_us)
        if self.tel is not None:
            self._record_settle(
                orig, outcome, reason, latency_us, retries, now_us, per_token
            )

    def _burn_budget(
        self,
        orig: Request,
        outcome: Outcome,
        per_token: list[float],
        now_us: float,
    ) -> None:
        """Count a settled request against its SLO tenant's error budget."""
        if self.gateway is None:
            return
        policy = self.gateway.policies.get(orig.tenant)
        if policy is None or policy.qos is not QosClass.LATENCY_SLO:
            return
        stats = self.burn_stats.setdefault(orig.tenant, [0, 0])
        stats[0] += 1
        budget = 1.0 - policy.slo_target
        bad = outcome is not Outcome.SERVED
        if not bad and policy.decode_slo_us is not None and per_token:
            # a served stream whose token cadence blew the tenant's
            # streaming SLO still burns the error budget
            late = sum(1 for v in per_token if v > policy.decode_slo_us)
            bad = late / len(per_token) > budget
        if bad:
            stats[1] += 1
        if budget > 0.0 and stats[1] / stats[0] > budget:
            # the tenant's error budget is burning: pressure the ladder
            # so *batch-class* work degrades (SLO work stays pinned to
            # the top rung)
            self.ladder.record_budget_burn(now_us)

    def _record_settle(
        self,
        request: Request,
        outcome: Outcome,
        reason: str,
        latency_us: float | None,
        retries: int,
        now_us: float,
        per_token: list[float],
    ) -> None:
        """Metrics + the request-root span for one settled request."""
        tel = self.tel
        metrics = tel.metrics
        metrics.counter(
            metric_names.REQUESTS_TOTAL,
            help="settled requests by final outcome",
            outcome=outcome.value,
        ).inc()
        if outcome is Outcome.SHED:
            metrics.counter(
                metric_names.SHED_TOTAL,
                help="shed requests by reason",
                reason=reason,
            ).inc()
        metrics.histogram(
            metric_names.REQUEST_RETRIES,
            help="transient-fault retries per request",
            buckets=COUNT_BUCKETS,
        ).observe(retries)
        end_us = max(request.arrival_us, now_us)
        served = outcome is Outcome.SERVED and latency_us is not None
        if served:
            metrics.histogram(
                metric_names.REQUEST_LATENCY_US,
                help="end-to-end latency of served requests (us)",
                buckets=DEFAULT_LATENCY_BUCKETS_US,
            ).observe(latency_us)
            end_us = request.arrival_us + latency_us
        deadline = request.deadline_us is not None
        met = deadline and served and latency_us <= request.deadline_us
        if deadline:
            metrics.counter(
                metric_names.DEADLINE_REQUESTS_TOTAL,
                help="settled requests that carried a deadline",
            ).inc()
            if met:
                metrics.counter(
                    metric_names.DEADLINE_MET_TOTAL,
                    help="deadline-carrying requests served in time",
                ).inc()
        if per_token:
            metrics.histogram(
                metric_names.TTFT_US,
                help="time to first generated token (us)",
                buckets=DEFAULT_LATENCY_BUCKETS_US,
            ).observe(per_token[0])
            for gap in per_token[1:]:
                metrics.histogram(
                    metric_names.INTER_TOKEN_US,
                    help="gap between consecutive tokens (us)",
                    buckets=DEFAULT_LATENCY_BUCKETS_US,
                ).observe(gap)
        root_attrs: dict = {}
        if request.tenant:
            # tenant-labelled mirrors of the serving series; new metric
            # names so the un-labelled global series (and everything
            # reading them) stay exactly as before
            tenant = request.tenant
            metrics.counter(
                metric_names.TENANT_REQUESTS_TOTAL,
                help="settled requests by tenant and final outcome",
                tenant=tenant,
                outcome=outcome.value,
            ).inc()
            if outcome is Outcome.SHED:
                metrics.counter(
                    metric_names.TENANT_SHED_TOTAL,
                    help="shed requests by tenant and reason",
                    tenant=tenant,
                    reason=reason,
                ).inc()
            if served:
                metrics.histogram(
                    metric_names.TENANT_REQUEST_LATENCY_US,
                    help="end-to-end served latency by tenant (us)",
                    buckets=DEFAULT_LATENCY_BUCKETS_US,
                    tenant=tenant,
                ).observe(latency_us)
            if deadline:
                metrics.counter(
                    metric_names.TENANT_DEADLINE_REQUESTS_TOTAL,
                    help="deadline-carrying settled requests by tenant",
                    tenant=tenant,
                ).inc()
                if met:
                    metrics.counter(
                        metric_names.TENANT_DEADLINE_MET_TOTAL,
                        help="deadline-carrying requests served in time, "
                        "by tenant",
                        tenant=tenant,
                    ).inc()
            for value in per_token:
                metrics.histogram(
                    metric_names.TENANT_DECODE_TOKEN_LATENCY_US,
                    help="per-token latency by tenant (us)",
                    buckets=DEFAULT_LATENCY_BUCKETS_US,
                    tenant=tenant,
                ).observe(value)
            # only multi-tenant traces grow the attr, so single-tenant
            # span dumps stay byte-identical to earlier releases
            root_attrs["tenant"] = tenant
        tel.tracer.add_span(
            "request",
            category=REQUEST_CATEGORY,
            start_us=request.arrival_us,
            end_us=end_us,
            request_id=request.request_id,
            seq_len=request.seq_len,
            outcome=outcome.value,
            reason=reason,
            retries=retries,
            **root_attrs,
        )

    def shed_for_deadline(
        self, request: Request, now_us: float, retries: int = 0
    ) -> None:
        """Shed ``request`` for its deadline; a ladder incident."""
        self.ladder.record_deadline_miss(now_us)
        self.settle(
            request, Outcome.SHED, REASON_DEADLINE, None, retries,
            now_us=now_us,
        )

    def shed_expired(
        self, requests: list[Request], now_us: float, retries: int = 0
    ) -> list[Request]:
        """Shed the requests whose deadline passed by ``now_us``."""
        alive, expired = batching.shed_expired(requests, now_us)
        for request in expired:
            self.shed_for_deadline(request, now_us, retries)
        return alive

    # ------------------------------------------------------------------
    # the gateway pre-pass

    def gateway_pass(
        self, estimate_service_rate: Callable[[int], float]
    ) -> list[tuple[QosClass, Request]]:
        """Run the trace through the gateway; settle what it turns away.

        Fills in the gateway's service rate from the runtime's cost
        model when it has none.  Rejections and sheds settle here, as
        do admitted requests whose deadline expired in the gateway
        queue.  Returns the other admitted requests, re-anchored to
        their release instant (deadline shortened by the wait) and
        tagged with their tenant's QoS class, in release order.
        """
        gateway = self.gateway
        tel = self.tel
        if gateway.service_rate is None:
            gateway.service_rate = estimate_service_rate(
                self.trace.max_seq_len
            )
        gate = gateway.process(self.trace)
        turned_away = [(Outcome.REJECTED, e) for e in gate.rejected]
        turned_away += [(Outcome.SHED, e) for e in gate.shed]
        for outcome, event in turned_away:
            rejected = outcome is Outcome.REJECTED
            if tel is not None:
                tel.tracer.set_now(event.t_us)
                if rejected:
                    tel.metrics.counter(
                        metric_names.GATEWAY_REJECTED_TOTAL,
                        help="gateway rejections by tenant and reason",
                        tenant=event.request.tenant,
                        reason=event.reason,
                    ).inc()
                if rejected and event.retry_after_us is not None and (
                    np.isfinite(event.retry_after_us)
                ):
                    tel.metrics.histogram(
                        metric_names.GATEWAY_RETRY_AFTER_US,
                        help="retry-after attached to rate-limit "
                        "rejections (us)",
                        buckets=DEFAULT_LATENCY_BUCKETS_US,
                    ).observe(event.retry_after_us)
                tel.tracer.instant(
                    "gateway.reject" if rejected else "gateway.shed",
                    category="gateway",
                    t_us=event.t_us,
                    request_id=event.request.request_id,
                    tenant=event.request.tenant,
                    reason=event.reason,
                )
            self.settle(
                event.request, outcome, event.reason, None, 0,
                now_us=event.t_us,
            )
        admitted: list[tuple[QosClass, Request]] = []
        for sched in gate.admitted:
            orig = sched.request
            self.originals[orig.request_id] = orig
            wait = sched.release_us - orig.arrival_us
            if tel is not None:
                tel.tracer.set_now(sched.release_us)
                tel.metrics.histogram(
                    metric_names.GATEWAY_RELEASE_WAIT_US,
                    help="gateway queue wait of admitted requests (us)",
                    buckets=DEFAULT_LATENCY_BUCKETS_US,
                ).observe(wait)
            deadline = orig.deadline_us
            if deadline is not None:
                deadline = deadline - wait
                if deadline <= 0.0:
                    # the deadline expired while queued at the gateway
                    self.shed_for_deadline(orig, sched.release_us)
                    continue
            anchored = replace(
                orig, arrival_us=sched.release_us, deadline_us=deadline
            )
            admitted.append((gateway.qos_of(orig.tenant), anchored))
        return admitted

    # ------------------------------------------------------------------
    # faulted attempts

    def attempt(
        self,
        ctx: ExecutionContext,
        price: Callable[[ExecutionContext], float],
    ) -> float | None:
        """Price one attempt on ``ctx`` under the run's fault plan.

        Returns the modelled service time, or ``None`` when an injected
        transient fault struck; ``ctx.elapsed_us()`` is then the time
        the chain burnt up to the faulted kernel.
        """
        try:
            return price(self.fault_plan.install(ctx))
        except TransientFault:
            return None

    def retry_after_fault(self, now_us: float, attempt: int) -> float | None:
        """Account a fault of zero-based ``attempt`` at ``now_us``.

        Feeds the ladder and the fault counter; returns the backoff
        before the retry, or ``None`` when the retry budget is spent.
        """
        tel = self.tel
        if tel is not None:
            tel.metrics.counter(
                metric_names.FAULTS_TOTAL,
                help="transient faults injected into attempts",
            ).inc()
        self.ladder.record_fault(now_us)
        if attempt >= self.retry.max_retries:
            return None
        backoff = self.retry.backoff_us(attempt, self.jitter_rng)
        if tel is not None:
            tel.metrics.counter(
                metric_names.RETRIES_TOTAL,
                help="dispatch retries after transient faults",
            ).inc()
        return backoff

    # ------------------------------------------------------------------

    def finish(
        self,
        busy: Sequence[float],
        makespan_us: float,
        *,
        steals: int = 0,
    ) -> dict:
        """End-of-run gauges and the no-silent-loss check.

        ``busy`` is the modelled busy time per device.  Returns the
        report fields every runtime shares, outcomes in trace order.
        """
        busy_us = sum(busy)
        devices = len(busy)
        tel = self.tel
        if tel is not None:
            tel.tracer.set_now(makespan_us)
            gauges = tel.metrics
            gauges.gauge(
                metric_names.GPU_BUSY_US,
                help="modelled GPU busy time (us)",
            ).set(busy_us)
            gauges.gauge(
                metric_names.MAKESPAN_US,
                help="modelled makespan of the replay (us)",
            ).set(makespan_us)
            gauges.gauge(
                metric_names.GPU_UTILIZATION,
                help="busy time over makespan, across all replicas",
            ).set(busy_us / (makespan_us * devices) if makespan_us else 0.0)
            if devices > 1:
                # per-device series only exist on multi-device runs, so
                # a single-device registry is unchanged byte for byte
                for dev, dev_busy in enumerate(busy):
                    gauges.gauge(
                        metric_names.DEVICE_BUSY_US,
                        help="modelled busy time per device (us)",
                        device=str(dev),
                    ).set(dev_busy)
                mean_busy = busy_us / devices
                gauges.gauge(
                    metric_names.DEVICE_IMBALANCE,
                    help="max over mean per-device busy time",
                ).set(max(busy) / mean_busy if mean_busy else 0.0)
                gauges.counter(
                    metric_names.STEALS_TOTAL,
                    help="dispatches run away from their routed device",
                ).inc(steals)
            if self.graph_cache is not None:
                cache = self.graph_cache
                lookups = cache.hits + cache.misses
                gauges.gauge(
                    metric_names.GRAPH_REPLAY_HIT_RATE,
                    help="launch-graph cache hit rate over the run",
                ).set(cache.hits / lookups if lookups else 0.0)

        # -- the no-silent-loss contract, enforced ----------------------
        requests = self.trace.requests
        missing = [
            r.request_id for r in requests if r.request_id not in self.outcomes
        ]
        if missing:
            raise RuntimeError(
                f"serving runtime lost requests {missing}: every request "
                "must settle as served/shed/failed/rejected"
            )
        return dict(
            outcomes=tuple(self.outcomes[r.request_id] for r in requests),
            transitions=tuple(self.ladder.transitions),
            injected_faults=tuple(self.fault_plan.injected),
            top_level=self.ladder.levels[0].name,
            gpu_busy_us=busy_us,
            makespan_us=makespan_us,
            device_busy_us=tuple(busy),
            work_steals=steals,
        )

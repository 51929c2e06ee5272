"""Per-layer metrics: what the traced run wraps and how it reports it.

Every per-layer metric is printed on every workload; a layer a workload
never calls reads 0.  ``*_ms`` metrics are inclusive host time of the
named calls per benchmark operation (one forward, one trace replay or
one generation run); ``<layer>.self_ms`` is the layer's exclusive time
per operation (span duration minus child spans).
"""

from __future__ import annotations

from typing import Any

from tracer import LAYERS, Tracer

# (unit) of every per-layer metric, in report order
PER_LAYER: dict[str, str] = {
    # host clock, end to end: medians over the untraced timed ops
    "host.tokens_per_s": "1/s",
    "host.requests_per_s": "1/s",
    "host.op_ms": "ms",
    # core
    "core.pack_ms": "ms",
    "core.layer_self_ms": "ms",
    "core.fill_ratio": "ratio",
    "core.valid_tokens": "count",
    "core.slots": "count",
    # kernels
    "kernels.gemm_ms": "ms",
    "kernels.gemm_calls": "count",
    "kernels.gelu_ms": "ms",
    "kernels.layernorm_ms": "ms",
    "kernels.softmax_ms": "ms",
    "kernels.flops_per_fwd": "flop",
    "kernels.dram_bytes_per_fwd": "B",
    # attention
    "attention.mha_ms": "ms",
    "attention.short_calls": "count",
    "attention.long_calls": "count",
    # gpusim
    "gpusim.launches_per_fwd": "count",
    "gpusim.price_ms": "ms",
    "gpusim.replay_ms": "ms",
    "gpusim.replayed_launches": "count",
    "gpusim.graph_hit_rate": "ratio",
    "gpusim.graph_lookups": "count",
    "gpusim.modelled_fwd_us": "us",
    # serving
    "serving.fault_hook_ms": "ms",
    "serving.gateway_ms": "ms",
    "serving.runtime_self_ms": "ms",
    "serving.generation_self_ms": "ms",
    "serving.queue_wait_p50_ms": "ms",
    "serving.queue_wait_p99_ms": "ms",
    "serving.shed": "count",
    "serving.rejected": "count",
    "serving.failed": "count",
    "serving.degraded": "count",
    "serving.retries": "count",
    "serving.gpu_busy_share": "share",
    "serving.slo_p50_ms": "ms",
    "serving.slo_p99_ms": "ms",
    "serving.slo_attainment": "share",
    "serving.slo_max_load": "share",
    # workloads
    "workloads.plan_ms": "ms",
    "workloads.dispatches": "count",
    "workloads.tile_fill": "ratio",
    # decoder
    "decoder.kv_gather_ms": "ms",
    "decoder.kv_append_ms": "ms",
    "decoder.kv_swap_ms": "ms",
    "decoder.attend_ms": "ms",
    "decoder.evictions": "count",
    "decoder.swap_ins": "count",
    "decoder.kv_peak_bytes": "B",
    "decoder.kv_occupancy": "ratio",
    "decoder.kv_capacity_tokens": "count",
    "decoder.rounds": "count",
    "decoder.decode_batch_mean": "count",
    "decoder.ttft_p50_us": "us",
    "decoder.ttft_p90_us": "us",
    "decoder.itl_p50_us": "us",
    "decoder.itl_p99_us": "us",
    # self time per layer, plus the benchmark's own share
    **{f"{layer}.self_ms": "ms" for layer in LAYERS},
    "bench.self_ms": "ms",
    # tracing cost
    "trace.untraced_op_ms": "ms",
    "trace.traced_op_ms": "ms",
    "trace.overhead_share": "share",
    "trace.spans_per_op": "count",
}


#: per-layer metrics where a higher value is better; lower elsewhere
HIGHER_IS_BETTER = frozenset({
    "host.tokens_per_s",
    "host.requests_per_s",
    "core.fill_ratio",
    "core.valid_tokens",
    "gpusim.graph_hit_rate",
    "serving.gpu_busy_share",
    "serving.slo_attainment",
    "serving.slo_max_load",
    "workloads.tile_fill",
    "decoder.kv_occupancy",
    "decoder.decode_batch_mean",
})


def _count_launch(tracer: Tracer, args: tuple, result: Any) -> None:
    launch = args[1]
    tracer.counts["launches"] += 1
    tracer.counts["flops"] += launch.flops
    tracer.counts["dram_bytes"] += launch.dram_bytes


def _count_replay(tracer: Tracer, args: tuple, result: Any) -> None:
    graph = args[0]
    tracer.counts["launches"] += len(graph.launches)
    tracer.counts["replayed_launches"] += len(graph.launches)
    tracer.counts["flops"] += sum(x.flops for x in graph.launches)
    tracer.counts["dram_bytes"] += sum(x.dram_bytes for x in graph.launches)


def _count_cut(tracer: Tracer, args: tuple, dispatch: Any) -> None:
    tracer.counts["dispatches"] += 1
    tracer.counts["tile_tokens"] += dispatch.total_tokens
    tracer.counts["tile_slots"] += dispatch.tile


def _count_round(tracer: Tracer, args: tuple, round_: Any) -> None:
    if round_ is None:
        return
    tracer.counts["dispatches"] += 1
    if round_.prefill_tile:
        tracer.counts["tile_tokens"] += round_.prefill_tokens
        tracer.counts["tile_slots"] += round_.prefill_tile


def _sample_occupancy(tracer: Tracer, args: tuple, result: Any) -> None:
    tracer.samples["kv_occupancy"].append(args[0].occupancy)


# (target, layer, span name, observer).  Targets are "module:attr" or
# "module:Class.method", named where the caller resolves them.
PATCHES: tuple[tuple[str, str, str, Any], ...] = (
    ("repro.core.model:BertEncoderModel.forward", "core", "forward", None),
    ("repro.core.model:packing_from_mask", "core", "pack", None),
    ("repro.core.model:pack", "core", "pack", None),
    ("repro.core.model:unpack", "core", "pack", None),
    ("repro.core.model:encoder_layer_packed", "core", "layer", None),
    ("repro.core.encoder:tile_gemm", "kernels", "gemm", None),
    ("repro.core.encoder:gemm", "kernels", "gemm", None),
    ("repro.serving.generation:gemm", "kernels", "gemm", None),
    ("repro.kernels.gemm:apply_gelu", "kernels", "gelu", None),
    ("repro.core.encoder:add_bias_gelu", "kernels", "gelu", None),
    ("repro.core.encoder:add_bias_residual_layernorm",
     "kernels", "layernorm", None),
    ("repro.core.encoder:add_bias_residual_layernorm_unfused",
     "kernels", "layernorm", None),
    ("repro.attention.fused_short:softmax_reference",
     "kernels", "softmax", None),
    ("repro.attention.bucketed:softmax_lastaxis_inplace",
     "kernels", "softmax", None),
    ("repro.attention.fused_long:partial_softmax_stats",
     "kernels", "softmax", None),
    ("repro.attention.fused_long:apply_softmax_transform",
     "kernels", "softmax", None),
    ("repro.decoder.generation:softmax_reference",
     "kernels", "softmax", None),
    ("repro.core.encoder:byte_mha", "attention", "mha", None),
    ("repro.attention.dispatch:fused_short_mha", "attention", "short", None),
    ("repro.attention.dispatch:fused_long_mha", "attention", "long", None),
    ("repro.gpusim.stream:ExecutionContext.launch",
     "gpusim", "price", _count_launch),
    ("repro.gpusim.graph:LaunchGraph.replay",
     "gpusim", "replay", _count_replay),
    ("repro.serving.faults:FaultPlan.on_launch",
     "serving", "fault_hook", None),
    ("repro.serving.gateway:AdmissionGateway.process",
     "serving", "gateway", None),
    ("repro.serving.runtime:ServingRuntime.run", "serving", "runtime", None),
    ("repro.serving.generation:GenerationRuntime.run",
     "serving", "generation", None),
    ("repro.workloads.batching:ContinuousBatcher.plan",
     "workloads", "plan", None),
    # nested in ``plan``: a name of its own keeps plan_ms from counting
    # cut time twice
    ("repro.workloads.batching:ContinuousBatcher._cut",
     "workloads", "cut", _count_cut),
    ("repro.workloads.batching:MixedContinuousBatcher.plan_round",
     "workloads", "plan", _count_round),
    ("repro.decoder.paged_kv:PagedKVArena.gathered",
     "decoder", "kv_gather", None),
    ("repro.decoder.paged_kv:PagedKVArena.append_rows",
     "decoder", "kv_append", _sample_occupancy),
    ("repro.decoder.paged_kv:PagedKVArena.swap_out",
     "decoder", "kv_swap", None),
    ("repro.decoder.paged_kv:PagedKVArena.swap_in",
     "decoder", "kv_swap", None),
    ("repro.serving.generation:attend_to_cache", "decoder", "attend", None),
)


def install(tracer: Tracer) -> None:
    for target, layer, name, observe in PATCHES:
        tracer.patch(target, layer, name, observe)


def traced_metrics(tracer: Tracer, ops: int) -> dict[str, float]:
    """Per-operation layer metrics from one traced pass of ``ops`` ops."""
    inclusive, own, layer_own, calls = tracer.summarize()

    def ms(name: str, totals: dict = inclusive) -> float:
        return totals.get(name, 0.0) * 1000.0 / ops

    counts = tracer.counts
    out = {
        "core.pack_ms": ms("pack"),
        "kernels.gemm_ms": ms("gemm"),
        "kernels.gemm_calls": calls.get("gemm", 0) / ops,
        "kernels.gelu_ms": ms("gelu"),
        "kernels.layernorm_ms": ms("layernorm"),
        "kernels.softmax_ms": ms("softmax"),
        "attention.mha_ms": ms("mha"),
        "attention.short_calls": calls.get("short", 0) / ops,
        "attention.long_calls": calls.get("long", 0) / ops,
        "gpusim.price_ms": ms("price"),
        "gpusim.replay_ms": ms("replay"),
        "gpusim.replayed_launches": counts["replayed_launches"] / ops,
        "gpusim.launches_per_fwd": counts["launches"] / ops,
        "kernels.flops_per_fwd": counts["flops"] / ops,
        "kernels.dram_bytes_per_fwd": counts["dram_bytes"] / ops,
        "serving.fault_hook_ms": ms("fault_hook"),
        "serving.gateway_ms": ms("gateway"),
        "workloads.plan_ms": ms("plan"),
        "workloads.dispatches": counts["dispatches"] / ops,
        "workloads.tile_fill": counts["tile_tokens"] / counts["tile_slots"]
        if counts["tile_slots"]
        else 0.0,
        "decoder.kv_gather_ms": ms("kv_gather"),
        "decoder.kv_append_ms": ms("kv_append"),
        "decoder.kv_swap_ms": ms("kv_swap"),
        "decoder.attend_ms": ms("attend"),
        "trace.spans_per_op": tracer.span_count / ops,
    }
    occupancy = tracer.samples["kv_occupancy"]
    out["decoder.kv_occupancy"] = (
        sum(occupancy) / len(occupancy) if occupancy else 0.0
    )
    for layer in (*LAYERS, "bench"):
        out[f"{layer}.self_ms"] = ms(layer, layer_own)
    out["core.layer_self_ms"] = ms("layer", own)
    out["serving.runtime_self_ms"] = ms("runtime", own)
    out["serving.generation_self_ms"] = ms("generation", own)
    return out


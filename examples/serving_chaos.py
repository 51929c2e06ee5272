"""Chaos serving: surviving kernel faults, deadlines and overload.

The paper's whole motivation is online serving — and online means things
fail.  This example replays one seeded request trace three ways:

1. a clean replay (no faults) as the baseline;
2. a chaos replay with ~10% transient faults injected into the fused
   attention kernels, showing retry/backoff and the degradation ladder
   stepping dispatch onto conservative kernels and recovering;
3. an overload replay with tight deadlines and admission control,
   showing early rejection and deadline shedding instead of late
   timeouts.

Every request is accounted for — served, shed, or failed — and the
chaos replay's served outputs are bit-identical to the clean replay's
(the attention fallbacks compute the same function).

The chaos replay runs under full telemetry: it prints the SLO summary
(availability, error-budget burn, deadline attainment) computed from the
metrics registry, and exports the merged request-span + kernel timeline
as a Chrome/Perfetto trace — telemetry observes the replay without
perturbing a single bit of it.

Run:  python examples/serving_chaos.py
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import numpy as np

from repro.core.config import BertConfig
from repro.core.model import BertEncoderModel
from repro.gpusim.trace import write_telemetry_trace
from repro.serving import (
    AdmissionController,
    DegradationLadder,
    FaultSpec,
    NO_FAULTS,
    ServingRuntime,
)
from repro.telemetry import SloPolicy, SloReport, Telemetry
from repro.workloads.batching import TimeoutBatcher
from repro.workloads.serving import make_trace

CONFIG = BertConfig(num_heads=4, head_size=16, num_layers=2)
SEED = 7


def build_runtime(faults: FaultSpec, **kwargs) -> ServingRuntime:
    return ServingRuntime(
        CONFIG,
        batcher=TimeoutBatcher(batch_size=8, timeout_us=2000.0),
        ladder=DegradationLadder(
            trip_threshold=2, window_us=20_000.0, cooldown_us=15_000.0
        ),
        faults=faults,
        numerics=BertEncoderModel(CONFIG, seed=SEED),
        seed=SEED,
        **kwargs,
    )


def main() -> None:
    trace = make_trace(
        120, 128, mean_interarrival_us=350.0, seed=SEED
    )

    print("=== clean replay ===")
    clean = build_runtime(NO_FAULTS).run(trace)
    print(clean.render_text())

    print("\n=== chaos replay: ~10% transient faults on fused kernels ===")
    chaos_spec = FaultSpec(
        launch_failure_rate=0.06,
        transient_oom_rate=0.04,
        slow_rate=0.05,
        slow_factor=4.0,
        target_prefixes=("fused_mha", "fmha_"),
    )
    tel = Telemetry()
    chaos = build_runtime(chaos_spec, telemetry=tel).run(trace)
    print(chaos.render_text())
    print(SloReport.from_registry(tel.metrics, SloPolicy()).render_text())

    both = sorted(set(clean.outputs) & set(chaos.outputs))
    identical = all(
        np.array_equal(clean.outputs[rid], chaos.outputs[rid])
        for rid in both
    )
    print(
        f"\nserved outputs bit-identical to the clean replay: "
        f"{identical} ({len(both)} requests compared)"
    )

    trace_path = Path(tempfile.gettempdir()) / "serving_chaos_trace.json"
    write_telemetry_trace(tel, trace_path)
    print(f"chaos replay telemetry trace written to {trace_path}")

    print("\n=== overload replay: tight deadlines + admission control ===")
    overload_trace = make_trace(
        120, 128, mean_interarrival_us=15.0, seed=SEED, deadline_us=1200.0
    )
    overload = build_runtime(
        NO_FAULTS, admission=AdmissionController(high_water_us=1200.0)
    ).run(overload_trace)
    print(overload.render_text())


if __name__ == "__main__":
    main()

"""Self-test of the benchmark on tiny shapes of every workload.

    python3 perfbench/selftest.py

Checks, for each workload at a shape that runs in seconds:

* every metric named in ``BENCHMARK.json`` is printed with its unit, on
  the untraced run (end-to-end) and on the traced run (per-layer);
* a different seed changes the inputs;
* the same seed reproduces the modelled metrics and the outcome logs
  exactly;
* the correctness gates fail on a corrupted output.

Exits 1 on the first failed check.
"""

from __future__ import annotations

import json
import sys

import run

run._import_package()


import layers  # noqa: E402
from scenarios import (  # noqa: E402
    DecodeWorkload,
    EncoderWorkload,
    ServeWorkload,
    WORKLOADS,
)

TINY = {
    "encoder-short": EncoderWorkload(
        "encoder-short", batch=3, max_seq_len=32, layers=2
    ),
    "encoder-long": EncoderWorkload(
        "encoder-long", batch=2, max_seq_len=48, layers=2
    ),
    "serve-tenants": ServeWorkload(
        horizon_us=40_000.0, grid_horizon_us=20_000.0, layers=2,
        load_grid=(0.1, 0.2),
    ),
    "decode-evict": DecodeWorkload(
        requests=10, max_seq_len=32, decode_tokens=4,
        kv_capacity_tokens=64, heads=2, head_size=16,
    ),
}

#: metrics that must repeat exactly for one seed (modelled or counted)
MODELLED = ("ok_share", "modelled_us_per_token")


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")


def inputs_of(workload, state) -> bytes:
    if isinstance(workload, EncoderWorkload):
        return b"".join(
            b.x.tobytes() + b.mask.tobytes() for b in state.batches
        )
    return repr(state.trace.requests).encode()


def corrupted_records(workload, state) -> list[dict]:
    """Run one op with a broken output or log, so the gates must fire."""
    if isinstance(workload, ServeWorkload):
        state.warm_outcomes = state.warm_outcomes[1:]
    records = [workload.record(state, workload.op(state, 0))]
    if isinstance(workload, EncoderWorkload):
        state.outputs[0][0, 0, 0] += 1.0
    elif isinstance(workload, DecodeWorkload):
        rid = min(state.outputs)
        state.outputs[rid] = state.outputs[rid] + 1e-9
    return records


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    e2e_units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    check(
        [w["name"] for w in spec["workloads"]] == list(WORKLOADS),
        "BENCHMARK.json workloads differ from scenarios.WORKLOADS",
    )
    check(e2e_units == run.END_TO_END, "end-to-end metrics differ")
    check(layer_units == layers.PER_LAYER, "per-layer metrics differ")
    check(
        all(
            (m["better"] == "higher") == (m["name"] in layers.HIGHER_IS_BETTER)
            for m in spec["per_layer"]
        ),
        "per-layer 'better' directions differ",
    )
    check(set(TINY) == set(WORKLOADS), "a workload has no tiny shape")

    for name, workload in TINY.items():
        untraced = run.measure(workload, 0, 0.01, trace=False)
        check(not untraced["failures"], f"{name}: {untraced['failures']}")
        line = run.result_line(untraced, trace=False)
        check(
            {k: v["unit"] for k, v in line["metrics"].items()} == e2e_units,
            f"{name}: untraced run does not print every end-to-end metric",
        )
        check(
            all(v["value"] > 0 for v in line["metrics"].values()),
            f"{name}: an end-to-end metric reads 0",
        )
        traced = run.measure(workload, 0, 0.01, trace=True)
        line = run.result_line(traced, trace=True)
        check(
            {k: v["unit"] for k, v in line["metrics"].items()} == layer_units,
            f"{name}: traced run does not print every per-layer metric",
        )
        for key in MODELLED:
            check(
                untraced["end_to_end"][key] == traced["end_to_end"][key],
                f"{name}: {key} differs between two runs of seed 0",
            )
        counted = [
            k for k in untraced["counters"] if not k.startswith("host.")
        ]
        check(
            all(
                untraced["counters"][k] == traced["counters"][k]
                for k in counted
            ),
            f"{name}: counters differ between two runs of seed 0",
        )

        a, b = workload.build(0), workload.build(0)
        c = workload.build(1)
        check(inputs_of(workload, a) == inputs_of(workload, b),
              f"{name}: seed 0 inputs are not reproducible")
        check(inputs_of(workload, a) != inputs_of(workload, c),
              f"{name}: seed 1 gives the same inputs as seed 0")
        if not isinstance(workload, EncoderWorkload):
            workload.warm(a)
            workload.warm(b)
            check(a.warm_outcomes == b.warm_outcomes,
                  f"{name}: outcome logs differ for one seed")

        records = corrupted_records(workload, a)
        check(workload.check(a, records)[0] != [],
              f"{name}: gates pass a corrupted output")
        print(f"selftest {name}: ok")
    print("selftest: all checks hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())

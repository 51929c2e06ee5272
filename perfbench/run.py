"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload encoder-short --seed 0 \
        --seconds 10 --trace 0

Run from the root of a checkout; the package is imported from ``src/``
of that checkout and nowhere else.  The run builds the workload from
``--seed``, times operations for ``--seconds`` seconds, checks the
outputs, prints a human-readable table and, as its last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones of ``BENCHMARK.json``;
with ``--trace 1`` the run times the same operations again with every
layer's public functions wrapped (see ``layers.py``) and reports the
per-layer metrics and the tracing overhead instead.  Any failed
correctness gate makes the exit code 1.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: builds of the program and its inputs per run; set-up reports the median
SETUP_REPEATS = 3

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_share": "share",
    "modelled_us_per_token": "us",
}


def _import_package() -> None:
    """Put this checkout's ``src/`` first on the path, or refuse to run."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no repro package under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise SystemExit(
            f"perfbench: imported repro from {repro.__file__}, not {SRC}"
        )


def timed_ops(workload, state, seconds: float, min_ops: int) -> tuple:
    """Run ``op`` until ``seconds`` have passed and ``min_ops`` ran."""
    records, times = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        result = workload.op(state, len(records))
        times.append(time.perf_counter() - t0)
        records.append(workload.record(state, result))
        result = None
        if time.perf_counter() - start >= seconds and len(records) >= min_ops:
            return records, times


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    """One run of ``workload``: set-up, timed ops, optional traced pass,
    correctness gates.  Returns metrics, details and gate failures."""
    import layers
    from tracer import Tracer

    import_s = time.perf_counter() - _START
    build_s = []
    state = None
    for _ in range(SETUP_REPEATS):
        state = None  # free the previous build so only one is resident
        t0 = time.perf_counter()
        state = workload.build(seed)
        build_s.append(time.perf_counter() - t0)
    t0 = time.perf_counter()
    workload.warm(state)
    warm_s = time.perf_counter() - t0

    records, times = timed_ops(workload, state, seconds, workload.min_ops)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    metrics = {
        "setup_s": import_s + statistics.median(build_s) + warm_s,
        "peak_rss_mb": peak_rss_mb,
        "ok_share": None,  # set once the gates have run
        **workload.end_to_end(state, records),
    }
    info = {
        "import_s": (import_s, "s"),
        "build_s": (statistics.median(build_s), "s"),
        "warm_s": (warm_s, "s"),
        "ops": (len(records), "count"),
        **workload.extras(state, records),
    }
    # host-clock throughput: medians over the timed ops
    counters = {
        "host.tokens_per_s": statistics.median(
            r["tokens"] / t for r, t in zip(records, times)
        ),
        "host.requests_per_s": statistics.median(
            r["requests"] / t for r, t in zip(records, times)
        ),
        "host.op_ms": statistics.median(times) * 1000.0,
        **workload.counters(state, records),
    }
    per_layer = dict.fromkeys(layers.PER_LAYER, 0.0)
    per_layer.update(counters)

    if trace:
        tracer = Tracer()
        layers.install(tracer)
        traced_times = []
        try:
            for i in range(len(records)):
                with tracer.root(i):
                    t0 = time.perf_counter()
                    result = workload.op(state, i)
                    traced_times.append(time.perf_counter() - t0)
                workload.record(state, result)
                result = None
        finally:
            tracer.unpatch()
        per_layer.update(layers.traced_metrics(tracer, len(traced_times)))
        untraced = sum(times) / len(times)
        traced = sum(traced_times) / len(traced_times)
        per_layer["trace.untraced_op_ms"] = untraced * 1000.0
        per_layer["trace.traced_op_ms"] = traced * 1000.0
        per_layer["trace.overhead_share"] = traced / untraced - 1.0
        per_layer.update(workload.traced_extras(seed))
        tracer.write(
            ROOT / "perfbench" / "out" / f"spans-{workload.name}.tsv.gz"
        )

    failures, wrong_outputs = workload.check(state, records)
    attempted = sum(r["requests"] for r in records)
    failed = sum(r.get("failed", 0) for r in records) + wrong_outputs
    refused = sum(r.get("refused", 0) for r in records)
    metrics["ok_share"] = 1.0 - (refused + failed) / attempted
    return {
        "failures": failures,
        "attempted": attempted,
        "failed": failed,
        "end_to_end": metrics,
        "info": info,
        "per_layer": per_layer,
        "counters": counters,
    }


def _table(title: str, rows: dict) -> None:
    print(f"== {title} ==")
    for key, (value, unit) in rows.items():
        print(f"  {key:<32} {value:>18.6g} {unit}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    _import_package()
    from layers import PER_LAYER
    from scenarios import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    result = measure(
        WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace)
    )

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    _table(
        "end to end",
        {k: (v, END_TO_END[k]) for k, v in result["end_to_end"].items()},
    )
    _table("run details", result["info"])
    # untraced runs only have the counters read from public state
    _table(
        "per layer" if args.trace else "per-layer counters",
        {
            k: (v, PER_LAYER[k])
            for k, v in result["per_layer"].items()
            if args.trace or k in result["counters"]
        },
    )
    for failure in result["failures"]:
        print(f"correctness gate FAILED: {failure}", file=sys.stderr)
    print(json.dumps(result_line(result, bool(args.trace))))
    return 1 if result["failures"] else 0


def result_line(result: dict, trace: bool) -> dict:
    """The JSON object the run prints last."""
    from layers import PER_LAYER

    chosen = result["per_layer"] if trace else result["end_to_end"]
    units = PER_LAYER if trace else END_TO_END
    return {
        "correct": not result["failures"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            k: {"value": v, "unit": units[k]} for k, v in chosen.items()
        },
    }


if __name__ == "__main__":
    sys.exit(main())

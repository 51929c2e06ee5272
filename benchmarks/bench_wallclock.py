#!/usr/bin/env python
"""Wall-clock benchmark entry point.

Times a 12-layer BERT forward (batch 16, max_seq_len 256, alpha 0.6,
fused preset by default) and its attention and packing hot paths against
their per-unit references, and writes ``BENCH_wallclock.json``.

Usage::

    PYTHONPATH=src python benchmarks/bench_wallclock.py [--quick] [--out PATH]

Equivalent to ``repro bench``; see that subcommand for all knobs.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.bench.wallclock import (  # noqa: E402
    QUICK_OVERRIDES,
    format_summary,
    run_wallclock_bench,
    write_bench_json,
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--batch", type=int, default=16)
    parser.add_argument("--max-seq-len", type=int, default=256)
    parser.add_argument("--alpha", type=float, default=0.6)
    parser.add_argument("--layers", type=int, default=12)
    parser.add_argument("--preset", default="fused MHA")
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--quick",
        action="store_true",
        help="tiny-shape smoke run (CI): overrides batch/seq/layers/repeats",
    )
    parser.add_argument(
        "--out",
        default="BENCH_wallclock.json",
        help="output JSON path (default: BENCH_wallclock.json)",
    )
    args = parser.parse_args(argv)

    kwargs = dict(
        batch=args.batch,
        max_seq_len=args.max_seq_len,
        alpha=args.alpha,
        layers=args.layers,
        preset=args.preset,
        repeats=args.repeats,
        seed=args.seed,
    )
    if args.quick:
        kwargs.update(QUICK_OVERRIDES)

    result = run_wallclock_bench(**kwargs)
    path = write_bench_json(result, args.out)
    print(format_summary(result))
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

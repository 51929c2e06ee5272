"""Deterministic weighted partitioning of independent work items.

:func:`partition_weighted` cuts an item list into *contiguous* chunks
balanced by weight, so the same inputs always land in the same chunk in
the same order.  The sharded serving router uses it to split a
megabatch stream across data-parallel replicas by Σlen² attention work
(see :mod:`repro.serving.sharded`).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["partition_weighted"]


def partition_weighted(
    weights: Sequence[float] | np.ndarray,
    parts: int,
    *,
    quadratic: bool = False,
) -> list[tuple[int, int]]:
    """Cut ``range(len(weights))`` into ≤ ``parts`` contiguous chunks.

    Chunks are balanced by cumulative weight (each cut lands where the
    running total crosses ``i/parts`` of the whole) and every chunk is
    non-empty.  The result depends only on ``(weights, parts)``, so a
    replayed stream always splits the same way.

    ``quadratic=True`` balances by the *squares* of the weights.  For
    sequence lengths that is the Σlen² attention-work balance the
    unpadded-BERT scaling literature calls for: attention scales with
    len² per segment, so balancing raw token counts systematically
    overloads whichever device drew the long sequences.  Because every
    cut lands at most one item past the ideal fractional split, each
    chunk's weight is within ``max(w)`` (or ``max(w²)`` in quadratic
    mode) of the ideal ``total/parts`` — the bound the property tests
    pin down.
    """
    w = np.asarray(weights, dtype=np.float64)
    if quadratic:
        w = w * w
    n = int(w.shape[0])
    if n == 0:
        return []
    parts = max(1, min(int(parts), n))
    if parts == 1:
        return [(0, n)]
    cum = np.cumsum(w)
    total = float(cum[-1])
    bounds = [0]
    for i in range(1, parts):
        target = total * i / parts
        j = int(np.searchsorted(cum, target))
        j = max(j, bounds[-1] + 1)  # never an empty chunk
        j = min(j, n - (parts - i))  # leave room for the rest
        bounds.append(j)
    bounds.append(n)
    return [(bounds[i], bounds[i + 1]) for i in range(parts)]

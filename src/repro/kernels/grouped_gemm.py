"""Grouped GEMM: variable-shape sub-problems in one kernel (§III-E.2).

Grouped GEMM lifts batched GEMM's identical-shape restriction: a built-in
scheduler hands out fixed-size CTA tiles of *all* sub-problems to a
persistent grid of CTAs in a round-robin manner (Figure 5).  We reproduce
the scheduler at tile granularity: the tile-to-CTA assignment, the
per-CTA work accumulation that yields the kernel's makespan, and the
scheduler-visit overhead that the paper's *warp prefetch* optimisation
divides by 32 (Figure 7, ~10% end-to-end on BERT shapes).

The numerical result of every scheduling strategy is identical (each tile
is computed exactly once); only the modelled time differs.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from dataclasses import replace as _dc_replace
from typing import Sequence

import numpy as np

from repro.gpusim.device import DeviceSpec
from repro.gpusim.kernel import ComputeUnit, KernelLaunch
from repro.gpusim.memory import tensor_bytes
from repro.gpusim.occupancy import blocks_per_sm
from repro.gpusim.stream import ExecutionContext, resolve_context
from repro.gpusim.timing import expected_utilisation
from repro.kernels.gemm import BASE_TC_EFFICIENCY, K_RAMP, TileConfig, select_tile

#: modelled cost of one scheduler visit by the baseline per-thread
#: problem visitor (one thread serially computes the next tile's metadata)
VISIT_COST_US = 1.8
#: fan-out of the warp-prefetch visitor: 32 lanes compute 32 upcoming
#: tile assignments in one visit
WARP_PREFETCH_FANOUT = 32


class SchedulerKind(enum.Enum):
    """Grouped-GEMM problem-visitor strategy."""

    #: CUTLASS's original visitor: one scheduler visit per tile per CTA
    PER_THREAD = "per_thread"
    #: the paper's optimisation: a warp computes 32 assignments at once
    WARP_PREFETCH = "warp_prefetch"


@dataclass(frozen=True)
class GemmProblem:
    """Shape of one grouped-GEMM sub-problem."""

    m: int
    n: int
    k: int

    def __post_init__(self) -> None:
        if min(self.m, self.n, self.k) <= 0:
            raise ValueError(f"GEMM dims must be positive, got {self}")

    @property
    def flops(self) -> float:
        return 2.0 * self.m * self.n * self.k

    def tiles(self, tile: TileConfig) -> int:
        return math.ceil(self.m / tile.tile_m) * math.ceil(self.n / tile.tile_n)


@dataclass(frozen=True)
class GroupedSchedule:
    """Outcome of simulating the tile scheduler for one grouped GEMM."""

    n_ctas: int
    total_tiles: int
    tiles_per_cta_max: int
    visits_per_cta: int
    compute_makespan_us: float
    visit_overhead_us: float
    useful_flops: float
    computed_flops: float

    @property
    def makespan_us(self) -> float:
        return self.compute_makespan_us + self.visit_overhead_us

    @property
    def load_balance(self) -> float:
        """Average tiles per CTA over the maximum (1.0 = perfectly even)."""
        return min(
            1.0,
            (self.total_tiles / self.n_ctas) / max(1, self.tiles_per_cta_max),
        )

    @property
    def quantisation_waste(self) -> float:
        """Fraction of computed FLOPs that are padded-tile waste."""
        if self.computed_flops == 0:
            return 0.0
        return 1.0 - self.useful_flops / self.computed_flops


def _tile_assignment(
    problems: Sequence[GemmProblem], tile: TileConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Flatten every sub-problem into a tile list (problem id, tile k-depth).

    Returns ``(tile_problem, tile_k)`` arrays, ordered exactly as the
    round-robin visitor walks them: problem 0's tiles first, row-major,
    then problem 1's, etc.
    """
    counts = np.array([p.tiles(tile) for p in problems], dtype=np.int64)
    ks = np.array([p.k for p in problems], dtype=np.float64)
    tile_problem = np.repeat(np.arange(counts.shape[0], dtype=np.int64), counts)
    tile_k = np.repeat(ks, counts)
    return tile_problem, tile_k


def select_group_tile(
    problems: Sequence[GemmProblem], device: DeviceSpec
) -> TileConfig:
    """Pick one CTA tile for the whole group (grouped GEMM compiles a
    single tile shape), stepping down until it fits the device's
    shared-memory-per-block limit."""
    largest = max(problems, key=lambda p: p.m * p.n)
    tile = select_tile(largest.m, largest.n)
    while tile.smem_bytes > device.max_shared_mem_per_block:
        if tile.tile_m <= 32:
            raise ValueError(
                f"no grouped-GEMM tile fits {device.name}'s "
                f"{device.max_shared_mem_per_block} B shared-memory limit"
            )
        tile = select_tile(tile.tile_m // 2, tile.tile_n // 2)
    return tile


def simulate_schedule(
    problems: Sequence[GemmProblem],
    device: DeviceSpec,
    *,
    scheduler: SchedulerKind = SchedulerKind.WARP_PREFETCH,
    tile: TileConfig | None = None,
    base_efficiency: float = BASE_TC_EFFICIENCY,
) -> GroupedSchedule:
    """Simulate the round-robin tile scheduler and return its makespan.

    CTA ``j`` of ``N`` processes tiles ``j, j+N, j+2N, ...`` (Figure 5).
    Each tile's compute time is its padded-tile FLOPs at one CTA's share of
    the device's sustained tensor-core throughput; the makespan is the
    maximum per-CTA busy time plus that CTA's scheduler-visit overhead.
    """
    if not problems:
        raise ValueError("grouped GEMM needs at least one problem")
    if tile is None:
        tile = select_group_tile(problems, device)

    probe = KernelLaunch(
        name="grouped_gemm_probe",
        category="probe",
        grid=1,
        block_threads=tile.block_threads,
        shared_mem_per_block=tile.smem_bytes,
        regs_per_thread=tile.regs_per_thread,
        flops=1.0,
    )
    occ = blocks_per_sm(probe, device)
    concurrent = occ.blocks_per_sm * device.num_sms

    tile_problem, tile_k = _tile_assignment(problems, tile)
    total_tiles = tile_problem.shape[0]
    n_ctas = min(concurrent, total_tiles)

    # sustained throughput of one CTA: the device peak is shared by the
    # resident CTAs, but a grid too small to saturate the SMs does not
    # speed its CTAs up beyond one SM's share
    k_typical = float(np.mean(tile_k))
    eff = base_efficiency * (k_typical / (k_typical + K_RAMP))
    saturation = min(
        concurrent,
        device.num_sms * max(1, math.ceil(256 / tile.block_threads)),
    )
    sharing_ctas = max(n_ctas, saturation)
    cta_flops_per_us = (
        device.tensor_fp16_tflops * 1e12 * eff / sharing_ctas / 1e6
    )

    # per-tile compute time: padded tile area times its k depth
    tile_flops = 2.0 * tile.tile_m * tile.tile_n * tile_k
    tile_time_us = tile_flops / cta_flops_per_us

    # round-robin accumulation: CTA j owns tiles j, j+n, ...  The strided
    # per-CTA sum is kept as-is: a reshape-and-reduce would change the
    # floating-point association and shift the makespan by ulps, and the
    # modelled times must stay bit-stable across releases.
    cta_time = np.zeros(n_ctas)
    for j in range(n_ctas):
        cta_time[j] = tile_time_us[j::n_ctas].sum()
    tiles_per_cta_max = int(math.ceil(total_tiles / n_ctas))

    if scheduler is SchedulerKind.PER_THREAD:
        visits = tiles_per_cta_max
    elif scheduler is SchedulerKind.WARP_PREFETCH:
        visits = math.ceil(tiles_per_cta_max / WARP_PREFETCH_FANOUT)
    else:  # pragma: no cover - exhaustive enum
        raise ValueError(f"unknown scheduler {scheduler!r}")

    useful = float(sum(p.flops for p in problems))
    computed = float(tile_flops.sum())
    return GroupedSchedule(
        n_ctas=n_ctas,
        total_tiles=total_tiles,
        tiles_per_cta_max=tiles_per_cta_max,
        visits_per_cta=visits,
        compute_makespan_us=float(cta_time.max()),
        visit_overhead_us=visits * VISIT_COST_US,
        useful_flops=useful,
        computed_flops=computed,
    )


def grouped_gemm_launch(
    problems: Sequence[GemmProblem],
    device: DeviceSpec,
    *,
    scheduler: SchedulerKind = SchedulerKind.WARP_PREFETCH,
    name: str = "grouped_gemm",
    category: str = "attention",
    extra_bytes: float = 0.0,
    extra_flops: float = 0.0,
    base_efficiency: float = BASE_TC_EFFICIENCY,
) -> KernelLaunch:
    """Build the launch descriptor whose modelled time equals the simulated
    schedule's makespan.

    The launch carries the *useful* FLOPs (so Table II metering stays
    honest) and encodes load imbalance, tile quantisation and the k-ramp in
    its ``compute_efficiency``; scheduler visits appear as
    ``extra_overhead_us``.  ``extra_bytes``/``extra_flops`` account for a
    fused epilogue (e.g. the softmax partial reduction of Figure 8).
    """
    schedule = simulate_schedule(
        problems, device, scheduler=scheduler, base_efficiency=base_efficiency
    )
    useful = schedule.useful_flops + extra_flops

    # efficiency that makes the roofline's compute time reproduce the
    # simulated makespan, pre-compensating the utilisation division the
    # timing model will apply to this launch
    peak_flops_per_us = device.tensor_fp16_tflops * 1e12 / 1e6
    eff = useful / (peak_flops_per_us * schedule.compute_makespan_us)
    eff = min(1.0, max(1e-6, eff))

    bytes_moved = extra_bytes
    for p in problems:
        bytes_moved += (
            tensor_bytes(p.m, p.k) + tensor_bytes(p.k, p.n) + tensor_bytes(p.m, p.n)
        )

    tile = select_group_tile(problems, device)
    launch = KernelLaunch(
        name=name,
        category=category,
        grid=schedule.n_ctas,
        block_threads=tile.block_threads,
        flops=useful,
        dram_bytes=bytes_moved,
        compute_unit=ComputeUnit.TENSOR_FP16,
        compute_efficiency=eff,
        shared_mem_per_block=tile.smem_bytes,
        regs_per_thread=tile.regs_per_thread,
        extra_overhead_us=schedule.visit_overhead_us,
        tags=(f"scheduler={scheduler.value}",),
    )
    util = expected_utilisation(launch, device)
    if util < 1.0:
        # the persistent grid's makespan already accounts for idle SMs;
        # undo the utilisation division the timing model will apply, so
        # the launch's modelled compute time equals the makespan
        launch = _dc_replace(
            launch, compute_efficiency=min(1.0, eff / util)
        )
    return launch


def grouped_gemm(
    a_list: Sequence[np.ndarray],
    b_list: Sequence[np.ndarray],
    *,
    transpose_b: bool = False,
    scheduler: SchedulerKind = SchedulerKind.WARP_PREFETCH,
    ctx: ExecutionContext | None = None,
    name: str = "grouped_gemm",
    category: str = "attention",
) -> list[np.ndarray]:
    """Compute ``a_i @ b_i`` for every sub-problem in one simulated kernel.

    Shapes may differ arbitrarily between sub-problems; that is the whole
    point of grouped GEMM.
    """
    if len(a_list) != len(b_list):
        raise ValueError(
            f"{len(a_list)} A operands vs {len(b_list)} B operands"
        )
    if not a_list:
        raise ValueError("grouped GEMM needs at least one problem")

    problems = []
    for a, b in zip(a_list, b_list):
        b_eff = b.T if transpose_b else b
        if a.ndim != 2 or b_eff.ndim != 2 or a.shape[1] != b_eff.shape[0]:
            raise ValueError(f"bad sub-problem shapes {a.shape} @ {b_eff.shape}")
        problems.append(
            GemmProblem(m=a.shape[0], n=b_eff.shape[1], k=a.shape[1])
        )

    # shape-bucket the sub-problems: identical (m, n, k) groups run as
    # one stacked batched matmul, mirroring how the simulated kernel
    # batches them on the GPU.  Stacking copies operand values
    # unchanged, so each slice's BLAS result is bit-identical to the
    # per-pair product.
    outputs: list[np.ndarray | None] = [None] * len(a_list)
    groups: dict[tuple, list[int]] = {}
    for i, (a, b) in enumerate(zip(a_list, b_list)):
        key = (a.shape, b.shape, a.dtype.str, b.dtype.str)
        groups.setdefault(key, []).append(i)
    for idxs in groups.values():
        if len(idxs) == 1:
            i = idxs[0]
            b_eff = b_list[i].T if transpose_b else b_list[i]
            outputs[i] = a_list[i] @ b_eff
            continue
        stacked_a = np.stack([a_list[i] for i in idxs])
        stacked_b = np.stack([b_list[i] for i in idxs])
        if transpose_b:
            stacked_b = stacked_b.swapaxes(-1, -2)
        stacked_out = np.matmul(stacked_a, stacked_b)
        for j, i in enumerate(idxs):
            outputs[i] = stacked_out[j]

    context = resolve_context(ctx)
    context.launch(
        grouped_gemm_launch(
            problems,
            context.device,
            scheduler=scheduler,
            name=name,
            category=category,
        )
    )
    return outputs

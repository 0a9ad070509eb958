"""Monte Carlo loss simulation: R independent runs of state + per-line draws.

Runs are drawn in blocks of ``RUN_BLOCK`` rows, and block b draws from its
own substream derived from (master_seed, b).  Within a block the draw order
is fixed: one uniform per row, inverted through the exact joint's CDF to a
state index, then, per business line in ascending line order, one severity
vector holding a draw for each row where the line fired.  A complete block
is therefore the same whatever the total number of runs, and only the last,
partial block depends on it.  The portfolio sums the same blocks per row,
one substream per group of replications.  Sampling from the joint limits
simulation to ``graph.DEFAULT_ENUMERATION_CAP`` nodes.
"""

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import streams
from .graph import AttackGraph, sample_state_indices
from .losses import BusinessLine, LossPlan, loss_plan, sample_loss_matrix

# Rows per run block: large enough that the per-block cost (a new substream,
# one vector draw per line) vanishes, small enough that a block's
# temporaries stay near 200 kB and do not raise peak memory.
RUN_BLOCK = 4096
DEFAULT_QUANTILE_LEVELS = (0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.995, 0.999)


@dataclass(frozen=True)
class SimulationResult:
    """Per-run line losses (R x M) and their row sums, plus the seed record."""

    line_losses: np.ndarray
    total_losses: np.ndarray
    run_count: int
    master_seed: int
    line_indices: tuple[int, ...]


@dataclass(frozen=True)
class SummaryStats:
    minimum: float
    maximum: float
    mean: float
    sd: float
    quantiles: tuple[tuple[float, float], ...]

    def quantile(self, level: float) -> float:
        for lv, value in self.quantiles:
            if lv == level:
                return value
        raise KeyError(f"no quantile at level {level}")


def loss_block(
    graph: AttackGraph,
    lines: Sequence[BusinessLine],
    rows: int,
    master_seed: int,
    index: int,
    lane: int,
    plan: LossPlan | None = None,
    kernel: Callable[..., np.ndarray] | None = None,
) -> np.ndarray:
    """Line losses of ``rows`` homes, shape ``(rows, len(lines))``.

    All draws come from the substream (master_seed, index, lane): the
    rows' state indices first, then the fired rows' severities of each line
    in ascending line index order.  ``plan`` is ``loss_plan(graph, lines)``;
    callers that draw many blocks build it once and pass it in.  ``kernel``
    is ``losses.sample_loss_matrix`` when None, looked up at each call, or
    ``sample_loss_totals`` for the same draws as row totals, ``(rows,)``.
    """
    if plan is None:
        plan = loss_plan(graph, lines)
    rng = streams.substream(master_seed, index, lane=lane)
    indices = sample_state_indices(plan.cdf, rows, rng, plan.guide)
    return (kernel or sample_loss_matrix)(plan, indices, rng)


def run_simulation(
    graph: AttackGraph,
    lines: Sequence[BusinessLine],
    runs: int,
    master_seed: int,
) -> SimulationResult:
    """Simulate ``runs`` independent loss rows.

    Args:
        graph: validated vulnerability graph.
        lines: business lines; simulated in ascending ``index`` order.
        runs: number of Monte Carlo runs (>= 1).
        master_seed: seed from which every per-block substream derives.

    Returns:
        SimulationResult whose ``total_losses[r]`` is the ascending-index sum
        of ``line_losses[r]``, term by term in float64.
    """
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    plan = loss_plan(graph, lines)  # raises above the enumeration cap
    line_losses = np.empty((runs, len(plan.lines)))
    for block, lo in enumerate(range(0, runs, RUN_BLOCK)):
        hi = min(lo + RUN_BLOCK, runs)
        line_losses[lo:hi] = loss_block(
            graph, plan.lines, hi - lo, master_seed, block, streams.RUN_LANE, plan
        )

    total = np.zeros(runs)
    for col in range(len(plan.lines)):
        total += line_losses[:, col]
    line_losses.flags.writeable = False
    total.flags.writeable = False
    return SimulationResult(
        line_losses=line_losses,
        total_losses=total,
        run_count=runs,
        master_seed=master_seed,
        line_indices=tuple(line.index for line in plan.lines),
    )


def summarize(
    samples: Sequence[float] | np.ndarray,
    levels: Sequence[float] = DEFAULT_QUANTILE_LEVELS,
) -> SummaryStats:
    """Sample statistics with linearly interpolated empirical quantiles.

    SD uses the n-1 divisor; a single observation reports SD 0.
    """
    x = np.asarray(samples, dtype=float)
    if x.size == 0:
        raise ValueError("cannot summarize an empty sample")
    levels = tuple(float(lv) for lv in levels)
    if any(not 0.0 < lv < 1.0 for lv in levels):
        raise ValueError(f"quantile levels must lie in (0, 1): {levels}")
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise ValueError(f"quantile levels must be strictly increasing: {levels}")
    qs = np.quantile(x, levels) if levels else np.empty(0)
    sd = float(np.std(x, ddof=1)) if x.size > 1 else 0.0
    return SummaryStats(
        minimum=float(x.min()),
        maximum=float(x.max()),
        mean=float(x.mean()),
        sd=sd,
        quantiles=tuple(zip(levels, (float(q) for q in qs))),
    )

"""Monte Carlo loss simulation: R independent runs of state + per-line draws.

Runs are drawn in blocks of ``RUN_BLOCK`` rows, and block b draws from its
own substream derived from (master_seed, b).  Within a block the draw order
is fixed: one uniform per row, inverted through the CDF of the exact joint's
support to a state, then, per business line in ascending line order, one
severity vector holding a draw for each row where the line fired
(``losses.line_draws``).  A complete block is therefore the same whatever
the total number of runs, and only the last, partial block depends on it.
The portfolio adds the same draws into per-home totals, one substream per
group of replications.  Sampling from the joint limits simulation to
``graph.DEFAULT_ENUMERATION_CAP`` nodes.

Blocks are drawn through ``draw_blocks``, on up to ``workers`` threads:
numpy's samplers and loops release the GIL, and every block owns its
generator, its temporaries and a disjoint slice of the output, so the
result is the same bytes for any worker count.
"""

import contextvars
import os
import threading
from itertools import islice
from typing import Callable, Iterator, Sequence

import numpy as np

from . import streams
from .graph import AttackGraph, Frozen, sample_state_indices
from .losses import BusinessLine, LossPlan, line_draws, loss_plan
from .pricing import sample_sd

# Rows per run block: large enough that the per-block cost (a new substream,
# one vector draw per line, a GIL handoff per numpy call) vanishes, small
# enough that a block's temporaries stay within a few MB per thread (one
# float64 value per row is 256 KB).
RUN_BLOCK = 1 << 15
DEFAULT_QUANTILE_LEVELS = (0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.995, 0.999)


class SimulationResult(Frozen):
    """Per-run losses (R x K) of the stored lines, one column per index in
    ``line_indices`` (ascending), column-major so that each column is contiguous.
    ``total_losses``, built at each read, are the row sums of the stored
    columns in ascending index order, term by term in float64: the total loss
    when every line is stored.  Both arrays are read-only."""

    __slots__ = ("line_losses", "line_indices")

    def _check(self):
        self._store_read_only("line_losses")

    @property
    def total_losses(self) -> np.ndarray:
        total = np.zeros(self.line_losses.shape[0])
        for column in self.line_losses.T:
            total += column
        total.flags.writeable = False
        return total


def loss_block(
    plan: LossPlan, rows: int, master_seed: int, index: int, lane: int
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """``line_draws`` of ``rows`` homes drawn under ``plan``.

    All draws come from the substream (master_seed, index, lane): the rows'
    positions into ``plan.states`` first, then the fired rows' severities
    of each line in ascending line index order, as ``(column, fired rows,
    severities)``.
    """
    rng = streams.substream(master_seed, index, lane=lane)
    positions = sample_state_indices(plan.cdf, rows, rng, plan.guide)
    return line_draws(plan, positions, rng)


def thread_count(workers: int, blocks: int, cpus: int | None = None) -> int:
    """Threads that draw ``blocks`` blocks: min(workers, blocks, cpus), at least 1.

    ``cpus`` is the number of CPUs this process may run on when None: its
    affinity mask where the platform has one, else ``os.cpu_count()``.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if cpus is None:
        affinity = getattr(os, "sched_getaffinity", None)
        cpus = len(affinity(0)) if affinity else os.cpu_count() or 1
    return max(1, min(workers, blocks, cpus))


def draw_blocks(draw: Callable[[int], object], blocks: int, workers: int = 1) -> None:
    """Call ``draw(b)`` once for every block index b in ``range(blocks)``.

    ``thread_count(workers, blocks)`` threads take the next undrawn block
    until none is left: the calling thread, plus a pool of the rest.  The
    calling thread's part keeps one thread's worth of allocator arenas out
    of peak memory.  Pool threads run in a copy of the caller's context, so
    they keep its ``np.errstate``.  An exception a block raises is re-raised
    here once every thread has stopped.  ``draw`` must write only its own
    block's slice of the output and read only state built before this call.
    """
    threads = thread_count(workers, blocks)
    pending = iter(range(blocks))
    lock = threading.Lock()

    def drain() -> None:
        while True:
            with lock:
                block = next(pending, None)
            if block is None:
                return
            draw(block)

    if threads == 1:
        return drain()
    # imported here, so that a start-up that draws no threads skips its ~6 ms
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(threads - 1) as pool:
        helpers = [pool.submit(contextvars.copy_context().run, drain)
                   for _ in range(threads - 1)]
        drain()
    for helper in helpers:
        helper.result()


def run_simulation(
    graph: AttackGraph,
    lines: Sequence[BusinessLine],
    runs: int,
    master_seed: int,
    workers: int = 1,
    store: Sequence[int] | None = None,
) -> SimulationResult:
    """Simulate ``runs`` independent loss rows.

    Args:
        graph: validated vulnerability graph.
        lines: business lines; simulated in ascending ``index`` order.
        runs: number of Monte Carlo runs (>= 1).
        master_seed: seed from which every per-block substream derives.
        workers: threads that draw blocks; the result does not depend on it.
        store: indices of the lines whose columns the result holds (every
            line when None).  Lines up to the last stored one are drawn in
            the stream layout's order, the rest are not, so a stored column
            has the bits it has when every line is stored.

    Returns:
        SimulationResult with one column per stored line, in ascending index
        order; its ``total_losses`` are built when read.
    """
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    plan = loss_plan(graph, lines)  # raises above the enumeration cap
    indices = [line.index for line in plan.lines]
    stored = indices if store is None else sorted(set(store))
    if unknown := set(stored) - set(indices):
        raise ValueError(f"no business line with index {min(unknown)}")
    slots = {indices.index(index): k for k, index in enumerate(stored)}  # plan col -> stored
    line_losses = np.zeros((runs, len(stored)), order="F")

    def draw(block: int) -> None:
        lo, hi = block * RUN_BLOCK, min((block + 1) * RUN_BLOCK, runs)
        block_draws = loss_block(plan, hi - lo, master_seed, block, streams.RUN_LANE)
        for col, fired, draws in islice(block_draws, max(slots, default=-1) + 1):
            if col in slots:  # a contiguous column, 0 where the line did not fire
                line_losses[lo:hi, slots[col]][fired] = draws

    draw_blocks(draw, -(-runs // RUN_BLOCK), workers)
    return SimulationResult(line_losses, tuple(stored))


def sorted_quantiles(ordered: np.ndarray, levels: tuple[float, ...]) -> np.ndarray:
    """numpy's linear-method quantiles of an ascending sample, bit for bit, without its
    partition: index (n-1) q, its floor, the above-bounds rule, the two-sided lerp, and
    all NaN if a NaN sorts last.  The one quantile rule, for ``summarize`` and ``search``."""
    n = ordered.size
    virtual = (n - 1) * np.array(levels)
    below = np.floor(virtual)
    above = below + 1
    past = virtual >= n - 1
    below[past] = above[past] = -1
    gamma = virtual - below
    a, b = ordered[below.astype(np.intp)], ordered[above.astype(np.intp)]
    diff = b - a
    qs = a + diff * gamma
    np.subtract(b, diff * (1 - gamma), out=qs, where=gamma >= 0.5)
    if np.isnan(ordered[-1]):
        qs[:] = ordered[-1]
    return qs


def summarize(
    samples: Sequence[float] | np.ndarray,
    levels: Sequence[float] = DEFAULT_QUANTILE_LEVELS,
) -> tuple[float, ...]:
    """The summary row ``(minimum, *quantiles, maximum, mean, sd)`` of ``samples``.

    The quantiles at ``levels`` (linear interpolation, Hyndman and Fan's type 7) are
    read off one sorted copy, with no partition, and have the bits of numpy's
    ``quantile(samples, levels)`` up to the sign of a zero.  SD is
    ``pricing.sample_sd``: the n-1 divisor, and 0 for a single observation.
    """
    x = np.asarray(samples, dtype=float)
    if x.size == 0:
        raise ValueError("cannot summarize an empty sample")
    levels = tuple(float(lv) for lv in levels)
    if any(not 0.0 < lv < 1.0 for lv in levels):
        raise ValueError(f"quantile levels must lie in (0, 1): {levels}")
    if any(b <= a for a, b in zip(levels, levels[1:])):
        raise ValueError(f"quantile levels must be strictly increasing: {levels}")
    qs = sorted_quantiles(np.sort(x), levels)
    return (float(x.min()), *map(float, qs), float(x.max()), float(x.mean()), sample_sd(x))

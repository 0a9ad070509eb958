"""Deductible search and premium solving under loss-ratio constraints.

Two strategies bound the portfolio loss ratio: a permissible mean LR and a
permissible high quantile of LR.  Claims do not depend on the premium, so
the premium that hits an LR target inverts in closed form, and one set of
common-random-number claims serves every grid point and premium level.
"""

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .graph import AttackGraph
from .losses import BusinessLine
from .portfolio import simulate_claims
from .pricing import Policy, check_premium


class DegenerateClaimsError(ValueError):
    """Claims are all zero, so the LR constraint prices the policy at zero."""


@dataclass(frozen=True)
class MeanLR:
    target: float

    def __post_init__(self):
        if not 0.0 < self.target <= 1.0:
            raise ValueError(f"target must lie in (0, 1], got {self.target}")


@dataclass(frozen=True)
class QuantileLR:
    level: float
    target: float

    def __post_init__(self):
        if not 0.0 < self.level < 1.0:
            raise ValueError(f"level must lie in (0, 1), got {self.level}")
        if not 0.0 < self.target <= 1.0:
            raise ValueError(f"target must lie in (0, 1], got {self.target}")


LRStrategy = MeanLR | QuantileLR


def lr_statistic(samples: np.ndarray, strategy: LRStrategy) -> float:
    """Mean or linearly interpolated empirical quantile of an LR sample."""
    if isinstance(strategy, MeanLR):
        return float(np.mean(samples))
    return float(np.quantile(samples, strategy.level))


def _first_feasible(claims: np.ndarray, total_premium: float, strategy: LRStrategy):
    """Each policy's LR statistic, and the index of the first within target."""
    stats = tuple(lr_statistic(c / total_premium, strategy) for c in claims)
    return stats, next((i for i, s in enumerate(stats) if s <= strategy.target), None)


def deductible_grid(grid: Sequence[float]) -> tuple[float, ...]:
    """``grid`` as floats; raises unless it is non-empty and strictly ascending.

    The first-feasible scan relies on the statistic falling along the grid.
    """
    grid = tuple(float(d) for d in grid)
    if not grid:
        raise ValueError("deductible grid is empty")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError(f"deductible grid must be strictly ascending: {grid}")
    return grid


@dataclass(frozen=True)
class DeductibleSearchResult:
    grid: tuple[float, ...]
    statistics: tuple[float, ...]
    feasible: tuple[bool, ...]
    chosen: float | None


def search_deductible(
    graph: AttackGraph,
    lines: Sequence[BusinessLine],
    premiums_total: float,
    coverage: float,
    grid: Sequence[float],
    strategy: LRStrategy,
    n_homes: int,
    replications: int,
    master_seed: int,
    workers: int = 1,
) -> DeductibleSearchResult:
    """Smallest grid deductible whose LR statistic meets the target.

    Every grid point is evaluated on the same claim draws, so the statistic
    is non-increasing in the deductible and the feasible set is an up-set of
    the grid; the chosen value is its boundary (None when nothing qualifies).
    """
    grid = deductible_grid(grid)
    check_premium("premiums_total", premiums_total)
    policies = [Policy(d, coverage) for d in grid]
    claims = simulate_claims(graph, lines, n_homes, replications, policies, master_seed, workers)
    stats, first = _first_feasible(claims, n_homes * premiums_total, strategy)
    return DeductibleSearchResult(
        grid=grid,
        statistics=stats,
        feasible=tuple(s <= strategy.target for s in stats),
        chosen=None if first is None else grid[first],
    )


def premium_for_claims(
    claims: np.ndarray, n_homes: int, strategy: LRStrategy
) -> float:
    """Invert the LR constraint: P = stat(claims) / (N * target).

    The LR statistic is positively homogeneous in the claims, so plugging the
    returned premium back into the same samples reproduces the target.
    """
    stat = lr_statistic(np.asarray(claims, dtype=float), strategy)
    if stat <= 0.0:
        raise DegenerateClaimsError(
            "claim statistic is 0; the LR constraint admits a zero premium"
        )
    prem = stat / (n_homes * strategy.target)
    achieved = lr_statistic(np.asarray(claims, dtype=float) / (n_homes * prem), strategy)
    if not math.isclose(achieved, strategy.target, rel_tol=1e-9):
        raise AssertionError(
            f"round-trip LR statistic {achieved!r} misses target {strategy.target!r}"
        )
    return prem


def solve_premium(
    graph: AttackGraph,
    lines: Sequence[BusinessLine],
    policy: Policy,
    strategy: LRStrategy,
    n_homes: int,
    replications: int,
    master_seed: int,
    workers: int = 1,
) -> float:
    """Premium per home that makes the simulated LR statistic hit the target."""
    claims = simulate_claims(graph, lines, n_homes, replications, [policy], master_seed, workers)
    return premium_for_claims(claims[0], n_homes, strategy)


@dataclass(frozen=True)
class ProposalRow:
    principle: str
    total_premium: float
    coverage: float
    deductible_1: float | None
    mean_profit_1: float | None
    deductible_2: float | None
    mean_profit_2: float | None


def report_proposals(
    graph: AttackGraph,
    lines: Sequence[BusinessLine],
    premiums: Sequence[tuple[str, float]],
    coverage: float,
    grid: Sequence[float],
    n_homes: int,
    replications: int,
    master_seed: int,
    mean_target: float = 0.40,
    quantile_level: float = 0.995,
    quantile_target: float = 0.40,
    workers: int = 1,
) -> tuple[ProposalRow, ...]:
    """Proposed deductibles per premium principle under both LR strategies.

    One common-random-number claim set serves all principles and both
    strategies; the mean profit reported for a chosen deductible comes from
    those same samples.
    """
    grid = deductible_grid(grid)
    for name, total in premiums:
        check_premium(f"premium for {name}", total)
    strategies = (MeanLR(mean_target), QuantileLR(quantile_level, quantile_target))
    policies = [Policy(d, coverage) for d in grid]
    claims = simulate_claims(graph, lines, n_homes, replications, policies, master_seed, workers)
    claim_means = claims.mean(axis=1)
    rows = []
    for name, total in premiums:
        denom = n_homes * total
        picks: list[tuple[float | None, float | None]] = []
        for strategy in strategies:
            _, chosen_idx = _first_feasible(claims, denom, strategy)
            if chosen_idx is None:
                picks.append((None, None))
            else:
                picks.append((grid[chosen_idx], denom - float(claim_means[chosen_idx])))
        rows.append(ProposalRow(name, total, coverage, *picks[0], *picks[1]))
    return tuple(rows)

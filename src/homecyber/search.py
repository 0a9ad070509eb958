"""Deductible search and premium solving under loss-ratio constraints.

Two strategies bound the portfolio loss ratio: a permissible mean LR and a
permissible high quantile of LR.  Claims do not depend on the premium, so
the premium that hits an LR target inverts in closed form, and one set of
common-random-number claims serves every grid point and premium level.
Every function here reads a claims matrix that the caller simulated, one
row per policy (``portfolio.simulate_claims``), and returns plain values;
quantiles are ``simulate.sorted_quantiles``, the summaries' one rule.
"""

import math
from typing import Sequence

import numpy as np

from .graph import Frozen
from .pricing import finite
from .simulate import sorted_quantiles


class DegenerateClaimsError(ValueError):
    """The claims cannot price the policy: a zero premium, or one that misses the target."""


class MeanLR(Frozen):
    __slots__ = ("target",)

    def _check(self):
        if not 0.0 < self.target <= 1.0:
            raise ValueError(f"target must lie in (0, 1], got {self.target}")


class QuantileLR(Frozen):
    __slots__ = ("level", "target")

    def _check(self):
        if not 0.0 < self.level < 1.0:
            raise ValueError(f"level must lie in (0, 1), got {self.level}")
        MeanLR(self.target)  # raises unless the target lies in (0, 1]


LRStrategy = MeanLR | QuantileLR


def lr_statistic(samples: np.ndarray, strategy: LRStrategy) -> float:
    """Mean or linearly interpolated empirical quantile of an LR sample.

    Raises ValueError when it is inf or NaN, as when the claims overflow
    float64: it would read as infeasible, or solve to an inf or NaN premium.
    """
    if isinstance(strategy, MeanLR):
        stat = float(np.mean(samples))
    else:
        stat = float(sorted_quantiles(np.sort(samples), (strategy.level,))[0])
    return finite(stat, f"LR statistic {stat!r}: the portfolio claims overflow float64")


def loss_ratios(claims: np.ndarray, income: float) -> np.ndarray:
    """LR = ``claims / income``; raises ValueError naming the income when finite
    claims give an LR beyond float64, as an income near the bottom of the float
    range does.  Claims that overflow themselves are left to the statistics."""
    ratios = claims / income
    if not np.isfinite(ratios).all() and np.isfinite(claims).all():
        raise ValueError(f"LR = claims / income overflows float64 at income {income!r}")
    return ratios


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


def search_deductible(
    claims: np.ndarray, grid: Sequence[float], income: float, strategy: LRStrategy
) -> tuple[tuple[float, ...], float | None]:
    """``(statistics, chosen)``: the LR statistic per grid deductible, and the first feasible one.

    Row i of ``claims`` holds the portfolio claims under deductible
    ``grid[i]`` (a ``deductible_grid``), and ``income`` is the portfolio's
    total premium.  Under common random numbers the statistic is
    non-increasing in the deductible and the feasible set is an up-set of
    the grid; the chosen value is its boundary (None when nothing qualifies).
    """
    stats = tuple(lr_statistic(loss_ratios(c, income), strategy) for c in claims)
    return stats, next((d for d, s in zip(grid, stats) if s <= strategy.target), None)


def premium_for_claims(
    claims: np.ndarray, n_homes: int, strategy: LRStrategy
) -> float:
    """Invert the LR constraint: P = stat(claims) / (N * target).

    The LR statistic is positively homogeneous in the claims, so plugging the
    returned premium back into the same samples reproduces the target; when
    rounding breaks that (claims near the bottom of the float range), it
    raises :class:`DegenerateClaimsError`.
    """
    claims = np.asarray(claims, dtype=float)
    stat = lr_statistic(claims, strategy)
    if stat <= 0.0:
        raise DegenerateClaimsError(
            "claim statistic is 0; the LR constraint admits a zero premium"
        )
    prem = stat / (n_homes * strategy.target)
    achieved = lr_statistic(loss_ratios(claims, n_homes * prem), strategy)
    if not math.isclose(achieved, strategy.target, rel_tol=1e-9):
        raise DegenerateClaimsError(
            f"round-trip LR statistic {achieved!r} misses target {strategy.target!r}"
        )
    return prem


"""Portfolio simulation: N independent policyholders over K replications.

Replications are drawn in groups of G = max(1, RUN_BLOCK // N), so a
group's block of G * N homes is about one single-home run block.  Group g
is one ``simulate.loss_block`` from the substream of its group index, and
replication k is the (k mod G)-th N-row slice of group k // G; the last
group is drawn whole, so replication k's claims do not depend on K.  A
group's draws are summed straight into per-home annual losses.  All groups
share one ``losses.LossPlan`` (the exact joint's CDF and guide table, and
the lines' trigger masks), so the graph may have at most 22 nodes.  Groups
are drawn through ``simulate.draw_blocks`` on up to ``workers`` threads;
each writes only its own replications, so claims do not depend on the
worker count.  The insurer's claim for a home is the retention transform
applied to its annual loss.
Claims depend on the policy but not on the premium, so a single simulation
prices any premium level, and evaluating several policies against the same
draws (common random numbers) makes deductible comparisons monotone per
replication.
"""

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import streams
from .graph import AttackGraph
from .losses import BusinessLine, loss_plan, sample_loss_totals
from .pricing import Policy, apply_retention
from .simulate import (
    DEFAULT_QUANTILE_LEVELS,
    RUN_BLOCK,
    SummaryStats,
    draw_blocks,
    loss_block,
    summarize,
)


@dataclass(frozen=True)
class PortfolioSpec:
    n_homes: int
    policy: Policy
    premium_per_home: float
    replications: int

    def __post_init__(self):
        if self.n_homes < 1:
            raise ValueError(f"n_homes must be >= 1, got {self.n_homes}")
        if self.replications < 1:
            raise ValueError(f"replications must be >= 1, got {self.replications}")
        if not (math.isfinite(self.premium_per_home) and self.premium_per_home > 0.0):
            raise ValueError(
                f"premium_per_home must be finite and > 0, got {self.premium_per_home}"
            )


@dataclass(frozen=True)
class PortfolioResult:
    claim: np.ndarray
    profit: np.ndarray
    lr: np.ndarray
    spec: PortfolioSpec
    master_seed: int


def replication_group(n_homes: int) -> int:
    """Replications per substream: as many n_homes-row blocks as fit in RUN_BLOCK."""
    return max(1, RUN_BLOCK // n_homes)


def simulate_claims(
    graph: AttackGraph,
    lines: Sequence[BusinessLine],
    n_homes: int,
    replications: int,
    policies: Sequence[Policy],
    master_seed: int,
    workers: int = 1,
) -> np.ndarray:
    """Portfolio claim samples for each policy under common random numbers.

    Returns an array of shape ``(len(policies), replications)``.  With
    ``G = replication_group(n_homes)``, replications gG .. gG + G - 1 are
    the consecutive n_homes-row slices of one ``G * n_homes``-row block
    drawn from the substream derived from (master_seed, g), and every policy
    is applied to the same rows.  The last group is drawn whole and then
    truncated, so replication k does not depend on ``replications``.
    ``workers`` threads draw the groups; the claims do not depend on it.
    """
    if n_homes < 1:
        raise ValueError(f"n_homes must be >= 1, got {n_homes}")
    if replications < 1:
        raise ValueError(f"replications must be >= 1, got {replications}")
    plan = loss_plan(graph, lines)
    group = replication_group(n_homes)
    claims = np.zeros((len(policies), replications))

    def draw(g: int) -> None:
        lo, hi = g * group, min((g + 1) * group, replications)
        totals = loss_block(
            plan, group * n_homes, master_seed, g, streams.REPLICATION_LANE,
            sample_loss_totals,
        ).reshape(group, n_homes)[: hi - lo]
        retained = np.empty_like(totals)
        for p, policy in enumerate(policies):
            claims[p, lo:hi] = apply_retention(totals, policy, retained).sum(axis=1)

    draw_blocks(draw, -(-replications // group), workers)
    return claims


def result_from_claims(
    claims: np.ndarray, spec: PortfolioSpec, master_seed: int
) -> PortfolioResult:
    """Derive profit and LR vectors from claim samples (exact identities)."""
    claims = np.array(claims, dtype=float)
    total_premium = spec.n_homes * spec.premium_per_home
    profit = total_premium - claims
    lr = claims / total_premium
    for arr in (claims, profit, lr):
        arr.flags.writeable = False
    return PortfolioResult(
        claim=claims, profit=profit, lr=lr, spec=spec, master_seed=master_seed
    )


def simulate_portfolio(
    graph: AttackGraph,
    lines: Sequence[BusinessLine],
    spec: PortfolioSpec,
    master_seed: int,
    workers: int = 1,
) -> PortfolioResult:
    """Claim, profit, and loss-ratio samples across spec.replications."""
    claims = simulate_claims(
        graph, lines, spec.n_homes, spec.replications, [spec.policy], master_seed, workers
    )[0]
    return result_from_claims(claims, spec, master_seed)


@dataclass(frozen=True)
class PortfolioSummary:
    claim: SummaryStats
    profit: SummaryStats
    lr: SummaryStats


def profit_summary(result: PortfolioResult, levels) -> SummaryStats:
    """Profit statistics; the SD comes from the unshifted claim samples.

    SD is translation-invariant, so computing it before the premium shift
    keeps the reported value identical across premium levels instead of
    merely equal up to the last ulp.
    """
    stats = summarize(result.profit, levels)
    claim_sd = float(np.std(result.claim, ddof=1)) if result.claim.size > 1 else 0.0
    return replace(stats, sd=claim_sd)


def portfolio_summary(result: PortfolioResult, levels=DEFAULT_QUANTILE_LEVELS) -> PortfolioSummary:
    """Summary statistics for claim, profit, and LR with one shared level set."""
    return PortfolioSummary(
        claim=summarize(result.claim, levels),
        profit=profit_summary(result, levels),
        lr=summarize(result.lr, levels),
    )

"""Portfolio simulation: N independent policyholders over K replications.

Replications are drawn in groups of G = max(1, RUN_BLOCK // N), so a
group's block of G * N homes is about one single-home run block.  Group g
is one ``simulate.loss_block`` from the substream of its group index, and
replication k is the (k mod G)-th N-row slice of group k // G; the last
group is drawn whole, so replication k's claims do not depend on K.  A
group's per-line draws (``losses.line_draws``) are added straight into
per-home annual losses, in ascending line order.  All groups share one
``losses.LossPlan`` (the exact joint's support with its CDF and guide
table, and per-line tables over it), so the graph may have at most
22 nodes.  Groups are drawn through ``simulate.draw_blocks`` on up to
``workers`` threads; each writes only its own replications, so claims do
not depend on the worker count.  The insurer's claim for a home is the
retention transform applied to its annual loss, for all policies in one
pass over a group.
Claims depend on the policy but not on the premium, so a single simulation
prices any premium level, and evaluating several policies against the same
draws (common random numbers) makes deductible comparisons monotone per
replication.
"""

from typing import Sequence

import numpy as np

from . import streams
from .graph import AttackGraph
from .losses import BusinessLine, loss_plan
from .pricing import Policy, retain
from .simulate import RUN_BLOCK, draw_blocks, loss_block


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
    # (P, 1, 1): every policy's retention of a (G, N) block in one pass
    deductibles = np.array([p.deductible for p in policies]).reshape(-1, 1, 1)
    coverages = np.array([p.coverage for p in policies]).reshape(-1, 1, 1)

    def draw(g: int) -> None:
        lo, hi = g * group, min((g + 1) * group, replications)
        totals = np.zeros(group * n_homes)
        for _, fired, draws in loss_block(plan, group * n_homes, master_seed, g,
                                          streams.REPLICATION_LANE):
            np.add.at(totals, fired, draws)  # fired rows are distinct: each draw adds once
        homes = totals.reshape(group, n_homes)[: hi - lo]
        claims[:, lo:hi] = retain(homes, deductibles, coverages).sum(axis=2)

    draw_blocks(draw, -(-replications // group), workers)
    return claims

"""Business-line loss models conditional on exploitation states.

Three conditional families: an exponential whose rate is the sum of
per-trigger rates over exploited trigger nodes, and lognormal / gamma laws
that fire when any trigger node is exploited.  When nothing fires the loss
is degenerate at 0.  Each model checks its own parameters and bounds its
largest conditional mean to a finite float64, since a larger one draws inf
and NaN losses.  Given a state, ``conditional_distribution`` gives the line's
loss law: ``DegenerateZero``, an ``Exponential`` at the fired rates' sum, or
the lognormal or gamma model itself, each with a closed-form mean and
variance; these and ``limited_expected_value_of`` are exact oracles of the
simulation.  ``exact_line_mean`` enumerates only the subgraph of a line's
triggers and their ancestors, the other nodes summing out, so it costs
O(2^|ancestors|) and the enumeration cap applies to that ancestral set, not
to the graph.  scipy and numpy are imported on first use, so the CLI never loads
scipy and the line models load without numpy.  scipy is needed only by the
lognormal and gamma laws of ``limited_expected_value_of``; it is not a
package dependency but part of the ``test`` extra.
Simulation reads lines through a ``LossPlan`` over the joint's support:
rows are positions into its states, and each line has a table of where it
fires (and, if exponential, of its rate) over them.
``line_draws`` is the one severity kernel: each caller scatters or adds its
per-line draws where it needs them, so every path shares one draw order.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

from .graph import (AttackGraph, Frozen, ancestral_subgraph, check_enumerable, enumerate_joint,
                    state_guide)
from .pricing import Policy

if TYPE_CHECKING:
    import numpy as np


def _check_finite_mean(mean: Callable[[], float], what: str) -> None:
    """Raise ValueError unless ``mean()`` is finite: a larger mean draws inf and NaN losses."""
    try:
        value = mean()
    except OverflowError:  # math.exp and ** raise where division returns inf
        value = math.inf
    if not math.isfinite(value):
        raise ValueError(f"conditional mean {what} is not a finite float64")


class RateSumExponential(Frozen):
    """Exponential(sum of the (node id, rate) ``rates`` over exploited triggers)."""

    __slots__ = ("rates",)

    def _check(self):
        rates = tuple(sorted((int(nid), float(rate)) for nid, rate in self.rates))
        object.__setattr__(self, "rates", rates)
        for nid, rate in self.rates:
            if not math.isfinite(rate):
                raise ValueError(f"field 'rates[{nid}]' must be finite, got {rate}")
            if rate <= 0.0:
                raise ValueError(f"rate for node {nid} must be positive, got {rate}")
        if self.rates:
            # the largest mean is that of the smallest rate firing alone
            nid, rate = min(self.rates, key=lambda item: item[1])
            _check_finite_mean(lambda: 1.0 / rate, f"1/rate of field 'rates[{nid}]'")


class TriggeredLognormal(Frozen):
    """Lognormal(mu, sigma^2) when any trigger node is exploited; also the
    loss law of the line given a state where one is."""

    __slots__ = ("mu", "sigma")

    def _check(self):
        if self.sigma <= 0.0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")
        _check_finite_mean(self.mean, "exp(mu + sigma^2/2) of fields 'mu' and 'sigma'")

    def mean(self) -> float:
        return math.exp(self.mu + self.sigma**2 / 2.0)

    def variance(self) -> float:
        s2 = self.sigma**2
        return (math.exp(s2) - 1.0) * math.exp(2.0 * self.mu + s2)


class TriggeredGamma(Frozen):
    """Gamma(alpha, rate beta) when any trigger node is exploited; also the
    loss law of the line given a state where one is."""

    __slots__ = ("alpha", "beta")

    def _check(self):
        if self.alpha <= 0.0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if self.beta <= 0.0:
            raise ValueError(f"beta must be positive, got {self.beta}")
        _check_finite_mean(self.mean, "alpha/beta of fields 'alpha' and 'beta'")

    def mean(self) -> float:
        return self.alpha / self.beta

    def variance(self) -> float:
        return self.alpha / self.beta**2


class BusinessLine(Frozen):
    __slots__ = ("index", "name", "trigger_set", "model")

    def _check(self):
        object.__setattr__(self, "trigger_set", frozenset(self.trigger_set))
        if not self.trigger_set:
            raise ValueError(f"line {self.index} ({self.name}): empty trigger set")
        if isinstance(self.model, RateSumExponential):
            rate_nodes = {nid for nid, _ in self.model.rates}
            if rate_nodes != self.trigger_set:
                raise ValueError(
                    f"line {self.index} ({self.name}): rate nodes {sorted(rate_nodes)} "
                    f"do not match trigger set {sorted(self.trigger_set)}"
                )


# --- conditional distribution handles ------------------------------------


class DegenerateZero(Frozen):
    __slots__ = ()

    def mean(self) -> float:
        return 0.0

    def variance(self) -> float:
        return 0.0


class Exponential(Frozen):
    __slots__ = ("rate",)

    def mean(self) -> float:
        return 1.0 / self.rate

    def variance(self) -> float:
        return 1.0 / self.rate**2


# a triggered model is its own loss law given a state where it fires
Lognormal = TriggeredLognormal
Gamma = TriggeredGamma

Distribution = DegenerateZero | Exponential | TriggeredLognormal | TriggeredGamma


def conditional_distribution(
    line: BusinessLine, state: Sequence[bool] | np.ndarray, graph: AttackGraph
) -> Distribution:
    """Loss law of one line given a state; degenerate at 0 when nothing fired."""
    model = line.model
    if isinstance(model, RateSumExponential):
        lam = sum(rate for nid, rate in model.rates if state[graph.position(nid)])
        return Exponential(lam) if lam > 0.0 else DegenerateZero()
    if not any(state[graph.position(nid)] for nid in line.trigger_set):
        return DegenerateZero()
    return model


class LossPlan(Frozen):
    """What a loss block reads of a graph and its lines, built once per call.

    ``states`` are the joint's support, ascending (bit k of a state index
    for the node at position k).  A block samples positions into them
    through ``cdf``, the running sum of their probabilities divided by its
    last entry, and its ``state_guide`` ``guide``.  ``lines`` are in
    ascending index order; line k fires at position p when ``fired[k][p]``,
    and an exponential line's rate there is ``rates[k][p]`` (others: None).
    """

    __slots__ = ("states", "cdf", "guide", "lines", "fired", "rates")


def loss_plan(graph: AttackGraph, lines: Sequence[BusinessLine]) -> LossPlan:
    """The plan of ``lines`` on ``graph``; raises above the enumeration cap."""
    import numpy as np

    probs = enumerate_joint(graph).probs
    states = np.flatnonzero(probs)
    # the same bits as a cumsum over all 2^n states, read at the support
    cdf = np.cumsum(probs[states])
    cdf /= cdf[-1]
    half = (graph.n + 1) // 2
    ordered = tuple(sorted(lines, key=lambda ln: ln.index))
    fired, rates = [], []
    for line in ordered:
        fired.append((states & sum(1 << graph.position(nid) for nid in line.trigger_set)) > 0)
        rates.append(None)
        if isinstance(line.model, RateSumExponential):
            # the rates of the low ``half`` bits and of the high bits each add
            # up in id order, then the two sums add: the stream layout fixes
            # this order, and with it the bits of every exponential draw
            sums = np.zeros((2, states.size))
            for nid, rate in line.model.rates:
                pos = graph.position(nid)
                # adding +0.0 where the node is safe keeps each sum's bits
                sums[int(pos >= half)] += ((states >> pos) & 1) * rate
            rates[-1] = sums[0] + sums[1]
    return LossPlan(states, cdf, state_guide(cdf), ordered, tuple(fired), tuple(rates))


def line_draws(
    plan: LossPlan, positions: np.ndarray, rng: np.random.Generator
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """``(column, fired rows, severities)`` per line, in ascending line order.

    Row r stands for state ``plan.states[positions[r]]``.  Each line draws
    one severity vector holding a draw for each row where it fired (any
    trigger exploited), in ascending row order; it loses exactly 0 on the
    other rows.  This is the one place that fixes the order of a block's
    severity draws.
    """
    import numpy as np

    for col, (line, fired, rates) in enumerate(zip(plan.lines, plan.fired, plan.rates)):
        rows = np.flatnonzero(fired.take(positions))
        model = line.model
        if rates is not None:
            draws = rng.standard_exponential(rows.size)
            draws /= rates.take(positions.take(rows))
            yield col, rows, draws
        elif isinstance(model, TriggeredLognormal):
            yield col, rows, rng.lognormal(model.mu, model.sigma, rows.size)
        else:
            yield col, rows, rng.gamma(model.alpha, 1.0 / model.beta, rows.size)


def exact_line_mean(line: BusinessLine, graph: AttackGraph) -> float:
    """Exact E[loss] under the joint state law, in O(2^a) for the a nodes that
    are the line's triggers or their ancestors.

    The law of the triggers is that of the ancestral subgraph, the only joint
    enumerated (so the cap applies to a).  It is summed down to the 2^t
    patterns of the line's t trigger nodes, and the mean is an fsum over the
    patterns that fire.
    """
    import numpy as np

    sub = ancestral_subgraph(graph, line.trigger_set)
    check_enumerable(sub, f"nodes in line {line.index}'s triggers and their ancestors")
    by_id = np.array([sub.position(nid) for nid in sorted(line.trigger_set)])
    order = np.argsort(by_id)
    patterns = enumerate_joint(sub).pattern_probs(by_id[order])
    model = line.model
    if isinstance(model, RateSumExponential):
        # fired[j, i]: pattern j has the i-th trigger in position order exploited
        fired = (np.arange(patterns.size)[:, None] >> np.arange(order.size)) & 1
        # rates follow the triggers in id order, as the trigger positions do;
        # a numpy sum, not a BLAS product, whose bits vary with its threads
        lam = (fired * np.array([rate for _, rate in model.rates])[order]).sum(axis=1)
        mask = lam > 0.0
        return math.fsum((patterns[mask] / lam[mask]).tolist())
    return math.fsum(patterns[1:].tolist()) * model.mean()


# --- limited expected values ----------------------------------------------


def limited_expected_value_of(dist: Distribution, d: float, c: float) -> float:
    """E[min((L - d)_+, c)] in closed form for each conditional family."""
    Policy(d, c)  # raises unless d and c make a valid policy
    if isinstance(dist, DegenerateZero):
        return 0.0
    if isinstance(dist, Exponential):
        lam = dist.rate
        upper = 0.0 if math.isinf(c) else math.exp(-lam * (d + c))
        return (math.exp(-lam * d) - upper) / lam

    def limited(u: float) -> float:  # E[min(L, u)] of a lognormal or gamma law
        if u <= 0.0:
            return 0.0
        if math.isinf(u):
            return dist.mean()
        from scipy import special

        if isinstance(dist, TriggeredLognormal):
            z = (math.log(u) - dist.mu) / dist.sigma
            return dist.mean() * float(special.ndtr(z - dist.sigma)) + u * float(special.ndtr(-z))
        x = dist.beta * u
        return (dist.mean() * float(special.gammainc(dist.alpha + 1.0, x))
                + u * float(special.gammaincc(dist.alpha, x)))

    return limited(d + c) - limited(d)

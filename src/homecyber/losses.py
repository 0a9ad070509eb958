"""Business-line loss models conditional on exploitation states.

Three conditional families: an exponential whose rate is the sum of
per-trigger rates over exploited trigger nodes, and lognormal / gamma laws
that fire when any trigger node is exploited.  When nothing fires the loss
is degenerate at 0.  Closed-form moments and limited expected values back
the simulation with exact oracles; they import scipy on first use, so the
CLI never loads it.  Simulation reads lines through a ``LossPlan`` over
the joint's support: rows are positions into its states, and each line
has a table of where it fires (and, if exponential, of its rate) over them.
The severity draws come back as a line-loss matrix or as per-row totals,
from one kernel and in one draw order.
"""

import math
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from .graph import AttackGraph, StateVector, enumerate_joint
from .graph import state_cdf, state_guide


def _canonical_rates(rates) -> tuple[tuple[int, float], ...]:
    if isinstance(rates, Mapping):
        items = rates.items()
    else:
        items = rates
    return tuple(sorted((int(nid), float(rate)) for nid, rate in items))


@dataclass(frozen=True)
class RateSumExponential:
    """Exponential(sum of per-node rates over exploited triggers)."""

    rates: tuple[tuple[int, float], ...]

    def __post_init__(self):
        object.__setattr__(self, "rates", _canonical_rates(self.rates))
        for nid, rate in self.rates:
            if rate <= 0.0:
                raise ValueError(f"rate for node {nid} must be positive, got {rate}")


@dataclass(frozen=True)
class TriggeredLognormal:
    """Lognormal(mu, sigma^2) when any trigger node is exploited."""

    mu: float
    sigma: float

    def __post_init__(self):
        if self.sigma <= 0.0:
            raise ValueError(f"sigma must be positive, got {self.sigma}")


@dataclass(frozen=True)
class TriggeredGamma:
    """Gamma(alpha, rate beta) when any trigger node is exploited."""

    alpha: float
    beta: float

    def __post_init__(self):
        if self.alpha <= 0.0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if self.beta <= 0.0:
            raise ValueError(f"beta must be positive, got {self.beta}")


DistributionSpec = RateSumExponential | TriggeredLognormal | TriggeredGamma


@dataclass(frozen=True)
class BusinessLine:
    index: int
    name: str
    trigger_set: frozenset[int]
    model: DistributionSpec

    def __post_init__(self):
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


@dataclass(frozen=True)
class DegenerateZero:
    def mean(self) -> float:
        return 0.0

    def variance(self) -> float:
        return 0.0

    def survival(self, x: float) -> float:
        return 0.0 if x >= 0.0 else 1.0


@dataclass(frozen=True)
class Exponential:
    rate: float

    def mean(self) -> float:
        return 1.0 / self.rate

    def variance(self) -> float:
        return 1.0 / self.rate**2

    def survival(self, x: float) -> float:
        return math.exp(-self.rate * x) if x > 0.0 else 1.0


@dataclass(frozen=True)
class Lognormal:
    mu: float
    sigma: float

    def mean(self) -> float:
        return math.exp(self.mu + self.sigma**2 / 2.0)

    def variance(self) -> float:
        s2 = self.sigma**2
        return (math.exp(s2) - 1.0) * math.exp(2.0 * self.mu + s2)

    def survival(self, x: float) -> float:
        if x <= 0.0:
            return 1.0
        from scipy import special

        return float(special.ndtr(-(math.log(x) - self.mu) / self.sigma))


@dataclass(frozen=True)
class Gamma:
    alpha: float
    beta: float  # rate

    def mean(self) -> float:
        return self.alpha / self.beta

    def variance(self) -> float:
        return self.alpha / self.beta**2

    def survival(self, x: float) -> float:
        if x <= 0.0:
            return 1.0
        from scipy import special

        return float(special.gammaincc(self.alpha, self.beta * x))


Distribution = DegenerateZero | Exponential | Lognormal | Gamma


def conditional_distribution(
    line: BusinessLine, state: Sequence[bool] | StateVector, graph: AttackGraph
) -> Distribution:
    """Loss law of one line given a state; degenerate at 0 when nothing fired."""
    model = line.model
    if isinstance(model, RateSumExponential):
        lam = sum(rate for nid, rate in model.rates if state[graph.position(nid)])
        return Exponential(lam) if lam > 0.0 else DegenerateZero()
    if not any(state[graph.position(nid)] for nid in line.trigger_set):
        return DegenerateZero()
    if isinstance(model, TriggeredLognormal):
        return Lognormal(model.mu, model.sigma)
    return Gamma(model.alpha, model.beta)


@dataclass(frozen=True)
class LossPlan:
    """What a loss block reads of a graph and its lines, built once per call.

    ``states`` are the joint's support, ascending (bit k of a state index
    for the node at position k): the only indices that inverting the full
    ``state_cdf`` can return.  A block samples positions into
    ``states`` through ``cdf``, which is ``state_cdf`` at ``states``, and its
    ``state_guide`` ``guide``.  ``lines`` are in ascending index order; line
    k fires at position p when ``fired[k][p]``, and an exponential line's
    rate there is ``rates[k][p]`` (other lines have None).
    """

    states: np.ndarray
    cdf: np.ndarray
    guide: tuple[np.ndarray, np.ndarray]
    lines: tuple[BusinessLine, ...]
    fired: tuple[np.ndarray, ...]
    rates: tuple[np.ndarray | None, ...]


def loss_plan(graph: AttackGraph, lines: Sequence[BusinessLine]) -> LossPlan:
    """The plan of ``lines`` on ``graph``; raises above the enumeration cap."""
    states = np.flatnonzero(enumerate_joint(graph).probs)
    cdf = state_cdf(graph)[states]
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
                sums[int(pos >= half), (states >> pos) & 1 == 1] += rate
            rates[-1] = sums[0] + sums[1]
    return LossPlan(states, cdf, state_guide(cdf), ordered, tuple(fired), tuple(rates))


def _line_draws(
    plan: LossPlan, positions: np.ndarray, rng: np.random.Generator
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """``(column, fired rows, severities)`` per line, in ascending line order.

    Row r stands for state ``plan.states[positions[r]]``.  Each line draws
    one severity vector holding a draw for each row where it fired (any
    trigger exploited), in ascending row order.  This is the one place that
    fixes the order of a block's severity draws.
    """
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


def sample_loss_matrix(
    plan: LossPlan, positions: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Losses for a batch of positions into ``plan.states``, ``(batch, len(plan.lines))``.

    The matrix is column-major, so each line's column is contiguous.  Rows
    where a line did not fire lose exactly 0.  How much a line consumes
    from ``rng`` depends on the states, but the result is still a pure
    function of ``positions`` and the stream.
    """
    out = np.zeros((positions.size, len(plan.lines)), order="F")
    for col, rows, draws in _line_draws(plan, positions, rng):
        out[rows, col] = draws
    return out


def sample_loss_totals(
    plan: LossPlan, positions: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Per-row totals of ``sample_loss_matrix(plan, positions, rng)``, bit for bit.

    Same draws, added line by line in ascending line order without building
    the matrix: a line that did not fire on a row would add exactly 0.0, and
    a line's fired rows are distinct, so ``np.add.at`` adds each draw once.
    """
    totals = np.zeros(positions.size)
    for _, rows, draws in _line_draws(plan, positions, rng):
        np.add.at(totals, rows, draws)
    return totals


def exact_line_mean(line: BusinessLine, graph: AttackGraph) -> float:
    """Exact E[loss] under the joint state law.

    The enumerated joint is summed down to the 2^t patterns of the line's t
    trigger nodes, and the mean is an fsum over the patterns that fire.
    """
    by_id = np.array([graph.position(nid) for nid in sorted(line.trigger_set)])
    order = np.argsort(by_id)
    patterns = enumerate_joint(graph).pattern_probs(by_id[order])
    model = line.model
    if isinstance(model, RateSumExponential):
        # fired[j, i]: pattern j has the i-th trigger in position order exploited
        fired = (np.arange(patterns.size)[:, None] >> np.arange(order.size)) & 1 == 1
        # rates follow the triggers in id order, as the trigger positions do
        lam = fired @ np.array([rate for _, rate in model.rates])[order]
        mask = lam > 0.0
        return math.fsum((patterns[mask] / lam[mask]).tolist())
    fire_prob = math.fsum(patterns[1:].tolist())
    if isinstance(model, TriggeredLognormal):
        return fire_prob * Lognormal(model.mu, model.sigma).mean()
    return fire_prob * Gamma(model.alpha, model.beta).mean()


# --- limited expected values ----------------------------------------------


def _lognormal_limited(mu: float, sigma: float, u: float) -> float:
    """E[min(L, u)] for L ~ Lognormal(mu, sigma^2)."""
    if u <= 0.0:
        return 0.0
    if math.isinf(u):
        return math.exp(mu + sigma**2 / 2.0)
    from scipy import special

    z = (math.log(u) - mu) / sigma
    return math.exp(mu + sigma**2 / 2.0) * float(special.ndtr(z - sigma)) + u * float(
        special.ndtr(-z)
    )


def _gamma_limited(alpha: float, beta: float, u: float) -> float:
    """E[min(L, u)] for L ~ Gamma(alpha, rate beta)."""
    if u <= 0.0:
        return 0.0
    if math.isinf(u):
        return alpha / beta
    from scipy import special

    x = beta * u
    return (alpha / beta) * float(special.gammainc(alpha + 1.0, x)) + u * float(
        special.gammaincc(alpha, x)
    )


def limited_expected_value_of(dist: Distribution, d: float, c: float) -> float:
    """E[min((L - d)_+, c)] in closed form for each conditional family."""
    if d < 0.0:
        raise ValueError(f"deductible must be >= 0, got {d}")
    if c <= 0.0:
        raise ValueError(f"coverage must be > 0, got {c}")
    if isinstance(dist, DegenerateZero):
        return 0.0
    if isinstance(dist, Exponential):
        lam = dist.rate
        upper = 0.0 if math.isinf(c) else math.exp(-lam * (d + c))
        return (math.exp(-lam * d) - upper) / lam
    if isinstance(dist, Lognormal):
        return _lognormal_limited(dist.mu, dist.sigma, d + c) - _lognormal_limited(
            dist.mu, dist.sigma, d
        )
    return _gamma_limited(dist.alpha, dist.beta, d + c) - _gamma_limited(
        dist.alpha, dist.beta, d
    )

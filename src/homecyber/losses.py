"""Business-line loss models conditional on exploitation states.

Three conditional families: an exponential whose rate is the sum of
per-trigger rates over exploited trigger nodes, and lognormal / gamma laws
that fire when any trigger node is exploited.  When nothing fires the loss
is degenerate at 0.  Closed-form moments and limited expected values back
the simulation with exact oracles.
"""

import functools
import math
import weakref
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from scipy import special

from .graph import DEFAULT_ENUMERATION_CAP, AttackGraph, StateVector, enumerate_joint


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

    def rate_map(self) -> dict[int, float]:
        return dict(self.rates)


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
        return float(special.gammaincc(self.alpha, self.beta * x))


Distribution = DegenerateZero | Exponential | Lognormal | Gamma


def _per_graph(fn):
    """Cache ``fn(key, graph)`` per graph, holding the graph weakly.

    A cache that held graphs strongly, as ``lru_cache`` does, would keep a
    graph alive after its last use, and with it the joint the graph caches
    (8 MB at n = 20).
    """
    cache: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    @functools.wraps(fn)
    def cached(key, graph: AttackGraph):
        per_graph = cache.get(graph)
        if per_graph is None:
            per_graph = cache[graph] = {}
        if key not in per_graph:
            per_graph[key] = fn(key, graph)
        return per_graph[key]

    return cached


@_per_graph
def _trigger_positions(line: BusinessLine, graph: AttackGraph) -> np.ndarray:
    positions = np.array(
        [graph.position(nid) for nid in sorted(line.trigger_set)], dtype=np.intp
    )
    positions.flags.writeable = False
    return positions


@_per_graph
def _rate_vector(model: RateSumExponential, graph: AttackGraph):
    positions = np.array(
        [graph.position(nid) for nid, _ in model.rates], dtype=np.intp
    )
    rates = np.array([rate for _, rate in model.rates])
    positions.flags.writeable = False
    rates.flags.writeable = False
    return positions, rates


def rate_sum(line: BusinessLine, state: StateVector, graph: AttackGraph) -> float:
    """Sum of per-node rates over exploited trigger nodes; 0 when none fired."""
    positions, rates = _rate_vector(line.model, graph)
    state = np.asarray(state, dtype=bool)
    return float(rates @ state[positions])


def conditional_distribution(
    line: BusinessLine, state: Sequence[bool] | StateVector, graph: AttackGraph
) -> Distribution:
    """Loss law of one line given a state; degenerate at 0 when nothing fired."""
    state = np.asarray(state, dtype=bool)
    model = line.model
    if isinstance(model, RateSumExponential):
        lam = rate_sum(line, state, graph)
        return Exponential(lam) if lam > 0.0 else DegenerateZero()
    fired = bool(state[_trigger_positions(line, graph)].any())
    if not fired:
        return DegenerateZero()
    if isinstance(model, TriggeredLognormal):
        return Lognormal(model.mu, model.sigma)
    return Gamma(model.alpha, model.beta)


def conditional_mean(
    line: BusinessLine, state: Sequence[bool] | StateVector, graph: AttackGraph
) -> float:
    return conditional_distribution(line, state, graph).mean()


def sample_loss_matrix(
    lines: Sequence[BusinessLine],
    states: np.ndarray,
    graph: AttackGraph,
    rng: np.random.Generator,
) -> np.ndarray:
    """Vectorized losses for a batch of states, shape ``(batch, len(lines))``.

    Lines are drawn in ascending index order.  Each line draws one severity
    vector whose length is the number of rows where it fired (rate sum > 0
    for an exponential line, any trigger exploited otherwise), assigned to
    those rows in ascending order; every other row loses exactly 0.  How
    much a line consumes from ``rng`` therefore depends on the states, but
    the result is still a pure function of ``states`` and the stream.
    """
    batch = states.shape[0]
    out = np.zeros((batch, len(lines)))
    for col, line in enumerate(sorted(lines, key=lambda ln: ln.index)):
        model = line.model
        if isinstance(model, RateSumExponential):
            positions, rates = _rate_vector(model, graph)
            lam = states[:, positions].astype(float) @ rates
            rows = np.flatnonzero(lam > 0.0)
            out[rows, col] = rng.standard_exponential(rows.size) / lam[rows]
            continue
        rows = np.flatnonzero(states[:, _trigger_positions(line, graph)].any(axis=1))
        if isinstance(model, TriggeredLognormal):
            out[rows, col] = rng.lognormal(model.mu, model.sigma, rows.size)
        else:
            out[rows, col] = rng.gamma(model.alpha, 1.0 / model.beta, rows.size)
    return out


def exact_line_mean(
    line: BusinessLine, graph: AttackGraph, cap: int = DEFAULT_ENUMERATION_CAP
) -> float:
    """Exact E[loss] under the joint state law.

    The enumerated joint is summed down to the 2^t patterns of the line's t
    trigger nodes, and the mean is an fsum over the patterns that fire.
    """
    by_id = _trigger_positions(line, graph)
    order = np.argsort(by_id)
    patterns = enumerate_joint(graph, cap=cap).pattern_probs(by_id[order])
    model = line.model
    if isinstance(model, RateSumExponential):
        # fired[j, i]: pattern j has the i-th trigger in position order exploited
        fired = (np.arange(patterns.size)[:, None] >> np.arange(order.size)) & 1 == 1
        # rates follow the triggers in id order, as the trigger positions do
        lam = fired @ _rate_vector(model, graph)[1][order]
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


def limited_expected_value(
    line: BusinessLine,
    state: Sequence[bool] | StateVector,
    d: float,
    c: float,
    graph: AttackGraph,
) -> float:
    """E[min((loss - d)_+, c)] under the state-conditional law."""
    return limited_expected_value_of(conditional_distribution(line, state, graph), d, c)

"""Retention transform, the four premium principles, and calibration.

Premiums are sample functionals: expectation loading, standard-deviation
loading, Gini-mean-difference loading, and the conditional tail expectation
above the empirical value-at-risk.  Calibration inverts each principle so a
chosen baseline premium pins the loading parameter.
"""

import bisect
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np


class CalibrationError(ValueError):
    """Base class for calibration failures."""


class NotCalibratableError(CalibrationError):
    """The family's scale statistic is zero, so no parameter can move the premium."""


class TargetNotAchievableError(CalibrationError):
    """The target premium lies outside the attainable range for the family."""


class CteNotIdentifiableError(CalibrationError):
    """The empirical CTE is flat around the target and never attains it."""


@dataclass(frozen=True)
class Policy:
    """Per-policy deductible and coverage limit, in dollars per year."""

    deductible: float
    coverage: float

    def __post_init__(self):
        if not (math.isfinite(self.deductible) and self.deductible >= 0.0):
            raise ValueError(f"deductible must be finite and >= 0, got {self.deductible}")
        # unlimited cover (inf) is valid and priced in closed form
        if not self.coverage > 0.0:
            raise ValueError(f"coverage must be > 0, got {self.coverage}")


class _Loading:
    def __post_init__(self):
        if not math.isfinite(self.theta):
            raise ValueError(f"{type(self).__name__} theta must be finite, got {self.theta}")


@dataclass(frozen=True)
class Expectation(_Loading):
    theta: float


@dataclass(frozen=True)
class StdDev(_Loading):
    theta: float


@dataclass(frozen=True)
class GMD(_Loading):
    theta: float


@dataclass(frozen=True)
class CTE:
    beta: float

    def __post_init__(self):
        if not 0.0 < self.beta < 1.0:
            raise ValueError(f"beta must lie in (0, 1), got {self.beta}")


PrincipleParam = Expectation | StdDev | GMD | CTE

FAMILIES = ("expectation", "stddev", "gmd", "cte")


def retain(loss: np.ndarray, deductible, coverage) -> np.ndarray:
    """min((loss - d)_+, C) in a new array; d and C broadcast against ``loss``."""
    retained = np.subtract(loss, deductible)
    return np.minimum(np.maximum(retained, 0.0, out=retained), coverage, out=retained)


def apply_retention(loss, policy: Policy):
    """``retain`` under one policy; accepts scalars or arrays."""
    retained = retain(np.atleast_1d(np.asarray(loss, float)), policy.deductible, policy.coverage)
    return float(retained[0]) if np.isscalar(loss) or np.ndim(loss) == 0 else retained


def _sorted_gmd(ordered: np.ndarray) -> float:
    n = ordered.size
    if n < 2:
        raise ValueError(f"GMD needs at least 2 samples, got {n}")
    k = np.arange(1, n + 1, dtype=float)
    return float((2.0 * k - n - 1.0) @ ordered) * 2.0 / (n * (n - 1))


def gmd(samples: Sequence[float] | np.ndarray) -> float:
    """Mean absolute difference over unordered pairs, via the sorted identity.

    Equals (2 / (n (n-1))) * sum_{i<j} |x_i - x_j| exactly; the sorted form
    sum_k (2k - n - 1) x_(k) avoids the pair loop.  ``premiums`` shares the sort.
    """
    return _sorted_gmd(np.sort(np.asarray(samples, dtype=float)))


def var_rank(n: int, beta: float) -> int:
    """Smallest k in 1..n with k / n >= beta; ``ceil(n * beta)`` can overshoot by one."""
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must lie in (0, 1), got {beta}")
    return bisect.bisect_left(range(1, n + 1), beta, key=lambda k: k / n) + 1


def var_beta(samples: Sequence[float] | np.ndarray, beta: float) -> float:
    """Order statistic x_(k) for k = ``var_rank(n, beta)`` (no interpolation)."""
    x = np.asarray(samples, dtype=float)
    if x.size == 0:
        raise ValueError("value-at-risk of an empty sample")
    return float(np.sort(x)[var_rank(x.size, beta) - 1])


def cte(samples: Sequence[float] | np.ndarray, beta: float) -> float:
    """Mean of the samples at or above the empirical value-at-risk."""
    return premium(samples, CTE(beta))


def premiums(
    samples: Sequence[float] | np.ndarray, params: Sequence[PrincipleParam]
) -> tuple[float, ...]:
    """Premiums of one retained-loss sample under each of ``params``, in order.

    GMD and the CTE's value-at-risk read one sorted copy; means, SDs and tail
    means sum ``samples`` in its own order, so the bits match ``premium``'s.
    """
    x = np.asarray(samples, dtype=float)
    if x.size == 0:
        raise ValueError("premium of an empty sample")
    mean = float(x.mean())
    ordered = np.sort(x) if any(isinstance(p, (GMD, CTE)) for p in params) else None
    out = []
    for param in params:
        if isinstance(param, Expectation):
            out.append((1.0 + param.theta) * mean)
        elif isinstance(param, StdDev):
            if x.size < 2:
                raise ValueError("standard-deviation principle needs at least 2 samples")
            out.append(mean + param.theta * float(np.std(x, ddof=1)))
        elif isinstance(param, GMD):
            out.append(mean + param.theta * _sorted_gmd(ordered))
        elif isinstance(param, CTE):
            out.append(float(x[x >= ordered[var_rank(x.size, param.beta) - 1]].mean()))
        else:
            raise TypeError(f"unknown principle parameter {param!r}")
    return tuple(out)


def premium(samples: Sequence[float] | np.ndarray, param: PrincipleParam) -> float:
    """Premium of a retained-loss sample under one principle."""
    return premiums(samples, (param,))[0]


def check_target_premium(target_premium: float) -> None:
    """Raise ValueError unless ``target_premium`` is finite and >= 0."""
    if not (math.isfinite(target_premium) and target_premium >= 0.0):
        raise ValueError(f"target premium must be finite and >= 0, got {target_premium}")


def calibrate(
    family: str,
    samples: Sequence[float] | np.ndarray,
    target_premium: float,
    rel_tol: float = 1e-6,
) -> PrincipleParam:
    """Solve for the parameter that makes ``premium(samples, param) == target``.

    Expectation / stddev / gmd solve in closed form:
    theta = (target - mean) / scale with scale = mean, SD, GMD.  The CTE
    family searches the finitely many attainable tail expectations (the exact
    limit of a monotone bisection over beta, bracketed in (1/n, 1 - 1/n)).

    Raises:
        NotCalibratableError: the scale statistic is zero.
        TargetNotAchievableError: CTE target below the sample mean or above
            the sample maximum.
        CteNotIdentifiableError: the empirical CTE is flat below the target
            and jumps past it, so no beta reproduces the target.
    """
    check_target_premium(target_premium)
    x = np.asarray(samples, dtype=float)
    if x.size < 2:
        raise ValueError("calibration needs at least 2 samples")
    tol = rel_tol * max(1.0, target_premium)
    mean = float(x.mean())

    if family == "expectation":
        if mean == 0.0:
            raise NotCalibratableError("sample mean is 0; expectation loading has no effect")
        return Expectation((target_premium - mean) / mean)
    if family == "stddev":
        sd = float(np.std(x, ddof=1))
        if sd == 0.0:
            raise NotCalibratableError("sample SD is 0; stddev loading has no effect")
        return StdDev((target_premium - mean) / sd)
    if family == "gmd":
        scale = gmd(x)
        if scale == 0.0:
            raise NotCalibratableError("sample GMD is 0; GMD loading has no effect")
        return GMD((target_premium - mean) / scale)
    if family == "cte":
        return _calibrate_cte(x, target_premium, tol)
    raise ValueError(f"unknown principle family {family!r}; expected one of {FAMILIES}")


def _calibrate_cte(x: np.ndarray, target: float, tol: float) -> CTE:
    """CTE(k / n) for the first candidate k whose tail mean is within ``tol``.

    One vectorised scan of k = 1..n-1 (beta inside (1/n, 1 - 1/n)), each run of
    ties at its first k; raises unless a k is within ``tol`` before one passes it.
    """
    n = x.size
    ordered = np.sort(x)
    # suffix means: tail_mean[k] = mean(ordered[k:]); CTE at threshold x_(k+1)
    suffix = np.cumsum(ordered[::-1])[::-1]
    tail_means = suffix / np.arange(n, 0, -1, dtype=float)

    if target < tail_means[0] - tol:
        raise TargetNotAchievableError(
            f"target {target} is below the sample mean {tail_means[0]:.6g}"
        )
    if target > ordered[-1] + tol:
        raise TargetNotAchievableError(
            f"target {target} is above the sample maximum {ordered[-1]:.6g}"
        )

    # 0-based first indices of the distinct values among ordered[:n-1]
    firsts = np.flatnonzero(np.concatenate(([True], ordered[1 : n - 1] != ordered[: n - 2])))
    values = tail_means[firsts]
    hit = np.abs(values - target) <= tol
    stop = hit | ~(values < target)
    i = int(np.argmax(stop))
    if not stop[i]:  # every candidate lies below the target
        below, jump = values[-1], "the sample maximum"
    elif hit[i]:
        return CTE((int(firsts[i]) + 1) / n)
    else:
        below, jump = values[max(i - 1, 0)], f"{values[i]:.6g}"
    raise CteNotIdentifiableError(
        f"empirical CTE is flat at {below:.6g} below the target {target} "
        f"and jumps to {jump}; no beta attains the target"
    )

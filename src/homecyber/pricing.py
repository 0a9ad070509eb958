"""Retention transform, the four premium principles, and calibration.

Premiums are sample functionals: expectation loading, standard-deviation
loading, Gini-mean-difference loading, and the conditional tail expectation
above the empirical value-at-risk.  Calibration inverts each principle so a
chosen baseline premium pins the loading parameter.  Policies and
principle parameters need only the standard library; numpy is imported on
first use, by the functions that compute.
"""

from __future__ import annotations

import bisect
import math
from typing import TYPE_CHECKING, Sequence

from .graph import Frozen

if TYPE_CHECKING:
    import numpy as np


class CalibrationError(ValueError):
    """Base class for calibration failures."""


class NotCalibratableError(CalibrationError):
    """The family's scale statistic is zero, so no parameter can move the premium."""


class TargetNotAchievableError(CalibrationError):
    """The target premium lies outside the attainable range for the family."""


class CteNotIdentifiableError(CalibrationError):
    """The empirical CTE is flat around the target and never attains it."""


class Policy(Frozen):
    """Per-policy deductible and coverage limit, in dollars per year."""

    __slots__ = ("deductible", "coverage")

    def _check(self):
        if not (math.isfinite(self.deductible) and self.deductible >= 0.0):
            raise ValueError(f"deductible must be finite and >= 0, got {self.deductible}")
        # unlimited cover (inf) is valid and priced in closed form
        if not self.coverage > 0.0:
            raise ValueError(f"coverage must be > 0, got {self.coverage}")


class _Loading(Frozen):
    __slots__ = ()

    def _check(self):
        if not math.isfinite(self.theta):
            raise ValueError(f"{type(self).__name__} theta must be finite, got {self.theta}")


class Expectation(_Loading):
    __slots__ = ("theta",)


class StdDev(_Loading):
    __slots__ = ("theta",)


class GMD(_Loading):
    __slots__ = ("theta",)


class CTE(Frozen):
    __slots__ = ("beta",)

    def _check(self):
        if not 0.0 < self.beta < 1.0:
            raise ValueError(f"beta must lie in (0, 1), got {self.beta}")


PrincipleParam = Expectation | StdDev | GMD | CTE

FAMILIES = ("expectation", "stddev", "gmd", "cte")


def retain(loss: np.ndarray, deductible, coverage, out: np.ndarray | None = None) -> np.ndarray:
    """min((loss - d)_+, C) in ``out``, or in a new array when None; d and C
    broadcast against ``loss``, and ``out`` may be ``loss`` itself."""
    import numpy as np

    retained = np.subtract(loss, deductible, out=out)
    return np.clip(retained, 0.0, coverage, out=retained)


def _sorted_gmd(ordered: np.ndarray) -> float:
    """Mean absolute difference over unordered pairs of an ascending sample:
    (2 / (n (n-1))) * sum_{i<j} |x_i - x_j| = sum_k (2k - n - 1) x_(k) * 2 / (n (n-1)),
    so sorting replaces the pair loop."""
    import numpy as np

    n = ordered.size
    if n < 2:
        raise ValueError(f"GMD needs at least 2 samples, got {n}")
    k = np.arange(1, n + 1, dtype=float)
    return float((2.0 * k - n - 1.0) @ ordered) * 2.0 / (n * (n - 1))


OVERFLOW = "statistics of the sample overflow float64"


def finite(statistic: float, message: str = OVERFLOW) -> float:
    """``statistic``; raises ValueError(``message``) when it is inf or NaN, as
    the statistics of a sample that overflows float64 are."""
    if not math.isfinite(statistic):
        raise ValueError(message)
    return statistic


def var_rank(n: int, beta: float) -> int:
    """Smallest k in 1..n with k / n >= beta; ``ceil(n * beta)`` can overshoot by one."""
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must lie in (0, 1), got {beta}")
    return bisect.bisect_left(range(1, n + 1), beta, key=lambda k: k / n) + 1


def premiums(
    samples: Sequence[float] | np.ndarray, params: Sequence[PrincipleParam]
) -> tuple[float, ...]:
    """Premiums of one retained-loss sample under each of ``params``, in order.

    GMD and the CTE's value-at-risk read one sorted copy; means, SDs and tail
    means sum ``samples`` in its own order, so the bits match ``premium``'s.
    A loading that overflows float64 on finite statistics raises OverflowError.
    """
    import numpy as np

    x = np.asarray(samples, dtype=float)
    if x.size == 0:
        raise ValueError("premium of an empty sample")
    mean = float(x.mean())
    ordered = np.sort(x) if any(isinstance(p, (GMD, CTE)) for p in params) else None
    out = []
    for param in params:
        if isinstance(param, CTE):
            out.append(float(x[x >= ordered[var_rank(x.size, param.beta) - 1]].mean()))
            continue
        if isinstance(param, Expectation):
            scale, value, loading = mean, (1.0 + param.theta) * mean, "(1 + theta) x mean"
        elif isinstance(param, StdDev):
            if x.size < 2:
                raise ValueError("standard-deviation principle needs at least 2 samples")
            scale = float(np.std(x, ddof=1))
            value, loading = mean + param.theta * scale, "mean + theta x SD"
        elif isinstance(param, GMD):
            scale = _sorted_gmd(ordered)
            value, loading = mean + param.theta * scale, "mean + theta x GMD"
        else:
            raise TypeError(f"unknown principle parameter {param!r}")
        if not math.isfinite(value) and math.isfinite(mean) and math.isfinite(scale):
            raise OverflowError(f"{type(param).__name__} loading {loading} overflows float64")
        out.append(value)
    return tuple(out)


def premium(samples: Sequence[float] | np.ndarray, param: PrincipleParam) -> float:
    """Premium of a retained-loss sample under one principle."""
    return premiums(samples, (param,))[0]


def check_premium(name: str, value: float) -> None:
    """Raise ValueError naming ``name`` unless the premium ``value`` is finite and > 0."""
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be finite and > 0, got {value}")


def check_target_premium(target_premium: float) -> None:
    """Raise ValueError unless ``target_premium`` is finite and >= 0."""
    if not (math.isfinite(target_premium) and target_premium >= 0.0):
        raise ValueError(f"target premium must be finite and >= 0, got {target_premium}")


def calibrations(
    samples: Sequence[float] | np.ndarray,
    families: Sequence[str],
    target_premium: float,
) -> tuple[PrincipleParam | CalibrationError, ...]:
    """The parameter of each of ``families``, in order, that makes
    ``premium(samples, param) == target_premium``; GMD and CTE read one sorted copy.

    Expectation / stddev / gmd solve in closed form:
    theta = (target - mean) / scale with scale = mean, SD, GMD.  The CTE
    family searches the finitely many attainable tail expectations (the exact
    limit of a monotone bisection over beta, bracketed in (1/n, 1 - 1/n)) and
    takes one within 1e-6 x max(1, target) of the target.

    A family that cannot be calibrated gets, in its place, the
    ``CalibrationError`` it would raise:
        NotCalibratableError: the scale statistic is zero.
        TargetNotAchievableError: CTE target below the sample mean or above
            the sample maximum, or a loading parameter beyond float64.
        CteNotIdentifiableError: the empirical CTE is flat below the target
            and jumps past it, so no beta reproduces the target.
    An unknown family, a bad target, fewer than 2 samples, or a mean, SD or
    GMD that overflows float64 raise ValueError.
    """
    import numpy as np

    check_target_premium(target_premium)
    x = np.asarray(samples, dtype=float)
    if x.size < 2:
        raise ValueError("calibration needs at least 2 samples")
    tol = 1e-6 * max(1.0, target_premium)
    mean = finite(float(x.mean()))
    ordered = np.sort(x) if {"gmd", "cte"} & set(families) else None
    out = []
    for family in families:
        try:
            out.append(_calibrate_one(family, x, ordered, mean, target_premium, tol))
        except CalibrationError as exc:  # its traceback would hold x in a cycle
            out.append(exc.with_traceback(None))
    return tuple(out)


# family -> (parameter class, loading name, scale name, scale of (x, sorted x, mean))
_LOADINGS = {
    "expectation": (Expectation, "expectation", "mean", lambda x, ordered, mean: mean),
    "stddev": (StdDev, "stddev", "SD", lambda x, ordered, mean: float(x.std(ddof=1))),
    "gmd": (GMD, "GMD", "GMD", lambda x, ordered, mean: _sorted_gmd(ordered)),
}


def _calibrate_one(family, x, ordered, mean, target_premium, tol) -> PrincipleParam:
    if family == "cte":
        return _calibrate_cte(ordered, target_premium, tol)
    if family not in _LOADINGS:
        raise ValueError(f"unknown principle family {family!r}; expected one of {FAMILIES}")
    kind, loading, name, statistic = _LOADINGS[family]
    scale = finite(statistic(x, ordered, mean))
    if scale == 0.0:
        raise NotCalibratableError(f"sample {name} is 0; {loading} loading has no effect")
    theta = (target_premium - mean) / scale
    if not math.isfinite(theta):
        raise TargetNotAchievableError(f"theta = (target - mean) / {name} overflows float64")
    return kind(theta)


def _calibrate_cte(ordered: np.ndarray, target: float, tol: float) -> CTE:
    """CTE(k / n) for the first candidate k whose tail mean is within ``tol``.

    One vectorised scan of k = 1..n-1 (beta inside (1/n, 1 - 1/n)), each run of
    ties at its first k; raises unless a k is within ``tol`` before one passes it.
    """
    import numpy as np

    n = ordered.size
    # suffix sums: mean(ordered[k:]) = suffix[k] / (n - k), the CTE at threshold x_(k+1)
    suffix = np.cumsum(ordered[::-1])[::-1]
    mean = suffix[0] / float(n)

    if target < mean - tol:
        raise TargetNotAchievableError(f"target {target} is below the sample mean {mean:.6g}")
    if target > ordered[-1] + tol:
        raise TargetNotAchievableError(
            f"target {target} is above the sample maximum {ordered[-1]:.6g}"
        )

    # 0-based first indices of the distinct values among ordered[:n-1]
    firsts = np.flatnonzero(np.concatenate(([True], ordered[1 : n - 1] != ordered[: n - 2])))
    values = suffix[firsts] / (n - firsts).astype(float)
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

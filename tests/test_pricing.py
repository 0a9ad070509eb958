import gc
import math
import re
import weakref
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homecyber.pricing import (
    CTE,
    FAMILIES,
    CalibrationError,
    CteNotIdentifiableError,
    Expectation,
    GMD,
    NotCalibratableError,
    Policy,
    StdDev,
    TargetNotAchievableError,
    _sorted_gmd,
    calibrations,
    premium,
    premiums,
    retain,
    sample_sd,
    var_rank,
)

BASE_POLICY = Policy(deductible=1000.0, coverage=50_000.0)


def brute_force_gmd(x):
    x = np.asarray(x, dtype=float)
    n = x.size
    return float(np.abs(x[:, None] - x[None, :]).sum()) / (n * (n - 1))


def gmd_of(x):
    """The GMD that the GMD principle loads: its premium at theta 1 less the mean."""
    return premium(x, GMD(1.0)) - float(np.mean(x))


def var_of(x, beta):
    """Reference value-at-risk: the order statistic of rank ``var_rank``."""
    return float(np.sort(x)[var_rank(len(x), beta) - 1])


def calibrated(family, x, target):
    """``calibrations`` of one family: its parameter or its CalibrationError."""
    (result,) = calibrations(x, (family,), target)
    return result


class TestApplyRetention:
    # ``retain`` under BASE_POLICY, one loss at a time
    @staticmethod
    def retained(loss):
        return retain(np.array([loss]), BASE_POLICY.deductible, BASE_POLICY.coverage).tolist()

    def test_below_deductible(self):
        assert self.retained(500.0) == [0.0]

    def test_between(self):
        assert self.retained(1500.0) == [500.0]

    def test_capped(self):
        assert self.retained(60_000.0) == [50_000.0]

    def test_vectorized(self):
        out = retain(np.array([0.0, 1000.0, 2500.0, 99_999.0]), 1000.0, 50_000.0)
        assert np.array_equal(out, [0.0, 0.0, 1500.0, 50_000.0])

    def test_randomized_identities(self):
        rng = np.random.default_rng(17)
        n = 20_000
        loss = rng.lognormal(5, 2, n)
        d = rng.uniform(0, 2000, n)
        c = rng.uniform(1, 100_000, n)
        x = retain(loss, d, c)
        assert np.all((0.0 <= x) & (x <= c))
        assert np.array_equal(x == 0.0, loss <= d)
        assert np.all(retain(loss + 1.0, d, c) >= x)
        assert np.all(retain(loss, d + 1.0, c) <= x)

    def test_policy_invariants(self):
        with pytest.raises(ValueError):
            Policy(-1.0, 100.0)
        with pytest.raises(ValueError):
            Policy(0.0, 0.0)


class TestRetain:
    @staticmethod
    def reference(loss, d, c):
        return np.minimum(np.maximum(np.subtract(loss, d), 0.0), c)

    @pytest.mark.parametrize("d, c", [(1000.0, 50_000.0), (1000.0, math.inf), (0.0, 500.0),
                                      (0.0, math.inf)])
    def test_same_bits_as_maximum_then_minimum(self, d, c):
        rng = np.random.default_rng(23)
        loss = rng.lognormal(6.0, 2.0, 5_000)
        loss[:100] = 0.0
        loss[100:200] = d  # exactly the deductible
        loss[200:300] = d + c
        out = retain(loss, d, c)
        assert out.tobytes() == self.reference(loss, d, c).tobytes()
        assert not np.signbit(out).any()

    def test_policy_broadcast(self):
        rng = np.random.default_rng(24)
        totals = rng.lognormal(6.0, 2.0, (8, 50))
        totals[0, :5] = 500.0
        d = np.array([0.0, 500.0, 1000.0]).reshape(-1, 1, 1)
        c = np.array([math.inf, 50_000.0, 2000.0]).reshape(-1, 1, 1)
        out = retain(totals, d, c)
        assert out.shape == (3, 8, 50)
        assert out.tobytes() == self.reference(totals, d, c).tobytes()

    @pytest.mark.parametrize("d, c", [(1000.0, 50_000.0), (0.0, math.inf)])
    def test_in_place_on_a_column_major_matrix(self, d, c):
        rng = np.random.default_rng(25)
        loss = np.asfortranarray(rng.lognormal(6.0, 2.0, (3_000, 4)))
        loss[:100] = d
        expected = retain(loss, d, c)
        out = retain(loss, d, c, out=loss)
        assert out is loss
        assert loss.tobytes() == expected.tobytes()


class TestPremium:
    def test_expectation_constant_sample(self):
        assert premium([7.0, 7.0, 7.0], Expectation(0.5)) == pytest.approx(10.5)

    def test_gmd_two_points(self):
        assert gmd_of([0.0, 10.0]) == pytest.approx(10.0)
        assert premium([0.0, 10.0], GMD(0.25)) == pytest.approx(7.5)

    def test_stddev_two_points(self):
        assert premium([0.0, 10.0], StdDev(1.0)) == pytest.approx(5.0 + math.sqrt(50.0))

    def test_cte(self):
        x = [1.0, 2.0, 3.0, 4.0]
        assert premium(x, CTE(0.5)) == pytest.approx(3.0)  # mean of {2,3,4}

    def test_empty_and_short_samples(self):
        with pytest.raises(ValueError):
            premium([], Expectation(0.1))
        with pytest.raises(ValueError):
            premium([1.0], StdDev(0.1))
        with pytest.raises(ValueError, match="GMD needs at least 2 samples"):
            premium([1.0], GMD(0.1))

    def test_loading_nonnegativity(self):
        rng = np.random.default_rng(2)
        x = rng.gamma(2.0, 100.0, 400)
        mean = x.mean()
        for param in (Expectation(0.3), StdDev(0.3), GMD(0.3)):
            assert premium(x, param) >= mean
        for beta in (0.05, 0.34, 0.5, 0.9, 0.99):
            assert premium(x, CTE(beta)) >= mean - 1e-9

    def test_positive_homogeneity(self):
        rng = np.random.default_rng(3)
        x = rng.lognormal(3, 1, 300)
        for c in (0.5, 2.0, 37.0):
            for param in (Expectation(0.4), StdDev(0.2), GMD(0.25), CTE(0.34)):
                assert premium(c * x, param) == pytest.approx(c * premium(x, param), rel=1e-12)

    def test_translation(self):
        rng = np.random.default_rng(4)
        x = rng.gamma(3.0, 50.0, 300)
        c = 123.0
        for param in (StdDev(0.2), GMD(0.25)):
            assert premium(x + c, param) == pytest.approx(premium(x, param) + c, rel=1e-12)
        theta = 0.4
        assert premium(x + c, Expectation(theta)) == pytest.approx(
            (1 + theta) * (x.mean() + c), rel=1e-12
        )


class TestGmd:
    def test_identical_values(self):
        assert gmd_of([3.0, 3.0, 3.0]) == 0.0

    def test_sorted_equals_brute_force(self):
        rng = np.random.default_rng(8)
        x = rng.uniform(0, 1000, 2000)
        assert gmd_of(x) == pytest.approx(brute_force_gmd(x), rel=1e-9)

    @given(st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False), min_size=2, max_size=60))
    @settings(max_examples=100, deadline=None)
    def test_sorted_equals_brute_force_property(self, values):
        assert gmd_of(values) == pytest.approx(brute_force_gmd(values), rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("size", [2, 3, 17, 150])
    def test_sorted_within_ulps_of_exact_pairs(self, size):
        # the pairwise mean of |x_i - x_j| in rational arithmetic, rounded once
        x = np.sort(np.random.default_rng(size).lognormal(3.0, 1.5, size))
        values = [Fraction(v) for v in x.tolist()]
        pairs = sum(abs(a - b) for i, a in enumerate(values) for b in values[i + 1:])
        exact = float(pairs * 2 / (size * (size - 1)))
        assert abs(_sorted_gmd(x) - exact) <= 4 * math.ulp(exact)


def exact_sd(x) -> float:
    """The n - 1 divisor SD of ``x``: its variance in exact rational arithmetic,
    scaled by 4^-k (k the exponent of max |x|) so that its float is a normal number."""
    k = math.frexp(float(np.abs(x).max()))[1]
    values = [Fraction(v) for v in x]
    mean = sum(values) / len(values)
    variance = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
    return math.ldexp(math.sqrt(variance / Fraction(4) ** k), k)


class TestSampleSd:
    def test_one_value_and_constant_samples_are_zero(self):
        assert sample_sd(np.array([7.0])) == 0.0
        assert sample_sd(np.full(10, 1e-320)) == 0.0
        assert sample_sd(np.zeros(3)) == 0.0

    def test_normal_range_keeps_the_bits_of_np_std(self):
        rng = np.random.default_rng(27)
        for k in range(300):
            x = rng.lognormal(0.0, 1.0, 1 + k) * 10.0 ** rng.uniform(-5, 5)
            want = float(np.std(x, ddof=1)) if x.size > 1 else 0.0
            assert sample_sd(x).hex() == want.hex()

    def test_subnormal_sample_is_not_zero(self):
        # every squared deviation underflows, so np.std reads 0
        x = np.random.default_rng(5).uniform(0.0, 1e-320, 2000)
        assert float(np.std(x, ddof=1)) == 0.0
        sd = sample_sd(x)
        assert 2.5e-321 < sd < 3.3e-321
        assert abs(sd - exact_sd(x)) <= 2 * 5e-324
        assert sample_sd(np.array([0.0, 1e-320, 3e-320])) > 0.0

    def test_partly_underflowing_squares_are_rescaled(self):
        # some squared deviations are subnormal: np.std is 0.15 % off here
        x = np.random.default_rng(1).uniform(0.0, 1e-160, 500)
        assert abs(float(np.std(x, ddof=1)) / exact_sd(x) - 1.0) > 1e-3
        assert abs(sample_sd(x) / exact_sd(x) - 1.0) < 1e-15

    def test_rescaling_keeps_the_bits_of_a_safe_sample(self):
        # scaling by a power of two commutes with every step of np.std
        x = np.random.default_rng(3).lognormal(0.0, 1.0, 1000)
        for k in (-400, -200, 0, 200, 400):
            assert math.ldexp(sample_sd(np.ldexp(x, k)), -k) == float(np.std(x, ddof=1))

    def test_sd_beyond_float64_stays_inf(self):
        # the SD is 1.7e308 * sqrt(2), above float64's maximum
        with np.errstate(over="ignore"):
            assert sample_sd(np.array([-1.7e308, 1.7e308])) == math.inf

    def test_overflowing_squares_are_rescaled(self):
        # np.std squares deviations above 1.34e154 to inf; the SD itself fits
        with np.errstate(over="ignore"):
            assert float(np.std([0.0, 1.5e308], ddof=1)) == math.inf
            assert sample_sd(np.array([0.0, 1.5e308])) == 1.5e308 / math.sqrt(2.0)
            assert sample_sd(np.full(10, 1e308)) == 0.0


class TestVarBeta:
    def test_four_samples(self):
        assert var_of([1.0, 2.0, 3.0, 4.0], 0.5) == 2.0
        assert premium([1.0, 2.0, 3.0, 4.0], CTE(0.5)) == 3.0  # mean of {2, 3, 4}

    def test_tiny_beta_gives_minimum(self):
        assert var_of([5.0, 1.0, 9.0], 1e-9) == 1.0
        assert premium([5.0, 1.0, 9.0], CTE(1e-9)) == 5.0  # every sample

    def test_heavy_zero_mass(self):
        x = [0.0] * 99 + [50.0]
        assert var_of(x, 0.34) == 0.0
        assert premium(x, CTE(0.34)) == pytest.approx(0.5)  # mean of everything >= 0

    def test_bad_beta(self):
        with pytest.raises(ValueError):
            CTE(0.0)
        with pytest.raises(ValueError):
            var_rank(1, 1.0)


class TestCalibrate:
    def test_expectation_closed_form(self):
        x = np.full(50, 14.0)
        param = calibrated("expectation", x, 28.0)
        assert param == Expectation(1.0)
        assert premium(x, param) == pytest.approx(28.0, rel=1e-6)

    def test_stddev_closed_form(self):
        param = calibrated("stddev", [0.0, 10.0], 12.0)
        assert param.theta == pytest.approx((12.0 - 5.0) / math.sqrt(50.0))
        assert param.theta == pytest.approx(0.98995, abs=1e-5)
        assert premium([0.0, 10.0], param) == pytest.approx(12.0, rel=1e-6)

    def test_gmd_closed_form(self):
        param = calibrated("gmd", [0.0, 10.0], 12.0)
        assert param.theta == pytest.approx(0.7)
        assert premium([0.0, 10.0], param) == pytest.approx(12.0, rel=1e-6)

    def test_round_trip_on_random_samples(self):
        rng = np.random.default_rng(9)
        x = rng.lognormal(4, 1.5, 5_000)
        for target in (10.0, 150.0, 2_000.0):
            for param in calibrations(x, ("expectation", "stddev", "gmd"), target):
                assert premium(x, param) == pytest.approx(target, rel=1e-6)

    def test_cte_round_trip(self):
        rng = np.random.default_rng(10)
        x = np.sort(rng.gamma(2.0, 30.0, 1_000))
        target = premium(x, CTE(0.75))
        param = calibrated("cte", x, target)
        assert isinstance(param, CTE)
        assert premium(x, param) == pytest.approx(target, rel=1e-6)

    @pytest.mark.parametrize("family, sample", [
        ("expectation", [1e308, 1e308]),  # the mean overflows
        ("stddev", [-1.7e308, 1.7e308]),  # a finite mean, but the SD overflows
        ("gmd", [0.0, 1.5e308]),  # a finite mean, but the weighted sum overflows
    ])
    def test_overflowing_statistics_rejected(self, family, sample):
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                ValueError, match="^statistics of the sample overflow float64$"):
            calibrations(sample, (family,), 28.0)

    def test_sd_whose_squares_overflow_calibrates(self):
        # the squared deviations overflow, but the SD (1.5e308 / sqrt(2)) fits
        x = [0.0, 1.5e308]
        with np.errstate(over="ignore"):
            (param,) = calibrations(x, ("stddev",), 1.5e308)
            assert param == StdDev(math.sqrt(0.5))
            assert premium(x, param) == 1.5e308

    def test_parameter_beyond_float64_is_not_achievable(self):
        # a subnormal sample: (target - mean) / scale overflows, and each family
        # still gets its own row
        got = calibrations([0.0, 1e-320, 3e-320], FAMILIES, 28.0)
        assert [type(param) for param in got] == [TargetNotAchievableError] * 4
        assert str(got[0]) == "theta = (target - mean) / mean overflows float64"
        assert str(got[1]) == "theta = (target - mean) / SD overflows float64"
        assert str(got[2]) == "theta = (target - mean) / GMD overflows float64"

    def test_constant_samples_not_calibratable(self):
        x = np.full(20, 5.0)
        for family in ("stddev", "gmd"):
            assert isinstance(calibrated(family, x, 9.0), NotCalibratableError)
        assert isinstance(calibrated("expectation", np.zeros(20), 9.0), NotCalibratableError)

    def test_cte_not_achievable(self):
        x = [0.0] * 98 + [100.0, 200.0]
        # below the sample mean of 3, then above the sample maximum
        for target, where in ((1.0, "below the sample mean"), (500.0, "above the sample maximum")):
            error = calibrated("cte", x, target)
            assert isinstance(error, TargetNotAchievableError) and where in str(error)

    def test_cte_flat_gap_reports_non_identifiable(self):
        # CTE is flat at 3.0 (98% zeros) and then jumps to 150; 28 sits in the gap
        x = [0.0] * 98 + [100.0, 200.0]
        error = calibrated("cte", x, 28.0)
        assert isinstance(error, CteNotIdentifiableError) and "flat" in str(error)

    def test_cte_target_attainable_on_plateau(self):
        x = [0.0] * 98 + [100.0, 200.0]
        param = calibrated("cte", x, 3.0)  # the flat level itself
        assert premium(x, param) == pytest.approx(3.0, rel=1e-6)

    def test_calibrations_match_calibrate_with_one_sort(self, monkeypatch):
        rng = np.random.default_rng(12)
        x = rng.lognormal(3.0, 1.5, 4_000)
        x[rng.random(x.size) < 0.5] = 0.0
        for target in (premium(x, CTE(0.8)), float(x.mean()) / 2):  # the second fails for cte
            alone = [_outcome(calibrated(family, x, target)) for family in FAMILIES]
            calls = []
            sort = np.sort
            monkeypatch.setattr(np, "sort", lambda a, *args, **kw: calls.append(1) or sort(a))
            together = calibrations(x, FAMILIES, target)
            monkeypatch.undo()
            assert calls == [1]
            assert [_outcome(r) for r in together] == alone
            assert calibrations(x, ("expectation", "stddev"), target) == tuple(alone[:2])

    def test_returned_error_keeps_no_sample_alive(self):
        # a kept traceback would hold the samples in a reference cycle
        x = np.array([0.0, 0.0, 0.0, 10.0])
        ref = weakref.ref(x)
        gc.disable()
        try:
            (error,) = calibrations(x, ("cte",), 5.0)
            del x
            assert isinstance(error, CteNotIdentifiableError)
            assert ref() is None
        finally:
            gc.enable()

    def test_unknown_family(self):
        with pytest.raises(ValueError, match="unknown principle family"):
            calibrations([1.0, 2.0], ("esscher",), 1.5)

    def test_negative_target_rejected(self):
        with pytest.raises(ValueError, match="target premium must be finite and >= 0"):
            calibrations([1.0, 2.0], ("expectation",), -1.0)


class TestPremiums:
    PARAMS = (Expectation(0.5), StdDev(0.03), GMD(0.25), CTE(0.34))

    def test_same_bits_as_one_principle_at_a_time(self):
        rng = np.random.default_rng(11)
        losses = rng.lognormal(3.0, 1.5, (3_000, 3))
        losses[rng.random(losses.shape) < 0.6] = 0.0
        for column in losses.T:  # strided, as the price command passes them
            together = premiums(column, self.PARAMS)
            alone = tuple(premium(column, param) for param in self.PARAMS)
            assert np.array(together).tobytes() == np.array(alone).tobytes()

    def test_one_sort_for_all_principles(self, monkeypatch):
        calls = []
        sort = np.sort
        monkeypatch.setattr(np, "sort", lambda a, *args, **kw: calls.append(1) or sort(a))
        x = np.arange(10.0)
        premiums(x, self.PARAMS)
        assert len(calls) == 1
        premiums(x, self.PARAMS[:2])
        assert len(calls) == 1  # expectation and SD read no order statistic

    def test_errors(self):
        with pytest.raises(ValueError, match="empty"):
            premiums([], self.PARAMS)
        with pytest.raises(ValueError, match="at least 2"):
            premiums([1.0], self.PARAMS)
        with pytest.raises(TypeError, match="unknown principle"):
            premiums([1.0, 2.0], (Expectation(0.1), 0.5))
        assert premiums([1.0, 2.0], ()) == ()

    @pytest.mark.parametrize("param, loading", [
        (Expectation(1e308), "Expectation loading (1 + theta) x mean"),
        (Expectation(-1e308), "Expectation loading (1 + theta) x mean"),
        (StdDev(1e308), "StdDev loading mean + theta x SD"),
        (GMD(1e308), "GMD loading mean + theta x GMD"),
    ])
    def test_loading_that_overflows_is_named(self, param, loading):
        with pytest.raises(OverflowError, match=rf"^{re.escape(loading)} overflows float64$"):
            premiums([1.0, 2.0, 40.0], (CTE(0.5), param))

    def test_statistics_that_overflow_are_left_to_the_caller(self):
        # the mean itself overflows, so no loading is blamed
        with np.errstate(over="ignore", invalid="ignore"):
            got = premiums([1e308, 1e308], self.PARAMS)
        assert got[0] == got[2] == math.inf


class TestVarRank:
    @pytest.mark.parametrize("n", [100, 5_000, 10_000, 20_000, 100_000])
    def test_smallest_k_with_k_over_n_at_least_beta(self, n):
        # float64 k / n never falls as k grows, so a search of the table of
        # every k / n is the brute-force answer
        table = np.arange(1, n + 1) / n
        grid = table[:-1]
        betas = np.concatenate((grid, np.nextafter(grid, 0.0), np.nextafter(grid, 1.0)))
        betas = betas[(betas > 0.0) & (betas < 1.0)]
        expected = np.searchsorted(table, betas, side="left") + 1
        assert [var_rank(n, beta) for beta in betas.tolist()] == expected.tolist()

    def test_ceil_shortcut_overshoots(self):
        # 10000 * 0.34 rounds up to 3400.0000000000005, and 100 * 0.07 to
        # 7.000000000000001: ceil(n * beta) would take one rank too many
        assert math.ceil(10_000 * 0.34) == 3401 and var_rank(10_000, 0.34) == 3400
        assert math.ceil(100 * 0.07) == 8 and var_rank(100, 0.07) == 7
        assert var_rank(100_000, 0.34) == 34_000

    def test_tiny_and_bad_beta(self):
        assert var_rank(3, 1e-9) == 1
        assert var_rank(3, 1.0 - 1e-12) == 3
        for beta in (0.0, 1.0, -0.5, math.nan):
            with pytest.raises(ValueError, match="beta must lie"):
                var_rank(5, beta)

    def test_round_trip_every_k(self):
        n = 100
        x = np.random.default_rng(12).permutation(np.arange(1.0, n + 1.0))
        for k in range(1, n):
            tail = float(np.arange(k, n + 1.0).mean())  # integers: every sum is exact
            assert var_of(x, k / n) == k
            assert premium(x, CTE(k / n)) == tail
            assert calibrated("cte", x, tail) == CTE(k / n)

    def test_cte_round_trip_example(self):
        x = np.arange(1.0, 101.0)
        target = float(x[6:].mean())
        assert target == 53.5
        param = calibrated("cte", x, target)
        assert param == CTE(0.07)
        assert premium(x, param) == target


def _reference_calibrate_cte(x: np.ndarray, target: float, tol: float) -> CTE:
    """The order-statistic loop that the vectorised CTE scan replaced, verbatim."""
    n = x.size
    ordered = np.sort(x)
    # suffix means: tail_mean[k] = mean(ordered[k:]); CTE at threshold x_(k+1)
    suffix = np.cumsum(ordered[::-1])[::-1]
    counts = np.arange(n, 0, -1, dtype=float)
    tail_means = suffix / counts

    if target < tail_means[0] - tol:
        raise TargetNotAchievableError(
            f"target {target} is below the sample mean {tail_means[0]:.6g}"
        )
    if target > ordered[-1] + tol:
        raise TargetNotAchievableError(
            f"target {target} is above the sample maximum {ordered[-1]:.6g}"
        )

    # candidate thresholds k = 1..n-1 (beta bracketed inside (1/n, 1 - 1/n));
    # with ties, CTE depends on the threshold value only, via its first index
    best_k = None
    below = tail_means[0]
    above = None
    for k in range(1, n):  # 1-indexed order statistic
        if k > 1 and ordered[k - 1] == ordered[k - 2]:
            continue
        value = float(tail_means[k - 1])
        if abs(value - target) <= tol:
            best_k = k
            break
        if value < target:
            below = value
        elif above is None:
            above = value
            break
    if best_k is None:
        jump = "the sample maximum" if above is None else f"{above:.6g}"
        raise CteNotIdentifiableError(
            f"empirical CTE is flat at {below:.6g} below the target {target} "
            f"and jumps to {jump}; no beta attains the target"
        )
    return CTE(best_k / n)


def _outcome(result):
    """A calibration result, with an error as its (type, message) so that results compare."""
    return (type(result), str(result)) if isinstance(result, CalibrationError) else result


def _reference_outcome(x, target, tol):
    try:
        return _reference_calibrate_cte(x, target, tol)
    except CalibrationError as exc:
        return type(exc), str(exc)


@st.composite
def cte_cases(draw):
    """Samples with ties and heavy zero mass, and targets on, near and between plateaus."""
    n = draw(st.integers(2, 200))
    pool = np.array(draw(st.lists(st.floats(0.0, 1e4, allow_nan=False), min_size=1, max_size=5)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # ties from the pool, continuous values elsewhere, then a block of zeros
    x = np.where(rng.random(n) < draw(st.sampled_from((0.0, 0.5, 1.0))),
                 rng.choice(pool, n), rng.uniform(0.0, 1e4, n))
    x[: draw(st.sampled_from((0, n // 2, n - 2, n - 1)))] = 0.0
    ordered = np.sort(x)
    tail_means = np.cumsum(ordered[::-1])[::-1] / np.arange(n, 0, -1, dtype=float)
    j = draw(st.integers(0, n - 2))
    a, b = float(tail_means[j]), float(tail_means[j + 1])
    tol = 1e-6 * max(1.0, a)
    target = draw(st.sampled_from((
        a, (a + b) / 2.0, a + 0.5 * tol, a - 0.5 * tol, a + tol, a + 2.0 * tol,
        b - 0.5 * tol, float(ordered[-1]) + 2.0 * tol, 0.0,
    )))
    target = draw(st.one_of(st.just(max(target, 0.0)), st.floats(0.0, 1.2e4)))
    return x, target


class TestCteScan:
    @given(cte_cases())
    @settings(max_examples=400, deadline=None, derandomize=True)
    def test_matches_the_reference_loop(self, case):
        x, target = case
        tol = 1e-6 * max(1.0, target)  # the CTE tolerance of calibrations
        expected = _reference_outcome(x, target, tol)
        assert _outcome(calibrated("cte", x, target)) == expected

    @pytest.mark.parametrize("target", [0.5, 1.0, 3.0, 3.0 + 2e-6, 28.0, 150.0, 199.0, 200.0,
                                        500.0])
    def test_zero_heavy_sample(self, target):
        x = np.array([0.0] * 98 + [100.0, 200.0])
        tol = 1e-6 * max(1.0, target)
        expected = _reference_outcome(x, target, tol)
        assert _outcome(calibrated("cte", x, target)) == expected

    def test_every_candidate_below_the_target(self):
        # tail means 1.5 (k = 1) and then the sample maximum 2.0 is never a candidate
        x = np.array([1.0, 2.0])
        got = _outcome(calibrated("cte", x, 1.9))
        assert got == _reference_outcome(x, 1.9, 1.9e-6)
        assert got[0] is CteNotIdentifiableError and "the sample maximum" in got[1]

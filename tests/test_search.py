import numpy as np
import pytest

from homecyber.portfolio import simulate_claims
from homecyber.pricing import Policy
from homecyber.search import (
    DegenerateClaimsError,
    MeanLR,
    QuantileLR,
    deductible_grid,
    lr_statistic,
    premium_for_claims,
    report_proposals,
    search_deductible,
)

GRID = (100.0, 150.0, 200.0, 250.0, 500.0, 1000.0)
BOTH = (MeanLR(0.40), QuantileLR(0.995, 0.40))


def grid_claims(graph, lines, n_homes, replications, seed, grid=GRID):
    """Claims of one CRN simulation, one row per grid deductible at 50 000 cover."""
    return simulate_claims(graph, lines, n_homes, replications,
                           [Policy(d, 50_000.0) for d in grid], seed)


class TestStrategies:
    def test_invariants(self):
        with pytest.raises(ValueError):
            MeanLR(0.0)
        with pytest.raises(ValueError):
            MeanLR(1.5)
        with pytest.raises(ValueError):
            QuantileLR(1.0, 0.4)
        with pytest.raises(ValueError):
            QuantileLR(0.995, 1.5)

    def test_target_one_accepted(self):
        assert MeanLR(1.0).target == 1.0
        assert QuantileLR(0.995, 1.0).target == 1.0

    def test_statistics(self):
        x = np.array([0.1, 0.2, 0.3, 0.4])
        assert lr_statistic(x, MeanLR(0.4)) == pytest.approx(0.25)
        assert lr_statistic(x, QuantileLR(0.5, 0.4)) == pytest.approx(0.25)

    @pytest.mark.parametrize("strategy", BOTH, ids=["mean", "quantile"])
    def test_statistic_that_overflows_is_an_error(self, strategy):
        # an inf or NaN statistic would read as infeasible, or price at inf or NaN
        claims = np.array([[1.0, np.inf, np.inf]] * 2)
        overflow = r"^LR statistic (inf|nan): the portfolio claims overflow float64$"
        with np.errstate(invalid="ignore"):
            with pytest.raises(ValueError, match=overflow):
                search_deductible(claims, (100.0, 200.0), 1.0, strategy)
            with pytest.raises(ValueError, match=overflow):
                premium_for_claims(claims[0], 10, strategy)
        with np.errstate(over="ignore"), pytest.raises(ValueError, match=overflow):
            lr_statistic(np.array([1e308, 1e308]), MeanLR(0.4))  # the sum overflows


class TestPremiumForClaims:
    def test_deterministic_claims_closed_form(self):
        claims = np.full(200, 10_000.0)
        assert premium_for_claims(claims, 500, MeanLR(0.5)) == pytest.approx(40.0)

    def test_quantile_inversion(self):
        rng = np.random.default_rng(0)
        claims = rng.gamma(5.0, 2_000.0, 5_000)
        strategy = QuantileLR(0.995, 0.40)
        prem = premium_for_claims(claims, 500, strategy)
        achieved = lr_statistic(claims / (500 * prem), strategy)
        assert achieved == pytest.approx(0.40, rel=1e-9)

    def test_zero_claims_flagged(self):
        with pytest.raises(DegenerateClaimsError):
            premium_for_claims(np.zeros(100), 500, MeanLR(0.4))

    @pytest.mark.parametrize("claim, strategy", [(1e-320, MeanLR(0.4)),
                                                 (5e-324, QuantileLR(0.995, 0.4))])
    def test_subnormal_round_trip_flagged(self, claim, strategy):
        # the premium is subnormal too, so claims / (N * P) rounds off the target
        with pytest.raises(DegenerateClaimsError, match="round-trip LR statistic"):
            premium_for_claims(np.full(50, claim), 3, strategy)


class TestSolvePremium:
    def test_round_trip_on_case_study(self, case_graph, case_lines):
        claims = simulate_claims(
            case_graph, case_lines, 100, 2_000, [Policy(1000.0, 50_000.0)], 31
        )[0]
        prem = premium_for_claims(claims, 100, MeanLR(0.40))
        assert prem > 0.0
        # the same claims, re-simulated from the same seed, reproduce the target exactly
        again = simulate_claims(
            case_graph, case_lines, 100, 2_000, [Policy(1000.0, 50_000.0)], 31
        )[0]
        assert lr_statistic(again / (100 * prem), MeanLR(0.40)) == pytest.approx(
            0.40, rel=1e-9
        )


@pytest.fixture(scope="module")
def search_result(case_graph, case_lines):
    claims = grid_claims(case_graph, case_lines, 100, 2_000, 41)
    return search_deductible(claims, GRID, 100 * 418.0, MeanLR(0.40))


class TestSearchDeductible:
    def test_statistic_monotone_under_crn(self, search_result):
        stats = search_result.statistics
        assert all(a >= b for a, b in zip(stats, stats[1:]))

    def test_feasible_set_is_up_set(self, search_result):
        feasible = [s <= 0.40 for s in search_result.statistics]
        first = feasible.index(True) if True in feasible else len(feasible)
        assert all(not f for f in feasible[:first])
        assert all(feasible[first:])

    def test_chosen_is_boundary(self, search_result):
        feasible = [s <= 0.40 for s in search_result.statistics]
        if search_result.chosen is None:
            assert not any(feasible)
        else:
            idx = GRID.index(search_result.chosen)
            assert feasible[idx]
            assert all(not f for f in feasible[:idx])

    def test_trivial_target_returns_smallest(self, case_graph, case_lines):
        claims = grid_claims(case_graph, case_lines, 20, 100, 1)
        result = search_deductible(claims, GRID, 20 * 100_000.0, MeanLR(1.0))
        assert result.chosen == GRID[0]

    def test_infeasible_target(self, case_graph, case_lines):
        claims = grid_claims(case_graph, case_lines, 20, 100, 1, grid=(0.0, 100.0))
        result = search_deductible(claims, (0.0, 100.0), 20 * 1.0, MeanLR(1e-9))
        assert result.chosen is None
        assert not any(s <= 1e-9 for s in result.statistics)

    @pytest.mark.parametrize("strategy", [MeanLR(0.4), QuantileLR(0.995, 0.4)])
    def test_statistic_at_target_is_feasible(self, strategy):
        # 4 / 10 rounds to the same double as 0.4, and so do the mean and any
        # quantile of two of them: the first row's statistic is the target
        claims = np.array([[4.0, 4.0], [2.0, 2.0]])
        result = search_deductible(claims, (100.0, 200.0), 10.0, strategy)
        assert result.statistics == (0.4, 0.2)
        assert all(s <= strategy.target for s in result.statistics)
        assert result.chosen == 100.0
        row, = report_proposals(claims, (100.0, 200.0), [("rho1", 10.0)], 50_000.0, 1,
                                (strategy, strategy))
        assert (row.deductible_1, row.deductible_2) == (100.0, 100.0)

    def test_grid_must_ascend(self):
        with pytest.raises(ValueError, match="ascending"):
            deductible_grid((500.0, 100.0))
        with pytest.raises(ValueError, match="empty"):
            deductible_grid(())

    def test_quantile_never_below_mean_deductible(self, case_graph, case_lines):
        claims = grid_claims(case_graph, case_lines, 100, 2_000, 43)
        mean_pick, tail_pick = (
            search_deductible(claims, GRID, 100 * 418.0, strategy).chosen for strategy in BOTH
        )
        assert mean_pick is not None
        assert tail_pick is None or tail_pick >= mean_pick


class TestReportProposals:
    def test_single_principle_row(self, case_graph, case_lines):
        claims = grid_claims(case_graph, case_lines, 100, 1_000, 51)
        rows = report_proposals(claims, GRID, [("rho1", 418.0)], 50_000.0, 100, BOTH)
        assert len(rows) == 1
        row = rows[0]
        assert row.principle == "rho1"
        assert row.total_premium == 418.0
        if row.deductible_1 is not None:
            assert row.mean_profit_1 is not None
            assert row.mean_profit_1 < 100 * 418.0

    def test_zero_targets_infeasible(self, case_graph, case_lines):
        claims = grid_claims(case_graph, case_lines, 50, 500, 52)
        rows = report_proposals(claims, GRID, [("rho1", 418.0), ("rho2", 307.0)], 50_000.0, 50,
                                (MeanLR(1e-12), QuantileLR(0.995, 1e-12)))
        for row in rows:
            assert row.deductible_1 is None
            assert row.mean_profit_1 is None
            assert row.deductible_2 is None

    def test_grid_must_ascend(self):
        # a repeated deductible is not strictly ascending either
        with pytest.raises(ValueError, match="strictly ascending"):
            deductible_grid((100.0, 500.0, 500.0))
        assert deductible_grid([100, 500]) == (100.0, 500.0)

    def test_strategy_two_pick_at_least_strategy_one(self, case_graph, case_lines):
        claims = grid_claims(case_graph, case_lines, 100, 2_000, 53)
        premiums = [("rho1", 418.0), ("rho2", 307.0), ("rho3", 368.0), ("rho4", 408.0)]
        rows = report_proposals(claims, GRID, premiums, 50_000.0, 100, BOTH)
        for row in rows:
            if row.deductible_1 is not None and row.deductible_2 is not None:
                assert row.deductible_2 >= row.deductible_1

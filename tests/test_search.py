import numpy as np
import pytest

from homecyber.pricing import Policy
from homecyber.search import (
    DegenerateClaimsError,
    MeanLR,
    QuantileLR,
    lr_statistic,
    premium_for_claims,
    report_proposals,
    search_deductible,
    solve_premium,
)

GRID = (100.0, 150.0, 200.0, 250.0, 500.0, 1000.0)


class TestStrategies:
    def test_invariants(self):
        with pytest.raises(ValueError):
            MeanLR(0.0)
        with pytest.raises(ValueError):
            MeanLR(1.5)
        with pytest.raises(ValueError):
            QuantileLR(1.0, 0.4)

    def test_statistics(self):
        x = np.array([0.1, 0.2, 0.3, 0.4])
        assert lr_statistic(x, MeanLR(0.4)) == pytest.approx(0.25)
        assert lr_statistic(x, QuantileLR(0.5, 0.4)) == pytest.approx(0.25)


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


class TestSolvePremium:
    def test_round_trip_on_case_study(self, case_graph, case_lines):
        prem = solve_premium(
            case_graph, case_lines, Policy(1000.0, 50_000.0), MeanLR(0.40),
            n_homes=100, replications=2_000, master_seed=31,
        )
        assert prem > 0.0
        # re-simulating with the same seed must reproduce the target exactly
        from homecyber.portfolio import simulate_claims

        claims = simulate_claims(
            case_graph, case_lines, 100, 2_000, [Policy(1000.0, 50_000.0)], 31
        )[0]
        assert lr_statistic(claims / (100 * prem), MeanLR(0.40)) == pytest.approx(
            0.40, rel=1e-9
        )


@pytest.fixture(scope="module")
def search_result(case_graph, case_lines):
    return search_deductible(
        case_graph, case_lines, premiums_total=418.0, coverage=50_000.0,
        grid=GRID, strategy=MeanLR(0.40),
        n_homes=100, replications=2_000, master_seed=41,
    )


class TestSearchDeductible:
    def test_statistic_monotone_under_crn(self, search_result):
        stats = search_result.statistics
        assert all(a >= b for a, b in zip(stats, stats[1:]))

    def test_feasible_set_is_up_set(self, search_result):
        feasible = search_result.feasible
        first = feasible.index(True) if True in feasible else len(feasible)
        assert all(not f for f in feasible[:first])
        assert all(feasible[first:])

    def test_chosen_is_boundary(self, search_result):
        feasible = search_result.feasible
        if search_result.chosen is None:
            assert not any(feasible)
        else:
            idx = search_result.grid.index(search_result.chosen)
            assert feasible[idx]
            assert all(not f for f in feasible[:idx])

    def test_trivial_target_returns_smallest(self, case_graph, case_lines):
        result = search_deductible(
            case_graph, case_lines, premiums_total=100_000.0, coverage=50_000.0,
            grid=GRID, strategy=MeanLR(1.0),
            n_homes=20, replications=100, master_seed=1,
        )
        assert result.chosen == GRID[0]

    def test_infeasible_target(self, case_graph, case_lines):
        result = search_deductible(
            case_graph, case_lines, premiums_total=1.0, coverage=50_000.0,
            grid=(0.0, 100.0), strategy=MeanLR(1e-9),
            n_homes=20, replications=100, master_seed=1,
        )
        assert result.chosen is None
        assert not any(result.feasible)

    def test_grid_must_ascend(self, case_graph, case_lines):
        with pytest.raises(ValueError, match="ascending"):
            search_deductible(
                case_graph, case_lines, premiums_total=418.0, coverage=50_000.0,
                grid=(500.0, 100.0), strategy=MeanLR(0.4),
                n_homes=10, replications=10, master_seed=1,
            )

    def test_quantile_never_below_mean_deductible(self, case_graph, case_lines):
        common = dict(
            premiums_total=418.0, coverage=50_000.0, grid=GRID,
            n_homes=100, replications=2_000, master_seed=43,
        )
        mean_pick = search_deductible(
            case_graph, case_lines, strategy=MeanLR(0.40), **common
        ).chosen
        tail_pick = search_deductible(
            case_graph, case_lines, strategy=QuantileLR(0.995, 0.40), **common
        ).chosen
        assert mean_pick is not None
        assert tail_pick is None or tail_pick >= mean_pick


class TestReportProposals:
    def test_single_principle_row(self, case_graph, case_lines):
        rows = report_proposals(
            case_graph, case_lines, premiums=[("rho1", 418.0)],
            coverage=50_000.0, grid=GRID,
            n_homes=100, replications=1_000, master_seed=51,
        )
        assert len(rows) == 1
        row = rows[0]
        assert row.principle == "rho1"
        assert row.total_premium == 418.0
        if row.deductible_1 is not None:
            assert row.mean_profit_1 is not None
            assert row.mean_profit_1 < 100 * 418.0

    def test_zero_targets_infeasible(self, case_graph, case_lines):
        rows = report_proposals(
            case_graph, case_lines, premiums=[("rho1", 418.0), ("rho2", 307.0)],
            coverage=50_000.0, grid=GRID,
            n_homes=50, replications=500, master_seed=52,
            mean_target=1e-12, quantile_target=1e-12,
        )
        for row in rows:
            assert row.deductible_1 is None
            assert row.mean_profit_1 is None
            assert row.deductible_2 is None

    def test_grid_must_ascend(self, case_graph, case_lines):
        with pytest.raises(ValueError, match="strictly ascending"):
            report_proposals(
                case_graph, case_lines, premiums=[("rho1", 418.0)],
                coverage=50_000.0, grid=(1000.0, 500.0, 100.0),
                n_homes=10, replications=10, master_seed=54,
            )

    def test_strategy_two_pick_at_least_strategy_one(self, case_graph, case_lines):
        rows = report_proposals(
            case_graph, case_lines,
            premiums=[("rho1", 418.0), ("rho2", 307.0), ("rho3", 368.0), ("rho4", 408.0)],
            coverage=50_000.0, grid=GRID,
            n_homes=100, replications=2_000, master_seed=53,
        )
        for row in rows:
            if row.deductible_1 is not None and row.deductible_2 is not None:
                assert row.deductible_2 >= row.deductible_1

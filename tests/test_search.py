import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from homecyber.portfolio import simulate_claims
from homecyber.pricing import Policy
from homecyber.reports import proposal_table
from homecyber.search import (
    DegenerateClaimsError,
    MeanLR,
    QuantileLR,
    deductible_grid,
    lr_statistic,
    premium_for_claims,
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

    @given(st.lists(st.one_of(st.just(0.0), st.sampled_from((0.25, 0.4, 3.0)),
                              st.floats(0.0, 1e6).map(lambda v: v + 0.0)),
                    min_size=1, max_size=80),
           st.sampled_from((0.995, 0.5, "whole")))
    @settings(max_examples=300, deadline=None, derandomize=True)
    @example([0.4], 0.995)
    @example([0.0, 0.4, 0.4, 0.0, 3.0], "whole")
    def test_quantile_keeps_numpy_bits(self, values, level):
        # the quantile LR statistic is np.quantile's bits, ties and zeros too;
        # "whole" is a level k / (n - 1) at which (n - 1) q is the integer k
        x = np.array(values)
        if level == "whole":
            n = x.size
            level = max((k / (n - 1) for k in range(1, n - 1) if (n - 1) * (k / (n - 1)) == k),
                        default=0.5)
        expected = np.float64(np.quantile(x, level)).tobytes()
        assert np.float64(lr_statistic(x, QuantileLR(level, 0.4))).tobytes() == expected

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
        stats, _ = search_result
        assert all(a >= b for a, b in zip(stats, stats[1:]))

    def test_feasible_set_is_up_set(self, search_result):
        feasible = [s <= 0.40 for s in search_result[0]]
        first = feasible.index(True) if True in feasible else len(feasible)
        assert all(not f for f in feasible[:first])
        assert all(feasible[first:])

    def test_chosen_is_boundary(self, search_result):
        stats, chosen = search_result
        feasible = [s <= 0.40 for s in stats]
        if chosen is None:
            assert not any(feasible)
        else:
            idx = GRID.index(chosen)
            assert feasible[idx]
            assert all(not f for f in feasible[:idx])

    def test_trivial_target_returns_smallest(self, case_graph, case_lines):
        claims = grid_claims(case_graph, case_lines, 20, 100, 1)
        _, chosen = search_deductible(claims, GRID, 20 * 100_000.0, MeanLR(1.0))
        assert chosen == GRID[0]

    def test_infeasible_target(self, case_graph, case_lines):
        claims = grid_claims(case_graph, case_lines, 20, 100, 1, grid=(0.0, 100.0))
        stats, chosen = search_deductible(claims, (0.0, 100.0), 20 * 1.0, MeanLR(1e-9))
        assert chosen is None
        assert not any(s <= 1e-9 for s in stats)

    @pytest.mark.parametrize("strategy", [MeanLR(0.4), QuantileLR(0.995, 0.4)])
    def test_statistic_at_target_is_feasible(self, strategy):
        # 4 / 10 rounds to the same double as 0.4, and so do the mean and any
        # quantile of two of them: the first row's statistic is the target
        claims = np.array([[4.0, 4.0], [2.0, 2.0]])
        stats, chosen = search_deductible(claims, (100.0, 200.0), 10.0, strategy)
        assert stats == (0.4, 0.2)
        assert all(s <= strategy.target for s in stats)
        assert chosen == 100.0
        row, = proposal_table(claims, (100.0, 200.0), [("rho1", 10.0)], 50_000.0, 1,
                              (strategy, strategy)).rows
        assert (row[3], row[5]) == (100.0, 100.0)

    def test_grid_must_ascend(self):
        with pytest.raises(ValueError, match="ascending"):
            deductible_grid((500.0, 100.0))
        with pytest.raises(ValueError, match="empty"):
            deductible_grid(())

    def test_quantile_never_below_mean_deductible(self, case_graph, case_lines):
        claims = grid_claims(case_graph, case_lines, 100, 2_000, 43)
        mean_pick, tail_pick = (
            search_deductible(claims, GRID, 100 * 418.0, strategy)[1] for strategy in BOTH
        )
        assert mean_pick is not None
        assert tail_pick is None or tail_pick >= mean_pick


class TestReportProposals:
    def test_single_principle_row(self, case_graph, case_lines):
        claims = grid_claims(case_graph, case_lines, 100, 1_000, 51)
        rows = proposal_table(claims, GRID, [("rho1", 418.0)], 50_000.0, 100, BOTH).rows
        assert len(rows) == 1
        principle, total_premium, _, deductible_1, mean_profit_1, *_ = rows[0]
        assert principle == "rho1"
        assert total_premium == 418.0
        if deductible_1 is not None:
            assert mean_profit_1 is not None
            assert mean_profit_1 < 100 * 418.0

    def test_zero_targets_infeasible(self, case_graph, case_lines):
        claims = grid_claims(case_graph, case_lines, 50, 500, 52)
        rows = proposal_table(claims, GRID, [("rho1", 418.0), ("rho2", 307.0)], 50_000.0, 50,
                              (MeanLR(1e-12), QuantileLR(0.995, 1e-12))).rows
        for row in rows:
            assert row[3] is None  # Deductible 1
            assert row[4] is None  # Mean Profit 1
            assert row[5] is None  # Deductible 2

    def test_grid_must_ascend(self):
        # a repeated deductible is not strictly ascending either
        with pytest.raises(ValueError, match="strictly ascending"):
            deductible_grid((100.0, 500.0, 500.0))
        assert deductible_grid([100, 500]) == (100.0, 500.0)

    def test_strategy_two_pick_at_least_strategy_one(self, case_graph, case_lines):
        claims = grid_claims(case_graph, case_lines, 100, 2_000, 53)
        premiums = [("rho1", 418.0), ("rho2", 307.0), ("rho3", 368.0), ("rho4", 408.0)]
        for row in proposal_table(claims, GRID, premiums, 50_000.0, 100, BOTH).rows:
            deductible_1, deductible_2 = row[3], row[5]
            if deductible_1 is not None and deductible_2 is not None:
                assert deductible_2 >= deductible_1

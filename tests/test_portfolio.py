import math

import numpy as np
import pytest

from conftest import build_case_graph, loss_matrix
from homecyber.graph import AttackGraph, VulnNode
from homecyber.losses import exact_line_mean, loss_plan
from homecyber.portfolio import replication_group, simulate_claims
from homecyber.pricing import Policy, check_premium
from homecyber.reports import LR_LEVELS, PROFIT_LEVELS, portfolio_tables, render_csv
from homecyber.simulate import RUN_BLOCK, loss_block
from homecyber.streams import REPLICATION_LANE

POLICY = Policy(1000.0, 50_000.0)
INCOME = 50 * 418.0


def report(claims: np.ndarray, income: float) -> tuple[dict, dict]:
    """The Profit row and the LR row of ``portfolio_tables`` as header -> cell."""
    profit, lr = portfolio_tables(claims, income)
    assert len(profit.rows) == len(lr.rows) == 1
    return dict(zip(profit.header, profit.rows[0])), dict(zip(lr.header, lr.rows[0]))


def stat_cells(row: dict) -> dict:
    """Every statistic of a report row except its label and its SD."""
    return {k: v for k, v in row.items() if k not in ("Label", "SD")}


def zero_entry_graph() -> AttackGraph:
    """The case graph with every entry probability 0: no home ever loses."""
    nodes = [VulnNode(i, entry_prob=0.0 if i in (1, 2, 7) else None) for i in range(1, 8)]
    return AttackGraph(nodes, build_case_graph().edges)


@pytest.fixture(scope="module")
def small_claims(case_graph, case_lines):
    return simulate_claims(case_graph, case_lines, 50, 2_000, [POLICY], master_seed=21)[0]


class TestSpec:
    def test_rejects_nonpositive_fields(self, case_graph, case_lines):
        with pytest.raises(ValueError, match="n_homes must be >= 1, got 0"):
            simulate_claims(case_graph, case_lines, 0, 10, [POLICY], master_seed=1)
        with pytest.raises(ValueError, match="replications must be >= 1, got 0"):
            simulate_claims(case_graph, case_lines, 10, 0, [POLICY], master_seed=1)
        # zero premium would make the loss ratio undefined
        for premium in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="premium_per_home must be finite and > 0"):
                check_premium("premium_per_home", premium)
        check_premium("premium_per_home", 418.0)


class TestIdentities:
    def test_profit_identity_exact(self, small_claims):
        profit, _ = report(small_claims, INCOME)
        samples = INCOME - small_claims
        assert profit["Label"] == "portfolio Profit"
        expected = [samples.min(), *np.quantile(samples, PROFIT_LEVELS), samples.max(),
                    samples.mean()]
        assert list(stat_cells(profit).values()) == [float(v) for v in expected]
        # the SD is the claims' SD, which the premium shift leaves unchanged
        assert profit["SD"] == float(np.std(small_claims, ddof=1))
        assert math.isclose(profit["SD"], float(np.std(samples, ddof=1)), rel_tol=1e-12)

    def test_lr_identity_exact(self, small_claims):
        _, lr = report(small_claims, INCOME)
        samples = small_claims / INCOME
        assert lr["Label"] == "portfolio LR"
        expected = [samples.min(), *np.quantile(samples, LR_LEVELS), samples.max(),
                    samples.mean(), np.std(samples, ddof=1)]
        assert [lr[k] for k in lr if k != "Label"] == [float(v) for v in expected]

    def test_claims_nonnegative(self, small_claims):
        assert np.all(small_claims >= 0.0)


class TestDegenerateScenario:
    def test_zero_entry_probs(self, case_lines):
        claims = simulate_claims(zero_entry_graph(), case_lines, 20, 50, [POLICY],
                                 master_seed=1)[0]
        assert np.all(claims == 0.0)
        profit, lr = report(claims, 20 * 100.0)
        assert set(stat_cells(profit).values()) == {20 * 100.0}
        assert set(stat_cells(lr).values()) == {0.0}
        assert profit["SD"] == lr["SD"] == 0.0


class TestAgainstOracle:
    def test_full_coverage_single_home_mean(self, case_graph, case_lines):
        # d=0 and effectively unlimited coverage: the claim is the total loss
        claims = simulate_claims(case_graph, case_lines, 1, 30_000, [Policy(0.0, 1e18)],
                                 master_seed=77)[0]
        oracle = sum(exact_line_mean(line, case_graph) for line in case_lines)
        se = claims.std(ddof=1) / math.sqrt(claims.size)
        assert abs(claims.mean() - oracle) <= 4 * se


class TestCommonRandomNumbers:
    def test_claims_monotone_in_deductible(self, case_graph, case_lines):
        policies = [Policy(d, 50_000.0) for d in (100.0, 500.0, 1000.0)]
        claims = simulate_claims(
            case_graph, case_lines, n_homes=40, replications=500,
            policies=policies, master_seed=5,
        )
        assert np.all(claims[0] >= claims[1])
        assert np.all(claims[1] >= claims[2])

    def test_profit_sd_invariant_to_premium(self, case_graph, case_lines):
        claims = simulate_claims(case_graph, case_lines, 30, 400, [POLICY], master_seed=9)[0]
        # claims far below the income as well: their shifted copies round, so
        # an SD of the profit samples would move in its last bits
        tiny = np.random.default_rng(9).random(400)
        for sample in (claims, tiny):
            sds = [report(sample, 30 * p)[0]["SD"] for p in (418.0, 307.0, 368.0, 408.0)]
            # the same bits, not merely equal up to the last ulp
            assert {sd.hex() for sd in sds} == {float(np.std(sample, ddof=1)).hex()}

    def test_profit_increasing_lr_decreasing_in_premium(self, case_graph, case_lines):
        claims = simulate_claims(case_graph, case_lines, 30, 200, [POLICY], master_seed=3)[0]
        lo_profit, lo_lr = report(claims, 30 * 100.0)
        hi_profit, hi_lr = report(claims, 30 * 400.0)
        for stat, lo in stat_cells(lo_profit).items():
            assert hi_profit[stat] > lo, stat
        for stat, lo in stat_cells(lo_lr).items():
            assert hi_lr[stat] < lo if lo > 0.0 else hi_lr[stat] == 0.0, stat
        assert hi_profit["SD"] == lo_profit["SD"]


class TestDeterminism:
    def test_same_seed_bitwise(self, case_graph, case_lines, small_claims):
        again = simulate_claims(case_graph, case_lines, 50, 2_000, [POLICY], master_seed=21)[0]
        assert np.array_equal(again, small_claims)
        assert render_csv(portfolio_tables(again, INCOME)) == render_csv(
            portfolio_tables(small_claims, INCOME))

    def test_replication_independent_of_count(self, case_graph, case_lines):
        policies = [POLICY, Policy(100.0, 5_000.0)]
        full = simulate_claims(case_graph, case_lines, n_homes=25, replications=300,
                               policies=policies, master_seed=13)
        for reps in (1, 120, 299):
            prefix = simulate_claims(case_graph, case_lines, n_homes=25, replications=reps,
                                     policies=policies, master_seed=13)
            assert np.array_equal(prefix, full[:, :reps])


class TestReplicationGroups:
    # (n_homes, group size G, replications): counts that are not multiples
    # of G leave the last group partial
    @pytest.mark.parametrize(
        "n_homes, group, replications",
        [
            (1, RUN_BLOCK, RUN_BLOCK + 3),
            (7, RUN_BLOCK // 7, 2 * (RUN_BLOCK // 7) + 1),
            (500, RUN_BLOCK // 500, 2 * (RUN_BLOCK // 500) + 3),
            (RUN_BLOCK, 1, 3),
            (RUN_BLOCK + 1, 1, 2),
        ],
        ids=["1-home", "7-homes", "500-homes", "block-homes", "block+1-homes"],
    )
    def test_group_is_one_loss_block(
        self, case_graph, case_lines, n_homes, group, replications
    ):
        assert replication_group(n_homes) == group
        policies = [POLICY, Policy(0.0, 1e18)]
        claims = simulate_claims(case_graph, case_lines, n_homes, replications,
                                 policies, master_seed=31)
        expected = np.empty_like(claims)
        for g, first in enumerate(range(0, replications, group)):
            block = loss_matrix(loss_block(loss_plan(case_graph, case_lines), group * n_homes,
                                           31, g, REPLICATION_LANE),
                                group * n_homes, len(case_lines))
            totals = np.zeros(group * n_homes)
            for col in range(block.shape[1]):
                totals += block[:, col]
            for k in range(first, min(first + group, replications)):
                homes = totals[(k - first) * n_homes:(k - first + 1) * n_homes]
                for p, policy in enumerate(policies):
                    # min((T - d)+, C), the retention transform's reference
                    retained = np.minimum(np.maximum(homes - policy.deductible, 0.0),
                                          policy.coverage)
                    expected[p, k] = retained.sum()
        assert np.array_equal(claims, expected)
        threaded = simulate_claims(case_graph, case_lines, n_homes, replications,
                                   policies, master_seed=31, workers=2)
        assert np.array_equal(threaded, claims)
        # one replication fewer truncates the last group, not the others
        shorter = simulate_claims(case_graph, case_lines, n_homes, replications - 1,
                                  policies, master_seed=31)
        assert np.array_equal(shorter, claims[:, :-1])

    def test_many_groups_on_threads_match_serial(self, case_graph, case_lines):
        # 19 groups and three policies, drawn eight times, so that a buffer
        # shared between threads would almost surely corrupt some replication
        policies = [Policy(d, 50_000.0) for d in (100.0, 500.0, 1000.0)]
        serial = simulate_claims(case_graph, case_lines, 10, 30_000, policies,
                                 master_seed=37)
        for _ in range(8):
            threaded = simulate_claims(case_graph, case_lines, 10, 30_000, policies,
                                       master_seed=37, workers=2)
            assert np.array_equal(threaded, serial)


class TestOneRetentionPass:
    # unsorted deductibles, a zero deductible and unlimited cover; the
    # replication counts leave the last group partial, except at 20 000
    # homes, where a group is one replication
    POLICIES = [
        Policy(1000.0, 50_000.0),
        Policy(0.0, math.inf),
        Policy(250.0, 500.0),
        Policy(0.0, 2_000.0),
        Policy(5_000.0, math.inf),
    ]

    @pytest.mark.parametrize(
        "n_homes, replications",
        [(1, RUN_BLOCK + 5), (7, 2 * (RUN_BLOCK // 7) + 3), (500, 70), (20_000, 3)],
        ids=["1-home", "7-homes", "500-homes", "20000-homes"],
    )
    def test_policies_together_equal_one_call_each(
        self, case_graph, case_lines, n_homes, replications
    ):
        together = simulate_claims(case_graph, case_lines, n_homes, replications,
                                   self.POLICIES, master_seed=43)
        assert together.shape == (len(self.POLICIES), replications)
        for p, policy in enumerate(self.POLICIES):
            alone = simulate_claims(case_graph, case_lines, n_homes, replications,
                                    [policy], master_seed=43)
            assert alone.tobytes() == together[p:p + 1].tobytes()


class TestSummary:
    def test_constant_claims_zero_sd(self, case_lines):
        claims = simulate_claims(zero_entry_graph(), case_lines, 5, 30, [POLICY],
                                 master_seed=2)[0]
        profit, lr = report(claims, 5 * 50.0)
        assert profit["SD"] == 0.0
        assert profit["Mean"] == 5 * 50.0
        assert lr["Max"] == 0.0
        # one replication: its SD is reported as 0
        profit, lr = report(np.array([1234.5]), 5 * 50.0)
        assert profit["SD"] == lr["SD"] == 0.0
        assert set(stat_cells(profit).values()) == {5 * 50.0 - 1234.5}

    def test_summary_levels(self, small_claims):
        profit, lr = portfolio_tables(small_claims, INCOME)
        assert profit.header[2:8] == tuple(f"Q{round(lv * 100)}" for lv in PROFIT_LEVELS)
        assert lr.header[2:8] == ("Q25", "Q50", "Q75", "Q90", "Q95", "Q99.5")
        # Min, the quantiles by level, then Max never decrease
        for row in (profit.rows[0], lr.rows[0]):
            assert list(row[1:9]) == sorted(row[1:9])

import math

import numpy as np
import pytest

from conftest import build_case_graph
from homecyber.graph import AttackGraph, VulnNode
from homecyber.losses import exact_line_mean, loss_plan, sample_loss_matrix
from homecyber.portfolio import (
    PortfolioSpec,
    portfolio_summary,
    replication_group,
    simulate_claims,
    simulate_portfolio,
)
from homecyber.pricing import Policy, apply_retention
from homecyber.simulate import RUN_BLOCK, loss_block
from homecyber.streams import REPLICATION_LANE

POLICY = Policy(1000.0, 50_000.0)


@pytest.fixture(scope="module")
def small_result(case_graph, case_lines):
    spec = PortfolioSpec(n_homes=50, policy=POLICY, premium_per_home=418.0,
                         replications=2_000)
    return simulate_portfolio(case_graph, case_lines, spec, master_seed=21)


class TestSpec:
    def test_rejects_nonpositive_fields(self):
        with pytest.raises(ValueError):
            PortfolioSpec(0, POLICY, 418.0, 10)
        with pytest.raises(ValueError):
            PortfolioSpec(10, POLICY, 418.0, 0)
        with pytest.raises(ValueError):
            # zero premium would make the loss ratio undefined
            PortfolioSpec(10, POLICY, 0.0, 10)


class TestIdentities:
    def test_profit_identity_exact(self, small_result):
        spec = small_result.spec
        expected = spec.n_homes * spec.premium_per_home - small_result.claim
        assert np.array_equal(small_result.profit, expected)

    def test_lr_identity_exact(self, small_result):
        spec = small_result.spec
        expected = small_result.claim / (spec.n_homes * spec.premium_per_home)
        assert np.array_equal(small_result.lr, expected)

    def test_claims_nonnegative(self, small_result):
        assert np.all(small_result.claim >= 0.0)


class TestDegenerateScenario:
    def test_zero_entry_probs(self, case_lines):
        nodes = [
            VulnNode(i, entry_prob=0.0 if i in (1, 2, 7) else None) for i in range(1, 8)
        ]
        graph = AttackGraph(nodes, build_case_graph().edges)
        spec = PortfolioSpec(n_homes=20, policy=POLICY, premium_per_home=100.0,
                             replications=50)
        result = simulate_portfolio(graph, case_lines, spec, master_seed=1)
        assert np.all(result.claim == 0.0)
        assert np.all(result.profit == 20 * 100.0)
        assert np.all(result.lr == 0.0)


class TestAgainstOracle:
    def test_full_coverage_single_home_mean(self, case_graph, case_lines):
        # d=0 and effectively unlimited coverage: the claim is the total loss
        spec = PortfolioSpec(
            n_homes=1,
            policy=Policy(0.0, 1e18),
            premium_per_home=418.0,
            replications=30_000,
        )
        result = simulate_portfolio(case_graph, case_lines, spec, master_seed=77)
        oracle = sum(exact_line_mean(line, case_graph) for line in case_lines)
        se = result.claim.std(ddof=1) / math.sqrt(result.claim.size)
        assert abs(result.claim.mean() - oracle) <= 4 * se


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
        base = dict(n_homes=30, replications=400)
        results = [
            simulate_portfolio(
                case_graph, case_lines,
                PortfolioSpec(policy=POLICY, premium_per_home=p, **base),
                master_seed=9,
            )
            for p in (418.0, 307.0, 368.0, 408.0)
        ]
        sds = [portfolio_summary(r).profit.sd for r in results]
        assert all(sd == sds[0] for sd in sds)

    def test_profit_increasing_lr_decreasing_in_premium(self, case_graph, case_lines):
        base = dict(n_homes=30, replications=200)
        lo = simulate_portfolio(
            case_graph, case_lines,
            PortfolioSpec(policy=POLICY, premium_per_home=100.0, **base), master_seed=3,
        )
        hi = simulate_portfolio(
            case_graph, case_lines,
            PortfolioSpec(policy=POLICY, premium_per_home=400.0, **base), master_seed=3,
        )
        assert np.all(hi.profit > lo.profit)
        positive = lo.claim > 0.0
        assert np.all(hi.lr[positive] < lo.lr[positive])
        assert np.all(hi.lr[~positive] == lo.lr[~positive])


class TestDeterminism:
    def test_same_seed_bitwise(self, case_graph, case_lines, small_result):
        spec = small_result.spec
        again = simulate_portfolio(case_graph, case_lines, spec, master_seed=21)
        assert np.array_equal(again.claim, small_result.claim)

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
            block = loss_block(loss_plan(case_graph, case_lines), group * n_homes, 31, g,
                               REPLICATION_LANE, sample_loss_matrix)
            totals = np.zeros(group * n_homes)
            for col in range(block.shape[1]):
                totals += block[:, col]
            for k in range(first, min(first + group, replications)):
                homes = totals[(k - first) * n_homes:(k - first + 1) * n_homes]
                for p, policy in enumerate(policies):
                    expected[p, k] = apply_retention(homes, policy).sum()
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
        nodes = [
            VulnNode(i, entry_prob=0.0 if i in (1, 2, 7) else None) for i in range(1, 8)
        ]
        graph = AttackGraph(nodes, build_case_graph().edges)
        spec = PortfolioSpec(n_homes=5, policy=POLICY, premium_per_home=50.0,
                             replications=30)
        result = simulate_portfolio(graph, case_lines, spec, master_seed=2)
        summary = portfolio_summary(result)
        assert summary.profit.sd == 0.0
        assert summary.claim.mean == 0.0
        assert summary.lr.maximum == 0.0

    def test_summary_levels(self, small_result):
        summary = portfolio_summary(small_result, levels=(0.5, 0.995))
        assert summary.lr.quantile(0.5) <= summary.lr.quantile(0.995)

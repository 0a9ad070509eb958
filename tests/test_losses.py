import gc
import math
import re
import weakref

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import (
    all_states,
    build_case_graph,
    full_cdf,
    generated_scenario,
    graphs_with_lines,
    lev_quadrature,
    loss_matrix,
    recursive_joint_prob,
    scipy_law,
    shuffled_dag_graphs,
    state_index,
)
from homecyber.graph import (
    AttackGraph,
    Edge,
    EnumerationSizeError,
    VulnNode,
    enumerate_joint,
    sample_state_indices,
    state_guide,
)
from homecyber.losses import (
    BusinessLine,
    DegenerateZero,
    Exponential,
    Gamma,
    Lognormal,
    LossPlan,
    RateSumExponential,
    TriggeredGamma,
    TriggeredLognormal,
    conditional_distribution,
    exact_line_mean,
    limited_expected_value_of,
    line_draws,
    loss_plan,
)
from homecyber.portfolio import simulate_claims
from homecyber.pricing import Policy
from homecyber.simulate import RUN_BLOCK, loss_block, run_simulation
from homecyber.streams import REPLICATION_LANE, RUN_LANE, substream
from reference_kernel import reference_line_draws, reference_loss_matrix, reference_loss_totals


def state_with(case_graph, *exploited):
    states = np.zeros(case_graph.n, dtype=bool)
    for nid in exploited:
        states[case_graph.position(nid)] = True
    return states


class TestSpecValidation:
    def test_positive_parameters_required(self):
        with pytest.raises(ValueError):
            RateSumExponential(((1, 0.0),))
        with pytest.raises(ValueError):
            TriggeredLognormal(4.0, 0.0)
        with pytest.raises(ValueError):
            TriggeredGamma(-1.0, 1.0)
        with pytest.raises(ValueError):
            TriggeredGamma(1.0, 0.0)

    def test_empty_trigger_set_rejected(self):
        with pytest.raises(ValueError, match="empty trigger set"):
            BusinessLine(1, "x", frozenset(), TriggeredLognormal(1.0, 1.0))

    def test_rate_nodes_must_match_triggers(self):
        with pytest.raises(ValueError, match="do not match"):
            BusinessLine(1, "x", frozenset({1, 2}), RateSumExponential(((1, 0.5),)))

    def test_rates_sorted_by_node(self):
        model = RateSumExponential(((5, 1 / 320), (3, 1 / 640)))
        assert model.rates == ((3, 1 / 640), (5, 1 / 320))

    @pytest.mark.parametrize("rates, nid", [
        (((1, math.inf),), 1),
        (((2, 0.5), (7, math.inf)), 7),
        (((3, math.nan), (4, 0.5)), 3),
    ], ids=["inf", "inf-beside-finite", "nan"])
    def test_non_finite_rate_rejected(self, rates, nid):
        # 1/inf = 0 is a finite mean, but a rate table's 0 * inf would be NaN
        with pytest.raises(ValueError, match=rf"^field 'rates\[{nid}\]' must be finite, got "):
            RateSumExponential(rates)

    @pytest.mark.parametrize("build, named", [
        (lambda: TriggeredLognormal(800.0, 1.0), "exp(mu + sigma^2/2) of fields 'mu' and 'sigma'"),
        (lambda: TriggeredLognormal(0.0, 1e200), "exp(mu + sigma^2/2) of fields 'mu' and 'sigma'"),
        (lambda: TriggeredGamma(1.0, 1e-320), "alpha/beta of fields 'alpha' and 'beta'"),
        (lambda: RateSumExponential(((1, 5e-324),)), "1/rate of field 'rates[1]'"),
        # the smallest rate has the largest mean
        (lambda: RateSumExponential(((2, 1e-310), (7, 5e-324))), "1/rate of field 'rates[7]'"),
    ], ids=["mu", "sigma", "beta", "rate", "smallest-rate"])
    def test_each_model_bounds_its_own_mean(self, build, named):
        with pytest.raises(ValueError,
                           match=f"^conditional mean {re.escape(named)} is not a finite float64$"):
            build()


class TestConditionalDistribution:
    def test_exponential_single_trigger(self, case_graph, case_lines):
        dist = conditional_distribution(case_lines[0], state_with(case_graph, 7), case_graph)
        assert isinstance(dist, Exponential)
        assert dist.rate == pytest.approx(1 / 160)
        assert dist.mean() == pytest.approx(160.0)

    def test_exponential_rate_sums(self, case_graph, case_lines):
        dist = conditional_distribution(
            case_lines[0], state_with(case_graph, 1, 7), case_graph
        )
        assert dist.rate == pytest.approx(1 / 160 + 1 / 160)
        assert dist.mean() == pytest.approx(80.0)

    def test_unexploited_trigger_is_degenerate(self, case_graph, case_lines):
        dist = conditional_distribution(case_lines[2], state_with(case_graph), case_graph)
        assert isinstance(dist, DegenerateZero)

    def test_lognormal_fires_on_any_trigger(self, case_graph, case_lines):
        dist = conditional_distribution(case_lines[3], state_with(case_graph, 5), case_graph)
        assert isinstance(dist, Lognormal)
        assert (dist.mu, dist.sigma) == (7.0, 1.0)


class TestConditionalMean:
    def test_loss_of_use_single_node(self, case_graph, case_lines):
        dist = conditional_distribution(case_lines[1], state_with(case_graph, 3), case_graph)
        assert dist.mean() == pytest.approx(640.0)

    def test_property_theft(self, case_graph, case_lines):
        dist = conditional_distribution(case_lines[5], state_with(case_graph, 6), case_graph)
        assert dist.mean() == pytest.approx(2000.0)

    def test_all_zero_state(self, case_graph, case_lines):
        for line in case_lines:
            assert conditional_distribution(line, state_with(case_graph), case_graph).mean() == 0.0


def tiled_losses(case_graph, case_lines, state, seed, rows=100_000):
    """Loss matrix for ``rows`` copies of one fixed state, of any probability.

    The plan is narrowed to that one state, with its tables taken from
    ``conditional_distribution``, so every row is position 0.
    """
    rng = np.random.default_rng(seed)
    plan = loss_plan(case_graph, case_lines)
    dists = [conditional_distribution(line, state, case_graph) for line in plan.lines]
    plan = LossPlan(
        states=np.array([state_index(state)]),
        cdf=plan.cdf,
        guide=plan.guide,
        lines=plan.lines,
        fired=tuple(np.array([not isinstance(d, DegenerateZero)]) for d in dists),
        rates=tuple(None if r is None else np.array([getattr(d, "rate", 0.0)])
                    for r, d in zip(plan.rates, dists)),
    )
    return loss_matrix(line_draws(plan, np.zeros(rows, dtype=np.intp), rng), rows,
                       len(plan.lines))


def sampled_losses(graph, lines, rows, rng):
    """State indices drawn from the joint and the loss matrix drawn on them."""
    plan = loss_plan(graph, lines)
    positions = sample_state_indices(plan.cdf, rows, rng, plan.guide)
    return plan.states[positions], loss_matrix(line_draws(plan, positions, rng), rows,
                                               len(plan.lines))


class TestSampleLoss:
    def test_degenerate_samples_are_zero(self, case_graph, case_lines):
        losses = tiled_losses(case_graph, case_lines, state_with(case_graph), seed=0)
        assert np.all(losses == 0.0)

    def test_gamma_sample_mean(self, case_graph, case_lines):
        losses = tiled_losses(case_graph, case_lines, state_with(case_graph, 1), seed=1)
        draws = losses[:, 4]
        tol = 3 * math.sqrt(1000.0) / math.sqrt(100_000)
        assert abs(draws.mean() - 1000.0) <= tol

    def test_lognormal_sample_mean(self, case_graph, case_lines):
        losses = tiled_losses(case_graph, case_lines, state_with(case_graph, 5), seed=2)
        draws = losses[:, 3]
        se = draws.std(ddof=1) / math.sqrt(draws.size)
        assert abs(draws.mean() - math.exp(7.5)) <= 3 * se

    def test_sample_mean_matches_conditional_mean_grid(self, case_graph, case_lines):
        grid = [
            state_with(case_graph, 7),
            state_with(case_graph, 1, 7),
            state_with(case_graph, 3, 5),
            state_with(case_graph, 6),
        ]
        for seed, state in enumerate(grid, start=3):
            losses = tiled_losses(case_graph, case_lines, state, seed=seed)
            for col, line in enumerate(case_lines):
                dist = conditional_distribution(line, state, case_graph)
                draws = losses[:, col]
                if isinstance(dist, DegenerateZero):
                    assert np.all(draws == 0.0)
                    continue
                se = draws.std(ddof=1) / math.sqrt(draws.size)
                assert abs(draws.mean() - dist.mean()) <= 4 * se

    def test_nonnegative(self, case_graph, case_lines):
        rng = np.random.default_rng(4)
        indices, losses = sampled_losses(case_graph, case_lines, 500, rng)
        assert np.all(losses >= 0.0)
        # degenerate exactly zero: rows where no trigger of line 4 fired
        fired = (indices >> case_graph.position(5)) & 1 == 1
        assert np.all(losses[~fired, 3] == 0.0)


class TestExactLineMean:
    def test_online_fraud(self, case_graph, case_lines):
        assert exact_line_mean(case_lines[4], case_graph) == pytest.approx(10.0, rel=1e-12)

    def test_ransomware(self, case_graph, case_lines):
        expected = 0.9 * math.exp(4.5)
        assert exact_line_mean(case_lines[2], case_graph) == pytest.approx(expected, rel=1e-12)

    def test_property_theft(self, case_graph, case_lines):
        value = exact_line_mean(case_lines[5], case_graph)
        assert value == pytest.approx(18.00, abs=5e-3)

    def test_against_state_by_state_oracle(self, case_graph, case_lines):
        for line in case_lines:
            oracle = 0.0
            for states in all_states(case_graph.n):
                p = recursive_joint_prob(case_graph, states)
                if p > 0.0:
                    state = np.array(states, bool)
                    oracle += p * conditional_distribution(line, state, case_graph).mean()
            assert exact_line_mean(line, case_graph) == pytest.approx(oracle, rel=1e-10)

    def test_graph_and_its_joint_are_freed(self, case_lines):
        graph = build_case_graph()
        for line in case_lines:
            exact_line_mean(line, graph)
        ref = weakref.ref(graph)
        del graph
        gc.collect()
        assert ref() is None

    def test_monte_carlo_agrees(self, case_graph, case_lines):
        rng = np.random.default_rng(11)
        _, losses = sampled_losses(case_graph, case_lines, 200_000, rng)
        for col, line in enumerate(case_lines):
            sample = losses[:, col]
            se = sample.std(ddof=1) / math.sqrt(sample.size)
            assert abs(sample.mean() - exact_line_mean(line, case_graph)) <= 4 * se


def full_joint_line_mean(line, graph) -> float:
    """Reference E[loss]: the whole graph's joint summed down to the line's
    trigger patterns, then an fsum over the patterns that fire."""
    by_id = np.array([graph.position(nid) for nid in sorted(line.trigger_set)])
    order = np.argsort(by_id)
    patterns = enumerate_joint(graph).pattern_probs(by_id[order])
    model = line.model
    if isinstance(model, RateSumExponential):
        fired = (np.arange(patterns.size)[:, None] >> np.arange(order.size)) & 1 == 1
        lam = fired @ np.array([rate for _, rate in model.rates])[order]
        mask = lam > 0.0
        return math.fsum((patterns[mask] / lam[mask]).tolist())
    return math.fsum(patterns[1:].tolist()) * model.mean()


def chain_with_islands(n: int) -> AttackGraph:
    """The chain 1 -> ... -> n (entry 0.5, each edge 0.5) and two entry nodes
    without edges, 100 (0.3) and 101 (0.6)."""
    nodes = [VulnNode(1, entry_prob=0.5), *(VulnNode(i) for i in range(2, n + 1)),
             VulnNode(100, entry_prob=0.3), VulnNode(101, entry_prob=0.6)]
    return AttackGraph(nodes, [Edge(i, i + 1, 0.5) for i in range(1, n)])


class TestExactLineMeanOnAncestors:
    @given(graphs_with_lines())
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_matches_the_full_joint(self, case):
        graph, lines = case
        for line in lines:
            assert exact_line_mean(line, graph) == pytest.approx(
                full_joint_line_mean(line, graph), rel=1e-12, abs=0.0)

    def test_graph_above_the_cap(self):
        graph = chain_with_islands(23)
        island = BusinessLine(1, "island", frozenset({100}), TriggeredGamma(3.0, 0.5))
        assert exact_line_mean(island, graph) == 0.3 * (3.0 / 0.5)
        pair = BusinessLine(2, "pair", frozenset({100, 101}),
                            RateSumExponential(((100, 0.5), (101, 0.25))))
        expected = 0.3 * 0.4 / 0.5 + 0.7 * 0.6 / 0.25 + 0.3 * 0.6 / 0.75
        assert exact_line_mean(pair, graph) == pytest.approx(expected, rel=1e-15)
        # node 5 of the chain is exploited with probability 0.5^5
        head = BusinessLine(3, "head", frozenset({5}), TriggeredLognormal(1.0, 0.5))
        assert exact_line_mean(head, graph) == pytest.approx(
            0.5**5 * math.exp(1.125), rel=1e-15)
        tail = BusinessLine(4, "tail", frozenset({23, 100}), TriggeredGamma(3.0, 0.5))
        with pytest.raises(EnumerationSizeError, match=re.escape(
                "24 nodes in line 4's triggers and their ancestors exceed the "
                "enumeration cap of 22 (2^24 states)")):
            exact_line_mean(tail, graph)


def exact_line_sd(line, graph) -> float:
    """SD of a line's loss from conditional moments over the recursive joint."""
    first = second = 0.0
    for states in all_states(graph.n):
        p = recursive_joint_prob(graph, states)
        dist = conditional_distribution(line, np.array(states, bool), graph)
        first += p * dist.mean()
        second += p * (dist.variance() + dist.mean() ** 2)
    return math.sqrt(max(second - first**2, 0.0))


class TestLossBlockOnRandomGraphs:
    ROWS = 20_000

    @given(graphs_with_lines())
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_line_means_match_exact(self, case):
        graph, lines = case
        losses = loss_matrix(loss_block(loss_plan(graph, lines), self.ROWS, 2024, 0, RUN_LANE),
                             self.ROWS, len(lines))
        marginals = enumerate_joint(graph).marginals()
        for col, line in enumerate(lines):
            column = losses[:, col]
            positions = [graph.position(nid) for nid in line.trigger_set]
            if not marginals[positions].any():
                # no trigger can be exploited: the line never fires
                assert np.all(column == 0.0)
            se = exact_line_sd(line, graph) / math.sqrt(self.ROWS)
            assert abs(column.mean() - exact_line_mean(line, graph)) <= 5 * se


class TestLossPlan:
    @given(graphs_with_lines())
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_fired_and_rates_match_conditional_distribution(self, case):
        graph, lines = case
        plan = loss_plan(graph, lines)
        assert [line.index for line in plan.lines] == sorted(line.index for line in lines)
        joint = enumerate_joint(graph)
        assert np.array_equal(plan.states, np.flatnonzero(joint.probs))
        assert plan.cdf.tobytes() == full_cdf(graph)[plan.states].tobytes()
        for line, fired, rates in zip(plan.lines, plan.fired, plan.rates):
            assert fired.dtype == bool and fired.shape == plan.states.shape
            assert (rates is None) == (not isinstance(line.model, RateSumExponential))
            assert rates is None or rates.shape == plan.states.shape
        for pos, index in enumerate(plan.states.tolist()):
            state = joint.state_of(index)
            for line, fired, rates in zip(plan.lines, plan.fired, plan.rates):
                dist = conditional_distribution(line, state, graph)
                assert fired[pos] == (not isinstance(dist, DegenerateZero))
                if rates is not None:
                    expected = dist.rate if fired[pos] else 0.0
                    assert rates[pos] == pytest.approx(expected, rel=1e-14, abs=0.0)


    @staticmethod
    def assert_mask_formula_bits(graph, lines):
        # the rate tables add each rate where its node is exploited, in id
        # order per half of the state bits, as boolean-mask adds would
        plan = loss_plan(graph, lines)
        half = (graph.n + 1) // 2
        for line, rates in zip(plan.lines, plan.rates):
            if rates is None:
                continue
            sums = np.zeros((2, plan.states.size))
            for nid, rate in line.model.rates:
                pos = graph.position(nid)
                sums[int(pos >= half), (plan.states >> pos) & 1 == 1] += rate
            assert np.array_equal(rates.view(np.uint64), (sums[0] + sums[1]).view(np.uint64))

    @given(graphs_with_lines())
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_rate_tables_match_mask_formula(self, case):
        self.assert_mask_formula_bits(*case)

    def test_rate_tables_match_mask_formula_on_twenty_nodes(self):
        scenario = generated_scenario(3101)
        assert scenario.graph.n == 20
        self.assert_mask_formula_bits(scenario.graph, scenario.lines)


class TestSupportCdf:
    @given(shuffled_dag_graphs(max_nodes=8))
    @example(AttackGraph([VulnNode(1, entry_prob=0.3), VulnNode(2)], [Edge(1, 2, 0.6)]))
    @example(AttackGraph([VulnNode(1, entry_prob=1.0), VulnNode(2, entry_prob=0.5)], []))
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_bits_of_the_full_cdf_at_the_support(self, graph):
        # the running sum over the support alone skips only zeros, which
        # leave a sequential sum and its last entry as they are
        assume(not enumerate_joint(graph).probs.all())
        plan = loss_plan(graph, [])
        assert plan.cdf.tobytes() == full_cdf(graph)[plan.states].tobytes()
        assert plan.cdf[-1] == 1.0


def assert_kernels_match_reference(graph, lines, rows, seed):
    """``line_draws`` gives the state-index kernel's columns, fired rows and
    draw bits, line by line, for the same uniforms."""
    plan = loss_plan(graph, lines)
    positions = sample_state_indices(plan.cdf, rows, np.random.default_rng(seed), plan.guide)
    # the full CDF inverts the same uniforms to the states at those positions
    cdf = full_cdf(graph)
    indices = sample_state_indices(cdf, rows, np.random.default_rng(seed), state_guide(cdf))
    assert np.array_equal(plan.states[positions], indices)
    ours = list(line_draws(plan, positions, np.random.default_rng(seed + 1)))
    theirs = list(reference_line_draws(graph, lines, indices, np.random.default_rng(seed + 1)))
    assert len(ours) == len(theirs) == len(lines)
    for (col, fired, draws), (ref_col, ref_fired, ref_draws) in zip(ours, theirs):
        assert col == ref_col
        assert np.array_equal(fired, ref_fired)
        assert draws.dtype == ref_draws.dtype and draws.tobytes() == ref_draws.tobytes()


class TestKernelMatchesReference:
    @given(graphs_with_lines(), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_random_graphs(self, case, seed):
        graph, lines = case
        assert_kernels_match_reference(graph, lines, 2000, seed)

    def test_bundled_scenario(self, case_graph, case_lines):
        assert_kernels_match_reference(case_graph, case_lines, 50_000, 12)

    def test_run_and_portfolio_sums_match_reference(self, case_graph, case_lines):
        # run block 0, and portfolio group 0 of one home per replication,
        # which is drawn whole; a claim under Policy(0, inf) is the home's total
        def reference(kernel, rows, lane):
            rng, cdf = substream(12, 0, lane), full_cdf(case_graph)
            indices = sample_state_indices(cdf, rows, rng, state_guide(cdf))
            return kernel(case_graph, case_lines, indices, rng)

        result = run_simulation(case_graph, case_lines, 3000, 12)
        assert np.array_equal(result.line_losses,
                              reference(reference_loss_matrix, 3000, RUN_LANE))
        totals = reference(reference_loss_totals, 3000, RUN_LANE)
        assert result.total_losses.tobytes() == totals.tobytes()
        claims = simulate_claims(case_graph, case_lines, 1, 3000, [Policy(0.0, math.inf)], 12)
        totals = reference(reference_loss_totals, RUN_BLOCK, REPLICATION_LANE)[:3000]
        assert claims[0].tobytes() == totals.tobytes()


class TestFiredOnlySeverities:
    def test_one_draw_per_fired_row_in_row_order(self, case_graph, case_lines):
        rows = 3000
        losses = loss_matrix(loss_block(loss_plan(case_graph, case_lines), rows, 5, 2, RUN_LANE),
                             rows, len(case_lines))
        rng = substream(5, 2, RUN_LANE)
        # one uniform per row; the state is the first whose running sum exceeds it
        joint = enumerate_joint(case_graph)
        probs = joint.probs.tolist()
        bounds = [math.fsum(probs[: k + 1]) / math.fsum(probs) for k in range(len(probs))]
        states = [
            joint.state_of(next(k for k, b in enumerate(bounds) if b > u))
            for u in rng.random(rows)
        ]
        # on this graph each rate sum adds its terms in node id order both here
        # and in the plan's rate tables, so even exponential rows match exactly
        expected = np.zeros((rows, len(case_lines)))
        for col, line in enumerate(case_lines):
            dists = [conditional_distribution(line, s, case_graph) for s in states]
            fired = [r for r, d in enumerate(dists) if not isinstance(d, DegenerateZero)]
            model = line.model
            if isinstance(model, RateSumExponential):
                rates = np.array([dists[r].rate for r in fired])
                expected[fired, col] = rng.standard_exponential(len(fired)) / rates
            elif isinstance(model, TriggeredLognormal):
                expected[fired, col] = rng.lognormal(model.mu, model.sigma, len(fired))
            else:
                expected[fired, col] = rng.gamma(model.alpha, 1.0 / model.beta, len(fired))
        assert np.array_equal(losses, expected)

    def test_line_that_cannot_fire_draws_nothing(self, case_graph, case_lines):
        # node 8 is never exploited, so a line on it leaves the stream untouched
        graph = AttackGraph(
            case_graph.nodes + (VulnNode(8, entry_prob=0.0),), case_graph.edges
        )
        dead = BusinessLine(0, "dead", frozenset({8}), TriggeredGamma(2.0, 1.0))
        alone = loss_matrix(loss_block(loss_plan(graph, case_lines), 5000, 8, 0, RUN_LANE),
                            5000, len(case_lines))
        with_dead = loss_matrix(
            loss_block(loss_plan(graph, [dead, *case_lines]), 5000, 8, 0, RUN_LANE),
            5000, 1 + len(case_lines),
        )
        assert np.all(with_dead[:, 0] == 0.0)
        assert np.array_equal(with_dead[:, 1:], alone)


LEV_GRID = {
    "exponential": [Exponential(1 / 160), Exponential(1 / 640), Exponential(1 / 50)],
    "lognormal": [Lognormal(4.0, 1.0), Lognormal(7.0, 1.0), Lognormal(6.0, 0.5)],
    "gamma": [Gamma(1000.0, 1.0), Gamma(2000.0, 1.0), Gamma(3.0, 0.01)],
}
DEDUCTIBLES = (0.0, 250.0, 1000.0)
COVERAGES = (500.0, 50_000.0, math.inf)


class TestClosedForms:
    @pytest.mark.parametrize("family", sorted(LEV_GRID))
    def test_moments_match_scipy(self, family):
        for dist in LEV_GRID[family]:
            law = scipy_law(dist)
            assert dist.mean() == pytest.approx(law.mean(), rel=1e-12), dist
            assert dist.variance() == pytest.approx(law.var(), rel=1e-12), dist

    @pytest.mark.parametrize("family", sorted(LEV_GRID))
    def test_unlimited_cover_from_zero_is_the_mean(self, family):
        for dist in LEV_GRID[family]:
            assert limited_expected_value_of(dist, 0.0, math.inf) == dist.mean(), dist

    def test_degenerate_law(self):
        dist = DegenerateZero()
        assert (dist.mean(), dist.variance()) == (0.0, 0.0)
        assert limited_expected_value_of(dist, 0.0, math.inf) == dist.mean()


class TestLimitedExpectedValue:
    def test_reduces_to_mean(self):
        dist = Exponential(1 / 160)
        assert limited_expected_value_of(dist, 0.0, math.inf) == pytest.approx(160.0)
        assert limited_expected_value_of(dist, 0.0, 1e12) == pytest.approx(160.0)

    def test_degenerate_is_zero(self):
        assert limited_expected_value_of(DegenerateZero(), 100.0, 1000.0) == 0.0

    def test_lognormal_reference_value(self):
        dist = Lognormal(7.0, 1.0)
        value = limited_expected_value_of(dist, 1000.0, 50_000.0)
        oracle = lev_quadrature(dist, 1000.0, 50_000.0)
        assert value == pytest.approx(oracle, rel=1e-6)
        assert value == pytest.approx(1.0219e3, rel=1e-3)

    @pytest.mark.parametrize("family", sorted(LEV_GRID))
    def test_closed_form_matches_quadrature(self, family):
        for dist in LEV_GRID[family]:
            for d in DEDUCTIBLES:
                for c in COVERAGES:
                    value = limited_expected_value_of(dist, d, c)
                    oracle = lev_quadrature(dist, d, c)
                    assert value == pytest.approx(oracle, rel=1e-6, abs=1e-12), (dist, d, c)

    @pytest.mark.parametrize("family", sorted(LEV_GRID))
    def test_shape_properties(self, family):
        for dist in LEV_GRID[family]:
            values_d = [limited_expected_value_of(dist, d, 1000.0) for d in (0, 10, 100, 1000)]
            assert all(a >= b - 1e-12 for a, b in zip(values_d, values_d[1:]))
            values_c = [limited_expected_value_of(dist, 50.0, c) for c in (10, 100, 1e4, 1e8)]
            assert all(a <= b + 1e-12 for a, b in zip(values_c, values_c[1:]))
            for d in DEDUCTIBLES:
                for c in COVERAGES:
                    assert limited_expected_value_of(dist, d, c) <= min(dist.mean(), c) + 1e-9

    def test_line_level_value(self, case_graph, case_lines):
        state = state_with(case_graph, 7)
        dist = conditional_distribution(case_lines[0], state, case_graph)
        assert limited_expected_value_of(dist, 0.0, math.inf) == pytest.approx(160.0)
        dist = conditional_distribution(case_lines[3], state_with(case_graph), case_graph)
        assert limited_expected_value_of(dist, 10.0, 100.0) == 0.0

    @pytest.mark.parametrize("d, c, message", [
        (math.nan, 10.0, "deductible must be finite and >= 0, got nan"),
        (0.0, math.nan, "coverage must be > 0, got nan"),
        (math.inf, 10.0, "deductible must be finite and >= 0, got inf"),
    ], ids=["deductible-nan", "coverage-nan", "deductible-inf"])
    def test_arguments_follow_the_policy_rule(self, d, c, message):
        for dist in (DegenerateZero(), Exponential(1.0), Lognormal(4.0, 1.0), Gamma(3.0, 0.01)):
            with pytest.raises(ValueError, match=re.escape(message)):
                limited_expected_value_of(dist, d, c)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            limited_expected_value_of(Exponential(1.0), -1.0, 10.0)
        with pytest.raises(ValueError):
            limited_expected_value_of(Exponential(1.0), 0.0, 0.0)

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from scipy import stats

from conftest import (
    all_states,
    brute_force_marginals,
    build_case_graph,
    dag_graphs,
    full_width_joint,
    mask_marginals,
    recursive_joint_prob,
    seventeen_node_graph,
    shuffled_dag_graphs,
)
from homecyber.graph import (
    AttackGraph,
    Edge,
    EnumerationSizeError,
    GraphValidationError,
    JointDistribution,
    VulnNode,
    enumerate_joint,
    marginal_exploit_probs,
    sample_state_indices,
    state_cdf,
    state_guide,
    topological_order,
    validate_graph,
)

# Reference joint probabilities for eight states, recomputed by hand from
# the conditional products (e.g. all-zero = .99 * .98 * .10 = .09702), with
# the 3-decimal rounding the scenario is checked against.
REFERENCE_JOINT = {
    (0, 0, 0, 0, 0, 0, 0): (0.09702, 0.097),
    (0, 0, 0, 0, 0, 0, 1): (0.855803718, 0.856),
    (0, 0, 0, 0, 0, 1, 0): (0.0, 0.000),
    (0, 0, 0, 0, 0, 1, 1): (0.008644482, 0.009),
    (0, 0, 0, 0, 1, 0, 0): (0.0, 0.000),
    (0, 0, 0, 0, 1, 0, 1): (0.008644482, 0.009),
    (0, 0, 0, 0, 1, 1, 0): (0.0, 0.000),
    (0, 0, 0, 0, 1, 1, 1): (0.000087318, 0.000),
}


class TestValidation:
    def test_case_study_is_valid(self, case_graph):
        assert validate_graph(case_graph).ok

    def test_cycle_is_reported(self, case_graph):
        graph = AttackGraph(case_graph.nodes, case_graph.edges + (Edge(5, 3, 0.5),))
        report = validate_graph(graph)
        assert any("cycle" in v for v in report.violations)

    def test_entry_prob_on_parented_node(self, case_graph):
        nodes = [
            VulnNode(n.id, n.label, 0.5 if n.id == 3 else n.entry_prob)
            for n in case_graph.nodes
        ]
        report = validate_graph(AttackGraph(nodes, case_graph.edges))
        assert any("entry_prob on parented node" in v for v in report.violations)

    def test_missing_entry_prob(self):
        report = validate_graph(AttackGraph([VulnNode(1)], []))
        assert any("missing entry_prob" in v for v in report.violations)

    def test_out_of_range_probs(self):
        graph = AttackGraph(
            [VulnNode(1, entry_prob=1.5), VulnNode(2)], [Edge(1, 2, -0.2)]
        )
        report = validate_graph(graph)
        assert any("entry_prob" in v and "outside" in v for v in report.violations)
        assert any("cond_prob" in v and "outside" in v for v in report.violations)

    def test_self_loop_duplicate_and_unknown_endpoint(self):
        graph = AttackGraph(
            [VulnNode(1, entry_prob=0.1), VulnNode(2)],
            [Edge(1, 2, 0.5), Edge(1, 2, 0.5), Edge(2, 2, 0.1), Edge(1, 9, 0.1)],
        )
        violations = "\n".join(validate_graph(graph).violations)
        assert "duplicate edge" in violations
        assert "self-loop" in violations
        assert "unknown node 9" in violations

    def test_duplicate_node_id(self):
        graph = AttackGraph([VulnNode(1, entry_prob=0.1), VulnNode(1, entry_prob=0.2)], [])
        assert any("duplicate id" in v for v in validate_graph(graph).violations)


class TestTopologicalOrder:
    def test_case_study_parent_first(self, case_graph):
        order = topological_order(case_graph)
        assert sorted(order) == [1, 2, 3, 4, 5, 6, 7]
        seen = set()
        for node_id in order:
            for parent_id, _ in case_graph.parents_of(node_id):
                assert parent_id in seen
            seen.add(node_id)

    def test_deterministic(self, case_graph):
        assert topological_order(case_graph) == topological_order(build_case_graph())

    def test_single_node(self):
        graph = AttackGraph([VulnNode(4, entry_prob=0.3)], [])
        assert topological_order(graph) == (4,)

    def test_chain(self):
        graph = AttackGraph(
            [VulnNode(1, entry_prob=0.2), VulnNode(3), VulnNode(5)],
            [Edge(1, 3, 0.5), Edge(3, 5, 0.5)],
        )
        assert topological_order(graph) == (1, 3, 5)

    def test_cycle_raises(self):
        graph = AttackGraph(
            [VulnNode(1, entry_prob=0.2), VulnNode(2), VulnNode(3)],
            [Edge(1, 2, 0.5), Edge(2, 3, 0.5), Edge(3, 2, 0.5)],
        )
        with pytest.raises(GraphValidationError, match="cycle"):
            topological_order(graph)


def pinned_case_graph(**entries: float) -> AttackGraph:
    """The case graph with entry probabilities replaced, e.g. ``n1=1.0``."""
    base = build_case_graph()
    nodes = [
        VulnNode(n.id, n.label, entries.get(f"n{n.id}", n.entry_prob))
        for n in base.nodes
    ]
    return AttackGraph(nodes, base.edges)


class TestConditionalExploitProb:
    """Conditional exploit probabilities, read off marginals of graphs whose
    entry nodes are pinned to certainly or never exploited."""

    def test_two_exploited_parents(self):
        graph = pinned_case_graph(n1=1.0, n2=1.0, n7=0.0)
        p = marginal_exploit_probs(graph)[graph.position(3)]
        assert p == pytest.approx(1 - 0.99**2, abs=1e-15)
        assert p == pytest.approx(0.0199, abs=1e-15)

    def test_no_exploited_parents(self):
        graph = pinned_case_graph(n1=0.0, n2=0.0)
        assert marginal_exploit_probs(graph)[graph.position(3)] == 0.0

    def test_single_parent(self):
        graph = pinned_case_graph(n1=0.0, n2=0.0, n7=1.0)
        p = marginal_exploit_probs(graph)[graph.position(5)]
        assert p == pytest.approx(0.01)

    def test_entry_node_ignores_states(self):
        # a marginal sums rounded products, so it can sit one ulp off 0.9
        for pins in ({"n1": 1.0, "n2": 1.0}, {"n1": 0.0, "n2": 0.0}, {"n1": 1.0}):
            graph = pinned_case_graph(**pins)
            p = marginal_exploit_probs(graph)[graph.position(7)]
            assert p == pytest.approx(0.9, abs=1e-15)


class TestEnumerateJoint:
    def test_reference_states(self, case_graph):
        joint = enumerate_joint(case_graph)
        for states, (exact, rounded) in REFERENCE_JOINT.items():
            p = joint.prob_of(states)
            assert p == pytest.approx(exact, abs=1e-12)
            assert abs(p - rounded) <= 5e-4

    def test_sums_to_one(self, case_graph):
        assert enumerate_joint(case_graph).total() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("density", [0.0, 1e-4, 0.08, 1.0])
    def test_total_is_the_fsum_of_every_entry(self, density):
        # total() skips zeros; fsum is exact, so the sum must not move.  2^18
        # entries are four fsum chunks, and the tiny and huge values make a
        # plain float sum round where fsum does not
        rng = np.random.default_rng(int(density * 1e4))
        size = 1 << 18
        probs = rng.random(size) * 10.0 ** rng.integers(-300, 0, size)
        probs[rng.random(size) >= density] = 0.0
        joint = JointDistribution(tuple(range(1, 19)), probs)
        assert joint.total() == math.fsum(probs.tolist())

    def test_matches_recursive_oracle(self, case_graph):
        joint = enumerate_joint(case_graph)
        for states in all_states(7):
            expected = recursive_joint_prob(case_graph, states)
            assert joint.prob_of(states) == pytest.approx(expected, rel=1e-13, abs=1e-300)

    def test_cap_enforced(self):
        nodes = [VulnNode(i, entry_prob=0.5) for i in range(1, 24)]
        with pytest.raises(EnumerationSizeError):
            enumerate_joint(AttackGraph(nodes, []))
        # and a custom cap
        with pytest.raises(EnumerationSizeError):
            enumerate_joint(build_case_graph(), cap=5)

    def test_cached_per_graph_after_cap_check(self):
        graph = build_case_graph()
        joint = enumerate_joint(graph)
        assert enumerate_joint(graph) is joint
        assert marginal_exploit_probs(graph).tolist() == joint.marginals().tolist()
        with pytest.raises(EnumerationSizeError):
            enumerate_joint(graph, cap=graph.n - 1)

    def test_state_index_length_check(self, case_graph):
        joint = enumerate_joint(case_graph)
        with pytest.raises(ValueError, match="length"):
            joint.prob_of((0, 1))


class TestMarginals:
    def test_entry_marginal_exact(self, case_graph):
        marginals = marginal_exploit_probs(case_graph)
        assert marginals[case_graph.position(7)] == 0.9

    def test_against_brute_force(self, case_graph):
        marginals = marginal_exploit_probs(case_graph)
        brute = brute_force_marginals(case_graph)
        for node in case_graph.nodes:
            assert marginals[case_graph.position(node.id)] == pytest.approx(
                brute[node.id], abs=1e-12
            )

    def test_known_values(self, case_graph):
        marginals = marginal_exploit_probs(case_graph)
        assert marginals[case_graph.position(5)] == pytest.approx(0.009003, abs=5e-7)
        assert marginals[case_graph.position(3)] == pytest.approx(0.00029998, abs=1e-12)


def sample_indices(graph, count, rng):
    return sample_state_indices(state_cdf(graph), count, rng)


def index_bit(indices, graph, node_id):
    return (indices >> graph.position(node_id)) & 1 == 1


class TestSampling:
    def test_certain_entry(self):
        graph = AttackGraph([VulnNode(1, entry_prob=1.0)], [])
        rng = np.random.default_rng(0)
        assert np.all(sample_indices(graph, 20, rng) == 1)

    def test_impossible_entry(self):
        graph = AttackGraph([VulnNode(1, entry_prob=0.0)], [])
        rng = np.random.default_rng(0)
        assert np.all(sample_indices(graph, 20, rng) == 0)

    def test_all_zero_state_frequency(self, case_graph):
        n = 1_000_000
        rng = np.random.default_rng(42)
        indices = sample_indices(case_graph, n, rng)
        freq = float((indices == 0).mean())
        tol = 3 * math.sqrt(0.097 * 0.903 / n)
        assert abs(freq - 0.09702) <= tol

    def test_chi_square_goodness_of_fit(self, case_graph):
        n = 1_000_000
        joint = enumerate_joint(case_graph)
        rng = np.random.default_rng(7)
        indices = sample_indices(case_graph, n, rng)
        observed = np.bincount(indices, minlength=joint.probs.size).astype(float)
        assert observed.size == joint.probs.size
        expected = joint.probs * n
        # pool cells with expected count < 5 so the chi-square approximation holds
        keep = expected >= 5.0
        obs = np.append(observed[keep], observed[~keep].sum())
        exp = np.append(expected[keep], expected[~keep].sum())
        result = stats.chisquare(obs, exp)
        assert result.pvalue >= 1e-3

    def test_batch_states_respect_parents(self, case_graph):
        # a non-entry node can only be exploited through an exploited parent
        rng = np.random.default_rng(3)
        indices = sample_indices(case_graph, 1000, rng)
        # node 6 requires an exploited parent (4 or 7)
        fired = index_bit(indices, case_graph, 6)
        assert np.all(index_bit(indices, case_graph, 4)[fired]
                      | index_bit(indices, case_graph, 7)[fired])

    def test_boundary_uniforms_skip_zero_probability_states(self):
        # states 0..3 have probabilities 0, .5, 0, .5: a uniform of exactly 0
        # or exactly on a step of the CDF belongs to the state above the step
        graph = AttackGraph([VulnNode(1, entry_prob=1.0), VulnNode(2, entry_prob=0.5)], [])
        cdf = state_cdf(graph)
        assert cdf.tolist() == [0.0, 0.5, 0.5, 1.0]
        assert not cdf.flags.writeable

        class FixedUniforms:
            def random(self, count):
                return np.array([0.0, 0.5, np.nextafter(0.5, 0.0), np.nextafter(1.0, 0.0)])

        assert sample_state_indices(cdf, 4, FixedUniforms()).tolist() == [1, 3, 1, 3]

    def test_cap_enforced(self):
        nodes = [VulnNode(i, entry_prob=0.5) for i in range(1, 24)]
        with pytest.raises(EnumerationSizeError, match="cap of 22"):
            state_cdf(AttackGraph(nodes, []))


class TestMonotonicity:
    def test_removing_edge_never_raises_marginals(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            graph = _random_dag(rng)
            if not graph.edges:
                continue
            base = marginal_exploit_probs(graph)
            drop = rng.integers(len(graph.edges))
            reduced = AttackGraph(
                _strip_orphan_entry(graph, drop),
                graph.edges[:drop] + graph.edges[drop + 1 :],
            )
            if not validate_graph(reduced).ok:
                continue
            after = marginal_exploit_probs(reduced)
            assert np.all(after <= base + 1e-12)


def _random_dag(rng) -> AttackGraph:
    n = int(rng.integers(3, 7))
    edges = []
    has_parent = [False] * (n + 1)
    for dst in range(2, n + 1):
        for src in range(1, dst):
            if rng.random() < 0.5:
                edges.append(Edge(src, dst, float(rng.uniform(0.05, 0.95))))
                has_parent[dst] = True
    nodes = [
        VulnNode(i, entry_prob=None if has_parent[i] else float(rng.uniform(0.05, 0.95)))
        for i in range(1, n + 1)
    ]
    return AttackGraph(nodes, edges)


def _strip_orphan_entry(graph: AttackGraph, drop_index: int):
    """Give a node an entry probability if dropping the edge orphans it."""
    dropped = graph.edges[drop_index]
    still_parented = any(
        e.dst == dropped.dst for i, e in enumerate(graph.edges) if i != drop_index
    )
    nodes = []
    for node in graph.nodes:
        if node.id == dropped.dst and not still_parented:
            # removing the node's only in-edge: it can no longer be exploited
            nodes.append(VulnNode(node.id, node.label, 0.0))
        else:
            nodes.append(node)
    return nodes


@given(dag_graphs())
@settings(max_examples=60, deadline=None)
def test_joint_is_a_distribution(graph):
    assert validate_graph(graph).ok
    joint = enumerate_joint(graph)
    assert np.all(joint.probs >= 0.0)
    assert joint.total() == pytest.approx(1.0, abs=1e-12)


@given(dag_graphs())
@settings(max_examples=60, deadline=None)
def test_topological_order_properties(graph):
    order = topological_order(graph)
    assert sorted(order) == sorted(graph.node_ids)
    seen = set()
    for node_id in order:
        assert all(parent in seen for parent, _ in graph.parents_of(node_id))
        seen.add(node_id)


@given(shuffled_dag_graphs(max_nodes=6))
@settings(max_examples=60, deadline=None, derandomize=True)
def test_state_indices_equal_linear_scan(graph):
    """Each index is the first state whose fsum-accumulated probability exceeds its uniform."""
    cdf = state_cdf(graph)
    assert cdf[-1] == 1.0
    indices = sample_state_indices(cdf, 300, np.random.default_rng(7))
    uniforms = np.random.default_rng(7).random(300)
    probs = enumerate_joint(graph).probs.tolist()
    total = math.fsum(probs)
    bounds = [math.fsum(probs[: k + 1]) / total for k in range(len(probs))]
    expected = [next(k for k, b in enumerate(bounds) if b > u) for u in uniforms]
    assert indices.tolist() == expected
    # states of probability 0 are never drawn
    assert all(probs[k] > 0.0 for k in indices.tolist())


@given(shuffled_dag_graphs())
@settings(max_examples=80, deadline=None, derandomize=True)
def test_enumeration_matches_references(graph):
    joint = enumerate_joint(graph)
    assert np.array_equal(joint.probs, full_width_joint(graph))
    for index in range(joint.probs.size):
        expected = recursive_joint_prob(graph, joint.state_of(index))
        assert joint.probs[index] == pytest.approx(expected, rel=1e-13, abs=1e-300)
    assert np.array_equal(joint.marginals(), mask_marginals(joint))


@pytest.mark.parametrize("complete", [False, True], ids=["chain", "complete"])
def test_seventeen_nodes_match_references(complete):
    # above 16 nodes the marginals take a pairwise sum instead of fsum; in
    # the complete DAG node j multiplies j - 1 parent factors, so a change in
    # their order shows; the shuffled listing puts positions out of topological order
    graph = seventeen_node_graph(complete)
    joint = enumerate_joint(graph)
    assert np.array_equal(joint.probs, full_width_joint(graph))
    assert np.array_equal(joint.marginals(), mask_marginals(joint))


class FixedUniforms:
    """Stands in for a generator whose ``random`` returns the given values."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def random(self, count):
        assert count == self.values.size
        return self.values


def assert_guided_inversion_exact(cdf: np.ndarray) -> None:
    """The guide has min(2^(b+5), 2^16) cells and inverts like a plain search.

    2^b is the least power of two >= cdf.size.  The uniforms are the
    adversarial ones: 0, every cell edge and the double just below it, every
    CDF value and both its neighbours, and the largest double below 1.
    """
    b = math.ceil(math.log2(cdf.size))
    cells, settled = state_guide(cdf)
    size = min(2 ** (b + 5), 2**16)
    assert cells.shape == settled.shape == (size,)
    # a cell falls back to the search exactly when a CDF value lies strictly
    # inside it (scaling by a power of two is exact)
    scaled = cdf * size
    stepped = np.unique(np.floor(scaled[scaled != np.floor(scaled)]).astype(np.intp))
    assert np.array_equal(np.flatnonzero(~settled), stepped)
    edges = np.arange(size + 1) / size
    u = np.concatenate([
        edges, np.nextafter(edges, 0.0),
        cdf, np.nextafter(cdf, 0.0), np.nextafter(cdf, 1.0),
    ])
    u = u[(u >= 0.0) & (u < 1.0)]
    assert u.min() == 0.0 and u.max() == np.nextafter(1.0, 0.0)
    guided = sample_state_indices(cdf, u.size, FixedUniforms(u), (cells, settled))
    assert np.array_equal(guided, np.searchsorted(cdf, u, side="right"))
    # the same path when the sampler builds the guide itself
    assert np.array_equal(sample_state_indices(cdf, u.size, FixedUniforms(u)), guided)


@given(shuffled_dag_graphs(max_nodes=8))
@example(AttackGraph([VulnNode(1, entry_prob=1.0), VulnNode(2, entry_prob=0.5)], []))
@settings(max_examples=80, deadline=None, derandomize=True)
def test_guided_inversion_equals_search(graph):
    assert_guided_inversion_exact(state_cdf(graph))


@given(shuffled_dag_graphs(max_nodes=8))
@example(AttackGraph([VulnNode(1, entry_prob=1.0), VulnNode(2, entry_prob=0.5)], []))
@settings(max_examples=40, deadline=None, derandomize=True)
def test_guided_inversion_on_the_support(graph):
    # a loss plan samples positions into the joint's support through this CDF
    support = np.flatnonzero(enumerate_joint(graph).probs)
    assert_guided_inversion_exact(state_cdf(graph)[support])


def test_guided_inversion_equals_search_on_seventeen_nodes():
    assert_guided_inversion_exact(state_cdf(seventeen_node_graph(complete=True)))

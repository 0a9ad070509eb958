import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from homecyber.graph import (
    AttackGraph,
    Edge,
    JointDistribution,
    VulnNode,
    enumerate_joint,
    topological_order,
)
from homecyber.losses import (
    BusinessLine,
    Exponential,
    RateSumExponential,
    TriggeredGamma,
    TriggeredLognormal,
)
from homecyber.reports import Table, render_csv
from homecyber.scenario import bundled_case_study_path, load_scenario, parse_scenario


def build_case_graph() -> AttackGraph:
    """The seven-node smart-home graph, built independently of the data file."""
    nodes = [
        VulnNode(1, "iPhone", 0.01),
        VulnNode(2, "smart TV", 0.02),
        VulnNode(3, "smart home hub"),
        VulnNode(4, "smart sensor"),
        VulnNode(5, "smart camera"),
        VulnNode(6, "smart lock"),
        VulnNode(7, "laptop", 0.9),
    ]
    edges = [
        Edge(1, 3, 0.01),
        Edge(2, 3, 0.01),
        Edge(3, 4, 0.01),
        Edge(3, 5, 0.01),
        Edge(4, 6, 0.01),
        Edge(7, 5, 0.01),
        Edge(7, 6, 0.01),
    ]
    return AttackGraph(nodes, edges)


def build_case_lines() -> list[BusinessLine]:
    return [
        BusinessLine(1, "data breach", frozenset({1, 2, 3, 4, 7}),
                     RateSumExponential(((1, 1 / 160), (2, 1 / 32), (3, 1 / 80),
                                         (4, 1 / 80), (7, 1 / 160)))),
        BusinessLine(2, "loss of use", frozenset({3, 5}),
                     RateSumExponential(((3, 1 / 640), (5, 1 / 320)))),
        BusinessLine(3, "ransomware", frozenset({7}), TriggeredLognormal(4.0, 1.0)),
        BusinessLine(4, "cyber extortion", frozenset({5}), TriggeredLognormal(7.0, 1.0)),
        BusinessLine(5, "online fraud", frozenset({1}), TriggeredGamma(1000.0, 1.0)),
        BusinessLine(6, "property theft", frozenset({6}), TriggeredGamma(2000.0, 1.0)),
    ]


@pytest.fixture(scope="session")
def case_graph():
    return build_case_graph()


@pytest.fixture(scope="session")
def case_lines():
    return build_case_lines()


@pytest.fixture(scope="session")
def case_scenario():
    return load_scenario(bundled_case_study_path())


def generated_scenario(seed: int):
    """The scenario that ``bench/scenario_gen.py --seed`` ``seed`` prints."""
    path = Path(__file__).resolve().parents[1] / "bench" / "scenario_gen.py"
    spec = importlib.util.spec_from_file_location("scenario_gen", path)
    scenario_gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(scenario_gen)
    return parse_scenario(scenario_gen.generate(seed))


@st.composite
def dag_graphs(draw, max_nodes: int = 6):
    """Valid DAG of 1 to ``max_nodes`` nodes; edge i -> j only for i < j, ids 1..n in order."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    prob = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
    edges = []
    has_parent = [False] * (n + 1)
    for dst in range(2, n + 1):
        for src in range(1, dst):
            if draw(st.booleans()):
                edges.append(Edge(src, dst, draw(prob)))
                has_parent[dst] = True
    nodes = [
        VulnNode(i, entry_prob=None if has_parent[i] else draw(prob))
        for i in range(1, n + 1)
    ]
    return AttackGraph(nodes, edges)


@st.composite
def shuffled_dag_graphs(draw, max_nodes: int = 8):
    """A ``dag_graphs`` DAG with its nodes listed in shuffled order.

    Positions then differ from ids and from the topological order, so a
    state bit must be mapped back from the parent-first order to its node.
    """
    base = draw(dag_graphs(max_nodes))
    return AttackGraph(draw(st.permutations(base.nodes)), base.edges)


@st.composite
def graphs_with_lines(draw):
    """A random DAG with its nodes listed in shuffled order, one line per family."""
    graph = draw(shuffled_dag_graphs(max_nodes=6))
    node_ids = st.sampled_from(sorted(graph.node_ids))
    families = (RateSumExponential, TriggeredLognormal, TriggeredGamma)
    lines = []
    for index, family in enumerate(draw(st.permutations(families)), start=1):
        triggers = draw(st.frozensets(node_ids, min_size=1))
        if family is RateSumExponential:
            model = RateSumExponential(
                tuple((nid, draw(st.floats(min_value=0.05, max_value=2.0))) for nid in triggers)
            )
        elif family is TriggeredLognormal:
            model = TriggeredLognormal(
                draw(st.floats(min_value=-1.0, max_value=2.0)),
                draw(st.floats(min_value=0.1, max_value=1.0)),
            )
        else:
            model = TriggeredGamma(
                draw(st.floats(min_value=0.5, max_value=5.0)),
                draw(st.floats(min_value=0.1, max_value=2.0)),
            )
        lines.append(BusinessLine(index, family.__name__, triggers, model))
    return graph, lines


def seventeen_node_graph(complete: bool) -> AttackGraph:
    """A 17-node chain or complete DAG, its nodes listed in shuffled order."""
    rng = np.random.default_rng(17)
    pairs = [(i, j) for j in range(2, 18) for i in range(1, j) if complete or i == j - 1]
    edges = [Edge(i, j, float(rng.uniform(0.05, 0.95))) for i, j in pairs]
    nodes = [
        VulnNode(int(i), entry_prob=0.3 if i == 1 else None)
        for i in rng.permutation(np.arange(1, 18))
    ]
    return AttackGraph(nodes, edges)


def full_width_joint(graph: AttackGraph) -> np.ndarray:
    """Reference joint: every node's factor taken over all 2^n states at once.

    Walks nodes parent-first with parents in ascending id, multiplying the
    same terms in the same order as ``enumerate_joint``, so the two agree
    bit for bit; bit k of an index is the state of the node at position k.
    """
    size = 1 << graph.n
    index = np.arange(size, dtype=np.uint64)
    bits = [((index >> np.uint64(k)) & np.uint64(1)).astype(bool) for k in range(graph.n)]
    probs = np.ones(size)
    for node_id in topological_order(graph):
        parents = graph.parents_of(node_id)
        if not parents:
            exploited_prob = np.full(size, graph.node(node_id).entry_prob)
        else:
            survive = np.ones(size)
            for parent_id, cond_prob in parents:
                survive *= np.where(bits[graph.position(parent_id)], 1.0 - cond_prob, 1.0)
            exploited_prob = 1.0 - survive
        probs *= np.where(
            bits[graph.position(node_id)], exploited_prob, 1.0 - exploited_prob
        )
    return probs


def full_cdf(graph: AttackGraph) -> np.ndarray:
    """Reference CDF: the exact joint's running sum over all 2^n state
    indices, divided by its last entry, so it ends at exactly 1.0."""
    cdf = np.cumsum(enumerate_joint(graph).probs)
    cdf /= cdf[-1]
    return cdf


def loss_matrix(draws, rows: int, columns: int) -> np.ndarray:
    """The (rows, columns) line losses of a ``(column, fired rows, severities)``
    stream such as ``losses.line_draws``; 0 where a line did not fire."""
    out = np.zeros((rows, columns))
    for col, fired, values in draws:
        out[fired, col] = values
    return out


def mask_marginals(joint: JointDistribution) -> np.ndarray:
    """Reference marginals: select each node's exploited states with a 2^n mask."""
    n = len(joint.node_ids)
    index = np.arange(1 << n, dtype=np.uint64)
    marginals = np.empty(n)
    for pos in range(n):
        mask = ((index >> np.uint64(pos)) & np.uint64(1)).astype(bool)
        if n <= 16:
            marginals[pos] = math.fsum(joint.probs[mask].tolist())
        else:
            marginals[pos] = float(joint.probs[mask].sum())
    return marginals


def recursive_joint_prob(graph: AttackGraph, states) -> float:
    """Independent oracle: multiply conditional terms node by node, recursively.

    Walks nodes in id order and resolves each node's conditional probability
    from its parents' states directly, without any of the vectorized
    enumeration machinery.
    """

    def node_term(node):
        parents = graph.parents_of(node.id)
        if not parents:
            p = node.entry_prob
        else:
            survive = 1.0
            for parent_id, cond in parents:
                if states[graph.position(parent_id)]:
                    survive *= 1.0 - cond
            p = 1.0 - survive
        return p if states[graph.position(node.id)] else 1.0 - p

    def product(remaining):
        if not remaining:
            return 1.0
        return node_term(remaining[0]) * product(remaining[1:])

    return product(sorted(graph.nodes, key=lambda nd: nd.id))


def state_index(states) -> int:
    """Index of a state vector into ``JointDistribution.probs``: bit k is position k."""
    return sum(1 << k for k, s in enumerate(states) if s)


def all_states(n: int):
    for index in range(1 << n):
        yield tuple((index >> k) & 1 for k in range(n))


def brute_force_marginals(graph: AttackGraph) -> dict[int, float]:
    """Exact marginals by brute-force sum of the recursive oracle over 2^n states."""
    totals = {node.id: 0.0 for node in graph.nodes}
    for states in all_states(graph.n):
        p = recursive_joint_prob(graph, states)
        for node in graph.nodes:
            if states[graph.position(node.id)]:
                totals[node.id] += p
    return totals


def joint_csv_reference(joint: JointDistribution) -> str:
    """joint.csv as one 2^n-row table rendered by ``render_csv``."""
    header = (*(f"S{nid}" for nid in joint.node_ids), "Prob")
    rows = tuple(
        (*joint.state_of(index), float(joint.probs[index]))
        for index in range(joint.probs.size)
    )
    return render_csv(Table(header=header, rows=rows))


def scipy_law(dist):
    """The ``scipy.stats`` law of an exponential, lognormal or gamma loss law."""
    from scipy import stats

    if isinstance(dist, Exponential):
        return stats.expon(scale=1.0 / dist.rate)
    if isinstance(dist, TriggeredLognormal):
        return stats.lognorm(dist.sigma, scale=math.exp(dist.mu))
    return stats.gamma(dist.alpha, scale=1.0 / dist.beta)


def lev_quadrature(dist, d: float, c: float) -> float:
    """Numeric-integration oracle: integrate the ``scipy.stats`` law's survival
    function on [d, d+c], so it shares no formula with the closed forms."""
    from scipy.integrate import quad

    upper = math.inf if math.isinf(c) else d + c
    value, _ = quad(scipy_law(dist).sf, d, upper, limit=400, epsabs=1e-13, epsrel=1e-11)
    return value

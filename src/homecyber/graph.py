"""Vulnerability DAG: validation, exact joint exploitation law, state sampling.

Nodes are vulnerabilities; a directed edge (i, j) carries the conditional
probability that exploiting i leads to exploiting j.  Entry nodes (no
parents) are exploited with their own entry probability; every other node
combines its exploited parents with a noisy-OR.  A state vector holds one
boolean per node, index-aligned with ``AttackGraph.nodes``; a state index
packs the same booleans into bits, bit k for the node at position k.
States are sampled as indices, by inverting the CDF of the exact joint
through a guide table, so sampling needs the joint and is limited to
``DEFAULT_ENUMERATION_CAP`` nodes; the inversion gives the same index as a
binary search of the CDF.
"""

import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

DEFAULT_ENUMERATION_CAP = 22
# JointDistribution.total feeds fsum this many doubles at a time
_FSUM_CHUNK = 1 << 16

# State vectors are boolean arrays index-aligned with AttackGraph.nodes.
StateVector = np.ndarray


class GraphValidationError(ValueError):
    """Raised when an operation requires a valid graph and does not get one."""


class EnumerationSizeError(ValueError):
    """Raised when exact enumeration would exceed the configured state cap."""


@dataclass(frozen=True)
class VulnNode:
    """One vulnerability.  ``label`` is opaque metadata (CVE id, CVSS, ...)."""

    id: int
    label: str = ""
    entry_prob: float | None = None


@dataclass(frozen=True)
class Edge:
    src: int
    dst: int
    cond_prob: float


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


class AttackGraph:
    """Immutable vulnerability graph.

    Construction never raises on bad data; run :func:`validate_graph` to get
    the list of invariant violations.  Derived structure (positions, parent
    lists) is precomputed once and shared, so instances are safe for
    concurrent readers.

    The topological order and the exact joint are filled lazily and cached
    for the object's lifetime; the joint holds 2^n doubles (8 MB at n = 20,
    32 MB at the default enumeration cap of 22) and is filled in O(2^n), one
    node at a time in topological order.  Two readers filling a cache at
    once compute the same value, and either result is kept.
    """

    def __init__(self, nodes: Iterable[VulnNode], edges: Iterable[Edge]):
        self.nodes: tuple[VulnNode, ...] = tuple(nodes)
        self.edges: tuple[Edge, ...] = tuple(edges)
        self._position: dict[int, int] = {}
        for pos, node in enumerate(self.nodes):
            self._position.setdefault(node.id, pos)
        # Parent lists keep only resolvable endpoints; validation reports the rest.
        parents: dict[int, list[tuple[int, float]]] = {n.id: [] for n in self.nodes}
        for edge in self.edges:
            if edge.src in self._position and edge.dst in self._position:
                parents[edge.dst].append((edge.src, edge.cond_prob))
        self._parents = {
            nid: tuple(sorted(plist)) for nid, plist in parents.items()
        }
        self._topo_cache: tuple[int, ...] | None = None
        self._joint_cache: JointDistribution | None = None

    @property
    def n(self) -> int:
        return len(self.nodes)

    @property
    def node_ids(self) -> tuple[int, ...]:
        return tuple(node.id for node in self.nodes)

    def position(self, node_id: int) -> int:
        try:
            return self._position[node_id]
        except KeyError:
            raise GraphValidationError(f"unknown node id {node_id}") from None

    def node(self, node_id: int) -> VulnNode:
        return self.nodes[self.position(node_id)]

    def parents_of(self, node_id: int) -> tuple[tuple[int, float], ...]:
        """(parent id, conditional probability) pairs, ascending by parent id."""
        return self._parents.get(node_id, ())


def validate_graph(graph: AttackGraph) -> ValidationReport:
    """Check every type invariant; violations are data, not exceptions."""
    violations: list[str] = []
    seen_ids: set[int] = set()
    for node in graph.nodes:
        if node.id in seen_ids:
            violations.append(f"node {node.id}: duplicate id")
        seen_ids.add(node.id)
        if node.entry_prob is not None and not 0.0 <= node.entry_prob <= 1.0:
            violations.append(
                f"node {node.id}: entry_prob {node.entry_prob} outside [0, 1]"
            )

    seen_edges: set[tuple[int, int]] = set()
    for edge in graph.edges:
        ident = f"edge {edge.src}->{edge.dst}"
        if edge.src == edge.dst:
            violations.append(f"{ident}: self-loop")
        if (edge.src, edge.dst) in seen_edges:
            violations.append(f"{ident}: duplicate edge")
        seen_edges.add((edge.src, edge.dst))
        if not 0.0 <= edge.cond_prob <= 1.0:
            violations.append(f"{ident}: cond_prob {edge.cond_prob} outside [0, 1]")
        for endpoint in (edge.src, edge.dst):
            if endpoint not in graph._position:
                violations.append(f"{ident}: references unknown node {endpoint}")

    for node in graph.nodes:
        has_parents = bool(graph.parents_of(node.id))
        if has_parents and node.entry_prob is not None:
            violations.append(f"node {node.id}: entry_prob on parented node")
        if not has_parents and node.entry_prob is None:
            violations.append(f"node {node.id}: entry node missing entry_prob")

    if _kahn_order(graph) is None:
        cyclic = sorted(set(graph.node_ids) - set(_kahn_prefix(graph)))
        violations.append(f"cycle detected involving nodes {cyclic}")

    return ValidationReport(tuple(violations))


def _kahn_prefix(graph: AttackGraph) -> list[int]:
    """Kahn's algorithm with an id-ordered heap; short when a cycle remains."""
    indegree = {node.id: len(graph.parents_of(node.id)) for node in graph.nodes}
    children: dict[int, list[int]] = {node.id: [] for node in graph.nodes}
    for edge in graph.edges:
        if edge.src in children and edge.dst in indegree:
            children[edge.src].append(edge.dst)
    ready = [nid for nid, deg in indegree.items() if deg == 0]
    heapq.heapify(ready)
    order: list[int] = []
    while ready:
        nid = heapq.heappop(ready)
        order.append(nid)
        for child in children[nid]:
            indegree[child] -= 1
            if indegree[child] == 0:
                heapq.heappush(ready, child)
    return order


def _kahn_order(graph: AttackGraph) -> list[int] | None:
    order = _kahn_prefix(graph)
    return order if len(order) == graph.n else None


def topological_order(graph: AttackGraph) -> tuple[int, ...]:
    """Parent-first node ids, ties broken by ascending id.  Raises on cycles."""
    if graph._topo_cache is None:
        order = _kahn_order(graph)
        if order is None:
            raise GraphValidationError("graph contains a cycle; no topological order")
        graph._topo_cache = tuple(order)
    return graph._topo_cache


@dataclass(frozen=True)
class JointDistribution:
    """Exact probability of each of the 2^n states.

    ``probs[idx]`` is the probability of the state whose bit k (of ``idx``)
    is the boolean state of ``node_ids[k]``.  The array is read-only.
    """

    node_ids: tuple[int, ...]
    probs: np.ndarray

    def state_index(self, states: Sequence[bool] | StateVector) -> int:
        if len(states) != len(self.node_ids):
            raise ValueError(
                f"state vector length {len(states)} != node count {len(self.node_ids)}"
            )
        idx = 0
        for k, s in enumerate(states):
            if s:
                idx |= 1 << k
        return idx

    def state_of(self, index: int) -> tuple[int, ...]:
        return tuple((index >> k) & 1 for k in range(len(self.node_ids)))

    def prob_of(self, states: Sequence[bool] | StateVector) -> float:
        return float(self.probs[self.state_index(states)])

    def total(self) -> float:
        """Exact ``math.fsum`` of the nonzero ``probs``, a slice at a time (no 2^n list)."""
        chunks = (self.probs[i : i + _FSUM_CHUNK] for i in range(0, self.probs.size, _FSUM_CHUNK))
        return math.fsum(itertools.chain.from_iterable(c[c != 0.0].tolist() for c in chunks))

    def pattern_probs(self, positions: Sequence[int]) -> np.ndarray:
        """Joint law of the nodes at ``positions`` (strictly ascending).

        Entry j is the probability that, for every i, the node at
        ``positions[i]`` is exploited exactly when bit i of j is set; the
        other nodes are summed out.
        """
        n = len(self.node_ids)
        kept = set(positions)
        # C order puts state bit k on axis n - 1 - k
        summed = tuple(n - 1 - k for k in range(n) if k not in kept)
        return self.probs.reshape((2,) * n).sum(axis=summed).reshape(-1)

    def marginals(self) -> np.ndarray:
        """Per-node exploitation probabilities, aligned with ``node_ids``."""
        n = len(self.node_ids)
        marginals = np.empty(n)
        for pos in range(n):
            # the states with bit pos set, copied out in index order: a sum over
            # the strided view would add them in another order
            exploited = self.probs.reshape(-1, 2, 1 << pos)[:, 1, :].reshape(-1)
            if n <= 16:
                # fsum keeps entry-node marginals exact to the last ulp
                marginals[pos] = math.fsum(exploited.tolist())
            else:
                marginals[pos] = float(exploited.sum())
        return marginals


def check_enumerable(graph: AttackGraph, cap: int = DEFAULT_ENUMERATION_CAP) -> None:
    """Raise :class:`EnumerationSizeError` when ``graph`` has more than ``cap`` nodes."""
    if graph.n > cap:
        raise EnumerationSizeError(
            f"{graph.n} nodes exceed the enumeration cap of {cap} (2^{graph.n} states)"
        )


def enumerate_joint(
    graph: AttackGraph, cap: int = DEFAULT_ENUMERATION_CAP
) -> JointDistribution:
    """Exact joint law as the parent-first product of conditional terms.

    The joint is filled in place, one node at a time in topological order:
    once the first k nodes of that order are placed, the first 2^k entries
    hold their joint, and node k + 1 splits each of those states into an
    exploited and a safe half.  That takes about 2 * 2^n multiplications,
    and the output is the only 2^n array (plus one reordered copy when the
    topological order is not the listing order of ``graph.nodes``).

    Raises :class:`EnumerationSizeError` above ``cap`` nodes; simulation
    samples from this joint, so it has the same limit.  The result is
    cached on ``graph``, so every later call with a large enough ``cap``
    returns the same object.
    """
    check_enumerable(graph, cap)
    if graph._joint_cache is None:
        graph._joint_cache = _enumerate(graph)
    return graph._joint_cache


def _enumerate(graph: AttackGraph) -> JointDistribution:
    n = graph.n
    order = [graph.position(node_id) for node_id in topological_order(graph)]
    rank = {pos: k for k, pos in enumerate(order)}
    probs = np.empty(1 << n)
    probs[0] = 1.0
    # Before step k, probs[:2^k] is the joint of the first k nodes of the
    # topological order, bit j of the index on its node j.  Step k writes
    # the states where node k is exploited to probs[2^k:2^(k+1)] and scales
    # the rest by its safe probability, in place, so no other 2^n array is
    # made.  An entry node is exploited with its entry_prob; any other node
    # with 1 - prod(1 - cond_prob) over its exploited parents, in ascending
    # parent id.
    for k, node_id in enumerate(topological_order(graph)):
        low = probs[: 1 << k]
        parents = graph.parents_of(node_id)
        if not parents:
            p = graph.node(node_id).entry_prob
            if p is None:
                raise GraphValidationError(f"entry node {node_id} has no entry_prob")
            probs[1 << k : 2 << k] = low * p
            low *= 1.0 - p
            continue
        survive = np.ones(1 << k)
        for pid, cond in parents:
            survive.reshape(-1, 2, 1 << rank[graph.position(pid)])[:, 1, :] *= 1.0 - cond
        p = np.subtract(1.0, survive, out=survive)
        np.multiply(low, p, out=probs[1 << k : 2 << k])
        low *= np.subtract(1.0, p, out=p)
    if order != list(range(n)):
        # C order puts bit b on axis n - 1 - b; move order bits onto node bits
        axes = [n - 1 - rank[n - 1 - a] for a in range(n)]
        probs = np.ascontiguousarray(probs.reshape((2,) * n).transpose(axes)).reshape(-1)
    probs.flags.writeable = False
    joint = JointDistribution(graph.node_ids, probs)
    total = joint.total()
    if abs(total - 1.0) > 1e-12:
        raise GraphValidationError(
            f"joint probabilities sum to {total!r}, off by more than 1e-12"
        )
    return joint


def marginal_exploit_probs(
    graph: AttackGraph, cap: int = DEFAULT_ENUMERATION_CAP
) -> np.ndarray:
    """Exact per-node exploitation probabilities, aligned with ``graph.nodes``."""
    return enumerate_joint(graph, cap=cap).marginals()


def state_cdf(graph: AttackGraph, cap: int = DEFAULT_ENUMERATION_CAP) -> np.ndarray:
    """The exact joint's running sum over state indices, ending at exactly 1.0.

    The sum is divided by its last entry.  Read-only and not cached; raises
    :class:`EnumerationSizeError` above ``cap`` nodes.
    """
    cdf = np.cumsum(enumerate_joint(graph, cap=cap).probs)
    cdf /= cdf[-1]
    cdf.flags.writeable = False
    return cdf


def state_guide(cdf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Guide table of ``cdf`` for indexed search (Chen and Asau 1974).

    For K = 2^min(b + 5, 16) equal cells of [0, 1), 2^b the least power of
    two >= ``cdf.size``, ``cells[j]`` is ``np.searchsorted(cdf, j / K,
    "right")`` and ``settled[j]`` says that every uniform in [j / K, (j +
    1) / K) inverts to that index.  K is a power of two, so ``int(u * K)``
    finds a uniform's cell exactly.
    """
    size = 1 << min((cdf.size - 1).bit_length() + 5, 16)
    edges = np.arange(size + 1) / size
    cells = np.searchsorted(cdf, edges[:-1], side="right")
    settled = np.searchsorted(cdf, edges[1:], side="left") == cells
    return cells, settled


def sample_state_indices(
    cdf: np.ndarray, count: int, rng: np.random.Generator, guide: tuple | None = None
) -> np.ndarray:
    """``count`` indices into ``cdf``, one uniform each, inverted through it.

    Each row gets the first index whose cumulative probability exceeds its
    uniform, so a state of probability 0 is never drawn.  ``guide`` is
    ``state_guide(cdf)``, built here when not given: a row reads its cell's
    index, and only rows whose cell holds a step of the CDF search ``cdf``.
    """
    cells, settled = state_guide(cdf) if guide is None else guide
    u = rng.random(count)
    cell = (u * cells.size).astype(np.intp)
    indices = cells[cell]
    rough = np.flatnonzero(~settled[cell])
    indices[rough] = np.searchsorted(cdf, u[rough], side="right")
    return indices

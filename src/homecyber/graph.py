"""Vulnerability DAG: validation, exact joint exploitation law, state sampling.

Nodes are vulnerabilities; a directed edge (i, j) carries the conditional
probability that exploiting i leads to exploiting j.  Entry nodes (no
parents) are exploited with their own entry probability; every other node
combines its exploited parents with a noisy-OR.  A state vector holds one
boolean per node, index-aligned with ``AttackGraph.nodes``; a state index
packs the same booleans into bits, bit k for the node at position k.
States are sampled by inverting a CDF through a guide table: a loss plan
(``losses.loss_plan``) builds the CDF over the exact joint's support, so
sampling needs the joint and is limited to ``DEFAULT_ENUMERATION_CAP``
nodes; the inversion gives the same index as a binary search of the CDF.
Building and validating a graph needs only the standard library: numpy is
imported on first use, by the functions that enumerate or sample.
"""

from __future__ import annotations

import heapq
import math
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:
    import numpy as np

DEFAULT_ENUMERATION_CAP = 22


class GraphValidationError(ValueError):
    """Raised when an operation requires a valid graph and does not get one."""


class EnumerationSizeError(ValueError):
    """Raised when exact enumeration would exceed the state cap."""


class Frozen:
    """Immutable value whose fields are its class's ``__slots__``, in order, given
    by position or name (those in ``_defaults`` may be left out).  ``_check`` runs
    once they are set.  Values of one type with equal fields are equal, except that
    ``==`` on an array gives no bool: values with array fields (``SimulationResult``,
    ``JointDistribution``, ``LossPlan``) are neither compared nor hashed."""

    __slots__ = ()
    _defaults: dict = {}

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if kwargs and not args and tuple(kwargs) == names:  # the scenario loader's call
            args = kwargs.values()
        elif kwargs or len(args) != len(names):
            args = self._bind(args, kwargs)
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        self._check()

    def _bind(self, args: tuple, kwargs: dict) -> list:
        names = self.__slots__
        values = {**self._defaults, **dict(zip(names, args)), **kwargs}
        repeated = not kwargs.keys().isdisjoint(names[: len(args)])
        if len(args) > len(names) or repeated or values.keys() != set(names):
            raise TypeError(f"{type(self).__qualname__}() takes the fields {names}, got "
                            f"{len(args)} by position and {sorted(kwargs)} by name")
        return [values[name] for name in names]

    def _check(self) -> None:
        """Raise ValueError unless the fields are valid."""

    def _store_read_only(self, name: str) -> None:
        """Hold field ``name``, if an array, as a read-only view (its base keeps its flag)."""
        array = getattr(self, name)
        if hasattr(array, "flags"):
            view = array.view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)

    def astuple(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        return self.astuple() == other.astuple() if type(other) is type(self) else NotImplemented

    def __hash__(self):
        return hash((type(self), *self.astuple()))

    def __repr__(self):
        fields = (f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({', '.join(fields)})"

    def __reduce__(self):
        # copy and pickle rebuild the value through __init__, so _check runs again
        return type(self), self.astuple()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot set or delete field {name!r} of a frozen value")

    __delattr__ = __setattr__


class VulnNode(Frozen):
    """One vulnerability.  ``label`` is opaque metadata (CVE id, CVSS, ...)."""

    __slots__ = ("id", "label", "entry_prob")
    _defaults = {"label": "", "entry_prob": None}


class Edge(Frozen):
    __slots__ = ("src", "dst", "cond_prob")


class AttackGraph:
    """Immutable vulnerability graph.

    Construction never raises on bad data; run :func:`validate_graph` to get
    the list of invariant violations.  Derived structure (positions, parent
    lists) is precomputed once and shared, so instances are safe for
    concurrent readers.
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


def validate_graph(graph: AttackGraph) -> tuple[str, ...]:
    """Every broken type invariant, one message each (empty when the graph is
    valid); violations are data, not exceptions."""
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

    order = _kahn_prefix(graph)
    if len(order) < graph.n:
        cyclic = sorted(set(graph.node_ids) - set(order))
        violations.append(f"cycle detected involving nodes {cyclic}")

    return tuple(violations)


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


def ancestral_subgraph(graph: AttackGraph, node_ids: Iterable[int]) -> AttackGraph:
    """The nodes ``node_ids`` and all their ancestors, in listing order, with the
    edges into them.  Every other node is barren (no kept node descends from
    it), so it sums out of the joint: the subgraph's joint is the marginal law
    of its nodes in ``graph`` (Shachter 1986).  Raises on an unknown id."""
    kept: set[int] = set()
    stack = [graph.node(nid).id for nid in node_ids]
    while stack:
        nid = stack.pop()
        if nid not in kept:
            kept.add(nid)
            stack.extend(pid for pid, _ in graph.parents_of(nid))
    return AttackGraph([node for node in graph.nodes if node.id in kept],
                       [edge for edge in graph.edges if edge.dst in kept])


def topological_order(graph: AttackGraph) -> tuple[int, ...]:
    """Parent-first node ids, ties broken by ascending id.  Raises on cycles."""
    order = _kahn_prefix(graph)
    if len(order) < graph.n:
        raise GraphValidationError("graph contains a cycle; no topological order")
    return tuple(order)


class JointDistribution(Frozen):
    """Exact probability of each of the 2^n states.

    ``probs[idx]`` is the probability of the state whose bit k (of ``idx``)
    is the boolean state of ``node_ids[k]``.  The array is read-only, in copies
    too; ``enumerate_joint`` checks that it sums to 1 within 1e-12.
    """

    __slots__ = ("node_ids", "probs")

    def _check(self):
        self._store_read_only("probs")

    def state_of(self, index: int) -> tuple[int, ...]:
        return tuple((index >> k) & 1 for k in range(len(self.node_ids)))

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
        import numpy as np

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


def check_enumerable(graph: AttackGraph, what: str = "nodes") -> None:
    """Raise :class:`EnumerationSizeError` above ``DEFAULT_ENUMERATION_CAP`` nodes;
    the message counts them as ``what``."""
    if graph.n > DEFAULT_ENUMERATION_CAP:
        raise EnumerationSizeError(f"{graph.n} {what} exceed the enumeration cap of "
                                   f"{DEFAULT_ENUMERATION_CAP} (2^{graph.n} states)")


def enumerate_joint(graph: AttackGraph) -> JointDistribution:
    """Exact joint law as the parent-first product of conditional terms.

    The joint is filled in place, one node at a time in topological order:
    once the first k nodes of that order are placed, the first 2^k entries
    hold their joint, and node k + 1 splits each of those states into an
    exploited and a safe half.  That takes about 2 * 2^n multiplications,
    and the output is the only 2^n array (plus one reordered copy when the
    topological order is not the listing order of ``graph.nodes``).

    Raises :class:`EnumerationSizeError` above ``DEFAULT_ENUMERATION_CAP``
    nodes; simulation samples from this joint, so it has the same limit.
    Every call builds a new joint: ``graph`` keeps none.
    """
    import numpy as np

    check_enumerable(graph)
    n = graph.n
    topo_ids = topological_order(graph)
    order = [graph.position(node_id) for node_id in topo_ids]
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
    for k, node_id in enumerate(topo_ids):
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
    # numpy's pairwise sum of at most 2^22 terms in [0, 1] rounds each term at most
    # 40 times, so it is within 40 * 2^-53 < 5e-15 of the exact sum; NaN fails too
    total = float(probs.sum())
    if not abs(total - 1.0) <= 1e-12:
        raise GraphValidationError(
            f"joint probabilities sum to {total!r}, off by more than 1e-12"
        )
    return JointDistribution(graph.node_ids, probs)


def state_guide(cdf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Guide table of ``cdf`` for indexed search (Chen and Asau 1974).

    For K = 2^min(b + 5, 16) equal cells of [0, 1), 2^b the least power of
    two >= ``cdf.size``, ``cells[j]`` is ``np.searchsorted(cdf, j / K,
    "right")`` and ``settled[j]`` says that every uniform in [j / K, (j +
    1) / K) inverts to that index.  K is a power of two, so ``int(u * K)``
    finds a uniform's cell exactly.
    """
    import numpy as np

    size = 1 << min((cdf.size - 1).bit_length() + 5, 16)
    edges = np.arange(size + 1) / size
    cells = np.searchsorted(cdf, edges[:-1], side="right")
    settled = np.searchsorted(cdf, edges[1:], side="left") == cells
    return cells, settled


def sample_state_indices(
    cdf: np.ndarray, count: int, rng: np.random.Generator, guide: tuple
) -> np.ndarray:
    """``count`` indices into ``cdf``, one uniform each, inverted through it.

    Each row gets the first index whose cumulative probability exceeds its
    uniform, so a state of probability 0 is never drawn.  ``guide`` is
    ``state_guide(cdf)``: a row reads its cell's index, and only rows whose
    cell holds a step of the CDF search ``cdf``.
    """
    import numpy as np

    cells, settled = guide
    u = rng.random(count)
    cell = (u * cells.size).astype(np.intp)
    indices = cells[cell]
    rough = np.flatnonzero(~settled[cell])
    indices[rough] = np.searchsorted(cdf, u[rough], side="right")
    return indices

"""Scenario files, canonical serialization, digests, and run manifests.

A scenario is a single JSON document holding the vulnerability graph, the
business lines, and a default policy.  The canonical serialization (sorted
keys, minimal separators, shortest round-trip numbers) defines the digest
recorded in every run manifest, so semantically identical files hash alike.
"""

import hashlib
import json
import math
import platform
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__
from .graph import AttackGraph, Edge, VulnNode, validate_graph
from .losses import (
    BusinessLine,
    RateSumExponential,
    TriggeredGamma,
    TriggeredLognormal,
)
from .pricing import Policy
from .streams import STREAM_LAYOUT

SCHEMA_VERSION = 1


class ScenarioError(ValueError):
    """Scenario file cannot be parsed or fails validation."""


@dataclass(frozen=True)
class Scenario:
    graph: AttackGraph
    lines: tuple[BusinessLine, ...]
    default_policy: Policy | None
    description: str
    schema_version: int


def bundled_case_study_path() -> Path:
    """Path of the scenario shipped with the package (seven-node smart home)."""
    return Path(resources.files("homecyber").joinpath("data/case_study.json"))


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario file {path}: {exc}") from exc
    try:
        data = json.loads(text, object_pairs_hook=_KeyValuePairs)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: not valid JSON ({exc})") from exc
    return parse_scenario(_unique_keys(data, str(path), ""), source=str(path))


class _KeyValuePairs(list):
    """A JSON object's (key, value) pairs as read, before repeats are checked."""


def _unique_keys(value, source: str, where: str):
    """``value`` with every object a dict; a key repeated in one object raises.

    ``json.loads`` alone keeps the last of repeated keys, so a scenario could
    silently load a value other than the one its reader sees first.
    """
    if isinstance(value, _KeyValuePairs):
        obj = {}
        for key, item in value:
            if key in obj:
                raise ScenarioError(
                    f"{source}: {where or 'top level'}: key {key!r} appears twice"
                )
            obj[key] = _unique_keys(item, source, f"{where}.{key}" if where else key)
        return obj
    if isinstance(value, list):
        return [_unique_keys(item, source, f"{where}[{i}]") for i, item in enumerate(value)]
    return value


def parse_scenario(data, source: str = "<scenario>") -> Scenario:
    """Build and validate a Scenario from a parsed JSON document."""
    if not isinstance(data, dict):
        raise ScenarioError(f"{source}: top level must be an object")
    version = data.get("schema_version")
    # true and 1.0 compare equal to 1 but are not the integer version
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ScenarioError(
            f"{source}: schema_version {version!r} not recognized "
            f"(expected {SCHEMA_VERSION})"
        )

    graph_doc = _require(data, "graph", dict, source)
    nodes = []
    for i, node_doc in enumerate(_require(graph_doc, "nodes", list, source)):
        where = f"{source}: graph.nodes[{i}]"
        nid = _require(node_doc, "id", int, where)
        entry = node_doc.get("entry_prob")
        entry = None if entry is None else _number(entry, "entry_prob", where)
        label = node_doc.get("label", "")
        # labels are marginals.csv cells, which the CSV layout cannot quote
        if not isinstance(label, str) or any(ch in label for ch in ",\n\r"):
            raise ScenarioError(
                f"{where}: field 'label' must be a string without ',' or line breaks, "
                f"got {label!r}"
            )
        nodes.append(VulnNode(nid, label, entry))
    edges = []
    for i, edge_doc in enumerate(_require(graph_doc, "edges", list, source)):
        where = f"{source}: graph.edges[{i}]"
        src, dst = (_require(edge_doc, key, int, where) for key in ("src", "dst"))
        edges.append(Edge(src, dst, _require_number(edge_doc, "cond_prob", where)))
    graph = AttackGraph(nodes, edges)
    violations = validate_graph(graph)
    if violations:
        raise ScenarioError(f"{source}: invalid graph: {'; '.join(violations)}")

    lines = []
    seen_indices: set[int] = set()
    for i, line_doc in enumerate(_require(data, "lines", list, source)):
        where = f"{source}: lines[{i}]"
        index = _require(line_doc, "index", int, where)
        name = str(line_doc.get("name", f"line {index}"))
        where = f"{source}: lines[{i}] (index {index}, {name!r})"
        if index in seen_indices:
            raise ScenarioError(f"{where}: duplicate line index")
        seen_indices.add(index)
        triggers = _require(line_doc, "trigger_set", list, where)
        for k, nid in enumerate(triggers):
            if not isinstance(nid, int) or isinstance(nid, bool):
                raise ScenarioError(
                    f"{where}: field 'trigger_set' must hold integer node ids, got {nid!r}"
                )
            if nid in triggers[:k]:
                raise ScenarioError(f"{where}: field 'trigger_set' repeats node {nid}")
            if nid not in graph.node_ids:
                raise ScenarioError(f"{where}: trigger node {nid} not in graph")
        try:
            model = _parse_model(_require(line_doc, "model", dict, where), where)
            _check_mean(model, where)
            lines.append(BusinessLine(index, name, frozenset(triggers), model))
        except ScenarioError:
            raise
        except ValueError as exc:
            raise ScenarioError(f"{where}: {exc}") from exc
    if not lines:
        raise ScenarioError(f"{source}: at least one business line is required")

    policy_doc = data.get("default_policy")
    policy = None
    if policy_doc is not None:
        where = f"{source}: default_policy"
        deductible = _require_number(policy_doc, "deductible", where)
        coverage = _require_number(policy_doc, "coverage", where)
        try:
            policy = Policy(deductible=deductible, coverage=coverage)
        except ValueError as exc:
            raise ScenarioError(f"{where}: {exc}") from exc

    return Scenario(
        graph=graph,
        lines=tuple(sorted(lines, key=lambda ln: ln.index)),
        default_policy=policy,
        description=str(data.get("description", "")),
        schema_version=SCHEMA_VERSION,
    )


def _require(doc, key, kind, source):
    if not isinstance(doc, dict) or key not in doc:
        raise ScenarioError(f"{source}: missing required field {key!r}")
    value = doc[key]
    if kind is int and isinstance(value, bool):
        raise ScenarioError(f"{source}: field {key!r} must be an integer")
    if not isinstance(value, kind):
        expected = kind.__name__ if isinstance(kind, type) else "number"
        raise ScenarioError(f"{source}: field {key!r} must be {expected}")
    return value


def _number(value, field: str, where: str) -> float:
    """``value`` as a finite float; booleans, non-numbers, NaN and inf raise."""
    number = None
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:  # an integer beyond the float range
            pass
    if number is None or not math.isfinite(number):
        raise ScenarioError(f"{where}: field {field!r} must be a finite number, got {value!r}")
    return number


def _require_number(doc, key: str, where: str) -> float:
    return _number(_require(doc, key, object, where), key, where)


def _rate_node(key, where: str) -> int:
    """The node id a ``rates`` key names: a canonical decimal integer string."""
    try:
        nid = int(key)
    except (TypeError, ValueError):
        nid = None
    if not isinstance(key, str) or str(nid) != key:
        raise ScenarioError(
            f"{where}: field 'rates' keys must be decimal node ids, got {key!r}"
        )
    return nid


def _parse_model(doc: dict, where: str):
    family = doc.get("family")
    if family == "rate_sum_exponential":
        # one canonical key per node id, so distinct keys name distinct nodes
        rates_doc = _require(doc, "rates", dict, where)
        return RateSumExponential(
            tuple(
                (_rate_node(key, where), _number(rate, f"rates[{key}]", where))
                for key, rate in rates_doc.items()
            )
        )
    if family == "triggered_lognormal":
        return TriggeredLognormal(
            mu=_require_number(doc, "mu", where),
            sigma=_require_number(doc, "sigma", where),
        )
    if family == "triggered_gamma":
        return TriggeredGamma(
            alpha=_require_number(doc, "alpha", where),
            beta=_require_number(doc, "beta", where),
        )
    raise ScenarioError(f"{where}: unknown model family {family!r}")


def _check_mean(model, where: str) -> None:
    """Raise unless the conditional means of ``model`` are finite float64 values:
    a mean beyond float64 would draw inf and NaN losses."""
    if isinstance(model, RateSumExponential):
        # the largest mean is that of the smallest rate firing alone
        nid, rate = min(model.rates, key=lambda item: item[1])
        what, mean = f"1/rate of field 'rates[{nid}]'", 1.0 / rate
    elif isinstance(model, TriggeredLognormal):
        what = "exp(mu + sigma^2/2) of fields 'mu' and 'sigma'"
        try:
            mean = math.exp(model.mu + model.sigma**2 / 2.0)
        except OverflowError:  # math.exp and ** raise where division returns inf
            mean = math.inf
    else:
        what, mean = "alpha/beta of fields 'alpha' and 'beta'", model.alpha / model.beta
    if not math.isfinite(mean):
        raise ScenarioError(f"{where}: conditional mean {what} is not a finite float64")


# --- canonical form and digest ---------------------------------------------


def canonical_document(scenario: Scenario) -> dict:
    """Scenario as plain data in canonical order (nodes by id, lines by index)."""
    nodes = []
    for node in sorted(scenario.graph.nodes, key=lambda nd: nd.id):
        doc: dict = {"id": node.id, "label": node.label}
        if node.entry_prob is not None:
            doc["entry_prob"] = node.entry_prob
        nodes.append(doc)
    edges = [
        {"src": e.src, "dst": e.dst, "cond_prob": e.cond_prob}
        for e in sorted(scenario.graph.edges, key=lambda e: (e.src, e.dst))
    ]
    lines = []
    for line in scenario.lines:
        model = line.model
        if isinstance(model, RateSumExponential):
            model_doc = {
                "family": "rate_sum_exponential",
                "rates": {str(nid): rate for nid, rate in model.rates},
            }
        elif isinstance(model, TriggeredLognormal):
            model_doc = {"family": "triggered_lognormal", "mu": model.mu, "sigma": model.sigma}
        else:
            model_doc = {"family": "triggered_gamma", "alpha": model.alpha, "beta": model.beta}
        lines.append(
            {
                "index": line.index,
                "name": line.name,
                "trigger_set": sorted(line.trigger_set),
                "model": model_doc,
            }
        )
    doc = {
        "schema_version": scenario.schema_version,
        "description": scenario.description,
        "graph": {"nodes": nodes, "edges": edges},
        "lines": lines,
    }
    if scenario.default_policy is not None:
        doc["default_policy"] = {
            "deductible": scenario.default_policy.deductible,
            "coverage": scenario.default_policy.coverage,
        }
    return doc


def canonical_serialization(scenario: Scenario) -> str:
    return json.dumps(canonical_document(scenario), sort_keys=True, separators=(",", ":"))


def scenario_digest(scenario: Scenario) -> str:
    return hashlib.sha256(canonical_serialization(scenario).encode("utf-8")).hexdigest()


# --- run manifests ----------------------------------------------------------


@dataclass(frozen=True)
class RunManifest:
    scenario_digest: str
    master_seed: int
    runs: int | None = None
    replications: int | None = None
    homes: int | None = None
    tool_version: str = __version__

    def to_document(self) -> dict:
        return {
            "scenario_digest": self.scenario_digest,
            "master_seed": self.master_seed,
            "runs": self.runs,
            "replications": self.replications,
            "homes": self.homes,
            "stream_layout": STREAM_LAYOUT,
            "tool_version": self.tool_version,
            # the draws of a stream layout are numpy's sampling algorithms
            # (lognormal, gamma, ...), so a digest reproduces only with the
            # same numpy and Python
            "numpy_version": np.__version__,
            "python_version": platform.python_version(),
        }


def write_manifest(manifest: RunManifest, directory: str | Path) -> Path:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / "manifest.json"
    payload = json.dumps(manifest.to_document(), sort_keys=True, separators=(",", ":"))
    path.write_text(payload + "\n")
    return path

"""Scenario files, canonical serialization and digests.

A scenario is one JSON document: the vulnerability graph, the business lines
and a default policy.  The tables ending the format section are the format:
``parse_scenario`` reads through them, so another key fails to load, and
``canonical_document`` writes through them, so every loaded field enters the
digest (sorted keys, minimal separators, shortest round-trip numbers) that run
manifests record.  Each loss model bounds its own mean, and the loader names the
line in its error.  Loading and digesting need no numpy: ``validate`` starts without it.
"""

from __future__ import annotations

import hashlib
import json
import math
from functools import partial
from operator import attrgetter
from pathlib import Path
from typing import Callable

from .graph import AttackGraph, Edge, Frozen, VulnNode, validate_graph
from .losses import BusinessLine, RateSumExponential, TriggeredGamma, TriggeredLognormal
from .pricing import Policy

SCHEMA_VERSION = 1


class ScenarioError(ValueError):
    """Scenario file cannot be parsed or fails validation."""


class Scenario(Frozen):
    """A loaded scenario; ``lines`` ascend by index, ``default_policy`` may be None."""

    __slots__ = ("graph", "lines", "default_policy", "description", "schema_version")


def bundled_case_study_path() -> Path:
    """Path of the scenario shipped with the package (seven-node smart home)."""
    from importlib import resources

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
    try:
        return _scenario(**SCENARIO.load(data, TOP, TOP))
    except ScenarioError as exc:
        raise ScenarioError(f"{source}: {exc}") from exc


def canonical_document(scenario: Scenario) -> dict:
    """Scenario as plain data in canonical order (nodes by id, lines by index)."""
    return SCENARIO.write(scenario)


# --- the format: one table per object kind ---------------------------------

REQUIRED = object()  # the default of a field that must be present
TOP = "top level"


def _child(where: str, key: str) -> str:
    return key if where == TOP else f"{where}.{key}"


class _Kind:
    """A field's reader, ``read(value, where, key)``, and writer (None leaves it out)."""

    def __init__(self, read: Callable, write: Callable = lambda value: value):
        self.read, self.write = read, write


def _checked(test: Callable, what: str) -> _Kind:
    """The kind of a field whose JSON value is its value, when ``test`` accepts it."""
    def read(value, where: str, key: str):
        if not test(value):
            raise ScenarioError(f"{where}: field {key!r} must be {what}, got {value!r}")
        return value
    return _Kind(read)


class _Table:
    """One object kind: each JSON key maps to (kind, default), where the default
    is REQUIRED, a value, or a function of the fields read before it."""

    def __init__(self, build: Callable, **fields: tuple):
        self.build, self.fields = build, fields

    def load(self, doc, where: str, name: str):
        """``doc`` read through the table and built; ``name`` names a non-object."""
        if not isinstance(doc, dict):
            raise ScenarioError(f"{name} must be an object, got {doc!r}")
        values = {}
        for key, (kind, default) in self.fields.items():
            # a null stands for an absent field whose default is None
            if key in doc and not (doc[key] is None and default is None):
                values[key] = kind.read(doc[key], where, key)
            elif default is REQUIRED:
                raise ScenarioError(f"{where}: missing required field {key!r}")
            else:
                values[key] = default(values) if callable(default) else default
        for key in doc:
            if key not in self.fields:
                raise ScenarioError(f"{where}: unknown field {key!r}")
        try:
            return self.build(**values)
        except ValueError as exc:
            raise ScenarioError(f"{where}: {exc}") from exc

    def read(self, value, where: str, key: str):
        return self.load(value, _child(where, key), f"{where}: field {key!r}")

    def many(self, order: Callable) -> _Kind:
        """The kind of a field holding a list of these objects, written in ``order``."""
        def read(value, where: str, key: str) -> list:
            path = _child(where, key)
            return [self.load(doc, f"{path}[{i}]", f"{path}[{i}]")
                    for i, doc in enumerate(_LIST.read(value, where, key))]
        return _Kind(read, lambda objects: [self.write(obj) for obj in sorted(objects, key=order)])

    def write(self, obj) -> dict:
        """``obj`` through the table; a field that is or writes None is left out."""
        doc = {}
        for key, (kind, _) in self.fields.items():
            value = getattr(obj, key)
            if value is not None and (value := kind.write(value)) is not None:
                doc[key] = value
        return doc


def _number(value, where: str, key: str, hint: str = "") -> float:
    """``value`` as a finite float; booleans, non-numbers, NaN and inf raise."""
    try:
        number = float(value) if type(value) in (int, float) else math.nan
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ScenarioError(f"{where}: field {key!r} must be a finite number, got {value!r}{hint}")
    return number


def _triggers(value, where: str, key: str) -> frozenset[int]:
    triggers = _LIST.read(value, where, key)
    # type() is not int for a bool, and a repeat would hide in the frozenset
    if any(type(nid) is not int for nid in triggers) or len(set(triggers)) < len(triggers):
        raise ScenarioError(f"{where}: field {key!r} must hold distinct integer node ids, "
                            f"got {value!r}")
    return frozenset(triggers)


def _rates(value, where: str, key: str) -> tuple[tuple[int, float], ...]:
    # one canonical decimal key per node id, so distinct keys name distinct nodes
    rates = []
    for node, rate in _OBJECT.read(value, where, key).items():
        try:
            nid = int(node)
        except (TypeError, ValueError):
            nid = None
        if str(nid) != node:
            raise ScenarioError(
                f"{where}: field {key!r} keys must be decimal node ids, got {node!r}"
            )
        rates.append((nid, _number(rate, where, f"{key}[{node}]")))
    return tuple(rates)


def _model(doc, where: str, key: str):
    # a call that builds the model, made in _scenario so that its errors name the line
    family = _OBJECT.read(doc, where, key).get("family")
    # a family that is not a string (a list, say) cannot be looked up
    if not isinstance(family, str) or family not in FAMILIES:
        raise ScenarioError(f"{where}: unknown model family {family!r}")
    model, table = FAMILIES[family]
    params = {name: value for name, value in doc.items() if name != "family"}
    return partial(model, **table.load(params, _child(where, key), ""))


def _write_model(model) -> dict:
    family = next(name for name, (cls, _) in FAMILIES.items() if type(model) is cls)
    return {"family": family, **FAMILIES[family][1].write(model)}


def _scenario(schema_version, description, graph, lines, default_policy) -> Scenario:
    """The Scenario, its lines built here and checked against the graph and each other."""
    violations = validate_graph(graph)
    if violations:
        raise ScenarioError(f"invalid graph: {'; '.join(violations)}")
    if not lines:
        raise ScenarioError("at least one business line is required")
    built: dict[int, BusinessLine] = {}
    for i, line in enumerate(lines):
        index, name, triggers = line["index"], line["name"], line["trigger_set"]
        where = f"lines[{i}] (index {index}, {name!r})"
        if index in built:
            raise ScenarioError(f"{where}: duplicate line index")
        missing = sorted(triggers.difference(graph.node_ids))
        if missing:
            raise ScenarioError(f"{where}: trigger node {missing[0]} not in graph")
        try:
            built[index] = BusinessLine(index, name, triggers, line["model"]())
        except ValueError as exc:
            raise ScenarioError(f"{where}: {exc}") from exc
    lines = tuple(built[index] for index in sorted(built))
    return Scenario(graph, lines, default_policy, description, schema_version)


INTEGER = _checked(lambda value: type(value) is int, "an integer")  # not a bool
NUMBER = _Kind(_number)
TEXT = _checked(lambda value: isinstance(value, str), "a string")
# the characters no CSV cell may hold, labels (marginals.csv cells) among them: the
# layout quotes nothing, ',' and line breaks split the row, csv.reader unquotes '"'
NOT_IN_CELL = ',"\n\r'
LABEL = _checked(
    lambda value: isinstance(value, str) and not any(ch in value for ch in NOT_IN_CELL),
    "a string without ',', '\"' or line breaks",
)
_LIST = _checked(lambda value: isinstance(value, list), "a list")
_OBJECT = _checked(lambda value: isinstance(value, dict), "an object")
FAMILIES = {
    "rate_sum_exponential": (RateSumExponential, _Table(dict, rates=(
        _Kind(_rates, lambda rates: {str(nid): rate for nid, rate in rates}), REQUIRED))),
    "triggered_lognormal": (TriggeredLognormal,
                            _Table(dict, mu=(NUMBER, REQUIRED), sigma=(NUMBER, REQUIRED))),
    "triggered_gamma": (TriggeredGamma,
                        _Table(dict, alpha=(NUMBER, REQUIRED), beta=(NUMBER, REQUIRED))),
}
NODE = _Table(VulnNode, id=(INTEGER, REQUIRED), label=(LABEL, ""), entry_prob=(NUMBER, None))
EDGE = _Table(Edge, src=(INTEGER, REQUIRED), dst=(INTEGER, REQUIRED),
              cond_prob=(NUMBER, REQUIRED))
GRAPH = _Table(AttackGraph, nodes=(NODE.many(attrgetter("id")), REQUIRED),
               edges=(EDGE.many(attrgetter("src", "dst")), REQUIRED))
LINE = _Table(dict, index=(INTEGER, REQUIRED),
              name=(TEXT, lambda line: f"line {line['index']}"),
              trigger_set=(_Kind(_triggers, sorted), REQUIRED),
              model=(_Kind(_model, _write_model), REQUIRED))
# JSON has no infinity, so unlimited cover is a coverage field left out
COVERAGE = _Kind(partial(_number, hint=" (leave the field out for unlimited cover)"),
                 lambda coverage: None if coverage == math.inf else coverage)
POLICY = _Table(Policy, deductible=(NUMBER, REQUIRED), coverage=(COVERAGE, math.inf))
SCENARIO = _Table(
    dict,
    # true and 1.0 compare equal to 1 but are not the integer version
    schema_version=(_checked(lambda value: type(value) is int and value == SCHEMA_VERSION,
                             f"the integer {SCHEMA_VERSION}"), REQUIRED),
    description=(TEXT, ""),
    graph=(GRAPH, REQUIRED),
    lines=(LINE.many(attrgetter("index")), REQUIRED),
    default_policy=(POLICY, None),
)


def canonical_serialization(scenario: Scenario) -> str:
    return json.dumps(canonical_document(scenario), sort_keys=True, separators=(",", ":"))


def scenario_digest(scenario: Scenario) -> str:
    return hashlib.sha256(canonical_serialization(scenario).encode("utf-8")).hexdigest()

"""In-memory span tracer for the benchmark's traced run.

The tracer wraps the public functions of the ``homecyber`` modules from
outside the package: nothing under ``src/`` changes.  Each call records one
span (name, start, end, parent span, thread, work units) in flat arrays, so
a pass of millions of calls stays small.  Self time and per-layer metrics
are derived from the spans after the pass.
"""

import array
import functools
import importlib
import inspect
import threading
import time
from contextlib import contextmanager

import numpy as np

LAYERS = (
    "cli", "scenario", "streams", "graph", "losses",
    "simulate", "pricing", "portfolio", "search", "reports",
)

# Hot helpers that are only called from inside their own module.  Leaving
# them unwrapped keeps their time in the caller's self time, which belongs
# to the same layer, and saves a span per state node or per loss draw.
INLINE = frozenset({
    "graph.conditional_exploit_prob",
    "graph.topological_order",
    "losses.conditional_distribution",
    "losses.rate_sum",
    "losses.conditional_mean",
})


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _file_bytes(path):
    return path.stat().st_size


# Work units recorded per call: rows drawn, home-years simulated, bytes out.
UNITS = {
    "graph.sample_states": lambda a, k, r: _arg(a, k, 1, "count"),
    "losses.sample_loss_matrix": lambda a, k, r: _arg(a, k, 1, "states").shape[0],
    "simulate.run_simulation": lambda a, k, r: _arg(a, k, 2, "runs"),
    "portfolio.simulate_claims": lambda a, k, r: (
        _arg(a, k, 2, "n_homes") * _arg(a, k, 3, "replications")
    ),
    "reports.export_csv": lambda a, k, r: _file_bytes(r),
    "reports.export_csv_blocks": lambda a, k, r: _file_bytes(r),
}


class Tracer:
    """Records spans while ``enabled``; install() patches homecyber in place."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._name = array.array("i")
        self._start = array.array("d")
        self._end = array.array("d")
        self._parent = array.array("q")
        self._thread = array.array("q")
        self._units = array.array("q")
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.enabled = False

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id: int, stack: list[int]) -> int:
        if stack:
            parent = stack[-1]
        else:
            # A pool thread's first span belongs to the span that is open on
            # the dispatching (main) thread, e.g. portfolio.simulate_claims.
            main = self._main_stack
            parent = main[-1] if main else -1
        with self._lock:
            idx = len(self._name)
            self._name.append(name_id)
            self._parent.append(parent)
            self._thread.append(threading.get_ident())
            self._units.append(0)
            self._end.append(0.0)
            self._start.append(time.perf_counter())
        stack.append(idx)
        return idx

    @contextmanager
    def span(self, name: str):
        """A benchmark-side span, e.g. one command of a pass."""
        if not self.enabled:
            yield
            return
        stack = self._stack()
        idx = self._open(self._name_id(name), stack)
        try:
            yield
        finally:
            self._end[idx] = time.perf_counter()
            stack.pop()

    def _wrap(self, qualname: str, fn):
        tracer = self
        name_id = self._name_id(qualname)
        units = UNITS.get(qualname)
        end, clock = self._end, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            idx = tracer._open(name_id, stack)
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if units is not None:
                tracer._units[idx] = int(units(args, kwargs, result))
            return result

        return traced

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of every layer, wherever it is bound."""
        modules = [importlib.import_module(f"homecyber.{layer}") for layer in LAYERS]
        wrappers = {}
        for layer, module in zip(LAYERS, modules):
            for attr, obj in vars(module).items():
                qualname = f"{layer}.{attr}"
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                    and qualname not in INLINE
                ):
                    wrappers[id(obj)] = self._wrap(qualname, obj)
        # ``from .graph import enumerate_joint`` binds the function in the
        # importing module too, so patch every module that holds a reference.
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    self._patched.append((module, attr, obj))
                    setattr(module, attr, wrappers[id(obj)])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- results -------------------------------------------------------------

    def spans(self) -> dict[str, np.ndarray]:
        return {
            "name": np.frombuffer(self._name, dtype=np.int32).copy(),
            "start": np.frombuffer(self._start, dtype=np.float64).copy(),
            "end": np.frombuffer(self._end, dtype=np.float64).copy(),
            "parent": np.frombuffer(self._parent, dtype=np.int64).copy(),
            "thread": np.frombuffer(self._thread, dtype=np.int64).copy(),
            "units": np.frombuffer(self._units, dtype=np.int64).copy(),
        }

    def save(self, path) -> None:
        """Write every span and the name table to one ``.npz`` file."""
        np.savez(path, names=np.array(self.names), **self.spans())


def covered_time(spans: dict[str, np.ndarray]) -> np.ndarray:
    """Per span, the length of the union of its children's intervals.

    Children on one thread never overlap, but pool threads run side by side,
    so intervals are merged rather than summed.
    """
    parent = spans["parent"]
    covered = np.zeros(parent.size)
    has_parent = np.flatnonzero(parent >= 0)
    if has_parent.size == 0:
        return covered
    order = has_parent[np.lexsort((spans["start"][has_parent], parent[has_parent]))]
    groups = np.flatnonzero(np.diff(parent[order])) + 1
    for chunk in np.split(order, groups):
        starts = spans["start"][chunk]
        ends = spans["end"][chunk]
        reach = np.maximum.accumulate(ends)
        before = np.concatenate(([starts[0]], reach[:-1]))
        covered[parent[chunk[0]]] = np.maximum(ends - np.maximum(starts, before), 0.0).sum()
    return covered


def root_of(parent: np.ndarray) -> np.ndarray:
    """Index of each span's outermost ancestor (pointer jumping)."""
    root = np.where(parent >= 0, parent, np.arange(parent.size))
    while True:
        nxt = root[root]
        if np.array_equal(nxt, root):
            return root
        root = nxt


def summarize_spans(names: list[str], spans: dict[str, np.ndarray]) -> dict:
    """Per-name calls, inclusive seconds, self seconds and work units."""
    duration = spans["end"] - spans["start"]
    self_time = duration - covered_time(spans)
    ids = spans["name"]
    k = len(names)
    calls = np.bincount(ids, minlength=k)
    incl = np.bincount(ids, weights=duration, minlength=k)
    selfs = np.bincount(ids, weights=self_time, minlength=k)
    units = np.bincount(ids, weights=spans["units"], minlength=k)
    return {
        name: {
            "calls": int(calls[i]),
            "s": float(incl[i]),
            "self_s": float(selfs[i]),
            "units": int(units[i]),
        }
        for i, name in enumerate(names)
    }


TABLE_BUILDERS = ("summary_table", "premium_table", "portfolio_tables",
                  "proposal_table", "joint_table", "marginals_table")


def per_layer(names: list[str], spans: dict[str, np.ndarray]) -> dict[str, tuple]:
    """Per-layer metrics of one traced pass as ``name -> (value, unit)``.

    ``<fn>_s`` is the inclusive time summed over calls, ``<fn>_self_s`` the
    time not covered by child spans, ``<layer>.self_s`` the summed self time
    of the layer's functions.
    """
    agg = summarize_spans(names, spans)
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "units": 0}

    def get(name, field):
        return agg.get(name, empty)[field]

    def per_unit_us(name):
        units = get(name, "units")
        return get(name, "s") / units * 1e6 if units else 0.0

    out: dict[str, tuple] = {
        "scenario.load_s": (get("scenario.load_scenario", "self_s")
                            + get("scenario.parse_scenario", "self_s"), "s"),
        "scenario.validate_s": (get("graph.validate_graph", "s"), "s"),
        "scenario.digest_s": (get("scenario.scenario_digest", "s"), "s"),
    }
    for name, unit in (
        ("streams.substream", None), ("graph.sample_state", None),
        ("graph.sample_states", "rows"), ("graph.enumerate_joint", None),
        ("losses.sample_loss", None), ("losses.sample_loss_matrix", "rows"),
        ("simulate.summarize", None), ("pricing.premium", None),
        ("portfolio.simulate_claims", None), ("search.lr_statistic", None),
    ):
        out[f"{name}_calls"] = (get(name, "calls"), "count")
        out[f"{name}_s"] = (get(name, "s"), "s")
        if unit:
            out[f"{name}_{unit}"] = (get(name, "units"), "count")
    for name in ("graph.marginal_exploit_probs", "losses.exact_line_mean",
                 "portfolio.simulate_claims"):
        out[f"{name}_self_s"] = (get(name, "self_s"), "s")
    for name in ("simulate.run_simulation", "pricing.apply_retention", "pricing.gmd",
                 "pricing.cte", "pricing.calibrate", "search.premium_for_claims"):
        out[f"{name}_s"] = (get(name, "s"), "s")
    out["simulate.us_per_run"] = (per_unit_us("simulate.run_simulation"), "us")
    out["portfolio.us_per_home_year"] = (per_unit_us("portfolio.simulate_claims"), "us")
    out["portfolio.worker_busy_share"] = (worker_busy_share(names, spans), "share")
    out["reports.table_build_s"] = (
        sum(get(f"reports.{fn}", "self_s") for fn in TABLE_BUILDERS), "s")
    out["reports.render_s"] = (get("reports.render_csv", "s"), "s")
    out["reports.bytes_out"] = (
        get("reports.export_csv", "units") + get("reports.export_csv_blocks", "units"), "bytes")

    # enumerate_joint calls per enumerate command and per exact-means step
    root = root_of(spans["parent"])
    ids = {name: i for i, name in enumerate(names)}
    joint_roots = root[spans["name"] == ids.get("graph.enumerate_joint", -1)]
    for step, metric in (("bench.enumerate_s", "graph.enumerate_joint_per_enumerate"),
                         ("bench.exact_means_s", "graph.enumerate_joint_per_exact_means")):
        step_spans = np.flatnonzero(spans["name"] == ids.get(step, -1))
        count = np.isin(joint_roots, step_spans).sum()
        out[metric] = (float(count / step_spans.size) if step_spans.size else 0.0, "count")

    for layer in LAYERS:
        members = [n for n in agg if n.startswith(layer + ".")]
        out[f"{layer}.self_s"] = (sum(agg[n]["self_s"] for n in members), "s")
        out[f"{layer}.calls"] = (sum(agg[n]["calls"] for n in members), "count")
    return out


def worker_busy_share(names: list[str], spans: dict[str, np.ndarray]) -> float:
    """Busy time of simulate_claims' child spans over workers x its wall time.

    Workers are the distinct threads its children ran on.
    """
    if "portfolio.simulate_claims" not in names:
        return 0.0
    target = names.index("portfolio.simulate_claims")
    duration = spans["end"] - spans["start"]
    busy = capacity = 0.0
    for idx in np.flatnonzero(spans["name"] == target):
        children = spans["parent"] == idx
        workers = max(np.unique(spans["thread"][children]).size, 1)
        busy += duration[children].sum()
        capacity += workers * duration[idx]
    return float(busy / capacity) if capacity else 0.0

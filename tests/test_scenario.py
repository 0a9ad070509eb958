import io
import json
import math
import platform
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    build_case_graph,
    generated_scenario,
    graphs_with_lines,
    joint_csv_reference,
    seventeen_node_graph,
)
import homecyber
from homecyber.cli import cli_dispatch
from homecyber.graph import AttackGraph, Edge, JointDistribution, VulnNode, enumerate_joint
from homecyber.losses import RateSumExponential
from homecyber.pricing import Policy
from homecyber.reports import (
    SUMMARY_HEADER,
    Table,
    render_csv,
    summary_table,
    write_joint_csv,
)
from homecyber.scenario import (
    SCHEMA_VERSION,
    Scenario,
    ScenarioError,
    bundled_case_study_path,
    canonical_document,
    canonical_serialization,
    load_scenario,
    parse_scenario,
    scenario_digest,
)
from homecyber.simulate import run_simulation
from homecyber.streams import STREAM_LAYOUT


def case_document() -> dict:
    return json.loads(bundled_case_study_path().read_text())


class TestLoadScenario:
    def test_bundled_case_study(self, case_scenario):
        assert case_scenario.graph.n == 7
        assert len(case_scenario.lines) == 6
        entries = {
            node.id: node.entry_prob
            for node in case_scenario.graph.nodes
            if node.entry_prob is not None
        }
        assert entries == {1: 0.01, 2: 0.02, 7: 0.9}
        assert case_scenario.default_policy.deductible == 1000.0
        assert case_scenario.default_policy.coverage == 50_000.0
        exp = case_scenario.lines[0].model
        assert isinstance(exp, RateSumExponential)
        assert dict(exp.rates)[2] == 1 / 32

    def test_matches_programmatic_build(self, case_scenario, case_graph, case_lines):
        joint_file = enumerate_joint(case_scenario.graph)
        joint_code = enumerate_joint(case_graph)
        assert joint_file.probs.tolist() == joint_code.probs.tolist()
        assert tuple(case_scenario.lines) == tuple(case_lines)

    def test_unknown_trigger_node(self, tmp_path):
        doc = case_document()
        doc["lines"][0]["trigger_set"].append(9)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ScenarioError, match=r"lines\[0\].*trigger node 9"):
            load_scenario(path)

    def test_edge_to_unknown_node(self, tmp_path):
        doc = case_document()
        doc["graph"]["edges"].append({"src": 5, "dst": 9, "cond_prob": 0.5})
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ScenarioError, match="unknown node 9"):
            load_scenario(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("")
        with pytest.raises(ScenarioError, match="not valid JSON"):
            load_scenario(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError, match="cannot read"):
            load_scenario(tmp_path / "nope.json")

    def test_schema_version_mismatch(self):
        doc = case_document()
        doc["schema_version"] = 99
        with pytest.raises(ScenarioError, match="schema_version"):
            parse_scenario(doc)

    @pytest.mark.parametrize("version", [True, 1.0])
    def test_schema_version_not_an_integer(self, version):
        doc = case_document()
        doc["schema_version"] = version
        with pytest.raises(ScenarioError, match="schema_version"):
            parse_scenario(doc)

    def test_duplicate_line_index(self):
        doc = case_document()
        doc["lines"][1]["index"] = 1
        with pytest.raises(ScenarioError, match="duplicate line index"):
            parse_scenario(doc)

    def test_negative_rate_named_with_line(self):
        doc = case_document()
        doc["lines"][0]["model"]["rates"]["1"] = -0.5
        with pytest.raises(ScenarioError, match=r"data breach.*positive"):
            parse_scenario(doc)

    @pytest.mark.parametrize("path, value, named", [
        (("lines", 0, "model", "rates", "1"), 5e-324, "1/rate of field 'rates[1]'"),
        (("lines", 0, "model", "rates", "7"), 1e-310, "1/rate of field 'rates[7]'"),
        (("lines", 2, "model", "mu"), 800.0, "exp(mu + sigma^2/2) of fields 'mu' and 'sigma'"),
        # sigma**2 itself overflows
        (("lines", 3, "model", "sigma"), 1e200, "exp(mu + sigma^2/2) of fields 'mu' and 'sigma'"),
        (("lines", 4, "model", "beta"), 1e-320, "alpha/beta of fields 'alpha' and 'beta'"),
        (("lines", 5, "model", "beta"), 1e-306, "alpha/beta of fields 'alpha' and 'beta'"),
    ], ids=["rate-1", "rate-7", "mu", "sigma", "beta-subnormal", "beta-normal"])
    def test_conditional_mean_beyond_float64_rejected(self, path, value, named):
        doc = case_document()
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
        with pytest.raises(ScenarioError, match=re.escape(f"{named} is not a finite float64")):
            parse_scenario(doc)

    def test_largest_finite_conditional_means_load(self):
        # a finite mean loads, even where the draws' sums overflow float64
        doc = case_document()
        doc["lines"][0]["model"]["rates"]["1"] = 1e-300
        doc["lines"][2]["model"]["mu"] = 700.0
        doc["lines"][4]["model"]["alpha"] = 1e308
        parse_scenario(doc)

    @pytest.mark.parametrize(
        "path, value, field",
        [
            (("graph", "edges", 0, "cond_prob"), True, "cond_prob"),
            (("lines", 2, "model", "mu"), True, "mu"),
            (("lines", 0, "model", "rates", "1"), math.nan, "rates[1]"),
            (("lines", 1, "model", "rates", "5"), math.inf, "rates[5]"),
            (("lines", 2, "model", "sigma"), math.nan, "sigma"),
            (("lines", 3, "model", "mu"), math.inf, "mu"),
            (("lines", 4, "model", "alpha"), math.inf, "alpha"),
            (("lines", 5, "model", "beta"), 10**400, "beta"),
            (("default_policy", "deductible"), math.nan, "deductible"),
            (("default_policy", "coverage"), math.nan, "coverage"),
            (("graph", "nodes", 0, "entry_prob"), "x", "entry_prob"),
        ],
    )
    def test_numeric_field_rejected(self, tmp_path, path, value, field):
        doc = case_document()
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        # json writes NaN and Infinity, and reads them back, as bare words
        scenario_file = tmp_path / "bad.json"
        scenario_file.write_text(json.dumps(doc))
        with pytest.raises(ScenarioError, match=rf"field '{re.escape(field)}' must be a finite"):
            load_scenario(scenario_file)

    # each replacement repeats a key in the bundled file's text
    @pytest.mark.parametrize(
        "old, new, where, key",
        [
            ('"schema_version": 1,', '"schema_version": 1, "schema_version": 1,',
             "top level", "schema_version"),
            ('"entry_prob": 0.9}', '"entry_prob": 0.9, "entry_prob": 0.1}',
             r"graph\.nodes\[6\]", "entry_prob"),
            ('{"3": 0.0015625,', '{"3": 0.0015625, "3": 0.5,',
             r"lines\[1\]\.model\.rates", "3"),
        ],
        ids=["top-level", "node-field", "rates-key"],
    )
    def test_repeated_key_rejected(self, tmp_path, old, new, where, key):
        text = bundled_case_study_path().read_text()
        assert text.count(old) == 1
        scenario_file = tmp_path / "repeat.json"
        scenario_file.write_text(text.replace(old, new))
        with pytest.raises(ScenarioError, match=rf"{where}: key '{key}' appears twice"):
            load_scenario(scenario_file)

    # lines[5] is line index 6, "property theft"
    @pytest.mark.parametrize(
        "triggers",
        [[True], [7.0], [1, 1.0], ["1"], [1, 1]],
        ids=["bool", "float", "int-and-float", "string", "repeat"],
    )
    def test_trigger_set_rejected(self, triggers):
        doc = case_document()
        doc["lines"][5]["trigger_set"] = triggers
        with pytest.raises(ScenarioError, match=r"lines\[5\].*'trigger_set'"):
            parse_scenario(doc)

    # lines[1] is line index 2, "loss of use", rates on nodes 3 and 5
    @pytest.mark.parametrize(
        "rates",
        [
            {"3": 0.001, "03": 0.002, "5": 0.001},
            {"3": 0.001, "+5": 0.001},
            {"3": 0.001, " 5": 0.001},
        ],
        ids=["leading-zero-alias", "plus-sign", "space"],
    )
    def test_rate_keys_rejected(self, rates):
        doc = case_document()
        doc["lines"][1]["model"]["rates"] = rates
        with pytest.raises(ScenarioError, match=r"lines\[1\].*'rates' keys"):
            parse_scenario(doc)

    # graph.nodes[3] is node 4, the smart sensor
    @pytest.mark.parametrize(
        "label",
        ["CVE-2021-29438, smart sensor", "CVE-2021-29438\nsmart sensor",
         "CVE-2021-29438\rsmart sensor", "sensor,", '"CVE"', 12.5, 4, None, True, ["sensor"]],
        ids=["comma", "newline", "carriage-return", "trailing-comma", "quote", "float", "int",
             "null", "bool", "list"],
    )
    def test_label_rejected(self, label):
        doc = case_document()
        doc["graph"]["nodes"][3]["label"] = label
        with pytest.raises(ScenarioError, match=r"graph\.nodes\[3\]: field 'label'"):
            parse_scenario(doc)

    # str() of these would load as text: null as "None", 7 as "7", so two files
    # would share a digest
    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("description",), None, "field 'description' must be a string, got None"),
            (("description",), 7, "field 'description' must be a string, got 7"),
            (("lines", 2, "name"), None, r"lines\[2\]: field 'name' must be a string, got None"),
            (("lines", 2, "name"), ["x"], r"lines\[2\]: field 'name' must be a string"),
            (("default_policy",), 5, "field 'default_policy' must be an object, got 5"),
            (("default_policy",), [], "field 'default_policy' must be an object, got \\[\\]"),
            (("graph", "nodes", 0), 5, r"graph\.nodes\[0\] must be an object, got 5"),
            (("graph", "edges", 3), [1, 2], r"graph\.edges\[3\] must be an object, got \[1, 2\]"),
            (("lines", 2), "x", r"lines\[2\] must be an object, got 'x'"),
            # a key outside an object's table: a misspelt optional field would
            # otherwise load as its default
            (("default_polcy",), {"deductible": 1.0}, "top level: unknown field 'default_polcy'"),
            (("graph", "directed"), True, "graph: unknown field 'directed'"),
            (("graph", "nodes", 0, "entry_prb"), 0.5,
             r"graph\.nodes\[0\]: unknown field 'entry_prb'"),
            (("graph", "edges", 2, "cond_prb"), 0.5,
             r"graph\.edges\[2\]: unknown field 'cond_prb'"),
            (("lines", 1, "weight"), 2, r"lines\[1\]: unknown field 'weight'"),
            (("lines", 0, "model", "rate"), 0.1, r"lines\[0\]\.model: unknown field 'rate'"),
            (("lines", 2, "model", "muu"), 3, r"lines\[2\]\.model: unknown field 'muu'"),
            (("lines", 4, "model", "alpah"), 3, r"lines\[4\]\.model: unknown field 'alpah'"),
            (("default_policy", "limit"), 1.0, "default_policy: unknown field 'limit'"),
            # a value that Policy or the scenario itself rejects, named with its place
            (("default_policy", "deductible"), -1,
             re.escape("default_policy: deductible must be finite and >= 0, got -1.0")),
            (("default_policy", "coverage"), 0,
             re.escape("default_policy: coverage must be > 0, got 0.0")),
            (("lines",), [], "at least one business line is required"),
        ],
        ids=["description-null", "description-int", "name-null", "name-list",
             "policy-int", "policy-list", "node-entry", "edge-entry", "line-entry",
             "unknown-top-level", "unknown-graph", "unknown-node", "unknown-edge",
             "unknown-line", "unknown-rate-sum-model", "unknown-lognormal-model",
             "unknown-gamma-model", "unknown-policy", "policy-deductible", "policy-coverage",
             "no-lines"],
    )
    def test_text_and_object_fields_rejected(self, path, value, message):
        doc = case_document()
        target = doc
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        with pytest.raises(ScenarioError, match=message):
            parse_scenario(doc)

    def test_coverage_left_out_is_unlimited(self):
        doc = case_document()
        del doc["default_policy"]["coverage"]
        scenario = parse_scenario(doc)
        assert scenario.default_policy == Policy(1000.0, math.inf)
        # the canonical text leaves it out too, so it stays JSON and loads back
        text = canonical_serialization(scenario)
        assert '"default_policy":{"deductible":1000.0}' in text
        assert parse_scenario(json.loads(text)).default_policy == Policy(1000.0, math.inf)

    def test_infinite_coverage_says_how_to_state_unlimited_cover(self, tmp_path):
        text = bundled_case_study_path().read_text()
        old = '"coverage": 50000.0'
        assert text.count(old) == 1
        scenario_file = tmp_path / "unlimited.json"
        scenario_file.write_text(text.replace(old, '"coverage": Infinity'))
        with pytest.raises(ScenarioError, match=re.escape(
                "field 'coverage' must be a finite number, got inf "
                "(leave the field out for unlimited cover)")):
            load_scenario(scenario_file)

    def test_generated_scenarios_load(self):
        # the large-graph workload's scenarios use only the format's keys
        for seed in range(1, 51):
            assert generated_scenario(seed).graph.n == 20

    def test_cycle_reported(self):
        doc = case_document()
        doc["graph"]["edges"].append({"src": 5, "dst": 3, "cond_prob": 0.5})
        with pytest.raises(ScenarioError, match="cycle"):
            parse_scenario(doc)


def document_paths(value, path=()):
    """Key and index paths of every field and list entry under ``value``."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, item in items:
        yield path + (key,)
        yield from document_paths(item, path + (key,))


def document_at(doc, path):
    """The field or list entry of ``doc`` at ``path``."""
    for key in path:
        doc = doc[key]
    return doc


DELETE = object()
FUZZ_SCALARS = (None, True, False, "", "x", "1", 0, 1, -1, 0.5, 2**70, 1e308, -1e308)
fuzz_values = st.recursive(
    st.sampled_from(FUZZ_SCALARS),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["1", "id", "rates", "x"]), inner, max_size=3),
    max_leaves=4,
)


INSERTED = "unlisted"  # a key that no object's table holds
CASE_PATHS = list(document_paths(case_document()))
OBJECT_PATHS = [()] + [path for path in CASE_PATHS
                       if isinstance(document_at(case_document(), path), dict)]


@given(
    st.tuples(st.sampled_from(CASE_PATHS), st.just(DELETE) | fuzz_values)
    | st.tuples(st.sampled_from([path + (INSERTED,) for path in OBJECT_PATHS]), fuzz_values)
)
@settings(max_examples=600, deadline=None, derandomize=True)
def test_one_field_mutation_loads_or_raises(mutation):
    # replace or delete one field or list entry anywhere in the bundled
    # document, or add a field to any of its objects
    path, value = mutation
    doc = case_document()
    parent = document_at(doc, path[:-1])
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    if path[-1] == INSERTED:
        with pytest.raises(ScenarioError, match=f"'{INSERTED}'"):
            parse_scenario(doc)
        return
    try:
        scenario = parse_scenario(doc)
    except ScenarioError:
        return
    # what loads serializes canonically, and that text loads to the same digest
    reloaded = parse_scenario(json.loads(canonical_serialization(scenario)))
    assert scenario_digest(reloaded) == scenario_digest(scenario)


class TestCanonicalForm:
    def test_round_trip_idempotent(self, case_scenario):
        first = canonical_serialization(case_scenario)
        reparsed = parse_scenario(json.loads(first))
        assert canonical_serialization(reparsed) == first

    def test_digest_ignores_formatting(self, tmp_path, case_scenario):
        doc = canonical_document(case_scenario)
        pretty = tmp_path / "pretty.json"
        pretty.write_text(json.dumps(doc, indent=4, sort_keys=False))
        assert scenario_digest(load_scenario(pretty)) == scenario_digest(case_scenario)

    @given(
        graphs_with_lines(),
        st.none() | st.builds(Policy, st.floats(0.0, 1e6),
                              st.floats(1.0, 1e6) | st.just(math.inf)),
    )
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_round_trip_keeps_every_field(self, graph_and_lines, policy):
        graph, lines = graph_and_lines
        scenario = Scenario(graph, tuple(lines), policy, "generated", SCHEMA_VERSION)
        reloaded = parse_scenario(json.loads(canonical_serialization(scenario)))
        assert scenario_digest(reloaded) == scenario_digest(scenario)
        assert sorted(reloaded.graph.nodes, key=lambda node: node.id) == sorted(
            graph.nodes, key=lambda node: node.id)
        assert sorted(reloaded.graph.edges, key=lambda e: (e.src, e.dst)) == sorted(
            graph.edges, key=lambda e: (e.src, e.dst))
        assert reloaded.lines == tuple(lines)
        assert reloaded.default_policy == policy

    def test_digest_tracks_content(self, case_scenario):
        doc = canonical_document(case_scenario)
        doc["graph"]["nodes"][0]["entry_prob"] = 0.5
        changed = parse_scenario(doc)
        assert scenario_digest(changed) != scenario_digest(case_scenario)


class TestManifest:
    def test_write_and_reread(self, tmp_path, case_scenario):
        # the CLI's seeded --out commands are the one writer of manifest.json
        argv = ["simulate", "--scenario", str(bundled_case_study_path()), "--runs", "1000",
                "--seed", "42", "--out", str(tmp_path)]
        assert cli_dispatch(argv) == 0
        text = (tmp_path / "manifest.json").read_text()
        data = json.loads(text)
        assert text == json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"
        assert sorted(data) == ["homes", "master_seed", "numpy_version", "python_version",
                                "replications", "runs", "scenario_digest", "stream_layout",
                                "tool_version"]
        assert data["master_seed"] == 42
        assert data["runs"] == 1000
        assert data["homes"] is None
        assert data["replications"] is None
        assert data["scenario_digest"] == scenario_digest(case_scenario)
        assert data["tool_version"] == homecyber.__version__
        assert data["stream_layout"] == STREAM_LAYOUT == 7
        assert data["numpy_version"] == np.__version__
        assert data["python_version"] == platform.python_version()


class TestCsvExport:
    def test_summary_header_layout(self, case_scenario):
        result = run_simulation(case_scenario.graph, case_scenario.lines, 200, 1)
        table = summary_table(result)
        text = render_csv(table)
        assert text.splitlines()[0] == "Min,Q25,Median,Q75,Q90,Q95,Q99,Q99.5,Q99.9,Max,Mean,SD"
        assert len(text.splitlines()) == 1 + 6 + 1  # header, six lines, total row
        assert table.header == SUMMARY_HEADER

    def test_empty_table_is_header_only(self):
        assert render_csv(Table(header=("A", "B"), rows=())) == "A,B\n"

    def test_byte_identical_exports(self, case_scenario):
        result = run_simulation(case_scenario.graph, case_scenario.lines, 500, 7)
        table = summary_table(result)
        a, b = render_csv(table), render_csv(summary_table(result))
        assert a == b
        assert a.endswith("\n")

    def test_numeric_cells_round_trip(self, case_scenario):
        result = run_simulation(case_scenario.graph, case_scenario.lines, 500, 7)
        table = summary_table(result)
        lines = render_csv(table).splitlines()[1:]
        for row, parsed_line in zip(table.rows, lines):
            for cell, text in zip(row, parsed_line.split(",")):
                assert float(text) == cell

    def test_non_finite_and_weird_cells(self):
        text = render_csv(Table(header=("x",), rows=((math.inf,), (1e-300,))))
        values = text.splitlines()[1:]
        assert float(values[0]) == math.inf
        assert float(values[1]) == 1e-300

    def test_numpy_float_cells_print_as_python_floats(self):
        # numpy 2's repr of np.float64(1.5) is "np.float64(1.5)", not a number
        cells = (np.float64(1.5), np.float64(0.1), np.float32(0.1), np.float64(-math.inf))
        text = render_csv(Table(header=("a", "b", "c", "d"), rows=(cells,)))
        assert text.splitlines()[1] == ",".join(repr(float(cell)) for cell in cells)

    def test_boolean_cell_rejected(self):
        with pytest.raises(TypeError, match="boolean cells"):
            render_csv(Table(header=("x",), rows=((True,),)))

    def test_comma_in_label_rejected(self):
        # a comma or a line break would split the row, and csv.reader reads '"a"' as a
        for cell in ("a,b", "a\nb", "a\rb", '"a"'):
            with pytest.raises(ValueError, match="CSV layout"):
                render_csv(Table(header=("x",), rows=((cell,),)))


SMALL_GRAPHS = {
    "n1": AttackGraph([VulnNode(1, entry_prob=0.3)], []),
    "n2": AttackGraph([VulnNode(1, entry_prob=0.3), VulnNode(2)], [Edge(1, 2, 0.4)]),
    "n5": AttackGraph(
        [VulnNode(1, entry_prob=0.3), VulnNode(2), VulnNode(3),
         VulnNode(4, entry_prob=0.7), VulnNode(5)],
        [Edge(1, 2, 0.4), Edge(2, 3, 0.5), Edge(4, 3, 0.2), Edge(3, 5, 0.6)],
    ),
    "case": build_case_graph(),
}


class TestJointCsv:
    # n // 2 low bits and the rest high: n = 1 has no low bits, n = 5 splits 2/3
    @pytest.mark.parametrize("name", SMALL_GRAPHS)
    def test_matches_rendered_table(self, name):
        joint = enumerate_joint(SMALL_GRAPHS[name])
        out = io.StringIO()
        write_joint_csv(joint, out)
        assert out.getvalue() == joint_csv_reference(joint)

    def test_values_that_must_still_run_repr(self):
        # n = 11: 64 chunks of 32 rows.  Chunk 0 and most others are all zero;
        # chunk 1's only nonzero row is its first, chunk 2's its last and the
        # file's last row ends chunk 63.  -0.0 == 0, and so is a subnormal
        # under flush-to-zero, but neither has +0.0's bits: both keep repr's text
        probs = np.zeros(1 << 11)
        probs[32] = 1.0
        probs[3 * 32 - 1] = 5e-324
        probs[3 * 32 + 7] = -0.0
        probs[4 * 32:5 * 32] = np.random.default_rng(11).random(32)
        probs[5 * 32 + 3] = 0.1 + 0.2
        probs[-1] = np.nextafter(0.1, 1.0)
        joint = JointDistribution(tuple(range(1, 12)), probs)
        out = io.StringIO()
        write_joint_csv(joint, out)
        text = out.getvalue()
        assert text == joint_csv_reference(joint)
        for cell in (",1.0\n", ",5e-324\n", ",-0.0\n", ",0.30000000000000004\n",
                     ",0.10000000000000002\n"):
            assert cell in text
        assert text.count(",0.0\n") == 2048 - 32 - 5

    def test_seventeen_node_complete_dag(self):
        # n > 16 splits 8 low bits and 9 high; half the rows of the complete
        # DAG's joint are nonzero, spread over every chunk
        joint = enumerate_joint(seventeen_node_graph(complete=True))
        out = io.StringIO()
        write_joint_csv(joint, out)
        assert out.getvalue() == joint_csv_reference(joint)

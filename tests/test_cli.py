import argparse
import contextlib
import csv
import hashlib
import importlib.util
import io
import json
import os
import platform
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings

import homecyber
from conftest import graphs_with_lines, joint_csv_reference
from homecyber import pricing
from homecyber.cli import COMMANDS, _build_parser, cli_dispatch
from homecyber.graph import enumerate_joint
from homecyber.portfolio import replication_group
from homecyber.reports import marginals_table, render_csv
from homecyber.scenario import Scenario, bundled_case_study_path, canonical_document, load_scenario
from homecyber.simulate import RUN_BLOCK, run_simulation
from homecyber.streams import STREAM_LAYOUT

CASE = str(bundled_case_study_path())


def run(*argv) -> int:
    return cli_dispatch(list(argv))


def write_chain(path: Path, n: int, entry_prob: float, cond_prob: float) -> str:
    """The bundled scenario with its graph replaced by the chain 1 -> 2 -> ... -> n."""
    doc = json.loads(bundled_case_study_path().read_text())
    doc["graph"]["nodes"] = [{"id": 1, "entry_prob": entry_prob}] + [
        {"id": i} for i in range(2, n + 1)
    ]
    doc["graph"]["edges"] = [
        {"src": i, "dst": i + 1, "cond_prob": cond_prob} for i in range(1, n)
    ]
    path.write_text(json.dumps(doc))
    return str(path)


class TestDispatch:
    def test_unknown_command(self, capsys):
        assert run("frobnicate") == 2

    def test_unknown_flag(self):
        assert run("validate", "--scenario", CASE, "--bogus") == 2

    def test_missing_seed(self):
        assert run("simulate", "--scenario", CASE, "--runs", "10") == 2

    def test_help_exits_zero(self):
        assert run("--help") == 0

    def test_missing_scenario_file(self, tmp_path):
        assert run("validate", "--scenario", str(tmp_path / "nope.json")) == 1


# Every subcommand's options in usage order: (flag, required, type name,
# default, choices, help).  Usage lines, argparse error messages and --help
# all follow these, so the parser built from the command table must keep them.
SCENARIO_OPT = ("--scenario", True, None, None, None, "scenario JSON file")
SEED_OPTS = (
    ("--seed", True, "_seed", None, None, None),
    ("--workers", False, "_workers", 1, None,
     "threads that draw blocks (>= 1); outputs do not depend on it"),
)
RUNS_OPTS = (("--runs", True, "int", None, None, None), *SEED_OPTS)
PORTFOLIO_OPTS = (("--homes", True, "int", None, None, None),
                  ("--replications", True, "int", None, None, None), *SEED_OPTS)
STRATEGY_OPTS = (
    ("--strategy", True, None, None, ("mean", "quantile"), None),
    ("--lr-target", True, "float", None, None, None),
    ("--quantile-level", False, "float", 0.995, None, None),
)


def out_opt(*files):
    return ("--out", False, None, None, None, f"directory for {' and '.join(files)}")


PARSER_SURFACE = {
    "validate": ("check a scenario file against all invariants", [SCENARIO_OPT]),
    "enumerate": ("exact joint state distribution and marginals", [
        SCENARIO_OPT, out_opt("joint.csv", "marginals.csv"),
    ]),
    "simulate": ("Monte Carlo line losses and summary table", [
        SCENARIO_OPT, *RUNS_OPTS, out_opt("summary.csv", "manifest.json"),
    ]),
    "price": ("per-line premium table under the four principles", [
        SCENARIO_OPT, *RUNS_OPTS,
        ("--theta-expectation", True, "float", None, None, None),
        ("--theta-stddev", True, "float", None, None, None),
        ("--theta-gmd", True, "float", None, None, None),
        ("--beta-cte", True, "float", None, None, None),
        ("--deductible", False, "float", None, None, "price retained losses (with --coverage)"),
        ("--coverage", False, "float", None, None, None),
        out_opt("premiums.csv", "manifest.json"),
    ]),
    "calibrate": ("solve principle parameters for a baseline premium", [
        SCENARIO_OPT, *RUNS_OPTS,
        ("--line", True, "int", None, None, "business line index"),
        ("--target", True, "float", None, None, "baseline premium"),
        ("--deductible", False, "float", None, None, "calibrate on retained losses"),
        ("--coverage", False, "float", None, None, None),
        out_opt("calibration.csv", "manifest.json"),
    ]),
    "portfolio": ("portfolio Profit and LR report", [
        SCENARIO_OPT,
        ("--premium", True, "float", None, None, "total premium per home"),
        ("--deductible", True, "float", None, None, None),
        ("--coverage", True, "float", None, None, None),
        *PORTFOLIO_OPTS, out_opt("portfolio.csv", "manifest.json"),
    ]),
    "search-deductible": ("smallest feasible deductible on a grid", [
        SCENARIO_OPT,
        ("--premium", True, "float", None, None, "total premium per home"),
        ("--coverage", True, "float", None, None, None),
        ("--grid", True, None, None, None, "ascending deductibles, e.g. 100,150,200"),
        *STRATEGY_OPTS, *PORTFOLIO_OPTS, out_opt("search.csv", "manifest.json"),
    ]),
    "solve-premium": ("premium that meets an LR target", [
        SCENARIO_OPT,
        ("--deductible", True, "float", None, None, None),
        ("--coverage", True, "float", None, None, None),
        *STRATEGY_OPTS, *PORTFOLIO_OPTS, out_opt("premium.csv", "manifest.json"),
    ]),
    "propose": ("proposed deductibles per principle (both strategies)", [
        SCENARIO_OPT,
        ("--premiums", True, None, None, None, "per-principle totals, e.g. 418,307,368,408"),
        ("--labels", False, None, None, None, "principle labels matching --premiums"),
        ("--coverage", True, "float", None, None, None),
        ("--grid", True, None, None, None, None),
        ("--mean-target", False, "float", 0.4, None, None),
        ("--quantile-level", False, "float", 0.995, None, None),
        ("--quantile-target", False, "float", 0.4, None, None),
        *PORTFOLIO_OPTS, out_opt("proposals.csv", "manifest.json"),
    ]),
}


class TestParserSurface:
    @staticmethod
    def subcommands():
        parser = _build_parser()
        return next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))

    def test_commands_in_order_with_help(self):
        sub = self.subcommands()
        listed = [(action.dest, action.help) for action in sub._choices_actions]
        assert listed == [(name, summary) for name, (summary, _) in PARSER_SURFACE.items()]

    @pytest.mark.parametrize("command", list(PARSER_SURFACE))
    def test_options(self, command):
        parser = self.subcommands().choices[command]
        options = [
            (a.option_strings[0], a.required, getattr(a.type, "__name__", None),
             a.default, a.choices, a.help)
            for a in parser._actions if not isinstance(a, argparse._HelpAction)
        ]
        assert options == PARSER_SURFACE[command][1]
        assert all(len(a.option_strings) == 1 for a in parser._actions[1:])

    def test_version(self, capsys):
        assert run("--version") == 0
        assert capsys.readouterr().out == f"homecyber {homecyber.__version__}\n"

    def test_output_digest_runs_parse(self):
        # a renamed command or flag fails here, not in tools/output_digests.py
        path = Path(__file__).resolve().parents[1] / "tools" / "output_digests.py"
        spec = importlib.util.spec_from_file_location("output_digests", path)
        digests = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(digests)
        parsed = [_build_parser().parse_args(argv)
                  for _, argv in digests.invocations("bundled.json", 1)]
        assert {args.command for args in parsed} == set(COMMANDS)


class TestParserCache:
    # the parser is built once per process and reused by every cli_dispatch
    PRICE = ["price", "--scenario", CASE, "--runs", "300", "--seed", "4",
             "--theta-expectation", "0.5", "--theta-stddev", "0.03", "--theta-gmd", "0.25",
             "--beta-cte", "0.34"]

    def test_one_parser_per_process(self):
        assert _build_parser() is _build_parser()

    def test_flags_of_one_call_do_not_reach_the_next(self, capsys):
        assert run(*self.PRICE) == 0
        gross = capsys.readouterr().out
        assert run(*self.PRICE, "--deductible", "1000", "--coverage", "50000") == 0
        retained = capsys.readouterr().out
        assert run(*self.PRICE) == 0
        assert capsys.readouterr().out == gross != retained
        args = _build_parser().parse_args(self.PRICE)
        assert args.deductible is None and args.coverage is None

    @pytest.mark.parametrize("bad", [
        ["price", "--scenario", CASE, "--runs", "x"],  # argparse's usage error
        ["calibrate", "--scenario", CASE, "--runs", "300", "--seed", "4", "--line", "99",
         "--target", "28"],  # the handler's usage error
    ], ids=["parser", "handler"])
    def test_usage_error_leaves_the_next_call_unaffected(self, bad, capsys):
        assert run(*self.PRICE) == 0
        expected = capsys.readouterr()
        assert run(*bad) == 2
        assert "error:" in capsys.readouterr().err
        assert run(*self.PRICE) == 0
        assert capsys.readouterr() == expected


class TestValidate:
    def test_ok(self, capsys):
        assert run("validate", "--scenario", CASE) == 0
        out = capsys.readouterr().out
        assert "scenario OK" in out
        assert "digest" in out

    def test_invalid_scenario(self, tmp_path, capsys):
        doc = json.loads(bundled_case_study_path().read_text())
        doc["graph"]["edges"].append({"src": 5, "dst": 3, "cond_prob": 0.5})
        path = tmp_path / "cyclic.json"
        path.write_text(json.dumps(doc))
        assert run("validate", "--scenario", str(path)) == 1
        assert "cycle" in capsys.readouterr().err


def enumerate_reference() -> tuple[str, str]:
    """joint.csv and marginals.csv of the bundled scenario, built independently."""
    graph = load_scenario(CASE).graph
    joint = enumerate_joint(graph)
    return joint_csv_reference(joint), render_csv(marginals_table(graph, joint.marginals()))


class TestEnumerate:
    def test_stdout_lists_exact_distribution(self, capsys):
        assert run("enumerate", "--scenario", CASE) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0] == "S1,S2,S3,S4,S5,S6,S7,Prob"
        all_zero = lines[1].split(",")
        assert all_zero[:7] == ["0"] * 7
        assert abs(float(all_zero[7]) - 0.097) <= 5e-4
        assert len([l for l in lines if l and l[0] in "01"]) >= 128
        assert out == "".join(enumerate_reference())

    def test_writes_files(self, tmp_path):
        out = tmp_path / "enum"
        assert run("enumerate", "--scenario", CASE, "--out", str(out)) == 0
        joint_csv, marginals_csv = enumerate_reference()
        assert (out / "joint.csv").read_bytes() == joint_csv.encode()
        assert (out / "marginals.csv").read_bytes() == marginals_csv.encode()

    def test_golden_output(self, tmp_path):
        # SHA-256 of the bundled scenario's files; any probability moving by
        # one ulp, or any change to the CSV layout, shows here
        golden = {
            "joint.csv": "25100dcfa8c69f9c9a130bf72162b01dfa11a6be5e6cbded089deee8954733e1",
            "marginals.csv": "526a013897b894ee925d37f1796d6bf2a10617f61c30789a469311a67dddc399",
        }
        out = tmp_path / "enum"
        assert run("enumerate", "--scenario", CASE, "--out", str(out)) == 0
        for name, digest in golden.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest

    def test_golden_sparse_chain(self, tmp_path):
        # a 17-node chain with one entry node: 18 of its 2^17 states have
        # nonzero probability, so nearly every row is the literal 0.0 and a
        # change in how zero or nonzero rows are written shows here
        golden = {
            "joint.csv": "87b18e328d981e179de185d5272dc52e07f98748d3b66b9a5c205f1649f86146",
            "marginals.csv": "dd8a77d77949b26fdc34301256e76bb2c5514cce05f28b3bba19baa77d10f86a",
        }
        path = write_chain(tmp_path / "chain17.json", 17, 0.3, 0.6)
        out = tmp_path / "enum"
        assert run("enumerate", "--scenario", path, "--out", str(out)) == 0
        for name, digest in golden.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("label", ["CVE-1, router", "CVE-1\nrouter", "CVE-1\rrouter", 12.5,
                                       '"CVE"'])
    def test_label_outside_csv_layout_writes_nothing(self, label, tmp_path, capsys):
        doc = json.loads(bundled_case_study_path().read_text())
        doc["graph"]["nodes"][2]["label"] = label
        path = tmp_path / "label.json"
        path.write_text(json.dumps(doc))
        assert run("validate", "--scenario", str(path)) == 1
        captured = capsys.readouterr()
        assert "graph.nodes[2]: field 'label'" in captured.err
        assert "scenario OK" not in captured.out
        out = tmp_path / "out"
        assert run("enumerate", "--scenario", str(path), "--out", str(out)) == 1
        assert "graph.nodes[2]: field 'label'" in capsys.readouterr().err
        assert not out.exists()

    def test_closed_stdout_exits_quietly(self, tmp_path):
        # the chain's joint.csv is about 5 MB, far more than a pipe holds, so
        # the command is still writing when the reader closes its end
        path = write_chain(tmp_path / "chain17.json", 17, 0.3, 0.6)
        src = str(Path(homecyber.__file__).parent.parent)
        proc = subprocess.Popen(
            [sys.executable, "-m", "homecyber", "enumerate", "--scenario", path],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.stdout.readline().startswith(b"S1,S2,")
        proc.stdout.close()
        # 128 + SIGPIPE, as a shell reports `seq 100000 | head -1`
        assert proc.wait(timeout=60) == 141
        assert proc.stderr.read() == b""
        proc.stderr.close()

    def test_python_m_entry_point(self, capsys):
        assert run("enumerate", "--scenario", CASE) == 0
        in_process = capsys.readouterr().out
        src = str(Path(homecyber.__file__).parent.parent)
        done = subprocess.run(
            [sys.executable, "-m", "homecyber", "enumerate", "--scenario", CASE],
            capture_output=True, env={**os.environ, "PYTHONPATH": src}, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == in_process.encode()


def test_golden_simulation_output(tmp_path):
    # SHA-256 of stream layout 7's draws on the bundled scenario (2^15-row
    # blocks): 40000 runs are one complete run block and a partial one, and
    # 300 homes (109 replications per group) x 120 or 130 and 500 homes (65 per
    # group) x 70 are one complete replication group and a partial one, so
    # any change to which draw lands where shows here.  The price and calibrate
    # digests also pin the premium principles and the CTE calibration scan:
    # 40000 * 0.9 is exactly 36000, so the CTE's value-at-risk rank is the
    # same under ceil(n * beta) and the smallest k with k / n >= beta; line 4
    # at target 28 reports the flat CTE, and line 1 at its own CTE(0.9) hits
    # beta 0.9.  The second proposals.csv picks a different deductible under
    # each strategy for every principle, so it tells the two column pairs apart.
    assert RUN_BLOCK < 40000 < 2 * RUN_BLOCK
    assert replication_group(300) < 120 < 130 < 2 * replication_group(300)
    assert replication_group(500) < 70 < 2 * replication_group(500)
    golden = (
        ("summary.csv",
         "0bf46b17d6d737d3755a33a9365437f242fc030f6532cd9b21d9a38e7451f3e2",
         ["simulate", "--runs", "40000", "--seed", "11"]),
        ("portfolio.csv",
         "95347726ea3babf65d87a4d96403c315e282f0064e05242886d9097c800ee269",
         ["portfolio", "--premium", "418", "--deductible", "1000", "--coverage", "50000",
          "--homes", "300", "--replications", "120", "--seed", "12"]),
        # one replication: the size-1 branch that reports SD 0
        ("portfolio.csv",
         "093f686bb2acf53a90802bb7647eab987fb5416a45d0a26996e8e9daba49cd6b",
         ["portfolio", "--premium", "418", "--deductible", "1000", "--coverage", "50000",
          "--homes", "300", "--replications", "1", "--seed", "12"]),
        ("search.csv",
         "b682e19ba11c402c9c2a420b684963d39ec591392a1e11bc3fd40d8191ab91ce",
         ["search-deductible", "--premium", "418", "--coverage", "50000",
          "--grid", "100,500,1000", "--strategy", "quantile", "--lr-target", "0.4",
          "--homes", "300", "--replications", "130", "--seed", "13"]),
        ("proposals.csv",
         "c927c68f9a3726f780c8330738bd2d30eabf8470bed0c5399424ef0c44aa972f",
         ["propose", "--premiums", "418,307,368,408", "--coverage", "50000",
          "--grid", "100,500,1000", "--homes", "500", "--replications", "70",
          "--seed", "14"]),
        # mean LR picks 200, 300, 200, 200 and the Q99.5 LR 300, 500, 400, 300
        ("proposals.csv",
         "b18af68f04cb784faef113c9a327c1adc6ea539c87e716107a509d0953b8f855",
         ["propose", "--premiums", "418,307,368,408", "--coverage", "50000",
          "--grid", ",".join(str(d) for d in range(100, 1001, 100)),
          "--homes", "500", "--replications", "2000", "--seed", "7"]),
        ("premiums.csv",
         "7297c7070fc5d0f7269da97ec46fe2dc15de9ccb2bdbddcd4ce7c874489c0ff5",
         ["price", "--runs", "40000", "--seed", "15", "--theta-expectation", "0.5",
          "--theta-stddev", "0.03", "--theta-gmd", "0.25", "--beta-cte", "0.9"]),
        ("calibration.csv",
         "be8d71a3e34f3eaba092b8e3bf9aa1c59a81182ef5c71615cbede3852de368a9",
         ["calibrate", "--runs", "40000", "--seed", "16", "--line", "4", "--target", "28"]),
        ("calibration.csv",
         "e7875209675256f2e2f68b03be0b993cd6917ed08bf3aa9574dc535082bcf994",
         ["calibrate", "--runs", "40000", "--seed", "16", "--line", "1",
          "--target", "507.4315445182009"]),
    )
    for k, (name, digest, argv) in enumerate(golden):
        out = tmp_path / f"{k}"
        assert run(argv[0], "--scenario", CASE, *argv[1:], "--out", str(out)) == 0
        actual = hashlib.sha256((out / name).read_bytes()).hexdigest()
        # the severities come from numpy's samplers, so a numpy upgrade may move them
        assert actual == digest, f"{name} changed (numpy {np.__version__})"


class TestSimulate:
    def test_writes_summary_and_manifest(self, tmp_path):
        out = tmp_path / "res"
        rc = run("simulate", "--scenario", CASE, "--runs", "500", "--seed", "42",
                 "--out", str(out))
        assert rc == 0
        summary = (out / "summary.csv").read_text()
        assert summary.startswith("Min,Q25,Median,")
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["master_seed"] == 42
        assert manifest["runs"] == 500
        assert manifest["stream_layout"] == STREAM_LAYOUT
        assert manifest["numpy_version"] == np.__version__
        assert manifest["python_version"] == platform.python_version()

    def test_byte_identical_reruns_and_workers(self, tmp_path):
        outputs = []
        for name, workers in (("a", "1"), ("b", "1"), ("c", "3")):
            out = tmp_path / name
            rc = run("simulate", "--scenario", CASE, "--runs", "300", "--seed", "9",
                     "--workers", workers, "--out", str(out))
            assert rc == 0
            outputs.append(
                ((out / "summary.csv").read_bytes(), (out / "manifest.json").read_bytes())
            )
        assert outputs[0] == outputs[1] == outputs[2]


class TestPrice:
    def test_premium_table_written(self, tmp_path, capsys):
        out = tmp_path / "price"
        rc = run("price", "--scenario", CASE, "--runs", "2000", "--seed", "4",
                 "--theta-expectation", "0.5", "--theta-stddev", "0.03",
                 "--theta-gmd", "0.25", "--beta-cte", "0.34", "--out", str(out))
        assert rc == 0
        text = (out / "premiums.csv").read_text()
        lines = text.splitlines()
        assert lines[0] == "Line,rho1,rho2,rho3,rho4"
        assert lines[1].startswith("L1,")
        assert lines[-1].startswith("total,")

    def test_retained_pricing_smaller(self, tmp_path):
        args = ["price", "--scenario", CASE, "--runs", "2000", "--seed", "4",
                "--theta-expectation", "0.5", "--theta-stddev", "0.03",
                "--theta-gmd", "0.25", "--beta-cte", "0.34"]
        gross_dir = tmp_path / "gross"
        retained_dir = tmp_path / "ret"
        assert run(*args, "--out", str(gross_dir)) == 0
        assert run(*args, "--deductible", "1000", "--coverage", "50000",
                   "--out", str(retained_dir)) == 0
        gross_total = float((gross_dir / "premiums.csv").read_text()
                            .splitlines()[-1].split(",")[1])
        ret_total = float((retained_dir / "premiums.csv").read_text()
                          .splitlines()[-1].split(",")[1])
        assert ret_total < gross_total


class TestCalibrate:
    def test_reports_families_and_cte_flag(self, tmp_path, capsys):
        out = tmp_path / "cal"
        rc = run("calibrate", "--scenario", CASE, "--runs", "4000", "--seed", "6",
                 "--line", "4", "--target", "28",
                 "--deductible", "1000", "--coverage", "50000", "--out", str(out))
        assert rc == 0
        printed = capsys.readouterr().out
        assert "expectation:" in printed
        assert "cte: not calibrated" in printed
        table = (out / "calibration.csv").read_text()
        assert "CteNotIdentifiableError" in table

    def test_one_sort_for_all_families(self, monkeypatch, capsys):
        calls = []
        sort = np.sort
        monkeypatch.setattr(np, "sort", lambda a, *args, **kw: calls.append(1) or sort(a))
        assert run("calibrate", "--scenario", CASE, "--runs", "4000", "--seed", "6",
                   "--line", "1", "--target", "600") == 0
        assert "gmd:" in capsys.readouterr().out
        assert len(calls) == 1  # GMD and the CTE scan share one sorted column


class TestPeakMemory:
    # one 1e5 x 6 float64 matrix of all line losses takes 4.8 MB
    MATRIX = 100_000 * 6 * 8

    @pytest.mark.parametrize("argv, limit", [
        (["calibrate", "--line", "4", "--target", "28"], MATRIX),
        (["price", "--theta-expectation", "0.5", "--theta-stddev", "0.03", "--theta-gmd", "0.25",
          "--beta-cte", "0.9", "--deductible", "1000", "--coverage", "50000"], 2 * MATRIX),
    ], ids=["calibrate", "price-retained"])
    def test_traced_peak_of_1e5_runs(self, argv, limit, tmp_path):
        # calibrate stores one column; price stores no totals and retains in place
        command = [argv[0], "--scenario", CASE, *argv[1:], "--seed", "3", "--out", str(tmp_path)]
        with contextlib.redirect_stdout(io.StringIO()):
            assert run(*command, "--runs", "1000") == 0  # imports are not traced below
            tracemalloc.start()
            try:
                assert run(*command, "--runs", "100000") == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < limit


class TestPortfolio:
    def test_two_block_report(self, tmp_path):
        out = tmp_path / "pf"
        rc = run("portfolio", "--scenario", CASE, "--premium", "418",
                 "--deductible", "1000", "--coverage", "50000",
                 "--homes", "50", "--replications", "400", "--seed", "3",
                 "--out", str(out))
        assert rc == 0
        text = (out / "portfolio.csv").read_text()
        lines = text.splitlines()
        assert lines[0] == "Label,Min,Q1,Q5,Q10,Q15,Q50,Q75,Max,Mean,SD"
        assert lines[1].startswith("portfolio Profit,")
        assert lines[2] == "Label,Min,Q25,Q50,Q75,Q90,Q95,Q99.5,Max,Mean,SD"
        assert lines[3].startswith("portfolio LR,")
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["replications"] == 400
        assert manifest["homes"] == 50
        assert manifest["stream_layout"] == STREAM_LAYOUT


class TestSearchAndSolve:
    def test_solve_premium_round_trip(self, tmp_path, capsys):
        out = tmp_path / "solve"
        rc = run("solve-premium", "--scenario", CASE,
                 "--deductible", "1000", "--coverage", "50000",
                 "--homes", "100", "--replications", "1000",
                 "--strategy", "mean", "--lr-target", "0.40", "--seed", "7",
                 "--out", str(out))
        assert rc == 0
        printed = capsys.readouterr().out
        assert "premium per home:" in printed
        value = float((out / "premium.csv").read_text().splitlines()[1].split(",")[2])
        assert value > 0.0

    @pytest.mark.parametrize("coverage, strategy, homes, achieved", [
        ("1e-320", "mean", "100", "0.39998726003490404"),
        ("5e-324", "quantile", "3", "0.5"),
    ], ids=["mean", "quantile"])
    def test_solve_premium_subnormal_coverage(self, coverage, strategy, homes, achieved,
                                              tmp_path, capsys):
        # claims and premium are subnormal, so the premium misses the target on the way back
        out = tmp_path / "solve"
        rc = run("solve-premium", "--scenario", CASE, "--deductible", "0",
                 "--coverage", coverage, "--strategy", strategy, "--lr-target", "0.4",
                 "--homes", homes, "--replications", "200", "--seed", "1", "--out", str(out))
        assert rc == 1
        err = capsys.readouterr().err
        assert err == f"error: round-trip LR statistic {achieved} misses target 0.4\n"
        assert not out.exists()

    def test_search_deductible(self, tmp_path, capsys):
        out = tmp_path / "search"
        rc = run("search-deductible", "--scenario", CASE, "--premium", "418",
                 "--coverage", "50000", "--grid", "100,150,200,250,500,1000",
                 "--strategy", "mean", "--lr-target", "0.40",
                 "--homes", "100", "--replications", "1000", "--seed", "8",
                 "--out", str(out))
        assert rc == 0
        assert "smallest feasible deductible" in capsys.readouterr().out
        text = (out / "search.csv").read_text()
        assert text.splitlines()[0] == "Deductible,LR statistic,Feasible"

    def test_search_infeasible_exit_code(self, capsys):
        rc = run("search-deductible", "--scenario", CASE, "--premium", "418",
                 "--coverage", "50000", "--grid", "100,150",
                 "--strategy", "mean", "--lr-target", "0.000001",
                 "--homes", "20", "--replications", "100", "--seed", "8")
        assert rc == 1
        assert "no feasible deductible" in capsys.readouterr().out

    def test_propose(self, tmp_path):
        out = tmp_path / "prop"
        rc = run("propose", "--scenario", CASE, "--premiums", "418,307,368,408",
                 "--coverage", "50000", "--grid", "100,150,200,250,500,1000",
                 "--homes", "100", "--replications", "1000", "--seed", "9",
                 "--out", str(out))
        assert rc == 0
        text = (out / "proposals.csv").read_text()
        lines = text.splitlines()
        assert lines[0] == ("Principle,Total premium,Coverage limit,"
                            "Deductible 1,Mean Profit 1,Deductible 2,Mean Profit 2")
        assert len(lines) == 5
        assert lines[1].startswith("rho1,418.0,50000.0,")

    def test_propose_deterministic(self, tmp_path):
        blobs = []
        for name in ("x", "y"):
            out = tmp_path / name
            rc = run("propose", "--scenario", CASE, "--premiums", "418,307",
                     "--coverage", "50000", "--grid", "250,500,1000",
                     "--homes", "50", "--replications", "300", "--seed", "10",
                     "--workers", "2" if name == "y" else "1",
                     "--out", str(out))
            assert rc == 0
            blobs.append((out / "proposals.csv").read_bytes())
        assert blobs[0] == blobs[1]


class TestWorkers:
    # four run blocks and four replication groups of 2000 homes, the last one
    # partial each time
    SIZES = ("--homes", "2000", "--replications", str(3 * replication_group(2000) + 5),
             "--seed", "5")
    COMMANDS = {
        "simulate": ["simulate", "--runs", str(3 * RUN_BLOCK + 100), "--seed", "5"],
        "portfolio": ["portfolio", "--premium", "418", "--deductible", "1000",
                      "--coverage", "50000", *SIZES],
        "solve-premium": ["solve-premium", "--deductible", "1000", "--coverage", "50000",
                          "--strategy", "quantile", "--lr-target", "0.4", *SIZES],
        "search-deductible": ["search-deductible", "--premium", "418", "--coverage", "50000",
                              "--grid", "100,500,1000", "--strategy", "mean",
                              "--lr-target", "0.4", *SIZES],
        "propose": ["propose", "--premiums", "418,307", "--coverage", "50000",
                    "--grid", "100,500,1000", *SIZES],
    }

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_outputs_identical_for_any_worker_count(self, command, tmp_path):
        argv = self.COMMANDS[command]
        outputs = []
        for workers in ("1", "2", "3"):
            out = tmp_path / workers
            rc = run(argv[0], "--scenario", CASE, *argv[1:], "--workers", workers,
                     "--out", str(out))
            assert rc == 0
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert outputs[0] == outputs[1] == outputs[2]
        assert len(outputs[0]) == 2  # the table and manifest.json
        manifest = json.loads(outputs[0]["manifest.json"])
        assert manifest["stream_layout"] == STREAM_LAYOUT
        assert "workers" not in manifest

    @pytest.mark.parametrize("value", ["0", "-5", "two"])
    @pytest.mark.parametrize("command", ["simulate", "portfolio"])
    def test_bad_worker_count_exits_2(self, command, value, tmp_path, capsys):
        argv = self.COMMANDS[command]
        out = tmp_path / "out"
        rc = run(argv[0], "--scenario", CASE, *argv[1:], "--workers", value,
                 "--out", str(out))
        assert rc == 2
        assert "--workers" in capsys.readouterr().err
        assert not out.exists()


class TestRejectedInputs:
    SIZES = ("--homes", "50", "--replications", "100", "--seed", "1")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["search-deductible", "--premium", "418", "--coverage", "50000",
              "--grid", "100,200", "--strategy", "mean", "--lr-target", "0.4",
              "--homes", "0", "--replications", "100", "--seed", "1"],
             "n_homes must be >= 1, got 0"),
            (["solve-premium", "--deductible", "1000", "--coverage", "50000",
              "--strategy", "mean", "--lr-target", "0.4",
              "--homes", "0", "--replications", "100", "--seed", "1"],
             "n_homes must be >= 1, got 0"),
            (["propose", "--premiums", "418,307", "--coverage", "50000",
              "--grid", "100,200", "--homes", "0", "--replications", "100", "--seed", "1"],
             "n_homes must be >= 1, got 0"),
            (["search-deductible", "--premium", "418", "--coverage", "50000",
              "--grid", "100,200", "--strategy", "mean", "--lr-target", "0.4",
              "--homes", "-3", "--replications", "100", "--seed", "1"],
             "n_homes must be >= 1, got -3"),
            (["search-deductible", "--premium", "418", "--coverage", "50000",
              "--grid", "100,200", "--strategy", "quantile", "--lr-target", "0.4",
              "--homes", "50", "--replications", "0", "--seed", "1"],
             "replications must be >= 1, got 0"),
        ],
        ids=["search-homes-0", "solve-homes-0", "propose-homes-0",
             "search-homes-negative", "search-quantile-replications-0"],
    )
    def test_degenerate_portfolio_sizes(self, argv, message, capsys):
        assert run(argv[0], "--scenario", CASE, *argv[1:]) == 1
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    PRICE = ["price", "--runs", "50", "--seed", "1", "--theta-expectation", "0.5",
             "--theta-stddev", "0.03", "--theta-gmd", "0.25", "--beta-cte", "0.34"]
    PORTFOLIO = ["portfolio", "--premium", "418", "--deductible", "1000",
                 "--coverage", "50000", *SIZES]

    @staticmethod
    def replaced(argv, flag, value):
        argv = list(argv)
        if flag in argv:
            argv[argv.index(flag) + 1] = value
        else:
            argv += [flag, value]
        return argv

    @pytest.mark.parametrize(
        "base, flag, message",
        [
            ("portfolio", "--premium", "premium_per_home must be finite"),
            ("portfolio", "--deductible", "deductible must be finite"),
            ("portfolio", "--coverage", "coverage must be > 0, got nan"),
            ("search", "--premium", "premiums_total must be finite"),
            ("propose", "--premiums", "premium for rho1 must be finite"),
            ("price", "--theta-expectation", "Expectation theta must be finite"),
            ("price", "--theta-stddev", "StdDev theta must be finite"),
            ("price", "--theta-gmd", "GMD theta must be finite"),
            ("price", "--deductible", "deductible must be finite"),
            ("calibrate", "--target", "target premium must be finite"),
        ],
    )
    def test_nan_money_and_loadings(self, base, flag, message, tmp_path, capsys):
        argv = {
            "portfolio": self.PORTFOLIO,
            "search": ["search-deductible", "--premium", "418", "--coverage", "50000",
                       "--grid", "100,200", "--strategy", "mean", "--lr-target", "0.4",
                       *self.SIZES],
            "propose": ["propose", "--premiums", "418", "--coverage", "50000",
                        "--grid", "100,200", *self.SIZES],
            "price": [*self.PRICE, "--coverage", "50000"],
            "calibrate": ["calibrate", "--runs", "50", "--seed", "1", "--line", "4",
                          "--target", "28"],
        }[base]
        argv = self.replaced(argv, flag, "nan")
        out = tmp_path / "out"
        assert run(argv[0], "--scenario", CASE, *argv[1:], "--out", str(out)) == 1
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_unlimited_coverage_is_valid(self, capsys):
        argv = self.replaced(self.PORTFOLIO, "--coverage", "inf")
        assert run(argv[0], "--scenario", CASE, *argv[1:]) == 0

    def test_simulation_above_enumeration_cap(self, tmp_path, capsys):
        path = write_chain(tmp_path / "chain23.json", 23, 0.5, 0.5)
        for argv in (["validate"], ["simulate", "--runs", "10", "--seed", "1"], self.PORTFOLIO):
            assert run(argv[0], "--scenario", path, *argv[1:]) == 1
            captured = capsys.readouterr()
            assert "23 nodes exceed the enumeration cap of 22" in captured.err
            assert "scenario OK" not in captured.out

    CALIBRATE = ["calibrate", "--runs", "50", "--seed", "1", "--line", "4", "--target", "28"]

    @pytest.mark.parametrize("base", ["price", "calibrate"])
    @pytest.mark.parametrize(
        "flag, value, message",
        [("--coverage", "10", "error: --coverage requires --deductible"),
         ("--deductible", "1000", "error: --deductible requires --coverage")],
        ids=["coverage-alone", "deductible-alone"],
    )
    def test_retention_flags_come_in_pairs(self, base, flag, value, message, tmp_path, capsys):
        argv = {"price": self.PRICE, "calibrate": self.CALIBRATE}[base]
        out = tmp_path / "out"
        rc = run(argv[0], "--scenario", CASE, *argv[1:], flag, value, "--out", str(out))
        assert rc == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("base", ["price", "calibrate"])
    @pytest.mark.parametrize(
        "flag, value, message",
        [("--deductible", "nan", "deductible must be finite and >= 0, got nan"),
         ("--deductible", "-1", "deductible must be finite and >= 0, got -1.0"),
         ("--coverage", "0", "coverage must be > 0, got 0.0")],
        ids=["deductible-nan", "deductible-negative", "coverage-zero"],
    )
    def test_retention_checked_before_simulating(self, base, flag, value, message,
                                                 monkeypatch, tmp_path, capsys):
        def no_simulation(*args, **kwargs):
            raise AssertionError("run_simulation called")

        monkeypatch.setattr("homecyber.simulate.run_simulation", no_simulation)
        argv = {"price": self.PRICE, "calibrate": self.CALIBRATE}[base]
        argv = [*argv, "--deductible", "1000", "--coverage", "50000"]
        argv = self.replaced(argv, flag, value)
        out = tmp_path / "out"
        assert run(argv[0], "--scenario", CASE, *argv[1:], "--out", str(out)) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_propose_grid_must_ascend(self, capsys):
        argv = ["propose", "--premiums", "418", "--coverage", "50000", *self.SIZES]
        assert run(argv[0], "--scenario", CASE, *argv[1:], "--grid", "1000,500,100") == 1
        err = capsys.readouterr().err
        assert "deductible grid must be strictly ascending" in err
        assert "Traceback" not in err

    # the four commands that simulate a portfolio, before their rejected flags
    PORTFOLIO_COMMANDS = {
        "portfolio": ["portfolio", "--premium", "418", "--deductible", "1000",
                      "--coverage", "50000"],
        "search": ["search-deductible", "--premium", "418", "--coverage", "50000",
                   "--grid", "100,1000", "--strategy", "quantile", "--lr-target", "0.4"],
        "solve": ["solve-premium", "--deductible", "1000", "--coverage", "50000",
                  "--strategy", "quantile", "--lr-target", "0.4"],
        "propose": ["propose", "--premiums", "418,307", "--coverage", "50000",
                    "--grid", "100,1000"],
    }
    INCOME = "must be finite and > 0, got inf"

    @pytest.mark.parametrize("base, changes, code, message", [
        pytest.param("portfolio", {"--premium": "nan"}, 1,
                     "premium_per_home must be finite and > 0, got nan", id="portfolio-premium"),
        pytest.param("portfolio", {"--premium": "1e307"}, 1,
                     f"--homes x premium_per_home {INCOME}", id="portfolio-income"),
        pytest.param("portfolio", {"--deductible": "-1"}, 1,
                     "deductible must be finite and >= 0, got -1.0", id="portfolio-deductible"),
        pytest.param("portfolio", {"--coverage": "0"}, 1, "coverage must be > 0, got 0.0",
                     id="portfolio-coverage"),
        pytest.param("search", {"--grid": "100,x"}, 2,
                     "error: --grid expects comma-separated numbers, got '100,x'",
                     id="search-grid-text"),
        pytest.param("search", {"--grid": "1000,100"}, 1,
                     "deductible grid must be strictly ascending", id="search-grid-order"),
        pytest.param("search", {"--grid": "nan,100"}, 1,
                     "deductible must be finite and >= 0, got nan", id="search-deductible"),
        pytest.param("search", {"--premium": "-418"}, 1,
                     "premiums_total must be finite and > 0, got -418.0", id="search-premium"),
        pytest.param("search", {"--premium": "1e307"}, 1, f"--homes x premiums_total {INCOME}",
                     id="search-income"),
        pytest.param("search", {"--coverage": "nan"}, 1, "coverage must be > 0, got nan",
                     id="search-coverage"),
        pytest.param("search", {"--lr-target": "0"}, 1, "target must lie in (0, 1], got 0.0",
                     id="search-lr-target"),
        pytest.param("search", {"--quantile-level": "1"}, 1,
                     "level must lie in (0, 1), got 1.0", id="search-quantile-level"),
        pytest.param("solve", {"--deductible": "nan"}, 1,
                     "deductible must be finite and >= 0, got nan", id="solve-deductible"),
        pytest.param("solve", {"--coverage": "-1"}, 1, "coverage must be > 0, got -1.0",
                     id="solve-coverage"),
        pytest.param("solve", {"--lr-target": "1.5"}, 1, "target must lie in (0, 1], got 1.5",
                     id="solve-lr-target"),
        pytest.param("solve", {"--quantile-level": "0"}, 1,
                     "level must lie in (0, 1), got 0.0", id="solve-quantile-level"),
        pytest.param("propose", {"--premiums": "418,x"}, 2,
                     "error: --premiums expects comma-separated numbers, got '418,x'",
                     id="propose-premiums-text"),
        pytest.param("propose", {"--labels": "a"}, 2,
                     "error: --labels must match --premiums in length", id="propose-labels-count"),
        pytest.param("propose", {"--labels": "a,a"}, 2, "error: --labels must be distinct",
                     id="propose-labels-repeated"),
        pytest.param("propose", {"--labels": ",x"}, 2, "error: --labels must not be empty",
                     id="propose-labels-empty"),
        pytest.param("propose", {"--labels": "a\nb,c"}, 2,
                     "error: --labels must not hold line breaks", id="propose-labels-newline"),
        pytest.param("propose", {"--labels": "a,b\r"}, 2,
                     "error: --labels must not hold line breaks", id="propose-labels-return"),
        # csv.reader would read the cell '"x"' back as x
        pytest.param("propose", {"--labels": '"x",b'}, 2,
                     "error: --labels must not hold line breaks or '\"'", id="propose-labels-quote"),
        pytest.param("propose", {"--grid": "100,100"}, 1,
                     "deductible grid must be strictly ascending", id="propose-grid-order"),
        pytest.param("propose", {"--premiums": "418,nan"}, 1,
                     "premium for rho2 must be finite and > 0, got nan", id="propose-premium"),
        pytest.param("propose", {"--premiums": "1e307,300"}, 1,
                     f"--homes x premium for rho1 {INCOME}", id="propose-income"),
        pytest.param("propose", {"--mean-target": "0"}, 1, "target must lie in (0, 1], got 0.0",
                     id="propose-mean-target-0"),
        pytest.param("propose", {"--quantile-level": "1.5"}, 1,
                     "level must lie in (0, 1), got 1.5", id="propose-quantile-level-1.5"),
        pytest.param("propose", {"--quantile-target": "nan"}, 1,
                     "target must lie in (0, 1], got nan", id="propose-quantile-target-nan"),
        pytest.param("propose", {"--grid": "100,inf"}, 1,
                     "deductible must be finite and >= 0, got inf", id="propose-deductible"),
        pytest.param("propose", {"--coverage": "0"}, 1, "coverage must be > 0, got 0.0",
                     id="propose-coverage"),
        # two rejected flags: the check that runs first names the error
        pytest.param("portfolio", {"--premium": "nan", "--deductible": "-1"}, 1,
                     "deductible must be finite", id="portfolio-policy-first"),
        pytest.param("search", {"--grid": "1000,100", "--lr-target": "0"}, 1,
                     "target must lie in (0, 1]", id="search-strategy-first"),
        pytest.param("search", {"--grid": "1000,100", "--premium": "nan"}, 1,
                     "deductible grid must be strictly ascending",
                     id="search-grid-before-premium"),
        pytest.param("search", {"--premium": "1e307", "--coverage": "0"}, 1,
                     f"--homes x premiums_total {INCOME}", id="search-income-before-coverage"),
        pytest.param("solve", {"--coverage": "0", "--lr-target": "0"}, 1,
                     "coverage must be > 0", id="solve-policy-first"),
        pytest.param("propose", {"--premiums": "nan", "--mean-target": "0"}, 1,
                     "premium for rho1 must be finite", id="propose-premium-first"),
        pytest.param("propose", {"--mean-target": "0", "--coverage": "0"}, 1,
                     "target must lie in (0, 1]", id="propose-targets-before-policy"),
    ])
    def test_portfolio_flags_checked_first(self, base, changes, code, message, monkeypatch,
                                           capsys):
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulate_claims called")

        monkeypatch.setattr("homecyber.portfolio.simulate_claims", no_simulation)
        argv = self.PORTFOLIO_COMMANDS[base]
        for flag, value in changes.items():
            argv = self.replaced(argv, flag, value)
        assert run(argv[0], "--scenario", CASE, *argv[1:], *self.SIZES) == code
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("spelling", ["separate", "joined"])
    @pytest.mark.parametrize("base, flag, value, message", [
        ("search", "--grid", "-5,100", "deductible must be finite and >= 0, got -5.0"),
        ("search", "--grid", "-inf,100", "deductible must be finite and >= 0, got -inf"),
        ("propose", "--grid", "-5,100", "deductible must be finite and >= 0, got -5.0"),
        ("propose", "--premiums", "-1,2", "premium for rho1 must be finite and > 0, got -1.0"),
    ])
    def test_negative_list_values_reach_their_check(self, base, flag, value, message, spelling,
                                                    monkeypatch, capsys):
        # argparse takes "-5,100" for an option unless the program says otherwise
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulate_claims called")

        monkeypatch.setattr("homecyber.portfolio.simulate_claims", no_simulation)
        argv = self.replaced(self.PORTFOLIO_COMMANDS[base], flag, value)
        if spelling == "joined":
            at = argv.index(flag)
            argv[at:at + 2] = [f"{flag}={value}"]
        assert run(argv[0], "--scenario", CASE, *argv[1:], *self.SIZES) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("base, flag", [("search", "--grid"), ("propose", "--grid"),
                                            ("propose", "--premiums")])
    def test_list_flag_without_value_is_a_usage_error(self, base, flag, capsys):
        argv = list(self.PORTFOLIO_COMMANDS[base])
        at = argv.index(flag)
        del argv[at:at + 2]
        # the flag is followed by --homes, which is an option, not its value
        assert run(argv[0], "--scenario", CASE, *argv[1:], flag, *self.SIZES) == 2
        assert f"argument {flag}: expected one argument" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value, code, message",
        [("--line", "99", 2, "error: no business line with index 99"),
         ("--target", "nan", 1, "target premium must be finite"),
         ("--target", "inf", 1, "target premium must be finite"),
         ("--target", "-1", 1, "target premium must be finite")],
    )
    def test_calibrate_checks_before_simulating(self, flag, value, code, message,
                                                monkeypatch, capsys):
        def no_simulation(*args, **kwargs):
            raise AssertionError("run_simulation called")

        monkeypatch.setattr("homecyber.simulate.run_simulation", no_simulation)
        argv = self.replaced(self.CALIBRATE, flag, value)
        assert run(argv[0], "--scenario", CASE, *argv[1:]) == code
        assert message in capsys.readouterr().err


class TestOutputPath:
    # every command that writes files, with the files it writes in order
    SIZES = ("--homes", "40", "--replications", "60", "--seed", "3")
    COMMANDS = {
        "enumerate": (["enumerate"], ["joint.csv", "marginals.csv"]),
        "simulate": (["simulate", "--runs", "500", "--seed", "2"], ["summary.csv"]),
        "price": (["price", "--runs", "500", "--seed", "2", "--theta-expectation", "0.5",
                   "--theta-stddev", "0.03", "--theta-gmd", "0.25", "--beta-cte", "0.34"],
                  ["premiums.csv"]),
        "calibrate": (["calibrate", "--runs", "500", "--seed", "2", "--line", "4",
                       "--target", "28"], ["calibration.csv"]),
        "portfolio": (["portfolio", "--premium", "418", "--deductible", "1000",
                       "--coverage", "50000", *SIZES], ["portfolio.csv"]),
        "search-deductible": (["search-deductible", "--premium", "418", "--coverage", "50000",
                               "--grid", "100,1000", "--strategy", "mean", "--lr-target", "0.4",
                               *SIZES], ["search.csv"]),
        "solve-premium": (["solve-premium", "--deductible", "1000", "--coverage", "50000",
                           "--strategy", "mean", "--lr-target", "0.4", *SIZES], ["premium.csv"]),
        "propose": (["propose", "--premiums", "418,307", "--coverage", "50000",
                     "--grid", "100,1000", *SIZES], ["proposals.csv"]),
    }

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_stdout_holds_the_files(self, command, tmp_path, capsys):
        argv, files = self.COMMANDS[command]
        assert run(argv[0], "--scenario", CASE, *argv[1:]) == 0
        printed = capsys.readouterr().out
        out = tmp_path / "out"
        assert run(argv[0], "--scenario", CASE, *argv[1:], "--out", str(out)) == 0
        announced = capsys.readouterr().out.splitlines()

        # without --out, stdout holds the files' bytes in order, and nothing else changes
        blob = "".join((out / name).read_text() for name in files)
        assert blob in printed
        rest = printed.replace(blob, "", 1).splitlines()
        assert rest == [line for line in announced if not line.startswith("wrote ")]
        assert [line for line in announced if line.startswith("wrote ")] == [
            f"wrote {out / name}" for name in files
        ]
        # seeded commands record a manifest; enumerate has no seed
        manifest = [] if command == "enumerate" else ["manifest.json"]
        assert sorted(p.name for p in out.iterdir()) == sorted(files + manifest)


class TestSeededCommands:
    # every command that takes --seed, at the small sizes of TestOutputPath
    COMMANDS = {name: argv for name, (argv, _) in TestOutputPath.COMMANDS.items()
                if "--seed" in argv}

    def test_every_seeded_command_listed(self):
        seeded = [name for name, (_, flags, _, _) in COMMANDS.items()
                  if any(flag == "--seed" for flag, _ in flags)]
        assert list(self.COMMANDS) == seeded

    @staticmethod
    def stub_simulations(monkeypatch, error):
        """Make both simulation entry points raise ``error``; returns the sizes they were asked."""
        asked = []

        def simulation(*args, **kwargs):
            asked.append(args[2:4])
            raise error

        monkeypatch.setattr("homecyber.simulate.run_simulation", simulation)
        monkeypatch.setattr("homecyber.portfolio.simulate_claims", simulation)
        return asked

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_negative_seed_names_the_flag(self, command, monkeypatch, tmp_path, capsys):
        asked = self.stub_simulations(monkeypatch, AssertionError("simulation started"))
        argv = TestRejectedInputs.replaced(self.COMMANDS[command], "--seed", "-1")
        out = tmp_path / "out"
        assert run(argv[0], "--scenario", CASE, *argv[1:], "--out", str(out)) == 2
        assert "argument --seed: must be >= 0, got -1" in capsys.readouterr().err
        assert asked == []
        assert not out.exists()

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_size_too_large_to_allocate(self, command, monkeypatch, tmp_path, capsys):
        # the stub raises what numpy raises for such a size, so nothing is allocated here
        message = ("Unable to allocate 42.6 PiB for an array with shape "
                   "(1000000000000000, 6) and data type float64")
        asked = self.stub_simulations(monkeypatch, MemoryError(message))
        size = "--runs" if "--runs" in self.COMMANDS[command] else "--replications"
        argv = TestRejectedInputs.replaced(self.COMMANDS[command], size, "1000000000000000")
        out = tmp_path / "out"
        assert run(argv[0], "--scenario", CASE, *argv[1:], "--out", str(out)) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert len(asked) == 1 and 1000000000000000 in asked[0]
        assert not out.exists()

    def test_bare_memory_error(self, monkeypatch, capsys):
        self.stub_simulations(monkeypatch, MemoryError())
        assert run("simulate", "--scenario", CASE, "--runs", "10", "--seed", "1") == 1
        assert capsys.readouterr().err == "error: out of memory\n"


class TestOverflowingLosses:
    # on the bundled scenario at --runs 20000 --seed 1, a loss law that
    # overflows float64 ends in "error: ..." with exit 1, never in a table
    # with inf or nan cells
    SIZES = ("--runs", "20000", "--seed", "1")
    THETAS = ("--theta-expectation", "0.5", "--theta-stddev", "0.03", "--theta-gmd", "0.25",
              "--beta-cte", "0.34")

    @staticmethod
    def scenario(tmp_path, line, field, value) -> str:
        doc = json.loads(bundled_case_study_path().read_text())
        model = doc["lines"][line]["model"]
        if field.startswith("rates."):
            model["rates"][field.removeprefix("rates.")] = value
        else:
            model[field] = value
        path = tmp_path / "overflow.json"
        path.write_text(json.dumps(doc))
        return str(path)

    @pytest.mark.parametrize("line, field, value, named", [
        (0, "rates.1", 5e-324, "'rates[1]'"),
        (2, "mu", 800.0, "'mu' and 'sigma'"),
        (4, "beta", 1e-320, "'alpha' and 'beta'"),
    ], ids=["rate", "mu", "beta"])
    def test_mean_beyond_float64_rejected_on_load(self, line, field, value, named, tmp_path,
                                                  capsys):
        path = self.scenario(tmp_path, line, field, value)
        out = tmp_path / "out"
        assert run("simulate", "--scenario", path, *self.SIZES, "--out", str(out)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert f"{named} is not a finite float64" in captured.err
        assert not out.exists()

    # two run blocks or replication groups, so that two workers both draw
    RUNS = ("--runs", str(RUN_BLOCK + 7000), "--seed", "1")
    PORTFOLIO = ("--coverage", "inf", "--homes", "50", "--replications",
                 str(replication_group(50) + 45), "--seed", "1")
    LR = "LR statistic {}: the portfolio claims overflow float64"
    OVERFLOWING = {
        "simulate": ((*RUNS,), "L5: statistics of the sample overflow float64"),
        "price": ((*RUNS, *THETAS), "L5: statistics of the sample overflow float64"),
        "calibrate": ((*RUNS, "--line", "5", "--target", "28"),
                      "statistics of the sample overflow float64"),
        "search-deductible": (("--premium", "418", "--grid", "100,200", "--strategy", "mean",
                               "--lr-target", "0.4", *PORTFOLIO), LR.format("inf")),
        "propose": (("--premiums", "418,307", "--grid", "100,200", *PORTFOLIO),
                    LR.format("inf")),
        "solve-premium": (("--deductible", "100", "--strategy", "quantile", "--lr-target",
                           "0.4", *PORTFOLIO), LR.format("nan")),
    }

    # finite claims over an income near the bottom of the float range: the LR
    # itself overflows, and the error names the income, not the sample
    TINY_INCOME = {
        "portfolio": ("--premium", "1e-320", "--deductible", "1000"),
        "search-deductible": ("--premium", "1e-320", "--grid", "100,200", "--strategy", "mean",
                              "--lr-target", "0.4"),
        "propose": ("--premiums", "418,1e-320", "--grid", "100,200"),
    }

    @pytest.mark.parametrize("command", list(TINY_INCOME))
    def test_loss_ratio_that_overflows_names_the_income(self, command, tmp_path, capsys):
        out = tmp_path / "out"
        assert run(command, "--scenario", CASE, *self.TINY_INCOME[command], "--coverage",
                   "50000", "--homes", "5", "--replications", "100", "--seed", "1",
                   "--out", str(out)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: LR = claims / income overflows float64 at income {5 * 1e-320!r}\n")
        assert not out.exists()

    # a finite sample, but a loading beyond float64: the error names the line and
    # the loading; a sum over the lines that overflows still names the total row
    PRICE = ("--runs", "2", "--seed", "1", "--theta-expectation", "0", "--theta-stddev", "0",
             "--theta-gmd", "0", "--beta-cte", "0.5")

    @pytest.mark.parametrize("flag, value, message", [
        ("--theta-expectation", "1e308",
         "L1: Expectation loading (1 + theta) x mean overflows float64"),
        ("--theta-expectation", "-1e308",
         "L1: Expectation loading (1 + theta) x mean overflows float64"),
        ("--theta-stddev", "1e308", "L1: StdDev loading mean + theta x SD overflows float64"),
        ("--theta-gmd", "1e308", "L1: GMD loading mean + theta x GMD overflows float64"),
        # L1 and L3 are each below float64's maximum, and their sum is not
        ("--theta-expectation", "1.5e306", "total: the lines' premiums sum beyond float64"),
    ], ids=["expectation", "expectation-negative", "stddev", "gmd", "total"])
    def test_loading_that_overflows_is_named(self, flag, value, message, tmp_path, capsys):
        out = tmp_path / "out"
        argv = TestRejectedInputs.replaced(self.PRICE, flag, value)
        assert run("price", "--scenario", CASE, *argv, "--out", str(out)) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"
        assert not out.exists()

    def test_calibrated_parameter_that_overflows_is_a_row(self, tmp_path, capsys):
        # retained losses below 1e-320: theta = (28 - mean) / scale overflows for
        # two families, and every family still gets its row
        out = tmp_path / "out"
        assert run("calibrate", "--scenario", CASE, "--runs", "2000", "--seed", "1", "--line",
                   "1", "--target", "28", "--deductible", "0", "--coverage", "1e-320",
                   "--out", str(out)) == 0
        overflow = "TargetNotAchievableError: theta = (target - mean) / {} overflows float64"
        assert [tuple(row.values()) for row in csv_rows(out / "calibration.csv")] == [
            ("expectation", "", overflow.format("mean")),
            ("stddev", "", "NotCalibratableError: sample SD is 0; stddev loading has no effect"),
            ("gmd", "", overflow.format("GMD")),
            ("cte", "", "TargetNotAchievableError: target 28.0 is above the sample maximum "
                        "9.99989e-321"),
        ]
        captured = capsys.readouterr()
        assert "expectation: not calibrated (theta = (target - mean) / mean overflows" \
            in captured.out
        assert captured.err == ""

    @pytest.mark.parametrize("command", list(OVERFLOWING))
    def test_statistics_that_overflow_are_an_error(self, command, tmp_path, capsys,
                                                   monkeypatch):
        # alpha = 1e308 has a finite mean, but the sums of its draws overflow;
        # a numpy warning, in any thread, fails the test, and nothing but
        # the error line may reach stderr, so an overflow never reads as
        # infeasibility or as a table
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        path = self.scenario(tmp_path, 4, "alpha", 1e308)
        flags, message = self.OVERFLOWING[command]
        for workers in ("1", "2"):
            out = tmp_path / f"out-{workers}"
            assert run(command, "--scenario", path, *flags, "--workers", workers,
                       "--out", str(out)) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: {message}\n"
            assert not out.exists()


def test_cli_never_imports_scipy(tmp_path):
    # a fresh interpreter, so no other test's import can hide one; the paths
    # that need only the scenario model run first and must leave numpy and the
    # engine modules unimported, then every command runs in it, at small sizes
    src = str(Path(homecyber.__file__).parent.parent)
    generated = tmp_path / "generated.json"
    generated.write_text(subprocess.run(
        [sys.executable, str(Path(__file__).parents[1] / "bench" / "scenario_gen.py"),
         "--seed", "7"], capture_output=True, text=True, check=True).stdout)
    model_only = [
        (["validate", "--scenario", CASE], 0),
        (["validate", "--scenario", str(generated)], 0),
        (["--help"], 0),
        (["--version"], 0),
        (["simulate", "--scenario", CASE, "--runs", "10"], 2),
    ]
    engine = ["numpy", "homecyber.simulate", "homecyber.portfolio", "homecyber.search",
              "homecyber.reports"]
    sizes = ["--homes", "20", "--replications", "30", "--seed", "1"]
    commands = [
        ["validate"],
        ["enumerate"],
        ["simulate", "--runs", "100", "--seed", "1"],
        ["price", "--runs", "100", "--seed", "1", "--theta-expectation", "0.5",
         "--theta-stddev", "0.03", "--theta-gmd", "0.25", "--beta-cte", "0.9",
         "--deductible", "100", "--coverage", "5000"],
        ["calibrate", "--runs", "100", "--seed", "1", "--line", "4", "--target", "28"],
        ["portfolio", "--premium", "418", "--deductible", "1000", "--coverage", "50000",
         *sizes],
        ["search-deductible", "--premium", "418", "--coverage", "50000",
         "--grid", "100,1000", "--strategy", "quantile", "--lr-target", "0.4", *sizes],
        ["solve-premium", "--deductible", "1000", "--coverage", "50000",
         "--strategy", "mean", "--lr-target", "0.4", *sizes],
        ["propose", "--premiums", "418,307", "--coverage", "50000", "--grid", "100,1000",
         *sizes],
    ]
    assert [argv[0] for argv in commands] == list(COMMANDS)
    code = (
        "import io, sys, contextlib; from homecyber.cli import cli_dispatch\n"
        f"for argv, expected in {model_only!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()), "
        "contextlib.redirect_stderr(io.StringIO()):\n"
        "        code = cli_dispatch(argv)\n"
        "    assert code == expected, (argv, code)\n"
        f"print([name for name in {engine!r} if name in sys.modules])\n"
        # the model classes need neither, and importing them costs every start-up
        "print([name for name in ('dataclasses', 'inspect') if name in sys.modules])\n"
        f"for argv in {commands!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        f"        code = cli_dispatch([argv[0], '--scenario', {CASE!r}, *argv[1:]])\n"
        "    assert code == 0, argv\n"
        # numpy imports inspect itself, so only dataclasses is checked here
        "print('scipy' in sys.modules, 'dataclasses' in sys.modules)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-3:] == ["[]", "[]", "False False"]


def test_validate_never_imports_importlib_resources():
    # -S skips site, whose .pth files may import importlib.resources themselves;
    # only bundled_case_study_path, which no command calls, needs it
    src = str(Path(homecyber.__file__).parent.parent)
    code = (
        f"import sys; sys.path.insert(0, {src!r})\n"
        "from homecyber.cli import cli_dispatch\n"
        f"assert cli_dispatch(['validate', '--scenario', {CASE!r}]) == 0\n"
        "print('importlib.resources' in sys.modules)"
    )
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"


def csv_rows(path: Path) -> list[dict]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def written(directory: Path) -> dict[str, bytes]:
    """Every file a command wrote to ``directory`` (none when it failed first)."""
    return {p.name: p.read_bytes() for p in directory.iterdir()} if directory.exists() else {}


@given(graphs_with_lines())
@settings(max_examples=25, deadline=None, derandomize=True)
def test_portfolio_commands_agree_on_random_scenarios(case):
    # The four portfolio commands draw the same claims for the same scenario
    # and seed, so their CSVs must agree: the search statistic at the
    # portfolio's deductible is the portfolio's Q99.5 LR, propose's picks are
    # search's under each strategy, and the solved premium scales that LR to
    # the target.
    graph, lines = case
    scenario = Scenario(graph, tuple(lines), None, "random DAG", 1)
    # target is also propose's default --mean-target and --quantile-target
    grid, premium, target = ("0.0", "0.5", "1.0", "2.0"), 6.0, 0.4
    flags = ["--coverage", "8", "--homes", "50", "--replications", "200", "--seed", "3"]
    search = ["search-deductible", "--premium", str(premium), "--grid", ",".join(grid),
              "--lr-target", str(target), "--strategy"]
    commands = {
        "portfolio": ["portfolio", "--premium", str(premium), "--deductible", grid[2]],
        "search-quantile": [*search, "quantile"],
        "search-mean": [*search, "mean"],
        "solve-premium": ["solve-premium", "--deductible", grid[2], "--strategy", "quantile",
                          "--lr-target", str(target)],
        "propose": ["propose", "--premiums", f"{premium},7", "--grid", ",".join(grid)],
    }
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        path = work / "scenario.json"
        path.write_text(json.dumps(canonical_document(scenario)))
        codes = {}
        for label, argv in commands.items():
            for workers in ("1", "2"):
                with contextlib.redirect_stdout(io.StringIO()):
                    codes[label, workers] = run(
                        argv[0], "--scenario", str(path), *argv[1:], *flags,
                        "--workers", workers, "--out", str(work / label / workers))
            assert written(work / label / "1") == written(work / label / "2")
            assert codes[label, "1"] == codes[label, "2"]

        # portfolio.csv is the Profit block, then the LR block: a header and a row each
        report = (work / "portfolio" / "1" / "portfolio.csv").read_text().splitlines()
        lr = dict(zip(report[2].split(","), report[3].split(",")))
        q_lr = float(lr["Q99.5"])
        # claims lie in [0, N x C]; LR = claims / (N x premium), and rounding is monotone
        homes = int(flags[flags.index("--homes") + 1])
        coverage = float(flags[flags.index("--coverage") + 1])
        assert 0.0 <= float(lr["Min"])
        assert float(lr["Max"]) <= homes * coverage / (homes * premium)
        proposal = csv_rows(work / "propose" / "1" / "proposals.csv")[0]
        stats = {}
        for label, column in (("search-mean", "Deductible 1"), ("search-quantile", "Deductible 2")):
            rows = csv_rows(work / label / "1" / "search.csv")
            stats[label] = [float(row["LR statistic"]) for row in rows]
            assert [float(row["Deductible"]) for row in rows] == [float(d) for d in grid]
            assert all(b <= a for a, b in zip(stats[label], stats[label][1:]))
            chosen = next((float(d) for d, s in zip(grid, stats[label]) if s <= target), None)
            assert codes[label, "1"] == (1 if chosen is None else 0)
            assert (float(proposal[column]) if proposal[column] else None) == chosen
        assert stats["search-quantile"][2] == q_lr

        if q_lr == 0.0:  # no claims in the tail: no premium meets the target
            assert codes["solve-premium", "1"] == 1
        else:
            row = csv_rows(work / "solve-premium" / "1" / "premium.csv")[0]
            solved = float(row["Premium per home"])
            assert solved == pytest.approx(q_lr * premium / target, rel=1e-9)


@given(graphs_with_lines())
@settings(max_examples=25, deadline=None, derandomize=True)
def test_single_home_commands_agree_on_random_scenarios(case):
    # price and calibrate read the same retained samples for the same scenario,
    # runs and seed: every premium is at least the retained mean, and every
    # calibrated parameter prices those samples at the target.
    graph, lines = case
    scenario = Scenario(graph, tuple(lines), None, "random DAG", 1)
    runs, seed, deductible, coverage, theta = 3000, 5, 0.5, 8.0, 0.5
    flags = ["--runs", str(runs), "--seed", str(seed), "--deductible", str(deductible),
             "--coverage", str(coverage)]
    families = {"expectation": pricing.Expectation, "stddev": pricing.StdDev,
                "gmd": pricing.GMD, "cte": pricing.CTE}
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        path = work / "scenario.json"
        path.write_text(json.dumps(canonical_document(scenario)))
        # the file lists nodes by id, which fixes the state bits the runs draw
        loaded = load_scenario(path)
        result = run_simulation(loaded.graph, loaded.lines, runs, seed)
        retained = pricing.retain(result.line_losses, deductible, coverage)
        with contextlib.redirect_stdout(io.StringIO()):
            assert run("price", "--scenario", str(path), *flags,
                       "--theta-expectation", str(theta), "--theta-stddev", "0.03",
                       "--theta-gmd", "0.25", "--beta-cte", "0.9", "--out", str(work)) == 0
        rows = csv_rows(work / "premiums.csv")
        assert [row["Line"] for row in rows] == [*(f"L{i}" for i in result.line_indices), "total"]
        for col, row in enumerate(rows[:-1]):
            premiums = [float(row[f"rho{k}"]) for k in range(1, 5)]
            # rho1 = (1 + theta) x the retained mean
            mean = premiums[0] / (1.0 + theta)
            assert mean == pytest.approx(float(retained[:, col].mean()), rel=1e-12)
            assert min(premiums) >= mean * (1.0 - 1e-12)

            # a target the expectation family attains whenever the line has losses
            target = 1.5 * mean
            out = work / f"calibrate-{col}"
            with contextlib.redirect_stdout(io.StringIO()):
                assert run("calibrate", "--scenario", str(path), *flags,
                           "--line", row["Line"][1:], "--target", repr(target),
                           "--out", str(out)) == 0
            calibrated = csv_rows(out / "calibration.csv")
            assert [r["Family"] for r in calibrated] == list(families)
            assert bool(calibrated[0]["Parameter"]) == (mean > 0.0)
            for r in calibrated:
                if r["Parameter"]:
                    got = pricing.premium(retained[:, col],
                                          families[r["Family"]](float(r["Parameter"])))
                    # calibrate accepts a CTE within 1e-6 x max(1, target) of the target
                    assert abs(got - target) <= 2e-6 * max(1.0, target)
                else:
                    assert r["Note"].split(":")[0].endswith("Error")

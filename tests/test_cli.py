import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import homecyber
from conftest import joint_csv_reference
from homecyber.cli import _build_parser, cli_dispatch
from homecyber.graph import enumerate_joint
from homecyber.reports import marginals_table, render_csv
from homecyber.scenario import bundled_case_study_path, load_scenario

CASE = str(bundled_case_study_path())


def run(*argv) -> int:
    return cli_dispatch(list(argv))


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
    ("--seed", True, "int", None, None, None),
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
    # SHA-256 of stream layout 5's draws on the bundled scenario (2^14-row
    # blocks): 20000 runs are one complete run block and a partial one, and
    # 300 homes (54 replications per group) x 60 or 70 and 500 homes (32 per
    # group) x 40 are one complete replication group and a partial one, so
    # any change to which draw lands where shows here
    golden = {
        "summary.csv": (
            "0efa2601c7b55a3027f8ab2f9b7e19c93f8d959a79dff1107428cd6d3bdb1642",
            ["simulate", "--runs", "20000", "--seed", "11"]),
        "portfolio.csv": (
            "ddb093d5b78aaba5c34b96ba764c6c6701447d19325169b5229bff2b66446daf",
            ["portfolio", "--premium", "418", "--deductible", "1000", "--coverage", "50000",
             "--homes", "300", "--replications", "60", "--seed", "12"]),
        "search.csv": (
            "b4129fe99e1bde6c1b3ac882373a838b57b98525aff7c7a28f8e3cba913311e2",
            ["search-deductible", "--premium", "418", "--coverage", "50000",
             "--grid", "100,500,1000", "--strategy", "quantile", "--lr-target", "0.4",
             "--homes", "300", "--replications", "70", "--seed", "13"]),
        "proposals.csv": (
            "940f7dbb1479cf065158b8ef0851e22d8c12eb2cb43db748ca9938f091170ddd",
            ["propose", "--premiums", "418,307,368,408", "--coverage", "50000",
             "--grid", "100,500,1000", "--homes", "500", "--replications", "40",
             "--seed", "14"]),
    }
    for name, (digest, argv) in golden.items():
        out = tmp_path / name
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
        assert manifest["stream_layout"] == 5
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
        assert manifest["stream_layout"] == 5


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
    # 3 * 2^14 + 100 runs are four run blocks; 2000 homes make groups of 8
    # replications, so 29 replications are four groups, the last one partial
    SIZES = ("--homes", "2000", "--replications", "29", "--seed", "5")
    COMMANDS = {
        "simulate": ["simulate", "--runs", str(3 * (1 << 14) + 100), "--seed", "5"],
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
        assert manifest["stream_layout"] == 5
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
        doc = json.loads(bundled_case_study_path().read_text())
        doc["graph"]["nodes"] = [{"id": 1, "entry_prob": 0.5}] + [
            {"id": i} for i in range(2, 24)
        ]
        doc["graph"]["edges"] = [
            {"src": i, "dst": i + 1, "cond_prob": 0.5} for i in range(1, 23)
        ]
        path = tmp_path / "chain23.json"
        path.write_text(json.dumps(doc))
        for argv in (["validate"], ["simulate", "--runs", "10", "--seed", "1"], self.PORTFOLIO):
            assert run(argv[0], "--scenario", str(path), *argv[1:]) == 1
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

    def test_propose_grid_must_ascend(self, capsys):
        argv = ["propose", "--premiums", "418", "--coverage", "50000", *self.SIZES]
        assert run(argv[0], "--scenario", CASE, *argv[1:], "--grid", "1000,500,100") == 1
        err = capsys.readouterr().err
        assert "deductible grid must be strictly ascending" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "flag, value, message",
        [("--mean-target", "0", "target must lie in (0, 1], got 0.0"),
         ("--quantile-level", "1.5", "level must lie in (0, 1), got 1.5"),
         ("--quantile-target", "nan", "target must lie in (0, 1], got nan")],
    )
    def test_propose_checks_targets_before_simulating(self, flag, value, message,
                                                      monkeypatch, capsys):
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulate_claims called")

        monkeypatch.setattr("homecyber.search.simulate_claims", no_simulation)
        argv = ["propose", "--premiums", "418", "--coverage", "50000", "--grid", "100,1000",
                *self.SIZES, flag, value]
        assert run(argv[0], "--scenario", CASE, *argv[1:]) == 1
        assert message in capsys.readouterr().err

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

        monkeypatch.setattr("homecyber.cli.run_simulation", no_simulation)
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


def test_cli_never_imports_scipy():
    # a fresh interpreter, so no other test's import can hide one
    src = str(Path(homecyber.__file__).parent.parent)
    code = (
        "import sys; from homecyber.cli import cli_dispatch; "
        f"assert cli_dispatch(['validate', '--scenario', {CASE!r}]) == 0; "
        f"assert cli_dispatch(['simulate', '--scenario', {CASE!r}, "
        "'--runs', '100', '--seed', '1']) == 0; "
        "print('scipy' in sys.modules)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src}, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"

"""Metamorphic relations: two runs of the program whose outputs must agree,
with no oracle for either.

Money scaling: dividing every exponential rate and every gamma ``beta`` by a
power of two k multiplies every loss draw by exactly k (an exponential draw
divides by its rate, a gamma draw multiplies by 1 / beta).  With every money
flag multiplied by k too, each later sum, sort, interpolation, clip and
division commutes with the scale, so every output cell is either unchanged
(loss ratios, loadings, flags) or exactly k times the original (losses,
premiums, deductibles).  A lognormal draw exp(mu + sigma z) keeps the
relation only to rounding, so its lines are replaced by gammas.
"""

import csv
import json
import math
import re

import pytest

from homecyber.cli import cli_dispatch
from homecyber.scenario import bundled_case_study_path

K = 4.0
NUMBER = re.compile(r"\d+(?:\.\d*)?(?:e[-+]?\d+)?")
MONEY_FLAGS = {"--deductible", "--coverage", "--premium", "--premiums", "--grid", "--target"}
THETAS = ("--theta-expectation", "0.5", "--theta-stddev", "0.03", "--theta-gmd", "0.25",
          "--beta-cte", "0.34")
PORTFOLIO = ("--homes", "40", "--replications", "60", "--seed", "5")
COMMANDS = {
    "simulate": ("--runs", "2000", "--seed", "5"),
    "price": ("--runs", "2000", "--seed", "5", *THETAS, "--deductible", "500",
              "--coverage", "20000"),
    "calibrate": ("--runs", "2000", "--seed", "5", "--line", "5", "--target", "300",
                  "--deductible", "100", "--coverage", "50000"),
    "portfolio": ("--premium", "418", "--deductible", "1000", "--coverage", "50000",
                  *PORTFOLIO),
    "search-deductible": ("--premium", "418", "--coverage", "50000", "--grid",
                          "100,1000,2000,4000", "--strategy", "quantile", "--lr-target", "0.4",
                          *PORTFOLIO),
    "solve-premium": ("--deductible", "1000", "--coverage", "inf", "--strategy", "quantile",
                      "--lr-target", "0.4", *PORTFOLIO),
    "propose": ("--premiums", "418,307", "--coverage", "50000", "--grid",
                "100,1000,2000,4000", *PORTFOLIO),
}


def gamma_scenario(k: float) -> dict:
    """The bundled scenario with its lognormal lines swapped for gammas of
    shape 2 and the same mean, every rate and gamma ``beta`` divided by k."""
    doc = json.loads(bundled_case_study_path().read_text())
    for line in doc["lines"]:
        model = line["model"]
        if model["family"] == "triggered_lognormal":
            mean = math.exp(model["mu"] + model["sigma"] ** 2 / 2.0)
            line["model"] = model = {"family": "triggered_gamma", "alpha": 2.0,
                                     "beta": 2.0 / mean}
        if "rates" in model:
            model["rates"] = {nid: rate / k for nid, rate in model["rates"].items()}
        if "beta" in model:
            model["beta"] /= k
    return doc


def scaled_flags(argv: tuple, k: float) -> list[str]:
    """``argv`` with the value of every money flag (a comma list too) times k."""
    out = list(argv)
    for i, flag in enumerate(argv[:-1]):
        if flag in MONEY_FLAGS:
            out[i + 1] = ",".join(repr(float(v) * k) for v in argv[i + 1].split(","))
    return out


def run_tables(command: str, scenario, argv, out) -> tuple[int, dict]:
    """Exit code and every CSV table the command writes to ``out``, as rows."""
    code = cli_dispatch([command, "--scenario", str(scenario), *argv, "--out", str(out)])
    tables = {}
    for path in sorted(out.glob("*.csv")):
        with open(path, newline="") as f:
            tables[path.name] = list(csv.reader(f))
    return code, tables


def cell_scales(a: str, b: str, k: float) -> bool:
    """A numeric cell must be equal or exactly k times; a text cell (a note) must
    read the same apart from its numbers, each equal or k times to the six
    significant digits that ``%g`` prints."""
    try:
        return float(b) in (float(a), float(a) * k)
    except ValueError:
        pass
    if NUMBER.split(a) != NUMBER.split(b):
        return False
    return all(y == x or math.isclose(float(y), float(x) * k, rel_tol=1e-5)
               for x, y in zip(NUMBER.findall(a), NUMBER.findall(b)))


def mismatches(base: dict, scaled: dict, k: float) -> list[str]:
    """Cells of ``scaled`` that do not keep the relation with ``base``."""
    assert base.keys() == scaled.keys()
    bad = []
    for name, rows in base.items():
        assert [len(r) for r in rows] == [len(r) for r in scaled[name]], name
        for i, (row, other) in enumerate(zip(rows, scaled[name])):
            bad += [f"{name}[{i}][{j}]: {a} -> {b}" for j, (a, b) in enumerate(zip(row, other))
                    if a != b and not cell_scales(a, b, k)]
    return bad


def test_money_scales_every_cell(tmp_path, capsys):
    base_path, scaled_path = tmp_path / "base.json", tmp_path / "scaled.json"
    base_path.write_text(json.dumps(gamma_scenario(1.0)))
    scaled_path.write_text(json.dumps(gamma_scenario(K)))
    scaled_cells = 0
    for command, argv in COMMANDS.items():
        code, base = run_tables(command, base_path, argv, tmp_path / f"{command}-base")
        scaled_code, scaled = run_tables(command, scaled_path, scaled_flags(argv, K),
                                         tmp_path / f"{command}-scaled")
        assert (code, scaled_code) == (0, 0), capsys.readouterr().err
        assert base, command
        assert mismatches(base, scaled, K) == [], command
        scaled_cells += sum(a != b for name, rows in base.items()
                            for row, other in zip(rows, scaled[name]) for a, b in zip(row, other))
    # 106 of the 193 cells below the headers scale; if none did, the relation
    # would check nothing
    assert scaled_cells > 100


@pytest.mark.parametrize("a, b, bad", [
    ("2.5", "10.0", False), ("0.4", "0.4", False), ("yes", "yes", False),
    ("2.5", "2.5000000000000004", True), ("yes", "no", True), ("", "0.0", True),
    ("max 942.954", "max 3771.82", False), ("max 942.954", "max 3771.9", True),
    ("target 300.0", "goal 1200.0", True),
])
def test_mismatch_rule(a, b, bad):
    assert bool(mismatches({"t.csv": [["h"], [a]]}, {"t.csv": [["h"], [b]]}, K)) == bad

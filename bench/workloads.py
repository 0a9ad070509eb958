"""The benchmark's workloads: generated inputs, command lists and checks.

Each workload is one client in a closed loop: a pass runs its steps one after
another, each step starting when the previous one has returned.  Commands go
through ``homecyber.cli.cli_dispatch``; ``exact_means_s`` calls
``homecyber.losses.exact_line_mean`` directly.  The program sees only the
scenario file and the flags built here from the workload seed.
"""

import csv
import io
import math
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from scipy import special

import scenario_gen

RUNS = 100_000
THETAS = {"expectation": 0.5, "stddev": 0.03, "gmd": 0.25, "cte": 0.34}
DEDUCTIBLE, COVERAGE = 1000.0, 50_000.0
PREMIUM = 418.0
GRID = (100.0, 150.0, 200.0, 250.0, 500.0, 1000.0)
LR_TARGET, QUANTILE_LEVEL = 0.40, 0.995
CRN_HOMES, CRN_REPS = 500, 10_000
LG_HOMES, LG_REPS = 500, 2_000
WARM_RUNS, WARM_HOMES, WARM_REPS = 5_000, 500, 200
SE_LIMIT = 5.0


class CommandFailed(RuntimeError):
    pass


@dataclass(frozen=True)
class Step:
    """One command of a pass.  ``metric`` names the end-to-end time it feeds."""

    metric: str
    run: Callable[[Path], object]
    mc_rows: int = 0


def run_cli(argv: list[str]) -> None:
    from homecyber import cli  # looked up per call, so the tracer's wrapper applies

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.cli_dispatch(argv)
    if rc != 0:
        raise CommandFailed(f"{argv[0]} exited {rc}: {err.getvalue().strip()}")


def cli_step(metric: str, argv: list[str], mc_rows: int = 0) -> Step:
    return Step(metric, lambda out: run_cli([*argv, "--out", str(out)]), mc_rows)


def read_table(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def read_blocks(path: Path) -> dict[str, dict[str, str]]:
    """Rows of a multi-block report keyed by their ``Label`` cell."""
    rows: dict[str, dict[str, str]] = {}
    header: list[str] = []
    for record in csv.reader(path.read_text().splitlines()):
        if record and record[0] == "Label":
            header = record
        else:
            rows[record[0]] = dict(zip(header, record))
    return rows


def close(a: float, b: float, rel: float) -> bool:
    return math.isclose(a, b, rel_tol=rel, abs_tol=0.0)


def partial_moment(dist, k: int, u: float) -> float:
    """E[L^k; L <= u] for an exponential, gamma or lognormal loss law."""
    from homecyber.losses import Exponential, Lognormal

    if isinstance(dist, Lognormal):
        mu, sigma = dist.mu, dist.sigma
        z = (math.log(u) - mu - k * sigma ** 2) / sigma
        return math.exp(k * mu + (k * sigma) ** 2 / 2.0) * float(special.ndtr(z))
    alpha, beta = (1.0, dist.rate) if isinstance(dist, Exponential) else (dist.alpha, dist.beta)
    return float(special.poch(alpha, k) / beta ** k * special.gammainc(alpha + k, beta * u))


def retained_second_moment(dist) -> float:
    """E[Y^2] for Y = min((L - d)+, C), from partial moments of L."""
    if dist.mean() == 0.0:
        return 0.0
    d, top = DEDUCTIBLE, DEDUCTIBLE + COVERAGE
    band = [partial_moment(dist, k, top) - partial_moment(dist, k, d) for k in range(3)]
    tail = 1.0 - partial_moment(dist, 0, top)
    return band[2] - 2.0 * d * band[1] + d * d * band[0] + COVERAGE ** 2 * tail


def _flag_list(flags: dict) -> list[str]:
    return [part for key, value in flags.items() for part in (f"--{key}", str(value))]


def single_home_steps(scenario_path: Path, seed: int, runs: int) -> list[Step]:
    common = ["--scenario", str(scenario_path), "--runs", str(runs),
              "--seed", str(seed), "--workers", "1"]
    thetas = _flag_list({
        "theta-expectation": THETAS["expectation"], "theta-stddev": THETAS["stddev"],
        "theta-gmd": THETAS["gmd"], "beta-cte": THETAS["cte"],
    })
    policy = _flag_list({"deductible": DEDUCTIBLE, "coverage": COVERAGE})
    return [
        cli_step("simulate_s", ["simulate", *common], runs),
        cli_step("price_s", ["price", *common, *thetas, *policy], runs),
        cli_step("calibrate_s", ["calibrate", *common, "--line", "4", "--target", "28"], runs),
    ]


def crn_steps(scenario_path: Path, seed: int, homes: int, reps: int) -> list[Step]:
    size = ["--homes", str(homes), "--replications", str(reps),
            "--seed", str(seed), "--workers", "2"]
    sc = ["--scenario", str(scenario_path)]
    grid = ",".join(str(d) for d in GRID)
    quantile = _flag_list({"strategy": "quantile", "quantile-level": QUANTILE_LEVEL,
                           "lr-target": LR_TARGET})
    rows = homes * reps
    return [
        cli_step("portfolio_s", ["portfolio", *sc, "--premium", str(PREMIUM),
                                 "--deductible", str(DEDUCTIBLE),
                                 "--coverage", str(COVERAGE), *size], rows),
        cli_step("solve_premium_s", ["solve-premium", *sc, "--deductible", str(DEDUCTIBLE),
                                     "--coverage", str(COVERAGE), *quantile, *size], rows),
        cli_step("search_deductible_s", ["search-deductible", *sc, "--premium", str(PREMIUM),
                                         "--coverage", str(COVERAGE), "--grid", grid,
                                         *quantile, *size], rows),
        cli_step("propose_s", ["propose", *sc, "--premiums", "418,307,368,408",
                               "--coverage", str(COVERAGE), "--grid", grid, *size], rows),
    ]


def warm_up_steps(seed: int) -> list[Step]:
    """Every command once, on the bundled scenario at a small size.

    A run makes this pass twice, untimed, before its timed passes, so that
    imports, lazy set-up, the small caches and the first call of every code
    path (the thread pool's too) are paid before timing starts.  It takes
    about a second, where a full pass takes 13 to 20.
    """
    from homecyber import losses, scenario

    path = scenario.bundled_case_study_path()

    def exact_means(out: Path) -> list[float]:
        sc = scenario.load_scenario(path)
        return [losses.exact_line_mean(line, sc.graph) for line in sc.lines]

    return [
        cli_step("enumerate_s", ["enumerate", "--scenario", str(path)]),
        Step("exact_means_s", exact_means),
        *single_home_steps(path, seed, WARM_RUNS),
        *crn_steps(path, seed, WARM_HOMES, WARM_REPS),
    ]


class Workload:
    name = ""
    seed: int
    scenario_path: Path

    def steps(self) -> list[Step]:
        raise NotImplementedError

    def check(self, pass_dir: Path, values: dict[str, object]) -> dict[str, list[str]]:
        """Failure messages per step metric for one finished pass."""
        raise NotImplementedError

    def describe(self) -> dict:
        return {"scenario": str(self.scenario_path)}

    def check_inputs(self) -> list[str] | None:
        """Failure messages for the generated inputs; None when none are generated."""
        return None


class SingleHome(Workload):
    name = "single-home"

    def __init__(self, seed: int, work: Path):
        from homecyber import graph, losses, scenario, simulate

        self.seed = seed
        self.scenario_path = scenario.bundled_case_study_path()
        sc = scenario.load_scenario(self.scenario_path)
        self.lines = sc.lines
        # Exact per-line moments of the gross loss L and the retained loss
        # Y = min((L - d)+, C).  Standard errors come from the exact SD: the
        # sample SD of a heavy-tailed line understates it in unlucky samples.
        joint = graph.enumerate_joint(sc.graph)
        states = [(float(p), joint.state_of(i)) for i, p in enumerate(joint.probs)]
        self.gross, self.retained = [], []
        for line in sc.lines:
            dists = [(p, losses.conditional_distribution(line, s, sc.graph)) for p, s in states]
            mean = losses.exact_line_mean(line, sc.graph)
            second = math.fsum(p * (d.variance() + d.mean() ** 2) for p, d in dists)
            self.gross.append((mean, math.sqrt(second - mean ** 2)))
            r_mean = math.fsum(
                p * losses.limited_expected_value_of(d, DEDUCTIBLE, COVERAGE) for p, d in dists)
            r_second = math.fsum(p * retained_second_moment(d) for p, d in dists)
            self.retained.append((r_mean, math.sqrt(r_second - r_mean ** 2)))
        # calibrate draws the same runs as simulate: same scenario, runs and seed
        result = simulate.run_simulation(sc.graph, sc.lines, RUNS, seed)
        self.line4 = result.line_losses[:, result.line_indices.index(4)].copy()

    def steps(self) -> list[Step]:
        return single_home_steps(self.scenario_path, self.seed, RUNS)

    def check(self, pass_dir, values):
        from homecyber import pricing

        failures = {"simulate_s": [], "price_s": [], "calibrate_s": []}
        rows = read_table(pass_dir / "simulate_s" / "summary.csv")
        if len(rows) != len(self.lines) + 1:
            failures["simulate_s"].append(f"summary has {len(rows)} rows")
        for line, (exact, sd), row in zip(self.lines, self.gross, rows):
            mean, se = float(row["Mean"]), sd / math.sqrt(RUNS)
            if not abs(mean - exact) <= SE_LIMIT * se:
                failures["simulate_s"].append(
                    f"line {line.index}: mean {mean} vs exact {exact} (SE {se})")

        rows = read_table(pass_dir / "price_s" / "premiums.csv")
        for line, (exact, sd), row in zip(self.lines, self.retained, rows):
            prem = [float(row[f"rho{k}"]) for k in range(1, 5)]
            # rho1 = (1 + theta) * mean of the retained samples
            mean, se = prem[0] / (1.0 + THETAS["expectation"]), sd / math.sqrt(RUNS)
            if not all(math.isfinite(p) for p in prem):
                failures["price_s"].append(f"line {line.index}: non-finite premium {prem}")
            elif min(prem) < mean * (1.0 - 1e-12):
                failures["price_s"].append(
                    f"line {line.index}: premium {min(prem)} below retained mean {mean}")
            if not abs(mean - exact) <= SE_LIMIT * se:
                failures["price_s"].append(
                    f"line {line.index}: retained mean {mean} vs exact {exact} (SE {se})")

        kinds = {"expectation": pricing.Expectation, "stddev": pricing.StdDev,
                 "gmd": pricing.GMD, "cte": pricing.CTE}
        rows = read_table(pass_dir / "calibrate_s" / "calibration.csv")
        if [r["Family"] for r in rows] != list(kinds):
            failures["calibrate_s"].append(f"families {[r['Family'] for r in rows]}")
        for row in rows:
            if row["Parameter"]:
                param = kinds[row["Family"]](float(row["Parameter"]))
                got = pricing.premium(self.line4, param)
                # calibrate itself accepts a CTE within 1e-6 of the target
                if not close(got, 28.0, 2e-6):
                    failures["calibrate_s"].append(f"{row['Family']}: round trip gives {got}")
            elif not row["Note"].split(":")[0].endswith("Error"):
                failures["calibrate_s"].append(f"{row['Family']}: no parameter, no reason")
        return failures


class PortfolioCRN(Workload):
    name = "portfolio-crn"

    def __init__(self, seed: int, work: Path):
        from homecyber import scenario

        self.seed = seed
        self.scenario_path = scenario.bundled_case_study_path()

    def steps(self) -> list[Step]:
        return crn_steps(self.scenario_path, self.seed, CRN_HOMES, CRN_REPS)

    def check(self, pass_dir, values):
        failures = {"portfolio_s": [], "solve_premium_s": [],
                    "search_deductible_s": [], "propose_s": []}
        lr = read_blocks(pass_dir / "portfolio_s" / "portfolio.csv")["portfolio LR"]
        if not 0.05 <= float(lr["Mean"]) <= 0.09:
            failures["portfolio_s"].append(f"mean LR {lr['Mean']} outside [0.05, 0.09]")
        q_lr = float(lr["Q99.5"])

        premium = float(read_table(pass_dir / "solve_premium_s" / "premium.csv")[0][
            "Premium per home"])
        # LR statistics scale as 1/premium on the same claims
        if not close(premium, q_lr * PREMIUM / LR_TARGET, 1e-9):
            failures["solve_premium_s"].append(
                f"premium {premium} vs {q_lr} * {PREMIUM} / {LR_TARGET}")

        rows = read_table(pass_dir / "search_deductible_s" / "search.csv")
        stats = [float(r["LR statistic"]) for r in rows]
        if [float(r["Deductible"]) for r in rows] != list(GRID):
            failures["search_deductible_s"].append("grid mismatch")
        if any(b > a for a, b in zip(stats, stats[1:])):
            failures["search_deductible_s"].append(f"statistics not monotone: {stats}")
        if stats[GRID.index(DEDUCTIBLE)] != q_lr:
            failures["search_deductible_s"].append(
                f"d={DEDUCTIBLE} statistic differs from portfolio Q99.5 {q_lr}")
        for r, s in zip(rows, stats):
            if (r["Feasible"] == "yes") != (s <= LR_TARGET):
                failures["search_deductible_s"].append(f"feasible flag wrong at {r}")
        chosen = next((d for d, s in zip(GRID, stats) if s <= LR_TARGET), None)

        proposals = {r["Principle"]: r for r in
                     read_table(pass_dir / "propose_s" / "proposals.csv")}
        pick = proposals["rho1"]["Deductible 2"]
        if (float(pick) if pick else None) != chosen:
            failures["propose_s"].append(f"rho1 quantile pick {pick!r} vs search {chosen}")
        return failures


class LargeGraph(Workload):
    name = "large-graph"

    def __init__(self, seed: int, work: Path):
        from homecyber import scenario

        self.seed = seed
        self.scenario_path = work / "large_graph.json"
        self.scenario_path.write_text(scenario_gen.to_json(seed))
        sc = scenario.load_scenario(self.scenario_path)
        self.scenario = sc
        self.digest = scenario.scenario_digest(sc)

    def describe(self) -> dict:
        sc = self.scenario
        return {"scenario": str(self.scenario_path.name), "nodes": sc.graph.n,
                "edges": len(sc.graph.edges), "lines": len(sc.lines),
                "digest": self.digest}

    def check_inputs(self) -> list[str]:
        # A fresh interpreter has another hash seed, so this catches output
        # that depends on set or dict order as well as on the random stream.
        done = subprocess.run(
            [sys.executable, str(Path(scenario_gen.__file__)), "--seed", str(self.seed)],
            capture_output=True, text=True,
        )
        if done.returncode != 0:
            return [f"scenario_gen exited {done.returncode}: {done.stderr.strip()}"]
        if done.stdout != self.scenario_path.read_text():
            return [f"scenario_gen gives other JSON for seed {self.seed} in a fresh process"]
        return []

    def exact_means(self, out: Path) -> list[float]:
        from homecyber import losses  # looked up per call, so the tracer's wrapper applies

        return [losses.exact_line_mean(line, self.scenario.graph) for line in self.scenario.lines]

    def steps(self) -> list[Step]:
        sc = ["--scenario", str(self.scenario_path)]
        return [
            cli_step("enumerate_s", ["enumerate", *sc]),
            Step("exact_means_s", self.exact_means),
            cli_step("portfolio_s", ["portfolio", *sc, "--premium", str(PREMIUM),
                                     "--deductible", str(DEDUCTIBLE),
                                     "--coverage", str(COVERAGE), "--homes", str(LG_HOMES),
                                     "--replications", str(LG_REPS), "--seed", str(self.seed),
                                     "--workers", "1"], LG_HOMES * LG_REPS),
        ]

    def check(self, pass_dir, values):
        from homecyber.losses import RateSumExponential, TriggeredLognormal

        failures = {"enumerate_s": [], "exact_means_s": [], "portfolio_s": []}
        graph = self.scenario.graph
        with open(pass_dir / "enumerate_s" / "joint.csv") as f:
            header = next(f).rstrip("\n").split(",")
            probs = [float(row.rsplit(",", 1)[1]) for row in f]
        if header != [*(f"S{nid}" for nid in graph.node_ids), "Prob"]:
            failures["enumerate_s"].append("joint.csv header")
        if len(probs) != 1 << graph.n:
            failures["enumerate_s"].append(f"joint.csv has {len(probs)} rows")
        total = math.fsum(probs)
        if not abs(total - 1.0) <= 1e-12:
            failures["enumerate_s"].append(f"joint probabilities sum to {total!r}")
        marg = {int(r["Node"]): float(r["Prob"])
                for r in read_table(pass_dir / "enumerate_s" / "marginals.csv")}
        for node in graph.nodes:
            if node.entry_prob is not None and not abs(marg[node.id] - node.entry_prob) <= 1e-12:
                failures["enumerate_s"].append(
                    f"entry node {node.id}: marginal {marg[node.id]} vs {node.entry_prob}")

        # P(line fires) lies between the largest trigger marginal and their sum
        for line, value in zip(self.scenario.lines, values["exact_means_s"]):
            lo = max(marg[t] for t in line.trigger_set)
            hi = min(1.0, sum(marg[t] for t in line.trigger_set))
            model = line.model
            if isinstance(model, RateSumExponential):
                rates = [r for _, r in model.rates]
                lo, hi = lo / sum(rates), hi / min(rates)
            elif isinstance(model, TriggeredLognormal):
                scale = math.exp(model.mu + model.sigma ** 2 / 2.0)
                lo, hi = lo * scale, hi * scale
            else:
                lo, hi = lo * model.alpha / model.beta, hi * model.alpha / model.beta
            if not (math.isfinite(value) and lo * (1 - 1e-9) <= value <= hi * (1 + 1e-9)):
                failures["exact_means_s"].append(
                    f"line {line.index}: exact mean {value} outside [{lo}, {hi}]")

        blocks = read_blocks(pass_dir / "portfolio_s" / "portfolio.csv")
        income = LG_HOMES * PREMIUM
        profit, lr = blocks["portfolio Profit"], blocks["portfolio LR"]
        # claim = income - profit must lie in [0, N * C]
        claim_lo, claim_hi = income - float(profit["Max"]), income - float(profit["Min"])
        if not (-1e-6 <= claim_lo and claim_hi <= LG_HOMES * COVERAGE + 1e-6):
            failures["portfolio_s"].append(f"claims span [{claim_lo}, {claim_hi}]")
        if float(lr["Min"]) < 0.0:
            failures["portfolio_s"].append(f"negative LR {lr['Min']}")
        return failures


WORKLOADS = {w.name: w for w in (SingleHome, PortfolioCRN, LargeGraph)}

"""Command-line entry points: validate, enumerate, simulate, price, calibrate,
portfolio, search-deductible, solve-premium, and propose.

Every simulation-bearing command takes --seed and, when it writes files,
records a run manifest (scenario digest, seed, run counts, stream layout,
tool version) next to its outputs.  Identical scenario + flags + seed give
byte-identical outputs.  --workers N draws run blocks and replication
groups on up to N threads (never more than there are blocks or CPUs); the
outputs are the same bytes for every N.
"""

import argparse
import sys
from pathlib import Path

from . import __version__, pricing, reports, search
from .graph import check_enumerable, enumerate_joint, validate_graph
from .portfolio import PortfolioSpec, simulate_portfolio
from .pricing import CTE, CalibrationError, Expectation, GMD, Policy, StdDev
from .scenario import (
    RunManifest,
    Scenario,
    load_scenario,
    scenario_digest,
    write_manifest,
)
from .simulate import run_simulation


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="homecyber",
        description="Price smart-home cyber insurance from a vulnerability-graph scenario.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def scenario_arg(p):
        p.add_argument("--scenario", required=True, help="scenario JSON file")

    def seeded(p, *sizes):
        """Required int flags ``sizes``, then --seed and --workers."""
        for flag in sizes:
            p.add_argument(flag, type=int, required=True)
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--workers", type=_workers, default=1,
                       help="threads that draw blocks (>= 1); outputs do not depend on it")

    p = sub.add_parser("validate", help="check a scenario file against all invariants")
    scenario_arg(p)

    p = sub.add_parser("enumerate", help="exact joint state distribution and marginals")
    scenario_arg(p)
    p.add_argument("--out", help="directory for joint.csv and marginals.csv")

    p = sub.add_parser("simulate", help="Monte Carlo line losses and summary table")
    scenario_arg(p)
    seeded(p, "--runs")
    p.add_argument("--out", help="directory for summary.csv and manifest.json")

    p = sub.add_parser("price", help="per-line premium table under the four principles")
    scenario_arg(p)
    seeded(p, "--runs")
    p.add_argument("--theta-expectation", type=float, required=True)
    p.add_argument("--theta-stddev", type=float, required=True)
    p.add_argument("--theta-gmd", type=float, required=True)
    p.add_argument("--beta-cte", type=float, required=True)
    p.add_argument("--deductible", type=float, help="price retained losses (with --coverage)")
    p.add_argument("--coverage", type=float)
    p.add_argument("--out", help="directory for premiums.csv and manifest.json")

    p = sub.add_parser("calibrate", help="solve principle parameters for a baseline premium")
    scenario_arg(p)
    seeded(p, "--runs")
    p.add_argument("--line", type=int, required=True, help="business line index")
    p.add_argument("--target", type=float, required=True, help="baseline premium")
    p.add_argument("--deductible", type=float, help="calibrate on retained losses")
    p.add_argument("--coverage", type=float)
    p.add_argument("--out", help="directory for calibration.csv and manifest.json")

    p = sub.add_parser("portfolio", help="portfolio Profit and LR report")
    scenario_arg(p)
    p.add_argument("--premium", type=float, required=True, help="total premium per home")
    p.add_argument("--deductible", type=float, required=True)
    p.add_argument("--coverage", type=float, required=True)
    seeded(p, "--homes", "--replications")
    p.add_argument("--out", help="directory for portfolio.csv and manifest.json")

    def strategy_args(p):
        p.add_argument("--strategy", choices=("mean", "quantile"), required=True)
        p.add_argument("--lr-target", type=float, required=True)
        p.add_argument("--quantile-level", type=float, default=0.995)

    p = sub.add_parser("search-deductible", help="smallest feasible deductible on a grid")
    scenario_arg(p)
    p.add_argument("--premium", type=float, required=True, help="total premium per home")
    p.add_argument("--coverage", type=float, required=True)
    p.add_argument("--grid", required=True, help="ascending deductibles, e.g. 100,150,200")
    strategy_args(p)
    seeded(p, "--homes", "--replications")
    p.add_argument("--out", help="directory for search.csv and manifest.json")

    p = sub.add_parser("solve-premium", help="premium that meets an LR target")
    scenario_arg(p)
    p.add_argument("--deductible", type=float, required=True)
    p.add_argument("--coverage", type=float, required=True)
    strategy_args(p)
    seeded(p, "--homes", "--replications")
    p.add_argument("--out", help="directory for premium.csv and manifest.json")

    p = sub.add_parser("propose", help="proposed deductibles per principle (both strategies)")
    scenario_arg(p)
    p.add_argument("--premiums", required=True, help="per-principle totals, e.g. 418,307,368,408")
    p.add_argument("--labels", help="principle labels matching --premiums")
    p.add_argument("--coverage", type=float, required=True)
    p.add_argument("--grid", required=True)
    p.add_argument("--mean-target", type=float, default=0.40)
    p.add_argument("--quantile-level", type=float, default=0.995)
    p.add_argument("--quantile-target", type=float, default=0.40)
    seeded(p, "--homes", "--replications")
    p.add_argument("--out", help="directory for proposals.csv and manifest.json")

    return parser


def _workers(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _parse_floats(text: str, flag: str) -> tuple[float, ...]:
    try:
        values = tuple(float(v) for v in text.split(","))
    except ValueError:
        raise SystemExit(f"error: {flag} expects comma-separated numbers, got {text!r}")
    if not values:
        raise SystemExit(f"error: {flag} is empty")
    return values


def _strategy(args) -> search.LRStrategy:
    if args.strategy == "mean":
        return search.MeanLR(args.lr_target)
    return search.QuantileLR(args.quantile_level, args.lr_target)


def _manifest(scenario: Scenario, args) -> RunManifest:
    return RunManifest(
        scenario_digest=scenario_digest(scenario),
        master_seed=args.seed,
        runs=getattr(args, "runs", None),
        replications=getattr(args, "replications", None),
        homes=getattr(args, "homes", None),
    )


def _emit(table: reports.Table, out: str | None, filename: str, manifest: RunManifest):
    if out:
        path = reports.export_csv(table, Path(out) / filename)
        write_manifest(manifest, Path(out))
        print(f"wrote {path}")
    else:
        sys.stdout.write(reports.render_csv(table))


def _line_samples(scenario, args):
    if args.deductible is not None and args.coverage is None:
        raise SystemExit("error: --deductible requires --coverage")
    if args.coverage is not None and args.deductible is None:
        raise SystemExit("error: --coverage requires --deductible")
    result = run_simulation(scenario.graph, scenario.lines, args.runs, args.seed, args.workers)
    if args.deductible is None:
        return result, result.line_losses
    policy = Policy(args.deductible, args.coverage)
    return result, pricing.apply_retention(result.line_losses, policy)


def cli_dispatch(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return _run(args)
    except SystemExit as exc:
        message = exc.code
        if isinstance(message, str):
            print(message, file=sys.stderr)
            return 2
        return int(message) if message is not None else 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def _run(args) -> int:
    scenario = load_scenario(args.scenario)

    if args.command == "validate":
        report = validate_graph(scenario.graph)
        check_enumerable(scenario.graph)  # every other command needs the joint
        # load_scenario already rejects invalid files; report for transparency
        print(f"scenario OK: {scenario.graph.n} nodes, {len(scenario.lines)} lines, "
              f"digest {scenario_digest(scenario)}")
        return 0 if report.ok else 1

    if args.command == "enumerate":
        joint = enumerate_joint(scenario.graph)
        marg_tbl = reports.marginals_table(scenario.graph, joint.marginals())
        if args.out:
            joint_path = Path(args.out) / "joint.csv"
            joint_path.parent.mkdir(parents=True, exist_ok=True)
            with open(joint_path, "w") as f:
                reports.write_joint_csv(joint, f)
            path = reports.export_csv(marg_tbl, Path(args.out) / "marginals.csv")
            print(f"wrote {path.parent}/joint.csv and {path}")
        else:
            reports.write_joint_csv(joint, sys.stdout)
            sys.stdout.write(reports.render_csv(marg_tbl))
        return 0

    if args.command == "simulate":
        result = run_simulation(scenario.graph, scenario.lines, args.runs, args.seed, args.workers)
        table = reports.summary_table(result)
        _emit(table, args.out, "summary.csv", _manifest(scenario, args))
        return 0

    if args.command == "price":
        params = {
            "rho1": Expectation(args.theta_expectation),
            "rho2": StdDev(args.theta_stddev),
            "rho3": GMD(args.theta_gmd),
            "rho4": CTE(args.beta_cte),
        }
        result, samples = _line_samples(scenario, args)
        per_principle = {
            name: [
                pricing.premium(samples[:, col], param)
                for col in range(samples.shape[1])
            ]
            for name, param in params.items()
        }
        labels = [f"L{idx}" for idx in result.line_indices]
        table = reports.premium_table(labels, per_principle)
        _emit(table, args.out, "premiums.csv", _manifest(scenario, args))
        return 0

    if args.command == "calibrate":
        if args.line not in {line.index for line in scenario.lines}:
            raise SystemExit(f"error: no business line with index {args.line}")
        pricing.check_target_premium(args.target)
        result, samples = _line_samples(scenario, args)
        col = result.line_indices.index(args.line)
        rows = []
        for family in pricing.FAMILIES:
            try:
                param = pricing.calibrate(family, samples[:, col], args.target)
            except CalibrationError as exc:
                rows.append((family, "", f"{type(exc).__name__}: {exc}"))
                print(f"{family}: not calibrated ({exc})")
            else:
                value = param.beta if isinstance(param, CTE) else param.theta
                rows.append((family, float(value), ""))
                print(f"{family}: {value!r}")
        table = reports.Table(header=("Family", "Parameter", "Note"), rows=tuple(rows))
        if args.out:
            reports.export_csv(table, Path(args.out) / "calibration.csv")
            write_manifest(_manifest(scenario, args), Path(args.out))
        return 0

    if args.command == "portfolio":
        spec = PortfolioSpec(
            n_homes=args.homes,
            policy=Policy(args.deductible, args.coverage),
            premium_per_home=args.premium,
            replications=args.replications,
        )
        result = simulate_portfolio(scenario.graph, scenario.lines, spec, args.seed, args.workers)
        profit_tbl, lr_tbl = reports.portfolio_tables([("portfolio", result)])
        if args.out:
            reports.export_csv_blocks([profit_tbl, lr_tbl], Path(args.out) / "portfolio.csv")
            write_manifest(_manifest(scenario, args), Path(args.out))
            print(f"wrote {Path(args.out) / 'portfolio.csv'}")
        else:
            sys.stdout.write(reports.render_csv(profit_tbl))
            sys.stdout.write(reports.render_csv(lr_tbl))
        return 0

    if args.command == "search-deductible":
        grid = _parse_floats(args.grid, "--grid")
        result = search.search_deductible(
            scenario.graph,
            scenario.lines,
            premiums_total=args.premium,
            coverage=args.coverage,
            grid=grid,
            strategy=_strategy(args),
            n_homes=args.homes,
            replications=args.replications,
            master_seed=args.seed,
            workers=args.workers,
        )
        rows = tuple(
            (d, stat, "yes" if ok else "no")
            for d, stat, ok in zip(result.grid, result.statistics, result.feasible)
        )
        table = reports.Table(header=("Deductible", "LR statistic", "Feasible"), rows=rows)
        _emit(table, args.out, "search.csv", _manifest(scenario, args))
        if result.chosen is None:
            print("no feasible deductible on the grid")
            return 1
        print(f"smallest feasible deductible: {result.chosen!r}")
        return 0

    if args.command == "solve-premium":
        premium = search.solve_premium(
            scenario.graph,
            scenario.lines,
            Policy(args.deductible, args.coverage),
            _strategy(args),
            n_homes=args.homes,
            replications=args.replications,
            master_seed=args.seed,
            workers=args.workers,
        )
        table = reports.Table(
            header=("Strategy", "LR target", "Premium per home"),
            rows=((args.strategy, args.lr_target, premium),),
        )
        _emit(table, args.out, "premium.csv", _manifest(scenario, args))
        print(f"premium per home: {premium!r}")
        return 0

    if args.command == "propose":
        totals = _parse_floats(args.premiums, "--premiums")
        if args.labels:
            labels = tuple(args.labels.split(","))
            if len(labels) != len(totals):
                raise SystemExit("error: --labels must match --premiums in length")
        else:
            labels = tuple(f"rho{i + 1}" for i in range(len(totals)))
        rows = search.report_proposals(
            scenario.graph,
            scenario.lines,
            premiums=list(zip(labels, totals)),
            coverage=args.coverage,
            grid=_parse_floats(args.grid, "--grid"),
            n_homes=args.homes,
            replications=args.replications,
            master_seed=args.seed,
            mean_target=args.mean_target,
            quantile_level=args.quantile_level,
            quantile_target=args.quantile_target,
            workers=args.workers,
        )
        table = reports.proposal_table(rows)
        _emit(table, args.out, "proposals.csv", _manifest(scenario, args))
        return 0

    raise SystemExit(f"error: unknown command {args.command!r}")


def main() -> None:
    raise SystemExit(cli_dispatch())


if __name__ == "__main__":
    main()

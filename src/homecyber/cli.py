"""Command-line entry points: validate, enumerate, simulate, price, calibrate,
portfolio, search-deductible, solve-premium, and propose.

The parser is built from one command table.  With --out DIR a command
writes its files to DIR, one ``wrote PATH`` line each, and a run manifest
(scenario digest, seed, run counts, stream layout, tool version) when it
takes --seed; without --out the same bytes go to stdout.  The same
scenario, flags and seed give byte-identical outputs for any --workers N.
"""

import argparse
import sys
from pathlib import Path

from . import __version__, pricing, reports, search
from .graph import check_enumerable, enumerate_joint
from .portfolio import PortfolioSpec, simulate_portfolio
from .pricing import CTE, CalibrationError, Expectation, GMD, Policy, StdDev
from .scenario import RunManifest, Scenario, load_scenario, scenario_digest, write_manifest
from .simulate import run_simulation


def _workers(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _flags(kind, *names, **options):
    """One (name, add_argument keywords) pair per flag in ``names``, all of type ``kind``."""
    return tuple((name, {"type": kind, **options}) for name in names)


WORKERS = _flags(_workers, "--workers", default=1,
                 help="threads that draw blocks (>= 1); outputs do not depend on it")
# a seeded command's size flags, then --seed and --workers
RUNS = (*_flags(int, "--runs", "--seed", required=True), *WORKERS)
PORTFOLIO_SIZES = (*_flags(int, "--homes", "--replications", "--seed", required=True), *WORKERS)
STRATEGY = (*_flags(None, "--strategy", choices=("mean", "quantile"), required=True),
            *_flags(float, "--lr-target", required=True),
            *_flags(float, "--quantile-level", default=0.995))

# name -> (summary, flags, files, handler), in the order the parser lists them;
# a command writes its files in order, and takes --out when it writes any
COMMANDS: dict = {}


def _command(name: str, summary: str, files: tuple[str, ...], *flags):
    """Register ``handler(scenario, args)``, which returns an exit code or None for 0."""
    def register(handler):
        COMMANDS[name] = (summary, flags, files, handler)
        return handler
    return register


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="homecyber",
        description="Price smart-home cyber insurance from a vulnerability-graph scenario.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, flags, files, handler) in COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        p.add_argument("--scenario", required=True, help="scenario JSON file")
        for flag, options in flags:
            p.add_argument(flag, **options)
        if files:
            seeded = any(flag == "--seed" for flag, _ in flags)
            written = (*files, "manifest.json") if seeded else files
            p.add_argument("--out", help=f"directory for {' and '.join(written)}")
        p.set_defaults(handler=handler, files=files)
    return parser


def _parse_floats(text: str, flag: str) -> tuple[float, ...]:
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError:
        raise SystemExit(f"error: {flag} expects comma-separated numbers, got {text!r}")


def _strategy(args) -> search.LRStrategy:
    if args.strategy == "mean":
        return search.MeanLR(args.lr_target)
    return search.QuantileLR(args.quantile_level, args.lr_target)


def _write(scenario: Scenario, args, *bodies) -> None:
    """Write the command's files (``args.files``, in order) to --out or to stdout.

    A body is a table, a tuple of tables written one after the other, or a
    function that streams its file to an open text stream (joint.csv has
    2^n rows, so it is never built as one string).  With --out, each file
    gets one ``wrote PATH`` line, and a seeded command also writes
    manifest.json; without it, the files' bytes go to stdout in order.
    """
    for name, body in zip(args.files, bodies, strict=True):
        path = Path(args.out) / name if args.out else None
        if path and callable(body):
            path.parent.mkdir(parents=True, exist_ok=True)
            with open(path, "w") as f:
                body(f)
        elif path:
            reports.export_csv(body, path)
        elif callable(body):
            body(sys.stdout)
        else:
            sys.stdout.write(reports.render_csv(body))
        if path:
            print(f"wrote {path}")
    if args.out and hasattr(args, "seed"):
        sizes = {size: getattr(args, size, None) for size in ("runs", "replications", "homes")}
        write_manifest(RunManifest(scenario_digest(scenario), args.seed, **sizes), Path(args.out))


def _portfolio_args(scenario, args) -> dict:
    """The arguments every portfolio search takes, by keyword."""
    return {"graph": scenario.graph, "lines": scenario.lines, "n_homes": args.homes,
            "replications": args.replications, "master_seed": args.seed, "workers": args.workers}


def _line_samples(scenario, args):
    for given, needed in (("deductible", "coverage"), ("coverage", "deductible")):
        if getattr(args, given) is not None and getattr(args, needed) is None:
            raise SystemExit(f"error: --{given} requires --{needed}")
    result = run_simulation(scenario.graph, scenario.lines, args.runs, args.seed, args.workers)
    if args.deductible is None:
        return result, result.line_losses
    policy = Policy(args.deductible, args.coverage)
    return result, pricing.apply_retention(result.line_losses, policy)


@_command("validate", "check a scenario file against all invariants", ())
def _validate(scenario, args) -> None:
    # load_scenario has rejected invalid graphs; every other command needs the joint
    check_enumerable(scenario.graph)
    print(f"scenario OK: {scenario.graph.n} nodes, {len(scenario.lines)} lines, "
          f"digest {scenario_digest(scenario)}")


@_command("enumerate", "exact joint state distribution and marginals",
          ("joint.csv", "marginals.csv"))
def _enumerate(scenario, args) -> None:
    joint = enumerate_joint(scenario.graph)
    marginals = reports.marginals_table(scenario.graph, joint.marginals())
    _write(scenario, args, lambda out: reports.write_joint_csv(joint, out), marginals)


@_command("simulate", "Monte Carlo line losses and summary table", ("summary.csv",), *RUNS)
def _simulate(scenario, args) -> None:
    result = run_simulation(scenario.graph, scenario.lines, args.runs, args.seed, args.workers)
    _write(scenario, args, reports.summary_table(result))


@_command("price", "per-line premium table under the four principles", ("premiums.csv",), *RUNS,
          *_flags(float, "--theta-expectation", "--theta-stddev", "--theta-gmd", "--beta-cte",
                  required=True),
          *_flags(float, "--deductible", help="price retained losses (with --coverage)"),
          *_flags(float, "--coverage"))
def _price(scenario, args) -> None:
    # principles rho1..rho4, built before simulating so a bad loading fails fast
    params = (Expectation(args.theta_expectation), StdDev(args.theta_stddev),
              GMD(args.theta_gmd), CTE(args.beta_cte))
    result, samples = _line_samples(scenario, args)
    per_principle = {
        f"rho{k}": [pricing.premium(column, param) for column in samples.T]
        for k, param in enumerate(params, 1)
    }
    labels = [f"L{idx}" for idx in result.line_indices]
    _write(scenario, args, reports.premium_table(labels, per_principle))


@_command("calibrate", "solve principle parameters for a baseline premium", ("calibration.csv",),
          *RUNS,
          *_flags(int, "--line", required=True, help="business line index"),
          *_flags(float, "--target", required=True, help="baseline premium"),
          *_flags(float, "--deductible", help="calibrate on retained losses"),
          *_flags(float, "--coverage"))
def _calibrate(scenario, args) -> None:
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
    _write(scenario, args, reports.Table(header=("Family", "Parameter", "Note"), rows=tuple(rows)))


@_command("portfolio", "portfolio Profit and LR report", ("portfolio.csv",),
          *_flags(float, "--premium", required=True, help="total premium per home"),
          *_flags(float, "--deductible", "--coverage", required=True), *PORTFOLIO_SIZES)
def _portfolio(scenario, args) -> None:
    spec = PortfolioSpec(
        n_homes=args.homes,
        policy=Policy(args.deductible, args.coverage),
        premium_per_home=args.premium,
        replications=args.replications,
    )
    result = simulate_portfolio(scenario.graph, scenario.lines, spec, args.seed, args.workers)
    _write(scenario, args, reports.portfolio_tables([("portfolio", result)]))


@_command("search-deductible", "smallest feasible deductible on a grid", ("search.csv",),
          *_flags(float, "--premium", required=True, help="total premium per home"),
          *_flags(float, "--coverage", required=True),
          *_flags(None, "--grid", required=True, help="ascending deductibles, e.g. 100,150,200"),
          *STRATEGY, *PORTFOLIO_SIZES)
def _search_deductible(scenario, args) -> int | None:
    result = search.search_deductible(
        premiums_total=args.premium,
        coverage=args.coverage,
        grid=_parse_floats(args.grid, "--grid"),
        strategy=_strategy(args),
        **_portfolio_args(scenario, args),
    )
    rows = tuple(
        (d, stat, "yes" if ok else "no")
        for d, stat, ok in zip(result.grid, result.statistics, result.feasible)
    )
    _write(scenario, args,
           reports.Table(header=("Deductible", "LR statistic", "Feasible"), rows=rows))
    if result.chosen is None:
        print("no feasible deductible on the grid")
        return 1
    print(f"smallest feasible deductible: {result.chosen!r}")


@_command("solve-premium", "premium that meets an LR target", ("premium.csv",),
          *_flags(float, "--deductible", "--coverage", required=True), *STRATEGY, *PORTFOLIO_SIZES)
def _solve_premium(scenario, args) -> None:
    premium = search.solve_premium(
        policy=Policy(args.deductible, args.coverage),
        strategy=_strategy(args),
        **_portfolio_args(scenario, args),
    )
    _write(scenario, args, reports.Table(
        header=("Strategy", "LR target", "Premium per home"),
        rows=((args.strategy, args.lr_target, premium),),
    ))
    print(f"premium per home: {premium!r}")


@_command("propose", "proposed deductibles per principle (both strategies)", ("proposals.csv",),
          *_flags(None, "--premiums", required=True,
                  help="per-principle totals, e.g. 418,307,368,408"),
          *_flags(None, "--labels", help="principle labels matching --premiums"),
          *_flags(float, "--coverage", required=True), *_flags(None, "--grid", required=True),
          *_flags(float, "--mean-target", default=0.40),
          *_flags(float, "--quantile-level", default=0.995),
          *_flags(float, "--quantile-target", default=0.40), *PORTFOLIO_SIZES)
def _propose(scenario, args) -> None:
    totals = _parse_floats(args.premiums, "--premiums")
    labels = args.labels.split(",") if args.labels else [f"rho{i + 1}" for i in range(len(totals))]
    if len(labels) != len(totals):
        raise SystemExit("error: --labels must match --premiums in length")
    rows = search.report_proposals(
        premiums=list(zip(labels, totals)),
        coverage=args.coverage,
        grid=_parse_floats(args.grid, "--grid"),
        mean_target=args.mean_target,
        quantile_level=args.quantile_level,
        quantile_target=args.quantile_target,
        **_portfolio_args(scenario, args),
    )
    _write(scenario, args, reports.proposal_table(rows))


def cli_dispatch(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # --help, --version or a usage error
        return exc.code
    try:
        return args.handler(load_scenario(args.scenario), args) or 0
    except SystemExit as exc:  # a handler's usage error
        print(exc.code, file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(cli_dispatch())


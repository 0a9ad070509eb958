"""Command-line entry points: validate, enumerate, simulate, price, calibrate,
portfolio, search-deductible, solve-premium, and propose.

The parser is built from one command table.  With --out DIR a command
writes its files to DIR, one ``wrote PATH`` line each, and a run manifest
(scenario digest, seed, run counts, stream layout, tool version) when it
takes --seed; without --out the same bytes go to stdout.  The same
scenario, flags and seed give byte-identical outputs for any --workers N.
"""

import argparse
import functools
import os
import re
import sys
from pathlib import Path

from . import __version__, pricing, reports, search
from .graph import check_enumerable, enumerate_joint
from .portfolio import simulate_claims
from .pricing import CTE, CalibrationError, Expectation, GMD, Policy, StdDev
from .scenario import RunManifest, Scenario, load_scenario, scenario_digest, write_manifest
from .simulate import run_simulation


def _int_at_least(text: str, minimum: int) -> int:
    """``text`` as an int >= ``minimum``; a parse-time check, so the usage error names the flag."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < minimum:
        raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
    return value


def _workers(text: str) -> int:
    return _int_at_least(text, 1)


def _seed(text: str) -> int:
    return _int_at_least(text, 0)


def _flags(kind, *names, **options):
    """One (name, add_argument keywords) pair per flag in ``names``, all of type ``kind``."""
    return tuple((name, {"type": kind, **options}) for name in names)


WORKERS = _flags(_workers, "--workers", default=1,
                 help="threads that draw blocks (>= 1); outputs do not depend on it")
SEED = (*_flags(_seed, "--seed", required=True), *WORKERS)
# a seeded command's size flags, then --seed and --workers
RUNS = (*_flags(int, "--runs", required=True), *SEED)
PORTFOLIO_SIZES = (*_flags(int, "--homes", "--replications", required=True), *SEED)
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


@functools.cache  # one per process: parse_args keeps no state between calls
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


def _income(args, name: str, premium: float) -> float:
    """``--homes`` x ``premium``, both checked; a --homes below 1 is left to simulate_claims."""
    pricing.check_premium(name, premium)
    if args.homes >= 1:  # an overflow to inf would make every LR 0
        pricing.check_premium(f"--homes x {name}", args.homes * premium)
    return args.homes * premium


def _claims(scenario, args, policies):
    """The command's one simulation, claims of shape (len(policies), replications);
    every check of the command runs before it."""
    return simulate_claims(scenario.graph, scenario.lines, args.homes, args.replications,
                           policies, args.seed, args.workers)


def _line_samples(scenario, args):
    for given, needed in (("deductible", "coverage"), ("coverage", "deductible")):
        if getattr(args, given) is not None and getattr(args, needed) is None:
            raise SystemExit(f"error: --{given} requires --{needed}")
    # the policy is built before simulating, so a bad deductible fails fast
    policy = None if args.deductible is None else Policy(args.deductible, args.coverage)
    result = run_simulation(scenario.graph, scenario.lines, args.runs, args.seed, args.workers)
    if policy is None:
        return result, result.line_losses
    return result, pricing.retain(result.line_losses, policy.deductible, policy.coverage)


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
    per_line = [pricing.premiums(column, params) for column in samples.T]
    per_principle = {f"rho{k}": col for k, col in enumerate(zip(*per_line), 1)}
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
    column = samples[:, result.line_indices.index(args.line)]
    rows = []
    for family, param in zip(pricing.FAMILIES,
                             pricing.calibrations(column, pricing.FAMILIES, args.target)):
        if isinstance(param, CalibrationError):
            rows.append((family, "", f"{type(param).__name__}: {param}"))
            print(f"{family}: not calibrated ({param})")
        else:
            value = param.beta if isinstance(param, CTE) else param.theta
            rows.append((family, float(value), ""))
            print(f"{family}: {value!r}")
    _write(scenario, args, reports.Table(header=("Family", "Parameter", "Note"), rows=tuple(rows)))


@_command("portfolio", "portfolio Profit and LR report", ("portfolio.csv",),
          *_flags(float, "--premium", required=True, help="total premium per home"),
          *_flags(float, "--deductible", "--coverage", required=True), *PORTFOLIO_SIZES)
def _portfolio(scenario, args) -> None:
    policy = Policy(args.deductible, args.coverage)
    income = _income(args, "premium_per_home", args.premium)
    _write(scenario, args, reports.portfolio_tables(_claims(scenario, args, [policy])[0], income))


@_command("search-deductible", "smallest feasible deductible on a grid", ("search.csv",),
          *_flags(float, "--premium", required=True, help="total premium per home"),
          *_flags(float, "--coverage", required=True),
          *_flags(None, "--grid", required=True, help="ascending deductibles, e.g. 100,150,200"),
          *STRATEGY, *PORTFOLIO_SIZES)
def _search_deductible(scenario, args) -> int | None:
    grid = _parse_floats(args.grid, "--grid")
    strategy = _strategy(args)
    grid = search.deductible_grid(grid)
    income = _income(args, "premiums_total", args.premium)
    claims = _claims(scenario, args, [Policy(d, args.coverage) for d in grid])
    result = search.search_deductible(claims, grid, income, strategy)
    rows = tuple(
        (d, stat, "yes" if ok else "no")
        for d, stat, ok in zip(grid, result.statistics, result.feasible)
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
    policy = Policy(args.deductible, args.coverage)
    strategy = _strategy(args)
    premium = search.premium_for_claims(_claims(scenario, args, [policy])[0], args.homes, strategy)
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
    if len(set(labels)) != len(labels):
        raise SystemExit("error: --labels must be distinct")
    if any(ch in label for label in labels for ch in "\n\r"):
        raise SystemExit("error: --labels must not hold line breaks")
    grid = search.deductible_grid(_parse_floats(args.grid, "--grid"))
    for label, total in zip(labels, totals):
        _income(args, f"premium for {label}", total)
    strategies = (search.MeanLR(args.mean_target),
                  search.QuantileLR(args.quantile_level, args.quantile_target))
    claims = _claims(scenario, args, [Policy(d, args.coverage) for d in grid])
    rows = search.report_proposals(claims, grid, list(zip(labels, totals)), args.coverage,
                                   args.homes, strategies)
    _write(scenario, args, reports.proposal_table(rows))


# a value that starts like a negative number, or like a list of numbers that starts with one
_NEGATIVE = re.compile(r"-(\.?\d|inf|nan)", re.IGNORECASE)


def _negative_values_joined(argv: list[str]) -> list[str]:
    """``argv`` with ``--flag -5,100`` spelled ``--flag=-5,100``.

    argparse takes a value that starts with a minus sign for an option unless
    it is a plain negative number, so ``--grid -5,100`` would be a usage error
    before the program's own check of the grid could name the bad deductible.
    """
    joined: list[str] = []
    for arg in argv:
        if joined and joined[-1].startswith("--") and "=" not in joined[-1] \
                and _NEGATIVE.match(arg):
            joined[-1] += f"={arg}"
        else:
            joined.append(arg)
    return joined


def cli_dispatch(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _build_parser().parse_args(_negative_values_joined(argv))
    except SystemExit as exc:  # --help, --version or a usage error
        return exc.code
    try:
        return args.handler(load_scenario(args.scenario), args) or 0
    except SystemExit as exc:  # a handler's usage error
        print(exc.code, file=sys.stderr)
        return 2
    except BrokenPipeError:  # stdout was closed; main() exits quietly
        raise
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # a size too large to allocate, as numpy reports it
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 1


def main() -> None:
    try:
        code = cli_dispatch()
        sys.stdout.flush()
    except BrokenPipeError:  # as by `| head`; on devnull the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141  # 128 + SIGPIPE, the status of a writer that the signal ended
    raise SystemExit(code)


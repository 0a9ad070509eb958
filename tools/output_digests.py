"""SHA-256 of every output of every CLI command, for byte-identity checks.

Runs all nine commands, with ``--out`` where the command writes files and
at ``--workers`` 1 and 2 where it takes that flag, on the bundled scenario
and on the scenarios that ``bench/scenario_gen.py --seed N`` prints for
N = 3, 5 and 7.  ``calibrate`` runs on each scenario's first and last
business line, so the listing covers a column stored after lines that were
drawn and dropped.  Prints one ``sha256  scenario/command/workers/file``
line per output file and per stdout.  A change that must keep every output
byte-identical compares this script's listing at the parent commit with
its listing at the change:

    PYTHONPATH=src python tools/output_digests.py > digests.txt
    PYTHONPATH=src python tools/output_digests.py --base HEAD

With ``--base REV`` the script unpacks ``git archive REV`` into a temporary
directory, runs that tree's own copy of this script on that tree's package
(``PYTHONPATH=<tree>/src``), and prints a unified diff of that listing
against this tree's; nothing is printed when the two are identical.

The run and replication counts are those of ``test_golden_simulation_output``:
one complete run block or replication group and a partial one.  Commands run in this interpreter, in a temporary directory, with relative
paths, so the ``wrote PATH`` lines on stdout do not depend on where it is.
Exits 1 if a command fails, or, with ``--base``, if the two listings differ.
"""

import argparse
import contextlib
import difflib
import hashlib
import io
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from homecyber.cli import COMMANDS, cli_dispatch
from homecyber.scenario import bundled_case_study_path, load_scenario

ROOT = Path(__file__).resolve().parents[1]
GENERATED_SEEDS = (3, 5, 7)
GRID = "100,150,200,250,500,1000"
RETAINED = ("--deductible", "1000", "--coverage", "50000")
THETAS = ("--theta-expectation", "0.5", "--theta-stddev", "0.03", "--theta-gmd", "0.25",
          "--beta-cte", "0.9")
SEARCH = ("--premium", "418", "--coverage", "50000", "--grid", GRID, "--lr-target", "0.4",
          "--homes", "300", "--replications", "130", "--seed", "13")
NO_FEASIBLE = "no feasible deductible on the grid"
SOLVE = (*RETAINED, "--lr-target", "0.4", "--homes", "300", "--replications", "130",
         "--seed", "13")


def runs(*lines: int) -> list[tuple[str, list[str]]]:
    """(label, argv) of every run; ``calibrate`` runs on each of ``lines``, business
    lines of the scenario, labelled ``calibrate`` for the first and
    ``calibrate-L<index>`` for the others."""
    calibrations = []
    for k, line in enumerate(lines):
        label = f"calibrate-L{line}" if k else "calibrate"
        calibrate = ["calibrate", "--runs", "40000", "--seed", "16", "--line", str(line),
                     "--target", "28"]
        calibrations += [(label, calibrate),
                         (f"{label}-retained", [*calibrate, "--deductible", "100",
                                                "--coverage", "5000"])]
    price = ["price", "--runs", "40000", "--seed", "15", *THETAS]
    return [
        ("validate", ["validate"]),
        ("enumerate", ["enumerate"]),
        ("simulate", ["simulate", "--runs", "40000", "--seed", "11"]),
        ("price", price),
        ("price-retained", [*price, "--deductible", "100", "--coverage", "5000"]),
        *calibrations,
        ("portfolio", ["portfolio", "--premium", "418", *RETAINED, "--homes", "300",
                       "--replications", "120", "--seed", "12"]),
        ("search-deductible-mean", ["search-deductible", *SEARCH, "--strategy", "mean"]),
        ("search-deductible-quantile", ["search-deductible", *SEARCH, "--strategy", "quantile"]),
        ("solve-premium-mean", ["solve-premium", *SOLVE, "--strategy", "mean"]),
        ("solve-premium-quantile", ["solve-premium", *SOLVE, "--strategy", "quantile"]),
        ("propose", ["propose", "--premiums", "418,307,368,408", "--coverage", "50000",
                     "--grid", GRID, "--homes", "500", "--replications", "70", "--seed", "14"]),
    ]


def invocations(scenario: str, *lines: int):
    """(output directory, argv) of every command run on ``scenario``, calibrating each
    of ``lines``, with ``--workers`` 1 and 2 where the command takes it and ``--out``
    where it writes."""
    for label, argv in runs(*lines):
        _, flags, files, _ = COMMANDS[argv[0]]
        takes_workers = any(flag == "--workers" for flag, _ in flags)
        for workers in ("1", "2") if takes_workers else ("-",):
            out = Path(scenario.removesuffix(".json"), label, workers)
            extra = ["--workers", workers] if takes_workers else []
            extra += ["--out", str(out)] if files else []
            yield out, [argv[0], "--scenario", scenario, *argv[1:], *extra]


def sha256(data: bytes | Path) -> str:
    digest = hashlib.sha256()
    if isinstance(data, bytes):
        digest.update(data)
    else:
        with open(data, "rb") as f:
            for chunk in iter(lambda: f.read(1 << 20), b""):
                digest.update(chunk)
    return digest.hexdigest()


def scenarios(work: Path) -> list[str]:
    """Write every scenario into ``work``; returns their file names."""
    shutil.copyfile(bundled_case_study_path(), work / "bundled.json")
    names = ["bundled.json"]
    for seed in GENERATED_SEEDS:
        text = subprocess.run([sys.executable, str(ROOT / "bench" / "scenario_gen.py"),
                               "--seed", str(seed)], capture_output=True, check=True).stdout
        names.append(f"generated-{seed}.json")
        (work / names[-1]).write_bytes(text)
    return names


def listing() -> tuple[list[str], int]:
    """The ``sha256  path`` lines of every output, and 1 if a command failed (else 0)."""
    digests, failed = [], 0
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        os.chdir(work)
        for scenario in scenarios(work):
            lines = load_scenario(scenario).lines
            for out, argv in invocations(scenario, lines[0].index, lines[-1].index):
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout):
                    code = cli_dispatch(argv)
                # search-deductible exits 1 when no grid point is feasible, and
                # only then; any other exit 1 is an error
                infeasible = argv[0] == "search-deductible" and stdout.getvalue().endswith(
                    f"{NO_FEASIBLE}\n")
                if code != 0 and not (code == 1 and infeasible):
                    print(f"{out}: exit {code}", file=sys.stderr)
                    failed = 1
                for path in sorted(out.iterdir()) if out.is_dir() else ():
                    digests.append(f"{sha256(path)}  {out}/{path.name}")
                digests.append(f"{sha256(stdout.getvalue().encode())}  {out}/stdout")
                shutil.rmtree(out, ignore_errors=True)
        os.chdir(ROOT)
    return digests, failed


def base_listing(base: str) -> tuple[list[str], int]:
    """The listing of commit ``base``, made by its own copy of this script."""
    from ab_pairs import unpack  # a sibling module when this file runs as a script

    with tempfile.TemporaryDirectory(prefix="output-digests-") as tmp:
        unpack(base, Path(tmp))
        tree = Path(tmp) / "tree"
        done = subprocess.run([sys.executable, str(tree / "tools" / "output_digests.py")],
                              env={**os.environ, "PYTHONPATH": str(tree / "src")},
                              capture_output=True, text=True)
    sys.stderr.write(done.stderr)
    return done.stdout.splitlines(), int(done.returncode != 0)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", help="git revision whose listing to diff against this tree's")
    args = parser.parse_args(argv)
    lines, failed = listing()
    if args.base is None:
        print("\n".join(lines))
        return failed
    before, base_failed = base_listing(args.base)
    diff = list(difflib.unified_diff(before, lines, args.base, "this tree", lineterm=""))
    if diff:
        print("\n".join(diff))
    print(f"{len(lines)} lines here, {len(before)} at {args.base}: "
          f"{'they differ' if diff else 'identical'}", file=sys.stderr)
    return int(bool(diff) or failed or base_failed)


if __name__ == "__main__":
    raise SystemExit(main())

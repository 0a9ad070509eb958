"""Cold-start time of every CLI command: a base commit against this tree.

    python tools/cold_start.py --base HEAD~1 --rounds 10 [--runs 100]

Unpacks ``git archive BASE`` into a temporary directory (``ab_pairs.unpack``)
and times ``python -m homecyber`` in fresh interpreters, with ``PYTHONPATH``
set to each tree's ``src``: each of the nine commands at small sizes on the
tree's bundled scenario (``simulate``, ``price`` and ``calibrate`` at
``--runs``), and ``--version``.  One untimed round runs first, so both trees
start with whatever bytecode caches the environment allows.  Each round then
runs every command once per tree, the base first on odd rounds and this tree
first on even ones.  Prints, per command, each side's median and quartiles
in ms, in how many rounds this tree was the faster, and each side's median
maximum RSS and minor page faults of the process (from ``os.wait4``).
Standard library only (Unix); exits 1 if a run exits non-zero.
"""

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from ab_pairs import ROOT, spread, unpack

SCENARIO = Path("src", "homecyber", "data", "case_study.json")
SIZES = ("--homes", "20", "--replications", "30", "--seed", "1")


def commands(runs: int) -> tuple:
    """(label, argv after ``--scenario PATH``, or None for a command without one)."""
    runs_seed = ("--runs", str(runs), "--seed", "1")
    return (
        ("--version", None),
        ("validate", ["validate"]),
        ("enumerate", ["enumerate"]),
        ("simulate", ["simulate", *runs_seed]),
        ("price", ["price", *runs_seed, "--theta-expectation", "0.5", "--theta-stddev", "0.03",
                   "--theta-gmd", "0.25", "--beta-cte", "0.9", "--deductible", "100",
                   "--coverage", "5000"]),
        ("calibrate", ["calibrate", *runs_seed, "--line", "4", "--target", "28"]),
        ("portfolio", ["portfolio", "--premium", "418", "--deductible", "1000",
                       "--coverage", "50000", *SIZES]),
        ("search-deductible", ["search-deductible", "--premium", "418", "--coverage", "50000",
                               "--grid", "100,1000", "--strategy", "quantile",
                               "--lr-target", "0.4", *SIZES]),
        ("solve-premium", ["solve-premium", "--deductible", "1000", "--coverage", "50000",
                           "--strategy", "mean", "--lr-target", "0.4", *SIZES]),
        ("propose", ["propose", "--premiums", "418,307", "--coverage", "50000",
                     "--grid", "100,1000", *SIZES]),
    )


def argv_of(tree: Path, args: list[str] | None) -> list[str]:
    """The ``python -m homecyber`` command line of one command in ``tree``."""
    if args is None:
        return [sys.executable, "-m", "homecyber", "--version"]
    return [sys.executable, "-m", "homecyber", args[0], "--scenario", str(tree / SCENARIO),
            *args[1:]]


def timed(tree: Path, args: list[str] | None) -> tuple[float, float, int]:
    """Seconds, maximum RSS in MB and minor page faults of one fresh
    interpreter running one command in ``tree``."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    start = time.perf_counter()
    with subprocess.Popen(argv_of(tree, args), env=env, cwd=tree, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True) as proc:
        stderr = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(argv_of(tree, args))} exited {proc.returncode}:\n{stderr}")
    return elapsed, usage.ru_maxrss / 1024.0, usage.ru_minflt


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--runs", type=int, default=100,
                        help="runs of simulate, price and calibrate")
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error(f"--rounds must be >= 1, got {args.rounds}")
    if args.runs < 1:
        parser.error(f"--runs must be >= 1, got {args.runs}")

    table = commands(args.runs)
    samples = {(label, side): [] for label, _ in table for side in ("base", "change")}
    with tempfile.TemporaryDirectory(prefix="cold-start-") as tmp:
        unpack(args.base, Path(tmp))
        trees = {"base": Path(tmp) / "tree", "change": ROOT}
        for side in trees:  # the untimed round
            for _, command in table:
                timed(trees[side], command)
        for round_ in range(1, args.rounds + 1):
            order = ("base", "change") if round_ % 2 else ("change", "base")
            for label, command in table:
                for side in order:
                    samples[label, side].append(timed(trees[side], command))
            print(f"round {round_} done", flush=True)

    print(f"cold start, ms, {args.rounds} rounds, base {args.base}, --runs {args.runs}")
    for label, _ in table:
        base, change = ([t * 1e3 for t, _, _ in samples[label, side]]
                        for side in ("base", "change"))
        faster = sum(c < b for b, c in zip(base, change))
        usage = ", ".join(
            f"{side} {statistics.median(rss for _, rss, _ in samples[label, side]):.1f} MB "
            f"{statistics.median(flt for _, _, flt in samples[label, side]):.0f} faults"
            for side in ("base", "change"))
        print(f"  {label}: base {spread(base)}, change {spread(change)}, "
              f"change faster in {faster} of {args.rounds}; {usage}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

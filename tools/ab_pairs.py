"""Alternating before/after runs of the benchmark: a base commit against this tree.

    python tools/ab_pairs.py --base HEAD~1 --workload single-home --seed 4242 \
        --seconds 40 --pairs 10

Unpacks ``git archive BASE`` into a temporary directory, then runs
``bench/run.py --workload W --seed S --seconds T --trace 0`` once in each
tree per pair: the base first on odd pairs (1, 3, ...), this tree first on
even ones, so neither side always runs on a warmer or a quieter host.  Prints
one line per run as it ends, then, per end-to-end metric, each side's median
and quartiles and in how many pairs this tree's value was the lower one, and
whether every run was ``correct``.  Standard library only; exits 1 if a run
fails or is not ``correct``.
"""

import argparse
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def unpack(base: str, into: Path) -> None:
    """The files of commit ``base`` under ``into``."""
    archive = into / "base.tar"
    with open(archive, "wb") as f:
        subprocess.run(["git", "-C", str(ROOT), "archive", base], stdout=f, check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(into / "tree", filter="data")
    archive.unlink()


def bench(tree: Path, args) -> dict:
    """The last stdout line of one ``bench/run.py`` run in ``tree``, parsed."""
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"bench/run.py in {tree} exited {done.returncode}:\n{done.stderr}")
    return json.loads(lines[-1])


def spread(values: list[float]) -> str:
    """Median and quartiles, ``median (q1-q3)``."""
    if len(values) < 2:
        return f"{values[0]:.4g}"
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return f"{median:.4g} ({q1:.4g}-{q3:.4g})"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error(f"--pairs must be >= 1, got {args.pairs}")

    runs: dict[str, list[dict]] = {"base": [], "change": []}
    with tempfile.TemporaryDirectory(prefix="ab-pairs-") as tmp:
        unpack(args.base, Path(tmp))
        trees = {"base": Path(tmp) / "tree", "change": ROOT}
        for pair in range(1, args.pairs + 1):
            order = ("base", "change") if pair % 2 else ("change", "base")
            for side in order:
                result = bench(trees[side], args)
                runs[side].append(result)
                wall = result["metrics"]["wall_s"]["value"]
                print(f"pair {pair} {side:<6} correct={result['correct']} "
                      f"failed={result['failed']} wall_s={wall:.4g}", flush=True)

    print(f"{args.workload}, seed {args.seed}, {args.pairs} pairs, base {args.base}")
    for name, metric in runs["base"][0]["metrics"].items():
        base = [r["metrics"][name]["value"] for r in runs["base"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        lower = sum(c < b for b, c in zip(base, change))
        print(f"  {name} ({metric['unit']}): base {spread(base)}, change {spread(change)}, "
              f"change lower in {lower} of {args.pairs}")
    correct = all(r["correct"] for side in runs.values() for r in side)
    print(f"  every run correct: {'yes' if correct else 'no'}")
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python3
"""Steadiness mode: two sets of runs of the same code, compared per metric.

    python3 bench/steady.py

For every workload in ``BENCHMARK.json`` it runs ``bench/run.py --trace 0``
10 times per set, each run with its own seed (1000 upwards).  For every
end-to-end metric the workload has, it reports each set's median and spread:
the interquartile range over the median, with quartiles as
``statistics.quantiles(values, n=4)`` gives them.  A metric gated in
``BENCHMARK.json`` is steady when the spread of each set stays within its
bound and the two set medians differ by no more than the bound, in either
direction.  Exits 1 when anything is unsteady or incorrect.
"""

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SETS = 2
RUNS = 10
FIRST_SEED = 1000


def spread(values: list[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def run_once(workload: str, seed: int, seconds: int) -> tuple[bool, dict]:
    """Correctness and every end-to-end metric of one run, gated or not."""
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    final = json.loads(done.stdout.strip().splitlines()[-1])
    record = ROOT / ".bench_work" / "results" / f"{workload}-seed{seed}-trace0.json"
    metrics = json.loads(record.read_text())["metrics"]
    return final["correct"], {name: m["value"] for name, m in metrics.items()}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]

    values: dict = {w: [{} for _ in range(SETS)] for w in workloads}
    incorrect = []
    for s in range(SETS):
        for w in workloads:
            for i in range(RUNS):
                seed = FIRST_SEED + s * RUNS + i
                correct, metrics = run_once(w, seed, bench["run_seconds"])
                if not correct:
                    incorrect.append((w, seed))
                for name, value in metrics.items():
                    values[w][s].setdefault(name, []).append(value)
                print(f"set {s + 1} {w} seed {seed}: "
                      + " ".join(f"{k}={v:.5g}" for k, v in metrics.items()), flush=True)

    gated = {m["name"]: m for m in bench["end_to_end"]}
    summary, steady = {}, not incorrect
    print(f"\n{'workload':<14} {'metric':<20} {'bound':>6}  per set: median (spread)  verdict")
    for w in workloads:
        for name in values[w][0]:
            sets = [values[w][s][name] for s in range(SETS)]
            medians = [statistics.median(v) for v in sets]
            spreads = [spread(v) for v in sets]
            row = {"medians": medians, "spreads": spreads}
            verdict = "not gated"
            if name in gated:
                bound = gated[name]["bound"]
                drift = (medians[1] - medians[0]) / medians[0]
                ok = abs(drift) <= bound and max(spreads) <= bound
                steady = steady and ok
                row.update(bound=bound, drift=drift, steady=ok,
                           within_third=max(spreads) < bound / 3)
                verdict = f"medians differ by {drift:+.3f}  {'steady' if ok else 'UNSTEADY'}"
            summary.setdefault(w, {})[name] = row
            cells = "  ".join(f"{m:.5g} ({sp:.3f})" for m, sp in zip(medians, spreads))
            print(f"{w:<14} {name:<20} {row.get('bound', '-'):>6}  {cells}  {verdict}")
    for w, seed in incorrect:
        print(f"INCORRECT {w} seed {seed}")

    out = ROOT / ".bench_work" / "results" / "steady.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"values": values, "summary": summary,
                               "incorrect": incorrect}, indent=1) + "\n")
    print(f"{'steady' if steady else 'NOT steady'}; details in {out.relative_to(ROOT)}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())

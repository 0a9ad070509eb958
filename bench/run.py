#!/usr/bin/env python3
"""Benchmark of the homecyber pricing engine.

    python3 bench/run.py --workload single-home --seed 1 --seconds 40 --trace 0

Runs one workload (see ``workloads.py``) as a closed loop of CLI commands on
inputs made from ``--seed`` and checks every output.  With ``--trace 0`` it
runs an untimed warm-up, then times one whole pass over the workload's
commands, and more while they fit in ``--seconds``, and reports the
end-to-end metrics.  With ``--trace 1`` it runs the warm-up, a traced
pass and an untraced pass, and reports per-layer metrics from the spans.
The last line of standard output is one JSON object with the metrics
declared in ``BENCHMARK.json``; a human-readable report and a results file
under ``.bench_work/results/`` carry everything else.
"""

import os

# At most two threads: the program's own pool, never BLAS threads on top.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_BATCH = 2

SETUP_SNIPPET = (
    "import sys; sys.path.insert(0, sys.argv[1]); import homecyber.cli as cli; "
    "raise SystemExit(cli.cli_dispatch(['validate', '--scenario', sys.argv[2]]))"
)


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def environment(seed: int) -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        commit = done.stdout.strip() or commit
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "seed": seed,
    }


def time_setup(runner: "Runner") -> list[float]:
    """Fresh interpreters importing homecyber.cli and validating the scenario.

    A failed one counts as a failed operation."""
    times = []
    for _ in range(SETUP_BATCH):
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-c", SETUP_SNIPPET, str(SRC), str(runner.workload.scenario_path)],
            capture_output=True, text=True,
        )
        times.append(time.perf_counter() - start)
        runner.attempted += 1
        if done.returncode != 0:
            runner.failed += 1
            runner.failures.append(f"setup: {done.stderr.strip()}")
    return times


def fingerprint(out: Path, value) -> str:
    """Digest of every file a step wrote, or of its return value if none."""
    h = hashlib.sha256()
    files = sorted(p for p in out.rglob("*") if p.is_file()) if out.exists() else []
    for path in files:
        h.update(str(path.relative_to(out)).encode() + b"\0" + path.read_bytes())
    if not files:
        h.update(repr(value).encode())
    return h.hexdigest()


class Runner:
    """Runs passes of one workload and counts attempted and failed commands."""

    def __init__(self, workload, work: Path):
        self.workload = workload
        self.work = work
        self.steps = workload.steps()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.first_digests: dict[str, str] = {}
        self.passes: list[dict] = []

    def warm_up(self) -> None:
        """Runs ``warm_up_steps`` twice, untimed.  The second round must write
        the same bytes as the first: the repeat check, at a size every run
        can afford.  A command that fails or differs counts as failed."""
        from workloads import warm_up_steps

        digests: dict[str, str] = {}
        for round_ in range(2):
            out = self.work / f"warm-up{round_}"
            for step in warm_up_steps(self.workload.seed):
                self.attempted += 1
                try:
                    value = step.run(out / step.metric)
                except Exception as exc:
                    self.failed += 1
                    self.failures.append(f"warm-up {step.metric}: {type(exc).__name__}: {exc}")
                    continue
                digest = fingerprint(out / step.metric, value)
                if digests.setdefault(step.metric, digest) != digest:
                    self.failed += 1
                    self.failures.append(f"warm-up {step.metric}: output differs on repeat")
            shutil.rmtree(out, ignore_errors=True)

    def run_pass(self, tracer=None) -> dict:
        pass_dir = self.work / f"pass{len(self.passes)}"
        times, values, broken = {}, {}, set()
        wall_start = time.perf_counter()
        for step in self.steps:
            out = pass_dir / step.metric
            span = tracer.span(f"bench.{step.metric}") if tracer else nullcontext()
            start = time.perf_counter()
            try:
                with span:
                    values[step.metric] = step.run(out)
            except Exception as exc:  # a failed command is a failed operation
                broken.add(step.metric)
                self.failures.append(f"{step.metric}: {type(exc).__name__}: {exc}")
            times[step.metric] = time.perf_counter() - start
        wall = time.perf_counter() - wall_start

        if broken:
            # checks compare commands with each other, so none of this pass is verified
            broken = {step.metric for step in self.steps}
        else:
            for metric, messages in self.workload.check(pass_dir, values).items():
                if messages:
                    broken.add(metric)
                    self.failures.extend(f"{metric}: {m}" for m in messages)
        for step in self.steps:
            if step.metric in broken:
                continue
            # a repeat with the same seed must give byte-identical outputs
            digest = fingerprint(pass_dir / step.metric, values[step.metric])
            first = self.first_digests.setdefault(step.metric, digest)
            if digest != first:
                broken.add(step.metric)
                self.failures.append(f"{step.metric}: output differs from the first pass")
        shutil.rmtree(pass_dir, ignore_errors=True)

        self.attempted += len(self.steps)
        self.failed += len(broken)
        rows = sum(s.mc_rows for s in self.steps)
        mc_time = sum(times[s.metric] for s in self.steps if s.mc_rows)
        record = {"wall_s": wall, "times": times,
                  "mc_rows_per_s": rows / mc_time if mc_time else None}
        self.passes.append(record)
        return record


def end_to_end(runner: Runner, setup_times: list[float]) -> dict:
    """Every end-to-end metric that applies to the workload, with its samples."""
    passes = runner.passes
    metrics = {"setup_s": ("s", setup_times), "wall_s": ("s", [p["wall_s"] for p in passes])}
    for step in runner.steps:
        metrics[step.metric] = ("s", [p["times"][step.metric] for p in passes])
    rates = [p["mc_rows_per_s"] for p in passes if p["mc_rows_per_s"]]
    if rates:
        metrics["mc_rows_per_s"] = ("1/s", rates)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["peak_rss_mb"] = ("MB", [peak])
    return {name: {"value": statistics.median(samples), "unit": unit, "n": len(samples),
                   "min": min(samples), "max": max(samples)}
            for name, (unit, samples) in metrics.items()}


def measure(runner: Runner, seconds: float) -> list[float]:
    """Whole timed passes after the warm-up: one, then more while the next
    is expected to end within ``seconds`` of the start, judged by the last
    pass's time.  A pass takes 13 to 20 s on a 2-vCPU host, so a run makes
    one or two.

    Set-up is timed in batches before the warm-up and after every pass, so
    its median spans the whole run: on a shared host, speed shifts from one
    plateau to another within seconds.  Returns the set-up times."""
    start = time.perf_counter()
    setup_times = time_setup(runner)
    runner.warm_up()
    while True:
        last = runner.run_pass()["wall_s"]
        setup_times += time_setup(runner)
        if time.perf_counter() - start + last > seconds:
            return setup_times


def traced(runner: Runner) -> dict:
    import numpy as np
    import tracer as tr
    from workloads import CommandFailed, run_cli

    runner.warm_up()
    tracer = tr.Tracer()
    tracer.install()
    try:
        tracer.enabled = True
        runner.attempted += 1
        try:
            with tracer.span("bench.setup"):
                run_cli(["validate", "--scenario", str(runner.workload.scenario_path)])
        except CommandFailed as exc:
            runner.failed += 1
            runner.failures.append(f"validate: {exc}")
        traced_pass = runner.run_pass(tracer)
        tracer.enabled = False
    finally:
        tracer.uninstall()
    untraced = runner.run_pass()

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    tracer.save(results / f"trace-{runner.workload.name}.npz")
    spans = tracer.spans()
    metrics = tr.per_layer(tracer.names, spans)
    overhead = traced_pass["wall_s"] - untraced["wall_s"]
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_share"] = (overhead / untraced["wall_s"], "share")
    metrics["trace.spans"] = (int(np.asarray(spans["name"]).size), "count")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}


def report(title: str, metrics: dict) -> None:
    print(title)
    for name, m in metrics.items():
        extra = f"  (median of {m['n']}, min {m['min']:.4g}, max {m['max']:.4g})" if "n" in m else ""
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}{extra}")


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description="homecyber benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "homecyber" / "__init__.py").is_file():
        return fail(f"no homecyber package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import homecyber

    if Path(homecyber.__file__).resolve().parent != SRC / "homecyber":
        return fail(f"imported homecyber from {homecyber.__file__}, not from {SRC}")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK))
    try:
        workload = WORKLOADS[args.workload](args.seed, work)
        runner = Runner(workload, work)
        problems = workload.check_inputs()
        if problems is not None:
            runner.attempted += 1
            runner.failed += bool(problems)
            runner.failures.extend(f"inputs: {m}" for m in problems)
        info = {"workload": args.workload, "trace": args.trace,
                "environment": environment(args.seed), "inputs": workload.describe()}
        if args.trace:
            metrics = traced(runner)
            wanted = declared["per_layer"]
        else:
            setup_times = measure(runner, args.seconds)
            metrics = end_to_end(runner, setup_times)
            wanted = declared["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    info.update(attempted=runner.attempted, failed=runner.failed,
                failures=runner.failures, passes=runner.passes, metrics=metrics)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(info, indent=1) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  inputs {json.dumps(info['inputs'])}")
    print(f"environment {json.dumps(info['environment'])}")
    report("per-layer metrics (traced pass)" if args.trace else "end-to-end metrics", metrics)
    for message in runner.failures:
        print(f"FAILED {message}")
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        return fail(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    final = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]]["value"], "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Seeded scenario generator for the ``large-graph`` workload.

The same seed gives the same JSON text.  Sizes are fixed so that every seed
asks for the same amount of work: 20 nodes of which 4 are entry nodes, each
later node with 1-3 earlier parents (32 edges in all), and 10 business lines
that cycle through the three loss families with 1-4 trigger nodes each
(23 triggers in all).  Only which nodes connect and the parameters vary.

Run ``python3 bench/scenario_gen.py --seed 7`` to print one scenario.
"""

import argparse
import json
import random

N_NODES = 20
N_ENTRY = 4
N_LINES = 10
# Multisets of per-node parent counts and per-line trigger counts; the
# generator shuffles them, so totals stay fixed across seeds.
PARENT_COUNTS = (1, 2, 3) * 5 + (2,)
TRIGGER_COUNTS = (1, 2, 3, 4) * 2 + (1, 2)
FAMILIES = ("rate_sum_exponential", "triggered_lognormal", "triggered_gamma")


def _r(value: float) -> float:
    return round(value, 6)


def generate(seed: int) -> dict:
    """Scenario document for ``seed`` in the homecyber schema (version 1)."""
    rng = random.Random(seed)
    nodes = [
        {"id": nid, "label": f"V{nid}", "entry_prob": _r(rng.uniform(0.01, 0.3))}
        for nid in range(1, N_ENTRY + 1)
    ]
    edges = []
    counts = list(PARENT_COUNTS)
    rng.shuffle(counts)
    for nid, count in zip(range(N_ENTRY + 1, N_NODES + 1), counts):
        nodes.append({"id": nid, "label": f"V{nid}"})
        for src in sorted(rng.sample(range(1, nid), count)):
            edges.append({"src": src, "dst": nid, "cond_prob": _r(rng.uniform(0.05, 0.6))})

    lines = []
    triggers_per_line = list(TRIGGER_COUNTS)
    rng.shuffle(triggers_per_line)
    for index, count in enumerate(triggers_per_line, start=1):
        triggers = sorted(rng.sample(range(1, N_NODES + 1), count))
        family = FAMILIES[(index - 1) % len(FAMILIES)]
        if family == "rate_sum_exponential":
            model = {
                "family": family,
                "rates": {str(t): _r(rng.uniform(0.0005, 0.005)) for t in triggers},
            }
        elif family == "triggered_lognormal":
            model = {"family": family, "mu": _r(rng.uniform(4.0, 7.5)),
                     "sigma": _r(rng.uniform(0.5, 1.5))}
        else:
            model = {"family": family, "alpha": _r(rng.uniform(200.0, 2000.0)), "beta": 1.0}
        lines.append({"index": index, "name": f"line {index}", "trigger_set": triggers,
                      "model": model})

    return {
        "schema_version": 1,
        "description": f"Generated {N_NODES}-node attack graph, seed {seed}.",
        "graph": {"nodes": nodes, "edges": edges},
        "lines": lines,
        "default_policy": {"deductible": 1000.0, "coverage": 50000.0},
    }


def to_json(seed: int) -> str:
    return json.dumps(generate(seed), indent=1, sort_keys=True) + "\n"


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    print(to_json(parser.parse_args().seed), end="")

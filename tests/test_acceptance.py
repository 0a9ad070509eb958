"""End-to-end acceptance gate: one check per criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``)."""

import math
import time

import numpy as np
import pytest

from conftest import all_states, lev_quadrature, recursive_joint_prob, state_index
from homecyber.cli import cli_dispatch
from homecyber.graph import enumerate_joint
from homecyber.losses import (
    Exponential,
    Gamma,
    Lognormal,
    conditional_distribution,
    exact_line_mean,
    limited_expected_value_of,
)
from homecyber.pricing import (
    GMD,
    CteNotIdentifiableError,
    Policy,
    calibrations,
    premium,
    retain,
)
from homecyber.portfolio import simulate_claims
from homecyber.reports import portfolio_tables
from homecyber.scenario import bundled_case_study_path, load_scenario
from homecyber.search import MeanLR, QuantileLR, premium_for_claims
from homecyber.simulate import run_simulation

BASE_POLICY = Policy(deductible=1000.0, coverage=50_000.0)
GRID = (100.0, 150.0, 200.0, 250.0, 500.0, 1000.0)
PREMIUMS = (("rho1", 418.0), ("rho2", 307.0), ("rho3", 368.0), ("rho4", 408.0))

REFERENCE_STATE_PROBS = {
    (0, 0, 0, 0, 0, 0, 0): 0.097,
    (0, 0, 0, 0, 0, 0, 1): 0.856,
    (0, 0, 0, 0, 0, 1, 0): 0.000,
    (0, 0, 0, 0, 0, 1, 1): 0.009,
    (0, 0, 0, 0, 1, 0, 0): 0.000,
    (0, 0, 0, 0, 1, 0, 1): 0.009,
    (0, 0, 0, 0, 1, 1, 0): 0.000,
    (0, 0, 0, 0, 1, 1, 1): 0.000,
}


def check(ok: bool, name: str, detail: str = "") -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f"  ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def scenario():
    return load_scenario(bundled_case_study_path())


@pytest.fixture(scope="module")
def pooled_sim(scenario):
    """Three seeds x 100k runs, pooled; reused by criteria 3 and 4 and 7."""
    seeds = (101, 102, 103)
    start = time.perf_counter()
    results = [
        run_simulation(scenario.graph, scenario.lines, 100_000, seed) for seed in seeds
    ]
    elapsed = time.perf_counter() - start
    line_losses = np.vstack([r.line_losses for r in results])
    totals = np.concatenate([r.total_losses for r in results])
    return line_losses, totals, results[0], elapsed


@pytest.fixture(scope="module")
def crn_grid_claims(scenario):
    """Per-seed CRN claims over the deductible grid, K=10^4 and N=500."""
    policies = [Policy(d, 50_000.0) for d in GRID]
    return {
        seed: simulate_claims(
            scenario.graph, scenario.lines, 500, 10_000, policies, seed
        )
        for seed in (201, 202, 203, 204, 205)
    }


def exact_line_moments(scenario):
    """Exact (mean, variance) per line from the joint law and closed forms."""
    graph = scenario.graph
    moments = {}
    tl_mean = 0.0
    tl_second = 0.0
    for states in all_states(graph.n):
        p = recursive_joint_prob(graph, states)
        if p == 0.0:
            continue
        state = np.array(states, dtype=bool)
        means = []
        variances = []
        for line in scenario.lines:
            dist = conditional_distribution(line, state, graph)
            means.append(dist.mean())
            variances.append(dist.variance())
        for line, m, v in zip(scenario.lines, means, variances):
            acc = moments.setdefault(line.index, [0.0, 0.0])
            acc[0] += p * m
            acc[1] += p * (v + m * m)
        total_mean = sum(means)
        moments_tl = sum(variances) + total_mean * total_mean
        tl_mean += p * total_mean
        tl_second += p * moments_tl
    per_line = {
        idx: (mean, second - mean * mean) for idx, (mean, second) in moments.items()
    }
    return per_line, (tl_mean, tl_second - tl_mean * tl_mean)


def test_criterion_01_exact_state_probabilities(scenario):
    start = time.perf_counter()
    joint = enumerate_joint(scenario.graph)
    worst = max(
        abs(joint.probs[state_index(states)] - rounded)
        for states, rounded in REFERENCE_STATE_PROBS.items()
    )
    elapsed = time.perf_counter() - start
    all_zero = joint.probs[state_index((0,) * 7)]
    check(
        worst <= 5e-4 and abs(all_zero - 0.09702) < 1e-12 and elapsed < 1.0,
        "1. exact state probabilities reproduce the eight reference rows",
        f"worst abs err {worst:.2e}, all-zero {all_zero:.6f}, {elapsed * 1e3:.0f} ms",
    )


def test_criterion_02_exact_marginals(scenario):
    marginals = enumerate_joint(scenario.graph).marginals()
    graph = scenario.graph
    brute = {nid: 0.0 for nid in (3, 5, 7)}
    for states in all_states(graph.n):
        p = recursive_joint_prob(graph, states)
        for nid in brute:
            if states[graph.position(nid)]:
                brute[nid] += p
    m7 = marginals[graph.position(7)]
    m5 = marginals[graph.position(5)]
    m3 = marginals[graph.position(3)]
    ok = (
        m7 == 0.9
        and abs(m5 - brute[5]) <= 1e-12
        and abs(m3 - brute[3]) <= 1e-12
        and abs(m5 - 0.009003) <= 5e-7
        and abs(m3 - 0.00029998) <= 1e-12
    )
    check(ok, "2. exact marginals", f"m7={m7!r}, m5={m5:.9f}, m3={m3:.9f}")


def test_criterion_03_line_means_vs_oracle(scenario, pooled_sim):
    line_losses, _, _, elapsed = pooled_sim
    per_line, _ = exact_line_moments(scenario)
    oracles = {3: 81.02, 5: 10.00, 6: 18.00}
    reference = {3: 83.16, 5: 9.46, 6: 19.70}
    details = []
    ok = elapsed < 30.0
    for idx, stated in oracles.items():
        col = idx - 1
        exact = exact_line_mean(scenario.lines[col], scenario.graph)
        ok &= abs(exact - stated) < 5e-3
        sample = line_losses[:, col]
        se = sample.std(ddof=1) / math.sqrt(sample.size)
        ok &= abs(sample.mean() - exact) <= 4 * se
        # reference values come from 10^4-run studies; scale the SE accordingly
        reference_se = math.sqrt(per_line[idx][1]) / math.sqrt(10_000)
        ok &= abs(reference[idx] - exact) <= 3 * reference_se
        details.append(f"L{idx}: mc {sample.mean():.2f} vs exact {exact:.2f}")
    check(ok, "3. line means vs oracle", f"{'; '.join(details)}; sim {elapsed:.1f}s")


def test_criterion_04_total_loss_mean(scenario, pooled_sim):
    _, totals, _, _ = pooled_sim
    oracle = sum(exact_line_mean(line, scenario.graph) for line in scenario.lines)
    se = totals.std(ddof=1) / math.sqrt(totals.size)
    ok = abs(totals.mean() - oracle) <= 4 * se
    _, (tl_mean, tl_var) = exact_line_moments(scenario)
    assert abs(tl_mean - oracle) < 1e-9
    reference_se = math.sqrt(tl_var) / math.sqrt(10_000)
    ok &= abs(278.95 - oracle) <= 3 * reference_se
    check(
        ok,
        "4. total-loss mean within Monte Carlo error of the oracle sum",
        f"mc {totals.mean():.2f}, oracle {oracle:.2f}, reference 278.95 (3SE {3 * reference_se:.2f})",
    )


def test_criterion_05_retention_and_lev():
    rng = np.random.default_rng(500)
    n = 100_000
    loss = rng.lognormal(5.0, 2.0, n)
    d = rng.uniform(0.0, 3_000.0, n)
    c = rng.uniform(1.0, 100_000.0, n)
    x = np.minimum(np.maximum(loss - d, 0.0), c)
    retained = retain(loss[:500], d[:500], c[:500])
    ok = (
        np.array_equal(retained, x[:500])
        and np.all(x >= 0.0)
        and np.all(x <= c)
        and np.all((x == 0.0) == (loss <= d))
        and np.all(np.minimum(np.maximum((loss + 1.0) - d, 0.0), c) >= x)
        and np.all(np.minimum(np.maximum(loss - (d + 1.0), 0.0), c) <= x)
    )

    grid = {
        "exponential": [Exponential(1 / 160), Exponential(1 / 640), Exponential(1 / 50)],
        "lognormal": [Lognormal(4.0, 1.0), Lognormal(7.0, 1.0), Lognormal(6.0, 0.5)],
        "gamma": [Gamma(1000.0, 1.0), Gamma(2000.0, 1.0), Gamma(3.0, 0.01)],
    }
    worst = 0.0
    for dists in grid.values():
        for dist in dists:
            for dd in (0.0, 250.0, 1000.0):
                for cc in (500.0, 50_000.0, math.inf):
                    closed = limited_expected_value_of(dist, dd, cc)
                    oracle = lev_quadrature(dist, dd, cc)
                    worst = max(worst, abs(closed - oracle) / max(abs(oracle), 1e-12))
    ok &= worst <= 1e-6
    check(
        ok,
        "5. retention identities (1e5 cases) and closed-form LEV vs quadrature",
        f"worst LEV rel err {worst:.2e}",
    )


def test_criterion_06_gmd_estimator():
    rng = np.random.default_rng(600)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 2001))
        x = rng.lognormal(rng.uniform(0, 5), rng.uniform(0.2, 2.0), n)
        brute = float(np.abs(x[:, None] - x[None, :]).sum()) / (n * (n - 1))
        value = premium(x, GMD(1.0)) - float(x.mean())
        worst = max(worst, abs(value - brute) / max(brute, 1e-300))
    check(worst <= 1e-9, "6. GMD sorted formula equals pairwise brute force",
          f"worst rel err {worst:.2e}")


def test_criterion_07_calibration_round_trip(scenario, pooled_sim):
    _, _, base_result, _ = pooled_sim
    col = base_result.line_indices.index(4)
    retained = retain(base_result.line_losses[:10_000, col], BASE_POLICY.deductible,
                      BASE_POLICY.coverage)
    target = 28.0
    details = []
    ok = True
    families = ("expectation", "stddev", "gmd", "cte")
    params = dict(zip(families, calibrations(retained, families, target)))
    for family in ("expectation", "stddev", "gmd"):
        param = params[family]
        achieved = premium(retained, param)
        ok &= abs(achieved - target) <= 1e-6 * max(1.0, target)
        details.append(f"{family} round-trip {achieved:.8f}")
    if not isinstance(params["cte"], CteNotIdentifiableError):
        ok = False
        details.append("cte unexpectedly calibrated")
    else:
        details.append("cte flagged non-identifiable")
    check(ok, "7. calibration round-trips; CTE reports non-identifiability",
          "; ".join(details))


def test_criterion_08_portfolio_reproduction(crn_grid_claims):
    claims = crn_grid_claims[201][GRID.index(1000.0)]
    rows = {}
    for _, prem in PREMIUMS:
        profit, lr = portfolio_tables(claims, 500 * prem)
        rows[prem] = (dict(zip(profit.header, profit.rows[0])),
                      dict(zip(lr.header, lr.rows[0])))
    mean_lr = rows[418.0][1]["Mean"]
    mean_profit = rows[418.0][0]["Mean"]
    sds = {prem: profit["SD"] for prem, (profit, _) in rows.items()}
    ok = (
        0.05 <= mean_lr <= 0.09
        and abs(mean_profit - 195_089.0) / 195_089.0 <= 0.05
        and len(set(sds.values())) == 1
    )
    check(
        ok,
        "8. portfolio Profit/LR reproduce the reference levels",
        f"mean LR {mean_lr:.4f} (reference .07), mean profit {mean_profit:,.0f} "
        f"(reference 195,089), profit SD {next(iter(sds.values())):,.0f} identical "
        f"across rho1..rho4",
    )


def test_criterion_09_premium_solving(crn_grid_claims):
    claims = crn_grid_claims[201][GRID.index(1000.0)]
    mean_premium = premium_for_claims(claims, 500, MeanLR(0.40))
    tail_premium = premium_for_claims(claims, 500, QuantileLR(0.995, 0.40))
    from homecyber.search import lr_statistic

    rt_mean = lr_statistic(claims / (500 * mean_premium), MeanLR(0.40))
    rt_tail = lr_statistic(claims / (500 * tail_premium), QuantileLR(0.995, 0.40))
    ok = (
        60.0 <= mean_premium <= 82.0
        and 160.0 <= tail_premium <= 240.0
        and abs(rt_mean - 0.40) <= 1e-9 * 0.40
        and abs(rt_tail - 0.40) <= 1e-9 * 0.40
    )
    check(
        ok,
        "9. solved premiums sit in the reference ranges with exact round-trips",
        f"mean-LR premium {mean_premium:.2f} (reference 70), "
        f"Q99.5 premium {tail_premium:.2f} (reference 198)",
    )


def test_criterion_10_deductible_search(crn_grid_claims):
    reference_1 = {"rho1": 150.0, "rho2": 250.0, "rho3": 200.0, "rho4": 150.0}
    reference_2 = {"rho1": 250.0, "rho2": 500.0, "rho3": 500.0, "rho4": 500.0}

    def within_one_step(pick, target):
        if pick is None:
            return False
        i, j = GRID.index(pick), GRID.index(target)
        return abs(i - j) <= 1

    ok = True
    details = []
    for seed, claims in crn_grid_claims.items():
        # CRN monotonicity: claims non-increasing in the deductible, per replication
        for i in range(len(GRID) - 1):
            ok &= bool(np.all(claims[i] >= claims[i + 1]))
        for name, total in PREMIUMS:
            denom = 500 * total
            for strategy, reference_pick in (
                (MeanLR(0.40), reference_1[name]),
                (QuantileLR(0.995, 0.40), reference_2[name]),
            ):
                stats = [
                    (np.mean(claims[i] / denom) if isinstance(strategy, MeanLR)
                     else np.quantile(claims[i] / denom, strategy.level))
                    for i in range(len(GRID))
                ]
                pick = next((d for d, s in zip(GRID, stats) if s <= strategy.target), None)
                ok &= within_one_step(pick, reference_pick)
                if seed == 201:
                    details.append(f"{name}/{'i' if isinstance(strategy, MeanLR) else 'ii'}:{pick:g}")
    check(
        ok,
        "10. deductible search matches the reference proposals within one grid step",
        f"seed-201 picks {' '.join(details)}; reference (i) 150/250/200/150, "
        f"(ii) 250/500/500/500",
    )


def test_criterion_11_byte_identical_outputs(tmp_path):
    case = str(bundled_case_study_path())

    def files_of(directory):
        return {
            p.name: p.read_bytes() for p in sorted(directory.iterdir()) if p.is_file()
        }

    sim_outputs = []
    for name, workers in (("s1", "1"), ("s2", "1"), ("s3", "4")):
        out = tmp_path / name
        rc = cli_dispatch([
            "simulate", "--scenario", case, "--runs", "2000", "--seed", "42",
            "--workers", workers, "--out", str(out),
        ])
        assert rc == 0
        sim_outputs.append(files_of(out))
    pf_outputs = []
    for name, workers in (("p1", "1"), ("p2", "3")):
        out = tmp_path / name
        rc = cli_dispatch([
            "portfolio", "--scenario", case, "--premium", "418",
            "--deductible", "1000", "--coverage", "50000",
            "--homes", "100", "--replications", "1000", "--seed", "11",
            "--workers", workers, "--out", str(out),
        ])
        assert rc == 0
        pf_outputs.append(files_of(out))
    ok = (
        sim_outputs[0] == sim_outputs[1] == sim_outputs[2]
        and pf_outputs[0] == pf_outputs[1]
        and "summary.csv" in sim_outputs[0]
        and "manifest.json" in sim_outputs[0]
    )
    check(ok, "11. same seed + scenario give byte-identical outputs at any worker count")

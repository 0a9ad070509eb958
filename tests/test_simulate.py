import math
import os
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from homecyber.graph import AttackGraph, Edge, EnumerationSizeError, VulnNode
from homecyber.losses import (
    BusinessLine,
    TriggeredGamma,
    exact_line_mean,
    loss_plan,
    sample_loss_matrix,
)
from homecyber.portfolio import simulate_claims
from homecyber.pricing import Policy
from homecyber.simulate import (
    DEFAULT_QUANTILE_LEVELS,
    RUN_BLOCK,
    SummaryStats,
    draw_blocks,
    loss_block,
    run_simulation,
    summarize,
    thread_count,
)
from homecyber.streams import RUN_LANE


@pytest.fixture(scope="module")
def case_result(case_graph, case_lines):
    return run_simulation(case_graph, case_lines, runs=20_000, master_seed=99)


class TestRunSimulation:
    def test_shapes_and_order(self, case_result):
        assert case_result.line_losses.shape == (20_000, 6)
        assert case_result.line_indices == (1, 2, 3, 4, 5, 6)
        assert np.all(case_result.line_losses >= 0.0)

    def test_row_identity_exact(self, case_result):
        total = np.zeros(case_result.line_losses.shape[0])
        for col in range(case_result.line_losses.shape[1]):
            total += case_result.line_losses[:, col]
        assert np.array_equal(total, case_result.total_losses)

    @pytest.mark.parametrize("runs", [1, RUN_BLOCK + 7])
    def test_line_columns_are_contiguous(self, case_graph, case_lines, runs):
        # column-major, so every per-line statistic reads one contiguous column
        result = run_simulation(case_graph, case_lines, runs=runs, master_seed=3, workers=2)
        assert all(result.line_losses[:, k].flags.c_contiguous for k in range(6))

    def test_single_run(self, case_graph, case_lines):
        result = run_simulation(case_graph, case_lines, runs=1, master_seed=5)
        assert result.line_losses.shape == (1, 6)
        assert result.total_losses[0] == sum(result.line_losses[0, m] for m in range(6))

    def test_runs_must_be_positive(self, case_graph, case_lines):
        with pytest.raises(ValueError):
            run_simulation(case_graph, case_lines, runs=0, master_seed=5)

    def test_zero_entry_probs_give_zero_losses(self, case_lines):
        nodes = [
            VulnNode(i, entry_prob=0.0 if i in (1, 2, 7) else None)
            for i in range(1, 8)
        ]
        from conftest import build_case_graph

        graph = AttackGraph(nodes, build_case_graph().edges)
        result = run_simulation(graph, case_lines, runs=200, master_seed=1)
        assert np.all(result.line_losses == 0.0)
        assert np.all(result.total_losses == 0.0)

    def test_deterministic_same_seed(self, case_graph, case_lines, case_result):
        again = run_simulation(case_graph, case_lines, runs=20_000, master_seed=99)
        assert np.array_equal(again.line_losses, case_result.line_losses)
        assert np.array_equal(again.total_losses, case_result.total_losses)

    def test_complete_blocks_independent_of_run_count(self, case_graph, case_lines):
        longest = run_simulation(case_graph, case_lines, runs=2 * RUN_BLOCK + 7, master_seed=7)
        for runs in (RUN_BLOCK, 2 * RUN_BLOCK, 2 * RUN_BLOCK + 3):
            shorter = run_simulation(case_graph, case_lines, runs=runs, master_seed=7)
            complete = runs // RUN_BLOCK * RUN_BLOCK
            assert np.array_equal(
                shorter.line_losses[:complete], longest.line_losses[:complete]
            )
        # block b is the kernel's draw from substream (seed, b) of the run lane
        block1 = loss_block(loss_plan(case_graph, case_lines), RUN_BLOCK, 7, 1, RUN_LANE,
                            sample_loss_matrix)
        assert np.array_equal(longest.line_losses[RUN_BLOCK : 2 * RUN_BLOCK], block1)

    @pytest.mark.parametrize("runs", [RUN_BLOCK - 1, RUN_BLOCK, RUN_BLOCK + 1],
                             ids=["block-1", "block", "block+1"])
    def test_block_boundaries(self, case_graph, case_lines, runs):
        result = run_simulation(case_graph, case_lines, runs=runs, master_seed=4)
        assert result.line_losses.shape == (runs, 6)
        total = np.zeros(runs)
        for col in range(6):
            total += result.line_losses[:, col]
        assert np.array_equal(result.total_losses, total)

    def test_different_seeds_differ(self, case_graph, case_lines):
        a = run_simulation(case_graph, case_lines, runs=200, master_seed=1)
        b = run_simulation(case_graph, case_lines, runs=200, master_seed=2)
        assert not np.array_equal(a.line_losses, b.line_losses)

    def test_line_means_converge_to_oracle(self, case_graph, case_lines, case_result):
        for col, line in enumerate(case_lines):
            sample = case_result.line_losses[:, col]
            se = sample.std(ddof=1) / math.sqrt(sample.size)
            assert abs(sample.mean() - exact_line_mean(line, case_graph)) <= 4 * se

    def test_total_mean_converges(self, case_graph, case_lines, case_result):
        oracle = sum(exact_line_mean(line, case_graph) for line in case_lines)
        se = case_result.total_losses.std(ddof=1) / math.sqrt(case_result.total_losses.size)
        assert abs(case_result.total_losses.mean() - oracle) <= 4 * se

    def test_zero_trigger_line_column_is_zero(self):
        # the line's only trigger sits behind an entry node that never fires
        graph = AttackGraph(
            [VulnNode(1, entry_prob=0.0), VulnNode(2)], [Edge(1, 2, 0.9)]
        )
        line = BusinessLine(1, "dead line", frozenset({2}), TriggeredGamma(5.0, 1.0))
        result = run_simulation(graph, [line], runs=500, master_seed=3)
        assert np.all(result.line_losses == 0.0)

    def test_cyber_extortion_mostly_zero(self, case_result):
        stats = summarize(case_result.line_losses[:, 3], DEFAULT_QUANTILE_LEVELS)
        quantiles = dict(stats.quantiles)
        assert quantiles[0.75] == 0.0
        assert quantiles[0.95] == 0.0


class TestThreads:
    @pytest.mark.parametrize(
        "workers, blocks, cpus, expected",
        [
            (1, 10, 8, 1),
            (4, 2, 8, 2),
            (4, 10, 2, 2),
            (3, 10, 8, 3),
            (10**9, 3, 64, 3),
            (10**9, 10**9, 2, 2),
            (2, 1, 8, 1),
        ],
    )
    def test_thread_count_is_min_of_workers_blocks_cpus(self, workers, blocks, cpus, expected):
        assert thread_count(workers, blocks, cpus) == expected

    def test_thread_count_defaults_to_cpu_count(self):
        usable = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
        expected = len(usable) if usable else os.cpu_count() or 1
        assert thread_count(10**9, 10**9) == expected

    def test_thread_count_follows_the_affinity_mask(self, monkeypatch):
        # two CPUs usable on a 64-CPU host: never more than two threads
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert thread_count(8, 100) == 2
        monkeypatch.delattr(os, "sched_getaffinity")
        assert thread_count(8, 100) == 8

    @pytest.mark.parametrize("workers", [0, -5])
    def test_workers_below_one_rejected(self, workers):
        with pytest.raises(ValueError, match="workers must be >= 1"):
            thread_count(workers, 4, 2)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_every_block_drawn_once(self, workers):
        seen = []
        draw_blocks(seen.append, 7, workers)
        assert sorted(seen) == list(range(7))

    def test_blocks_drawn_side_by_side(self):
        # each of the first blocks waits until every thread holds one, so
        # this passes only if thread_count(2, 6) threads draw at once, the
        # calling thread among them
        threads = thread_count(2, 6)
        barrier = threading.Barrier(threads, timeout=30)
        drew = set()

        def draw(b):
            drew.add(threading.get_ident())
            if b < threads:
                barrier.wait()

        draw_blocks(draw, 6, workers=2)
        assert len(drew) == threads
        assert threading.get_ident() in drew

    def test_block_exception_is_raised(self):
        def draw(b):
            if b == 2:
                raise RuntimeError("block 2")

        with pytest.raises(RuntimeError, match="block 2"):
            draw_blocks(draw, 4, workers=2)

    def test_runs_identical_for_any_worker_count(self, case_graph, case_lines):
        runs = 3 * RUN_BLOCK + 11
        serial = run_simulation(case_graph, case_lines, runs, master_seed=17)
        for workers in (2, 3):
            threaded = run_simulation(case_graph, case_lines, runs, 17, workers)
            assert np.array_equal(threaded.line_losses, serial.line_losses)
            assert np.array_equal(threaded.total_losses, serial.total_losses)


def chain_graph(n: int) -> AttackGraph:
    nodes = [VulnNode(1, entry_prob=0.5), *(VulnNode(i) for i in range(2, n + 1))]
    return AttackGraph(nodes, [Edge(i, i + 1, 0.5) for i in range(1, n)])


class TestEnumerationCap:
    def test_23_node_chain_raises_before_allocating(self, case_lines):
        graph = chain_graph(23)
        tracemalloc.start()
        try:
            with pytest.raises(EnumerationSizeError, match="cap of 22"):
                run_simulation(graph, case_lines, runs=10, master_seed=1)
            with pytest.raises(EnumerationSizeError, match="cap of 22"):
                simulate_claims(graph, case_lines, 5, 10, [Policy(0.0, 1e3)], master_seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the joint or CDF of 2^23 states would take 64 MB
        assert peak < 1 << 20

    def test_22_node_chain_simulates(self, case_lines):
        result = run_simulation(chain_graph(22), case_lines, runs=10, master_seed=1)
        assert result.line_losses.shape == (10, len(case_lines))


class TestSummarize:
    def test_constant_vector(self):
        stats = summarize([5.0, 5.0, 5.0])
        assert stats.minimum == stats.maximum == stats.mean == 5.0
        assert stats.sd == 0.0
        assert all(value == 5.0 for _, value in stats.quantiles)

    def test_linear_interpolation(self):
        stats = summarize([0.0, 10.0], levels=(0.5,))
        assert stats.quantiles == ((0.5, 5.0),)
        assert stats.sd == pytest.approx(math.sqrt(50.0))

    def test_single_observation(self):
        stats = summarize([3.0], levels=(0.5,))
        assert stats.sd == 0.0
        assert stats.minimum == stats.maximum == 3.0

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="empty"):
            summarize([])

    def test_levels_must_increase(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            summarize([1.0, 2.0], levels=(0.5, 0.25))
        with pytest.raises(ValueError, match="in \\(0, 1\\)"):
            summarize([1.0, 2.0], levels=(0.0, 0.5))

    def test_quantiles_bounded_by_extremes(self):
        rng = np.random.default_rng(0)
        x = rng.lognormal(1.0, 2.0, 500)
        stats = summarize(x)
        for _, value in stats.quantiles:
            assert stats.minimum <= value <= stats.maximum

    @staticmethod
    def _bits(stats: SummaryStats) -> tuple[bytes, bytes]:
        quantiles = np.array([value for _, value in stats.quantiles])
        return quantiles.tobytes(), np.array([stats.minimum, stats.maximum]).tobytes()

    @given(st.lists(st.one_of(st.just(0.0), st.sampled_from((1.0, 2.5, 1e6, -3.0)),
                              st.sampled_from((math.nan, math.inf, -math.inf)),
                              st.floats(-1e9, 1e9, allow_nan=False).map(lambda v: v + 0.0)),
                    min_size=1, max_size=80),
           st.sampled_from((DEFAULT_QUANTILE_LEVELS, (0.5,), (0.01, 0.05, 0.1, 0.15, 0.5, 0.75))))
    @settings(max_examples=300, deadline=None, derandomize=True)
    # n = 1: every index (n-1) q is 0 = n-1, the above-bounds rule
    @example([7.5], DEFAULT_QUANTILE_LEVELS)
    @example([math.nan], (0.5,))
    # (n-1) q is an integer for every level: 1000 q here, 4 q and 100 q below
    @example([float(v) for v in range(1001, 0, -1)], DEFAULT_QUANTILE_LEVELS)
    @example([3.0, 1.0, 4.0, 1.0, 5.0], (0.25, 0.5, 0.75))
    @example([float(v % 7) for v in range(101)], (0.01, 0.05, 0.1, 0.15, 0.5, 0.75))
    # a NaN anywhere makes every quantile NaN, as numpy's NaN rule does
    @example([1.0, math.nan, 2.0, 3.0, 0.0], DEFAULT_QUANTILE_LEVELS)
    @example([math.inf, 1.0, -math.inf, math.nan], (0.5,))
    def test_bits_match_numpy(self, values, levels):
        # the sorted-copy quantiles are np.quantile's bits, for ties, zeros,
        # NaN and infinities, n = 1 and n = 2, on a strided column as well as
        # a contiguous one (v + 0.0 turns -0.0 into 0.0; the next test takes
        # signed zeros)
        x = np.array(values)
        with np.errstate(invalid="ignore"):  # inf - inf in numpy's lerp and in np.std
            expected = (np.quantile(x, levels).tobytes(), np.array([x.min(), x.max()]).tobytes())
            assert self._bits(summarize(x, levels)) == expected
            matrix = np.zeros((x.size, 3))
            matrix[:, 1] = x
            assert self._bits(summarize(matrix[:, 1], levels)) == expected

    @given(st.lists(st.sampled_from((-0.0, 0.0, 1.0, 2.0)), min_size=1, max_size=40))
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_signed_zeros(self, values):
        # min and max are x.min() and x.max() bit for bit; a quantile that
        # lands on a tie of -0.0 and 0.0 is either zero: np.quantile itself
        # picks the sign its partition happens to leave at that index
        x = np.array(values)
        stats = summarize(x)
        assert self._bits(stats)[1] == np.array([x.min(), x.max()]).tobytes()
        quantiles = np.array([value for _, value in stats.quantiles])
        expected = np.quantile(x, DEFAULT_QUANTILE_LEVELS)
        assert (quantiles + 0.0).tobytes() == (expected + 0.0).tobytes()

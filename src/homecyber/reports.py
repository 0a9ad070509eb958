"""Fixed-layout CSV tables for simulation, pricing, portfolio, and proposals.

The portfolio report and the proposal table are built straight from claims.

Output is byte-deterministic: fixed column orders per table kind, "\\n" line
terminator, and floats printed with their shortest round-trip representation
(Python repr), so every numeric cell re-parses to the identical double.
"""

from typing import Sequence, TextIO

import numpy as np

from .graph import AttackGraph, Frozen, JointDistribution
from .pricing import OVERFLOW, PrincipleParam, finite, premiums, sample_sd
from .scenario import NOT_IN_CELL
from .search import LRStrategy, loss_ratios, search_deductible
from .simulate import SimulationResult, summarize

SUMMARY_HEADER = (
    "Min", "Q25", "Median", "Q75", "Q90", "Q95", "Q99", "Q99.5", "Q99.9",
    "Max", "Mean", "SD",
)
PROFIT_LEVELS = (0.01, 0.05, 0.1, 0.15, 0.5, 0.75)
PROFIT_HEADER = ("Label", "Min", "Q1", "Q5", "Q10", "Q15", "Q50", "Q75", "Max", "Mean", "SD")
LR_LEVELS = (0.25, 0.5, 0.75, 0.9, 0.95, 0.995)
LR_HEADER = ("Label", "Min", "Q25", "Q50", "Q75", "Q90", "Q95", "Q99.5", "Max", "Mean", "SD")


class Table(Frozen):
    __slots__ = ("header", "rows")


def _format_cell(value) -> str:
    if isinstance(value, bool):
        raise TypeError("boolean cells are not part of any table layout")
    if isinstance(value, (float, np.floating)):  # numpy's own repr is "np.float64(1.5)"
        text = repr(float(value))
    elif isinstance(value, int):
        text = str(value)
    elif value is None:
        text = ""
    else:
        text = str(value)
        if any(ch in text for ch in NOT_IN_CELL):
            raise ValueError(f"cell {text!r} would break the CSV layout")
    return text


def render_csv(tables: Table | Sequence[Table]) -> str:
    """CSV text of one table, or of several tables one after another."""
    if isinstance(tables, Table):
        tables = (tables,)
    out = []
    for table in tables:
        out.append(",".join(table.header))
        out.extend(",".join(_format_cell(cell) for cell in row) for row in table.rows)
    return "\n".join(out) + "\n"


def _stat_row(cells: Sequence[float], label: str) -> tuple[float, ...]:
    message = f"{label}: {OVERFLOW}"
    return tuple(finite(cell, message) for cell in cells)


def summary_table(result: SimulationResult) -> Table:
    """Per-line rows then the total-loss row, with the twelve stat columns."""
    rows = []
    for col, idx in enumerate(result.line_indices):
        rows.append(_stat_row(summarize(result.line_losses[:, col]), f"L{idx}"))
    rows.append(_stat_row(summarize(result.total_losses), "total"))
    return Table(header=SUMMARY_HEADER, rows=tuple(rows))


def premium_table(result: SimulationResult, params: Sequence[PrincipleParam]) -> Table:
    """Each stored line's ``pricing.premiums`` under ``params`` in a row labelled
    ``L<index>``, as in :func:`summary_table`, then a total row; rho{k} is column k."""
    line_labels = [f"L{idx}" for idx in result.line_indices]
    per_line = []
    for label, column in zip(line_labels, result.line_losses.T):
        try:
            per_line.append(premiums(column, params))
        except OverflowError as exc:  # a loading over finite statistics
            raise ValueError(f"{label}: {exc}") from None
    rows = [(label, *_stat_row(row, label)) for label, row in zip(line_labels, per_line)]
    totals = tuple(finite(float(sum(column)), "total: the lines' premiums sum beyond float64")
                   for column in zip(*per_line))
    header = ("Line", *(f"rho{k}" for k in range(1, len(totals) + 1)))
    return Table(header, (*rows, ("total", *totals)))


def portfolio_tables(claims: np.ndarray, income: float) -> tuple[Table, Table]:
    """The portfolio report's Profit block and LR block for one claims sample.

    Profit is ``income - claims`` and LR is ``claims / income``.  The profit
    SD comes from the unshifted claims: SD is translation-invariant, so this
    keeps it the same bits at every premium level, not merely equal up to the
    last ulp.
    """
    profit = (*summarize(income - claims, PROFIT_LEVELS)[:-1], sample_sd(claims))
    profit_row = ("portfolio Profit", *_stat_row(profit, "portfolio Profit"))
    lr_row = ("portfolio LR",
              *_stat_row(summarize(loss_ratios(claims, income), LR_LEVELS), "portfolio LR"))
    return Table(header=PROFIT_HEADER, rows=(profit_row,)), Table(header=LR_HEADER, rows=(lr_row,))


def proposal_table(
    claims: np.ndarray, grid: Sequence[float], premiums: Sequence[tuple[str, float]],
    coverage: float, n_homes: int, strategies: tuple[LRStrategy, LRStrategy],
) -> Table:
    """Proposed deductibles per premium principle under two LR strategies.

    Row i of ``claims`` holds the portfolio claims of ``n_homes`` homes
    under deductible ``grid[i]`` (a ``deductible_grid``) and ``coverage``; every principle's
    ``(name, premium per home)`` and both strategies read those same
    samples, as does the mean profit reported for a chosen deductible.  A
    strategy's deductible and mean profit cells are empty when it finds none.
    """
    header = (
        "Principle", "Total premium", "Coverage limit",
        "Deductible 1", "Mean Profit 1", "Deductible 2", "Mean Profit 2",
    )
    claim_means = claims.mean(axis=1)
    rows = []
    for name, total in premiums:
        income = n_homes * total
        row = [name, total, coverage]
        for strategy in strategies:
            _, chosen = search_deductible(claims, grid, income, strategy)
            profit = None if chosen is None else income - float(claim_means[grid.index(chosen)])
            row += (chosen, profit)
        rows.append(tuple(row))
    return Table(header=header, rows=tuple(rows))


def _bit_prefixes(count: int) -> list[str]:
    """``"b0,b1,...,"`` (lowest bit first) for every value of a ``count``-bit field."""
    return [
        "".join(f"{(value >> k) & 1}," for k in range(count))
        for value in range(1 << count)
    ]


def write_joint_csv(joint: JointDistribution, out: TextIO) -> None:
    """Write the 2^n-row joint table to ``out`` in the :func:`render_csv` layout.

    One join per value of the high state bits (no 2^n-row table or string):
    newline-led low-bits prefixes, the high-bits prefix and each probability's
    repr.  Rows of probability +0.0, most of an attack-graph joint, skip
    ``repr`` and get its text ``0.0``, so the output is unchanged.
    """
    n = len(joint.node_ids)
    low = n // 2
    parts = np.empty(3 << low, dtype=object)
    parts[0::3] = ["\n" + prefix for prefix in _bit_prefixes(low)]
    out.write(",".join((*(f"S{nid}" for nid in joint.node_ids), "Prob")))
    for high, high_prefix in enumerate(_bit_prefixes(n - low)):
        chunk = joint.probs[high << low:(high + 1) << low]
        nonzero = np.flatnonzero(chunk.view(np.uint64))  # bits, so -0.0 and subnormals run repr
        parts[1::3], parts[2::3] = high_prefix, "0.0"
        parts[3 * nonzero + 2] = list(map(repr, chunk[nonzero].tolist()))
        out.write("".join(parts.tolist()))
    out.write("\n")


def marginals_table(graph: AttackGraph, marginals) -> Table:
    rows = tuple(
        (node.id, node.label, float(marginals[pos]))
        for pos, node in enumerate(graph.nodes)
    )
    return Table(header=("Node", "Label", "Prob"), rows=rows)

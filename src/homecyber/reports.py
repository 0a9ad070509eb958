"""Fixed-layout CSV tables for simulation, pricing, portfolio, and proposals.

Output is byte-deterministic: fixed column orders per table kind, "\\n" line
terminator, and floats printed with their shortest round-trip representation
(Python repr), so every numeric cell re-parses to the identical double.
"""

from typing import Sequence, TextIO

import numpy as np

from .graph import AttackGraph, Frozen, JointDistribution
from .pricing import OVERFLOW, finite
from .scenario import NOT_IN_CELL
from .search import ProposalRow, loss_ratios
from .simulate import SimulationResult, SummaryStats, summarize

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
    if isinstance(value, float):
        text = repr(value)
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


def _stat_row(stats: SummaryStats, label: str) -> tuple[float, ...]:
    quantiles = tuple(value for _, value in stats.quantiles)
    cells = (stats.minimum, *quantiles, stats.maximum, stats.mean, stats.sd)
    message = f"{label}: {OVERFLOW}"
    return tuple(finite(cell, message) for cell in cells)


def summary_table(result: SimulationResult) -> Table:
    """Per-line rows then the total-loss row, with the twelve stat columns."""
    rows = []
    for col, idx in enumerate(result.line_indices):
        rows.append(_stat_row(summarize(result.line_losses[:, col]), f"L{idx}"))
    rows.append(_stat_row(summarize(result.total_losses), "total"))
    return Table(header=SUMMARY_HEADER, rows=tuple(rows))


def premium_table(line_labels: Sequence[str], per_line: Sequence[Sequence[float]]) -> Table:
    """Rows per line plus a total row; column rho{k} holds each line's k-th premium."""
    rows = [(label, *(finite(float(cell), f"{label}: {OVERFLOW}") for cell in row))
            for label, row in zip(line_labels, per_line)]
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
    profit = summarize(income - claims, PROFIT_LEVELS)
    claim_sd = float(np.std(claims, ddof=1)) if claims.size > 1 else 0.0
    profit = SummaryStats(profit.minimum, profit.maximum, profit.mean, claim_sd, profit.quantiles)
    profit_row = ("portfolio Profit", *_stat_row(profit, "portfolio Profit"))
    lr_row = ("portfolio LR",
              *_stat_row(summarize(loss_ratios(claims, income), LR_LEVELS), "portfolio LR"))
    return Table(header=PROFIT_HEADER, rows=(profit_row,)), Table(header=LR_HEADER, rows=(lr_row,))


def proposal_table(rows: Sequence[ProposalRow]) -> Table:
    header = (
        "Principle", "Total premium", "Coverage limit",
        "Deductible 1", "Mean Profit 1", "Deductible 2", "Mean Profit 2",
    )
    # ProposalRow's fields are in column order
    return Table(header=header, rows=tuple(r.astuple() for r in rows))


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

"""Fixed-layout CSV tables for simulation, pricing, portfolio, and proposals.

Output is byte-deterministic: fixed column orders per table kind, "\\n" line
terminator, and floats printed with their shortest round-trip representation
(Python repr), so every numeric cell re-parses to the identical double.
"""

from dataclasses import astuple, dataclass
from pathlib import Path
from typing import Sequence, TextIO

from .graph import AttackGraph, JointDistribution
from .portfolio import PortfolioResult, profit_summary
from .search import ProposalRow
from .simulate import SimulationResult, SummaryStats, summarize

SUMMARY_HEADER = (
    "Min", "Q25", "Median", "Q75", "Q90", "Q95", "Q99", "Q99.5", "Q99.9",
    "Max", "Mean", "SD",
)
SUMMARY_LEVELS = (0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.995, 0.999)
PROFIT_LEVELS = (0.01, 0.05, 0.1, 0.15, 0.5, 0.75)
PROFIT_HEADER = ("Label", "Min", "Q1", "Q5", "Q10", "Q15", "Q50", "Q75", "Max", "Mean", "SD")
LR_LEVELS = (0.25, 0.5, 0.75, 0.9, 0.95, 0.995)
LR_HEADER = ("Label", "Min", "Q25", "Q50", "Q75", "Q90", "Q95", "Q99.5", "Max", "Mean", "SD")


@dataclass(frozen=True)
class Table:
    header: tuple[str, ...]
    rows: tuple[tuple, ...]


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
        if "," in text or "\n" in text:
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


def export_csv(tables: Table | Sequence[Table], path: str | Path) -> Path:
    """Write ``render_csv(tables)`` to ``path``, creating its directory."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(render_csv(tables))
    return path


def _stat_row(stats: SummaryStats) -> tuple[float, ...]:
    quantiles = tuple(value for _, value in stats.quantiles)
    return (stats.minimum, *quantiles, stats.maximum, stats.mean, stats.sd)


def summary_table(result: SimulationResult) -> Table:
    """Per-line rows then the total-loss row, with the twelve stat columns."""
    rows = []
    for col in range(result.line_losses.shape[1]):
        rows.append(_stat_row(summarize(result.line_losses[:, col], SUMMARY_LEVELS)))
    rows.append(_stat_row(summarize(result.total_losses, SUMMARY_LEVELS)))
    return Table(header=SUMMARY_HEADER, rows=tuple(rows))


def premium_table(
    line_labels: Sequence[str], per_principle: dict[str, Sequence[float]]
) -> Table:
    """Rows per line plus a total row; one column per principle."""
    principles = tuple(per_principle)
    rows = []
    for i, label in enumerate(line_labels):
        rows.append((label, *(float(per_principle[p][i]) for p in principles)))
    rows.append(("total", *(float(sum(per_principle[p])) for p in principles)))
    return Table(header=("Line", *principles), rows=tuple(rows))


def portfolio_tables(
    results: Sequence[tuple[str, PortfolioResult]]
) -> tuple[Table, Table]:
    """Profit block and LR block in the two-block portfolio layout."""
    profit_rows = []
    lr_rows = []
    for label, result in results:
        p = profit_summary(result, PROFIT_LEVELS)
        profit_rows.append((f"{label} Profit", *_stat_row(p)))
        l = summarize(result.lr, LR_LEVELS)
        lr_rows.append((f"{label} LR", *_stat_row(l)))
    return (
        Table(header=PROFIT_HEADER, rows=tuple(profit_rows)),
        Table(header=LR_HEADER, rows=tuple(lr_rows)),
    )


def proposal_table(rows: Sequence[ProposalRow]) -> Table:
    header = (
        "Principle", "Total premium", "Coverage limit",
        "Deductible 1", "Mean Profit 1", "Deductible 2", "Mean Profit 2",
    )
    # ProposalRow's fields are in column order
    return Table(header=header, rows=tuple(astuple(r) for r in rows))


def _bit_prefixes(count: int) -> list[str]:
    """``"b0,b1,...,"`` (lowest bit first) for every value of a ``count``-bit field."""
    return [
        "".join(f"{(value >> k) & 1}," for k in range(count))
        for value in range(1 << count)
    ]


def write_joint_csv(joint: JointDistribution, out: TextIO) -> None:
    """Write the 2^n-row joint table to ``out`` in the :func:`render_csv` layout.

    Rows go out one chunk per value of the high state bits, so no 2^n-row
    table or string is built: each row is a precomputed low-bits prefix, a
    high-bits prefix and the probability's repr.
    """
    n = len(joint.node_ids)
    low = n // 2
    low_prefixes = _bit_prefixes(low)
    out.write(",".join((*(f"S{nid}" for nid in joint.node_ids), "Prob")) + "\n")
    for high, high_prefix in enumerate(_bit_prefixes(n - low)):
        chunk = joint.probs[high << low:(high + 1) << low].tolist()
        out.write("".join([
            f"{low_prefix}{high_prefix}{p!r}\n"
            for low_prefix, p in zip(low_prefixes, chunk)
        ]))


def marginals_table(graph: AttackGraph, marginals) -> Table:
    rows = tuple(
        (node.id, node.label, float(marginals[pos]))
        for pos, node in enumerate(graph.nodes)
    )
    return Table(header=("Node", "Label", "Prob"), rows=rows)

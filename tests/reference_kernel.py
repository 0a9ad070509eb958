"""The loss kernel on raw state indices, kept as a bit-exact reference.

This is the kernel as it read before the loss plan was indexed by the
joint's support: a line fires on state index ``i`` when ``i & mask`` is not
0, and an exponential line's rate is ``low[i & (2^half - 1)] + high[i >>
half]``, computed on every fired row.  ``losses.line_draws`` must give the
same columns, fired rows and draw bits for the same stream when its
positions are mapped through ``plan.states``; the line losses and row
totals of ``simulate.run_simulation``, and the per-home totals of
``portfolio.simulate_claims``, must match ``reference_loss_matrix`` and
``reference_loss_totals``.
"""

import numpy as np

from homecyber.losses import RateSumExponential, TriggeredLognormal


def reference_tables(graph, lines):
    """``(lines in index order, trigger masks, rate half-tables, half)``."""
    half = (graph.n + 1) // 2
    ordered = tuple(sorted(lines, key=lambda ln: ln.index))
    tables = []
    for line in ordered:
        if not isinstance(line.model, RateSumExponential):
            tables.append(None)
            continue
        low, high = np.zeros(1 << half), np.zeros(1 << (graph.n - half))
        for nid, rate in line.model.rates:
            pos = graph.position(nid)
            table, bit = (low, pos) if pos < half else (high, pos - half)
            table.reshape(-1, 2, 1 << bit)[:, 1, :] += rate
        tables.append((low, high))
    masks = [sum(1 << graph.position(nid) for nid in ln.trigger_set) for ln in ordered]
    return ordered, masks, tables, half


def reference_line_draws(graph, lines, indices, rng):
    """``(column, fired rows, severities)`` per line, in ascending line order."""
    ordered, masks, tables, half = reference_tables(graph, lines)
    low_bits = (1 << half) - 1
    for col, (line, mask, table) in enumerate(zip(ordered, masks, tables)):
        rows = np.flatnonzero((indices & mask) != 0)
        model = line.model
        if table is not None:
            fired = indices[rows]
            lam = table[0][fired & low_bits] + table[1][fired >> half]
            yield col, rows, rng.standard_exponential(rows.size) / lam
        elif isinstance(model, TriggeredLognormal):
            yield col, rows, rng.lognormal(model.mu, model.sigma, rows.size)
        else:
            yield col, rows, rng.gamma(model.alpha, 1.0 / model.beta, rows.size)


def reference_loss_matrix(graph, lines, indices, rng):
    out = np.zeros((indices.size, len(lines)))
    for col, rows, draws in reference_line_draws(graph, lines, indices, rng):
        out[rows, col] = draws
    return out


def reference_loss_totals(graph, lines, indices, rng):
    totals = np.zeros(indices.size)
    for _, rows, draws in reference_line_draws(graph, lines, indices, rng):
        totals[rows] += draws
    return totals

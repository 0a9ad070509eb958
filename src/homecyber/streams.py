"""Deterministic random substreams for reproducible simulation.

Each (master seed, lane, index) triple selects a disjoint 2^128-draw counter
range of one Philox stream, so the draws of run block b (or replication
group g) are a pure function of (master_seed, b) and do not depend on how
many blocks or groups a command asks for.  A block's stream holds one
uniform per row for its state indices, then the fired rows' severities.
"""

from functools import lru_cache

import numpy as np

RUN_LANE = 0
REPLICATION_LANE = 1

# Version of the mapping from runs and replications to substreams, recorded
# in every run manifest.  Layout 1 gave each single-home run its own
# substream; layout 2 gives each block of simulate.RUN_BLOCK runs one, and
# each portfolio replication one.  Layout 3 gives each group of
# max(1, RUN_BLOCK // n_homes) portfolio replications one, and draws a
# line's severities only for the rows where the line fires.  Layout 4 keeps
# those substreams but draws one uniform per row, inverted through the exact
# joint's CDF to a state index, where layout 3 drew one per node and row.
# Layout 5 draws the same way in blocks of 2^14 rows where layout 4 used
# 4096, so portfolio groups hold max(1, 16384 // n_homes) replications.
# Blocks may be drawn on any number of threads without changing a draw.
STREAM_LAYOUT = 5


@lru_cache(maxsize=64)
def _philox_key(master_seed: int) -> tuple[int, int]:
    state = np.random.SeedSequence(master_seed).generate_state(2, np.uint64)
    return int(state[0]), int(state[1])


def substream(master_seed: int, index: int, lane: int = 0) -> np.random.Generator:
    """Generator for one substream; counter word 0 is the one that increments."""
    key = np.array(_philox_key(master_seed), dtype=np.uint64)
    counter = np.array([0, 0, lane, index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key, counter=counter))

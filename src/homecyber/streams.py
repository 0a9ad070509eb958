"""Deterministic random substreams for reproducible simulation.

Each (master seed, lane, index) triple seeds one SFC64 generator with the
spawn key (lane, index) of the master seed's SeedSequence, so the draws of
run block b (or replication group g) are a pure function of (master_seed, b)
and do not depend on how many blocks or groups a command asks for.  A
block's stream holds one uniform per row for its state indices, then the
fired rows' severities.
"""

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
# Layout 6 draws the same way from SFC64 generators seeded by SeedSequence
# spawn keys, where layouts 1-5 used Philox counter substreams of one key.
# Layout 7 draws the same way in blocks of 2^15 rows, so portfolio groups
# hold max(1, 32768 // n_homes) replications; up to 16384 runs are one
# block under either layout, so their draws match layout 6's.
# Blocks may be drawn on any number of threads without changing a draw.
STREAM_LAYOUT = 7


def substream(master_seed: int, index: int, lane: int = 0) -> np.random.Generator:
    """Generator for one substream, seeded by the spawn key ``(lane, index)``."""
    seed = np.random.SeedSequence(master_seed, spawn_key=(lane, index))
    return np.random.Generator(np.random.SFC64(seed))

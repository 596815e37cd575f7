"""Counter-based random streams, one independent stream per block of trials.

Trials run in consecutive blocks of ``BLOCK_SIZE``; trial ``i`` belongs to
block ``i // BLOCK_SIZE``.  Every block draws from its own Philox stream
keyed by ``(experiment seed, block index)``, so a block's draws depend on
nothing but that key and output is reproducible byte-for-byte however the
blocks are scheduled.
"""

from __future__ import annotations

import numpy as np

#: Trials per block; part of the stream contract, so changing it changes output.
BLOCK_SIZE = 4096
#: Seeds must lie in [0, SEED_LIMIT): they fill one 64-bit word of the Philox key.
SEED_LIMIT = 2**64


def block_rng(seed: int, block_index: int) -> np.random.Generator:
    """Independent generator for one block, keyed by (seed, block index)."""
    key = np.array([seed, block_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))

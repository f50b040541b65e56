"""A dropped batch leaves nothing behind.

Everything ``run_batch`` builds — index sets, headers, sort keys, fold
indexes — is scoped to the call.  Once the result and the engine are
dropped, a full collection must give the memory back: no process-global
cache may keep a finished batch's index sets alive.
"""

import gc
import tracemalloc

import numpy as np

from repro.core import FafnirConfig, FafnirEngine
from repro.memory import MemoryConfig

QUERIES = 64
QUERY_LEN = 32
RANKS = 16
UNIVERSE = 2048

#: Bytes a dropped batch may leave traced.  A batch of this shape allocates
#: ~17 MiB at its peak; what survives it is a few hundred bytes of
#: interpreter bookkeeping.  A cache keyed on the batch's index sets
#: retains megabytes here.
RETAINED_BOUND = 64 * 1024


def test_dropped_batch_frees_its_memory():
    rng = np.random.default_rng(0)
    batch = [
        rng.choice(UNIVERSE, size=QUERY_LEN, replace=False).tolist()
        for _ in range(QUERIES)
    ]
    rows = list(rng.standard_normal((UNIVERSE, 8)))
    config = FafnirConfig(
        batch_size=QUERIES,
        max_query_len=QUERY_LEN,
        vector_bytes=8 * 4,
        total_ranks=RANKS,
        ranks_per_leaf_pe=2,
        num_tables=RANKS,
    )
    memory = MemoryConfig().scaled_to_ranks(RANKS)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        engine = FafnirEngine(config=config, memory_config=memory)
        result = engine.run_batch(batch, rows.__getitem__)
        assert len(result.vectors) == QUERIES
        del result, engine
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < RETAINED_BOUND, f"{retained / 2**20:.2f} MiB retained"

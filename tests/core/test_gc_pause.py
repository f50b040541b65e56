"""The collector contract of ``FafnirEngine.run_batch``.

``run_batch`` runs with CPython's cyclic garbage collector paused.  That is
only safe if a batch builds no reference cycles — otherwise everything a
cycle reaches stays alive until the next collection — and only polite if
the collector comes back exactly as the call found it.  These tests pin
both halves on every execution path: after a call, with its result dropped,
a full collection finds nothing, and ``gc.isenabled()`` is unchanged
whether the call returns, raises, nests or runs beside other threads.
"""

import gc
import sys
import threading

import numpy as np
import pytest

from repro.comm import LinkModel
from repro.core import FafnirConfig, FafnirEngine, ShardedRunner
from repro.core.phased import PhasedFafnirEngine
from repro.faults import FaultPlan, FaultPolicy, SourceFaultError
from repro.memory import MemoryConfig
from repro.obs import ColumnarSink, InMemorySink, Tracer
from repro.serving import (
    ContinuousBatcher,
    OpenLoopGenerator,
    RampStage,
    ServingSimulator,
)
from repro.workloads import EmbeddingTableSet, QueryGenerator

RANKS = 16
ELEMENTS = 8
UNIVERSE = 256


def config(**overrides):
    fields = dict(
        batch_size=16,
        max_query_len=8,
        vector_bytes=ELEMENTS * 4,
        total_ranks=RANKS,
        ranks_per_leaf_pe=2,
        num_tables=RANKS,
    )
    fields.update(overrides)
    return FafnirConfig(**fields)


def make_engine(cls=FafnirEngine, **kwargs):
    return cls(
        config=config(),
        memory_config=MemoryConfig().scaled_to_ranks(RANKS),
        **kwargs,
    )


def source(index):
    return np.random.default_rng(70_000 + index).normal(size=ELEMENTS)


def random_batch(seed, queries=16, length=8):
    rng = np.random.default_rng(seed)
    return [
        rng.choice(UNIVERSE, size=length, replace=False).tolist()
        for _ in range(queries)
    ]


#: Several indices of one query homed on one rank (index mod RANKS), so the
#: leaf FIFO fold does real work.
CO_LOCATED = [
    [0, 16, 32, 48, 1, 17],
    [0, 16, 33, 49],
    [2, 18, 34, 50, 66, 82, 98, 114],
    [16, 32, 48],
    [3, 19, 4, 20, 5, 21],
]


@pytest.fixture
def restore_collector():
    """Put the collector back however a test leaves it."""
    enabled = gc.isenabled()
    yield
    if enabled:
        gc.enable()
    else:
        gc.disable()


def garbage_left_by(call):
    """Unreachable objects a full collection finds after ``call()``.

    One warm-up call first, so that one-off lazy set-up inside the library
    cannot count against the batch.  The measured call runs with the
    collector off throughout, so a cycle cannot be collected mid-call (as
    it could between two dispatches of a serving run) and slip past.
    """
    call()
    gc.collect()
    gc.disable()
    result = call()
    del result
    return gc.collect()


def serving_simulator_run():
    tables = EmbeddingTableSet.random(seed=0)
    load = OpenLoopGenerator(
        QueryGenerator.paper_calibrated(tables, seed=1, query_len=16),
        [RampStage(qps=4e6, duration_us=60 / 4e6 * 1e6)],
        slo_us=25.0,
        seed=2,
    )
    simulator = ServingSimulator(
        batcher=ContinuousBatcher(batch_size=16, window=64)
    )
    return lambda: simulator.run(load, tables.vector)


def sharded_run_reduced():
    runner = ShardedRunner(
        config=config(batch_size=8),
        max_workers=1,
        reduction="recursive_doubling",
        num_shards=4,
        link=LinkModel(latency_ns=300.0, bandwidth_gb_s=20.0),
        faults=FaultPlan(seed=5, rank_timeout_probability={3: 0.5}),
        fault_policy=FaultPolicy.graceful(max_read_retries=0),
    )
    batches = [random_batch(seed, queries=8) for seed in range(3)]
    return lambda: runner.run_reduced(batches, source)


def engine_call(batch=None, deduplicate=True, **kwargs):
    engine = make_engine(**kwargs)
    batch = random_batch(1) if batch is None else batch
    return lambda: engine.run_batch(batch, source, deduplicate=deduplicate)


CALLS = {
    "object": lambda: engine_call(),
    "soa": lambda: engine_call(engine="soa"),
    "phased": lambda: engine_call(cls=PhasedFafnirEngine),
    "no-dedup": lambda: engine_call(deduplicate=False),
    "co-located-object": lambda: engine_call(CO_LOCATED),
    "co-located-soa": lambda: engine_call(CO_LOCATED, engine="soa"),
    "degrade": lambda: engine_call(
        faults=FaultPlan(seed=0, rank_timeout_probability={0: 1.0, 5: 1.0}),
        fault_policy=FaultPolicy.graceful(max_read_retries=0),
    ),
    "in-memory-sink": lambda: engine_call(tracer=Tracer([InMemorySink()])),
    "columnar-sink-soa": lambda: engine_call(
        engine="soa", tracer=Tracer([ColumnarSink()])
    ),
    "sharded-run-reduced": sharded_run_reduced,
    "serving-simulator": serving_simulator_run,
}


@pytest.mark.parametrize("name", sorted(CALLS))
def test_call_leaves_no_cyclic_garbage(name, restore_collector):
    assert garbage_left_by(CALLS[name]()) == 0


def test_degrade_case_drops_indices():
    """Guard for the "degrade" case above: the dropped-index path runs."""
    result = CALLS["degrade"]()()
    assert result.dropped_indices
    assert "degraded" in result.query_statuses


@pytest.mark.parametrize("enabled", [True, False])
def test_collector_state_restored_after_return(enabled, restore_collector):
    engine = make_engine()
    gc.enable() if enabled else gc.disable()
    engine.run_batch(random_batch(2), source)
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False])
def test_collector_state_restored_after_raise(enabled, restore_collector):
    engine = make_engine(faults=FaultPlan(seed=3, source_failure_probability=1.0))
    gc.enable() if enabled else gc.disable()
    with pytest.raises(SourceFaultError):
        engine.run_batch(random_batch(3), source)
    assert gc.isenabled() is enabled


@pytest.mark.parametrize("enabled", [True, False])
def test_collector_state_restored_after_nested_run_batches(
    enabled, restore_collector
):
    engine = make_engine()
    gc.enable() if enabled else gc.disable()
    engine.run_batches([random_batch(seed) for seed in range(3)], source)
    assert gc.isenabled() is enabled


def test_collector_paused_inside_the_call(restore_collector):
    gc.enable()
    seen = []

    def watched(index):
        seen.append(gc.isenabled())
        return source(index)

    make_engine().run_batches([random_batch(4), random_batch(5)], watched)
    assert seen and not any(seen)
    assert gc.isenabled()


@pytest.mark.parametrize("enabled", [True, False])
def test_collector_state_restored_after_concurrent_threads(
    enabled, restore_collector
):
    """More threads than cores, switching often, overlapping their batches."""
    threads = 8
    start = threading.Barrier(threads)
    seen = []
    errors = []

    def watched(index):
        seen.append(gc.isenabled())
        return source(index)

    def worker(seed):
        try:
            engine = make_engine()
            start.wait()
            for offset in range(3):
                engine.run_batch(random_batch(seed * 10 + offset), watched)
        except Exception as error:  # surfaced below, on the main thread
            errors.append(error)

    gc.enable() if enabled else gc.disable()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        pool = [threading.Thread(target=worker, args=(i,)) for i in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in pool)
    assert not errors
    assert seen and not any(seen)
    assert gc.isenabled() is enabled

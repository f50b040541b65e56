"""Differential harness: FAFNIR vs a CPU oracle across randomized configs.

Independent implementations of the same contract are compared on
randomly drawn machines and workloads:

* **functional** — the tree's per-query outputs must equal a plain NumPy
  reduction of the same table rows, whatever the tree arity, rank count,
  rank→leaf wiring permutation, batch shape, or dedup setting;
* **behavioural** — the scalar object walk (one ``ProcessingElement`` at
  a time over per-message objects) and the vectorized level-synchronous
  SoA sweep must emit *identical* event streams (same kinds, cycles, PEs,
  levels, args, in the same order) and identical per-level event counts.
  Byte-identical outputs could still hide divergent internal
  scheduling; stream equality cannot.

Object == SoA == CPU oracle is checked plain (untraced), traced through
the object in-memory sink and the packed columnar sink, and
fault-injected (latency degradation + read timeouts under the degrade
policy) — the SoA sweep must be indistinguishable from the object walk
in every observable, not just on the happy path.

Configs are drawn from a seeded RNG so every run covers the same
machines (failures reproduce) while spanning the space far wider than
hand-written cases would.
"""

import numpy as np
import pytest

from repro.core.config import FafnirConfig
from repro.core.engine import FafnirEngine
from repro.core.operators import MAX, MEAN, SUM
from repro.faults import FaultPlan
from repro.obs import ColumnarSink, InMemorySink, Tracer, per_level_counts

UNIVERSE = 512


def random_setup(seed):
    """Draw one machine + workload: (config, rank_order, queries, dedup)."""
    rng = np.random.default_rng(seed)
    leaves = int(rng.choice([2, 4, 8]))
    ranks_per_leaf = int(rng.choice([1, 2, 4]))
    total_ranks = leaves * ranks_per_leaf
    max_query_len = int(rng.integers(2, 9))
    batch_size = int(rng.integers(2, 17))
    config = FafnirConfig(
        total_ranks=total_ranks,
        ranks_per_leaf_pe=ranks_per_leaf,
        batch_size=batch_size,
        max_query_len=max_query_len,
        vector_bytes=int(rng.choice([32, 64, 128])),
    )
    rank_order = (
        [int(r) for r in rng.permutation(total_ranks)]
        if rng.random() < 0.5
        else None
    )
    num_queries = int(rng.integers(1, batch_size + 1))
    queries = [
        rng.choice(
            UNIVERSE, size=rng.integers(1, max_query_len + 1), replace=False
        ).tolist()
        for _ in range(num_queries)
    ]
    deduplicate = bool(rng.random() < 0.7)
    return config, rank_order, queries, deduplicate


def make_table(config, seed):
    rng = np.random.default_rng(10_000 + seed)
    return {
        index: rng.standard_normal(config.vector_elements)
        for index in range(UNIVERSE)
    }


def cpu_reduce(operator, table, query):
    """The oracle: reduce the same rows with plain NumPy."""
    rows = [np.asarray(table[index], dtype=np.float64) for index in sorted(query)]
    return operator.reduce_many(rows)


SEEDS = range(12)


@pytest.mark.parametrize("seed", SEEDS)
def test_fafnir_matches_cpu_reduction(seed):
    config, rank_order, queries, deduplicate = random_setup(seed)
    table = make_table(config, seed)
    engine = FafnirEngine(config=config, rank_order=rank_order)
    result = engine.run_batch(
        queries, table.__getitem__, deduplicate=deduplicate
    )
    assert len(result.vectors) == len(queries)
    for query, vector in zip(queries, result.vectors):
        expected = cpu_reduce(SUM, table, query)
        np.testing.assert_allclose(vector, expected, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("operator", [SUM, MAX, MEAN], ids=lambda o: o.name)
def test_fafnir_matches_cpu_reduction_all_operators(operator):
    config, rank_order, queries, deduplicate = random_setup(99)
    table = make_table(config, 99)
    engine = FafnirEngine(
        config=config, operator=operator, rank_order=rank_order
    )
    result = engine.run_batch(
        queries, table.__getitem__, deduplicate=deduplicate
    )
    for query, vector in zip(queries, result.vectors):
        expected = cpu_reduce(operator, table, query)
        np.testing.assert_allclose(vector, expected, rtol=1e-12, atol=1e-12)


def run_engine(config, rank_order, queries, deduplicate, table, engine,
               sinks=None, faults=None):
    """One batch through ``engine``; returns (result, object-sink events)."""
    instance = FafnirEngine(
        config=config,
        engine=engine,
        rank_order=rank_order,
        faults=faults,
        tracer=Tracer(sinks) if sinks is not None else None,
    )
    result = instance.run_batch(
        queries, table.__getitem__, deduplicate=deduplicate
    )
    events = None
    if sinks is not None:
        recorded = [s for s in sinks if isinstance(s, InMemorySink)]
        events = recorded[0].events if recorded else None
    return result, events


def assert_matches_oracle(result, queries, table, operator=SUM):
    """Every ``ok``/``degraded`` query equals the CPU oracle over the
    indices that survived; ``failed`` queries are all-NaN poison."""
    for query, vector, status in zip(
        queries, result.vectors, result.query_statuses
    ):
        surviving = set(query) - result.dropped_indices
        if status == "failed":
            assert not surviving and np.isnan(vector).all()
            continue
        expected = cpu_reduce(operator, table, surviving)
        np.testing.assert_allclose(vector, expected, rtol=1e-12, atol=1e-12)


def _assert_runs_identical(reference, candidate):
    """Every observable of two engine runs must match bit for bit."""
    ref_result, ref_events = reference
    cand_result, cand_events = candidate
    assert len(ref_result.vectors) == len(cand_result.vectors)
    for a, b in zip(ref_result.vectors, cand_result.vectors):
        assert a.tobytes() == b.tobytes()
    assert (
        ref_result.stats.latency_pe_cycles
        == cand_result.stats.latency_pe_cycles
    )
    assert ref_result.stats.per_pe_work == cand_result.stats.per_pe_work
    assert ref_result.query_statuses == cand_result.query_statuses
    assert ref_events == cand_events
    if ref_events is not None:
        # Per-level counts are implied by stream equality, but assert
        # them explicitly: if streams ever diverge, the level histogram
        # localizes which tree stage drifted.
        assert per_level_counts(ref_events) == per_level_counts(cand_events)


@pytest.mark.parametrize("seed", SEEDS)
def test_scalar_and_vector_kernels_emit_identical_event_streams(seed):
    """The scalar object walk and the vectorized SoA sweep, traced
    through the object in-memory sink, emit ``==``-equal streams and
    agree with the CPU oracle."""
    config, rank_order, queries, deduplicate = random_setup(seed)
    table = make_table(config, seed)
    runs = [
        run_engine(
            config, rank_order, queries, deduplicate, table, engine,
            sinks=[InMemorySink()],
        )
        for engine in ("object", "soa")
    ]
    assert runs[0][1], "run recorded nothing"
    _assert_runs_identical(*runs)
    assert_matches_oracle(runs[0][0], queries, table)


@pytest.mark.parametrize("seed", SEEDS)
def test_three_engine_paths_are_indistinguishable(seed):
    """object walk == SoA sweep == CPU oracle, untraced.

    The SoA sweep is a from-scratch rewrite of the tree walk (bitset
    pools instead of frozensets, level-synchronous batches instead of a
    per-PE object loop), so nothing is shared with the object path
    except the contract; the oracle shares nothing at all.
    """
    config, rank_order, queries, deduplicate = random_setup(seed)
    table = make_table(config, seed)
    object_run = run_engine(
        config, rank_order, queries, deduplicate, table, "object"
    )
    soa_run = run_engine(config, rank_order, queries, deduplicate, table, "soa")
    _assert_runs_identical(object_run, soa_run)
    assert_matches_oracle(object_run[0], queries, table)


@pytest.mark.parametrize("seed", SEEDS)
def test_soa_sweep_matches_object_walk_under_faults(seed):
    """Fault injection exercises retry/timeout paths the happy-path seeds
    never reach; the SoA sweep must replicate the object walk's behaviour
    there too — same degraded timings, same statuses, same streams — and
    every surviving query must still match the oracle."""
    config, rank_order, queries, deduplicate = random_setup(seed)
    table = make_table(config, seed)
    plan = FaultPlan(
        seed=seed,
        rank_latency_multipliers={1: 1.4},
        rank_timeout_probability={0: 0.15},
    )
    object_run, soa_run = (
        run_engine(
            config, rank_order, queries, deduplicate, table, engine,
            sinks=[InMemorySink()], faults=plan,
        )
        for engine in ("object", "soa")
    )
    _assert_runs_identical(object_run, soa_run)
    assert_matches_oracle(object_run[0], queries, table)


@pytest.mark.parametrize("seed", SEEDS)
def test_columnar_sink_materializes_object_stream(seed):
    """The packed columnar ring buffer and the object in-memory sink are
    two encodings of one stream: recording a run through both at once
    must materialize to ``==``-equal event lists, and the object walk's
    and the SoA sweep's columnar recordings must be equal too."""
    config, rank_order, queries, deduplicate = random_setup(seed)
    table = make_table(config, seed)
    columnar = {}
    for engine in ("object", "soa"):
        sinks = [ColumnarSink(), InMemorySink()]
        run_engine(
            config, rank_order, queries, deduplicate, table, engine,
            sinks=sinks,
        )
        objects = sinks[1]
        assert objects.events, "run recorded nothing"
        assert len(sinks[0]) == len(objects.events)
        columnar[engine] = sinks[0].to_events()
        assert columnar[engine] == objects.events
    assert columnar["object"] == columnar["soa"]


@pytest.mark.parametrize("seed", SEEDS)
def test_rank_order_permutation_is_functionally_invisible(seed):
    """Rewiring ranks to different leaves changes timing at most — every
    query's reduced vector must be unchanged."""
    config, _, queries, deduplicate = random_setup(seed)
    table = make_table(config, seed)
    rng = np.random.default_rng(777 + seed)
    permuted = [int(r) for r in rng.permutation(config.total_ranks)]

    identity = FafnirEngine(config=config).run_batch(
        queries, table.__getitem__, deduplicate=deduplicate
    )
    rewired = FafnirEngine(config=config, rank_order=permuted).run_batch(
        queries, table.__getitem__, deduplicate=deduplicate
    )
    for a, b in zip(identity.vectors, rewired.vectors):
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("seed", SEEDS)
def test_dedup_ablation_is_functionally_invisible(seed):
    """Redundant-access elimination is a performance mechanism: outputs
    with and without it must agree on every random machine."""
    config, rank_order, queries, _ = random_setup(seed)
    table = make_table(config, seed)

    def run(deduplicate):
        engine = FafnirEngine(config=config, rank_order=rank_order)
        return engine.run_batch(
            queries, table.__getitem__, deduplicate=deduplicate
        )

    with_dedup = run(True)
    without = run(False)
    for a, b in zip(with_dedup.vectors, without.vectors):
        np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12)
    # The ablation can only read more, never less.
    assert (
        without.stats.memory.reads >= with_dedup.stats.memory.reads
    )

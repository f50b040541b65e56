"""The benchmark's four workloads: inputs, set-up, one call, output check.

Every workload drives one public entry point of the library with its public
defaults (engine ``"object"``, kernel ``"vector"``), so a later change to a
default is measured the way users get it.  On the host side each workload is
closed-loop: the benchmark makes one call, waits for it, and makes the next.
The serving workloads' open-loop Poisson arrivals exist only in *modeled*
time, inside :class:`~repro.serving.ServingSimulator`.

A workload object is stateless; :meth:`Workload.inputs` derives everything
from the seed, :meth:`Workload.build` is the set-up that ``setup_s`` times,
:meth:`Workload.call` is the timed operation, and :meth:`Workload.check`
runs outside the timed region and returns an :class:`Outcome`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence, Tuple

import numpy as np

from repro.comm.reducer import ShardSplit
from repro.core import FafnirConfig, FafnirEngine, ShardedRunner
from repro.faults import FaultPlan, FaultPolicy
from repro.faults.policy import STATUS_DEGRADED, STATUS_FAILED, STATUS_OK
from repro.memory import MemoryConfig
from repro.memory.mapping import RowMajorPlacement
from repro.serving import (
    ContinuousBatcher,
    OpenLoopGenerator,
    RampStage,
    ServingSimulator,
)
from repro.tiering.cache import HotTierConfig
from repro.workloads import EmbeddingTableSet, QueryGenerator

#: Output tolerance, as in the differential test harness.
RTOL = ATOL = 1e-12


@dataclass
class Outcome:
    """What the output check learned from one call.

    ``modeled`` holds the call's modeled-time counts; they must repeat
    exactly on every call of one invocation.  ``gathered_bytes`` is the
    vector data the call gathered (unique reads × modeled vector size).
    """

    queries: int
    failed: int
    modeled: Dict[str, float]
    gathered_bytes: int
    statuses: Dict[str, int] = field(default_factory=dict)


def _mismatches(vectors: np.ndarray, expected: np.ndarray) -> np.ndarray:
    """Per-row flag: the row differs from the oracle beyond the tolerance."""
    close = np.isclose(vectors, expected, rtol=RTOL, atol=ATOL)
    return ~close.all(axis=1)


def _oracle(rows: Dict[int, np.ndarray], query: Sequence[int]) -> np.ndarray:
    """SUM over the query's unique rows, in plain NumPy."""
    return np.sum([rows[index] for index in sorted(set(query))], axis=0)


class _Replay:
    """A load source that hands the simulator a pre-generated arrival list."""

    def __init__(self, requests: List[Any]) -> None:
        self._requests = requests

    def initial(self) -> List[Any]:
        return list(self._requests)

    def on_complete(self, request: Any, complete_us: float) -> None:
        return None


class Workload:
    name = ""
    #: (file suffix, function name) of the entry point, for the cProfile split.
    entry = ("", "")

    def params(self) -> Dict[str, Any]:
        raise NotImplementedError

    def inputs(self, seed: int) -> Dict[str, Any]:
        raise NotImplementedError

    def build(self, inputs: Dict[str, Any]) -> Any:
        raise NotImplementedError

    def call(self, instance: Any, inputs: Dict[str, Any]) -> Any:
        raise NotImplementedError

    def queries(self, inputs: Dict[str, Any]) -> int:
        raise NotImplementedError

    def check(self, inputs: Dict[str, Any], result: Any) -> Outcome:
        raise NotImplementedError


class ServeWorkload(Workload):
    """``ServingSimulator.run`` over a pre-generated Poisson arrival list."""

    entry = ("repro/serving/server.py", "run")

    def __init__(self, name: str, qps: float, requests: int) -> None:
        self.name = name
        self.qps = qps
        self.requests = requests
        self.hot_tier_kb = 128
        self.batch_size = 16
        self.window = 64
        self.slo_us = 25.0
        self.query_len = 16

    def params(self) -> Dict[str, Any]:
        return {
            "entry_point": "ServingSimulator.run",
            "offered_qps": self.qps,
            "requests": self.requests,
            "query_len": self.query_len,
            "queries": "QueryGenerator.paper_calibrated (Zipf 1.65, 48 hot rows)",
            "batch_size": self.batch_size,
            "window": self.window,
            "slo_us": self.slo_us,
            "hot_tier_kb_per_rank": self.hot_tier_kb,
        }

    def inputs(self, seed: int) -> Dict[str, Any]:
        tables = EmbeddingTableSet.random(seed=seed)
        generator = OpenLoopGenerator(
            QueryGenerator.paper_calibrated(
                tables, seed=seed + 1, query_len=self.query_len
            ),
            [RampStage(qps=self.qps, duration_us=self.requests / self.qps * 1e6)],
            slo_us=self.slo_us,
            seed=seed + 2,
        )
        requests = generator.initial()
        rows = {
            index: tables.vector(index)
            for request in requests
            for index in request.indices
        }
        expected = np.stack([_oracle(rows, r.indices) for r in requests])
        return {
            "requests": requests,
            "source": rows.__getitem__,
            "expected": expected,
            "vector_bytes": tables.vector_bytes,
        }

    def build(self, inputs: Dict[str, Any]) -> ServingSimulator:
        return ServingSimulator(
            batcher=ContinuousBatcher(batch_size=self.batch_size, window=self.window),
            cache=HotTierConfig(size_bytes=self.hot_tier_kb * 1024),
        )

    def call(self, instance: ServingSimulator, inputs: Dict[str, Any]) -> Any:
        return instance.run(_Replay(inputs["requests"]), inputs["source"])

    def queries(self, inputs: Dict[str, Any]) -> int:
        return len(inputs["requests"])

    def check(self, inputs: Dict[str, Any], report: Any) -> Outcome:
        requests = inputs["requests"]
        statuses = Counter(record.status for record in report.records)
        ids = [record.request.request_id for record in report.records]
        failed = 0
        if ids != [request.request_id for request in requests]:
            failed = len(requests)
        else:
            vectors = np.stack([report.vectors[i] for i in ids])
            ok = np.array([record.status == STATUS_OK for record in report.records])
            # Nothing is injected here, so every request must come back ok.
            failed = int((~ok | _mismatches(vectors, inputs["expected"])).sum())
        config = FafnirConfig()
        modeled = {
            "modeled.latency_pe_cycles": config.pe_clock.ns_to_cycles(
                report.makespan_us * 1e3
            ),
            "modeled.dram_reads": report.unique_reads - report.cache_hits,
            "modeled.p99_us": report.latency_percentile_us(99),
            "modeled.slo_attainment": report.slo_attainment,
            "modeled.dispatches": len(report.batches),
            "modeled.interactive_dispatches": report.interactive_dispatches,
            "modeled.cache_hits": report.cache_hits,
        }
        return Outcome(
            queries=len(requests),
            failed=failed,
            modeled=modeled,
            gathered_bytes=report.unique_reads * inputs["vector_bytes"],
            statuses=dict(statuses),
        )


class BatchWorkload(Workload):
    """One offline ``FafnirEngine.run_batch`` of uniform queries."""

    name = "batch-256x64"
    entry = ("repro/core/engine.py", "run_batch")

    def __init__(self) -> None:
        self.queries_per_batch = 256
        self.query_len = 64
        self.ranks = 64
        self.universe = 8192
        self.elements = 128

    def params(self) -> Dict[str, Any]:
        return {
            "entry_point": "FafnirEngine.run_batch",
            "queries": self.queries_per_batch,
            "query_len": self.query_len,
            "ranks": self.ranks,
            "universe": self.universe,
            "vector_elements": self.elements,
            "index_distribution": "uniform, distinct within a query",
            "hot_tier": "off",
        }

    def _config(self) -> FafnirConfig:
        return FafnirConfig(
            batch_size=self.queries_per_batch,
            max_query_len=self.query_len,
            vector_bytes=self.elements * 4,
            total_ranks=self.ranks,
            ranks_per_leaf_pe=2,
            num_tables=self.ranks,
        )

    def inputs(self, seed: int) -> Dict[str, Any]:
        rng = np.random.default_rng(seed)
        batch = [
            rng.choice(self.universe, size=self.query_len, replace=False).tolist()
            for _ in range(self.queries_per_batch)
        ]
        table = rng.standard_normal((self.universe, self.elements))
        rows = list(table)
        expected = np.stack(
            [table[np.unique(query)].sum(axis=0) for query in batch]
        )
        return {
            "batch": batch,
            "source": rows.__getitem__,
            "expected": expected,
            "config": self._config(),
            "memory": MemoryConfig().scaled_to_ranks(self.ranks),
        }

    def build(self, inputs: Dict[str, Any]) -> FafnirEngine:
        return FafnirEngine(config=inputs["config"], memory_config=inputs["memory"])

    def call(self, instance: FafnirEngine, inputs: Dict[str, Any]) -> Any:
        return instance.run_batch(inputs["batch"], inputs["source"])

    def queries(self, inputs: Dict[str, Any]) -> int:
        return len(inputs["batch"])

    def check(self, inputs: Dict[str, Any], result: Any) -> Outcome:
        statuses = result.query_statuses
        failed = len(inputs["batch"])
        if len(result.vectors) == len(statuses) == failed:
            ok = np.array([status == STATUS_OK for status in statuses])
            vectors = np.stack(result.vectors)
            failed = int((~ok | _mismatches(vectors, inputs["expected"])).sum())
        stats = result.stats
        modeled = {
            "modeled.latency_pe_cycles": stats.latency_pe_cycles,
            "modeled.dram_reads": stats.memory.reads,
            "modeled.unique_reads": stats.unique_reads,
            "modeled.pe_ops": pe_ops(stats.per_pe_work.values()),
        }
        return Outcome(
            queries=len(inputs["batch"]),
            failed=failed,
            modeled=modeled,
            gathered_bytes=stats.unique_reads * inputs["config"].vector_bytes,
            statuses=dict(Counter(statuses)),
        )


def pe_ops(works: Any) -> int:
    """Modeled PE operations: compares + reduces + forwards + merges."""
    return sum(w.compares + w.reduces + w.forwards + w.merges for w in works)


class ReduceFaultsWorkload(Workload):
    """``ShardedRunner.run_reduced`` in-process, under an injected fault plan."""

    name = "reduce-faults"
    entry = ("repro/core/sharding.py", "run_reduced")

    def __init__(self) -> None:
        self.shards = 4
        self.schedule = "recursive_doubling"
        self.batches = 16
        self.batch_size = 32
        self.query_len = 16
        self.degraded_rank = 3
        self.timeout_ranks = (7, 20)

    def params(self) -> Dict[str, Any]:
        return {
            "entry_point": "ShardedRunner.run_reduced",
            "max_workers": 1,
            "shards": self.shards,
            "schedule": self.schedule,
            "batches": self.batches,
            "batch_size": self.batch_size,
            "query_len": self.query_len,
            "queries": "QueryGenerator.paper_calibrated (Zipf 1.65, 48 hot rows)",
            "faults": {
                "rank_latency_multipliers": {str(self.degraded_rank): 4.0},
                "rank_timeout_probability": {
                    str(rank): 0.25 for rank in self.timeout_ranks
                },
                "vector_corruption_probability": 0.02,
                "link_loss_probability": 0.01,
                "plan_seed": "= --seed",
            },
            "policy": "FaultPolicy.graceful()",
        }

    def inputs(self, seed: int) -> Dict[str, Any]:
        tables = EmbeddingTableSet.random(seed=seed)
        generator = QueryGenerator.paper_calibrated(
            tables, seed=seed + 1, query_len=self.query_len
        )
        batches = generator.batches(self.batches, self.batch_size)
        rows = {
            index: tables.vector(index)
            for batch in batches
            for query in batch
            for index in query
        }
        plan = FaultPlan(
            seed=seed,
            rank_latency_multipliers={self.degraded_rank: 4.0},
            rank_timeout_probability={rank: 0.25 for rank in self.timeout_ranks},
            vector_corruption_probability=0.02,
            link_loss_probability=0.01,
        )
        inputs = {
            "batches": batches,
            "rows": rows,
            "source": rows.__getitem__,
            "plan": plan,
            "policy": FaultPolicy.graceful(),
            "vector_bytes": tables.vector_bytes,
        }
        inputs["droppable"] = self._droppable(inputs)
        return inputs

    def build(self, inputs: Dict[str, Any]) -> ShardedRunner:
        return ShardedRunner(
            config=FafnirConfig(),
            max_workers=1,
            reduction=self.schedule,
            num_shards=self.shards,
            faults=inputs["plan"],
            fault_policy=inputs["policy"],
        )

    def call(self, instance: ShardedRunner, inputs: Dict[str, Any]) -> Any:
        return instance.run_reduced(inputs["batches"], inputs["source"])

    def queries(self, inputs: Dict[str, Any]) -> int:
        return sum(len(batch) for batch in inputs["batches"])

    def _droppable(self, inputs: Dict[str, Any]) -> Tuple[set, set]:
        """(indices that must be dropped, indices that may be dropped).

        Worked out from the fault plan alone: a vector that is corrupted on
        every fetch the retry budget allows must be lost, and otherwise only
        a vector homed on a timeout rank may be lost.
        """
        plan, policy = inputs["plan"], inputs["policy"]
        placement = RowMajorPlacement(
            MemoryConfig().geometry, FafnirConfig().vector_bytes
        )
        must = set()
        may = set()
        for index, row in inputs["rows"].items():
            if all(
                plan.corrupt_vector(index, attempt, row) is not None
                for attempt in range(policy.max_corruption_retries + 1)
            ):
                must.add(index)
            elif placement.home_rank(index) in self.timeout_ranks:
                may.add(index)
        return must, must | may

    def check(self, inputs: Dict[str, Any], result: Any) -> Outcome:
        batches = inputs["batches"]
        rows = inputs["rows"]
        total = self.queries(inputs)
        # Indices each original batch lost to faults, across its shards.
        split = ShardSplit(batches, result.partition)
        present = [p for p in split.active_pieces if p not in result.absent_pieces]
        dropped: List[set] = [set() for _ in batches]
        for piece, shard in zip(present, result.shard_results):
            for stream_pos, batch_pos in enumerate(split.batch_of[piece]):
                dropped[batch_pos] |= shard.results[stream_pos].dropped_indices
        must, may = inputs["droppable"]

        statuses = result.statuses
        failed = total
        if len(result.vectors) == len(statuses) == total:
            failed = 0
            position = 0
            for batch_pos, batch in enumerate(batches):
                # The batch's drop set must agree with the fault plan.
                indices = {index for query in batch for index in query}
                if not must & indices <= dropped[batch_pos] <= may & indices:
                    failed += len(batch)
                    position += len(batch)
                    continue
                for query in batch:
                    vector = result.vectors[position]
                    status = statuses[position]
                    position += 1
                    surviving = set(query) - dropped[batch_pos]
                    if not surviving:
                        good = status == STATUS_FAILED and bool(np.isnan(vector).all())
                    else:
                        want = (
                            STATUS_OK if surviving == set(query) else STATUS_DEGRADED
                        )
                        good = status == want and bool(
                            np.isclose(
                                vector, _oracle(rows, surviving), rtol=RTOL, atol=ATOL
                            ).all()
                        )
                    failed += not good
        counts = Counter(statuses)
        modeled = {
            "modeled.latency_pe_cycles": result.makespan_pe_cycles,
            "modeled.dram_reads": sum(
                shard.memory_stats.reads for shard in result.shard_results
            ),
            "modeled.comm_cycles": result.comm_pe_cycles,
            "modeled.messages": result.total_messages,
            "modeled.retransmits": sum(
                event.kind == "msg_retransmitted" for event in result.events
            ),
            "modeled.degraded": counts.get(STATUS_DEGRADED, 0),
            "modeled.failed": counts.get(STATUS_FAILED, 0),
        }
        unique_reads = sum(
            r.stats.unique_reads
            for shard in result.shard_results
            for r in shard.results
        )
        return Outcome(
            queries=total,
            failed=failed,
            modeled=modeled,
            gathered_bytes=unique_reads * inputs["vector_bytes"],
            statuses=dict(counts),
        )


#: Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        ServeWorkload("serve-16x16", qps=6e6, requests=1024),
        ServeWorkload("serve-trickle", qps=2e3, requests=2048),
        BatchWorkload(),
        ReduceFaultsWorkload(),
    )
}

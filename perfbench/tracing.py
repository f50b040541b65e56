"""Host-time spans recorded from outside the library.

The library has no host-time instrumentation of its own, so the traced run
wraps the public layer functions in place (and restores them afterwards).
Each wrapper records one span — layer name, start, end and parent span —
with ``time.perf_counter_ns``; spans stay in memory and are folded into
per-layer self times after every call.  A span's self time is its duration
minus the time its child spans cover, so time spent in code that no wrapper
names (a new entry point, say) lands in the nearest wrapped caller's self
time instead of vanishing.

Some wrappers also read counts off the value the wrapped function returns
(PE operations, planned lookups, DRAM reads), so ratios are measured at the
layer boundary where the work happens.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.comm.reducer import CrossShardReducer
from repro.comm.schedule import ReductionSchedule
from repro.core import engine as engine_module
from repro.core.engine import FafnirEngine
from repro.core.interactive import InteractiveEngine
from repro.core.pe import ProcessingElement
from repro.core.sharding import ShardedRunner
from repro.faults.plan import FaultPlan
from repro.faults.policy import FaultPolicy
from repro.memory.system import MemorySystem
from repro.obs.events import MSG_RETRANSMITTED
from repro.serving.batcher import ContinuousBatcher
from repro.serving.server import ServingSimulator

from perfbench.workloads import pe_ops

Observer = Callable[[Counter, tuple, Any], None]


def _observe_lookup(counts: Counter, args: tuple, result: Any) -> None:
    # The batch's own plan, not the re-plan of a degraded batch's survivors.
    counts["pe_ops"] += pe_ops(result.stats.per_pe_work.values())
    counts["lookups"] += result.plan.total_lookups
    counts["unique_reads"] += len(result.plan.unique_indices)


def _observe_execute(counts: Counter, args: tuple, result: Any) -> None:
    requests = args[1]
    counts["read_requests"] += len(requests)
    counts["dram_reads"] += result[1].reads


def _observe_serving(counts: Counter, args: tuple, report: Any) -> None:
    counts["dispatches"] += len(report.batches)
    counts["interactive_dispatches"] += report.interactive_dispatches


def _observe_combine(counts: Counter, args: tuple, result: Any) -> None:
    counts["messages"] += result.total_messages
    counts["retransmits"] += sum(
        event.kind == MSG_RETRANSMITTED for event in result.events
    )


def _span_targets() -> List[Tuple[Any, str, str, Optional[Observer]]]:
    """(owner, attribute, layer, observer) for every wrapped entry point."""
    targets: List[Tuple[Any, str, str, Optional[Observer]]] = [
        (ServingSimulator, "run", "serving.loop", _observe_serving),
        (ContinuousBatcher, "enqueue", "serving.batcher", None),
        (ContinuousBatcher, "pop_batch", "serving.batcher", None),
        (InteractiveEngine, "lookup_one", "core.interactive", None),
        (ShardedRunner, "run_reduced", "core.sharding", None),
        (CrossShardReducer, "combine", "comm.combine", _observe_combine),
        (FafnirEngine, "run_batch", "core.engine", _observe_lookup),
        (engine_module, "plan_batch", "core.batch", None),
        (MemorySystem, "execute", "memory", _observe_execute),
        (ProcessingElement, "process", "core.tree", None),
        (ProcessingElement, "fold_stream", "core.tree", None),
        (engine_module, "run_tree_soa", "core.tree", None),
    ]
    for schedule in ReductionSchedule.__subclasses__():
        if "run" in vars(schedule):
            targets.append((schedule, "run", "comm.schedule", None))
    return targets


class SpanRecorder:
    """Keeps the spans of the call in progress and the per-layer totals."""

    def __init__(self, policy: FaultPolicy) -> None:
        self.policy = policy
        self.names: List[str] = []
        self.starts: List[int] = []
        self.ends: List[int] = []
        self.parents: List[int] = []
        self._stack: List[int] = []
        self.counts: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.span_counts: Counter = Counter()
        self.wall_ns = 0
        self.calls = 0
        self.first_call: Optional[Dict[str, list]] = None

    def wrap(
        self, layer: str, fn: Callable, observe: Optional[Observer] = None
    ) -> Callable:
        """``fn`` wrapped so that each call records one span of ``layer``."""
        names, starts, ends = self.names, self.starts, self.ends
        parents, stack, counts = self.parents, self._stack, self.counts
        clock = time.perf_counter_ns

        def traced(*args: Any, **kwargs: Any) -> Any:
            span = len(names)
            names.append(layer)
            parents.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(span)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[span] = clock()
                stack.pop()
            if observe is not None:
                observe(counts, args, result)
            return result

        return traced

    def _count_retries(
        self, fn: Callable, attempt_at: int, budget: int, fired: Callable
    ) -> Callable:
        counts = self.counts

        def counted(plan: FaultPlan, *args: Any, **kwargs: Any) -> Any:
            result = fn(plan, *args, **kwargs)
            attempt = kwargs["attempt"] if "attempt" in kwargs else args[attempt_at]
            if fired(result) and attempt < budget:
                counts["retries"] += 1
            return result

        return counted

    @contextmanager
    def installed(self) -> Iterator[None]:
        """Wrap every layer entry point for the duration of the block."""
        policy = self.policy
        patches: List[Tuple[Any, str, Callable]] = [
            (owner, attr, self.wrap(layer, getattr(owner, attr), observe))
            for owner, attr, layer, observe in _span_targets()
        ]

        def is_set(value: Any) -> bool:
            return value is not None

        # (decision method, position of its attempt argument, retry budget).
        for attr, attempt_at, budget, fired in (
            ("read_times_out", 2, policy.max_read_retries, bool),
            ("source_raises", 1, policy.max_source_retries, bool),
            ("corrupt_vector", 1, policy.max_corruption_retries, is_set),
            ("message_dropped", 4, policy.max_link_retransmits, bool),
        ):
            counted = self._count_retries(
                getattr(FaultPlan, attr), attempt_at, budget, fired
            )
            patches.append((FaultPlan, attr, counted))
        originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in patches]
        try:
            for owner, attr, wrapper in patches:
                setattr(owner, attr, wrapper)
            yield
        finally:
            for owner, attr, original in originals:
                setattr(owner, attr, original)

    def end_call(self, wall_ns: int) -> None:
        """Fold the finished call's spans into the totals and drop them."""
        count = len(self.names)
        durations = [self.ends[i] - self.starts[i] for i in range(count)]
        child_ns = [0] * count
        for span, parent in enumerate(self.parents):
            if parent >= 0:
                child_ns[parent] += durations[span]
        for span, layer in enumerate(self.names):
            self.self_ns[layer] += durations[span] - child_ns[span]
            self.span_counts[layer] += 1
        self.wall_ns += wall_ns
        self.calls += 1
        if self.first_call is None:
            self.first_call = {
                "names": list(self.names),
                "starts": list(self.starts),
                "ends": list(self.ends),
                "parents": list(self.parents),
            }
        for column in (self.names, self.starts, self.ends, self.parents):
            column.clear()

    def chrome_trace(self, label: str) -> Dict[str, Any]:
        """The first traced call as Chrome trace JSON (Perfetto opens it)."""
        spans = self.first_call
        if spans is None:
            raise RuntimeError("no traced call to export")
        origin = min(spans["starts"], default=0)
        events: List[Dict[str, Any]] = [
            {"name": "process_name", "ph": "M", "pid": 1, "args": {"name": label}}
        ]
        for span, layer in enumerate(spans["names"]):
            events.append(
                {
                    "name": layer,
                    "cat": layer.split(".")[0],
                    "ph": "X",
                    "pid": 1,
                    "tid": 1,
                    "ts": (spans["starts"][span] - origin) / 1e3,
                    "dur": (spans["ends"][span] - spans["starts"][span]) / 1e3,
                    "args": {"span": span, "parent": spans["parents"][span]},
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ns"}

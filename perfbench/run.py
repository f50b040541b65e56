"""Repository benchmark: simulator host throughput, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload serve-16x16 --seed 1 --seconds 18 --trace 0

Every number measured here is *host* wall time — how long Python takes to
simulate — except the ``modeled.*`` counts, which are the simulator's own
outputs and must repeat exactly.  ``--trace 0`` prints the end-to-end
metrics declared in ``BENCHMARK.json``; ``--trace 1`` makes a separate run
that alternates untraced and traced calls and prints the per-layer metrics.
Either way the last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Every call's outputs are
checked against a NumPy oracle outside the timed region.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import pstats
import statistics
import sys
import time
import traceback
import tracemalloc
from typing import Any, Callable, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: ``setup_s`` samples taken before every call.  Spreading the samples over
#: the run keeps a short burst of host contention from owning the median.
SETUP_SAMPLES_PER_CALL = 5
#: One ``setup_s`` sample times back-to-back constructions lasting at least
#: this long, so that a sample is not a handful of timer ticks.
SETUP_SAMPLE_S = 0.005
#: The traced run's per-layer self times must cover its wall time this well.
SELF_TIME_TOLERANCE = 0.02
#: Allowed gap between the span and cProfile tree-sweep shares on
#: batch-256x64.  cProfile charges a fixed cost per Python call, which
#: inflates call-heavy code, so on the small-batch workloads its tree share
#: runs high and is reported without a bound.
CPROFILE_TOLERANCE = 0.10
#: Gather roofline: a 64 MiB float32 table (larger than the LLC of common
#: server parts) read in random 512-byte rows.
ROOFLINE_ROWS = 1 << 17
ROOFLINE_GATHER = 1 << 15
ROOFLINE_REPEATS = 9
VECTOR_ELEMENTS = 128
#: The functions whose spans make up ``core.tree``, for the cProfile split.
TREE_FUNCTIONS = (
    ("repro/core/pe.py", "process"),
    ("repro/core/pe.py", "fold_stream"),
    ("repro/core/soa.py", "run_tree_soa"),
)

#: Per-layer metric → the layer whose span self time it reports.
LAYER_TIMES = {
    "core.tree.sweep_s": "core.tree",
    "core.batch.plan_s": "core.batch",
    "core.engine.other_s": "core.engine",
    "core.sharding.other_s": "core.sharding",
    "core.interactive.lookup_s": "core.interactive",
    "memory.execute_s": "memory",
    "serving.loop_s": "serving.loop",
    "serving.batcher_s": "serving.batcher",
    "comm.combine_s": "comm.combine",
    "comm.schedule_s": "comm.schedule",
    "workloads.source_s": "workloads.source",
}

#: Workload-purpose self-test, as (description, predicate, fatal).  A failed
#: check on modeled counts makes the run incorrect; host-time shares are what
#: optimisations move, so a failed share check only warns.
Purpose = List[Tuple[str, Callable[[Dict[str, float]], bool], bool]]
PURPOSE: Dict[str, Purpose] = {
    "serve-16x16": [
        ("tiering.hit_rate > 0", lambda m: m["tiering.hit_rate"] > 0, True),
        ("tree share >= 0.3", lambda m: m["tree share"] >= 0.3, False),
    ],
    "serve-trickle": [
        (
            "interactive dispatches >= 0.9 of all",
            lambda m: m["serving.interactive_dispatches"]
            >= 0.9 * m["serving.dispatches"],
            True,
        ),
        ("tree share <= 0.25", lambda m: m["tree share"] <= 0.25, False),
    ],
    "batch-256x64": [
        ("tree share >= 0.6", lambda m: m["tree share"] >= 0.6, False),
        ("memory share <= 0.05", lambda m: m["memory share"] <= 0.05, False),
        (
            f"cProfile tree share within {CPROFILE_TOLERANCE} of the span share",
            lambda m: abs(m["bench.cprofile_tree_share"] - m["tree share"])
            <= CPROFILE_TOLERANCE,
            False,
        ),
    ],
    "reduce-faults": [
        ("faults.retries > 0", lambda m: m["faults.retries"] > 0, True),
    ],
}


def parse_args(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=18.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Tally:
    """Counts attempted and failed queries across every call of the run."""

    def __init__(self, workload: Any, inputs: Dict[str, Any]) -> None:
        self.workload = workload
        self.inputs = inputs
        self.attempted = 0
        self.failed = 0
        self.reference: Optional[Dict[str, float]] = None

    def record(self, result: Any) -> Any:
        outcome = self.workload.check(self.inputs, result)
        if self.reference is None:
            self.reference = outcome.modeled
        elif outcome.modeled != self.reference:
            print(
                f"modeled counts changed between calls: {outcome.modeled} "
                f"!= {self.reference}",
                file=sys.stderr,
            )
            outcome.failed = outcome.queries
        self.attempted += outcome.queries
        self.failed += outcome.failed
        return outcome

    def record_error(self) -> None:
        traceback.print_exc(file=sys.stderr)
        queries = self.workload.queries(self.inputs)
        self.attempted += queries
        self.failed += queries


def builds_per_sample(workload: Any, inputs: Dict[str, Any]) -> int:
    """How many back-to-back constructions last at least SETUP_SAMPLE_S."""
    builds = 1
    while True:
        start = time.perf_counter()
        for _ in range(builds):
            workload.build(inputs)
        if time.perf_counter() - start >= SETUP_SAMPLE_S:
            return builds
        builds *= 2


def build(
    workload: Any, inputs: Dict[str, Any], builds: int, setups: List[float]
) -> Any:
    """Take SETUP_SAMPLES_PER_CALL ``setup_s`` samples; return an instance.

    Each sample is the mean of ``builds`` back-to-back constructions, with
    the cycle collector paused as ``timeit`` does.
    """
    gc.collect()
    gc.disable()
    try:
        for _ in range(SETUP_SAMPLES_PER_CALL):
            start = time.perf_counter()
            for _ in range(builds):
                instance = workload.build(inputs)
            setups.append((time.perf_counter() - start) / builds)
    finally:
        gc.enable()
    return instance


def timed_call(
    workload: Any, instance: Any, inputs: Dict[str, Any], tally: Tally
) -> Optional[float]:
    """One closed-loop call; returns its seconds, or None if it raised."""
    gc.collect()
    start = time.perf_counter()
    try:
        result = workload.call(instance, inputs)
    except Exception:
        tally.record_error()
        return None
    elapsed = time.perf_counter() - start
    tally.record(result)
    return elapsed


def workload_peak_mb(workload: Any, inputs: Dict[str, Any], tally: Tally) -> float:
    """Peak memory that one untimed construction and call allocate, in MiB.

    ``tracemalloc`` follows every allocation made through Python's
    allocators, NumPy's array buffers included, so the figure leaves out the
    interpreter, the imports and the benchmark's own inputs and oracle.
    """
    gc.collect()
    tracemalloc.start()
    try:
        result = workload.call(workload.build(inputs), inputs)
    except Exception:
        result = None
        tally.record_error()
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    if result is not None:
        tally.record(result)
    return peak / 2**20


def end_to_end(
    workload: Any, inputs: Dict[str, Any], tally: Tally, seconds: float
) -> Dict[str, float]:
    setups: List[float] = []
    builds = builds_per_sample(workload, inputs)
    timed_call(workload, workload.build(inputs), inputs, tally)  # warm-up
    queries = workload.queries(inputs)
    rates: List[float] = []
    measured = 0.0
    deadline = time.perf_counter() + 3 * seconds  # in case calls keep raising
    while measured < seconds and time.perf_counter() < deadline:
        instance = build(workload, inputs, builds, setups)
        elapsed = timed_call(workload, instance, inputs, tally)
        if elapsed is None:
            continue
        measured += elapsed
        rates.append(queries / elapsed)
    if not rates:
        raise RuntimeError("every timed call raised")
    # After the timed calls, so tracemalloc's own allocations cannot change
    # the heap the timed calls run on.
    memory_mb = workload_peak_mb(workload, inputs, tally)
    print(
        f"{len(rates)} timed calls of {queries} queries; queries_per_s per call: "
        + " ".join(f"{rate:.4g}" for rate in rates)
    )
    print(f"{len(setups)} setup_s samples of {builds} constructions each")
    return {
        "queries_per_s": statistics.median(rates),
        "setup_s": statistics.median(setups),
        "peak_alloc_mb": memory_mb,
    }


def cprofile_tree_share(workload: Any, inputs: Dict[str, Any], tally: Tally) -> float:
    """Tree-sweep share of one call, as cProfile's cumulative times split it."""
    instance = workload.build(inputs)
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        result = workload.call(instance, inputs)
    finally:
        profiler.disable()
    tally.record(result)
    entry_file, entry_name = workload.entry
    tree = root = 0.0
    stats = pstats.Stats(profiler).stats  # type: ignore[attr-defined]
    for (filename, _line, name), row in stats.items():
        cumulative = row[3]
        path = filename.replace(os.sep, "/")
        if any(path.endswith(f) and name == n for f, n in TREE_FUNCTIONS):
            tree += cumulative
        if path.endswith(entry_file) and name == entry_name:
            root = max(root, cumulative)
    return tree / root if root else 0.0


def gather_roofline_bytes_per_s(seed: int) -> float:
    """Median rate of a NumPy fancy-index gather of random 512-byte rows."""
    import numpy as np

    rng = np.random.default_rng(seed)
    table = rng.standard_normal((ROOFLINE_ROWS, VECTOR_ELEMENTS), dtype=np.float32)
    out = np.empty((ROOFLINE_GATHER, VECTOR_ELEMENTS), dtype=np.float32)
    rates = []
    for _ in range(ROOFLINE_REPEATS):
        indices = rng.integers(0, ROOFLINE_ROWS, ROOFLINE_GATHER)
        start = time.perf_counter()
        np.take(table, indices, axis=0, out=out)
        rates.append(out.nbytes / (time.perf_counter() - start))
    return statistics.median(rates)


def per_layer(
    workload: Any, inputs: Dict[str, Any], tally: Tally, seconds: float, seed: int
) -> Tuple[Dict[str, float], List[str], List[str]]:
    """The traced run: returns (metrics, fatal failures, warnings)."""
    from perfbench.tracing import SpanRecorder
    from repro.faults import FaultPolicy

    recorder = SpanRecorder(inputs.get("policy", FaultPolicy()))
    traced_inputs = dict(
        inputs, source=recorder.wrap("workloads.source", inputs["source"])
    )
    timed_call(workload, workload.build(inputs), inputs, tally)  # warm-up

    untraced: List[float] = []
    traced: List[float] = []
    traced_outcomes: List[Any] = []
    start = time.perf_counter()
    while True:
        elapsed = timed_call(workload, workload.build(inputs), inputs, tally)
        if elapsed is not None:
            untraced.append(elapsed)
        instance = workload.build(inputs)
        gc.collect()
        try:
            with recorder.installed():
                begin = time.perf_counter_ns()
                result = workload.call(instance, traced_inputs)
                wall_ns = time.perf_counter_ns() - begin
        except Exception:
            tally.record_error()
        else:
            recorder.end_call(wall_ns)
            traced.append(wall_ns / 1e9)
            traced_outcomes.append(tally.record(result))
        if time.perf_counter() - start >= seconds:
            break
    if not untraced or not traced:
        raise RuntimeError("every call raised")

    profile_share = cprofile_tree_share(workload, inputs, tally)
    roofline = gather_roofline_bytes_per_s(seed)

    calls = recorder.calls
    counts = recorder.counts
    self_ns = recorder.self_ns
    layer_total = sum(self_ns.values())
    metrics: Dict[str, float] = {
        name: self_ns[layer] / calls / 1e9 for name, layer in LAYER_TIMES.items()
    }
    modeled = tally.reference or {}
    metrics.update(
        {
            "core.tree.pe_ops": counts["pe_ops"] / calls,
            "core.tree.ns_per_pe_op": (
                self_ns["core.tree"] / counts["pe_ops"] if counts["pe_ops"] else 0.0
            ),
            "core.batch.unique_fraction": (
                counts["unique_reads"] / counts["lookups"] if counts["lookups"] else 0.0
            ),
            "memory.dram_reads": counts["dram_reads"] / calls,
            "memory.ns_per_read": (
                self_ns["memory"] / counts["read_requests"]
                if counts["read_requests"]
                else 0.0
            ),
            "tiering.hit_rate": (
                1.0 - counts["dram_reads"] / counts["read_requests"]
                if counts["read_requests"]
                else 0.0
            ),
            "serving.dispatches": counts["dispatches"] / calls,
            "serving.interactive_dispatches": counts["interactive_dispatches"] / calls,
            "comm.messages": counts["messages"] / calls,
            "comm.retransmits": counts["retransmits"] / calls,
            "faults.retries": counts["retries"] / calls,
            "faults.degraded_queries": statistics.mean(
                outcome.statuses.get("degraded", 0) for outcome in traced_outcomes
            ),
            "engine.roofline_fraction": (
                traced_outcomes[0].gathered_bytes / statistics.median(untraced)
            )
            / roofline,
            "modeled.latency_pe_cycles": modeled.get("modeled.latency_pe_cycles", 0),
            "modeled.dram_reads": modeled.get("modeled.dram_reads", 0),
            "modeled.p99_us": modeled.get("modeled.p99_us", 0),
            "modeled.slo_attainment": modeled.get("modeled.slo_attainment", 0),
            "modeled.comm_cycles": modeled.get("modeled.comm_cycles", 0),
            "bench.trace_overhead": statistics.median(traced)
            / statistics.median(untraced),
            "bench.cprofile_tree_share": profile_share,
        }
    )
    # Diagnostics of the run itself: printed and used by the self-test.
    shares = {
        "traced wall s per call": recorder.wall_ns / calls / 1e9,
        "unattributed fraction": 1.0 - layer_total / recorder.wall_ns,
        "tree share": self_ns["core.tree"] / layer_total,
        "memory share": self_ns["memory"] / layer_total,
        "roofline GiB/s": roofline / 2**30,
    }

    fatal: List[str] = []
    warnings: List[str] = []
    if abs(shares["unattributed fraction"]) > SELF_TIME_TOLERANCE:
        fatal.append(
            f"layer self times cover {layer_total / recorder.wall_ns:.4f} of the "
            f"traced wall time (tolerance {SELF_TIME_TOLERANCE})"
        )
    spans = recorder.span_counts
    comm_spans = spans["comm.combine"] + spans["comm.schedule"]
    if (comm_spans > 0) != (workload.name == "reduce-faults"):
        fatal.append(f"{comm_spans} comm spans on {workload.name}")
    for description, holds, required in PURPOSE.get(workload.name, []):
        if not holds({**metrics, **shares}):
            (fatal if required else warnings).append(description)

    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    trace_path = os.path.join(HERE, "out", f"trace-{workload.name}-seed{seed}.json")
    with open(trace_path, "w") as handle:
        json.dump(recorder.chrome_trace(f"{workload.name} seed {seed}"), handle)
    print(
        f"{calls} traced and {len(untraced)} untraced calls; Chrome trace: "
        f"{os.path.relpath(trace_path, ROOT)}"
    )
    print("; ".join(f"{name} {value:.4g}" for name, value in shares.items()))
    layers = sorted(self_ns.items(), key=lambda item: -item[1])
    print(
        "self-time shares: "
        + ", ".join(f"{layer} {ns / layer_total:.3f}" for layer, ns in layers)
    )
    return metrics, fatal, warnings


def main(argv: Optional[List[str]] = None) -> int:
    args = parse_args(argv)
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            declared = json.load(handle)
        sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]
        from perfbench.workloads import WORKLOADS
    except (OSError, ImportError) as exc:
        print(f"perfbench: cannot load the program under test: {exc}", file=sys.stderr)
        return 2
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2

    inputs = workload.inputs(args.seed)
    tally = Tally(workload, inputs)
    print(f"workload {workload.name} seed {args.seed}: {json.dumps(workload.params())}")
    fatal: List[str] = []
    if args.trace:
        values, fatal, warnings = per_layer(
            workload, inputs, tally, args.seconds, args.seed
        )
        section = "per_layer"
        for warning in warnings:
            print(f"purpose warning: {warning}")
    else:
        values = end_to_end(workload, inputs, tally, args.seconds)
        section = "end_to_end"
    for problem in fatal:
        print(f"purpose check FAILED: {problem}")

    metrics = {}
    for spec in declared[section]:
        value = float(values[spec["name"]])
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"  {spec['name']:<34} {value:>16.6g} {spec['unit']}")
    failed_fraction = tally.failed / tally.attempted
    print(f"  {'failed_fraction':<34} {failed_fraction:>16.6g} fraction")
    print(
        json.dumps(
            {
                "correct": tally.failed == 0 and not fatal,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

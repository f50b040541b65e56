"""Processing-element model: compute units plus merge unit (paper Fig. 5).

A PE takes two input message lists (A from its left child or rank pair, B
from its right), and for every *entry* (outstanding query remainder) of every
input message decides among three actions:

* **reduce** — a partner message on the other input whose ``indices`` are all
  contained in the entry exists; combine the values, union the indices, and
  shrink the entry by the partner's indices.
* **forward** — no partner matches; pass the value along with that entry
  unchanged.
* complete entries (empty remainder) are always forwarded — the value is a
  finished query answer on its way to the root.

The compute units examine both directions (A-entries against B-indices and
vice versa), so the same reduction is typically discovered twice; the
**merge unit** then groups raw outputs by ``indices`` set, removing exact
duplicates and concatenating the query entries of outputs that carry the
same data (paper Fig. 6d).

Timing is annotated per message: an output is ready one pipeline stage after
the later of its parents, and the PE's finite compute units impose a simple
one-output-per-unit-per-cycle issue limit on top.

**Choosing the partner.**  The compute units reduce an entry with the
*widest* partner whose indices it contains.  Every subtree emits, per
query, one message covering exactly that query's indices beneath it (the
completion invariant), so with ``U`` the set of indices homed beneath the
partner subtree that widest partner is the one whose ``indices`` equal
``entry & U``.  :meth:`ProcessingElement.process` finds it with one
dictionary probe.  The probe is exact, not a heuristic: any contained
partner is a subset of ``entry & U``, and partner index sets are unique
after the merge unit and ``_coalesce``.  An empty ``entry & U`` means no
partner can be contained, since every header names at least one index.
When the probe misses on a non-empty key, when a partner stream repeats
an index set, or when no universe is supplied, the entry falls back to
the full scan (:func:`_widest_contained`).  That scan is the reference
rule, and the probe picks the same partner, charges the same
``compares`` and emits the same events.

**The leaf fold's index.**  :meth:`ProcessingElement.fold_stream` keeps
its FIFO buffer in a :class:`_FifoBuffer` that buckets messages by
``min(indices)``.  An entry's match is the widest buffered message whose
indices it contains, earliest on ties; every such candidate ``c ⊆ entry``
has ``min(c) ∈ entry``, so visiting only the buckets of the entry's
members is exact.  The "already buffered" check is a lookup by index set.
``compares`` is still charged one per buffered message, so counters,
events and values are those of the linear scan (:func:`_widest_contained`
over the buffer), which stays the reference rule.

**Batch-scoped keys.**  The issue limit builds each output's
sorted-indices key once and uses it for both of its sorts.  No sort key
or index is memoized beyond the call that built it, so nothing a batch
computes outlives ``run_batch``.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import FafnirConfig
from repro.core.header import Header, Message, entry_sort_key, sorted_tuple
from repro.core.operators import ReductionOperator
from repro.obs.events import PE_FORWARD, PE_MERGE, PE_REDUCE
from repro.obs.tracer import NULL_TRACER, Tracer


def _widest_contained(
    entry: FrozenSet[int], candidates: Sequence[Message]
) -> Optional[Message]:
    """The full scan: the widest candidate whose indices ⊆ ``entry``.

    Strictly wider wins, so the earliest candidate is kept on ties.  This
    is the reference matching rule; the probe must agree with it.
    """
    best = None
    for candidate in candidates:
        if candidate.indices <= entry and (
            best is None or len(candidate.indices) > len(best.indices)
        ):
            best = candidate
    return best


def _probe_table(
    partners: Sequence[Message], universe: Optional[FrozenSet[int]]
) -> Optional[Dict[FrozenSet[int], Message]]:
    """Partners keyed by index set, or ``None`` when the probe is unsafe.

    ``None`` (every entry takes the full scan) when no universe is known,
    when there is no partner to find, or when the partner stream repeats
    an index set.
    """
    if universe is None or not partners:
        return None
    table = {partner.indices: partner for partner in partners}
    return table if len(table) == len(partners) else None


def _choose_partner(
    entry: FrozenSet[int],
    partners: Sequence[Message],
    table: Optional[Dict[FrozenSet[int], Message]],
    universe: Optional[FrozenSet[int]],
) -> Optional[Message]:
    """The partner a non-empty entry reduces with (``None``: forward).

    One probe, ``entry & universe``, into ``table``.  An empty key means
    no partner can be contained; a miss on a non-empty key, or no table,
    takes the full scan.
    """
    if table is None or universe is None:
        return _widest_contained(entry, partners)
    key = entry & universe
    best = table.get(key)
    if best is None and key:
        return _widest_contained(entry, partners)
    return best


class _FifoBuffer:
    """A leaf FIFO's buffered messages, indexed for the fold.

    ``by_min`` buckets each message, with its buffer position, under
    ``min(indices)``; ``by_indices`` groups the messages by index set, in
    first-arrival order.  Any message contained in an entry has its
    smallest index in that entry, so the buckets keyed by the entry's
    members hold every candidate and :meth:`widest_contained` misses none.
    Plain dicts and tuples with no reference back to the PE, so the buffer
    is freed as soon as the fold returns.
    """

    __slots__ = ("size", "by_min", "by_indices")

    def __init__(self) -> None:
        self.size = 0
        self.by_min: Dict[int, List[Tuple[int, Message]]] = {}
        self.by_indices: Dict[FrozenSet[int], List[Message]] = {}

    def append(self, message: Message) -> None:
        indices = message.indices
        self.by_min.setdefault(min(indices), []).append((self.size, message))
        self.by_indices.setdefault(indices, []).append(message)
        self.size += 1

    def widest_contained(self, entry: FrozenSet[int]) -> Optional[Message]:
        """:func:`_widest_contained` over the buffer in arrival order.

        The widest buffered message whose indices ⊆ ``entry``, the
        earliest on ties.  Visits the buckets of the entry's members,
        walking whichever is shorter: the entry or the bucket keys.
        """
        by_min = self.by_min
        if len(entry) <= len(by_min):
            buckets = [by_min[i] for i in entry if i in by_min]
        else:
            buckets = [bucket for key, bucket in by_min.items() if key in entry]
        best = None
        best_width = 0
        best_position = 0
        for bucket in buckets:
            for position, candidate in bucket:
                width = len(candidate.indices)
                if (
                    width > best_width
                    or (width == best_width and position < best_position)
                ) and candidate.indices <= entry:
                    best = candidate
                    best_width = width
                    best_position = position
        return best

    def covers(self, message: Message) -> bool:
        """Whether a buffered message with the same indices already carries
        every entry of ``message``."""
        twins = self.by_indices.get(message.indices)
        if not twins:
            return False
        entries = set(message.entries)
        return any(entries <= set(other.entries) for other in twins)


_READY_THEN_KEY = operator.itemgetter(0, 1)
_KEY = operator.itemgetter(1)


@dataclass
class PEWork:
    """Operation counts for one PE invocation (drives timing/power stats).

    These counters are the ground truth the event stream must agree with:
    when a :class:`~repro.obs.Tracer` is attached, every ``reduces`` /
    ``forwards`` / ``merges`` increment also emits one ``pe_reduce`` /
    ``pe_forward`` / ``pe_merge`` :class:`~repro.obs.TraceEvent`, so
    ``repro.obs.per_level_counts(events)`` equals the per-level sums
    produced by :func:`repro.core.stats.tree_utilization` over
    ``LookupStats.per_pe_work``.  The object walk and the SoA sweep
    (:mod:`repro.core.soa`) increment (and therefore emit) at the same
    semantic points, which is what makes their event streams comparable
    with ``==``.
    """

    compares: int = 0
    reduces: int = 0
    forwards: int = 0
    merges: int = 0
    duplicates_removed: int = 0
    outputs: int = 0
    peak_input_occupancy: int = 0

    def merged_with(self, other: "PEWork") -> "PEWork":
        return PEWork(
            compares=self.compares + other.compares,
            reduces=self.reduces + other.reduces,
            forwards=self.forwards + other.forwards,
            merges=self.merges + other.merges,
            duplicates_removed=self.duplicates_removed + other.duplicates_removed,
            outputs=self.outputs + other.outputs,
            peak_input_occupancy=max(
                self.peak_input_occupancy, other.peak_input_occupancy
            ),
        )


@dataclass
class PEResult:
    outputs: List[Message]
    work: PEWork


@dataclass
class _RawOutput:
    """A compute-unit output before the merge unit.

    ``source_header`` is set on forwards: it names the input message whose
    entry this row carries unchanged, letting the merge unit reuse that
    message's (already canonical) header when a group turns out to be one
    message forwarded intact.
    """

    indices: FrozenSet[int]
    entry: FrozenSet[int]
    value: np.ndarray
    ready_cycle: int
    hops: int
    was_reduce: bool
    source_header: Optional[Header] = None


class ProcessingElement:
    """One node of the FAFNIR tree.

    Instances are stateless between invocations; :meth:`process` consumes the
    two input FIFOs' contents for one batch and returns merged outputs.
    """

    def __init__(
        self,
        config: FafnirConfig,
        operator: ReductionOperator,
        name: str = "PE",
        check_values: bool = False,
        tracer: Tracer = NULL_TRACER,
        pe_id: Optional[int] = None,
        level: Optional[int] = None,
    ) -> None:
        self.config = config
        self.operator = operator
        self.name = name
        self.check_values = check_values
        # Tracing: events are emitted exactly where the PEWork counters
        # increment, so the object walk and the SoA sweep produce ==-equal
        # event streams (asserted by the differential tests).  Every emission is guarded by ``tracer.enabled`` — one attribute
        # read when tracing is off.
        self.tracer = tracer
        self.pe_id = pe_id
        self.level = level

    # ------------------------------------------------------------------
    # Tracing
    # ------------------------------------------------------------------
    def _emit_op(self, kind: str, cycle: int, dur_cycles: int) -> None:
        """Emit one PE-operation event (callers guard on ``tracer.enabled``)."""
        self.tracer.emit_packed(
            kind,
            cycle,
            pe=self.pe_id,
            level=self.level,
            args=(dur_cycles,),
        )

    def _emit_merge(self, cycle: int, members: int) -> None:
        """Emit one merge-unit event (callers guard on ``tracer.enabled``)."""
        self.tracer.emit_packed(
            PE_MERGE,
            cycle,
            pe=self.pe_id,
            level=self.level,
            args=(members,),
        )

    # ------------------------------------------------------------------
    # Compute units
    # ------------------------------------------------------------------
    def _scan_side(
        self,
        own: Sequence[Message],
        partners: Sequence[Message],
        universe: Optional[FrozenSet[int]],
        work: PEWork,
        raw: List[_RawOutput],
    ) -> None:
        """Reduce or forward every entry of ``own`` against ``partners``.

        ``universe`` is every index homed beneath the partner subtree.  An
        entry's partner is then found with one probe, ``entry & universe``,
        into the partners keyed by index set (see the module docstring);
        without a universe, or on a probe miss, the entry takes the full
        scan.  Either way one compare per partner is charged, as the
        compute units test the entry against every buffered partner.
        """
        if not own:
            return
        latencies = self.config.latencies
        tracer = self.tracer
        table = _probe_table(partners, universe)
        for message in own:
            for entry in message.entries:
                best = None
                if entry:
                    work.compares += len(partners)
                    best = _choose_partner(entry, partners, table, universe)
                if best is not None:
                    work.reduces += 1
                    ready = (
                        max(message.ready_cycle, best.ready_cycle)
                        + latencies.reduce_path
                    )
                    if tracer.enabled:
                        self._emit_op(PE_REDUCE, ready, latencies.reduce_path)
                    raw.append(
                        _RawOutput(
                            indices=message.indices | best.indices,
                            entry=entry - best.indices,
                            value=self.operator.combine(
                                message.value, best.value
                            ),
                            ready_cycle=ready,
                            hops=max(message.hops, best.hops) + 1,
                            was_reduce=True,
                        )
                    )
                else:
                    # No partner, or a finished answer travelling up.
                    work.forwards += 1
                    ready = message.ready_cycle + latencies.forward_path
                    if tracer.enabled:
                        self._emit_op(PE_FORWARD, ready, latencies.forward_path)
                    raw.append(
                        _RawOutput(
                            indices=message.indices,
                            entry=entry,
                            value=message.value,
                            ready_cycle=ready,
                            hops=message.hops + 1,
                            was_reduce=False,
                            source_header=message.header,
                        )
                    )

    # ------------------------------------------------------------------
    # Merge unit
    # ------------------------------------------------------------------
    def _merge(self, raw: List[_RawOutput], work: PEWork) -> List[Message]:
        """Group raw outputs by indices set; dedup and concatenate entries."""
        groups: Dict[FrozenSet[int], List[_RawOutput]] = {}
        for output in raw:
            groups.setdefault(output.indices, []).append(output)

        merged: List[Message] = []
        for indices, members in groups.items():
            # Fast path: one input message forwarded intact (every one of
            # its entries, nothing else in the group).  The merged header
            # would be rebuilt from exactly the source header's canonical
            # entries, so reuse it; ready/hops are uniform across members.
            source = members[0].source_header
            if (
                source is not None
                and len(members) == len(source.entries)
                and all(m.source_header is source for m in members)
            ):
                if len(members) > 1:
                    work.merges += 1
                    if self.tracer.enabled:
                        self._emit_merge(members[0].ready_cycle, len(members))
                merged.append(
                    Message(
                        header=source,
                        value=members[0].value,
                        ready_cycle=members[0].ready_cycle,
                        hops=members[0].hops,
                    )
                )
                continue
            seen_entries = set()
            entries: List[FrozenSet[int]] = []
            ready = 0
            hops = 0
            for member in members:
                if member.entry in seen_entries:
                    work.duplicates_removed += 1
                else:
                    seen_entries.add(member.entry)
                    entries.append(member.entry)
                ready = max(ready, member.ready_cycle)
                hops = max(hops, member.hops)
            if len(members) > 1:
                work.merges += 1
                if self.tracer.enabled:
                    self._emit_merge(ready, len(members))
            if self.check_values:
                reference = members[0].value
                for member in members[1:]:
                    if not np.allclose(member.value, reference):
                        raise AssertionError(
                            f"{self.name}: merge-unit invariant violated — "
                            f"outputs with indices {sorted(indices)} carry "
                            "different values"
                        )
            # ``entries`` is already deduplicated above; sorting it
            # canonically here is exactly Header.make minus the redundant
            # second dedup pass (a single entry needs no sort at all).
            if len(entries) == 1:
                canonical = (entries[0],)
            else:
                canonical = tuple(sorted(entries, key=entry_sort_key))
            merged.append(
                Message(
                    header=Header(indices=indices, entries=canonical),
                    value=members[0].value,
                    ready_cycle=ready,
                    hops=hops,
                )
            )
        return merged

    def _apply_issue_limit(self, outputs: List[Message]) -> List[Message]:
        """Finite compute units: at most ``compute_units`` outputs per cycle."""
        units = self.config.compute_units
        # Each output's sorted-indices key is built once, here, and serves
        # both sorts below; it is dropped with this list.  Indices sets are
        # unique after the merge unit, so the key is a strict total order
        # and the message itself is never compared.
        keyed = [
            (message.ready_cycle, sorted_tuple(message.indices), message)
            for message in outputs
        ]
        # Stalls are assigned in (ready_cycle, sorted indices) order: the
        # earliest-ready outputs grab the free units first.
        keyed.sort(key=_READY_THEN_KEY)
        for position, (_, _, message) in enumerate(keyed):
            message.ready_cycle += position // units
        # Hand the list to the parent level in canonical sorted-indices
        # order.  The stall assignment above is timing (who waits for a
        # free unit); the *list* order steers the parent's greedy matching
        # and merge grouping, which must not depend on when memory happened
        # to deliver the operands — the invariant that keeps functional
        # outputs byte-identical under the opt-in hot-index tier.
        keyed.sort(key=_KEY)
        return [message for _, _, message in keyed]

    # ------------------------------------------------------------------
    def process(
        self,
        input_a: Sequence[Message],
        input_b: Sequence[Message],
        universe_a: Optional[FrozenSet[int]] = None,
        universe_b: Optional[FrozenSet[int]] = None,
    ) -> PEResult:
        """Run one batch through this PE.

        Either input may be empty (e.g. a rank holding no requested vector),
        in which case everything on the other input is forwarded — the paper's
        automatic-forward case for PE (4|15) in Fig. 6.

        ``universe_a`` / ``universe_b`` are the indices homed beneath each
        input's subtree (a leaf FIFO's own indices; a parent's is the union
        of its children's).  They enable the exact-partner probe; leaving
        them out runs the full scan, with byte-identical results.
        """
        work = PEWork(
            peak_input_occupancy=max(len(input_a), len(input_b))
        )
        raw: List[_RawOutput] = []
        self._scan_side(input_a, input_b, universe_b, work, raw)
        self._scan_side(input_b, input_a, universe_a, work, raw)
        outputs = self._merge(raw, work)
        outputs = self._apply_issue_limit(outputs)
        work.outputs = len(outputs)
        return PEResult(outputs=outputs, work=work)

    # ------------------------------------------------------------------
    # Intra-FIFO streaming combination (leaf PEs)
    # ------------------------------------------------------------------
    def fold_stream(self, stream: Sequence[Message], work: PEWork) -> List[Message]:
        """Combine messages arriving sequentially on *one* input FIFO.

        In the paper's reference workload a query touches at most one vector
        per rank (table-number bits select the rank, Fig. 4b), so vectors
        needing each other always arrive on *different* PE inputs.  A general
        sparse-gathering library cannot assume that: two indices of one query
        may be homed in the same rank.  Physically those items stream through
        the leaf PE's FIFO one after another, and the compute units compare
        each arriving item against the entries already buffered (Fig. 5 shows
        the units iterating over the buffer).  This method models that
        streaming self-combination: it computes the closure of pairwise
        reductions within one FIFO, charging the reduce path per combination
        but no forward cost for items that merely sit in the buffer.

        Messages that do not interact pass through untouched, so for
        paper-style workloads this is an identity with zero added latency.

        Combination is greedy: each arriving item reduces, per query entry,
        with the *maximal* already-buffered match — the running accumulator
        for that query within this FIFO.  This keeps the buffered message
        count linear in the stream length (the full pairwise closure would
        be exponential for heavily co-located queries) while preserving the
        completion invariant: after the fold, the buffer holds one message
        covering exactly each query's indices homed on this FIFO.

        The buffer is indexed (:class:`_FifoBuffer`) so that finding an
        entry's match visits only the buffered messages that could be
        contained in it, not the whole buffer; the match, the charged
        ``compares`` and the emitted events are those of the full scan.
        """
        buffer = _FifoBuffer()
        # FIFO arrival order — the deterministic append order built by
        # ``FafnirEngine._leaf_inputs`` — not ready-cycle order: which pairs
        # fold (and therefore the reduced values' float association) must
        # not depend on DRAM scheduling or the hot-index tier, only the
        # ready arithmetic may.
        for message in stream:
            self._fold_insert(message, buffer, work)
        return self._coalesce(buffer.by_indices.values(), work)

    def _fold_insert(
        self, message: Message, buffer: _FifoBuffer, work: PEWork
    ) -> None:
        """Buffer one FIFO item, then recursively insert what it reduced to.

        A method rather than a closure: a nested function that calls itself
        by name forms a function/cell reference cycle, which would keep the
        buffer alive until the cyclic collector runs (and ``run_batch``
        pauses that collector).
        """
        reduce_path = self.config.latencies.reduce_path
        produced: List[Message] = []
        for entry in message.entries:
            if not entry:
                continue
            # The compute units test the entry against every buffered item.
            work.compares += buffer.size
            best = buffer.widest_contained(entry)
            if best is not None:
                work.reduces += 1
                ready = max(message.ready_cycle, best.ready_cycle) + reduce_path
                if self.tracer.enabled:
                    self._emit_op(PE_REDUCE, ready, reduce_path)
                produced.append(
                    Message(
                        header=message.header.reduced_with(best.indices, entry),
                        value=self.operator.combine(message.value, best.value),
                        ready_cycle=ready,
                        hops=max(message.hops, best.hops),
                    )
                )
        buffer.append(message)
        for combined in produced:
            if buffer.covers(combined):
                work.duplicates_removed += 1
            else:
                self._fold_insert(combined, buffer, work)

    def _coalesce(
        self, groups: Iterable[List[Message]], work: PEWork
    ) -> List[Message]:
        """Merge each group of same-``indices`` messages without charging
        PE latency (groups in first-arrival order, members in FIFO order)."""
        coalesced: List[Message] = []
        for members in groups:
            base = members[0]
            if len(members) == 1:
                coalesced.append(base)
                continue
            header = base.header
            ready = base.ready_cycle
            hops = base.hops
            for member in members[1:]:
                header = header.merged_with(member.header)
                ready = max(ready, member.ready_cycle)
                hops = max(hops, member.hops)
            work.merges += 1
            if self.tracer.enabled:
                self._emit_merge(ready, len(members))
            coalesced.append(
                Message(
                    header=header, value=base.value, ready_cycle=ready, hops=hops
                )
            )
        return coalesced

    def theoretical_output_bound(self, n: int, m: int) -> int:
        """Paper §IV-B: at most min(nm + n + m, B) distinct outputs."""
        return min(n * m + n + m, self.config.batch_size * self.config.max_query_len)

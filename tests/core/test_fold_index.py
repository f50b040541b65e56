"""The indexed leaf FIFO fold == the linear-scan fold it replaced.

``ProcessingElement.fold_stream`` finds each entry's match through a
bucket index keyed by ``min(indices)`` and answers "already buffered?"
with a lookup by index set.  The reference below is the fold written the
plain way: every entry scans the whole buffer with ``_widest_contained``
(widest contained message, earliest on ties) and every reduced message
is checked against the whole buffer.  Both must produce the same headers,
value bytes, ready cycles, hops, ``PEWork`` and event stream.
"""

from typing import Dict, FrozenSet, List

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import FafnirConfig, Header, Message, ProcessingElement, SUM
from repro.core.pe import PEWork, _widest_contained
from repro.obs import InMemorySink, Tracer
from repro.obs.events import PE_REDUCE

ELEMENTS = 4


def reference_fold(pe: ProcessingElement, stream, work: PEWork) -> List[Message]:
    buffer: List[Message] = []
    for message in stream:
        reference_insert(pe, message, buffer, work)
    groups: Dict[FrozenSet[int], List[Message]] = {}
    for message in buffer:
        groups.setdefault(message.indices, []).append(message)
    folded = []
    for members in groups.values():
        base = members[0]
        if len(members) == 1:
            folded.append(base)
            continue
        header, ready, hops = base.header, base.ready_cycle, base.hops
        for member in members[1:]:
            header = header.merged_with(member.header)
            ready = max(ready, member.ready_cycle)
            hops = max(hops, member.hops)
        work.merges += 1
        pe._emit_merge(ready, len(members))
        folded.append(Message(header, base.value, ready_cycle=ready, hops=hops))
    return folded


def reference_insert(pe, message, buffer, work):
    reduce_path = pe.config.latencies.reduce_path
    produced = []
    for entry in message.entries:
        if not entry:
            continue
        work.compares += len(buffer)
        best = _widest_contained(entry, buffer)
        if best is not None:
            work.reduces += 1
            ready = max(message.ready_cycle, best.ready_cycle) + reduce_path
            pe._emit_op(PE_REDUCE, ready, reduce_path)
            produced.append(
                Message(
                    header=message.header.reduced_with(best.indices, entry),
                    value=pe.operator.combine(message.value, best.value),
                    ready_cycle=ready,
                    hops=max(message.hops, best.hops),
                )
            )
    buffer.append(message)
    for combined in produced:
        already = any(
            other.indices == combined.indices
            and set(combined.entries) <= set(other.entries)
            for other in buffer
        )
        if already:
            work.duplicates_removed += 1
        else:
            reference_insert(pe, combined, buffer, work)


def fingerprint(message):
    return (
        message.header.indices,
        message.header.entries,
        message.value.tobytes(),
        message.ready_cycle,
        message.hops,
    )


def fold_with(fold, stream):
    sink = InMemorySink()
    config = FafnirConfig(batch_size=64, total_ranks=8, ranks_per_leaf_pe=2)
    pe = ProcessingElement(config, SUM, tracer=Tracer([sink]), pe_id=3, level=0)
    work = PEWork()
    folded = fold(pe, list(stream), work)
    return [fingerprint(m) for m in folded], work, sink.events


@st.composite
def query_streams(draw):
    """One FIFO's initial messages for queries packed into a few indices,
    so most indices share queries and equal-width matches abound."""
    universe = draw(st.integers(2, 9))
    index = st.integers(0, universe - 1)
    queries = draw(
        st.lists(st.frozensets(index, min_size=1, max_size=6), min_size=1,
                 max_size=8)
    )
    used = sorted(frozenset().union(*queries))
    order = draw(st.permutations(used))
    return [
        Message(
            Header.initial(i, queries),
            np.full(ELEMENTS, draw(st.floats(-4, 4, width=32))),
            ready_cycle=draw(st.integers(0, 30)),
            hops=draw(st.integers(0, 3)),
        )
        for i in order
    ]


@st.composite
def arbitrary_streams(draw):
    """Free-form messages: repeated index sets, partial sums and
    entries that no buffered message can ever satisfy."""
    universe = draw(st.integers(3, 7))
    index = st.integers(0, universe - 1)
    stream = []
    for _ in range(draw(st.integers(1, 10))):
        indices = draw(st.frozensets(index, min_size=1, max_size=2))
        entries = draw(
            st.lists(st.frozensets(index, max_size=5), min_size=1, max_size=3)
        )
        stream.append(
            Message(
                Header.make(indices, [e - indices for e in entries]),
                np.asarray(
                    draw(st.lists(st.floats(-8, 8, width=32), min_size=ELEMENTS,
                                  max_size=ELEMENTS))
                ),
                ready_cycle=draw(st.integers(0, 30)),
                hops=draw(st.integers(0, 3)),
            )
        )
    return stream


@settings(max_examples=300, deadline=None)
@given(stream=st.one_of(query_streams(), arbitrary_streams()))
def test_indexed_fold_is_the_reference_fold(stream):
    indexed = fold_with(lambda pe, s, work: pe.fold_stream(s, work), stream)
    assert indexed == fold_with(reference_fold, stream)


def test_equal_width_tie_takes_the_earliest_buffered():
    """{1} and {2} both fit the entry {1, 2} of {3}: {1} arrived first."""
    value = np.ones(ELEMENTS)
    stream = [
        Message(Header.make({1}, [{9}]), value),
        Message(Header.make({2}, [{9}]), value * 2),
        Message(Header.make({3}, [{1, 2}]), value * 4),
    ]
    folded, work, events = fold_with(
        lambda pe, s, work: pe.fold_stream(s, work), stream
    )
    assert (folded, work, events) == fold_with(reference_fold, stream)
    indices = [f[0] for f in folded]
    assert frozenset({1, 3}) in indices
    assert frozenset({2, 3}) not in indices
    # One compare per buffered message: 0 + 1 + 2 for the arrivals, then
    # 3 for {1, 3}'s remaining entry {2}.
    assert work.compares == 0 + 1 + 2 + 3

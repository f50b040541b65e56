"""Message headers flowing through the FAFNIR tree (paper §IV-B, Fig. 4/6).

Every value moving from the leaves toward the root carries a header with two
fields:

* ``indices`` — the set of embedding-vector indices *already folded into* the
  carried value.  The invariant maintained by every PE is that the value is
  exactly the reduction of the vectors named by ``indices``.
* ``entries`` (the paper's *queries* field) — one remaining-index set per
  query that still needs this value.  An entry lists the indices that must
  still be folded in before that query's output is complete; an **empty**
  entry means the carried value *is* that query's final answer.

Example from the paper: a message whose value is ``v50 ⊕ v11`` with one query
still needing vectors 94 and 26 has header ``[indices: {50, 11} | queries:
{94, 26}]``.

**Sort keys.**  :func:`sorted_tuple` and :func:`entry_sort_key` are plain
functions.  A key is computed where it is used and dies with the batch that
needed it: nothing in this module or in :mod:`repro.core.pe` memoizes across
calls.  A process-global cache keyed on index sets would keep a finished
batch's sets alive after its result is dropped (171 MiB after one 256 × 64
batch), and within one such batch it would thrash rather than reuse.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Iterable, List, Sequence, Tuple

import numpy as np

Indices = FrozenSet[int]


def sorted_tuple(indices: Indices) -> Tuple[int, ...]:
    """Ascending tuple of an index set: the canonical sorted-indices key."""
    return tuple(sorted(indices))


def entry_sort_key(entry: Indices) -> Tuple[int, Tuple[int, ...]]:
    """Canonical ordering key for header entries: (size, sorted members)."""
    return (len(entry), tuple(sorted(entry)))


def _canonical_entries(entries: Iterable[Indices]) -> Tuple[Indices, ...]:
    """Deduplicate and canonically order remaining-index sets.

    Duplicate entries are redundant: two queries that need exactly the same
    remaining indices on top of the same carried value are satisfied by the
    same upstream reductions (the merge unit's dedup, paper §IV-B).
    """
    unique = {frozenset(entry) for entry in entries}
    return tuple(sorted(unique, key=entry_sort_key))


@dataclass(frozen=True)
class Header:
    """The (indices, queries) pair attached to every in-tree value."""

    indices: Indices
    entries: Tuple[Indices, ...]

    def __post_init__(self) -> None:
        if not self.indices:
            raise ValueError("a header must cover at least one index")
        for entry in self.entries:
            if entry and not entry.isdisjoint(self.indices):
                raise ValueError(
                    f"entry {sorted(entry)} overlaps indices {sorted(self.indices)}"
                )

    @staticmethod
    def make(indices: Iterable[int], entries: Iterable[Iterable[int]]) -> "Header":
        """Build a canonical header from plain iterables."""
        return Header(
            indices=frozenset(indices),
            entries=_canonical_entries(frozenset(e) for e in entries),
        )

    @staticmethod
    def initial(unique_index: int, queries: Sequence[Iterable[int]]) -> "Header":
        """Host-side header for one unique index of a batch (§IV-C, Fig. 6b).

        For each query containing ``unique_index``, the entry is the query's
        other indices — what must still be gathered for that query.
        """
        entries: List[Indices] = []
        for query in queries:
            query_set = frozenset(query)
            if unique_index in query_set:
                entries.append(query_set - {unique_index})
        if not entries:
            raise ValueError(
                f"index {unique_index} does not appear in any query of the batch"
            )
        return Header.make({unique_index}, entries)

    @property
    def complete_entries(self) -> Tuple[Indices, ...]:
        """Entries already satisfied: the carried value answers those queries."""
        return tuple(entry for entry in self.entries if not entry)

    @property
    def pending_entries(self) -> Tuple[Indices, ...]:
        """Entries still waiting for more indices to be folded in."""
        return tuple(entry for entry in self.entries if entry)

    def completed_queries(self) -> Tuple[Indices, ...]:
        """Full index sets of the queries this message fully answers.

        Entries are deduplicated, so at most one empty entry exists and the
        result has at most one element.
        """
        return (self.indices,) if self.complete_entries else ()

    def reduced_with(self, other_indices: Indices, entry: Indices) -> "Header":
        """Header of the reduction of this value (via ``entry``) with a partner.

        Preconditions (checked): ``entry`` is one of our entries and the
        partner's ``other_indices`` is a subset of it — the paper's match
        condition "B[x].queries[j] contains all elements of A[i].indices".
        """
        if entry not in self.entries:
            raise ValueError("entry does not belong to this header")
        if not other_indices <= entry:
            raise ValueError("partner indices are not contained in the entry")
        # A single entry is trivially canonical — skip Header.make's dedup.
        return Header(
            indices=self.indices | other_indices,
            entries=(entry - other_indices,),
        )

    def forwarded(self, entry: Indices) -> "Header":
        """Header carrying just one of our entries onward unchanged."""
        if entry not in self.entries:
            raise ValueError("entry does not belong to this header")
        return Header(indices=self.indices, entries=(entry,))

    def merged_with(self, other: "Header") -> "Header":
        """Merge two headers for the *same* data (equal ``indices`` sets)."""
        if self.indices != other.indices:
            raise ValueError("only headers with equal indices may merge")
        return Header.make(self.indices, self.entries + other.entries)

    def __repr__(self) -> str:
        inx = ",".join(str(i) for i in sorted(self.indices))
        parts = ["|".join(str(i) for i in sorted(e)) or "∅" for e in self.entries]
        return f"[indices:{inx} queries:{'; '.join(parts)}]"


@dataclass
class Message:
    """A value in flight through the tree, plus timing annotation.

    Attributes:
        header: provenance and outstanding-query bookkeeping.
        value: the carried (partially reduced) vector.
        ready_cycle: PE-clock cycle at which this message is available to the
            consuming PE — the cycle-approximate engine threads latency
            through these annotations.
        hops: number of PEs this message has traversed (for stats).
    """

    header: Header
    value: np.ndarray
    ready_cycle: int = 0
    hops: int = 0

    def __post_init__(self) -> None:
        self.value = np.asarray(self.value, dtype=np.float64)
        if self.ready_cycle < 0:
            raise ValueError("ready_cycle must be non-negative")

    @property
    def indices(self) -> Indices:
        return self.header.indices

    @property
    def entries(self) -> Tuple[Indices, ...]:
        return self.header.entries

    def clone_for_entry(self, entry: Indices, ready_cycle: int) -> "Message":
        """Forwarded copy carrying only ``entry``."""
        return Message(
            header=self.header.forwarded(entry),
            value=self.value,
            ready_cycle=ready_cycle,
            hops=self.hops + 1,
        )

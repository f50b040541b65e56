"""Host-side batch preprocessing (paper §IV-C, Fig. 6b).

Before a batch of queries is issued to the tree, the host:

1. normalises each query to a set of global vector indices,
2. extracts the batch's **unique** indices — each is read from DRAM exactly
   once, however many queries share it, and
3. builds the initial header for every unique index: its ``queries`` field
   holds, per query using the index, the query's *other* indices.

The ``deduplicate=False`` path issues one read per (query, index) occurrence
instead — the ablation the paper uses to separate FAFNIR's parallel-tree
speedup (Fig. 13 solid bars) from its redundant-access elimination
(striped bars, Fig. 15).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.core.header import Header


Query = FrozenSet[int]


@dataclass(frozen=True)
class BatchPlan:
    """Everything the engine needs to run one batch.

    Attributes:
        queries: normalised query index sets, in submission order.
        reads: vector indices to fetch from memory (unique, or one per
            occurrence when deduplication is disabled).
        headers: initial header for each distinct index in ``reads``.
        deduplicated: whether redundant reads were eliminated.
    """

    queries: Tuple[Query, ...]
    reads: Tuple[int, ...]
    headers: Dict[int, Header]
    deduplicated: bool

    @property
    def total_lookups(self) -> int:
        """Sum of query lengths — the naive access count."""
        return sum(len(query) for query in self.queries)

    @property
    def unique_indices(self) -> Tuple[int, ...]:
        return tuple(sorted(set(self.reads)))

    @property
    def unique_fraction(self) -> float:
        """Fraction of lookups that are unique (paper Fig. 3)."""
        total = self.total_lookups
        return len(self.unique_indices) / total if total else 0.0

    @property
    def accesses_saved(self) -> int:
        """Memory reads avoided relative to the naive plan (paper Fig. 15)."""
        return self.total_lookups - len(self.reads)


def normalize_query(
    raw: Sequence[int], position: int, max_query_len: Optional[int] = None
) -> Query:
    """Validate one query and return its index set.

    The one query contract of the package: a query is a non-empty sequence
    of non-negative integers (Python or NumPy; ``operator.index`` rejects
    floats such as ``1.5`` and ``1.0`` instead of truncating them), with at
    most ``max_query_len`` distinct indices when a maximum is given.  Every
    violation raises :class:`ValueError` naming the query's ``position``.
    """
    indices = map(operator.index, raw)
    try:
        query = frozenset(indices)
    except TypeError:
        raise ValueError(f"query {position} contains a non-integer index") from None
    if not query:
        raise ValueError(f"query {position} is empty")
    if min(query) < 0:
        raise ValueError(f"query {position} contains a negative index")
    if max_query_len is not None and len(query) > max_query_len:
        raise ValueError(
            f"query {position} has {len(query)} indices, "
            f"exceeding the configured maximum of {max_query_len}"
        )
    return query


def normalize_queries(
    raw_queries: Sequence[Sequence[int]], max_query_len: Optional[int] = None
) -> Tuple[Query, ...]:
    """Validate and canonicalise a batch of queries (see :func:`normalize_query`).

    Duplicate indices *within* one query are collapsed (the tree's header
    algebra works on sets); duplicate queries across the batch are kept —
    they are distinct outputs that happen to be equal.
    """
    if not raw_queries:
        raise ValueError("batch must contain at least one query")
    return tuple(
        normalize_query(raw, position, max_query_len)
        for position, raw in enumerate(raw_queries)
    )


def plan_batch(
    raw_queries: Sequence[Sequence[int]],
    max_query_len: Optional[int] = None,
    deduplicate: bool = True,
) -> BatchPlan:
    """Build the read list and initial headers for one batch."""
    queries = normalize_queries(raw_queries, max_query_len)

    # One pass over the batch (Header.initial per index would rescan every
    # query for every unique index — quadratic in batch size × query length).
    entries_of: Dict[int, List[Query]] = {}
    for query in queries:
        for index in query:
            entries_of.setdefault(index, []).append(query - {index})
    unique = sorted(entries_of)
    headers = {
        index: Header.make({index}, entries_of[index]) for index in unique
    }

    if deduplicate:
        reads = tuple(unique)
    else:
        reads = tuple(index for query in queries for index in sorted(query))
    return BatchPlan(
        queries=queries,
        reads=reads,
        headers=headers,
        deduplicated=deduplicate,
    )

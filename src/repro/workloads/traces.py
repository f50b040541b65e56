"""Query-trace I/O: record and replay embedding-lookup workloads.

Production systems evaluate NDP designs against recorded query traces (the
paper's authors used production-like traces we cannot redistribute).  This
module defines a small, stable on-disk format so synthetic traces can be
generated once and replayed deterministically across engines and runs:

* one query per line;
* a line is a comma-separated list of global vector indices;
* ``#``-prefixed lines are comments (the header records the generator
  parameters for provenance).
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass, field
from typing import Iterator, List, Sequence, Union

from repro.core.batch import normalize_query
from repro.workloads.embedding import EmbeddingTableSet, QueryGenerator

PathLike = Union[str, pathlib.Path]


@dataclass
class QueryTrace:
    """An ordered list of queries plus provenance metadata."""

    queries: List[List[int]]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        for position, query in enumerate(self.queries):
            normalize_query(query, position)

    def __len__(self) -> int:
        return len(self.queries)

    def __iter__(self) -> Iterator[List[int]]:
        return iter(self.queries)

    @property
    def total_lookups(self) -> int:
        return sum(len(query) for query in self.queries)

    @property
    def distinct_indices(self) -> int:
        return len({index for query in self.queries for index in query})

    def batches(self, batch_size: int) -> List[List[List[int]]]:
        """Split the trace into consecutive batches (last may be short)."""
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        return [
            self.queries[start : start + batch_size]
            for start in range(0, len(self.queries), batch_size)
        ]

    # ------------------------------------------------------------------
    def save(self, path: PathLike) -> None:
        """Write the trace in the one-query-per-line text format."""
        path = pathlib.Path(path)
        lines = [f"# {key}={value}" for key, value in sorted(self.metadata.items())]
        lines += [",".join(str(index) for index in query) for query in self.queries]
        path.write_text("\n".join(lines) + "\n")

    @staticmethod
    def load(path: PathLike) -> "QueryTrace":
        """Read a trace written by :meth:`save` (or by hand)."""
        path = pathlib.Path(path)
        metadata: dict = {}
        queries: List[List[int]] = []
        for line_number, raw in enumerate(path.read_text().splitlines(), start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                if "=" in body:
                    key, _, value = body.partition("=")
                    metadata[key.strip()] = value.strip()
                continue
            try:
                queries.append([int(token) for token in line.split(",")])
            except ValueError:
                raise ValueError(
                    f"{path}:{line_number}: malformed query line {line!r}"
                ) from None
        if not queries:
            raise ValueError(f"{path}: trace contains no queries")
        return QueryTrace(queries=queries, metadata=metadata)

    # ------------------------------------------------------------------
    @staticmethod
    def synthesize(
        tables: EmbeddingTableSet,
        num_queries: int,
        query_len: int = 16,
        skew: float = 1.65,
        hot_rows: int = 48,
        seed: int = 0,
    ) -> "QueryTrace":
        """Generate a trace with the calibrated Zipfian generator."""
        if num_queries <= 0:
            raise ValueError("num_queries must be positive")
        generator = QueryGenerator(
            tables, query_len=query_len, skew=skew, hot_rows=hot_rows, seed=seed
        )
        return QueryTrace(
            queries=generator.batch(num_queries),
            metadata={
                "num_tables": tables.num_tables,
                "rows_per_table": tables.rows_per_table,
                "query_len": query_len,
                "skew": skew,
                "hot_rows": hot_rows,
                "seed": seed,
            },
        )

"""Tests for host-side batch preprocessing (paper §IV-C)."""

import numpy as np
import pytest

from repro.core import FafnirConfig, FafnirEngine, plan_batch, normalize_queries
from repro.workloads import QueryTrace


PAPER_QUERIES = [
    {11, 32, 83, 77},   # query a
    {50, 83, 94},       # query b
    {50, 11, 94, 26},   # query c
    {32, 83, 26},       # query d
]


class TestNormalize:
    def test_collapses_duplicates_within_query(self):
        queries = normalize_queries([[3, 3, 5]])
        assert queries == (frozenset({3, 5}),)

    def test_keeps_duplicate_queries_across_batch(self):
        queries = normalize_queries([[1, 2], [1, 2]])
        assert len(queries) == 2

    def test_rejects_empty_batch(self):
        with pytest.raises(ValueError, match="at least one query"):
            normalize_queries([])

    def test_rejects_empty_query(self):
        with pytest.raises(ValueError, match="query 1 is empty"):
            normalize_queries([[1], []])

    def test_rejects_negative_index(self):
        with pytest.raises(ValueError, match="negative"):
            normalize_queries([[1, -2]])

    def test_enforces_max_query_len(self):
        with pytest.raises(ValueError, match="exceeding"):
            normalize_queries([[1, 2, 3]], max_query_len=2)


def _run_engine(queries):
    return FafnirEngine(FafnirConfig(batch_size=4)).run_batch(
        queries, lambda index: np.full(128, float(index))
    )


class TestQueryContract:
    """Every public entry point enforces the one per-query contract."""

    ENTRY_POINTS = {
        "plan_batch": plan_batch,
        "run_batch": _run_engine,
        "QueryTrace": QueryTrace,
    }

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_float_index_rejected_not_truncated(self, entry):
        with pytest.raises(ValueError, match="query 0 contains a non-integer"):
            self.ENTRY_POINTS[entry]([[1.5, 2]])

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_numpy_integer_indices_accepted(self, entry):
        self.ENTRY_POINTS[entry]([list(np.array([3, 7], dtype=np.int64))])


class TestPlanBatch:
    def test_paper_example_reads_seven_unique_indices(self):
        """§IV-C: 'instead of a total of 14 memory accesses, we access seven
        unique ones: 50, 11, 32, 83, 94, 26, 77'."""
        plan = plan_batch(PAPER_QUERIES)
        assert plan.total_lookups == 14
        assert plan.unique_indices == (11, 26, 32, 50, 77, 83, 94)
        assert len(plan.reads) == 7
        assert plan.accesses_saved == 7
        assert plan.unique_fraction == pytest.approx(0.5)

    def test_paper_example_header_for_index_11(self):
        plan = plan_batch(PAPER_QUERIES)
        header = plan.headers[11]
        assert set(header.entries) == {
            frozenset({32, 83, 77}),
            frozenset({50, 94, 26}),
        }

    def test_no_dedup_reads_every_occurrence(self):
        plan = plan_batch(PAPER_QUERIES, deduplicate=False)
        assert len(plan.reads) == 14
        assert plan.accesses_saved == 0
        # Headers still exist per unique index for the tree.
        assert set(plan.headers) == set(plan.unique_indices)

    def test_disjoint_batch_has_unit_fraction(self):
        plan = plan_batch([[0, 1], [2, 3]])
        assert plan.unique_fraction == 1.0
        assert plan.accesses_saved == 0

    def test_fully_shared_batch(self):
        plan = plan_batch([[4, 9]] * 8)
        assert len(plan.unique_indices) == 2
        assert plan.unique_fraction == pytest.approx(2 / 16)

    def test_header_built_for_every_unique_index(self):
        plan = plan_batch(PAPER_QUERIES)
        assert set(plan.headers) == set(plan.unique_indices)
        for index, header in plan.headers.items():
            assert header.indices == frozenset({index})

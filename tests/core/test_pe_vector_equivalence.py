"""Property-style proof that the exact-partner probe matches the full scan.

The PE picks each entry's partner with one probe, ``entry & U`` looked up
in the partners keyed by index set (``U``: the indices homed beneath the
partner subtree).  The full scan — the widest contained partner, earliest
on ties — is the executable specification.  These tests require the probe
to reproduce it *byte for byte* — same partner choices, same output
values, canonical headers, ready cycles and hop counts, same
:class:`PEWork` counters — over randomized message populations and
whole-engine runs, on both the object walk and the SoA sweep.  Random
populations break the completion invariant, so they exercise the probe's
misses and repeated partner index sets; the fallback never fires on
tree-shaped workloads, and this module is its only coverage.

The leaf FIFO fold has no probe; its object and pool-domain (SoA)
implementations are held to the same byte-for-byte standard here.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.core.pe as pe_module
import repro.core.soa as soa_module
from repro.core import (
    FafnirConfig,
    FafnirEngine,
    Header,
    Message,
    ProcessingElement,
    SUM,
    get_operator,
)
from repro.core.pe import PEWork
from repro.memory import MemoryConfig
from repro.obs import InMemorySink, Tracer
from repro.obs.tracer import NULL_TRACER


def force_full_scan(monkeypatch):
    """Make every probe table unavailable, so every entry takes the scan."""
    monkeypatch.setattr(pe_module, "_probe_table", lambda partners, universe: None)
    monkeypatch.setattr(soa_module, "_probe_table", lambda partner_bits: None)


def random_messages(rng, count, universe, max_indices=3, max_entries=3,
                    max_entry_len=4, elements=8):
    """A random, header-valid message population."""
    messages = []
    for _ in range(count):
        indices = frozenset(
            int(i)
            for i in rng.choice(universe, size=rng.integers(1, max_indices + 1),
                                replace=False)
        )
        entries = []
        for _ in range(rng.integers(1, max_entries + 1)):
            length = int(rng.integers(0, max_entry_len + 1))
            entry = frozenset(
                int(i)
                for i in rng.choice(universe, size=length, replace=False)
                if int(i) not in indices
            )
            entries.append(entry)
        messages.append(
            Message(
                Header.make(indices, entries),
                rng.normal(size=elements),
                ready_cycle=int(rng.integers(0, 50)),
                hops=int(rng.integers(0, 4)),
            )
        )
    return messages


def universe_of(messages, extra=()):
    """A valid probe universe: every partner index, plus optional extras."""
    return frozenset().union(*[m.indices for m in messages], extra)


def message_fingerprint(message):
    return (
        message.header.indices,
        message.header.entries,
        message.value.tobytes(),
        message.ready_cycle,
        message.hops,
    )


def assert_identical(scan_result, probe_result):
    assert [message_fingerprint(m) for m in scan_result.outputs] == [
        message_fingerprint(m) for m in probe_result.outputs
    ]
    assert scan_result.work == probe_result.work


def make_pe(operator=SUM):
    config = FafnirConfig(batch_size=64, total_ranks=8, ranks_per_leaf_pe=2)
    return ProcessingElement(config, operator)


def scan_and_probe(pe, a, b, extra=()):
    """``process`` without universes (full scan) and with them (probe)."""
    return (
        pe.process(a, b),
        pe.process(a, b, universe_of(a, extra), universe_of(b, extra)),
    )


class TestProcessEquivalence:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_populations(self, seed):
        rng = np.random.default_rng(seed)
        universe = int(rng.integers(6, 40))
        a = random_messages(rng, int(rng.integers(1, 12)), universe)
        b = random_messages(rng, int(rng.integers(0, 12)), universe)
        # Extra universe members no partner holds must not matter either.
        assert_identical(*scan_and_probe(make_pe(), a, b, extra=(1000, 1001)))

    @pytest.mark.parametrize("seed", range(6))
    def test_dense_overlap_many_ties(self, seed):
        """A tiny universe maximises duplicate entries, repeated partner
        index sets (the table refuses them) and tie-breaks."""
        rng = np.random.default_rng(1000 + seed)
        a = random_messages(rng, 10, universe=5, max_indices=2,
                            max_entries=2, max_entry_len=3)
        b = random_messages(rng, 10, universe=5, max_indices=2,
                            max_entries=2, max_entry_len=3)
        assert_identical(*scan_and_probe(make_pe(), a, b))

    def test_empty_partner_side(self):
        rng = np.random.default_rng(3)
        a = random_messages(rng, 6, universe=12)
        assert_identical(*scan_and_probe(make_pe(), a, []))

    def test_complete_entries_forward(self):
        value = np.arange(4.0)
        done = Message(Header.make({1, 2}, [set()]), value)
        other = Message(Header.make({9}, [{4}]), value)
        scan, probe = scan_and_probe(make_pe(), [done], [other])
        assert_identical(scan, probe)
        assert probe.work.compares == 1  # only the live entry {4} compares

    @pytest.mark.parametrize("name", ["sum", "min", "max"])
    def test_operators(self, name):
        rng = np.random.default_rng(17)
        a = random_messages(rng, 8, universe=16)
        b = random_messages(rng, 8, universe=16)
        assert_identical(
            *scan_and_probe(make_pe(get_operator(name)), a, b)
        )


class TestProbeFallback:
    """The ways the probe hands an entry to the full scan, and the
    probe's choice against the scan's on arbitrary families."""

    def spy_scans(self, monkeypatch):
        calls = []
        original = pe_module._widest_contained

        def spy(entry, candidates):
            calls.append(entry)
            return original(entry, candidates)

        monkeypatch.setattr(pe_module, "_widest_contained", spy)
        return calls

    def test_miss_falls_back_to_a_smaller_contained_partner(self, monkeypatch):
        # entry & U = {2, 3}, but the partner side only holds {2}: the
        # probe misses and the scan must still find {2}.
        value = np.ones(4)
        own = [Message(Header.make({1}, [{2, 3, 7}]), value)]
        partners = [
            Message(Header.make({2}, [{1}]), value * 2),
            Message(Header.make({5}, [{6}]), value * 3),
        ]
        universe = frozenset({2, 3, 5})
        calls = self.spy_scans(monkeypatch)
        pe = make_pe()
        probe = pe.process(own, partners, universe_of(own), universe)
        assert frozenset({2, 3, 7}) in calls
        scan = pe.process(own, partners)
        assert_identical(scan, probe)
        assert probe.work.reduces == 2  # {1}+{2} from both directions

    def test_repeated_partner_sets_take_the_scan(self, monkeypatch):
        value = np.ones(4)
        own = [Message(Header.make({1}, [{2}]), value)]
        twins = [
            Message(Header.make({2}, [{1}]), value * 2, ready_cycle=5),
            Message(Header.make({2}, [{9}]), value * 3, ready_cycle=1),
        ]
        assert pe_module._probe_table(twins, universe_of(twins)) is None
        calls = self.spy_scans(monkeypatch)
        pe = make_pe()
        probe = pe.process(own, twins, universe_of(own), universe_of(twins))
        assert frozenset({2}) in calls
        scan = pe.process(own, twins)
        assert_identical(scan, probe)

    def test_empty_key_forwards_without_a_scan(self, monkeypatch):
        value = np.ones(4)
        own = [Message(Header.make({1}, [{8, 9}]), value)]
        partners = [Message(Header.make({2}, [{3}]), value)]
        calls = self.spy_scans(monkeypatch)
        result = make_pe().process(
            own, partners, universe_of(own), universe_of(partners)
        )
        assert not calls
        assert result.work.compares == 2 and result.work.reduces == 0

    @settings(max_examples=200, deadline=None)
    @given(
        entry=st.frozensets(st.integers(0, 12), min_size=1, max_size=8),
        partner_sets=st.lists(
            st.frozensets(st.integers(0, 12), min_size=1, max_size=4),
            max_size=8,
        ),
        extra=st.frozensets(st.integers(0, 20), max_size=4),
    )
    def test_probe_choice_is_the_scan_choice(self, entry, partner_sets, extra):
        """Arbitrary families — hits, misses, empty keys, repeated sets:
        the probe names exactly the partner object the scan picks."""
        value = np.zeros(2)
        partners = [
            Message(Header(indices=s, entries=(frozenset(),)), value)
            for s in partner_sets
        ]
        universe = universe_of(partners, extra)
        table = pe_module._probe_table(partners, universe)
        assert pe_module._choose_partner(
            entry, partners, table, universe
        ) is pe_module._widest_contained(entry, partners)


    @settings(max_examples=200, deadline=None)
    @given(
        entries=st.lists(
            st.frozensets(st.integers(0, 80), max_size=8), min_size=1,
            max_size=6,
        ),
        partner_sets=st.lists(
            st.frozensets(st.integers(0, 80), min_size=1, max_size=4),
            min_size=1, max_size=8,
        ),
        extra=st.frozensets(st.integers(81, 99), max_size=4),
    )
    def test_soa_probe_choice_is_the_scan_choice(
        self, entries, partner_sets, extra
    ):
        """The pool-domain probe picks the scan's partner position.

        Universe bits sit past a leading run of foreign indices, so the
        window starts mid-word as it does for inner subtrees."""
        universe = sorted(frozenset().union(*partner_sets, extra))
        foreign = [i for i in range(100, 170)]
        rest = sorted(frozenset().union(*entries) - set(universe))
        pool = soa_module._SetPool(foreign + universe + rest)
        partners = soa_module._Stream(
            np.asarray(pool.intern_many(partner_sets), dtype=np.int64),
            np.zeros(len(partner_sets), np.int64),
            np.zeros(len(partner_sets), np.int64),
            np.zeros((len(partner_sets), 1)),
            [() for _ in partner_sets],
            len(foreign),
            len(foreign) + len(universe),
        )
        entry_ids = np.asarray(pool.intern_many(entries), dtype=np.int64)
        chosen = soa_module._best_partner(pool, entry_ids, partners).tolist()
        for entry, position in zip(entries, chosen):
            best = -1
            for j, indices in enumerate(partner_sets):
                if indices <= entry and (
                    best < 0 or len(indices) > len(partner_sets[best])
                ):
                    best = j
            assert position == best


class TestFoldEquivalence:
    """Object FIFO fold == the SoA sweep's pool-domain fold."""

    def fold_both(self, stream):
        config = FafnirConfig(batch_size=64, total_ranks=8, ranks_per_leaf_pe=2)
        object_work, soa_work = PEWork(), PEWork()
        folded = ProcessingElement(config, SUM).fold_stream(
            list(stream), object_work
        )
        order = sorted(
            frozenset().union(
                *[m.indices for m in stream],
                *[e for m in stream for e in m.entries],
            )
        )
        pool = soa_module._SetPool(order)
        columns = soa_module._fold_leaf_stream(
            pool, stream, config, SUM, NULL_TRACER, 0, 0, soa_work,
            0, len(order), stream[0].value.shape[0],
        )
        columnar = [
            (
                pool.frozen(int(columns.indices_id[row])),
                tuple(pool.frozen(e) for e in columns.entry_tuples[row]),
                columns.values[row].tobytes(),
                int(columns.ready[row]),
                int(columns.hops[row]),
            )
            for row in range(len(columns))
        ]
        assert [message_fingerprint(m) for m in folded] == columnar
        assert object_work == soa_work

    @pytest.mark.parametrize("seed", range(8))
    def test_random_streams(self, seed):
        rng = np.random.default_rng(2000 + seed)
        stream = random_messages(rng, int(rng.integers(2, 10)),
                                 universe=int(rng.integers(4, 16)))
        self.fold_both(stream)

    def test_chained_reduction_within_one_fifo(self):
        """Co-located indices that must fold 0⊕1⊕2 inside one stream."""
        value = np.ones(4)
        stream = [
            Message(Header.make({0}, [{1, 2}]), value * 1),
            Message(Header.make({1}, [{0, 2}]), value * 2),
            Message(Header.make({2}, [{0, 1}]), value * 4),
        ]
        self.fold_both(stream)


class TestEngineEquivalence:
    def run_both(self, queries, monkeypatch, seed=0, operator=SUM,
                 deduplicate=True, ranks=8, engine="object"):
        """(forced full scan, probe) runs of one batch, traced."""
        store = {}

        def source(index):
            if index not in store:
                store[index] = np.random.default_rng(
                    50_000 + seed + index
                ).normal(size=16)
            return store[index]

        config = FafnirConfig(
            batch_size=max(len(queries), 1),
            max_query_len=max(len(q) for q in queries),
            vector_bytes=16 * 4,
            total_ranks=ranks,
            ranks_per_leaf_pe=2,
            num_tables=ranks,
        )
        memory = MemoryConfig().scaled_to_ranks(ranks)

        def run():
            sink = InMemorySink()
            instance = FafnirEngine(
                config=config,
                operator=operator,
                memory_config=memory,
                engine=engine,
                tracer=Tracer([sink]),
            )
            result = instance.run_batch(queries, source, deduplicate=deduplicate)
            return result, sink.events

        probe = run()
        with monkeypatch.context() as patched:
            force_full_scan(patched)
            scan = run()
        return scan, probe

    def assert_runs_identical(self, scan, probe):
        (scan_result, scan_events), (probe_result, probe_events) = scan, probe
        for a, b in zip(scan_result.vectors, probe_result.vectors):
            assert a.tobytes() == b.tobytes()
        assert (
            scan_result.stats.latency_pe_cycles
            == probe_result.stats.latency_pe_cycles
        )
        assert scan_result.stats.per_pe_work == probe_result.stats.per_pe_work
        assert scan_events == probe_events

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("deduplicate", [True, False])
    def test_random_batches(self, seed, deduplicate, monkeypatch):
        rng = np.random.default_rng(3000 + seed)
        queries = [
            rng.choice(64, size=int(rng.integers(1, 9)),
                       replace=False).tolist()
            for _ in range(int(rng.integers(2, 17)))
        ]
        for engine in ("object", "soa"):
            self.assert_runs_identical(
                *self.run_both(
                    queries, monkeypatch, seed=seed,
                    deduplicate=deduplicate, engine=engine,
                )
            )

    def test_same_rank_collisions(self, monkeypatch):
        """Queries whose indices share a home rank exercise the fold path."""
        ranks = 8
        # index % ranks is the home rank under the default placement, so
        # each query's indices are deliberately congruent mod ranks.
        queries = [[3, 3 + ranks, 3 + 2 * ranks], [5, 5 + ranks], [1, 9, 17]]
        for engine in ("object", "soa"):
            self.assert_runs_identical(
                *self.run_both(queries, monkeypatch, ranks=ranks, engine=engine)
            )

    @pytest.mark.parametrize("name", ["min", "mean"])
    def test_other_operators(self, name, monkeypatch):
        rng = np.random.default_rng(9)
        queries = [
            rng.choice(48, size=6, replace=False).tolist() for _ in range(8)
        ]
        for engine in ("object", "soa"):
            self.assert_runs_identical(
                *self.run_both(
                    queries, monkeypatch, operator=get_operator(name),
                    engine=engine,
                )
            )

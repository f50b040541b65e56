"""Level-synchronous structure-of-arrays tree sweep (``engine="soa"``).

The object engine walks the tree one :class:`~repro.core.pe.ProcessingElement`
at a time, carrying per-message Python objects (``Message``/``Header``/
``_RawOutput``) through every level.  This module re-implements the sweep
*between* ``FafnirEngine._leaf_inputs`` and ``FafnirEngine._collect_results``
with no per-message objects in the steady state:

* **Set pool** — every ``frozenset`` a header can name (indices sets and
  query-remainder entries) is interned once into a :class:`_SetPool` and
  thereafter handled as a small integer id.  Each id owns one row of a
  packed ``uint64`` occupancy-bitset matrix over the batch's index
  universe; unions (reduce provenance) and differences (entry remainders)
  are memoized bitwise ops, so no frozenset algebra or hashing happens per
  message.
* **Columnar streams** — a PE input/output is a :class:`_Stream`: parallel
  NumPy arrays for header ids, ready cycles, and hop counts, a CSR layout
  (``flat_entries``/``entry_counts``) for the per-message entry lists, and
  one contiguous 2-D value matrix.  The per-PE FIFO state the object path
  keeps as lists of objects lives here as array slices and cursors.
* **Level barrier** — :func:`run_tree_soa` sweeps the tree level by level;
  within a level each PE's compute-unit scan is a handful of array ops
  and one dictionary probe per distinct entry (below), and the merge
  unit/issue limit are vectorized group reductions.

The index universe is numbered **leaf-major** (walking the level-0 PEs in
tree order, each FIFO side's home indices get consecutive bit positions),
so every subtree's universe — the indices homed beneath it — is one
contiguous bit range.  Partners are chosen with the object path's
exact-partner probe (see :mod:`repro.core.pe`), in the pool domain: an
entry's bits AND the partner universe's bits are the key, and the partner
whose bits equal it is the widest partner the entry contains.  Both are
read only inside the partner universe's word window — near the leaves a
couple of words per entry regardless of batch size.  A miss on a non-zero
key, or a partner stream that repeats an index set, falls back to the
full scan.

Byte-identity with the object path is a hard contract, enforced by the
differential harness: identical result vectors, identical
:class:`~repro.core.pe.PEWork` counters, and ``==``-equal trace-event
streams (same kinds, cycles, and emission order).  The sweep therefore
reproduces the object path's exact decision rules: maximal-partner
matching with earliest-partner tie-break, merge-unit grouping in
first-appearance order with the forwarded-intact header fast path, entry
dedup in member order, and the issue limit's ``(ready_cycle, sorted
indices)`` stall assignment followed by the canonical sorted-indices
handoff order (which keeps functional results independent of memory
timing).  Leaf FIFO folding stays a sequential loop — the greedy closure
in arrival order and its event ordering are part of the contract — but
runs in the pool domain (:func:`_fold_leaf_stream`): buffered index sets
carry memoised big-int masks so each containment test is one native
``&``, and the folded rows intern directly into columnar streams.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.config import FafnirConfig
from repro.core.header import Header, Message, entry_sort_key
from repro.core.operators import ReductionOperator
from repro.core.pe import PEWork
from repro.core.tree import FafnirTree
from repro.obs.events import KIND_CODES, PE_FORWARD, PE_MERGE, PE_REDUCE
from repro.obs.tracer import Tracer

_KIND_REDUCE = KIND_CODES[PE_REDUCE]
_KIND_FORWARD = KIND_CODES[PE_FORWARD]
_KIND_MERGE = KIND_CODES[PE_MERGE]

_I64_MAX = np.iinfo(np.int64).max
_I64_MIN = np.iinfo(np.int64).min


class _SetPool:
    """Interned index sets as packed occupancy bitsets.

    Ids are dense and stable for the lifetime of one sweep.  ``bits[i]``
    is the uint64-packed membership row of set ``i`` over the batch
    universe (bit positions assigned by the caller's ``index_order``);
    ``sizes[i]`` its cardinality.  Union/difference results are interned
    through the byte representation of their bit rows, so equal sets
    always share one id — set equality degenerates to integer equality
    everywhere downstream.
    """

    def __init__(self, index_order: Sequence[int]) -> None:
        self._position = {index: pos for pos, index in enumerate(index_order)}
        self._index_order = list(index_order)
        self._index_values = np.asarray(self._index_order, dtype=np.int64)
        # Sort keys are fixed-width big-endian byte strings: lexicographic
        # bytes order equals lexicographic order of the ascending value
        # tuples (prefixes sort first either way).  The bias makes the
        # encoded values non-negative so unsigned bytes preserve order.
        self._key_bias = (
            int(self._index_values.min()) if len(self._index_values) else 0
        )
        self.words = max(1, (len(index_order) + 63) >> 6)
        capacity = 1024
        self.bits = np.zeros((capacity, self.words), dtype=np.uint64)
        self.sizes = np.zeros(capacity, dtype=np.int64)
        self._count = 0
        self._by_key: Dict[bytes, int] = {}
        self._by_frozen: Dict[FrozenSet[int], int] = {}
        self._frozen: List[Optional[FrozenSet[int]]] = []
        self._entry_keys: Dict[int, Tuple[int, bytes]] = {}
        self._indices_keys: Dict[int, bytes] = {}
        self._union_memo: Dict[int, int] = {}
        self._diff_memo: Dict[int, int] = {}
        self._mask_memo: Dict[FrozenSet[int], int] = {}

    def _ensure_capacity(self, needed: int) -> None:
        capacity = len(self.sizes)
        if needed <= capacity:
            return
        while capacity < needed:
            capacity *= 2
        grown_bits = np.zeros((capacity, self.words), np.uint64)
        grown_bits[: self._count] = self.bits[: self._count]
        self.bits = grown_bits
        grown_sizes = np.zeros(capacity, np.int64)
        grown_sizes[: self._count] = self.sizes[: self._count]
        self.sizes = grown_sizes

    def _append(
        self, bits: np.ndarray, size: int, frozen: Optional[FrozenSet[int]]
    ) -> int:
        self._ensure_capacity(self._count + 1)
        row = self._count
        self.bits[row] = bits
        self.sizes[row] = size
        self._frozen.append(frozen)
        self._count += 1
        return row

    def intern_frozen(self, members: FrozenSet[int]) -> int:
        sid = self._by_frozen.get(members)
        if sid is not None:
            return sid
        bits = np.zeros(self.words, dtype=np.uint64)
        if members:
            positions = np.fromiter(
                (self._position[i] for i in members), np.int64, len(members)
            )
            np.bitwise_or.at(
                bits,
                positions >> 6,
                np.left_shift(
                    np.uint64(1), (positions & 63).astype(np.uint64)
                ),
            )
        key = bits.tobytes()
        sid = self._by_key.get(key)
        if sid is None:
            sid = self._append(bits, len(members), members)
            self._by_key[key] = sid
        elif self._frozen[sid] is None:
            self._frozen[sid] = members
        self._by_frozen[members] = sid
        return sid

    def mask_of(self, members: FrozenSet[int]) -> int:
        """Arbitrary-width Python-int mask of a set over the pool universe.

        Bit ``position[i]`` is set for each member ``i`` — the same layout
        as a packed ``bits`` row, so containment tests degenerate to one
        ``&`` on native big-ints.  Memoised per frozenset: leaf headers
        repeat the same index sets across FIFOs.
        """
        memo = self._mask_memo
        mask = memo.get(members)
        if mask is None:
            position = self._position
            mask = 0
            for index in members:
                mask |= 1 << position[index]
            memo[members] = mask
        return mask

    def intern_mask(self, mask: int, size: int, frozen: FrozenSet[int]) -> int:
        """Intern a Python-int mask under the same key as packed rows.

        ``int.to_bytes(..., "little")`` produces byte-for-byte the same
        key as ``bits.tobytes()`` for the row encoding that mask (bit *p*
        lives in byte ``p >> 3`` either way on the little-endian layouts
        this module already assumes).
        """
        key = mask.to_bytes(self.words * 8, "little")
        sid = self._by_key.get(key)
        if sid is None:
            sid = self._append(
                np.frombuffer(key, dtype=np.uint64), size, frozen
            )
            self._by_key[key] = sid
        elif self._frozen[sid] is None:
            self._frozen[sid] = frozen
        self._by_frozen.setdefault(frozen, sid)
        return sid

    def _intern_bits(self, bits: np.ndarray) -> int:
        key = bits.tobytes()
        sid = self._by_key.get(key)
        if sid is None:
            size = int(np.bitwise_count(bits).sum())
            sid = self._append(bits.copy(), size, None)
            self._by_key[key] = sid
        return sid

    def intern_bit_rows(self, rows: np.ndarray) -> np.ndarray:
        """Intern a matrix of bit rows in one pass; returns their ids.

        The only per-row Python work is ``tobytes`` + one dict probe —
        sizes come from a batched popcount and storage rows are written
        into pre-grown arrays.
        """
        k = len(rows)
        self._ensure_capacity(self._count + k)
        ids = np.empty(k, dtype=np.int64)
        row_sizes = np.bitwise_count(rows).sum(axis=1).tolist()
        by_key = self._by_key
        bits = self.bits
        sizes = self.sizes
        frozen = self._frozen
        count = self._count
        for i in range(k):
            key = rows[i].tobytes()
            sid = by_key.get(key)
            if sid is None:
                sid = count
                bits[count] = rows[i]
                sizes[count] = row_sizes[i]
                frozen.append(None)
                by_key[key] = sid
                count += 1
            ids[i] = sid
        self._count = count
        return ids

    def intern_many(self, sets: Sequence[FrozenSet[int]]) -> List[int]:
        """Intern a batch of frozensets with one vectorized bit encode."""
        by_frozen = self._by_frozen
        todo = list(dict.fromkeys(s for s in sets if s not in by_frozen))
        if todo:
            lengths = np.fromiter((len(s) for s in todo), np.int64, len(todo))
            total = int(lengths.sum())
            position = self._position
            positions = np.fromiter(
                (position[i] for s in todo for i in s), np.int64, total
            )
            rows = np.zeros((len(todo), self.words), dtype=np.uint64)
            np.bitwise_or.at(
                rows,
                (np.repeat(np.arange(len(todo)), lengths), positions >> 6),
                np.left_shift(
                    np.uint64(1), (positions & 63).astype(np.uint64)
                ),
            )
            frozen = self._frozen
            for members, sid in zip(todo, self.intern_bit_rows(rows).tolist()):
                by_frozen[members] = sid
                if frozen[sid] is None:
                    frozen[sid] = members
        return [by_frozen[s] for s in sets]

    def ensure_keys(self, ids) -> None:
        """Batch-decode sort keys for ids missing from the key caches.

        One vectorized unpack + lexsort replaces per-id frozenset decodes;
        afterwards :meth:`indices_key` / :meth:`entry_key` are dict hits.
        """
        indices_keys = self._indices_keys
        missing = [sid for sid in set(ids) if sid not in indices_keys]
        if not missing:
            return
        rows = self.bits[np.asarray(missing, dtype=np.int64)]
        row, col = _decode_bit_positions(rows)
        values = self._index_values[col]
        order = np.lexsort((values, row))
        buffer = (values[order] - self._key_bias).astype(">u8").tobytes()
        entry_keys = self._entry_keys
        cursor = 0
        for sid in missing:
            size = int(self.sizes[sid])
            key = buffer[cursor : cursor + 8 * size]
            cursor += 8 * size
            indices_keys[sid] = key
            entry_keys[sid] = (size, key)

    def union(self, a: int, b: int) -> int:
        memo_key = (a << 32) | b
        sid = self._union_memo.get(memo_key)
        if sid is None:
            sid = self._intern_bits(self.bits[a] | self.bits[b])
            self._union_memo[memo_key] = sid
        return sid

    def difference(self, a: int, b: int) -> int:
        """Id of set ``a`` minus set ``b``."""
        memo_key = (a << 32) | b
        sid = self._diff_memo.get(memo_key)
        if sid is None:
            sid = self._intern_bits(self.bits[a] & ~self.bits[b])
            self._diff_memo[memo_key] = sid
        return sid

    def frozen(self, sid: int) -> FrozenSet[int]:
        members = self._frozen[sid]
        if members is None:
            # Little-endian bit unpack: bit j of word w sits at position
            # 64·w + j, matching the encode above (x86/arm64 layouts).
            flags = np.unpackbits(
                self.bits[sid].view(np.uint8), bitorder="little"
            )
            members = frozenset(
                self._index_order[p] for p in np.flatnonzero(flags)
            )
            self._frozen[sid] = members
            self._by_frozen.setdefault(members, sid)
        return members

    def _encode_key(self, members: FrozenSet[int]) -> bytes:
        values = np.sort(np.fromiter(members, np.int64, len(members)))
        return (values - self._key_bias).astype(">u8").tobytes()

    def entry_key(self, sid: int) -> Tuple[int, bytes]:
        """Canonical entry ordering — sorts like ``entry_sort_key``."""
        key = self._entry_keys.get(sid)
        if key is None:
            key = (int(self.sizes[sid]), self._encode_key(self.frozen(sid)))
            self._entry_keys[sid] = key
        return key

    def indices_key(self, sid: int) -> bytes:
        """Issue-limit tie-break — sorts like ``sorted_tuple``."""
        key = self._indices_keys.get(sid)
        if key is None:
            key = self._encode_key(self.frozen(sid))
            self._indices_keys[sid] = key
        return key


class _Stream:
    """One PE input/output as structure-of-arrays columns.

    ``entry_tuples[i]`` is message *i*'s header entries as pool ids in
    canonical header order; ``flat_entries``/``entry_counts`` are the same
    data in CSR form for the row-expanded scan.  ``values`` is the
    contiguous (messages × elements) value matrix.  ``bit_lo:bit_hi`` is
    the bit range of every index homed beneath this stream's subtree (its
    universe): the leaf-major numbering makes it contiguous, and a partner
    probe against this stream reads only the words that range covers.
    """

    __slots__ = (
        "indices_id",
        "ready",
        "hops",
        "values",
        "entry_tuples",
        "entry_counts",
        "flat_entries",
        "bit_lo",
        "bit_hi",
    )

    def __init__(
        self,
        indices_id: np.ndarray,
        ready: np.ndarray,
        hops: np.ndarray,
        values: np.ndarray,
        entry_tuples: List[Tuple[int, ...]],
        bit_lo: int,
        bit_hi: int,
    ) -> None:
        self.indices_id = indices_id
        self.ready = ready
        self.hops = hops
        self.values = values
        self.entry_tuples = entry_tuples
        self.entry_counts = np.fromiter(
            (len(t) for t in entry_tuples), np.int64, len(entry_tuples)
        )
        total = int(self.entry_counts.sum())
        self.flat_entries = np.fromiter(
            (e for t in entry_tuples for e in t), np.int64, total
        )
        self.bit_lo = bit_lo
        self.bit_hi = bit_hi

    def __len__(self) -> int:
        return len(self.entry_tuples)


class _FoldBuffer:
    """A leaf FIFO's buffered rows in the pool domain, one slot per insert.

    The object fold's list of buffered ``Message`` objects, shredded into
    columns.  :meth:`insert` is a method rather than a closure inside
    :func:`_fold_leaf_stream`: a nested function that calls itself by name
    forms a function/cell reference cycle, which would keep every buffered
    row alive until the cyclic collector runs (and ``run_batch`` pauses
    that collector).
    """

    __slots__ = (
        "work",
        "reduce_path",
        "tracer",
        "pe_id",
        "level",
        "combine",
        "ind_frozen",
        "ind_mask",
        "ind_size",
        "row_entries",
        "entry_sets",
        "ready_col",
        "hops_col",
        "value_col",
        "rows_by_indices",
    )

    def __init__(
        self,
        work: PEWork,
        reduce_path: int,
        tracer: Tracer,
        pe_id: int,
        level: int,
        combine: Callable[[np.ndarray, np.ndarray], np.ndarray],
    ) -> None:
        self.work = work
        self.reduce_path = reduce_path
        self.tracer = tracer
        self.pe_id = pe_id
        self.level = level
        self.combine = combine
        self.ind_frozen: List[FrozenSet[int]] = []
        self.ind_mask: List[int] = []
        self.ind_size: List[int] = []
        self.row_entries: List[Tuple[Tuple[FrozenSet[int], int], ...]] = []
        self.entry_sets: List[FrozenSet[FrozenSet[int]]] = []
        self.ready_col: List[int] = []
        self.hops_col: List[int] = []
        self.value_col: List[np.ndarray] = []
        self.rows_by_indices: Dict[FrozenSet[int], List[int]] = {}

    def insert(
        self,
        indices: FrozenSet[int],
        indices_mask: int,
        entries: Tuple[Tuple[FrozenSet[int], int], ...],
        ready_cycle: int,
        hops: int,
        value: np.ndarray,
    ) -> None:
        """Buffer one row, then recursively insert what it reduced to."""
        work = self.work
        ind_frozen = self.ind_frozen
        ind_mask = self.ind_mask
        ind_size = self.ind_size
        ready_col = self.ready_col
        hops_col = self.hops_col
        value_col = self.value_col
        entry_sets = self.entry_sets
        rows_by_indices = self.rows_by_indices
        reduce_path = self.reduce_path
        produced = []
        count = len(ind_mask)
        live = [pair for pair in entries if pair[0]]
        if live:
            work.compares += count * len(live)
            if count:
                for entry, entry_mask in live:
                    best = -1
                    best_size = 0
                    outside = ~entry_mask
                    for row in range(count):
                        if (
                            ind_size[row] > best_size
                            and ind_mask[row] & outside == 0
                        ):
                            best = row
                            best_size = ind_size[row]
                    if best < 0:
                        continue
                    work.reduces += 1
                    other_ready = ready_col[best]
                    ready = (
                        ready_cycle if ready_cycle >= other_ready else other_ready
                    ) + reduce_path
                    if self.tracer.enabled:
                        self.tracer.emit_packed(
                            PE_REDUCE,
                            ready,
                            pe=self.pe_id,
                            level=self.level,
                            args=(reduce_path,),
                        )
                    best_hops = hops_col[best]
                    produced.append(
                        (
                            indices | ind_frozen[best],
                            indices_mask | ind_mask[best],
                            (
                                (
                                    entry - ind_frozen[best],
                                    entry_mask & ~ind_mask[best],
                                ),
                            ),
                            ready,
                            hops if hops >= best_hops else best_hops,
                            self.combine(value, value_col[best]),
                        )
                    )
        row = count
        ind_frozen.append(indices)
        ind_mask.append(indices_mask)
        ind_size.append(len(indices))
        self.row_entries.append(entries)
        entry_sets.append(frozenset(pair[0] for pair in entries))
        ready_col.append(ready_cycle)
        hops_col.append(hops)
        value_col.append(value)
        rows_by_indices.setdefault(indices, []).append(row)
        for c_ind, c_mask, c_entries, c_ready, c_hops, c_value in produced:
            entry = c_entries[0][0]
            if any(
                entry in entry_sets[r]
                for r in rows_by_indices.get(c_ind, ())
            ):
                work.duplicates_removed += 1
            else:
                self.insert(c_ind, c_mask, c_entries, c_ready, c_hops, c_value)


def _fold_leaf_stream(
    pool: _SetPool,
    stream: Sequence[Message],
    config: FafnirConfig,
    operator: ReductionOperator,
    tracer: Tracer,
    pe_id: int,
    level: int,
    work: PEWork,
    bit_lo: int,
    bit_hi: int,
    elements: int,
) -> _Stream:
    """Greedy FIFO fold in the pool domain, byte-identical to the object PE.

    Replays :meth:`ProcessingElement.fold_stream` — same greedy
    closure (arrival order, earliest maximal buffered match per live
    entry), same ``PEWork`` counters, same ``pe_reduce``/``pe_merge``
    events — but buffered index sets carry memoised Python-int masks, so
    the containment scan is one native ``&`` per buffered row instead of
    a frozenset subset test, and the coalesced rows intern directly into
    a columnar :class:`_Stream` without building ``Message`` objects.
    """
    enabled = tracer.enabled
    emit = tracer.emit_packed
    mask_of = pool.mask_of
    buffer = _FoldBuffer(
        work,
        config.latencies.reduce_path,
        tracer,
        pe_id,
        level,
        operator.combine,
    )

    # FIFO arrival order, mirroring the object path's fold: functional
    # pairing must not depend on DRAM scheduling or the hot-index tier.
    for message in stream:
        header = message.header
        buffer.insert(
            header.indices,
            mask_of(header.indices),
            tuple((e, mask_of(e)) for e in header.entries),
            message.ready_cycle,
            message.hops,
            message.value,
        )
    ind_frozen = buffer.ind_frozen
    ind_mask = buffer.ind_mask
    ind_size = buffer.ind_size
    row_entries = buffer.row_entries
    ready_col = buffer.ready_col
    hops_col = buffer.hops_col
    value_col = buffer.value_col

    # Coalesce same-indices rows (no PE latency charged), interning the
    # survivors straight into columnar form.
    groups: Dict[FrozenSet[int], List[int]] = {}
    for row, indices in enumerate(ind_frozen):
        groups.setdefault(indices, []).append(row)
    intern_mask = pool.intern_mask
    out_ids: List[int] = []
    out_ready: List[int] = []
    out_hops: List[int] = []
    out_values: List[np.ndarray] = []
    entry_tuples: List[Tuple[int, ...]] = []
    for indices, members in groups.items():
        first = members[0]
        if len(members) == 1:
            entries = row_entries[first]
            ready = ready_col[first]
            hops = hops_col[first]
        else:
            ready = max(ready_col[r] for r in members)
            hops = max(hops_col[r] for r in members)
            unique: Dict[FrozenSet[int], int] = {}
            for r in members:
                for entry, mask in row_entries[r]:
                    unique.setdefault(entry, mask)
            entries = tuple(
                (entry, unique[entry])
                for entry in sorted(unique, key=entry_sort_key)
            )
            work.merges += 1
            if enabled:
                emit(
                    PE_MERGE,
                    ready,
                    pe=pe_id,
                    level=level,
                    args=(len(members),),
                )
        out_ids.append(intern_mask(ind_mask[first], ind_size[first], indices))
        entry_tuples.append(
            tuple(
                intern_mask(mask, len(entry), entry)
                for entry, mask in entries
            )
        )
        out_ready.append(ready)
        out_hops.append(hops)
        out_values.append(value_col[first])
    if out_values:
        values = np.stack(out_values)
    else:
        values = np.zeros((0, elements), dtype=np.float64)
    return _Stream(
        np.asarray(out_ids, dtype=np.int64),
        np.asarray(out_ready, dtype=np.int64),
        np.asarray(out_hops, dtype=np.int64),
        values,
        entry_tuples,
        bit_lo,
        bit_hi,
    )


class _RawBlock:
    """One side-scan's raw compute-unit outputs, row-major in scan order.

    Reduce-row values are represented by *provenance* — ``cmsg[i]`` /
    ``cpartner[i]`` name the own-side message and partner whose combine
    produces reduce row ``i``'s value — and materialized only for the
    rows the merge unit actually reads.
    """

    __slots__ = (
        "ind",
        "ent",
        "ready",
        "hops",
        "src",
        "blk",
        "row",
        "kinds",
        "durs",
        "cmsg",
        "cpartner",
        "reduces",
        "forwards",
        "compares",
    )


def _decode_bit_positions(rows: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(row, col)`` of every set bit, in peel order (callers re-sort).

    Two-stage decode: locate the (few) nonzero words first, then peel
    set bits off those words lowest-first, compacting exhausted words
    each pass — total work tracks the popcount, never the 64× blowup of
    a full-width unpack, and the pass count is the densest word's
    popcount (small for the sparse header sets).
    """
    nz_row, nz_word = np.nonzero(rows)
    if not len(nz_row):
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty
    one = np.uint64(1)
    remaining = rows[nz_row, nz_word]
    live_row = nz_row.astype(np.int64)
    live_base = nz_word.astype(np.int64) * 64
    out_rows = []
    out_cols = []
    while len(remaining):
        lowest = remaining & (~remaining + one)
        bit = np.bitwise_count(lowest - one).astype(np.int64)
        out_rows.append(live_row)
        out_cols.append(live_base + bit)
        remaining &= remaining - one
        alive = remaining != 0
        if not alive.all():
            remaining = remaining[alive]
            live_row = live_row[alive]
            live_base = live_base[alive]
    return np.concatenate(out_rows), np.concatenate(out_cols)


def _range_mask(bit_lo: int, bit_hi: int) -> np.ndarray:
    """Packed words of bits ``[bit_lo, bit_hi)``, from word ``bit_lo >> 6``."""
    first = bit_lo >> 6
    words = ((bit_hi + 63) >> 6) - first
    mask = ((1 << (bit_hi - bit_lo)) - 1) << (bit_lo - 64 * first)
    return np.frombuffer(mask.to_bytes(8 * words, "little"), dtype=np.uint64)


def _probe_table(partner_bits: np.ndarray) -> Optional[Dict[bytes, int]]:
    """Partner positions keyed by their window bytes, or ``None``.

    ``None`` (every entry takes the full scan) when the partner stream
    repeats an index set.
    """
    table: Dict[bytes, int] = {}
    for position, key in enumerate(_row_bytes(partner_bits)):
        table.setdefault(key, position)
    return table if len(table) == len(partner_bits) else None


def _row_bytes(rows: np.ndarray) -> List[bytes]:
    """Each row's raw bytes, sliced from one ``tobytes`` call."""
    width = rows.itemsize * rows.shape[1]
    flat = rows.tobytes()
    return [flat[start : start + width] for start in range(0, len(flat), width)]


def _widest_contained(
    entry_bits: np.ndarray, partner_bits: np.ndarray, partner_sizes: np.ndarray
) -> int:
    """The full scan for one entry: the widest contained partner, or -1.

    Earliest partner wins ties, as in the object path's reference scan.
    """
    contained = np.flatnonzero(~(partner_bits & ~entry_bits).any(axis=1))
    if not len(contained):
        return -1
    return int(contained[partner_sizes[contained].argmax()])


def _best_partner(
    pool: _SetPool, entry_ids: np.ndarray, partners: _Stream
) -> np.ndarray:
    """Per entry id, the chosen partner's position in ``partners`` (-1: none).

    The same exact-partner probe as the object path, in the pool domain:
    an entry's bits AND the partner universe's bits form the key, and the
    partner whose bits equal that key is the widest one the entry holds.
    Everything is sliced to the partner universe's word window, where the
    partners' own bits all lie.  A miss on a non-zero key, or a partner
    stream that repeats an index set, falls back to the full scan; a zero
    key means no partner can be contained.
    """
    window = slice(partners.bit_lo >> 6, (partners.bit_hi + 63) >> 6)
    partner_bits = pool.bits[partners.indices_id, window]
    partner_sizes = pool.sizes[partners.indices_id]
    entry_bits = pool.bits[entry_ids, window]
    table = _probe_table(partner_bits)
    if table is None:
        return np.fromiter(
            (
                _widest_contained(bits, partner_bits, partner_sizes)
                for bits in entry_bits
            ),
            np.int64,
            len(entry_bits),
        )
    keys = entry_bits & _range_mask(partners.bit_lo, partners.bit_hi)
    live = keys.any(axis=1).tolist()
    best = []
    for row, key in enumerate(_row_bytes(keys)):
        position = table.get(key) if live[row] else -1
        if position is None:
            position = _widest_contained(
                entry_bits[row], partner_bits, partner_sizes
            )
        best.append(position)
    return np.asarray(best, dtype=np.int64)


def _map_pairs(
    pool: _SetPool, operation: str, left_ids: np.ndarray, right_ids: np.ndarray
) -> np.ndarray:
    """Memoized pool union/difference over id pairs, one batch encode.

    Each distinct unseen pair is computed exactly once: the bitwise op
    runs on a stacked matrix of all new pairs and the results are
    interned through :meth:`_SetPool.intern_bit_rows`.
    """
    keys = (left_ids.astype(np.int64) << 32) | right_ids
    unique_keys, inverse = np.unique(keys, return_inverse=True)
    memo = pool._union_memo if operation == "union" else pool._diff_memo
    mapped = np.empty(len(unique_keys), dtype=np.int64)
    unique_l = unique_keys.tolist()
    missing = []
    for i, key in enumerate(unique_l):
        sid = memo.get(key)
        if sid is None:
            missing.append(i)
        else:
            mapped[i] = sid
    if missing:
        missing_arr = np.asarray(missing, dtype=np.int64)
        a = (unique_keys[missing_arr] >> 32).astype(np.int64)
        b = (unique_keys[missing_arr] & 0xFFFFFFFF).astype(np.int64)
        if operation == "union":
            rows = pool.bits[a] | pool.bits[b]
        else:
            rows = pool.bits[a] & ~pool.bits[b]
        ids = pool.intern_bit_rows(rows)
        mapped[missing_arr] = ids
        for i, sid in zip(missing, ids.tolist()):
            memo[unique_l[i]] = sid
    return mapped[inverse]


def _scan_side(
    pool: _SetPool,
    own: _Stream,
    partners: _Stream,
    config: FafnirConfig,
    src_offset: int,
    own_block: int,
    comb_block: int,
) -> _RawBlock:
    """Columnar equivalent of the object path's one-direction scan.

    Emits one raw row per (message, entry) pair in scalar scan order:
    reduce rows pick the maximal contained partner (earliest on ties),
    everything else forwards.  Matches, counters, ready cycles, and the
    batched combine all reproduce ``ProcessingElement._scan_side``.
    """
    latencies = config.latencies
    counts = own.entry_counts
    rows = len(own.flat_entries)
    raw = _RawBlock()
    if rows == 0:
        empty = np.zeros(0, dtype=np.int64)
        raw.ind = raw.ent = raw.ready = raw.hops = raw.src = raw.row = empty
        raw.blk = np.zeros(0, dtype=np.int8)
        raw.kinds = np.zeros(0, dtype=np.int16)
        raw.durs = empty
        raw.cmsg = raw.cpartner = empty
        raw.reduces = raw.forwards = raw.compares = 0
        return raw

    row_msg = np.repeat(np.arange(len(own), dtype=np.int64), counts)
    row_ent = own.flat_entries
    entry_sizes = pool.sizes[row_ent]
    nonempty = entry_sizes > 0
    num_partners = len(partners)
    raw.compares = num_partners * int(nonempty.sum())

    best = np.full(rows, -1, dtype=np.int64)
    if num_partners and nonempty.any():
        # Identical entries choose identical partners — match each
        # distinct entry id once.
        unique_entries, inverse = np.unique(
            row_ent[nonempty], return_inverse=True
        )
        best[nonempty] = _best_partner(pool, unique_entries, partners)[inverse]

    reduce_rows = np.flatnonzero(best >= 0)
    forward_rows = np.flatnonzero(best < 0)
    raw.reduces = len(reduce_rows)
    raw.forwards = len(forward_rows)

    ind = np.empty(rows, dtype=np.int64)
    ent = np.empty(rows, dtype=np.int64)
    ready = np.empty(rows, dtype=np.int64)
    hops = np.empty(rows, dtype=np.int64)
    src = np.full(rows, -1, dtype=np.int64)
    blk = np.empty(rows, dtype=np.int8)
    row = np.empty(rows, dtype=np.int64)

    if raw.reduces:
        msg = row_msg[reduce_rows]
        partner = best[reduce_rows]
        ind[reduce_rows] = _map_pairs(
            pool, "union", own.indices_id[msg], partners.indices_id[partner]
        )
        ent[reduce_rows] = _map_pairs(
            pool,
            "difference",
            row_ent[reduce_rows],
            partners.indices_id[partner],
        )
        ready[reduce_rows] = (
            np.maximum(own.ready[msg], partners.ready[partner])
            + latencies.reduce_path
        )
        hops[reduce_rows] = np.maximum(own.hops[msg], partners.hops[partner]) + 1
        # Values are NOT combined here: the merge unit reads only one
        # member's value per output group, so combines materialize lazily
        # from (cmsg, cpartner) once the surviving rows are known.
        raw.cmsg = msg
        raw.cpartner = partner
        blk[reduce_rows] = comb_block
        row[reduce_rows] = np.arange(raw.reduces, dtype=np.int64)
    else:
        raw.cmsg = raw.cpartner = np.zeros(0, dtype=np.int64)

    if raw.forwards:
        msg = row_msg[forward_rows]
        ind[forward_rows] = own.indices_id[msg]
        ent[forward_rows] = row_ent[forward_rows]
        ready[forward_rows] = own.ready[msg] + latencies.forward_path
        hops[forward_rows] = own.hops[msg] + 1
        src[forward_rows] = msg + src_offset
        blk[forward_rows] = own_block
        row[forward_rows] = msg

    raw.ind, raw.ent, raw.ready, raw.hops = ind, ent, ready, hops
    raw.src, raw.blk, raw.row = src, blk, row
    raw.kinds = np.where(best >= 0, _KIND_REDUCE, _KIND_FORWARD).astype(
        np.int16
    )
    raw.durs = np.where(
        best >= 0, latencies.reduce_path, latencies.forward_path
    ).astype(np.int64)
    return raw


def _process_pe(
    pool: _SetPool,
    input_a: _Stream,
    input_b: _Stream,
    config: FafnirConfig,
    operator: ReductionOperator,
    tracer: Tracer,
    check_values: bool,
    pe_id: int,
    level: int,
    pe_name: str,
) -> Tuple[_Stream, PEWork]:
    """One PE invocation over columnar streams: scan both sides, merge,
    apply the issue limit.  Trace emission order matches the object path
    exactly: side-A rows, side-B rows, then merge events in group order.
    """
    work = PEWork(peak_input_occupancy=max(len(input_a), len(input_b)))
    raw_a = _scan_side(pool, input_a, input_b, config, 0, 0, 2)
    raw_b = _scan_side(pool, input_b, input_a, config, len(input_a), 1, 3)
    work.compares = raw_a.compares + raw_b.compares
    work.reduces = raw_a.reduces + raw_b.reduces
    work.forwards = raw_a.forwards + raw_b.forwards

    if tracer.enabled:
        if len(raw_a.kinds):
            tracer.emit_rows(
                raw_a.kinds, raw_a.ready, pe=pe_id, level=level, arg0=raw_a.durs
            )
        if len(raw_b.kinds):
            tracer.emit_rows(
                raw_b.kinds, raw_b.ready, pe=pe_id, level=level, arg0=raw_b.durs
            )

    r_ind = np.concatenate([raw_a.ind, raw_b.ind])
    n_rows = len(r_ind)
    elements = input_a.values.shape[1] if len(input_a) else input_b.values.shape[1]
    if n_rows == 0:
        stream = _Stream(
            np.zeros(0, np.int64),
            np.zeros(0, np.int64),
            np.zeros(0, np.int64),
            np.zeros((0, elements), np.float64),
            [],
            min(input_a.bit_lo, input_b.bit_lo),
            max(input_a.bit_hi, input_b.bit_hi),
        )
        return stream, work

    r_ent = np.concatenate([raw_a.ent, raw_b.ent])
    r_ready = np.concatenate([raw_a.ready, raw_b.ready])
    r_hops = np.concatenate([raw_a.hops, raw_b.hops])
    r_src = np.concatenate([raw_a.src, raw_b.src])
    r_blk = np.concatenate([raw_a.blk, raw_b.blk])
    r_row = np.concatenate([raw_a.row, raw_b.row])

    # ------------------------------------------------------------------
    # Merge unit: group rows by indices id in first-appearance order.
    # ------------------------------------------------------------------
    unique_ids, first_idx, inverse, counts = np.unique(
        r_ind, return_index=True, return_inverse=True, return_counts=True
    )
    order = np.argsort(first_idx, kind="stable")
    n_groups = len(unique_ids)

    group_ready = np.full(n_groups, _I64_MIN, dtype=np.int64)
    np.maximum.at(group_ready, inverse, r_ready)
    group_hops = np.full(n_groups, _I64_MIN, dtype=np.int64)
    np.maximum.at(group_hops, inverse, r_hops)
    src_min = np.full(n_groups, _I64_MAX, dtype=np.int64)
    np.minimum.at(src_min, inverse, r_src)
    src_max = np.full(n_groups, _I64_MIN, dtype=np.int64)
    np.maximum.at(src_max, inverse, r_src)

    firsts = first_idx[order]
    counts_o = counts[order]
    src_first = r_src[firsts]
    entry_counts_all = np.concatenate(
        [input_a.entry_counts, input_b.entry_counts]
    )
    uniform_src = (src_min == src_max)[order] & (src_first >= 0)
    # Forwarded-intact fast path: every member is a forward of the same
    # input message and the group holds all of that message's entries —
    # reuse its (already canonical) header.
    fast = (
        (counts_o > 1)
        & uniform_src
        & (counts_o == entry_counts_all[np.maximum(src_first, 0)])
    )
    single = counts_o == 1
    slow = ~(single | fast)

    # members[0] supplies the value in every merge path; ready/hops are
    # the first member's on the single/fast paths and the group max on
    # the slow path (forwarded-intact groups are ready-uniform).
    out_ready = np.where(slow, group_ready[order], r_ready[firsts])
    out_hops = np.where(slow, group_hops[order], r_hops[firsts])
    out_blk = r_blk[firsts]
    out_row = r_row[firsts]
    out_ind = unique_ids[order]

    multi = counts_o > 1
    work.merges = int(multi.sum())
    if tracer.enabled and work.merges:
        tracer.emit_rows(
            np.full(work.merges, _KIND_MERGE, dtype=np.int16),
            out_ready[multi],
            pe=pe_id,
            level=level,
            arg0=counts_o[multi],
        )

    # Entry lists per group (python loop; slow-path groups are the only
    # ones that need real work — dedup in member order, canonical sort).
    entry_tuples_all = input_a.entry_tuples + input_b.entry_tuples
    member_order = np.argsort(inverse, kind="stable")
    starts = np.zeros(n_groups + 1, dtype=np.int64)
    np.cumsum(counts, out=starts[1:])
    r_ent_l = r_ent.tolist()
    firsts_l = firsts.tolist()
    src_first_l = src_first.tolist()
    single_l = single.tolist()
    fast_l = fast.tolist()
    order_l = order.tolist()
    out_entries: List[Tuple[int, ...]] = []
    duplicates = 0
    for position, group in enumerate(order_l):
        if single_l[position]:
            out_entries.append((r_ent_l[firsts_l[position]],))
        elif fast_l[position]:
            out_entries.append(entry_tuples_all[src_first_l[position]])
        else:
            members = member_order[starts[group] : starts[group + 1]]
            seen = set()
            entries: List[int] = []
            for pos in members.tolist():
                entry = r_ent_l[pos]
                if entry in seen:
                    duplicates += 1
                else:
                    seen.add(entry)
                    entries.append(entry)
            if check_values:

                def member_value(pos: int) -> np.ndarray:
                    code = int(r_blk[pos])
                    value_row = int(r_row[pos])
                    if code == 0:
                        return input_a.values[value_row]
                    if code == 1:
                        return input_b.values[value_row]
                    if code == 2:
                        return operator.combine(
                            input_a.values[raw_a.cmsg[value_row]],
                            input_b.values[raw_a.cpartner[value_row]],
                        )
                    return operator.combine(
                        input_b.values[raw_b.cmsg[value_row]],
                        input_a.values[raw_b.cpartner[value_row]],
                    )

                reference = member_value(int(members[0]))
                for pos in members[1:]:
                    value = member_value(int(pos))
                    if not np.allclose(value, reference):
                        raise AssertionError(
                            f"{pe_name}: merge-unit invariant violated — "
                            "outputs with indices "
                            f"{sorted(pool.frozen(int(r_ind[pos])))} carry "
                            "different values"
                        )
            if len(entries) > 1:
                entries.sort(key=pool.entry_key)
            out_entries.append(tuple(entries))
    work.duplicates_removed = duplicates

    # ------------------------------------------------------------------
    # Issue limit: stalls are assigned in (ready cycle, sorted indices)
    # order — one extra cycle per compute_units outputs in a tie run —
    # but the stream is handed to the parent level in canonical
    # sorted-indices order, mirroring _apply_issue_limit: list order
    # steers the parent's matching/merging and must stay independent of
    # memory timing.
    # ------------------------------------------------------------------
    n_out = len(out_ind)
    perm = np.argsort(out_ready, kind="stable")
    ready_sorted = out_ready[perm]
    perm_l = perm.tolist()
    out_ind_l = out_ind.tolist()
    ready_sorted_l = ready_sorted.tolist()
    runs = []
    run_start = 0
    while run_start < n_out:
        run_stop = run_start + 1
        ready_value = ready_sorted_l[run_start]
        while run_stop < n_out and ready_sorted_l[run_stop] == ready_value:
            run_stop += 1
        if run_stop - run_start > 1:
            runs.append((run_start, run_stop))
        run_start = run_stop
    if runs:
        pool.ensure_keys(
            out_ind_l[p] for start, stop in runs for p in perm_l[start:stop]
        )
        keys = pool._indices_keys
        for start, stop in runs:
            perm_l[start:stop] = sorted(
                perm_l[start:stop], key=lambda p: keys[out_ind_l[p]]
            )
        perm = np.asarray(perm_l, dtype=np.int64)
    units = config.compute_units
    # Scatter the stall-adjusted ready cycles back to original rows, then
    # re-permute everything canonically by indices key.
    final_ready = np.empty(n_out, dtype=np.int64)
    final_ready[np.asarray(perm_l, dtype=np.int64)] = (
        ready_sorted + np.arange(n_out, dtype=np.int64) // units
    )
    pool.ensure_keys(out_ind_l)
    keys = pool._indices_keys
    perm_l = sorted(range(n_out), key=lambda p: keys[out_ind_l[p]])
    perm = np.asarray(perm_l, dtype=np.int64)
    final_ready = final_ready[perm]
    work.outputs = n_out

    # Materialize output values: forwards copy straight from the input
    # blocks; reduces combine lazily, only for the surviving group-first
    # rows (a small fraction of all reduce rows at the upper levels).
    out_values = np.empty((n_out, elements), dtype=np.float64)
    blk_perm = out_blk[perm]
    row_perm = out_row[perm]
    for code, block in enumerate((input_a.values, input_b.values)):
        mask = blk_perm == code
        if mask.any():
            out_values[mask] = block[row_perm[mask]]
    for code, raw, own_vals, partner_vals in (
        (2, raw_a, input_a.values, input_b.values),
        (3, raw_b, input_b.values, input_a.values),
    ):
        mask = blk_perm == code
        if mask.any():
            needed = row_perm[mask]
            out_values[mask] = operator.combine(
                own_vals[raw.cmsg[needed]], partner_vals[raw.cpartner[needed]]
            )

    stream = _Stream(
        out_ind[perm],
        final_ready,
        out_hops[perm],
        out_values,
        [out_entries[p] for p in perm_l],
        min(input_a.bit_lo, input_b.bit_lo),
        max(input_a.bit_hi, input_b.bit_hi),
    )
    return stream, work


def _build_index_order(
    tree: FafnirTree, leaf_inputs: Dict[int, List[List[Message]]]
) -> Tuple[List[int], Dict[Tuple[int, int], Tuple[int, int]]]:
    """Leaf-major universe numbering plus per-FIFO bit ranges.

    Walking the level-0 PEs in tree order and each PE's two FIFOs in
    side order assigns consecutive bit positions to each FIFO's injected
    indices, so every subtree owns one contiguous bit (hence word) range.
    Indices that appear only inside query entries (e.g. vectors lost to
    faults) are appended at the tail — they belong to no partner stream.
    """
    index_order: List[int] = []
    seen: set = set()
    side_ranges: Dict[Tuple[int, int], Tuple[int, int]] = {}
    entry_sets: set = set()
    for leaf in tree.leaves():
        fifos = leaf_inputs.get(leaf.pe_id, [[], []])
        for side, stream in enumerate(fifos):
            lo = len(index_order)
            for message in stream:
                for index in message.indices:
                    if index not in seen:
                        seen.add(index)
                        index_order.append(index)
                entry_sets.update(message.entries)
            side_ranges[(leaf.pe_id, side)] = (lo, len(index_order))
    tail = set().union(*entry_sets) - seen if entry_sets else set()
    index_order.extend(sorted(tail))
    return index_order, side_ranges


def run_tree_soa(
    tree: FafnirTree,
    config: FafnirConfig,
    operator: ReductionOperator,
    tracer: Tracer,
    check_values: bool,
    leaf_inputs: Dict[int, List[List[Message]]],
) -> Tuple[List[Message], Dict[int, PEWork]]:
    """Level-synchronous SoA replacement for ``FafnirEngine._run_tree``.

    Takes the same per-leaf FIFO contents and returns the same
    ``(root outputs, per-PE work)`` pair — byte-identical messages, work
    counters, and trace events.  Between the leaf fold and the root
    materialization no ``Message``/``Header`` objects exist.
    """
    index_order, side_ranges = _build_index_order(tree, leaf_inputs)
    pool = _SetPool(index_order)
    elements = config.vector_elements

    per_pe_work: Dict[int, PEWork] = {}
    streams: Dict[int, _Stream] = {}
    for level in range(tree.num_levels):
        for pe_id in tree.level_ids(level):
            node = tree.pe(pe_id)
            if node.is_leaf:
                # The FIFO fold is inherently sequential (greedy closure
                # in arrival order), so it stays a Python loop — but in
                # the pool domain: buffered sets carry big-int masks and
                # the folded rows intern directly into columnar streams.
                fold_work = PEWork()
                raw_a, raw_b = leaf_inputs[pe_id]
                lo_a, hi_a = side_ranges[(pe_id, 0)]
                lo_b, hi_b = side_ranges[(pe_id, 1)]
                input_a = _fold_leaf_stream(
                    pool,
                    raw_a,
                    config,
                    operator,
                    tracer,
                    pe_id,
                    node.level,
                    fold_work,
                    lo_a,
                    hi_a,
                    elements,
                )
                input_b = _fold_leaf_stream(
                    pool,
                    raw_b,
                    config,
                    operator,
                    tracer,
                    pe_id,
                    node.level,
                    fold_work,
                    lo_b,
                    hi_b,
                    elements,
                )
            else:
                fold_work = PEWork()
                left, right = node.children  # type: ignore[misc]
                input_a = streams.pop(left)
                input_b = streams.pop(right)
            stream, work = _process_pe(
                pool,
                input_a,
                input_b,
                config,
                operator,
                tracer,
                check_values,
                pe_id,
                node.level,
                f"PE{pe_id}",
            )
            streams[pe_id] = stream
            per_pe_work[pe_id] = work.merged_with(fold_work)

    root = streams[tree.root_id]
    outputs: List[Message] = []
    ready_l = root.ready.tolist()
    hops_l = root.hops.tolist()
    ind_l = root.indices_id.tolist()
    for position in range(len(root)):
        header = Header(
            indices=pool.frozen(ind_l[position]),
            entries=tuple(
                pool.frozen(e) for e in root.entry_tuples[position]
            ),
        )
        outputs.append(
            Message(
                header=header,
                value=root.values[position],
                ready_cycle=ready_l[position],
                hops=hops_l[position],
            )
        )
    return outputs, per_pe_work

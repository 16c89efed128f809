"""Round-based peeler against a per-symbol reference peeler.

The reference is the ripple algorithm the round decoder replaced: one
pending record per symbol with the set of its uncovered neighbors, an
adjacency list per index, and a FIFO ripple. Both decoders see the same
symbol stream, split into batches at random points, with natives arriving
before, between and after the batches; after every ``run()`` they must
agree on everything a caller can observe.
"""

import tracemalloc
from collections import deque

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from lrfcodes import codec, gf2
from lrfcodes.codec import (PeelDecoder, RepairBatch, SourceBlock, derive_seeds,
                            encode_stream, neighbor_sets)
from lrfcodes.distributions import robust_soliton


class ReferencePeeler:
    """Per-symbol ripple peeler: XORs each covered index into every pending
    symbol that lists it as soon as the index is covered."""

    def __init__(self, w, l):
        self.payloads = np.zeros((w, l), dtype=np.uint8)
        self.covered = np.zeros(w, dtype=bool)
        self.adj, self.ripple, self.encoding_used = {}, deque(), 0

    def _discharge(self, idx):
        for pending in self.adj.pop(idx, ()):
            data, remaining = pending
            if idx in remaining:
                remaining.discard(idx)
                data ^= self.payloads[idx]
                if len(remaining) == 1:
                    self.ripple.append(pending)

    def add_native(self, idx, payload):
        self.covered[idx] = True
        self.payloads[idx] = payload
        self._discharge(idx)

    def add_symbol(self, neighbors, payload):
        data, remaining = payload.copy(), set()
        for j in neighbors:
            if self.covered[j]:
                data ^= self.payloads[j]
            else:
                remaining.add(j)
        if len(remaining) == 1:
            self.ripple.append((data, remaining))
        for j in remaining if len(remaining) > 1 else ():
            self.adj.setdefault(j, []).append((data, remaining))

    def add_batch(self, batch):
        """``add_symbol`` of each row of a resolved batch, in order."""
        for i in range(len(batch)):
            self.add_symbol(batch.indices[batch.indptr[i]:batch.indptr[i + 1]].tolist(),
                            batch.payloads[i])

    def run(self):
        while self.ripple:
            data, remaining = pending = self.ripple.popleft()
            if len(remaining) != 1 or self.covered[next(iter(remaining))]:
                continue
            (idx,) = remaining
            self.covered[idx] = True
            self.payloads[idx] = data
            self.encoding_used += 1
            self._discharge(idx)

    def pending_rows(self):
        live = {id(p): p for lst in self.adj.values() for p in lst if p[1]}
        return {(tuple(sorted(r)), data.tobytes()) for data, r in live.values()}


def _equations(decoder):
    indptr, indices, rhs = decoder.pending_rows()
    assert rhs.shape == (indptr.size - 1, decoder.l)
    bounds = indptr.tolist()
    return {(tuple(indices[lo:hi].tolist()), rhs[r].tobytes())
            for r, (lo, hi) in enumerate(zip(bounds, bounds[1:]))}


@st.composite
def scenarios(draw):
    w = draw(st.integers(1, 24))
    n = draw(st.integers(0, 2 * w + 2))
    degrees = draw(st.lists(st.integers(1, w), min_size=n, max_size=n))
    cuts = sorted(draw(st.lists(st.integers(0, n), max_size=4)))
    natives = draw(st.permutations(range(w)))[:draw(st.integers(0, w))]
    # Natives arrive in slot k: before batch k, or after the last batch.
    slots = draw(st.lists(st.integers(0, len(cuts) + 1), min_size=len(natives),
                          max_size=len(natives)))
    return (w, draw(st.sampled_from([3, 8])), np.array(degrees, dtype=np.int64), cuts,
            list(zip(slots, natives)), draw(st.integers(0, 2**32)))


@settings(max_examples=200, deadline=None)
@given(scenarios())
def test_round_peeler_matches_the_reference(scenario):
    w, l, degrees, cuts, natives, seed = scenario
    block = SourceBlock.random(w, l, seed)
    seeds = derive_seeds(seed, np.arange(degrees.size))
    indptr, indices = neighbor_sets(seeds, w, degrees)
    payloads = np.zeros((degrees.size, l), dtype=np.uint8)
    for r in range(degrees.size):
        payloads[r] = np.bitwise_xor.reduce(block.data[indices[indptr[r]:indptr[r + 1]]], axis=0)
    stream = RepairBatch(np.arange(degrees.size), seeds, degrees, indptr, indices, payloads)
    batches = [stream.select(slice(lo, hi)) for lo, hi in zip([0, *cuts], [*cuts, degrees.size])]

    decoder, reference = PeelDecoder(w, l), ReferencePeeler(w, l)

    def check():
        decoder.run()
        reference.run()
        np.testing.assert_array_equal(decoder.covered, reference.covered)
        np.testing.assert_array_equal(decoder.payloads, reference.payloads)
        np.testing.assert_array_equal(decoder.payloads[decoder.covered],
                                      block.data[decoder.covered])
        assert decoder.encoding_used == reference.encoding_used
        assert _equations(decoder) == reference.pending_rows()

    garbage = np.random.default_rng(seed).integers(0, 256, size=(w, l), dtype=np.uint8)
    for k in range(len(batches) + 1):
        # One call over the whole block per slot; the rows outside ``got``
        # are garbage, which must not reach the columns held (peeled ones
        # included) or the uncovered ones.
        got = np.zeros(w, dtype=bool)
        for slot, idx in natives:
            # A native whose column was peeled meanwhile is a duplicate.
            if slot == k and not decoder.covered[idx]:
                got[idx] = True
                reference.add_native(idx, block.data[idx])
        decoder.add_natives(np.where(got[:, None], block.data, garbage), got)
        check()
        if k < len(batches):
            decoder.add_batch(batches[k])
            reference.add_batch(batches[k])
            check()


def test_wide_rounds_match_the_reference():
    # A robust-soliton stream peels in rounds of up to hundreds of rows, which
    # the drawn scenarios above rarely reach.
    w, l = 600, 8
    block = SourceBlock.random(w, l, 2)
    batch = encode_stream(block, robust_soliton(w, 0.05, 0.03), 4, w + w // 4)
    decoder, reference = PeelDecoder(w, l), ReferencePeeler(w, l)
    decoder.add_batch(batch)
    reference.add_batch(batch)
    decoder.run()
    reference.run()
    assert decoder.encoding_used == reference.encoding_used > w // 2
    np.testing.assert_array_equal(decoder.covered, reference.covered)
    np.testing.assert_array_equal(decoder.payloads, reference.payloads)
    assert _equations(decoder) == reference.pending_rows()


def test_add_batch_defers_every_payload_xor(monkeypatch):
    # Most natives are covered before the batch arrives, yet ``add_batch``
    # XORs no payload: a row is reduced only when it is released or read as
    # a pending equation, and both still match the reference.
    w, l = 300, 8
    block = SourceBlock.random(w, l, 11)
    got = np.random.default_rng(11).random(w) < 0.8
    batch = encode_stream(block, robust_soliton(w, 0.05, 0.03), 6, w // 6)
    decoder, reference = PeelDecoder(w, l), ReferencePeeler(w, l)
    decoder.add_natives(block.data, got)
    for idx in got.nonzero()[0].tolist():
        reference.add_native(idx, block.data[idx])

    def no_xor(*args, **kwargs):
        raise AssertionError("add_batch XORed payloads")

    with monkeypatch.context() as patched:
        patched.setattr(codec, "xor_rows", no_xor)
        decoder.add_batch(batch)
    reference.add_batch(batch)
    decoder.run()
    reference.run()
    assert decoder.encoding_used == reference.encoding_used > 0 and decoder.live_rows > 0
    np.testing.assert_array_equal(decoder.covered, reference.covered)
    np.testing.assert_array_equal(decoder.payloads, reference.payloads)
    assert _equations(decoder) == reference.pending_rows()


def _nack_rounds(seed, batches):
    """A window of w = 300 whose natives arrive 70 % whole, then NACK-sized
    batches, each followed by ``run()`` on both decoders and no read: the
    state of a window between feedback rounds. Returns the block, the
    decoder and the reference, and the rest of the stream."""
    w, l = 300, 8
    block = SourceBlock.random(w, l, seed)
    got = np.random.default_rng(seed).random(w) < 0.7
    stream = encode_stream(block, robust_soliton(w, 0.05, 0.03), seed, 6 * w // 8)
    decoder, reference = PeelDecoder(w, l), ReferencePeeler(w, l)
    decoder.add_natives(block.data, got)
    for idx in got.nonzero()[0].tolist():
        reference.add_native(idx, block.data[idx])
    parts = np.array_split(np.arange(len(stream)), 6)
    for part in parts[:batches]:
        _feed(decoder, reference, stream.select(part))
    return block, decoder, reference, [stream.select(part) for part in parts[batches:]]


def _feed(decoder, reference, batch):
    decoder.add_batch(batch)
    reference.add_batch(batch)
    decoder.run()
    reference.run()


def _no_xor(monkeypatch):
    """Make every payload XOR path of ``codec`` raise."""
    def no_xor(*args, **kwargs):
        raise AssertionError("payloads XORed")

    for name in ("xor_rows", "take_rows", "words"):
        monkeypatch.setattr(codec, name, no_xor)


def test_a_payloads_read_between_batches_matches_the_reference():
    # Several stalled runs leave their releases unwritten; a read between
    # batches writes them all, and the runs after it build on them.
    block, decoder, reference, rest = _nack_rounds(13, 3)
    assert len(decoder._levels) > 1
    np.testing.assert_array_equal(decoder.payloads, reference.payloads)
    for batch in rest:
        _feed(decoder, reference, batch)
    assert len(decoder._levels) > 1
    np.testing.assert_array_equal(decoder.covered, reference.covered)
    np.testing.assert_array_equal(decoder.payloads, reference.payloads)
    np.testing.assert_array_equal(decoder.payloads[decoder.covered], block.data[decoder.covered])
    assert decoder.encoding_used == reference.encoding_used


def test_natives_after_stalled_runs_match_the_reference():
    # Natives that arrive after repair, as a NACKed window's would, land on
    # a decoder whose releases are not yet written; the run they start
    # releases more, and the whole window still decodes as the reference.
    block, decoder, reference, _ = _nack_rounds(14, 4)
    assert decoder._levels and not decoder.success
    got = ~decoder.covered & (np.arange(decoder.w) % 3 == 0)
    decoder.add_natives(block.data, got)
    for idx in got.nonzero()[0].tolist():
        reference.add_native(idx, block.data[idx])
    decoder.run()
    reference.run()
    np.testing.assert_array_equal(decoder.covered, reference.covered)
    np.testing.assert_array_equal(decoder.payloads, reference.payloads)
    assert decoder.encoding_used == reference.encoding_used
    decoder.add_natives(block.data, ~decoder.covered)
    decoder.run()
    assert decoder.success
    np.testing.assert_array_equal(decoder.payloads, block.data)


def test_pending_rows_after_stalled_runs_match_the_reference():
    _, decoder, reference, _ = _nack_rounds(15, 4)
    assert decoder._levels and decoder.live_rows
    assert _equations(decoder) == reference.pending_rows()
    np.testing.assert_array_equal(decoder.payloads, reference.payloads)


def test_covered_map_after_stalled_runs_matches_the_reference():
    _, decoder, reference, _ = _nack_rounds(16, 4)
    assert decoder._levels
    assert decoder.covered_map() == {i: reference.payloads[i].tobytes()
                                     for i in reference.covered.nonzero()[0].tolist()}


def test_run_settles_releases_without_payload_work(monkeypatch):
    # ``run`` covers columns on counts and index sums alone: no payload
    # XOR, and the payload matrix is left as it was until a read.
    _, decoder, reference, rest = _nack_rounds(17, 0)
    before = decoder._payloads.copy()
    with monkeypatch.context() as patched:
        _no_xor(patched)
        for batch in rest[:4]:
            _feed(decoder, reference, batch)
    assert decoder.encoding_used == reference.encoding_used > 0
    np.testing.assert_array_equal(decoder._payloads, before)
    np.testing.assert_array_equal(decoder.covered, reference.covered)
    np.testing.assert_array_equal(decoder.payloads, reference.payloads)


def test_a_second_payloads_read_does_no_xor(monkeypatch):
    _, decoder, reference, _ = _nack_rounds(18, 4)
    first = decoder.payloads.copy()
    with monkeypatch.context() as patched:
        _no_xor(patched)
        np.testing.assert_array_equal(decoder.payloads, first)
        decoder.run()  # nothing left to release
        np.testing.assert_array_equal(decoder.payloads, first)
    np.testing.assert_array_equal(first, reference.payloads)


def test_a_row_longer_than_one_gather_releases_in_slices():
    # Row 0 lists all w symbols, none covered on arrival. Natives then cover
    # all but symbols 0 and w - 1, row 1 releases w - 1, and row 0 is
    # released alone from a list longer than one gather may hold.
    w, l = 5000, 64
    assert w * l > gf2._GATHER_BYTES
    block = SourceBlock.random(w, l, 5)
    indptr = np.array([0, w, w + 1])
    payloads = np.vstack((np.bitwise_xor.reduce(block.data, axis=0), block.data[w - 1]))
    decoder = PeelDecoder(w, l)
    decoder.add_batch(RepairBatch(np.arange(2), np.zeros(2, dtype=np.uint64), np.diff(indptr),
                                  indptr, np.append(np.arange(w), w - 1), payloads))
    for i in range(1, w - 1):
        decoder.add_native(i, block.data[i])
    decoder.run()
    assert decoder.success and decoder.encoding_used == 2
    np.testing.assert_array_equal(decoder.payloads, block.data)


def test_a_column_growing_past_its_span_matches_the_reference():
    # Every row lists column 0, each of the first four batches four times
    # as many as the one before, so column 0 outgrows whatever room the
    # column index gave it and moves to a larger span. Each row also lists one
    # column of ``late``, whose natives come after the batches, so nothing
    # peels until then; the last batch lists column 1 in every row, which
    # then outgrows its span alone and moves. Natives of the other columns
    # arrive between the batches.
    w, l = 40, 8
    block = SourceBlock.random(w, l, 7)
    rng = np.random.default_rng(7)
    late, early = np.arange(1, 11), np.arange(11, w)
    decoder, reference = PeelDecoder(w, l), ReferencePeeler(w, l)

    def check():
        decoder.run()
        reference.run()
        np.testing.assert_array_equal(decoder.covered, reference.covered)
        np.testing.assert_array_equal(decoder.payloads, reference.payloads)
        assert decoder.encoding_used == reference.encoding_used
        assert _equations(decoder) == reference.pending_rows()

    def natives(cols):
        for idx in cols.tolist():
            if not decoder.covered[idx]:
                decoder.add_native(idx, block.data[idx])
                reference.add_native(idx, block.data[idx])
        check()

    for k, (n, focus) in enumerate(((3, late), (12, late), (48, late), (192, late),
                                    (40, late[:1]))):
        sets = [np.unique([0, rng.choice(focus), *rng.choice(early, rng.integers(0, 3))])
                for _ in range(n)]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum([s.size for s in sets], out=indptr[1:])
        payloads = np.array([np.bitwise_xor.reduce(block.data[s], axis=0) for s in sets])
        decoder.add_batch(RepairBatch(np.arange(n), np.zeros(n, dtype=np.uint64),
                                      np.diff(indptr), indptr, np.concatenate(sets), payloads))
        for s, payload in zip(sets, payloads):
            reference.add_symbol(s.tolist(), payload)
        check()
        natives(early[k::4])
    assert not decoder.covered[0] and decoder.live_rows == 3 + 12 + 48 + 192 + 40
    natives(late)
    assert decoder.success
    np.testing.assert_array_equal(decoder.payloads, block.data)


def test_many_nack_batches_grow_the_index_and_match_the_reference():
    # One decoder takes 60 NACK-sized batches of 8 rows over w = 64. Six
    # rows of each list two of the 16 ``late`` columns, whose natives come
    # last, so those columns take entries from batch after batch: their
    # spans move again and again and the slot array grows several times.
    # The other two rows list early columns only; they peel as the early
    # natives arrive, one after each of the first 48 batches.
    w, l, rows = 64, 8, 8
    block = SourceBlock.random(w, l, 9)
    rng = np.random.default_rng(9)
    late, early = np.arange(16), np.arange(16, w)
    batches = []
    for k in range(60):
        sets = [np.unique([*rng.choice(late, 2, replace=False),
                           *rng.choice(early, rng.integers(0, 3))]) for _ in range(rows - 2)]
        sets += [np.unique(rng.choice(early, rng.integers(1, 3))) for _ in range(2)]
        indptr = np.zeros(rows + 1, dtype=np.int64)
        np.cumsum([s.size for s in sets], out=indptr[1:])
        payloads = np.array([np.bitwise_xor.reduce(block.data[s], axis=0) for s in sets])
        batches.append(RepairBatch(np.arange(k * rows, (k + 1) * rows),
                                   np.zeros(rows, dtype=np.uint64), np.diff(indptr), indptr,
                                   np.concatenate(sets), payloads))
    carried = sum(a.nbytes for b in batches for a in (b.ids, b.seeds, b.degrees, b.indptr,
                                                      b.indices, b.payloads))

    def due(decoder, k):
        """The natives due after batch k that ``decoder`` does not hold."""
        got = np.zeros(w, dtype=bool)
        got[early[k:k + 1]] = True
        return got & ~decoder.covered

    decoder, reference = PeelDecoder(w, l), ReferencePeeler(w, l)

    def check():
        decoder.run()
        reference.run()
        np.testing.assert_array_equal(decoder.covered, reference.covered)
        np.testing.assert_array_equal(decoder.payloads, reference.payloads)
        assert decoder.encoding_used == reference.encoding_used
        assert _equations(decoder) == reference.pending_rows()

    sizes = set()
    for k, batch in enumerate(batches):
        decoder.add_batch(batch)
        reference.add_batch(batch)
        check()
        sizes.add(decoder._col_rows.size)
        got = due(decoder, k)
        decoder.add_natives(block.data, got)
        for idx in got.nonzero()[0].tolist():
            reference.add_native(idx, block.data[idx])
        check()
    assert len(sizes) >= 4 and not decoder.covered[late].any(), sizes
    assert decoder.encoding_used > 0 and decoder.live_rows >= 6 * len(batches)

    # The same stream again, alone under tracemalloc.
    replay = PeelDecoder(w, l)
    tracemalloc.start()
    try:
        for k, batch in enumerate(batches):
            replay.add_batch(batch)
            replay.run()
            replay.add_natives(block.data, due(replay, k))
            replay.run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    np.testing.assert_array_equal(replay.payloads, decoder.payloads)
    assert peak < 4 * carried, (peak, carried)

    got = np.zeros(w, dtype=bool)
    got[late] = True
    decoder.add_natives(block.data, got)
    decoder.run()
    assert decoder.success
    np.testing.assert_array_equal(decoder.payloads, block.data)


def test_column_index_memory_follows_entries_not_the_largest_column():
    # 10,000 rows each list column 0 and one other column. An index that
    # padded every column to the largest one would hold w * 10,000 slots;
    # this one stays within a small multiple of the batch's own bytes.
    w, l = 10_000, 8
    block = SourceBlock.random(w, l, 3)
    other = np.random.default_rng(3).integers(1, w, w)
    indices = np.stack((np.zeros(w, dtype=np.int64), other), axis=1).ravel()
    batch = RepairBatch(np.arange(w, dtype=np.uint64), np.zeros(w, dtype=np.uint64),
                        np.full(w, 2), np.arange(0, 2 * w + 1, 2), indices,
                        block.data[0] ^ block.data[other])
    own = sum(a.nbytes for a in (batch.ids, batch.seeds, batch.degrees, batch.indptr,
                                 batch.indices, batch.payloads))
    decoder = PeelDecoder(w, l)
    tracemalloc.start()
    try:
        decoder.add_batch(batch)
        decoder.add_native(0, block.data[0])
        decoder.run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    covered = np.zeros(w, dtype=bool)
    covered[0] = covered[other] = True
    np.testing.assert_array_equal(decoder.covered, covered)
    np.testing.assert_array_equal(decoder.payloads[covered], block.data[covered])
    assert peak < 8 * own, (peak, own)

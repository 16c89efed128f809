"""Encoder/decoder unit tests.

The decoder is checked against an independent GF(2) Gaussian-elimination
oracle implemented here with plain integer bitmasks, sharing no code with
the library's solver.
"""

import random
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrfcodes.codec import (WIRE_HEADER, PeelDecoder, RepairBatch, SourceBlock, derive_degree,
                            derive_degrees, derive_seed, derive_seeds, encode_stream,
                            neighbor_sets, pack_batch, select_neighbors, unpack_batch)
from lrfcodes.distributions import DegreeDistribution, LossContext, ideal_soliton, lrf_ideal
from lrfcodes.errors import InvalidInputError, InvalidParameterError


# ---------------------------------------------------------------------------
# Independent oracle: Gaussian elimination over GF(2) with bitmask rows.


def gf2_oracle_solve(w, equations):
    """Solve x_j (bytes) from equations (index_set, payload_bytes).

    Each equation asserts XOR of the indexed unknowns equals the payload.
    Returns a list of w byte strings if the system determines every unknown,
    else None. Pure-Python elimination, independent of the library.
    """
    rows = []
    for idxs, payload in equations:
        mask = 0
        for j in idxs:
            mask ^= 1 << j
        rows.append([mask, int.from_bytes(payload, "little")])
    # Forward elimination.
    pivots = {}
    for row in rows:
        while row[0]:
            lead = row[0].bit_length() - 1
            if lead in pivots:
                prow = pivots[lead]
                row[0] ^= prow[0]
                row[1] ^= prow[1]
            else:
                pivots[lead] = row
                break
    if len(pivots) < w:
        return None
    # Back substitution: each pivot row retains only lower-indexed bits, so
    # solve in ascending pivot order.
    values = {}
    for lead in sorted(pivots):
        mask, rhs = pivots[lead]
        mask ^= 1 << lead
        while mask:
            j = mask.bit_length() - 1
            rhs ^= values[j]
            mask ^= 1 << j
        values[lead] = rhs
    l = len(equations[0][1]) if equations else 0
    return [values[j].to_bytes(l, "little") for j in range(w)]


def _rows(data):
    """A payload matrix's rows as a list of bytes, as the oracle returns them."""
    return [row.tobytes() for row in data]


def peeled(natives, encoding, w, l):
    """A ``PeelDecoder`` over w symbols of l bytes given ``natives`` (index ->
    payload) and then the ``RepairBatch`` of encoding symbols, run to
    fixpoint."""
    decoder = PeelDecoder(w, l)
    for idx, payload in natives.items():
        decoder.add_native(idx, payload)
    decoder.add_batch(encoding)
    decoder.run()
    return decoder


def batch_of(sets, data, seeds=None):
    """A resolved ``RepairBatch`` of hand-written rows: row i lists the
    neighbors ``sets[i]`` and its payload is the XOR of those rows of the
    (w, l) matrix ``data`` (indices taken mod w, so that a malformed list
    has a payload too). Ids count from 0, each degree is its list's length
    and the seeds are ``seeds`` (zero by default)."""
    n = len(sets)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum([len(s) for s in sets], out=indptr[1:])
    indices = np.concatenate([np.asarray(s, dtype=np.int64) for s in sets] + [indptr[:0]])
    payloads = np.array([np.bitwise_xor.reduce(data[np.asarray(s) % len(data)], axis=0)
                         for s in sets], dtype=np.uint8).reshape(n, data.shape[1])
    return RepairBatch(np.arange(n, dtype=np.uint64),
                       np.zeros(n, dtype=np.uint64) if seeds is None else seeds,
                       np.diff(indptr), indptr, indices, payloads)


def assert_same_columns(a, b):
    """Two batches hold equal ids, seeds, degrees, CSR neighbors and payloads."""
    for field in fields(RepairBatch):
        np.testing.assert_array_equal(getattr(a, field.name), getattr(b, field.name),
                                      err_msg=field.name)


def encode_one(blk, dist, seed, symbol_id=0):
    """The batch of one encoding symbol of ``blk`` at an explicit seed:
    degree and neighbors derived as a batch of one, the payload their rows'
    XOR."""
    seeds = np.array([seed], dtype=np.uint64)
    degrees = derive_degrees(seeds, dist)
    indptr, neighbors = neighbor_sets(seeds, blk.w, degrees)
    return RepairBatch(np.array([symbol_id], dtype=np.uint64), seeds, degrees, indptr, neighbors,
                       np.bitwise_xor.reduce(blk.data[neighbors], axis=0)[None])


# ---------------------------------------------------------------------------
# Primitives


def test_derive_seed_matches_splitmix64_reference():
    # splitmix64 state 0: first three outputs (public reference vectors).
    assert derive_seed(0, 0) == 0xE220A8397B1DCDAF
    assert derive_seed(0, 1) == 0x6E789E6AA1B965F4
    assert derive_seed(0, 2) == 0x06C45D188009454F


def test_select_neighbors_properties():
    nb = select_neighbors(1234, 50, 7)
    assert len(nb) == 7
    assert len(set(nb.tolist())) == 7
    assert list(nb) == sorted(nb)
    assert nb.min() >= 0 and nb.max() < 50
    # Deterministic in the seed.
    np.testing.assert_array_equal(nb, select_neighbors(1234, 50, 7))
    # Full-degree symbol covers everything.
    np.testing.assert_array_equal(select_neighbors(1, 5, 5), np.arange(5))


def test_select_neighbors_bad_degree():
    with pytest.raises(InvalidParameterError):
        select_neighbors(1, 10, 0)
    with pytest.raises(InvalidParameterError):
        select_neighbors(1, 10, 11)


_BLOCK = SourceBlock.random(4, 2, seed=1)
_SEEDS = np.array([1], dtype=np.uint64)


@pytest.mark.parametrize("call, args", [
    (encode_stream, (_BLOCK, ideal_soliton(4), 1, 2.5)),
    (encode_stream, (_BLOCK, ideal_soliton(4), 1, True)),
    (encode_stream, (_BLOCK, ideal_soliton(4), 1, 2, -1)),
    (encode_stream, (_BLOCK, ideal_soliton(4), 1, 2, 2**64 - 1)),
    (encode_stream, (_BLOCK, ideal_soliton(4), 1.5, 4)),
    (encode_stream, (_BLOCK, ideal_soliton(4), True, 4)),
    (encode_stream, (_BLOCK, ideal_soliton(4), -1, 4)),
    (PeelDecoder, (2.5, 1)),
    (PeelDecoder, (4, True)),
    (neighbor_sets, (_SEEDS, 2.5, [1])),
], ids=["count-float", "count-bool", "start-id-negative", "ids-past-u64", "base-seed-float",
        "base-seed-bool", "base-seed-negative", "decoder-w-float", "decoder-l-bool",
        "neighbors-w-float"])
def test_codec_sizes_are_integers(call, args):
    # Each size is an integer (a bool is not) in its range: a float count
    # sent a rounded-up batch, True one symbol, a float base seed drew the
    # seeds of its floor, and the rest failed with a bare TypeError or
    # OverflowError (ids past 2**64 from np.arange).
    with pytest.raises(InvalidParameterError):
        call(*args)
    i = np.int64
    assert encode_stream(_BLOCK, ideal_soliton(4), 1, i(2), start_id=i(3)).ids.tolist() == [3, 4]
    assert encode_stream(_BLOCK, ideal_soliton(4), 1, 2, start_id=2**64 - 2).ids.tolist() == [
        2**64 - 2, 2**64 - 1]
    assert_same_columns(encode_stream(_BLOCK, ideal_soliton(4), np.uint64(2**64 - 1), 4),
                        encode_stream(_BLOCK, ideal_soliton(4), 2**64 - 1, 4))
    assert PeelDecoder(i(4), i(2)).w == 4
    assert neighbor_sets(_SEEDS, i(10), [1])[1].size == 1


def test_source_block_validation():
    with pytest.raises(InvalidParameterError):
        SourceBlock(np.zeros((0, 2), dtype=np.uint8))
    with pytest.raises(InvalidParameterError):
        SourceBlock(np.zeros(4, dtype=np.uint8))
    blk = SourceBlock(np.frombuffer(b"abcd", dtype=np.uint8).reshape(2, 2))
    assert blk.w == 2 and blk.l == 2


def test_encode_symbol_is_xor_of_neighbors():
    blk = SourceBlock.random(16, 8, seed=5)
    dist = ideal_soliton(16)
    sym = encode_stream(blk, dist, base_seed=42, count=1)
    acc = np.bitwise_xor.reduce(blk.data[sym.indices], axis=0)
    assert sym.payloads[0].tobytes() == acc.tobytes()
    assert sym.degrees[0] == len(sym.indices)
    # The degree matches the decoder-side derivation from the seed.
    assert sym.degrees[0] == derive_degree(derive_seed(42, 0), dist)


def test_encode_stream_ids_and_determinism():
    blk = SourceBlock.random(16, 8, seed=5)
    dist = ideal_soliton(16)
    syms = encode_stream(blk, dist, base_seed=9, count=10)
    assert syms.ids.tolist() == list(range(10))
    again = encode_stream(blk, dist, base_seed=9, count=10)
    np.testing.assert_array_equal(syms.payloads, again.payloads)
    # start_id continues the same seed sequence.
    tail = encode_stream(blk, dist, base_seed=9, count=4, start_id=6)
    np.testing.assert_array_equal(tail.payloads, syms.payloads[6:])


# ---------------------------------------------------------------------------
# Wire format


def test_wire_format_roundtrip():
    blk = SourceBlock.random(8, 4, seed=1)
    sym = encode_one(blk, ideal_soliton(8), seed=77, symbol_id=3)
    buf = pack_batch(sym)
    parsed = unpack_batch(buf)
    assert len(buf) == WIRE_HEADER.size + 20 + 4
    assert parsed.indptr is None and parsed.indices is None
    assert_same_columns(parsed.resolved(8), sym)
    # Several rows, drawn (degree 3), complemented (12, above w/2) and whole
    # (16), come back as the same columns once resolved.
    w = 16
    blk = SourceBlock.random(w, 5, seed=2)
    dist = DegreeDistribution(w, np.array([3, 12, 16]), np.array([0.4, 0.4, 0.2]))
    batch = encode_stream(blk, dist, 2**64 - 1, 40, start_id=2**40)
    assert set(batch.degrees.tolist()) == {3, 12, 16}
    buf = pack_batch(batch)
    parsed = unpack_batch(buf)
    assert len(buf) == WIRE_HEADER.size + 40 * (20 + 5)
    assert_same_columns(parsed.resolved(w), batch)


def test_unpack_truncated():
    blk = SourceBlock.random(8, 4, seed=1)
    buf = pack_batch(encode_stream(blk, ideal_soliton(8), 77, 3))
    # Every proper prefix of a 3-row frame is cut short.
    for end in range(len(buf)):
        with pytest.raises(InvalidInputError, match="truncated"):
            unpack_batch(buf[:end])
    # A header claiming far more rows or bytes than the buffer holds is
    # rejected before any array is built (building it would not fit).
    for n, l in ((2**32 - 1, 4), (3, 2**32 - 1), (2**32 - 1, 2**32 - 1)):
        with pytest.raises(InvalidInputError, match="truncated"):
            unpack_batch(WIRE_HEADER.pack(1, n, l) + buf[WIRE_HEADER.size:])


def test_unpack_refuses_bytes_past_the_frame():
    # A buffer holds one frame: a trailing byte, or a second frame, is
    # refused rather than ignored.
    blk = SourceBlock.random(8, 4, seed=1)
    buf = pack_batch(encode_stream(blk, ideal_soliton(8), 77, 3))
    for tail in (b"\0", buf):
        with pytest.raises(InvalidInputError, match="past the frame"):
            unpack_batch(buf + tail)
    empty = pack_batch(encode_stream(blk, ideal_soliton(8), 77, 0))
    assert len(unpack_batch(empty)) == 0
    with pytest.raises(InvalidInputError, match="past the frame"):
        unpack_batch(empty + b"\0")


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_a_damaged_frame_is_taken_or_rejected(data):
    # Bit flips, truncation or trailing bytes on a packed frame of 0 to 8
    # rows: from the wire to the decoder, each row is either taken (released,
    # held as a live row, or left with no unknown by another release) or
    # flagged malformed, or the path raises InvalidInputError. An undamaged
    # frame gives back the batch packed.
    w, l = data.draw(st.integers(1, 64)), data.draw(st.integers(1, 16))
    blk = SourceBlock.random(w, l, seed=w * l)
    sent = encode_stream(blk, ideal_soliton(w), data.draw(st.integers(0, 2**64 - 1)),
                         data.draw(st.integers(0, 8)))
    frame = bytearray(pack_batch(sent))
    for bit in data.draw(st.lists(st.integers(0, 8 * len(frame) - 1), max_size=3)):
        frame[bit // 8] ^= 1 << bit % 8
    frame = frame[:data.draw(st.integers(0, len(frame)))] + data.draw(st.binary(max_size=8))
    dec = PeelDecoder(w, l)
    try:
        batch = unpack_batch(bytes(frame))
        taken = ~batch.malformed(w, l)
        dec.add_batch(batch.select(taken).resolved(w))
        dec.run()
    except InvalidInputError:
        return
    assert dec.encoding_used + dec.live_rows <= int(taken.sum()) == dec._count.size
    if bytes(frame) == pack_batch(sent):
        assert_same_columns(batch.resolved(w), sent)


# ---------------------------------------------------------------------------
# Peeling decoder


def test_peel_decode_pure_fountain_roundtrip():
    w, l = 64, 16
    blk = SourceBlock.random(w, l, seed=3)
    dist = ideal_soliton(w)
    # Stream symbols until the decoder reports success.
    decoder = PeelDecoder(w, l)
    count = 0
    while not decoder.success:
        sym = encode_one(blk, dist, derive_seed(11, count), count)
        decoder.add_batch(sym)
        decoder.run()
        count += 1
        assert count < 50 * w, "decoder made no progress"
    assert _rows(decoder.payloads) == _rows(blk.data)


def test_peel_decode_with_natives_and_losses():
    w, l = 100, 8
    blk = SourceBlock.random(w, l, seed=9)
    lost = {3, 17, 55, 71}
    ctx = LossContext(w, len(lost))
    dist = lrf_ideal(ctx)
    natives = {i: blk.data[i] for i in range(w) if i not in lost}
    encoding = encode_stream(blk, dist, base_seed=4, count=12)
    dec = peeled(natives, encoding, w, l)
    if dec.success:
        assert _rows(dec.payloads) == _rows(blk.data)
        assert dec.covered.all()


def test_peeling_fixpoint_independent_of_native_order():
    # Natives that arrive after the encoding symbols must discharge them just
    # as natives known up front do.
    w, l = 64, 8
    blk = SourceBlock.random(w, l, seed=3)
    lost = {2, 40}
    natives = {i: blk.data[i] for i in range(w) if i not in lost}
    encoding = encode_stream(blk, lrf_ideal(LossContext(w, len(lost))),
                             base_seed=3, count=6)
    natives_first = PeelDecoder(w, l)
    for idx, payload in natives.items():
        natives_first.add_native(idx, payload)
    natives_first.add_batch(encoding)
    natives_first.run()
    repairs_first = PeelDecoder(w, l)
    repairs_first.add_batch(encoding)
    for idx, payload in natives.items():
        repairs_first.add_native(idx, payload)
    repairs_first.run()
    assert natives_first.success and _rows(natives_first.payloads) == _rows(blk.data)
    assert repairs_first.success and _rows(repairs_first.payloads) == _rows(blk.data)
    assert repairs_first.encoding_used == natives_first.encoding_used


@pytest.mark.parametrize("payloads", [
    np.zeros((8, 5), dtype=np.uint8), np.zeros((7, 4), dtype=np.uint8),
    np.zeros((8, 4), dtype=np.int8), np.zeros((8, 8), dtype=np.uint8)[:, ::2],
    np.zeros((8, 4), dtype=np.uint8, order="F"), np.zeros((8, 4), dtype=np.uint8)[None],
    bytearray(32), "read-only"])
def test_decoder_rejects_a_payload_matrix_it_cannot_write_in_place(payloads):
    if isinstance(payloads, str):
        payloads = np.zeros((8, 4), dtype=np.uint8)
        payloads.setflags(write=False)
    with pytest.raises(InvalidParameterError):
        PeelDecoder(8, 4, payloads=payloads)


@pytest.mark.parametrize("l", [8, 5])
def test_decoder_decodes_into_a_given_matrix_as_into_its_own(l):
    # Decoding into a caller's zeroed matrix writes the natives there and
    # reads back exactly what a decoder with its own matrix reads.
    w = 64
    blk = SourceBlock.random(w, l, seed=l)
    got = ~np.isin(np.arange(w), [2, 17, 40])
    encoding = encode_stream(blk, lrf_ideal(LossContext(w, 3)), base_seed=l, count=8)
    given = np.zeros((w, l), dtype=np.uint8)
    decoders = PeelDecoder(w, l), PeelDecoder(w, l, payloads=given)
    for dec in decoders:
        dec.add_natives(blk.data, got)
        dec.add_batch(encoding)
        dec.run()
    own, into = (dec.payloads for dec in decoders)
    assert decoders[1].success and np.shares_memory(into, given)
    np.testing.assert_array_equal(into, own)
    np.testing.assert_array_equal(given, blk.data)


def test_decoder_duplicate_native_rejected():
    dec = PeelDecoder(4, 2)
    dec.add_native(0, b"ab")
    with pytest.raises(InvalidInputError):
        dec.add_native(0, b"ab")
    # So is an index that is not an integer in 0..w-1, covering nothing: a
    # float, a bool, None or a string used to escape as IndexError,
    # ValueError or TypeError. Numpy integers in range are taken.
    for idx in (1.5, True, np.True_, None, "1", -1, 4, np.int64(4)):
        with pytest.raises(InvalidInputError):
            dec.add_native(idx, b"ab")
    assert dec.covered.tolist() == [True, False, False, False]
    for good in (np.uint64(1), np.int32(2), np.uint8(3)):
        dec.add_native(good, bytes([good, good]))
    assert dec.success and dec.payloads[:, 0].tolist() == [97, 1, 2, 3]


def test_decoder_rejects_bad_payload_length():
    dec = PeelDecoder(4, 2)
    with pytest.raises(InvalidInputError):
        dec.add_native(1, b"abc")


@pytest.mark.parametrize("w, l, payload", [
    (4, 2, np.array([256, 2])),
    (4, 16, np.arange(16, dtype=np.int16)),
    (4, 2, np.array([[1, 2]], dtype=np.uint8)),
    (4, 2, [1, 2]),
    (4, 2, "ab"),
    (4, 2, memoryview(b"abcd")[::2]),
])
def test_decoder_rejects_a_native_that_is_not_l_bytes(w, l, payload):
    # A native is l bytes or a 1-D uint8 array of l; anything else is
    # rejected by add_native at any index, covering nothing. An l-long
    # array of wider integers must not be read as its raw bytes.
    dec = PeelDecoder(w, l)
    with pytest.raises(InvalidInputError):
        dec.add_native(1, payload)
    assert not dec.covered.any()
    with pytest.raises(InvalidInputError):
        PeelDecoder(w, l).add_native(0, payload)
    for good in (bytes(range(l)), bytearray(range(l)), np.arange(l, dtype=np.uint8)):
        dec.add_native(int(dec.covered.sum()), good)
        assert dec.payloads[dec.covered.sum() - 1].tobytes() == bytes(range(l))


def test_decoder_resolves_a_wire_batch():
    # A batch read off the wire decodes exactly like the resolved batch it
    # was packed from: add_batch derives its neighbor sets itself, after
    # the malformed check, which still rejects a degree outside 1..w.
    w, l = 8, 4
    blk = SourceBlock.random(w, l, seed=1)
    natives = {i: blk.data[i] for i in range(w) if i not in (2, 5)}
    batch = encode_stream(blk, ideal_soliton(w), 77, 6)
    wire = unpack_batch(pack_batch(batch))
    assert wire.indptr is None
    got, want = peeled(natives, wire, w, l), peeled(natives, batch, w, l)
    assert got.encoding_used == want.encoding_used > 0
    np.testing.assert_array_equal(got.covered, want.covered)
    np.testing.assert_array_equal(got.payloads, want.payloads)
    for a, b in zip(got.pending_rows(), want.pending_rows()):
        np.testing.assert_array_equal(a, b)
    with pytest.raises(InvalidInputError):
        PeelDecoder(w, l).add_batch(replace(wire, degrees=wire.degrees + w))


def test_redundant_symbols_are_ignored():
    # A symbol whose neighbors are all covered must not disturb anything.
    blk = SourceBlock.random(8, 4, seed=2)
    dec = PeelDecoder(8, 4)
    for i in range(8):
        dec.add_native(i, blk.data[i])
    sym = encode_one(blk, ideal_soliton(8), seed=5)
    dec.add_batch(sym)
    dec.run()
    assert dec.success and _rows(dec.payloads) == _rows(blk.data)


@pytest.mark.parametrize("neighbors", [[3, 3], [-1, 2], [2, 8], [5, 2]])
def test_malformed_neighbors_rejected(neighbors):
    # A repeated index used to decode index 3 as zero, a negative one
    # aliased another index, and one past the window escaped as IndexError.
    w, l = 8, 2
    blk = SourceBlock.random(w, l, seed=4)
    natives = {i: blk.data[i] for i in range(w) if i != 3}
    with pytest.raises(InvalidInputError):
        peeled(natives, batch_of([neighbors], blk.data), w, l)


@pytest.mark.parametrize("indptr,degrees,bad", [
    ([0, 0, 2], [2, 2], [True, False]),  # an empty row
    ([0, 0, 2], [0, 2], [True, False]),  # an empty row of degree 0
    ([0, 2, 4], [2, 3], [False, True]),  # fewer neighbors than the degree
    ([0, 3, 4], [2, 1], [True, False]),  # more
])
def test_neighbor_count_must_match_the_degree(indptr, degrees, bad):
    # Such a row used to be taken: an empty one stayed in the decoder as a
    # dead row with a count of 0.
    w, l = 8, 2
    batch = RepairBatch(np.arange(2, dtype=np.uint64), np.zeros(2, dtype=np.uint64),
                        np.array(degrees), np.array(indptr), np.array([1, 4, 5, 6][:indptr[-1]]),
                        np.zeros((2, l), dtype=np.uint8))
    assert batch.malformed(w, l).tolist() == bad
    with pytest.raises(InvalidInputError):
        PeelDecoder(w, l).add_batch(batch)


@pytest.mark.parametrize("field", ["id", "seed"])
@pytest.mark.parametrize("value", [-1, 1 << 64])
def test_symbol_id_or_seed_outside_u64_rejected(field, value):
    # The frame wraps no value: an id or seed outside u64, or a degree
    # outside u32, raises rather than travel as another number. The decoder
    # rejects both too: -1 as a value below 0, and a column of Python ints
    # (1 << 64 fits no integer dtype) as malformed.
    blk = SourceBlock.random(8, 2, seed=4)
    sym = encode_one(blk, ideal_soliton(8), seed=3)
    bad = replace(sym, **{f"{field}s": np.array([value])})
    with pytest.raises(InvalidInputError, match="u64"):
        pack_batch(bad)
    with pytest.raises(InvalidInputError):
        peeled({}, bad, 8, 2)
    for degree in (-1, 1 << 32):
        with pytest.raises(InvalidInputError, match="u32"):
            pack_batch(replace(sym, degrees=np.array([degree])))


def test_pending_rows_are_consistent_equations():
    # Rows reported for undischarged symbols must XOR to the true values,
    # and reading them changes nothing: a second read returns the same
    # arrays, and once all natives but one of the rows' unknowns arrive,
    # the release of that one recovers the block (no covered neighbor is
    # XORed out twice). The symbols go in before the natives, so the rows
    # still list covered neighbors.
    w, l = 30, 4
    blk = SourceBlock.random(w, l, seed=8)
    lost = set(range(0, 30, 3))
    dec = PeelDecoder(w, l)
    dist = lrf_ideal(LossContext(w, len(lost)))
    dec.add_batch(encode_stream(blk, dist, base_seed=2, count=4))
    for i in range(w):
        if i not in lost:
            dec.add_native(i, blk.data[i])
    dec.run()
    ints = [int.from_bytes(row.tobytes(), "little") for row in blk.data]
    indptr, indices, rhs = dec.pending_rows()
    assert rhs.shape == (indptr.size - 1, l)
    for r in range(indptr.size - 1):
        acc = 0
        for j in indices[indptr[r]:indptr[r + 1]].tolist():
            assert not dec._covered[j]
            acc ^= ints[j]
        assert acc == int.from_bytes(rhs[r].tobytes(), "little")
    for got, want in zip(dec.pending_rows(), (indptr, indices, rhs)):
        np.testing.assert_array_equal(got, want)
    assert indices.size
    held_back = int(indices[0])
    for i in sorted(lost - {held_back}):
        if not dec._covered[i]:
            dec.add_native(i, blk.data[i])
    dec.run()
    assert dec.success
    np.testing.assert_array_equal(dec.payloads, blk.data)


# ---------------------------------------------------------------------------
# Randomized comparison against the oracle


def test_peel_decode_agrees_with_oracle_small():
    rng = random.Random(2024)
    agree_success = 0
    for trial in range(500):
        w = rng.randint(1, 12)
        l = 4
        blk = SourceBlock.random(w, l, seed=trial)
        lost = {i for i in range(w) if rng.random() < 0.4}
        natives = {i: blk.data[i] for i in range(w) if i not in lost}
        count = rng.randint(0, 2 * max(1, len(lost)))
        equations = [([i], natives[i].tobytes()) for i in natives]
        sets, seeds = [], derive_seeds(trial, np.arange(count))
        for t in range(count):
            degree = rng.randint(1, w)
            nb = select_neighbors(derive_seed(trial, t), w, degree)
            sets.append(nb)
            equations.append((nb.tolist(), np.bitwise_xor.reduce(blk.data[nb], axis=0).tobytes()))

        dec = peeled(natives, batch_of(sets, blk.data, seeds), w, l)
        oracle = gf2_oracle_solve(w, equations) if equations else None
        if dec.success:
            # Peeling success implies the linear system is solvable and the
            # payloads agree.
            assert oracle is not None
            assert _rows(dec.payloads) == oracle == _rows(blk.data)
            agree_success += 1
    assert agree_success > 50  # the comparison actually exercised successes

"""XOR fountain encoder and round-based peeling decoder.

An encoding symbol is the XOR of a degree-d subset of a window's input
symbols. Degree and neighbor set are both derived deterministically from the
symbol's seed, so only (id, seed, degree) need to travel on the wire; the
decoder re-derives the neighbor set. Explicit neighbor arrays are kept on
in-memory symbols so benchmarks time pure decode work.

Derivation works on whole batches in numpy: ``derive_seeds`` gives the
per-symbol seeds, ``derive_degrees`` their degrees and ``neighbor_sets`` their
neighbor sets as CSR arrays. Each symbol's result depends on its own seed
only, so a batch of one (``select_neighbors``, ``derive_degree``) yields what
the symbol got inside any larger batch.

Symbols travel as columns: ``encode_stream`` returns one ``RepairBatch``,
which ``PeelDecoder.add_batch`` takes whole; ``add_natives`` takes a window's
natives with one copy of the block. Taking a batch XORs no payload: a row keeps
its payload as sent, and pays for its covered neighbors only when ``run``
releases it or ``pending_rows`` reads it. Payloads are rows of (rows, l)
uint8 matrices throughout (a ``SourceBlock``, a batch, the decoder's covered
symbols); only ``EncodingSymbol``, the single-frame wire value, holds bytes.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace

import numpy as np

# ``sample`` stays importable from this module, where perfbench wraps it.
from .distributions import DegreeDistribution, inverse_cdf, sample  # noqa: F401
from .errors import InvalidInputError, InvalidParameterError, check_size
from .gf2 import _GATHER_BYTES, take_rows, words, xor_rows

_MASK64 = (1 << 64) - 1
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
# Degrees come from a salted stream so the decoder can re-derive the
# neighbor set from (seed, degree) alone without replaying the degree draw.
_DEGREE_SALT = np.uint64(0xD6E8FEB86659FD93)
# Upper bound on the candidate draws held at once by ``neighbor_sets``; a
# larger batch is processed in chunks of about this many candidates.
_CANDIDATE_CHUNK = 1 << 13
# ``PeelDecoder.run`` releases a ripple of at most this many rows one row
# at a time: a peel's tail is mostly such ripples, and a row costs fewer
# numpy calls than a round.
_SMALL_RIPPLE = 4
# Fewest spare slots a column of ``PeelDecoder``'s column index moves with.
_SPARE_SLOTS = 4
# Largest window ``neighbor_sets`` accepts. A chunk's int64 sort keys pack
# (row, value, draw index): at most 13 bits of row and 20 of value leave 30
# for the draw index, 2**9 times what a chunk draws at first at MAX_WINDOW.
MAX_WINDOW = 1 << 20


def derive_seed(base_seed: int, index: int) -> int:
    """Per-symbol seed from a stream base seed and symbol index (splitmix64)."""
    z = (base_seed + 0x9E3779B97F4A7C15 * (index + 1)) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def derive_seeds(base_seed, ids) -> np.ndarray:
    """``derive_seed`` elementwise over uint64 arrays, as a 1-D uint64 array.

    ``base_seed`` and ``ids`` broadcast against each other; either may be a
    Python int or an array. Arithmetic wraps modulo 2**64 exactly as the
    scalar reference masks it.
    """
    if isinstance(base_seed, int):
        base_seed &= _MASK64
    base = np.asarray(base_seed, dtype=np.uint64)
    idx = np.atleast_1d(np.asarray(ids, dtype=np.uint64))
    z = base + _GAMMA * (idx + np.uint64(1))
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def derive_degrees(seeds: np.ndarray, dist: DegreeDistribution) -> np.ndarray:
    """Degree of each symbol seed: the top 53 bits of the seed's salted
    splitmix64 output as a uniform in [0, 1), mapped through ``dist``'s CDF."""
    u = (derive_seeds(np.asarray(seeds, dtype=np.uint64) ^ _DEGREE_SALT, 0)
         >> np.uint64(11)) * (1.0 / (1 << 53))
    return inverse_cdf(dist, u)


def neighbor_sets(seeds: np.ndarray, w: int, degrees) -> tuple[np.ndarray, np.ndarray]:
    """Sorted neighbor sets of symbols with these seeds and degrees, as CSR
    ``(indptr, indices)``: symbol i's set is ``indices[indptr[i]:indptr[i+1]]``.

    A symbol draws ``k = min(d, w - d)`` indices: the first k distinct values
    of its stream ``derive_seed(seed, j) mod w``, j = 0, 1, ..., where a draw
    in the top ``2**64 mod w`` values is rejected so each value is exactly
    uniform on 0..w-1. The first k distinct values of such a stream are a
    uniform k-subset, so the set (the draws when d <= w/2, their complement
    otherwise, everything when d = w) is uniform over all C(w, d) subsets.
    """
    w = check_size("window", w, high=MAX_WINDOW)
    seeds = np.asarray(seeds, dtype=np.uint64)
    degrees = np.asarray(degrees, dtype=np.int64)
    if seeds.shape != degrees.shape or seeds.ndim != 1:
        raise InvalidParameterError("seeds and degrees must be matching 1-D arrays")
    bad = (degrees < 1) | (degrees > w)
    if bad.any():
        raise InvalidParameterError(f"degree {degrees[bad][0]} outside 1..{w}")
    flip = 2 * degrees > w
    k = np.where(flip, w - degrees, degrees)
    draw_ptr, drawn = _first_distinct(seeds, w, k)
    if not flip.any():
        return draw_ptr, drawn
    indptr = np.zeros(degrees.size + 1, dtype=np.int64)
    degrees.cumsum(out=indptr[1:])
    indices = np.empty(indptr[-1], dtype=np.int64)
    keep = ~flip
    indices[keep.repeat(degrees)] = drawn[keep.repeat(k)]
    for i in flip.nonzero()[0].tolist():
        mask = np.ones(w, dtype=bool)
        mask[drawn[draw_ptr[i]:draw_ptr[i + 1]]] = False
        indices[indptr[i]:indptr[i + 1]] = mask.nonzero()[0]
    return indptr, indices


def _first_distinct(seeds: np.ndarray, w: int, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """CSR of the sorted first ``k[i]`` distinct accepted draws of each
    symbol's stream (see ``neighbor_sets``); ``k[i] <= w / 2``."""
    ptr = np.zeros(k.size + 1, dtype=np.int64)
    k.cumsum(out=ptr[1:])
    out = np.empty(ptr[-1], dtype=np.int64)
    rem = (1 << 64) % w
    limit = np.uint64((1 << 64) - rem) if rem else None
    # Draws per stream: exactly k when a repeat is rare (16 k^2 < w), else k
    # plus about twice the expected number of repeats; a stream that still
    # falls short is redrawn with twice the extra, plus two.
    extra = np.where(16 * k * k < w, 0, k * k // (w - k + 1) + 2)
    todo = k.nonzero()[0]
    while todo.size:
        draws = k[todo] + extra[todo]
        ends = draws.cumsum()
        cuts = ends.searchsorted(np.arange(_CANDIDATE_CHUNK, ends[-1], _CANDIDATE_CHUNK),
                                 side="right").tolist()
        short = []
        for lo, hi in zip([0, *cuts], [*cuts, todo.size]):
            if lo < hi:
                rows = todo[lo:hi]
                done = _draw_rows(seeds[rows], w, k[rows], draws[lo:hi], limit, out, ptr[rows])
                short.append(rows[~done])
        todo = np.concatenate(short)
        extra[todo] = 2 * extra[todo] + 2
    return ptr, out


def _draw_rows(seeds, w, k, draws, limit, out, starts) -> np.ndarray:
    """Draw ``draws[r]`` values from each row's stream; write the sorted first
    ``k[r]`` distinct ones to ``out[starts[r]:]``. Returns which rows had
    enough distinct draws (the others get fewer values, to be overwritten)."""
    n, ends = k.size, draws.cumsum()
    total = int(ends[-1])
    # Draw g of the chunk is draw g - (its row's first g) of that row's stream.
    g = np.arange(total, dtype=np.uint64)
    x = derive_seeds((seeds - _GAMMA * (ends - draws).astype(np.uint64)).repeat(draws), g)
    ok = x < limit if limit is not None and x.max() >= limit else None
    # x mod w: numpy's remainder divides in hardware, x // w multiplies.
    x -= x // w * w
    # One sort of the (row, value, g) keys orders each row's draws of one
    # value by g, so a (row, value) run starts with the value's first draw.
    gbits, vbits = total.bit_length(), (w - 1).bit_length()
    key = x.view(np.int64)
    key <<= gbits
    key |= g.view(np.int64)
    key |= (np.arange(n) << (vbits + gbits)).repeat(draws)
    if ok is not None:
        key = key[ok]
    key.sort()
    rv = key >> gbits
    new = np.empty(key.size, dtype=bool)
    new[:1] = True
    np.not_equal(rv[1:], rv[:-1], out=new[1:])
    uniq = key[new]
    # Row r's distinct values are uniq[bounds[r]:bounds[r + 1]].
    bounds = uniq.searchsorted(np.arange(n + 1) << (vbits + gbits))
    have = bounds[1:] - bounds[:-1]
    if total > k.sum():
        # A row that drew extra keeps the values first drawn no later than its
        # k-th distinct one; its values' first draws are, in draw order,
        # firsts[bounds[r]:bounds[r + 1]].
        pos = uniq & ((1 << gbits) - 1)
        first = np.zeros(total, dtype=bool)
        first[pos] = True
        firsts = first.nonzero()[0]
        uniq = uniq[pos <= firsts.take(bounds[:-1] + k - 1, mode="clip").repeat(have)]
    out[_span_index(starts, np.minimum(k, have))] = (uniq >> gbits) & ((1 << vbits) - 1)
    return have >= k


class SourceBlock:
    """Ordered window of w input symbols of l bytes each: the rows of one
    (w, l) uint8 matrix ``data``, held without a copy when it is already
    C-contiguous."""

    __slots__ = ("data", "w", "l")

    def __init__(self, data: np.ndarray):
        if (not isinstance(data, np.ndarray) or data.dtype != np.uint8 or data.ndim != 2
                or 0 in data.shape):
            raise InvalidParameterError("block data must be a non-empty 2-D uint8 matrix")
        self.data = np.ascontiguousarray(data)
        self.w, self.l = data.shape

    @classmethod
    def random(cls, w: int, l: int, seed: int) -> "SourceBlock":
        """Deterministic pseudo-random block, for tests and benchmarks."""
        return cls(np.random.default_rng(seed).integers(0, 256, size=(w, l), dtype=np.uint8))


@dataclass(frozen=True, eq=False)
class EncodingSymbol:
    """One XOR-combined output symbol, the value of one wire frame.
    ``neighbors`` is a sorted index array, or None for a symbol read off
    the wire (see ``RepairBatch.resolved``)."""

    id: int
    seed: int
    degree: int
    neighbors: np.ndarray | None
    payload: bytes


@dataclass(frozen=True, eq=False)
class RepairBatch:
    """n encoding symbols as columns: (n,) uint64 ``ids`` and ``seeds``,
    int64 ``degrees``, the neighbor sets as CSR ``(indptr, indices)`` with
    ``indptr[0] == 0`` (None for wire symbols until ``resolved``), and an
    (n, l) uint8 ``payloads`` matrix. An int index (or iteration) yields
    ``EncodingSymbol``s; ``select`` picks rows as a new batch. Ids and seeds
    are u64, as on the wire."""

    ids: np.ndarray
    seeds: np.ndarray
    degrees: np.ndarray
    indptr: np.ndarray | None
    indices: np.ndarray | None
    payloads: np.ndarray

    def __len__(self) -> int:
        return len(self.ids)

    def __getitem__(self, key: int) -> EncodingSymbol:
        i = range(len(self))[key]
        nb = None if self.indptr is None else self.indices[self.indptr[i]:self.indptr[i + 1]]
        return EncodingSymbol(int(self.ids[i]), int(self.seeds[i]), int(self.degrees[i]), nb,
                              self.payloads[i].tobytes())

    def select(self, key) -> "RepairBatch":
        """The rows ``key`` picks: a bool mask, an index array or a slice."""
        rows = np.arange(len(self))[key]
        csr = (None, None) if self.indptr is None else take_rows(self.indptr, self.indices, rows)
        return RepairBatch(self.ids[rows], self.seeds[rows], self.degrees[rows], *csr,
                           self.payloads[rows])

    @classmethod
    def from_symbols(cls, symbols) -> "RepairBatch":
        """Symbols stacked into a batch; wire symbols stay unresolved.

        Raises:
            InvalidInputError: payloads of different lengths, an id or seed
                outside u64, neighbors that are not 1-D, or wire and
                resolved symbols mixed.
        """
        symbols = list(symbols)
        n = len(symbols)
        if len({len(s.payload) for s in symbols}) > 1:
            raise InvalidInputError("payload lengths differ within a batch")
        if any(not 0 <= v <= _MASK64 for s in symbols for v in (s.id, s.seed)):
            raise InvalidInputError("symbol ids and seeds must be u64")
        batch = cls(np.array([s.id for s in symbols], dtype=np.uint64),
                    np.array([s.seed for s in symbols], dtype=np.uint64),
                    np.array([s.degree for s in symbols], dtype=np.int64), None, None,
                    np.frombuffer(b"".join(s.payload for s in symbols), dtype=np.uint8)
                    .reshape(n, len(symbols[0].payload) if n else 0))
        sets = [s.neighbors for s in symbols]
        if all(nb is None for nb in sets):
            return batch
        sets = [np.asarray(nb) for nb in sets if nb is not None]
        if len(sets) < n or any(nb.ndim != 1 for nb in sets):
            raise InvalidInputError("neighbors must be 1-D index arrays on every symbol or none")
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum([nb.size for nb in sets], out=indptr[1:])
        return replace(batch, indptr=indptr, indices=np.concatenate(sets))

    def resolved(self, w: int) -> "RepairBatch":
        """This batch with its neighbor sets derived for a w-symbol window."""
        if self.indptr is not None:
            return self
        indptr, indices = neighbor_sets(self.seeds, w, self.degrees)
        return replace(self, indptr=indptr, indices=indices)

    def malformed(self, w: int, l: int) -> np.ndarray:
        """Per-row mask of the symbols a window of w symbols of l bytes must
        reject: a payload other than l bytes, a wire symbol's degree outside
        1..w, or neighbors that are not strictly increasing integers in
        0..w-1 (a repeated index would cancel in the XOR but count once) or
        not as many as the degree, which is at least 1.
        Every row is rejected when the columns themselves are malformed:
        ids, seeds and degrees that are not 1-D integer arrays of one
        length, a payload matrix of another shape, or exactly one of
        ``indptr`` and ``indices`` given."""
        n, indptr, idx = len(self), self.indptr, self.indices
        if (any(not isinstance(a, np.ndarray) or a.shape != (n,) or a.dtype.kind not in "iu"
                for a in (self.ids, self.seeds, self.degrees))
                or not isinstance(self.payloads, np.ndarray) or self.payloads.dtype != np.uint8
                or self.payloads.shape != (n, l) or (indptr is None) != (idx is None)):
            return np.ones(n, dtype=bool)
        if indptr is None:
            return (self.degrees < 1) | (self.degrees > w)
        if (not isinstance(indptr, np.ndarray) or not isinstance(idx, np.ndarray)
                or indptr.dtype.kind not in "iu" or idx.dtype.kind not in "iu" or idx.ndim != 1
                or indptr.shape != (n + 1,) or indptr[0] != 0 or indptr[-1] != idx.size):
            return np.ones(n, dtype=bool)
        lengths = indptr[1:] - indptr[:-1]
        if (lengths < 0).any():
            return np.ones(n, dtype=bool)
        # Entry i continues its row unless a row starts at i. A bad entry is
        # the last row's that starts at or before it (past any empty rows).
        same_row = np.ones(idx.size + 1, dtype=bool)
        same_row[indptr[:-1]] = False
        bad = idx.astype(np.uint64) >= w  # a negative index casts to a huge one
        bad[1:] |= (idx[1:] <= idx[:-1]) & same_row[1:-1]
        out = (lengths != self.degrees) | (self.degrees < 1)
        out[indptr.searchsorted(bad.nonzero()[0], side="right") - 1] = True
        return out


def select_neighbors(seed: int, w: int, degree: int) -> np.ndarray:
    """Degree distinct indices, uniform over all C(w, degree) subsets,
    fully determined by the seed (``neighbor_sets`` for one symbol)."""
    return neighbor_sets(np.array([seed], dtype=np.uint64), w, [degree])[1]


def derive_degree(seed: int, dist: DegreeDistribution) -> int:
    """The degree an encoder at this seed will draw from ``dist``."""
    return int(derive_degrees(np.array([seed], dtype=np.uint64), dist)[0])


def _encode(block: SourceBlock, dist: DegreeDistribution, seeds: np.ndarray,
            ids: np.ndarray) -> RepairBatch:
    """Encode one symbol per seed: batch degree and neighbor derivation, then
    one sparse XOR of the block's rows for the whole batch."""
    if dist.w != block.w:
        raise InvalidParameterError(f"distribution is over {dist.w} symbols, block has {block.w}")
    degrees = derive_degrees(seeds, dist)
    indptr, indices = neighbor_sets(seeds, block.w, degrees)
    out = np.zeros((seeds.size, block.l), dtype=np.uint8)
    xor_rows(words(out), words(block.data), indptr, indices)
    return RepairBatch(ids, seeds, degrees, indptr, indices, out)


def encode_stream(block: SourceBlock, dist: DegreeDistribution, base_seed: int,
                  count: int, start_id: int = 0) -> RepairBatch:
    """``count`` symbols with consecutive ids and per-symbol derived seeds,
    encoded as one batch."""
    check_size("count", count, low=0)
    check_size("start_id", start_id, low=0)
    ids = np.arange(start_id, start_id + count, dtype=np.uint64)
    return _encode(block, dist, derive_seeds(base_seed, ids), ids)


# Wire format: little-endian {version: u8, id: u64, seed: u64, degree: u32,
# payload_len: u32} followed by payload bytes. Bit-exact so dumps are
# replayable across runs. ``version`` names the neighbor derivation the
# decoder must re-run; a frame of another version is rejected.
WIRE_VERSION = 1
WIRE_HEADER = struct.Struct("<BQQII")


def pack_symbol(sym: EncodingSymbol) -> bytes:
    return WIRE_HEADER.pack(WIRE_VERSION, sym.id, sym.seed, sym.degree,
                            len(sym.payload)) + sym.payload


def unpack_symbol(buf: bytes, offset: int = 0) -> tuple[EncodingSymbol, int]:
    """Parse one symbol; returns (symbol, next offset). Neighbors are left
    unresolved (None) until a ``RepairBatch`` of it is ``resolved``."""
    if not 0 <= offset <= len(buf):
        raise InvalidInputError(f"offset {offset} outside 0..{len(buf)}")
    if len(buf) - offset < WIRE_HEADER.size:
        raise InvalidInputError("truncated symbol header")
    version, sym_id, seed, degree, payload_len = WIRE_HEADER.unpack_from(buf, offset)
    if version != WIRE_VERSION:
        raise InvalidInputError(f"unknown wire version {version}; expected {WIRE_VERSION}")
    start = offset + WIRE_HEADER.size
    end = start + payload_len
    if len(buf) < end:
        raise InvalidInputError("truncated symbol payload")
    return EncodingSymbol(id=sym_id, seed=seed, degree=degree, neighbors=None,
                          payload=bytes(buf[start:end])), end


def _span_index(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The positions ``starts[i]:starts[i] + lengths[i]``, span after span."""
    at = (starts - lengths.cumsum() + lengths).repeat(lengths)
    at += np.arange(at.size)
    return at


class PeelDecoder:
    """Round-based peeling decoder over a window of w symbols of l bytes.

    Covered payloads live in one (w, l) uint8 matrix; the rows of uncovered
    symbols are zero. Each encoding symbol is a row: its payload as sent,
    the CSR list of all its neighbors, and the count and index sum of the
    neighbors that were uncovered on arrival and still are, so a row with a
    count of one names its last unknown by the sum (the
    invertible-Bloom-lookup-table trick). Which row releases which column
    is settled from the counts and sums alone; a row's payload is XORed
    with its whole list only when it is released, while the released
    column still reads zero, or when ``pending_rows`` reads it. A row that
    is never used costs no payload work.

    A column index finds the rows a newly covered column hits. Each column
    owns a span of slots in one array, empty at first, so a batch only
    writes its own entries; a column that outgrows its span moves to one
    at least twice as large at the end, and a full array grows by half
    again. A span holds at most twice its entries plus ``_SPARE_SLOTS``,
    and the spans a column left behind hold fewer slots than its last, so
    the array stays within a constant factor of the entries taken plus w.

    ``run`` peels in rounds (parallel peeling): each round releases every
    row with one unknown left, one row per column, XORing their payloads
    with one gather-and-reduce; a ripple of a few rows is released row by
    row, which takes fewer numpy calls. The fixpoint depends neither on the
    release order nor on whether natives arrive before or after the
    encoding symbols.
    """

    def __init__(self, w: int, l: int):
        self.w = check_size("w", w)
        self.l = check_size("l", l)
        self._payloads = np.zeros((w, l), dtype=np.uint8)
        self._covered = np.zeros(w, dtype=bool)
        self._uncovered = w
        self.encoding_used = 0
        self._indptr = np.zeros(1, dtype=np.int64)
        self._indices = np.zeros(0, dtype=np.int64)
        self._count, self._sum = np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
        self._rows = np.zeros((0, l), dtype=np.uint8)
        # Column c's rows are ``_col_rows[_col_start[c]:][:_col_fill[c]]``,
        # in a span of ``_col_cap[c]`` slots; slots from ``_col_end`` on
        # are free. Each column starts with an empty span.
        self._col_start = np.zeros(w, dtype=np.int64)
        self._col_fill = np.zeros(w, dtype=np.int64)
        self._col_cap = np.zeros(w, dtype=np.int64)
        self._col_rows = np.empty(0, dtype=np.int64)
        self._col_end = 0
        # Scratch for picking one ripple row per column in a release round.
        self._claim = np.zeros(w, dtype=np.int64)

    @property
    def success(self) -> bool:
        return self._uncovered == 0

    @property
    def unresolved(self) -> int:
        return self._uncovered

    @property
    def live_rows(self) -> int:
        """The encoding symbols with an uncovered neighbor left: the
        equations ``pending_rows`` would return."""
        return int(np.count_nonzero(self._count))

    def _native_row(self, idx: int, payload) -> np.ndarray:
        """Native ``idx``'s payload, l bytes or a 1-D uint8 array of l, as a
        uint8 row; raises InvalidInputError for anything else or for an
        index that is not an integer in range (a bool is not) or is already
        covered."""
        if (isinstance(idx, bool) or not isinstance(idx, (int, np.integer))
                or not 0 <= idx < self.w):
            raise InvalidInputError(f"native index {idx!r} is not an integer in 0..{self.w - 1}")
        if self._covered[idx]:
            raise InvalidInputError(f"duplicate native index {idx}")
        try:
            row = payload if isinstance(payload, np.ndarray) else np.frombuffer(payload, np.uint8)
        except (BufferError, TypeError, ValueError):
            row = None
        if row is None or row.dtype != np.uint8 or row.shape != (self.l,):
            raise InvalidInputError(f"native {idx}: payload must be {self.l} bytes or a 1-D "
                                    f"uint8 array of {self.l}")
        return row

    def add_native(self, idx: int, payload) -> None:
        """``add_natives`` of one symbol: ``bytes`` or a uint8 row of l bytes."""
        self._load(self._native_row(idx, payload)[None], np.ones(1, dtype=bool), int(idx))

    def add_natives(self, rows: np.ndarray, got: np.ndarray) -> None:
        """Cover symbol i with ``rows[i]`` wherever ``got[i]``, for an (n, l)
        uint8 matrix and an (n,) bool mask, n <= w: typically a window's
        natives and which of them arrived. Raises InvalidInputError, taking
        nothing, for a wrong shape or type or a symbol already covered."""
        n = len(got)
        if (not isinstance(rows, np.ndarray) or not isinstance(got, np.ndarray) or n > self.w
                or rows.dtype != np.uint8 or got.dtype != bool
                or rows.shape != (n, self.l) or got.shape != (n,)):
            raise InvalidInputError(f"natives must be an (n, {self.l}) uint8 matrix and an (n,) "
                                    f"bool mask, n <= {self.w}")
        again = self._covered[:n] & got
        if np.count_nonzero(again):
            raise InvalidInputError(f"duplicate native index {int(again.argmax())}")
        self._load(rows, got)

    def _load(self, rows: np.ndarray, got: np.ndarray, start: int = 0) -> None:
        """Checked natives from ``start`` on: one plain copy of the span, with
        the rows outside ``got`` (zero, or recovered by peeling) put back;
        rows already held take them out of their counts and sums."""
        keep = start + (~got).nonzero()[0]
        held = self._payloads[keep]
        self._payloads[start:start + got.size] = rows
        self._payloads[keep] = held
        self._covered[start:start + got.size] |= got
        if self._count.size:
            self._cover(start + got.nonzero()[0])
        self._uncovered -= int(np.count_nonzero(got))

    def add_symbol(self, sym: EncodingSymbol) -> None:
        """``add_batch`` of one symbol."""
        self.add_batch(RepairBatch.from_symbols([sym]))

    def add_batch(self, batch: RepairBatch) -> None:
        """Take a batch of encoding symbols as rows, XOR-ing no payload;
        ``run()`` then peels. Raises InvalidInputError, taking nothing, for
        unresolved neighbors or a ``malformed`` row."""
        if not len(batch):
            return
        if batch.indptr is None:
            raise InvalidInputError("symbol neighbors unresolved; resolve them first")
        bad = batch.malformed(self.w, self.l)
        if bad.any():
            raise InvalidInputError(f"batch row {int(bad.argmax())}: ids, seeds and degrees must "
                                    f"be 1-D integer arrays of one length, neighbors strictly "
                                    f"increasing in 0..{self.w - 1} and payloads {self.l} bytes")
        self._take(batch)

    def _take(self, batch: RepairBatch) -> None:
        """``add_batch`` of a resolved batch already checked for malformed
        rows, so that no row is empty."""
        indptr, indices = batch.indptr, batch.indices.astype(np.int64, copy=False)
        first = self._count.size
        self._rows = np.concatenate((self._rows, batch.payloads))
        open_entry = ~self._covered[indices]
        count = np.add.reduceat(open_entry, indptr[:-1], dtype=np.int64)
        sums = np.add.reduceat(indices * open_entry, indptr[:-1])
        self._indptr = np.concatenate((self._indptr, self._indptr[-1] + indptr[1:]))
        self._indices = np.concatenate((self._indices, indices))
        self._count = np.concatenate((self._count, count))
        self._sum = np.concatenate((self._sum, sums))
        key = indices[open_entry]
        if key.size:
            # One sort of (column, row) keys orders the open entries by
            # column; a column takes 31 bits and a row 32, far beyond any
            # window or row count a payload matrix can hold.
            key <<= 32
            key |= np.arange(first, self._count.size).repeat(count)
            key.sort()
            cols = key >> 32
            key &= 0xFFFFFFFF
            self._index(cols, key)

    def _index(self, cols: np.ndarray, rows: np.ndarray) -> None:
        """Append the entries (cols[i], rows[i]), sorted by column, to the
        column index."""
        # Where each column's run of entries starts, and the end.
        bound = np.ones(cols.size + 1, dtype=bool)
        np.not_equal(cols[1:], cols[:-1], out=bound[1:-1])
        bound = bound.nonzero()[0]
        head = bound[:-1]
        new, added = cols[head], bound[1:] - head
        old, cap = self._col_fill[new], self._col_cap[new]
        fill = old + added
        over = fill > cap
        if over.any():
            # A column that outgrows its span gets room for its entries and
            # as many spare slots as the span had, at least _SPARE_SLOTS, so
            # its spans at least double.
            self._move(new[over], fill[over] + np.maximum(cap[over], _SPARE_SLOTS))
        at = (self._col_start[new] + old - head).repeat(added)
        at += np.arange(cols.size)
        self._col_rows[at] = rows
        self._col_fill[new] = fill

    def _move(self, cols: np.ndarray, cap: np.ndarray) -> None:
        """Give ``cols`` spans of ``cap`` slots at the end of the slot array,
        copying their entries; if they do not fit, the array first grows to
        hold them and half as many slots again."""
        fill, old = self._col_fill[cols], self._col_start[cols]
        start = self._col_end + cap.cumsum() - cap
        end = int(start[-1] + cap[-1])
        if end > self._col_rows.size:
            slots = np.empty(end + end // 2, dtype=np.int64)
            slots[:self._col_end] = self._col_rows[:self._col_end]
            self._col_rows = slots
        self._col_rows[_span_index(start, fill)] = self._col_rows[_span_index(old, fill)]
        self._col_start[cols], self._col_cap[cols], self._col_end = start, cap, end

    def _cover(self, cols: np.ndarray) -> np.ndarray:
        """Take the newly covered ``cols`` out of the count and index sum of
        every row listing one; returns those rows (a row once per hit)."""
        fill = self._col_fill[cols]
        rows = self._col_rows[_span_index(self._col_start[cols], fill)]
        np.subtract.at(self._count, rows, 1)
        np.subtract.at(self._sum, rows, cols.repeat(fill))
        return rows

    def run(self) -> None:
        """Peel to fixpoint in rounds. Linear in the total edge count."""
        ripple = (self._count == 1).nonzero()[0]
        while ripple.size:
            if ripple.size > _SMALL_RIPPLE:
                ripple = self._release_round(ripple)
            else:
                ripple = self._release_each(ripple)

    def _release_round(self, ripple: np.ndarray) -> np.ndarray:
        """Release the ripple's rows at once; returns the next ripple."""
        # One row per last unknown releases it: each ripple position claims
        # its row's column, and the positions whose claim survived release.
        # This also drops a row listed twice.
        last, at = self._sum[ripple], np.arange(ripple.size)
        self._claim[last] = at
        kept = self._claim[last] == at
        rows, cols = ripple[kept], last[kept]
        # The released columns' payload rows are still zero, so each row's
        # whole list, never empty, can go into the XOR.
        values = words(self._rows[rows])
        src = words(self._payloads)
        ptr, nbrs = take_rows(self._indptr, self._indices, rows)
        if nbrs.size * self.l <= _GATHER_BYTES:
            values ^= np.bitwise_xor.reduceat(src.take(nbrs, axis=0), ptr[:-1], axis=0)
        else:
            xor_rows(values, src, ptr, nbrs)
        src[cols] = values
        self._covered[cols] = True
        self._uncovered -= cols.size
        self.encoding_used += cols.size
        hits = self._cover(cols)
        return hits[self._count[hits] == 1]

    def _release_each(self, ripple: np.ndarray) -> np.ndarray:
        """Release a small ripple row by row, gathering at most
        ``_GATHER_BYTES`` at once; returns the next ripple."""
        span = max(1, _GATHER_BYTES // self.l)
        hits = [ripple[:0]]
        for r in ripple.tolist():
            if self._count[r] != 1:
                continue  # a release just before covered its last unknown
            col, lo, hi = int(self._sum[r]), self._indptr[r], self._indptr[r + 1]
            value = self._rows[r].copy()
            for a in range(lo, hi, span):
                value ^= np.bitwise_xor.reduce(self._payloads[self._indices[a:min(hi, a + span)]],
                                               axis=0)
            self._payloads[col] = value
            self._covered[col] = True
            self._uncovered -= 1
            self.encoding_used += 1
            # A row lists a column once, so these are distinct rows.
            start = self._col_start[col]
            hits.append(self._col_rows[start:start + self._col_fill[col]])
            self._count[hits[-1]] -= 1
            self._sum[hits[-1]] -= col
        hits = np.concatenate(hits)
        return hits[self._count[hits] == 1]

    @property
    def covered(self) -> np.ndarray:
        """Read-only view of the (w,) bool mask of covered symbols."""
        view = self._covered.view()
        view.setflags(write=False)
        return view

    @property
    def payloads(self) -> np.ndarray:
        """Read-only view of the (w, l) uint8 payload matrix; the rows of
        uncovered symbols are zero."""
        view = self._payloads.view()
        view.setflags(write=False)
        return view

    def pending_rows(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Unreleased encoding symbols as GF(2) equations over the uncovered
        symbols: CSR ``(indptr, indices)`` of each symbol's uncovered
        neighbors, and an (equations, l) uint8 matrix whose row is the XOR
        of those neighbors' payloads. Lets a caller finish with elimination
        what peeling alone could not. A pure read: the decoder is unchanged.
        """
        live = (self._count > 0).nonzero()[0]
        indptr, indices = take_rows(self._indptr, self._indices, live)
        values = self._rows[live]
        # Uncovered payload rows are zero, so each row's whole list can go in.
        xor_rows(words(values), words(self._payloads), indptr, indices)
        keep = ~self._covered[indices]
        return np.concatenate(([0], np.cumsum(keep)))[indptr], indices[keep], values

    def covered_map(self) -> dict[int, bytes]:
        return {int(i): self._payloads[i].tobytes() for i in np.flatnonzero(self._covered)}

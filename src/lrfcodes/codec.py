"""XOR fountain encoder and ripple-based peeling decoder.

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

Payloads are rows of (rows, l) uint8 matrices throughout: a ``SourceBlock``
is one (w, l) matrix, the encoder XORs a whole batch's neighbor rows with
``gf2.xor_rows``, and ``PeelDecoder`` keeps covered payloads in one (w, l)
matrix. Only ``EncodingSymbol.payload``, the wire value, is ``bytes``.
"""

from __future__ import annotations

import struct
from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

# ``sample`` stays importable from this module for existing callers.
from .distributions import DegreeDistribution, inverse_cdf, sample  # noqa: F401
from .errors import InvalidInputError, InvalidParameterError
from .gf2 import csr, words, xor_rows

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
# Largest window ``neighbor_sets`` accepts: a chunk's sort codes
# (row, value, draw index) then stay far inside int64.
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
    if not 1 <= w <= MAX_WINDOW:
        raise InvalidParameterError(f"window {w} outside 1..{MAX_WINDOW}")
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
    # Draws per stream: k plus about twice the expected number of repeats;
    # a stream that still falls short is redrawn with twice the margin.
    margin = k * k // (w - k + 1) + 2
    todo = k.nonzero()[0]
    while todo.size:
        draws = k[todo] + margin[todo]
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
        margin[todo] *= 2
    return ptr, out


def _draw_rows(seeds, w, k, draws, limit, out, starts) -> np.ndarray:
    """Draw ``draws[r]`` values from each row's stream; write the sorted first
    ``k[r]`` distinct ones to ``out[starts[r]:]``. Returns which rows had
    enough distinct draws (the others are left unwritten)."""
    n = k.size
    ends = draws.cumsum()
    row_start = ends - draws
    seg = np.arange(n).repeat(draws)
    j = np.arange(ends[-1]) - row_start.repeat(draws)
    x = derive_seeds(seeds.repeat(draws), j)
    # One sort orders the draws by (row, value, draw index), so the first
    # entry of each (row, value) run is that value's earliest draw.
    span = int(draws.max())
    code = (seg * w + (x % np.uint64(w)).astype(np.int64)) * span + j
    if limit is not None:
        ok = x < limit
        if not ok.all():
            code = code[ok]
    code.sort()
    key = code // span
    new = np.empty(code.size, dtype=bool)
    new[:1] = True
    np.not_equal(key[1:], key[:-1], out=new[1:])
    uniq = key[new]
    useg = uniq // w
    # Rank each distinct value among its row's distinct values by first draw.
    pos = row_start[useg] + code[new] % span
    firsts_before = np.zeros(ends[-1] + 1, dtype=np.int64)
    firsts_before[pos + 1] = 1
    firsts_before.cumsum(out=firsts_before)
    rank = firsts_before[pos] - firsts_before[row_start[useg]]
    done = np.bincount(useg, minlength=n) >= k
    take = (rank < k[useg]) & done[useg]
    kd = k[done]
    dst = (starts[done] - (kd.cumsum() - kd)).repeat(kd) + np.arange(kd.sum())
    out[dst] = uniq[take] - useg[take] * w
    return done


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
    """One XOR-combined output symbol.

    ``neighbors`` is a sorted array of input-symbol indices; it may be None
    for symbols freshly read off the wire (see ``resolve_neighbors``).
    """

    id: int
    seed: int
    degree: int
    neighbors: np.ndarray | None
    payload: bytes


def xor_combine(a: bytes, b: bytes) -> bytes:
    """Bytewise XOR, word-at-a-time via Python's big integers."""
    if len(a) != len(b):
        raise InvalidInputError(f"payload length mismatch: {len(a)} != {len(b)}")
    return (int.from_bytes(a, "little") ^ int.from_bytes(b, "little")).to_bytes(len(a), "little")


def select_neighbors(seed: int, w: int, degree: int) -> np.ndarray:
    """Degree distinct indices, uniform over all C(w, degree) subsets,
    fully determined by the seed (``neighbor_sets`` for one symbol)."""
    return neighbor_sets(np.array([seed], dtype=np.uint64), w, [degree])[1]


def derive_degree(seed: int, dist: DegreeDistribution) -> int:
    """The degree an encoder at this seed will draw from ``dist``."""
    return int(derive_degrees(np.array([seed], dtype=np.uint64), dist)[0])


def _encode(block: SourceBlock, dist: DegreeDistribution, seeds: np.ndarray,
            ids: list[int]) -> list[EncodingSymbol]:
    """Encode one symbol per seed: batch degree and neighbor derivation, then
    one sparse XOR of the block's rows for the whole batch."""
    if dist.w != block.w:
        raise InvalidParameterError(f"distribution is over {dist.w} symbols, block has {block.w}")
    degrees = derive_degrees(seeds, dist)
    indptr, indices = neighbor_sets(seeds, block.w, degrees)
    out = np.zeros((seeds.size, block.l), dtype=np.uint8)
    xor_rows(words(out), words(block.data), indptr, indices)
    bounds = indptr.tolist()
    return [EncodingSymbol(id=sym_id, seed=seed, degree=degree, neighbors=indices[lo:hi],
                           payload=row.tobytes())
            for sym_id, seed, degree, lo, hi, row in zip(ids, seeds.tolist(), degrees.tolist(),
                                                        bounds, bounds[1:], out)]


def encode_symbol(block: SourceBlock, dist: DegreeDistribution, seed: int,
                  symbol_id: int = 0) -> EncodingSymbol:
    """Draw a degree from ``dist`` and XOR that many uniformly chosen symbols."""
    return _encode(block, dist, np.array([seed], dtype=np.uint64), [symbol_id])[0]


def encode_stream(block: SourceBlock, dist: DegreeDistribution, base_seed: int,
                  count: int, start_id: int = 0) -> list[EncodingSymbol]:
    """``count`` symbols with consecutive ids and per-symbol derived seeds,
    encoded as one batch."""
    if count < 0:
        raise InvalidParameterError(f"count must be >= 0, got {count}")
    ids = list(range(start_id, start_id + count))
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
    unresolved (None) until ``resolve_neighbors`` is called."""
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


def resolve_neighbors(sym: EncodingSymbol, w: int) -> EncodingSymbol:
    """Re-derive the neighbor set of a wire-format symbol for a w-symbol window."""
    if sym.neighbors is not None:
        return sym
    return EncodingSymbol(id=sym.id, seed=sym.seed, degree=sym.degree,
                          neighbors=select_neighbors(sym.seed, w, sym.degree),
                          payload=sym.payload)


@dataclass
class DecodeResult:
    """Outcome of a peeling pass: recovered payloads plus bookkeeping.

    ``recovered`` is the full ordered list of payloads on success, or a
    partial mapping index -> payload otherwise. ``encoding_used`` counts the
    encoding symbols consumed to cover a previously uncovered input symbol.
    ``failed_stage`` names the stage that stopped an unsuccessful decode:
    "inner" (peeling) or "precode" (the parity-constraint solve).
    """

    recovered: list[bytes] | dict[int, bytes]
    success: bool
    unresolved: int
    encoding_used: int
    failed_stage: str | None = None


class _Pending:
    __slots__ = ("data", "remaining")

    def __init__(self, data: np.ndarray, remaining: set[int]):
        self.data = data
        self.remaining = remaining


class PeelDecoder:
    """Incremental ripple decoder over a window of w symbols of l bytes.

    Covered payloads live in one (w, l) uint8 matrix so the per-symbol
    reduction is a vectorized gather + XOR. Encoding symbols with more than
    one uncovered neighbor wait in per-index adjacency lists; symbols that
    reach exactly one uncovered neighbor join the ripple queue and are
    processed FIFO. The fixpoint depends neither on the ripple order nor on
    whether natives arrive before or after the encoding symbols.
    """

    def __init__(self, w: int, l: int, natives=None):
        if w < 1 or l < 1:
            raise InvalidParameterError(f"need w >= 1 and l >= 1, got w={w}, l={l}")
        self.w = w
        self.l = l
        self._payloads = np.zeros((w, l), dtype=np.uint8)
        self._covered = np.zeros(w, dtype=bool)
        self._adj: dict[int, list[_Pending]] = {}
        self._ripple: deque[_Pending] = deque()
        self._uncovered = w
        self.encoding_used = 0
        if natives is not None:
            items = natives.items() if isinstance(natives, Mapping) else natives
            for idx, payload in items:
                self.add_native(idx, payload)

    @property
    def success(self) -> bool:
        return self._uncovered == 0

    @property
    def unresolved(self) -> int:
        return self._uncovered

    def add_native(self, idx: int, payload) -> None:
        """Cover ``idx`` with its payload: ``bytes`` or a uint8 row of l bytes."""
        if not 0 <= idx < self.w:
            raise InvalidInputError(f"native index {idx} outside 0..{self.w - 1}")
        if self._covered[idx]:
            raise InvalidInputError(f"duplicate native index {idx}")
        if len(payload) != self.l:
            raise InvalidInputError(f"native payload length {len(payload)} != {self.l}")
        self._covered[idx] = True
        self._payloads[idx] = np.frombuffer(payload, dtype=np.uint8)
        self._uncovered -= 1
        self._discharge(idx)

    def _discharge(self, idx: int) -> None:
        """Substitute newly covered ``idx`` into every pending symbol that
        lists it; a symbol left with one uncovered neighbor joins the ripple."""
        value = self._payloads[idx]
        for other in self._adj.pop(idx, ()):
            rem = other.remaining
            if idx in rem:
                rem.discard(idx)
                other.data ^= value
                if len(rem) == 1:
                    self._ripple.append(other)

    def add_symbol(self, sym: EncodingSymbol) -> None:
        """Queue one encoding symbol, XOR-ing out already covered neighbors.

        Call ``run()`` afterwards (or after a batch) to drain the ripple.
        """
        if sym.neighbors is None:
            raise InvalidInputError("symbol neighbors unresolved; call resolve_neighbors first")
        if len(sym.payload) != self.l:
            raise InvalidInputError(f"payload length {len(sym.payload)} != {self.l}")
        nb = np.asarray(sym.neighbors)
        # A repeated index would cancel in the XOR but count once here, and
        # an out-of-range one would alias or escape as IndexError.
        if nb.size and (nb.dtype.kind not in "iu" or nb.ndim != 1 or nb[0] < 0
                        or nb[-1] >= self.w or np.count_nonzero(nb[1:] <= nb[:-1])):
            raise InvalidInputError(
                f"neighbors must be strictly increasing indices in 0..{self.w - 1}")
        cov = self._covered[nb]
        n_cov = np.count_nonzero(cov)
        if n_cov == nb.size:
            return
        data = np.frombuffer(sym.payload, dtype=np.uint8)
        if n_cov:
            # ``take`` gathers rows about twice as fast as fancy indexing.
            data = data ^ np.bitwise_xor.reduce(self._payloads.take(nb[cov], axis=0), axis=0)
        else:
            data = data.copy()
        pending = _Pending(data, set(nb[~cov].tolist()))
        if len(pending.remaining) == 1:
            self._ripple.append(pending)
        else:
            for j in pending.remaining:
                self._adj.setdefault(j, []).append(pending)

    def run(self) -> None:
        """Peel to fixpoint: repeatedly release symbols with one uncovered
        neighbor. Linear in the total edge count."""
        ripple = self._ripple
        covered = self._covered
        payloads = self._payloads
        while ripple:
            pending = ripple.popleft()
            if len(pending.remaining) != 1:
                continue
            (idx,) = pending.remaining
            if covered[idx]:
                continue
            covered[idx] = True
            payloads[idx] = pending.data
            self._uncovered -= 1
            self.encoding_used += 1
            # A symbol released through the adjacency path stays listed under
            # its last neighbor, so this also zeroes ``pending.data``; its
            # siblings take the value from the payload matrix instead.
            self._discharge(idx)

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
        """Undischarged encoding symbols as GF(2) equations over the
        uncovered symbols: CSR ``(indptr, indices)`` of each symbol's
        uncovered neighbors, and an (equations, l) uint8 matrix whose row is
        the XOR of those neighbors' payloads. Lets a caller finish with
        elimination what peeling alone could not."""
        seen: set[int] = set()
        sets: list[set[int]] = []
        data: list[np.ndarray] = []
        for lst in self._adj.values():
            for p in lst:
                if p.remaining and id(p) not in seen:
                    seen.add(id(p))
                    sets.append(p.remaining)
                    data.append(p.data)
        indptr, indices = csr(sets)
        return indptr, indices, np.array(data, dtype=np.uint8).reshape(len(data), self.l)

    def covered_map(self) -> dict[int, bytes]:
        return {int(i): self._payloads[i].tobytes() for i in np.flatnonzero(self._covered)}

    def result(self) -> DecodeResult:
        if self.success:
            recovered: list[bytes] | dict[int, bytes] = [
                self._payloads[i].tobytes() for i in range(self.w)
            ]
        else:
            recovered = self.covered_map()
        return DecodeResult(recovered=recovered, success=self.success,
                            unresolved=self._uncovered, encoding_used=self.encoding_used,
                            failed_stage=None if self.success else "inner")


def peel_decode(natives, encoding, w: int, l: int) -> DecodeResult:
    """One-shot peeling decode: seed coverage with natives, add every
    encoding symbol, peel to fixpoint."""
    decoder = PeelDecoder(w, l, natives)
    for sym in encoding:
        decoder.add_symbol(sym)
    decoder.run()
    return decoder.result()

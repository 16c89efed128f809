"""Systematic precode and its composition with the inner fountain code.

The precode maps k native symbols to k + s + h intermediates: the natives
themselves, s sparse parity symbols (each native feeds three of them through
a seeded circulant-like assignment), and h dense parity symbols (each the
XOR of roughly half of the first k + s intermediates). Every parity
constraint XORs to zero over the full intermediate block.

This is a simplified construction with the standard (k, s, h) shape, not a
standards-compliant generator; outputs are labeled as such.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import gf2
from .codec import (DecodeResult, EncodingSymbol, PeelDecoder, SourceBlock,
                    derive_seed, encode_stream)
from .distributions import DegreeDistribution
from .errors import DecodeFailure, InvalidInputError, InvalidParameterError

RESIDUAL_CAP_DEFAULT = 2000
_MAX_CONSTRUCTION_ATTEMPTS = 32


@dataclass(frozen=True)
class PrecodeConfig:
    """Shape of the precode: k natives, s sparse parities, h dense parities."""

    k: int
    s: int
    h: int
    seed: int = 0

    def __post_init__(self):
        if self.k < 1:
            raise InvalidParameterError(f"k must be >= 1, got {self.k}")
        if self.s < 0 or self.h < 0:
            raise InvalidParameterError("s and h must be >= 0")
        if self.s + self.h == 0:
            raise InvalidParameterError("precode needs at least one parity symbol")

    @property
    def total(self) -> int:
        return self.k + self.s + self.h


@lru_cache(maxsize=64)
def parity_rows(cfg: PrecodeConfig) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """Deterministic parity structure for a config: (sparse_rows, dense_rows).

    Sparse row j lists the native indices feeding parity k+j; dense row j
    lists indices in 0..k+s-1 feeding parity k+s+j. A seeded construction
    whose matrix has an all-zero row or an unprotected native column is
    rejected and rebuilt deterministically from seed+1.
    """
    k, s, h = cfg.k, cfg.s, cfg.h
    for attempt in range(_MAX_CONSTRUCTION_ATTEMPTS):
        rng = np.random.default_rng(derive_seed(cfg.seed + attempt, 0x5C0DE))

        sparse: list[list[int]] = [[] for _ in range(s)]
        if s > 0:
            if s >= 3:
                a = int(rng.integers(1, s))
                b = int(rng.integers(1, s))
                while b == a:
                    b = int(rng.integers(1, s))
                offsets = (0, a, b)
            else:
                offsets = tuple(range(s))
            for i in range(k):
                for off in offsets:
                    sparse[(i + off) % s].append(i)

        dense: list[np.ndarray] = []
        for _ in range(h):
            mask = rng.random(k + s) < 0.5
            if not mask.any():
                mask[int(rng.integers(0, k + s))] = True
            dense.append(np.flatnonzero(mask).astype(np.int64))

        covered = np.zeros(k, dtype=bool)
        for row in sparse:
            covered[row] = True
        for row in dense:
            covered[row[row < k]] = True
        rows_ok = all(row for row in sparse) and all(row.size for row in dense)
        if rows_ok and covered.all():
            return (tuple(np.array(sorted(set(r)), dtype=np.int64) for r in sparse),
                    tuple(dense))
    raise InvalidParameterError(
        f"could not build a non-degenerate precode for {cfg} in "
        f"{_MAX_CONSTRUCTION_ATTEMPTS} attempts")


@lru_cache(maxsize=64)
def constraint_rows(cfg: PrecodeConfig) -> tuple[tuple[int, ...], ...]:
    """Every parity constraint as a sorted index tuple over the intermediate
    block (members plus the parity symbol itself); each XORs to zero."""
    sparse, dense = parity_rows(cfg)
    rows = []
    for j, members in enumerate(sparse):
        rows.append(tuple(sorted(members.tolist() + [cfg.k + j])))
    for j, members in enumerate(dense):
        rows.append(tuple(sorted(members.tolist() + [cfg.k + cfg.s + j])))
    return tuple(rows)


def dump_parity_rows(cfg: PrecodeConfig) -> str:
    """Textual sparse row dump ``row_index: idx,idx,idx`` for test vectors."""
    lines = []
    for r, row in enumerate(constraint_rows(cfg)):
        lines.append(f"{r}: " + ",".join(str(i) for i in row))
    return "\n".join(lines)


@dataclass(frozen=True, eq=False)
class IntermediateBlock:
    """k + s + h intermediate symbols; the first k equal the natives."""

    symbols: tuple[bytes, ...]
    cfg: PrecodeConfig
    source: SourceBlock

    def as_block(self) -> SourceBlock:
        return SourceBlock(self.symbols)


def precode_expand(block: SourceBlock, cfg: PrecodeConfig) -> IntermediateBlock:
    """Append the s + h parity symbols to a k-symbol block."""
    if block.w != cfg.k:
        raise InvalidParameterError(f"block has {block.w} symbols, config expects {cfg.k}")
    sparse, dense = parity_rows(cfg)
    ints = list(block.payload_ints())
    for members in sparse:
        acc = 0
        for i in members.tolist():
            acc ^= ints[i]
        ints.append(acc)
    for members in dense:
        acc = 0
        for i in members.tolist():
            acc ^= ints[i]
        ints.append(acc)
    symbols = block.symbols + tuple(v.to_bytes(block.l, "little") for v in ints[cfg.k:])
    return IntermediateBlock(symbols=symbols, cfg=cfg, source=block)


def precode_solve(partial, cfg: PrecodeConfig,
                  residual_cap: int = RESIDUAL_CAP_DEFAULT,
                  extra_rows=()) -> list[bytes]:
    """Fill missing intermediates from the parity constraints and return the
    k native payloads.

    Peels constraints with a single missing member first, then runs dense
    GF(2) elimination on the residual system, bounded by ``residual_cap``
    unknowns. ``extra_rows`` adds caller-supplied GF(2) equations over the
    intermediate indices, each (indices, little-endian RHS integer) --
    typically the undischarged inner encoding symbols (see
    ``PeelDecoder.pending_rows``).

    Raises:
        DecodeFailure: the constraints do not determine every native, or the
            residual exceeds the cap.
    """
    items = partial.items() if isinstance(partial, Mapping) else partial
    known: dict[int, int] = {}
    l = None
    for idx, payload in items:
        if not 0 <= idx < cfg.total:
            raise InvalidInputError(f"index {idx} outside intermediate range 0..{cfg.total - 1}")
        if idx in known:
            raise InvalidInputError(f"duplicate intermediate index {idx}")
        if l is None:
            l = len(payload)
        elif len(payload) != l:
            raise InvalidInputError("intermediate payload lengths differ")
        known[idx] = int.from_bytes(payload, "little")
    if l is None:
        raise DecodeFailure("no intermediates supplied", unresolved=cfg.k, stage="precode")

    rows = list(constraint_rows(cfg))
    base_rhs = [0] * len(rows)
    for idxs, value in extra_rows:
        for i in idxs:
            if not 0 <= i < cfg.total:
                raise InvalidInputError(
                    f"extra row index {i} outside intermediate range 0..{cfg.total - 1}")
        rows.append(tuple(idxs))
        base_rhs.append(int(value))
    remaining = [set(r) - known.keys() for r in rows]
    rhs = []
    for r, rem, base in zip(rows, remaining, base_rhs):
        acc = base
        for i in r:
            if i not in rem:
                acc ^= known[i]
        rhs.append(acc)

    adjacency: dict[int, list[int]] = {}
    for cid, rem in enumerate(remaining):
        for u in rem:
            adjacency.setdefault(u, []).append(cid)
    queue = deque(cid for cid, rem in enumerate(remaining) if len(rem) == 1)
    while queue:
        cid = queue.popleft()
        rem = remaining[cid]
        if len(rem) != 1:
            continue
        (u,) = rem
        value = rhs[cid]
        known[u] = value
        rem.clear()
        for cid2 in adjacency.pop(u, ()):
            rem2 = remaining[cid2]
            if u in rem2:
                rem2.discard(u)
                rhs[cid2] ^= value
                if len(rem2) == 1:
                    queue.append(cid2)

    missing_natives = [i for i in range(cfg.k) if i not in known]
    if missing_natives:
        unknowns = sorted({u for rem in remaining for u in rem} | set(missing_natives))
        if len(unknowns) > residual_cap:
            raise DecodeFailure(
                f"residual system has {len(unknowns)} unknowns (cap {residual_cap})",
                unresolved=len(missing_natives), stage="precode")
        residual = [(tuple(rem), rhs[cid]) for cid, rem in enumerate(remaining) if rem]
        known.update(gf2.solve_partial(residual, unknowns))
        missing_natives = [i for i in range(cfg.k) if i not in known]
        if missing_natives:
            raise DecodeFailure(
                f"{len(missing_natives)} natives undetermined by parity constraints",
                unresolved=len(missing_natives), stage="precode")
    return [known[i].to_bytes(l, "little") for i in range(cfg.k)]


def raptor_encode(block: SourceBlock, cfg: PrecodeConfig, dist: DegreeDistribution,
                  base_seed: int, count: int, start_id: int = 0) -> list[EncodingSymbol]:
    """Expand the precode, then run the inner fountain encoder over the
    intermediate block with the given degree distribution."""
    inter = precode_expand(block, cfg)
    return encode_stream(inter.as_block(), dist, base_seed, count, start_id=start_id)


def raptor_decode(natives, encoding, cfg: PrecodeConfig, l: int | None = None,
                  residual_cap: int = RESIDUAL_CAP_DEFAULT) -> DecodeResult:
    """Peel over the intermediate block, then solve the precode residual.

    ``natives`` maps intermediate indices (normally 0..k-1) to payloads. The
    result is over the k natives; on failure ``failed_stage`` is "precode".
    """
    items = dict(natives.items() if isinstance(natives, Mapping) else natives)
    if l is None:
        if items:
            l = len(next(iter(items.values())))
        elif encoding:
            l = len(encoding[0].payload)
        else:
            raise InvalidInputError("cannot infer symbol length from empty input")

    decoder = PeelDecoder(cfg.total, l, items)
    for sym in encoding:
        decoder.add_symbol(sym)
    decoder.run()

    if decoder.success:
        all_syms = decoder.result().recovered
        return DecodeResult(recovered=list(all_syms[:cfg.k]), success=True,
                            unresolved=0, encoding_used=decoder.encoding_used)

    covered = decoder.covered_map()
    missing_natives = cfg.k - sum(1 for i in covered if i < cfg.k)
    if missing_natives == 0:
        return DecodeResult(
            recovered=[covered[i] for i in range(cfg.k)], success=True,
            unresolved=0, encoding_used=decoder.encoding_used)
    try:
        recovered = precode_solve(covered, cfg, residual_cap=residual_cap,
                                  extra_rows=decoder.pending_rows())
    except DecodeFailure as exc:
        return DecodeResult(
            recovered={i: p for i, p in covered.items() if i < cfg.k},
            success=False, unresolved=exc.unresolved,
            encoding_used=decoder.encoding_used, failed_stage=exc.stage or "precode")
    return DecodeResult(recovered=recovered, success=True, unresolved=0,
                        encoding_used=decoder.encoding_used)

"""Systematic precode and its composition with the inner fountain code.

The precode maps k native symbols to k + s + h intermediates: the natives
themselves, s sparse parity symbols (each native feeds three of them through
a seeded circulant-like assignment), and h dense parity symbols (each the
XOR of roughly half of the first k + s intermediates). Every parity
constraint XORs to zero over the full intermediate block.

Intermediates are rows of one (k + s + h, l) uint8 matrix: ``precode_expand``
returns them as a ``SourceBlock`` that the inner encoder takes as it is,
and ``precode_solve`` writes the k natives into the caller's (k, l) matrix.

This is a simplified construction with the standard (k, s, h) shape, not a
standards-compliant generator; outputs are labeled as such.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import gf2
from .codec import PeelDecoder, SourceBlock, derive_seed
from .errors import DecodeFailure, InvalidParameterError, check_size

# Bounds the dense elimination, whose work grows with the square of the
# unknowns or faster: a system with more unknowns fails before it.
RESIDUAL_CAP = 2000
_MAX_CONSTRUCTION_ATTEMPTS = 32


@dataclass(frozen=True)
class PrecodeConfig:
    """Shape of the precode: k natives, s sparse parities, h dense parities."""

    k: int
    s: int
    h: int
    seed: int = 0

    def __post_init__(self):
        for name, low in (("k", 1), ("s", 0), ("h", 0)):
            check_size(name, getattr(self, name), low)
        object.__setattr__(self, "seed", check_size("seed", self.seed, low=0))
        if self.s + self.h == 0:
            raise InvalidParameterError("precode needs at least one parity symbol")

    @property
    def total(self) -> int:
        return self.k + self.s + self.h


# A session uses one config and every session draws a new precode seed, so
# only the latest config's structure is worth keeping.
@lru_cache(maxsize=1)
def constraint_matrix(cfg: PrecodeConfig) -> tuple[np.ndarray, np.ndarray]:
    """Every parity constraint as a sorted row of a read-only CSR matrix
    ``(indptr, indices)`` over the intermediate block: row j lists the
    members of parity k + j and then k + j itself, and XORs to zero.

    Sparse row j lists the natives feeding parity k + j; dense row j lists
    indices in 0..k+s-1 feeding parity k + s + j. A seeded construction
    with an empty sparse row or an unprotected native is rejected and
    rebuilt deterministically from seed + 1.
    """
    k, s, h = cfg.k, cfg.s, cfg.h
    natives = np.arange(k, dtype=np.int64)[:, None]
    for attempt in range(_MAX_CONSTRUCTION_ATTEMPTS):
        rng = np.random.default_rng(derive_seed(cfg.seed + attempt, 0x5C0DE))

        keys = np.zeros(0, dtype=np.int64)
        if s > 0:
            if s >= 3:
                a = int(rng.integers(1, s))
                b = int(rng.integers(1, s))
                while b == a:
                    b = int(rng.integers(1, s))
                offsets = np.array((0, a, b))
            else:
                offsets = np.arange(s)
            # Native i feeds parity (i + off) % s for each offset (distinct
            # offsets below s, so distinct rows); one sort of the (row,
            # member) keys lists each row's members in order.
            keys = np.sort((((natives + offsets) % s) * k + natives).ravel())

        masks = np.zeros((h, k + s), dtype=bool)
        for mask in masks:
            mask[:] = rng.random(k + s) < 0.5
            if not mask.any():
                mask[int(rng.integers(0, k + s))] = True

        sizes = np.concatenate((np.bincount(keys // k, minlength=s), masks.sum(axis=1)))
        covered = masks[:, :k].any(axis=0)
        covered[keys % k] = True
        if sizes[:s].all() and covered.all():
            ends = np.cumsum(sizes)
            indptr = np.append(0, ends + np.arange(1, s + h + 1))
            members = np.concatenate((keys % k, masks.nonzero()[1]))
            indices = np.insert(members, ends, k + np.arange(s + h)).astype(np.int32)
            indptr.setflags(write=False)
            indices.setflags(write=False)
            return indptr, indices
    raise InvalidParameterError(
        f"could not build a non-degenerate precode for {cfg} in "
        f"{_MAX_CONSTRUCTION_ATTEMPTS} attempts")


# Dense rows are summed by bucket, at most this many rows to a group.
_BUCKET_ROWS = 8


@lru_cache(maxsize=1)
def dense_buckets(cfg: PrecodeConfig) -> tuple:
    """The dense constraint rows in groups of g <= 8, each laid out by
    bucket: bucket b lists the columns that exactly the group's rows with a
    bit set in b list, so the group's row j is the XOR of the 2**(g-1)
    buckets with bit j set.

    One entry per group: its constraint rows ``lo:hi``, the buckets as CSR
    ``(indptr, indices)`` over the intermediates (bucket 0 is empty), and
    each row's buckets as CSR over the buckets.
    """
    indptr, indices = constraint_matrix(cfg)
    groups = []
    for lo in range(cfg.s, cfg.s + cfg.h, _BUCKET_ROWS):
        hi = min(lo + _BUCKET_ROWS, cfg.s + cfg.h)
        bit, n = np.arange(hi - lo), 1 << (hi - lo)
        # A row lists a column once, so the bits of its rows add up exactly;
        # a pattern fits a uint8, whose stable sort is a counting sort.
        pattern = np.bincount(indices[indptr[lo]:indptr[hi]],
                              weights=np.repeat(1 << bit, np.diff(indptr[lo:hi + 1])),
                              minlength=cfg.total).astype(np.uint8)
        cols = pattern.nonzero()[0]
        members = cols[np.argsort(pattern[cols], kind="stable")]
        b_ptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(pattern[cols], minlength=n), out=b_ptr[1:])
        with_bit = (np.arange(n) >> bit[:, None]) & 1
        groups.append((lo, hi, (b_ptr, members),
                       (np.arange(bit.size + 1) * (n // 2), with_bit.nonzero()[1])))
    return tuple(groups)


def _xor_dense(out: np.ndarray, src: np.ndarray, cfg: PrecodeConfig) -> None:
    """``out[j] ^=`` the XOR of ``src`` over the members of dense constraint
    row s + j: one gather per group of rows into its buckets, then each row
    from its buckets."""
    for lo, hi, (b_ptr, members), rows in dense_buckets(cfg):
        buckets = np.zeros((b_ptr.size - 1, out.shape[1]), dtype=out.dtype)
        gf2.xor_rows(buckets, src, b_ptr, members)
        gf2.xor_rows(out[lo - cfg.s:hi - cfg.s], buckets, *rows)


def _xor_sparse(out: np.ndarray, src: np.ndarray, cfg: PrecodeConfig) -> None:
    """``out[j] ^=`` the XOR of ``src`` over the natives of sparse constraint
    row j. Native i feeds row (i + off) % s for each offset, so the rows are
    the fold of the natives by index mod s, XORed with its rolls by the
    offsets: one read of each native."""
    k, s = cfg.k, cfg.s
    if not s:
        return
    indptr, indices = constraint_matrix(cfg)
    # Native 0 feeds exactly the rows whose number is an offset, and a row
    # lists its members in order, so those rows are the ones that start at 0.
    offsets = np.flatnonzero(indices[indptr[:s]] == 0)
    whole = k - k % s
    fold = np.bitwise_xor.reduce(src[:whole].reshape(-1, s, src.shape[1]), axis=0)
    fold[:k - whole] ^= src[whole:k]
    for off in offsets.tolist():
        out ^= np.roll(fold, off, axis=0)


def precode_expand(block: SourceBlock, cfg: PrecodeConfig) -> SourceBlock:
    """The k + s + h intermediates of a k-symbol block: its rows, then the
    s + h parity symbols."""
    if block.w != cfg.k:
        raise InvalidParameterError(f"block has {block.w} symbols, config expects {cfg.k}")
    k, s = cfg.k, cfg.s
    inter = np.zeros((cfg.total, block.l), dtype=np.uint8)
    inter[:k] = block.data
    # Sparse parities read natives only, dense ones also the sparse parities,
    # so the sparse rows go first. A dense row also lists its own parity,
    # which reads as zero in ``inter`` until the pass is written back.
    _xor_sparse(gf2.words(inter[k:k + s]), gf2.words(inter), cfg)
    parity = np.zeros((cfg.h, block.l), dtype=np.uint8)
    _xor_dense(gf2.words(parity), gf2.words(inter), cfg)
    inter[k + s:] = parity
    return SourceBlock(inter)


def precode_solve(decoder: PeelDecoder, cfg: PrecodeConfig, out: np.ndarray) -> np.ndarray:
    """Fill missing intermediates from the parity constraints and write the
    k native payloads into ``out``, a writable (k, l) uint8 matrix, which
    is returned. ``out`` is written only once every native is determined,
    so a failure leaves it untouched; a window whose natives are all
    covered is copied there.

    ``decoder`` is a ``PeelDecoder`` over the ``cfg.total`` intermediates,
    read in place: its covered mask, payload matrix and pending equations
    (any further equations over the intermediates go in with ``add_batch``
    first). A constraint's right-hand side is the XOR of its covered
    members, summed in one pass over the payload matrix, whose uncovered
    rows read zero. The constraints and the pending equations then go to
    one ``gf2.solve_partial`` over the missing natives, which first
    substitutes out the uncovered parities.

    Constraint row j lists its own parity k + j, and besides it a sparse row
    lists only natives while a dense row lists only natives and sparse
    parities. So the rows of the uncovered parities are unit lower
    triangular over them, and they are eliminated in two steps: the sparse
    rows, then the dense rows (each a ``solve_partial`` step: a row lists
    its own parity and none of its step or a later one). Any values of the
    natives extend to the uncovered parities in exactly one way, so the
    remaining equations determine the same natives as the whole system, and
    are inconsistent exactly when it is.

    A system with fewer equations E than unknowns U, or with more than
    ``RESIDUAL_CAP`` unknowns, fails before any of that work (no
    right-hand sides, no ``pending_rows``, no elimination). E counts the
    constraint rows with an uncovered member and the decoder's
    ``live_rows``; U the uncovered intermediates. The E < U exit is exact:
    by the same triangular structure, natives that are all determined
    determine every parity too, and then rank = U <= E. On this path
    ``unresolved`` is every missing native, the k natives less those the
    decoder covers; after an elimination it counts the natives the
    elimination left undetermined.

    Raises:
        DecodeFailure: the system does not determine every native.
        InvalidInputError: an inconsistent system.
        InvalidParameterError: not a decoder over the config's intermediates,
            or an ``out`` that is not a writable (k, l) uint8 matrix.
    """
    if not isinstance(decoder, PeelDecoder) or decoder.w != cfg.total:
        raise InvalidParameterError(f"need a PeelDecoder over the {cfg.total} intermediates")
    if not (isinstance(out, np.ndarray) and out.dtype == np.uint8
            and out.shape == (cfg.k, decoder.l) and out.flags.writeable):
        raise InvalidParameterError(f"out must be a writable ({cfg.k}, {decoder.l}) uint8 matrix")
    covered, payloads = decoder.covered, decoder.payloads
    missing = np.flatnonzero(~covered[:cfg.k])
    if not missing.size:
        out[...] = payloads[:cfg.k]
        return out
    # The constraints restricted to their uncovered members, then the
    # decoder's pending equations, as one CSR system.
    indptr, indices = constraint_matrix(cfg)
    open_entry = ~covered[indices]
    counts = np.add.reduceat(open_entry, indptr[:-1])
    rows = counts > 0
    uncovered = cfg.total - np.count_nonzero(covered)
    equations = int(np.count_nonzero(rows)) + decoder.live_rows
    if equations < uncovered or uncovered > RESIDUAL_CAP:
        raise DecodeFailure(
            f"{missing.size} natives undetermined: {equations} equations for "
            f"{uncovered} unknowns (cap {RESIDUAL_CAP})", unresolved=missing.size)
    # A sparse row also lists its own parity k + j.
    rhs = np.zeros((cfg.s + cfg.h, decoder.l), dtype=np.uint8)
    rhs[:cfg.s] = payloads[cfg.k:cfg.k + cfg.s]
    src = gf2.words(payloads)
    _xor_sparse(gf2.words(rhs[:cfg.s]), src, cfg)
    _xor_dense(gf2.words(rhs[cfg.s:]), src, cfg)
    p_indptr, p_indices, p_rhs = decoder.pending_rows()
    # Each uncovered intermediate's column: the missing natives, then the
    # open sparse parities, then the open dense ones, each in order. The
    # eliminate steps are the open parities' rows (row j is equation at[j]).
    col = np.cumsum(~covered) - 1
    at = np.cumsum(rows) - 1
    open_parity = ~covered[cfg.k:]
    steps = np.split(at[open_parity], [np.count_nonzero(open_parity[:cfg.s])])
    solved = gf2.solve_partial(
        (np.concatenate(([0], np.cumsum(counts[rows]), p_indptr[1:] + counts.sum())),
         col[np.concatenate((indices[open_entry], p_indices))]),
        range(missing.size), np.concatenate((rhs[rows], p_rhs)), eliminate=steps)
    if solved.size < missing.size:
        raise DecodeFailure(
            f"{missing.size - solved.size} of {missing.size} missing natives undetermined by "
            "the parity constraints and pending equations",
            unresolved=missing.size - solved.size)
    out[...] = payloads[:cfg.k]
    out[missing] = solved["value"]
    return out

"""Bit-packed GF(2) elimination on XOR equation systems.

Used by the precode solver to finish what the inner peeling decoder left.
Each equation says that the XOR of some unknowns equals its right-hand side.

* Coefficients are packed 64 unknown columns to a ``uint64`` word (column c
  is bit ``c % 64`` of word ``c // 64``).
* Right-hand sides are the rows of an (equations, l) uint8 payload matrix:
  equation r's unknowns XOR to the l-byte symbol in row r (for the precode,
  rows of the peeling decoder's payload matrix and the constraints'
  right-hand sides). The solver stores each one, padded to whole words,
  after its equation's coefficient words in one ``uint64`` row, so a row
  operation on coefficients and right-hand side together is one numpy XOR.

Elimination is Gauss-Jordan over the packed rows; peeling is left to the
peeling decoder that hands over its residual. Before it, ``solve_partial``
can substitute out indices that are not wanted (``eliminate``), given
equations unit lower triangular over them; the rest then determine the
wanted unknowns exactly as the whole system would. The precode's uncovered
parities go this way, so its Gauss-Jordan pass runs over the missing
natives only.

``xor_rows`` multiplies a sparse 0/1 matrix by a payload matrix, also a
word at a time (``words``): it builds the encoder's repair payloads, the
peeling decoder's released symbols and pending equations, the precode's
dense parity symbols and their right-hand sides, and the substitution
steps above.
"""

from __future__ import annotations

from bisect import bisect_right

import numpy as np

from .errors import InvalidInputError

_ONE = np.uint64(1)
# Upper bound on the bytes ``xor_rows`` gathers at once (or one ``src`` row).
_GATHER_BYTES = 1 << 18
# ``xor_rows`` reduces a slice of at most _FEW_SEGMENTS rows of at least
# _WIDE_ROW_BYTES one row at a time: there ``reduce`` is faster than
# ``reduceat``, which is faster over narrow rows or many short wide ones.
_FEW_SEGMENTS = 8
_WIDE_ROW_BYTES = 512


def words(mat: np.ndarray) -> np.ndarray:
    """A C-contiguous uint8 matrix as ``uint64`` words when its rows are a
    multiple of 8 bytes (a view, so XOR into it writes the matrix); the
    matrix itself otherwise."""
    if mat.shape[-1] % 8 == 0 and mat.flags.c_contiguous:
        return mat.view(np.uint64)
    return mat


def span_index(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The positions ``starts[i]:starts[i] + lengths[i]``, span after span."""
    at = (starts - lengths.cumsum() + lengths).repeat(lengths)
    at += np.arange(at.size)
    return at


def take_rows(indptr: np.ndarray, indices: np.ndarray,
              rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rows ``rows`` of a CSR matrix as a CSR matrix of their own."""
    starts = indptr[rows]
    lengths = indptr[rows + 1] - starts
    ptr = np.zeros(rows.size + 1, dtype=np.int64)
    np.cumsum(lengths, out=ptr[1:])
    return ptr, indices[span_index(starts, lengths)]


def xor_rows(out: np.ndarray, src: np.ndarray, indptr: np.ndarray, indices: np.ndarray) -> None:
    """``out[r] ^= XOR of src[j]`` over the entries j of CSR row r.

    ``indptr`` may start past 0 (a slice of a larger matrix's row pointers).
    ``out`` and ``src`` are payload matrices of the same word type (see
    ``words``); ``out`` may be ``src`` when no row written is a row read.
    """
    cols = indices[indptr[0]:indptr[-1]]
    ptr = indptr - indptr[0]
    # Slices of whole rows, at most _GATHER_BYTES together, each reduced per
    # row; a longer row goes alone, _GATHER_BYTES at a time, one partial XOR
    # per piece. bounds (each non-empty row's start, then the end) reads as
    # plain ints through a memoryview, so a slice is found with no numpy call.
    step = np.append(ptr[1:] > ptr[:-1], True)
    rows, starts = step[:-1].nonzero()[0], ptr[step]
    bounds = memoryview(starts)
    row_bytes = src.shape[1] * src.itemsize
    span = max(1, _GATHER_BYTES // row_bytes)
    k = 0
    while k < rows.size:
        lo = bounds[k]
        end = bisect_right(bounds, lo + span, k + 1) - 1
        if end == k:
            r, hi = rows[k], bounds[k + 1]
            for a in range(lo, hi, span):
                out[r] ^= np.bitwise_xor.reduce(src.take(cols[a:min(a + span, hi)], axis=0), axis=0)
            k += 1
            continue
        gathered = src.take(cols[lo:bounds[end]], axis=0)
        if end - k <= _FEW_SEGMENTS and row_bytes >= _WIDE_ROW_BYTES:
            for r, a, b in zip(rows[k:end].tolist(), bounds[k:end], bounds[k + 1:end + 1]):
                out[r] ^= np.bitwise_xor.reduce(gathered[a - lo:b - lo], axis=0)
        else:
            out[rows[k:end]] ^= np.bitwise_xor.reduceat(gathered, starts[k:end] - lo, axis=0)
        k = end


def _pack(indptr: np.ndarray, indices: np.ndarray, known: np.ndarray, at: np.ndarray,
          width: int) -> np.ndarray:
    """Packed coefficient rows of the CSR equations, ``width`` words each,
    with index ``known[i]`` at packed column ``at[i]``; an index listed twice
    in a row cancels."""
    order = np.argsort(known, kind="stable")
    ranked = known[order]
    pos = np.minimum(np.searchsorted(ranked, indices), ranked.size - 1)
    if (ranked[pos] != indices).any():
        raise InvalidInputError("an equation names an index that is neither an unknown "
                                "nor eliminated")
    cols = at[order[pos]]
    nr = indptr.size - 1
    packed = np.zeros((nr, width), dtype=np.uint64)
    rows = np.repeat(np.arange(nr), np.diff(indptr))
    np.bitwise_xor.at(packed, (rows, cols >> 6), _ONE << (cols & 63).astype(np.uint64))
    return packed


def _substitute(M: np.ndarray, first: int, steps: list) -> np.ndarray:
    """Apply ``solve_partial``'s ``eliminate`` steps in order to the packed
    rows ``M``, whose step columns start at word ``first``, one ``xor_rows``
    per step; returns the remaining rows' first ``first`` words. A step
    changes no row's bits at a later step's columns (its equations list
    none), so the bits on entry say which equations each step XORs where.
    """
    n = sum(idx.size for _, idx in steps)
    bits = np.unpackbits(M[:, first:].view(np.uint8), axis=1, count=n,
                         bitorder="little").view(bool)
    keep = np.ones(M.shape[0], dtype=bool)
    at = 0
    for eq, idx in steps:
        if (bits[eq, at:] != np.eye(idx.size, n - at, dtype=bool)).any():
            raise InvalidInputError("a step's equation lists another index of its own "
                                    "or a later step, or not its own")
        keep[eq] = False
        rows, hit = (bits[:, at:at + idx.size] & keep[:, None]).nonzero()
        ptr = np.zeros(M.shape[0] + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=M.shape[0]), out=ptr[1:])
        xor_rows(M, M, ptr, eq[hit])
        at += idx.size
    return M[keep, :first]


def _eliminate(M: np.ndarray, nu: int) -> np.ndarray:
    """Reduce ``M`` in place by Gauss-Jordan elimination: each row is an
    equation's packed coefficient words followed by its right-hand side
    words, so one XOR of two rows is a whole row operation. Returns each
    column's pivot row, -1 where it has none.

    On return each pivot row holds its pivot column plus free columns only.
    """
    nw = (nu + 63) // 64
    pivot = np.full(nu, -1, dtype=np.int64)
    free_row = np.ones(M.shape[0], dtype=bool)
    for col in range(nu):
        hits = (M[:, col >> 6] & (_ONE << np.uint64(col & 63))).nonzero()[0]
        cand = hits[free_row[hits]]
        if cand.size:
            r = int(cand[0])
            M[hits[hits != r]] ^= M[r]
            pivot[col] = r
            free_row[r] = False

    if M[~M[:, :nw].any(axis=1), nw:].any():
        raise InvalidInputError("inconsistent XOR system")
    return pivot


def solve_partial(rows, unknowns, rhs, eliminate=()) -> dict:
    """Solve XOR equations for as many unknowns as the system determines.

    Args:
        rows: the equations as CSR ``(indptr, indices)``: equation r
            XORs the indices ``indices[indptr[r]:indptr[r+1]]``, each an
            unknown or an eliminated index.
        unknowns: the distinct unknown indices, in any order.
        rhs: (equations, l) uint8 matrix; row r is equation r's right-hand
            side. It is not modified.
        eliminate: steps ``(equations, indices)`` of two equal-length int
            sequences, applied in order before the elimination. Equation
            ``equations[i]`` lists ``indices[i]`` and no other index of its
            own or a later step. A step XORs each of its equations,
            coefficients and right-hand side, into every other remaining
            equation that lists its index, then drops its equations. Their
            indices are not unknowns and are not returned. The rows of the
            steps' equations are unit lower triangular over the eliminated
            indices, so any values of the unknowns extend to them in exactly
            one way: the remaining equations (a Schur complement) determine
            the same unknowns with the same values as the whole system, and
            are inconsistent exactly when it is.

    Returns:
        Mapping unknown index -> its l-byte value (a uint8 row) for every
        unknown the system pins down: each pivot whose reduced row has no
        free column.

    Raises:
        InvalidInputError: the system is inconsistent (a row reduces to
            zero coefficients with a non-zero right-hand side, which
            indicates corrupted input); an equation names an index that is
            neither an unknown nor eliminated; or the steps break their
            contract.
    """
    indptr, indices = (np.asarray(a, dtype=np.int64) for a in rows)
    unknowns = np.fromiter(unknowns, dtype=np.int64)
    steps = [tuple(np.asarray(a, dtype=np.int64) for a in step) for step in eliminate]
    rhs = np.asarray(rhs, dtype=np.uint8)
    if rhs.ndim != 2 or rhs.shape[0] != indptr.size - 1:
        raise InvalidInputError(f"{indptr.size - 1} equations but right-hand sides of "
                                f"shape {rhs.shape}")
    if any(eq.shape != idx.shape or eq.ndim != 1 for eq, idx in steps):
        raise InvalidInputError("a step's equations and indices differ in length")
    if unknowns.size == 0 or rhs.shape[0] == 0:
        return {}
    nu, l = unknowns.size, rhs.shape[1]
    nw, rw = (nu + 63) // 64, (l + 7) // 8
    # The eliminated indices' columns start on the word after the right-hand side.
    known = np.concatenate([unknowns, *(idx for _, idx in steps)])
    at = np.arange(known.size)
    at[nu:] += 64 * (nw + rw) - nu
    M = _pack(indptr, indices, known, at, nw + rw + (known.size - nu + 63) // 64)
    M[:, nw:nw + rw].view(np.uint8)[:, :l] = rhs
    if steps:
        M = _substitute(M, nw + rw, steps)
    pivot = _eliminate(M, nu)

    values = M[:, nw:].view(np.uint8)
    cols = (pivot >= 0).nonzero()[0]
    unpivoted = (pivot < 0).nonzero()[0]
    free_mask = np.zeros(nw, dtype=np.uint64)
    np.bitwise_or.at(free_mask, unpivoted >> 6, _ONE << (unpivoted & 63).astype(np.uint64))
    pinned = cols[~(M[pivot[cols], :nw] & free_mask).any(axis=1)]
    return {int(unknowns[c]): values[pivot[c], :l] for c in pinned.tolist()}

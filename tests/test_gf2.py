"""Bit-packed GF(2) solver against independent plain-integer eliminations.

``gf2_oracle_solve`` (tests/test_codec.py) gives the values of a system
that determines every unknown; ``_determined`` below gives, for any system,
the set of unknowns it pins down, and ``rank`` its rank (also the precode
tests' oracle). None of them shares code with the library.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrfcodes import gf2
from lrfcodes.errors import InvalidInputError
from test_codec import gf2_oracle_solve


def csr(rows):
    """Index sequences as CSR ``(indptr, indices)``: row r is
    ``indices[indptr[r]:indptr[r + 1]]``."""
    rows = [np.fromiter(r, dtype=np.int64) for r in rows]
    indptr = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum([r.size for r in rows], out=indptr[1:])
    indices = np.concatenate(rows) if rows else np.zeros(0, dtype=np.int64)
    return indptr, indices


def _pivots(rows):
    """Plain-int forward elimination of the rows (index sequences, index j
    as bit j): the reduced rows by their leading bit."""
    pivots = {}
    for idxs in rows:
        mask = 0
        for j in idxs:
            mask ^= 1 << j
        while mask:
            lead = mask.bit_length() - 1
            if lead not in pivots:
                pivots[lead] = mask
                break
            mask ^= pivots[lead]
    return pivots


def rank(rows, unknowns):
    """GF(2) rank of the coefficient matrix of ``rows`` (index sequences)
    over the given unknowns."""
    unknowns = set(unknowns)
    assert all(j in unknowns for r in rows for j in r), "an index is not an unknown"
    return len(_pivots(rows))


def _determined(nu, rows):
    """Unknowns u whose unit vector lies in the span of the rows, i.e. whose
    value every solution shares."""
    pivots = _pivots(rows)
    determined = set()
    for u in range(nu):
        v = 1 << u
        while v and v.bit_length() - 1 in pivots:
            v ^= pivots[v.bit_length() - 1]
        if v == 0:
            determined.add(u)
    return determined


def _system(seed, nu, nrows, l):
    """Random equations over unknowns 0..nu-1 (a few of weight one) and
    their true values."""
    rng = random.Random(seed)
    values = np.random.default_rng(seed).integers(0, 256, size=(nu, l), dtype=np.uint8)
    rows = []
    for _ in range(nrows):
        weight = 1 if rng.random() < 0.15 else rng.randint(2, max(2, nu // 3))
        rows.append(sorted(rng.sample(range(nu), weight)))
    rhs = np.array([np.bitwise_xor.reduce(values[r], axis=0) for r in rows], dtype=np.uint8)
    return rows, rhs, values


def _by_id(solved, ids):
    """``solve_partial``'s records as {ids[column]: value}."""
    return {ids[c]: value for c, value in zip(solved["column"].tolist(), solved["value"])}


def _solve(rows, rhs, ids):
    """solve_partial over unknowns 0..n-1, unknown j solved as column
    ``order[j]`` of a shuffled order; returns {ids[j]: value}."""
    order = list(range(len(ids)))
    random.Random(len(rows)).shuffle(order)
    solved = gf2.solve_partial(csr([[order[j] for j in r] for r in rows]), range(len(ids)), rhs)
    return _by_id(solved, [ids[j] for j in np.argsort(order)])


@pytest.mark.parametrize("nu, extra, l, seed", [
    (1, 0, 8, 1), (40, 10, 5, 2), (64, 4, 8, 3), (65, 8, 16, 4), (150, 30, 12, 5),
    (200, 0, 24, 6),
])
def test_solve_partial_matches_oracle_on_full_rank_systems(nu, extra, l, seed):
    rows, rhs, values = _system(seed, nu, nu + extra, l)
    if len(_determined(nu, rows)) < nu:
        # Top up with unit rows until the system is full rank.
        missing = sorted(set(range(nu)) - _determined(nu, rows))
        rows += [[u] for u in missing]
        rhs = np.concatenate((rhs, values[missing]))
    oracle = gf2_oracle_solve(nu, [(r, rhs[i].tobytes()) for i, r in enumerate(rows)])
    ids = [1000 + 3 * j for j in range(nu)]
    solved = _solve(rows, rhs, ids)
    assert set(solved) == set(ids)
    assert [solved[ids[j]].tobytes() for j in range(nu)] == oracle


@pytest.mark.parametrize("nu, nrows, l, seed", [
    (30, 20, 8, 11), (70, 50, 8, 12), (130, 100, 7, 13), (130, 140, 16, 14),
    (256, 180, 8, 15),
])
def test_solve_partial_matches_oracle_on_rank_deficient_systems(nu, nrows, l, seed):
    rows, rhs, values = _system(seed, nu, nrows, l)
    # Two columns that only ever appear together cannot be separated.
    rows = [sorted(set(r) | {0, 1}) if 0 in r or 1 in r else r for r in rows]
    rhs = np.array([np.bitwise_xor.reduce(values[r], axis=0) for r in rows], dtype=np.uint8)
    equations = [(r, rhs[i].tobytes()) for i, r in enumerate(rows)]
    assert gf2_oracle_solve(nu, equations) is None
    determined = _determined(nu, rows)
    assert 0 not in determined and 1 not in determined
    ids = list(range(nu))
    solved = _solve(rows, rhs, ids)
    assert set(solved) == determined
    for u, value in solved.items():
        assert value.tobytes() == values[u].tobytes()


def test_solve_partial_rejects_inconsistent_systems():
    rows, rhs, _ = _system(21, 100, 120, 8)
    ids = list(range(100))
    _solve(rows, rhs, ids)
    # The sum of two equations, with a flipped right-hand side.
    i, j = next((i, j) for i in range(len(rows)) for j in range(i)
                if set(rows[i]) != set(rows[j]))
    bad = sorted(set(rows[i]) ^ set(rows[j]))
    wrong = rhs[i] ^ rhs[j]
    wrong[0] ^= 1
    with pytest.raises(InvalidInputError):
        _solve(rows + [bad], np.concatenate((rhs, wrong[None])), ids)
    # A unit equation repeated with another value.
    unit = next(r for r in rows if len(r) == 1)
    other = rhs[rows.index(unit)] ^ np.uint8(0x80)
    with pytest.raises(InvalidInputError):
        _solve(rows + [unit], np.concatenate((rhs, other[None])), ids)


def test_solve_partial_rejects_unlisted_indices():
    with pytest.raises(InvalidInputError):
        gf2.solve_partial(csr([[0, 5]]), range(2), np.zeros((1, 4), dtype=np.uint8))


def test_solve_partial_refuses_a_column_past_the_eliminated_ones():
    # Two unknowns and one eliminated column: columns 0..2. Column 3 names
    # nothing, nor does -1, and the unknowns are columns from 0.
    rhs = np.zeros((2, 8), dtype=np.uint8)
    solved = gf2.solve_partial(csr([[0, 2], [0, 1]]), range(2), rhs, eliminate=[[0]])
    assert solved.size == 0
    for bad in ([[0, 3], [0, 1]], [[0, 2], [-1, 1]]):
        with pytest.raises(InvalidInputError, match="column"):
            gf2.solve_partial(csr(bad), range(2), rhs, eliminate=[[0]])
    for unknowns in (2, [0, 1], range(1, 3)):
        with pytest.raises(InvalidInputError, match="range"):
            gf2.solve_partial(csr([[0, 2], [0, 1]]), unknowns, rhs, eliminate=[[0]])


# ---------------------------------------------------------------------------
# Eliminated indices


def _stepped_system(seed, nu, na, nb, nrows, l):
    """Random equations shaped like the precode's, over unknowns 0..nu-1,
    step-1 indices nu..nu+na-1 and step-2 indices after them: a step-1
    pivot row lists its index and unknowns, a step-2 pivot row its index,
    unknowns and step-1 indices, and ``nrows`` further rows list any of
    them. Returns the rows in shuffled order, their right-hand sides, the
    true values and the two steps' pivot rows, by position."""
    rng = random.Random(seed)
    n = nu + na + nb
    values = np.random.default_rng(seed).integers(0, 256, size=(n, l), dtype=np.uint8)
    pivots = [sorted({a, *rng.sample(range(nu), rng.randint(1, 3))}) for a in range(nu, nu + na)]
    pivots += [sorted({b, *rng.sample(range(nu + na), rng.randint(1, (nu + na) // 2))})
               for b in range(nu + na, n)]
    rows = pivots + [sorted(rng.sample(range(n), rng.randint(1, max(1, n // 4))))
                     for _ in range(nrows)]
    order = list(range(len(rows)))
    rng.shuffle(order)
    at = np.argsort(order)
    rows = [rows[i] for i in order]
    rhs = np.array([np.bitwise_xor.reduce(values[r], axis=0) for r in rows], dtype=np.uint8)
    return rows, rhs, values, [at[:na], at[na:na + nb]]


def _solve_stepped(rows, rhs, steps, nu, ids):
    """solve_partial over the rows, index j solved as column j: the unknowns
    0..nu-1, then each step's indices. Returns {ids[j]: value}."""
    return _by_id(gf2.solve_partial(csr(rows), range(nu), rhs, eliminate=steps), ids)


@pytest.mark.parametrize("nu, na, nb, extra, l, seed", [
    (1, 1, 1, 0, 8, 31), (40, 30, 3, 10, 5, 32), (64, 70, 11, 4, 8, 33),
    (100, 241, 11, 20, 16, 34), (150, 5, 0, 30, 12, 35),
    # Rows of 4 KB: a step's gather spans several ``xor_rows`` slices.
    (40, 30, 3, 10, 4096, 36),
])
def test_eliminated_solve_matches_oracle_on_full_rank_systems(nu, na, nb, extra, l, seed):
    rows, rhs, values, steps = _stepped_system(seed, nu, na, nb, nu + extra, l)
    n = nu + na + nb
    missing = sorted(set(range(nu)) - _determined(n, rows))
    rows += [[u] for u in missing]
    rhs = np.concatenate((rhs, values[missing]))
    oracle = gf2_oracle_solve(n, [(r, rhs[i].tobytes()) for i, r in enumerate(rows)])
    ids = [1000 + 3 * j for j in range(n)]
    solved = _solve_stepped(rows, rhs, steps, nu, ids)
    assert set(solved) == set(ids[:nu])
    assert [solved[ids[j]].tobytes() for j in range(nu)] == oracle[:nu]


@pytest.mark.parametrize("nu, na, nb, nrows, l, seed", [
    (30, 20, 3, 15, 8, 41), (70, 60, 5, 40, 8, 42), (130, 241, 11, 90, 7, 43),
])
def test_eliminated_solve_matches_oracle_on_rank_deficient_systems(nu, na, nb, nrows, l, seed):
    rows, rhs, values, steps = _stepped_system(seed, nu, na, nb, nrows, l)
    # Unknowns 0 and 1 only ever appear together, in pivot rows too.
    rows = [sorted(set(r) | {0, 1}) if 0 in r or 1 in r else r for r in rows]
    rhs = np.array([np.bitwise_xor.reduce(values[r], axis=0) for r in rows], dtype=np.uint8)
    determined = _determined(nu + na + nb, rows) & set(range(nu))
    assert 0 not in determined and 1 not in determined
    solved = _solve_stepped(rows, rhs, steps, nu, list(range(nu + na + nb)))
    assert set(solved) == determined
    for u, value in solved.items():
        assert value.tobytes() == values[u].tobytes()


def test_eliminated_solve_finds_inconsistency_after_substitution():
    nu, na, nb = 40, 30, 3
    rows, _, values, steps = _stepped_system(51, nu, na, nb, 50, 8)
    ids = list(range(nu + na + nb))
    p, a = int(steps[0][0]), nu
    # Only step-1 pivot row p lists a, so a flip of its right-hand side
    # moves a's value alone and the system stays consistent.
    rows = [r if i == p else [j for j in r if j != a] for i, r in enumerate(rows)]
    x = next(i for i, r in enumerate(rows) if max(r) < nu)
    # A redundant row: row p plus a row of unknowns only.
    rows.append(sorted(set(rows[p]) ^ set(rows[x])))
    rhs = np.array([np.bitwise_xor.reduce(values[r], axis=0) for r in rows], dtype=np.uint8)
    rhs[p, 0] ^= 1
    _solve_stepped(rows[:-1], rhs[:-1], steps, nu, ids)
    with pytest.raises(InvalidInputError):
        _solve_stepped(rows, rhs, steps, nu, ids)


def test_eliminated_solve_validates_its_steps():
    rows, rhs, _, steps = _stepped_system(61, 20, 10, 2, 30, 8)
    ids = list(range(32))
    want = _solve_stepped(rows, rhs, steps, 20, ids)
    # An empty step changes nothing.
    empty = np.zeros(0, dtype=np.int64)
    for padded in ([empty, *steps], [steps[0], empty, steps[1]], [*steps, empty]):
        got = _solve_stepped(rows, rhs, padded, 20, ids)
        assert got.keys() == want.keys()
        assert all((got[u] == want[u]).all() for u in want)
    # A column past the unknowns' and the steps'.
    with pytest.raises(InvalidInputError):
        _solve_stepped(rows + [[0, 32]], np.concatenate((rhs, rhs[:1])), steps, 20, ids + [32])
    # A step-1 equation that lists a step-2 column, and one unknown more,
    # which moves each step's columns off its equations' own.
    bad = [sorted(set(r) | {30}) if i == steps[0][0] else r for i, r in enumerate(rows)]
    with pytest.raises(InvalidInputError):
        _solve_stepped(bad, rhs, steps, 20, ids)
    with pytest.raises(InvalidInputError):
        _solve_stepped(rows, rhs, steps, 21, ids)


def test_rank_counts_independent_rows():
    assert rank([[0, 1], [1, 2], [0, 2]], range(3)) == 2
    assert rank([[j] for j in range(70)] + [[3, 69]], range(70)) == 70


# ---------------------------------------------------------------------------
# Sparse row XOR


def _xor_rows_loop(src, indptr, indices):
    """``xor_rows`` one entry at a time, each row of ``src`` as a Python int."""
    l = src.shape[1]
    values = [int.from_bytes(row.tobytes(), "little") for row in src]
    out = np.zeros((indptr.size - 1, l), dtype=np.uint8)
    for r in range(indptr.size - 1):
        acc = 0
        for j in indices[indptr[r]:indptr[r + 1]].tolist():
            acc ^= values[j]
        out[r] = np.frombuffer(acc.to_bytes(l, "little"), dtype=np.uint8)
    return out


def _check_xor_rows(src, indptr, indices, seed=0):
    # ``out`` starts non-zero: xor_rows XORs into it.
    out = np.random.default_rng(seed).integers(0, 256, size=(indptr.size - 1, src.shape[1]),
                                               dtype=np.uint8)
    want = out ^ _xor_rows_loop(src, indptr, indices)
    gf2.xor_rows(gf2.words(out), gf2.words(src), indptr, indices)
    np.testing.assert_array_equal(out, want)


def _span(l):
    """Entries of l bytes in one ``xor_rows`` slice."""
    return max(1, gf2._GATHER_BYTES // l)


@pytest.mark.parametrize("l", [5, 16, 128, 512, 1024, 4096])
def test_xor_rows_matches_a_per_row_loop(l):
    # l = 5 runs on the uint8 matrix, the others on its uint64 words; a
    # slice of a few rows of 512 bytes or more is reduced one row at a time.
    rng = np.random.default_rng(l)
    src = rng.integers(0, 256, size=(40, l), dtype=np.uint8)
    assert gf2.words(src).dtype == (np.uint64 if l % 8 == 0 else np.uint8)
    # Mixed lengths, several rows of each, empty rows among them.
    lengths = rng.choice([0, 1, 3, 7, 40], size=30)
    indptr, indices = csr(rng.choice(40, size=n, replace=False) for n in lengths)
    _check_xor_rows(src, indptr, indices)
    # Row pointers sliced out of a larger matrix start past 0.
    _check_xor_rows(src, indptr[7:], indices)
    _check_xor_rows(src, indptr[7:8], indices)
    _check_xor_rows(src, *csr([[] for _ in range(4)]))


def test_xor_rows_beyond_the_gather_bound():
    # One length group of 700 rows x 4 entries x 128 bytes, and one row of
    # 3000 entries, each gathers more than the bound allows at once.
    rng = np.random.default_rng(3)
    src = rng.integers(0, 256, size=(3000, 128), dtype=np.uint8)
    assert 700 * 4 * 128 > gf2._GATHER_BYTES and 3000 * 128 > gf2._GATHER_BYTES
    rows = [rng.choice(3000, size=4, replace=False) for _ in range(700)] + [np.arange(3000)]
    indptr, indices = csr(rows)
    _check_xor_rows(src, indptr, indices)
    # Long rows of 512 bytes: a row longer than a slice is gathered alone, a
    # slice at a time, each piece taking one partial XOR.
    wide = rng.integers(0, 256, size=(3000, 512), dtype=np.uint8)
    assert 1000 * 512 > gf2._GATHER_BYTES
    indptr, indices = csr([rng.choice(3000, size=n, replace=False)
                               for n in (1000, 3, 2900, 700, 1)])
    _check_xor_rows(wide, indptr, indices)


@pytest.mark.parametrize("l", [512, 1024, 4096])
def test_xor_rows_slices_end_on_row_boundaries(l):
    # Rows of one entry short of a slice, a slice, one entry more and three
    # slices, between empty rows first and last: a slice ends where a row
    # ends unless the row alone is longer.
    span = _span(l)
    rng = np.random.default_rng(l + 1)
    src = rng.integers(0, 256, size=(4 * span, l), dtype=np.uint8)
    lengths = [0, span - 1, 1, span, span + 1, 0, 3 * span, 2, span - 1, 0]
    indptr, indices = csr(rng.integers(0, 4 * span, size=n) for n in lengths)
    _check_xor_rows(src, indptr, indices)
    _check_xor_rows(src, indptr[3:], indices)
    # More than _FEW_SEGMENTS wide rows in one slice take one reduceat.
    many = 2 * gf2._FEW_SEGMENTS
    assert many * 2 <= span
    _check_xor_rows(src, *csr(rng.integers(0, 4 * span, size=2) for _ in range(many)))


@pytest.mark.parametrize("l", [8, 560, 4096])
def test_xor_rows_writes_into_its_own_source(l):
    # The substitution steps of solve_partial XOR rows of M into other rows
    # of M: out is src, and no row written is a row read. One row is longer
    # than a slice.
    rng = np.random.default_rng(l)
    n = 600
    M = rng.integers(0, 256, size=(n, l), dtype=np.uint8)
    read = rng.choice(n, size=n // 3, replace=False)
    lengths = rng.choice([0, 0, 1, 4, 7], size=n)
    lengths[read] = 0
    lengths[np.setdiff1d(np.arange(n), read)[0]] = _span(l) + 2
    indptr, indices = csr(rng.choice(read, size=k) for k in lengths)
    want = M ^ _xor_rows_loop(M, indptr, indices)
    gf2.xor_rows(gf2.words(M), gf2.words(M), indptr, indices)
    np.testing.assert_array_equal(M, want)


@settings(max_examples=80, deadline=None)
@given(l=st.sampled_from([5, 16, 128, 512, 1024, 4096]),
       lengths=st.lists(st.one_of(st.integers(0, 12), st.sampled_from(["span-1", "span", "span+1",
                                                                       "3span"])), max_size=12),
       skip=st.integers(0, 2), seed=st.integers(0, 2**32 - 1))
def test_xor_rows_matches_the_loop_on_any_csr_shape(l, lengths, skip, seed):
    # Row lengths around the slice size, and the first ``skip`` rows of
    # 3 entries cut off, so that indptr starts past 0.
    span = _span(l)
    named = {"span-1": span - 1, "span": span, "span+1": span + 1, "3span": 3 * span}
    rng = np.random.default_rng(seed)
    src = rng.integers(0, 256, size=(int(rng.integers(1, 50)), l), dtype=np.uint8)
    indptr, indices = csr(rng.integers(0, len(src), size=named.get(n, n))
                          for n in [3] * skip + lengths)
    _check_xor_rows(src, indptr[skip:], indices, seed)

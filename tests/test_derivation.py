"""Batch derivation of seeds, degrees and neighbor sets.

Neighbor sets are checked against a pure-Python statement of their
definition, for exact uniformity over all C(w, d) subsets, and against the
hypergeometric hit probabilities the loss-aware analysis rests on. Every
test runs at fixed seeds, so each is deterministic.
"""

import hashlib
import math
from itertools import combinations

import numpy as np
import pytest

from lrfcodes import codec
from lrfcodes.codec import (_CANDIDATE_CHUNK, MAX_WINDOW, WIRE_HEADER, SourceBlock,
                            derive_degree, derive_degrees, derive_seed, derive_seeds,
                            encode_stream, neighbor_sets, pack_batch, select_neighbors,
                            unpack_batch)
from lrfcodes.distributions import (DegreeDistribution, LossContext, ideal_soliton,
                                    lr_raptor_dist, lrf_ideal, recovery_probability,
                                    robust_soliton)
from lrfcodes.errors import InvalidInputError, InvalidParameterError
from test_codec import assert_same_columns, encode_one

MASK = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15


def reference_neighbors(seed, w, d):
    """The neighbor-set definition, one draw at a time: the first
    k = min(d, w - d) distinct accepted values of derive_seed(seed, j) mod w,
    or their complement when d > w/2."""
    k = min(d, w - d)
    limit = (1 << 64) - (1 << 64) % w
    drawn, j = [], 0
    while len(drawn) < k:
        x = derive_seed(seed, j)
        j += 1
        if x < limit and x % w not in drawn:
            drawn.append(x % w)
    return sorted(drawn) if 2 * d <= w else sorted(set(range(w)) - set(drawn))


def chi_square_critical(df, z=3.09):
    """Wilson-Hilferty approximation of the chi-square quantile at normal
    deviate z (3.09: upper 0.1 %)."""
    return df * (1 - 2 / (9 * df) + z * math.sqrt(2 / (9 * df))) ** 3


def unmix(y):
    """Inverse of the splitmix64 output function, so a test can pick a seed
    whose first draw is a chosen value."""
    def unxorshift(v, s):
        x = v
        for _ in range(64 // s + 1):
            x = v ^ (x >> s)
        return x
    y = unxorshift(y, 31)
    y = (y * pow(0x94D049BB133111EB, -1, 1 << 64)) & MASK
    y = unxorshift(y, 27)
    y = (y * pow(0xBF58476D1CE4E5B9, -1, 1 << 64)) & MASK
    return unxorshift(y, 30)


# ---------------------------------------------------------------------------
# Seeds


def test_derive_seeds_matches_splitmix64_reference():
    np.testing.assert_array_equal(
        derive_seeds(0, [0, 1, 2]),
        np.array([0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F],
                 dtype=np.uint64))


@pytest.mark.parametrize("base", [0, 1, 0x0123456789ABCDEF, MASK])
def test_derive_seeds_equals_scalar_near_the_wrap(base):
    ids = [0, 1, 2**32, 2**63 - 1, 2**63, MASK - 2, MASK - 1, MASK]
    got = derive_seeds(base, ids)
    assert got.dtype == np.uint64
    assert got.tolist() == [derive_seed(base, i) for i in ids]


def test_derive_seeds_broadcasts_over_bases():
    bases = np.array([3, MASK, 2**63], dtype=np.uint64)
    assert derive_seeds(bases, 7).tolist() == [derive_seed(int(b), 7) for b in bases]


# ---------------------------------------------------------------------------
# Neighbor sets


def test_neighbor_sets_match_reference_definition():
    rng = np.random.default_rng(12)
    for w in (1, 2, 3, 5, 7, 16, 31, 64, 10_007, MAX_WINDOW):
        seeds = rng.integers(0, 2**64, size=50, dtype=np.uint64)
        degrees = rng.integers(1, min(w, 64) + 1, size=50)
        indptr, indices = neighbor_sets(seeds, w, degrees)
        for i, (seed, d) in enumerate(zip(seeds.tolist(), degrees.tolist())):
            assert indices[indptr[i]:indptr[i + 1]].tolist() == reference_neighbors(seed, w, d)


def test_neighbor_sets_independent_of_batch():
    # A batch large enough to be drawn in several chunks gives every symbol
    # the set it gets alone.
    w = 4096
    seeds = derive_seeds(5, np.arange(20_000))
    degrees = derive_degrees(seeds, robust_soliton(w, 0.5, 0.1))
    indptr, indices = neighbor_sets(seeds, w, degrees)
    assert indptr[-1] > 10 * _CANDIDATE_CHUNK
    for i in range(0, seeds.size, 613):
        nb = indices[indptr[i]:indptr[i + 1]]
        np.testing.assert_array_equal(nb, select_neighbors(int(seeds[i]), w, int(degrees[i])))
        assert nb.tolist() == reference_neighbors(int(seeds[i]), w, int(degrees[i]))


def test_draws_in_the_top_partial_range_are_rejected():
    # The first draw of this seed is 2**64 - 1, above the largest multiple of
    # w (none of these w divides 2**64), so the set starts at the second draw.
    seed = (unmix(MASK) - GAMMA) & MASK
    assert derive_seed(seed, 0) == MASK
    for w in (3, 5, 10, 10_007, MAX_WINDOW - 1):
        second = derive_seed(seed, 1) % w
        assert MASK % w != second  # keeping the first draw would give another set
        assert select_neighbors(seed, w, 1).tolist() == [second]
        assert select_neighbors(seed, w, 1).tolist() == reference_neighbors(seed, w, 1)
        for d in (2, 5, 40):
            if d <= w:
                assert select_neighbors(seed, w, d).tolist() == reference_neighbors(seed, w, d)


def test_a_stream_short_of_distinct_values_is_redrawn():
    # Seed 40's first six draws at w = 7 hold only the values 3 and 4: a
    # degree-3 row drawn with a margin of three repeats is still short, and
    # its set comes from a longer stream. The other rows of its batch keep
    # theirs.
    w, seed = 7, 40
    assert {derive_seed(seed, j) % w for j in range(6)} == {3, 4}
    seeds = np.concatenate(([seed], derive_seeds(2, np.arange(40)), [seed])).astype(np.uint64)
    degrees = np.full(seeds.size, 3)
    degrees[1::3] = 4
    indptr, indices = neighbor_sets(seeds, w, degrees)
    for i, (s, d) in enumerate(zip(seeds.tolist(), degrees.tolist())):
        assert indices[indptr[i]:indptr[i + 1]].tolist() == reference_neighbors(s, w, d)
    assert indices[:3].tolist() == reference_neighbors(seed, w, 3) == [3, 4, 6]


def test_packed_sort_key_fits_at_max_window(monkeypatch):
    # The fullest chunk at MAX_WINDOW: a row drawing w / 2 distinct values
    # (about w draws) and the single draws of the rows that end in the same
    # chunk. Its sort keys take 13 row bits, 20 value bits and 21 bits of
    # draw index, well inside int64's 63.
    w, n = MAX_WINDOW, _CANDIDATE_CHUNK
    chunks = []
    draw_rows = codec._draw_rows
    monkeypatch.setattr(codec, "_draw_rows", lambda seeds, w, k, draws, *rest: (
        chunks.append((k.size, int(draws.sum()))) or draw_rows(seeds, w, k, draws, *rest)))
    seeds = derive_seeds(21, np.arange(n))
    degrees = np.ones(n, dtype=np.int64)
    degrees[0] = w // 2
    indptr, indices = neighbor_sets(seeds, w, degrees)
    rows, draws = chunks[0]
    assert rows > n - 8 and draws > w
    assert (rows - 1).bit_length() + (w - 1).bit_length() + draws.bit_length() <= 63 - 8
    # Row 0 against the definition, by numpy over a stream long enough to
    # hold w / 2 distinct values (w divides 2**64: nothing is rejected).
    values = derive_seeds(int(seeds[0]), np.arange(2 * w)) % np.uint64(w)
    firsts = np.sort(np.unique(values, return_index=True)[1])[:w // 2]
    np.testing.assert_array_equal(indices[:w // 2], np.sort(values[firsts]))
    for i in range(1, n, 331):
        assert indices[indptr[i]:indptr[i + 1]].tolist() == reference_neighbors(int(seeds[i]), w, 1)


def golden_batch(w, n):
    """n symbols each of robust soliton, ``lrf_ideal`` and ``lr_raptor_dist``
    degrees over w, then the edge degrees 1, w // 2, w // 2 + 1 and w."""
    ctx = LossContext(w, max(1, w // 50))
    dists = (robust_soliton(w, 0.5, 0.1), lrf_ideal(ctx),
             lr_raptor_dist(ctx, min(w, 4 * -(-w // ctx.m))))
    seeds = derive_seeds(w, np.arange(3 * n + 4))
    degrees = [derive_degrees(seeds[i * n:(i + 1) * n], d) for i, d in enumerate(dists)]
    return seeds, np.concatenate(degrees + [np.clip([1, w // 2, w // 2 + 1, w], 1, w)])


@pytest.mark.parametrize("w,n,digest", [
    (1, 20, "4b0aa5f1f4a9fac4"), (2, 50, "5d250cca1a1439e2"), (7, 100, "e6f505c07947e0b9"),
    (64, 200, "84172740a6d1f9fb"), (4096, 1000, "34fb3a4595ad231c"),
    (10_000, 300, "65373ad7a9303a51"), (10_252, 300, "f318d84be2fa1517"),
    (MAX_WINDOW, 40, "ec5cbdb74cc81e83")])
def test_neighbor_sets_golden_digests(w, n, digest):
    # The wire format names this derivation (WIRE_VERSION 1): a decoder
    # re-derives every set from (seed, degree), so the sets are pinned bit
    # for bit. The batches at w >= 4096 span several candidate chunks, and
    # at w = 4096 to 10,252 some of their rows come up short and are drawn
    # again.
    seeds, degrees = golden_batch(w, n)
    if w >= 4096:
        assert np.minimum(degrees, w - degrees).sum() > 3 * _CANDIDATE_CHUNK
    indptr, indices = neighbor_sets(seeds, w, degrees)
    got = hashlib.sha256(indptr.astype("<i8").tobytes() + indices.astype("<i8").tobytes())
    assert got.hexdigest()[:16] == digest


@pytest.mark.parametrize("w,d", [(6, 1), (9, 1), (7, 2), (7, 3), (6, 3), (6, 4), (7, 5), (8, 7)])
def test_neighbor_sets_exactly_uniform(w, d):
    # Exact chi-square over every one of the C(w, d) subsets.
    cells = math.comb(w, d)
    n = 300 * cells
    indptr, indices = neighbor_sets(derive_seeds(1000 * w + d, np.arange(n)), w,
                                    np.full(n, d))
    sets = indices.reshape(n, d)
    codes = (np.left_shift(1, sets)).sum(axis=1)
    counts = {sum(1 << j for j in c): 0 for c in combinations(range(w), d)}
    for code, c in zip(*np.unique(codes, return_counts=True)):
        assert int(code) in counts
        counts[int(code)] = int(c)
    expected = n / cells
    chi2 = sum((c - expected) ** 2 / expected for c in counts.values())
    assert chi2 < chi_square_critical(cells - 1), (chi2, cells)


def test_full_degree_is_every_index():
    indptr, indices = neighbor_sets(derive_seeds(4, np.arange(5)), 9, np.full(5, 9))
    np.testing.assert_array_equal(indices, np.tile(np.arange(9), 5))


@pytest.mark.parametrize("d", [2, 5, 12, 40, 55])
def test_hit_histogram_matches_recovery_probability(d):
    # Hits of a fixed lost set follow C(m,i) C(n,d-i) / C(w,d), also for the
    # complement path (d > w/2).
    w, m, n = 60, 12, 20_000
    lost = np.zeros(w, dtype=bool)
    lost[np.random.default_rng(3).choice(w, m, replace=False)] = True
    indptr, indices = neighbor_sets(derive_seeds(77 + d, np.arange(n)), w, np.full(n, d))
    hits = np.add.reduceat(lost[indices].astype(np.int64), indptr[:-1])
    ctx = LossContext(w, m)
    observed, expected = [], []
    for i in range(0, min(d, m) + 1):
        expected.append(n * recovery_probability(ctx, d, i))
        observed.append(int((hits == i).sum()))
    # Pool cells with small expectation so the chi-square approximation holds.
    obs_bins, exp_bins = [0], [0.0]
    for o, e in zip(observed, expected):
        if exp_bins[-1] >= 5:
            obs_bins.append(0)
            exp_bins.append(0.0)
        obs_bins[-1] += o
        exp_bins[-1] += e
    if exp_bins[-1] < 5 and len(exp_bins) > 1:
        o, e = obs_bins.pop(), exp_bins.pop()
        obs_bins[-1] += o
        exp_bins[-1] += e
    assert sum(obs_bins) == n
    chi2 = sum((o - e) ** 2 / e for o, e in zip(obs_bins, exp_bins))
    if len(exp_bins) > 1:
        assert chi2 < chi_square_critical(len(exp_bins) - 1), (chi2, obs_bins, exp_bins)


def test_neighbor_sets_reject_bad_degrees_and_windows():
    for bad in ([0], [3, 11], [-1]):
        with pytest.raises(InvalidParameterError):
            neighbor_sets(derive_seeds(1, np.arange(len(bad))), 10, bad)
    for w in (0, MAX_WINDOW + 1):
        with pytest.raises(InvalidParameterError):
            neighbor_sets(derive_seeds(1, [0]), w, [1])


def test_empty_batch():
    indptr, indices = neighbor_sets(np.zeros(0, dtype=np.uint64), 10, [])
    assert indptr.tolist() == [0] and indices.size == 0
    assert len(encode_stream(SourceBlock.random(4, 2, seed=1), ideal_soliton(4), 1, 0)) == 0


# ---------------------------------------------------------------------------
# Batch encoder against the batch-of-one calls


def test_encode_stream_equals_encode_symbol_and_wire_rederivation():
    w, l = 40, 8
    blk = SourceBlock.random(w, l, seed=6)
    # Degrees 20..40, so the complement path is exercised too.
    dist = lrf_ideal(LossContext(w, 2))
    base, start = 0xFEED, 11
    syms = encode_stream(blk, dist, base, 60, start_id=start)
    assert (2 * syms.degrees > w).any()
    for i, sym_id in enumerate(syms.ids.tolist()):
        seed = derive_seed(base, sym_id)
        sym = syms.select([i])
        assert_same_columns(sym, encode_one(blk, dist, seed, sym_id))
        assert sym.degrees[0] == derive_degree(seed, dist)
        buf = pack_batch(sym)
        assert len(buf) == WIRE_HEADER.size + 20 + l
        assert_same_columns(unpack_batch(buf).resolved(w), sym)
    buf = pack_batch(syms)
    assert len(buf) == WIRE_HEADER.size + 60 * (20 + l)
    assert_same_columns(unpack_batch(buf).resolved(w), syms)
    assert syms.ids.tolist() == list(range(start, start + 60))


@pytest.mark.parametrize("l", [5, 64])
def test_encode_stream_payloads_are_xor_of_block_rows(l):
    # Reference: each payload is the Python-int XOR of its neighbors' rows.
    # Degree 3 takes its draws, 12 their complement, 16 the whole block.
    w = 16
    blk = SourceBlock.random(w, l, seed=l)
    dist = DegreeDistribution(w, np.array([3, 12, 16]), np.array([0.4, 0.4, 0.2]))
    syms = encode_stream(blk, dist, 5, 300)
    assert set(syms.degrees.tolist()) == {3, 12, 16}
    ints = [int.from_bytes(row.tobytes(), "little") for row in blk.data]
    for i in range(len(syms)):
        acc = 0
        for j in syms.indices[syms.indptr[i]:syms.indptr[i + 1]].tolist():
            acc ^= ints[j]
        assert syms.payloads[i].tobytes() == acc.to_bytes(l, "little")


def test_start_id_continues_the_stream():
    w = 64
    blk = SourceBlock.random(w, 4, seed=2)
    dist = robust_soliton(w, 0.5, 0.1)
    whole = encode_stream(blk, dist, 3, 50)
    head, tail = encode_stream(blk, dist, 3, 20), encode_stream(blk, dist, 3, 30, start_id=20)
    assert_same_columns(whole.select(slice(20)), head)
    assert_same_columns(whole.select(slice(20, None)), tail)


def test_degrees_follow_the_distribution():
    # The splitmix-derived uniforms reproduce the degree law (chi-square over
    # the ideal soliton on w = 8).
    dist = ideal_soliton(8)
    n = 40_000
    degrees = derive_degrees(derive_seeds(9, np.arange(n)), dist)
    observed = np.bincount(degrees, minlength=9)[1:]
    expected = n * dist.probs
    chi2 = float(((observed - expected) ** 2 / expected).sum())
    assert chi2 < chi_square_critical(7)


# ---------------------------------------------------------------------------
# Wire header version


def test_wire_version_roundtrip_and_rejection():
    blk = SourceBlock.random(8, 4, seed=1)
    sym = encode_one(blk, ideal_soliton(8), seed=77, symbol_id=3)
    batch = encode_stream(blk, ideal_soliton(8), 77, 5, start_id=3)
    for want in (sym, batch):
        buf = pack_batch(want)
        assert_same_columns(unpack_batch(buf).resolved(8), want)
        for version in (0, 2, 255):
            with pytest.raises(InvalidInputError, match="version"):
                unpack_batch(bytes([version]) + buf[1:])
        with pytest.raises(InvalidInputError, match="header"):
            unpack_batch(buf[:WIRE_HEADER.size - 1])
        with pytest.raises(InvalidInputError, match="body"):
            unpack_batch(buf[:-1])

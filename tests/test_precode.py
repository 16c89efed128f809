"""Precode construction, constraint, and composed codec tests."""

import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lrfcodes import gf2, precode
from lrfcodes.codec import PeelDecoder, SourceBlock, derive_seed, encode_stream
from lrfcodes.distributions import LossContext, lr_raptor_dist, robust_soliton
from lrfcodes.errors import (DecodeFailure, InvalidInputError,
                             InvalidParameterError)
from lrfcodes.precode import PrecodeConfig, constraint_matrix, precode_expand, precode_solve
from test_codec import batch_of, peeled
from test_gf2 import csr, rank

CFG = PrecodeConfig(k=24, s=5, h=3, seed=7)


def _block(k=CFG.k, l=8, seed=0):
    return SourceBlock.random(k, l, seed)


def _decoder(inter, missing=()):
    """A decoder over an intermediate block holding all its rows but ``missing``."""
    decoder = PeelDecoder(inter.w, inter.l)
    decoder.add_natives(inter.data, ~np.isin(np.arange(inter.w), list(missing)))
    return decoder


def natives_of(decoder, cfg=CFG):
    """``precode_solve`` into a new zeroed (k, l) matrix, which it returns."""
    return precode_solve(decoder, cfg, np.zeros((cfg.k, decoder.l), dtype=np.uint8))


def constraint_rows(cfg):
    """Each parity constraint's sorted index tuple over the intermediates."""
    indptr, indices = constraint_matrix(cfg)
    return [tuple(indices[lo:hi].tolist()) for lo, hi in zip(indptr[:-1], indptr[1:])]


def members_of(cfg):
    """Each constraint row of ``constraint_matrix`` less its own parity, the
    last entry: (sparse rows, dense rows)."""
    indptr, indices = constraint_matrix(cfg)
    rows = [indices[lo:hi - 1] for lo, hi in zip(indptr[:-1], indptr[1:])]
    return rows[:cfg.s], rows[cfg.s:]


# ---------------------------------------------------------------------------
# Construction


def test_config_validation():
    with pytest.raises(InvalidParameterError):
        PrecodeConfig(k=0, s=1, h=1)
    with pytest.raises(InvalidParameterError):
        PrecodeConfig(k=4, s=0, h=0)
    assert PrecodeConfig(k=4, s=1, h=0).total == 5


@pytest.mark.parametrize("k, s, h", [(2.5, 1, 2), (4, 1.5, 1), (4, 1, True)])
def test_config_sizes_are_integers(k, s, h):
    # Accepted unchecked, k = 2.5 made a precode of 5.5 intermediates.
    with pytest.raises(InvalidParameterError):
        PrecodeConfig(k=k, s=s, h=h)
    assert PrecodeConfig(k=np.int64(4), s=np.int64(1), h=np.int64(0)).total == 5


@pytest.mark.parametrize("seed", [1.5, True, -1])
def test_config_seed_is_an_integer_from_zero(seed):
    # The construction stopped on a float seed with a bare TypeError, True ran
    # as seed 1, and a numpy seed overflowed in derive_seed.
    with pytest.raises(InvalidParameterError, match="seed"):
        PrecodeConfig(20, 2, 2, seed=seed)
    for a, b in zip(*(members_of(PrecodeConfig(20, 2, 2, seed=s)) for s in (3, np.int64(3)))):
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x, y)


def test_parity_rows_shape_and_coverage():
    sparse, dense = members_of(CFG)
    assert len(sparse) == CFG.s
    assert len(dense) == CFG.h
    covered = np.zeros(CFG.k, dtype=bool)
    for row in sparse:
        assert row.size > 0
        assert row.min() >= 0 and row.max() < CFG.k
        covered[row] = True
    assert covered.all(), "every native must feed at least one sparse parity"
    for row in dense:
        assert row.size > 0
        assert row.max() < CFG.k + CFG.s


def test_parity_rows_deterministic():
    a = members_of(PrecodeConfig(k=24, s=5, h=3, seed=7))
    b = members_of(PrecodeConfig(k=24, s=5, h=3, seed=7))
    for x, y in zip(a[0] + a[1], b[0] + b[1]):
        np.testing.assert_array_equal(x, y)


def test_parity_rows_vary_with_seed():
    a = members_of(PrecodeConfig(k=64, s=9, h=3, seed=1))
    b = members_of(PrecodeConfig(k=64, s=9, h=3, seed=2))
    assert any(x.tolist() != y.tolist() for x, y in zip(a[1], b[1]))


# ---------------------------------------------------------------------------
# Expansion


def test_expand_is_systematic():
    blk = _block()
    inter = precode_expand(blk, CFG)
    assert isinstance(inter, SourceBlock)
    assert inter.w == CFG.total
    np.testing.assert_array_equal(inter.data[:CFG.k], blk.data)


def test_expand_constraints_xor_to_zero():
    blk = _block()
    inter = precode_expand(blk, CFG)
    for row in constraint_rows(CFG):
        acc = np.bitwise_xor.reduce(inter.data[list(row)], axis=0)
        assert acc.tobytes() == bytes(blk.l)


def test_expand_rejects_wrong_block_size():
    with pytest.raises(InvalidParameterError):
        precode_expand(_block(k=10), CFG)


def _reference_parity_rows(cfg):
    """The parity structure by a per-native loop, with the attempt that
    succeeded (None if every attempt failed)."""
    k, s, h = cfg.k, cfg.s, cfg.h
    for attempt in range(precode._MAX_CONSTRUCTION_ATTEMPTS):
        rng = np.random.default_rng(derive_seed(cfg.seed + attempt, 0x5C0DE))
        sparse = [[] for _ in range(s)]
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
        dense = []
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
        if all(row for row in sparse) and all(row.size for row in dense) and covered.all():
            return ([np.array(sorted(set(r)), dtype=np.int64) for r in sparse], dense), attempt
    return None, None


# s = 0, s < 3 and h = 0; (3, 0, 1) and (5, 0, 2) retry at some seeds, and
# (1, 4, 0) leaves a sparse row empty at every attempt.
@pytest.mark.parametrize("shape", [(24, 5, 3), (64, 9, 3), (50, 0, 4), (40, 1, 2), (40, 2, 0),
                                   (7, 3, 0), (3, 0, 1), (5, 0, 2), (1, 4, 0), (1, 1, 1)])
def test_parity_rows_match_the_per_native_loop(shape):
    attempts = set()
    for seed in range(12):
        cfg = PrecodeConfig(*shape, seed=seed)
        expected, attempt = _reference_parity_rows(cfg)
        attempts.add(attempt)
        if expected is None:
            with pytest.raises(InvalidParameterError):
                constraint_matrix(cfg)
            continue
        sparse, dense = members_of(cfg)
        assert (len(sparse), len(dense)) == (cfg.s, cfg.h)
        for got, want in zip(sparse + dense, expected[0] + expected[1]):
            assert got.dtype == np.int32
            np.testing.assert_array_equal(got, want)
    if shape in ((3, 0, 1), (5, 0, 2)):
        assert max(attempts) > 0, "no seed exercised a retried construction"
    if shape == (1, 4, 0):
        assert attempts == {None}


@pytest.mark.parametrize("h", [1, 8, 9, 17])
@pytest.mark.parametrize("l", [8, 5])
def test_bucketed_dense_xor_matches_plain_xor_rows(h, l):
    # Each dense constraint row through the buckets equals the plain CSR
    # XOR of its members.
    cfg = PrecodeConfig(k=90, s=4, h=h, seed=h)
    indptr, indices = constraint_matrix(cfg)
    rng = np.random.default_rng(h)
    src = rng.integers(0, 256, size=(cfg.total, l), dtype=np.uint8)
    start = rng.integers(0, 256, size=(h, l), dtype=np.uint8)
    got, want = start.copy(), start.copy()
    precode._xor_dense(gf2.words(got), gf2.words(src), cfg)
    gf2.xor_rows(gf2.words(want), gf2.words(src), indptr[cfg.s:], indices)
    np.testing.assert_array_equal(got, want)
    # The layout lists every dense entry once: a bucket per pattern of rows.
    for lo, hi, (b_ptr, members), (r_ptr, r_buckets) in precode.dense_buckets(cfg):
        assert b_ptr.size == (1 << (hi - lo)) + 1 and b_ptr[1] == 0
        assert members.size == np.unique(indices[indptr[lo]:indptr[hi]]).size
        assert (np.diff(r_ptr) == 1 << (hi - lo - 1)).all()


class _Captured(Exception):
    pass


@pytest.mark.parametrize("k, s, h", [(4, 1, 1), (5, 2, 1), (6, 3, 1), (10, 3, 2), (2, 3, 1),
                                     (1000, 241, 3), (200, 241, 2)])
def test_rolled_sparse_parities_match_the_csr_gather(k, s, h):
    # The rolled fold of the natives equals the CSR gather of the sparse
    # constraint rows: in ``precode_expand``'s parities, and in
    # ``precode_solve``'s right-hand sides over rows that are no codeword.
    cfg = PrecodeConfig(k=k, s=s, h=h, seed=k + s)
    indptr, indices = constraint_matrix(cfg)
    blk = _block(k=k, l=8, seed=k)
    natives = np.zeros((cfg.total, 8), dtype=np.uint8)
    natives[:k] = blk.data
    want = np.zeros((s, 8), dtype=np.uint8)
    gf2.xor_rows(gf2.words(want), gf2.words(natives), indptr[:s + 1], indices)
    np.testing.assert_array_equal(precode_expand(blk, cfg).data[k:k + s], want)

    # One missing native per residue mod s leaves every sparse row an
    # uncovered member, and no more unknowns than constraints.
    rows = np.random.default_rng(s).integers(0, 256, size=(cfg.total, 8), dtype=np.uint8)
    missing = min(k, s)
    decoder = PeelDecoder(cfg.total, 8)
    decoder.add_natives(rows, np.arange(cfg.total) >= missing)
    want = np.zeros((s + h, 8), dtype=np.uint8)
    gf2.xor_rows(gf2.words(want), gf2.words(decoder.payloads), indptr, indices)
    listed = np.add.reduceat(~decoder.covered[indices], indptr[:-1]) > 0
    assert listed[:s].all()
    with mock.patch.object(gf2, "solve_partial", side_effect=_Captured) as solve:
        with pytest.raises(_Captured):
            natives_of(decoder, cfg)
    np.testing.assert_array_equal(solve.call_args.args[2], want[listed])


# ---------------------------------------------------------------------------
# Constraint solving


def test_precode_solve_single_erasure_sweep():
    blk = _block()
    inter = precode_expand(blk, CFG)
    for missing in range(CFG.total):
        natives = natives_of(_decoder(inter, {missing}))
        np.testing.assert_array_equal(natives, blk.data)


def test_precode_solve_multi_erasure_random():
    rng = random.Random(5)
    blk = _block()
    inter = precode_expand(blk, CFG)
    solved = 0
    for _ in range(50):
        missing = set(rng.sample(range(CFG.total), 3))
        try:
            natives = natives_of(_decoder(inter, missing))
        except DecodeFailure:
            continue  # genuinely underdetermined patterns are allowed
        np.testing.assert_array_equal(natives, blk.data)
        solved += 1
    assert solved > 25


def test_precode_solve_agrees_with_rank_oracle():
    # Whenever the constraint matrix restricted to the erased columns has
    # full column rank, the solver must succeed; when it cannot, it must
    # refuse rather than fabricate values.
    rng = random.Random(11)
    cfg = PrecodeConfig(k=12, s=4, h=2, seed=3)
    blk = _block(k=12, seed=2)
    inter = precode_expand(blk, cfg)
    rows = constraint_rows(cfg)
    checked_full = checked_deficient = 0
    for _ in range(200):
        missing = set(rng.sample(range(cfg.total), rng.randint(1, 6)))
        sub_rows = [tuple(i for i in r if i in missing) for r in rows]
        full_rank = rank([r for r in sub_rows if r], missing) == len(missing)
        try:
            natives = natives_of(_decoder(inter, missing), cfg)
            ok = True
        except DecodeFailure:
            ok = False
        if full_rank:
            assert ok
            np.testing.assert_array_equal(natives, blk.data)
            checked_full += 1
        elif ok:
            # Partial solves may still pin down all *natives* even when some
            # parity stays free; the recovered natives must be correct.
            np.testing.assert_array_equal(natives, blk.data)
        else:
            checked_deficient += 1
    assert checked_full > 20
    assert checked_deficient > 5


def test_precode_solve_writes_into_out_only_when_it_succeeds():
    # ``out`` is filled and returned on success; a failure, before or after
    # the elimination, leaves it as it was.
    rng = random.Random(13)
    cfg = PrecodeConfig(k=12, s=4, h=2, seed=3)
    blk = _block(k=12, seed=4)
    inter = precode_expand(blk, cfg)
    outcomes = set()
    for _ in range(200):
        missing = set(rng.sample(range(cfg.total), rng.randint(1, 6)))
        out = np.full((cfg.k, 8), 0xA5, dtype=np.uint8)
        with mock.patch.object(gf2, "solve_partial", wraps=gf2.solve_partial) as solve:
            try:
                assert precode_solve(_decoder(inter, missing), cfg, out) is out
                np.testing.assert_array_equal(out, blk.data)
                outcomes.add("solved")
            except DecodeFailure:
                assert (out == 0xA5).all() and solve.called
                outcomes.add("undetermined")
    assert outcomes == {"solved", "undetermined"}
    # Fewer equations than unknowns fails before any elimination.
    out = np.full((cfg.k, 8), 0xA5, dtype=np.uint8)
    with pytest.raises(DecodeFailure):
        precode_solve(PeelDecoder(cfg.total, 8), cfg, out)
    assert (out == 0xA5).all()


@pytest.mark.parametrize("out", [np.zeros((CFG.k, 9), dtype=np.uint8),
                                 np.zeros((CFG.total, 8), dtype=np.uint8),
                                 np.zeros((CFG.k, 8), dtype=np.int8), bytearray(CFG.k * 8),
                                 "read-only"])
def test_precode_solve_rejects_an_out_it_cannot_fill(out):
    if isinstance(out, str):
        out = np.zeros((CFG.k, 8), dtype=np.uint8)
        out.setflags(write=False)
    with pytest.raises(InvalidParameterError):
        precode_solve(_decoder(precode_expand(_block(), CFG), {0}), CFG, out)


def test_precode_solve_validates_input():
    with pytest.raises(DecodeFailure):
        natives_of(PeelDecoder(CFG.total, 8))
    for not_over_the_intermediates in (PeelDecoder(CFG.k, 8), {0: bytes(8)}):
        with pytest.raises(InvalidParameterError):
            precode_solve(not_over_the_intermediates, CFG, np.zeros((CFG.k, 8), dtype=np.uint8))
    # Known intermediates are checked where the decoder takes them.
    with pytest.raises(InvalidInputError):
        PeelDecoder(CFG.total, 1).add_native(CFG.total, b"x")
    decoder = PeelDecoder(CFG.total, 2)
    decoder.add_native(0, b"ab")
    with pytest.raises(InvalidInputError):
        decoder.add_native(1, b"abc")


def test_precode_solve_residual_cap(monkeypatch):
    # Three missing natives: E >= U = 3, so only the cap can stop the solve,
    # and it does so before any elimination.
    blk = _block()
    decoder = _decoder(precode_expand(blk, CFG), {0, 1, 2})
    np.testing.assert_array_equal(natives_of(decoder), blk.data)
    monkeypatch.setattr(precode, "RESIDUAL_CAP", 2)
    with mock.patch.object(gf2, "solve_partial", wraps=gf2.solve_partial) as solve:
        with pytest.raises(DecodeFailure) as exc:
            natives_of(decoder)
    assert exc.value.unresolved == 3
    assert not solve.called


def test_precode_solve_uses_extra_rows():
    # Constraints alone cannot determine many erased natives, but extra
    # encoding-symbol equations added to the decoder close the system.
    blk = _block()
    inter = precode_expand(blk, CFG)
    missing = set(range(10))  # more erasures than parity equations
    with pytest.raises(DecodeFailure):
        natives_of(_decoder(inter, missing))
    rng = random.Random(3)
    extra = [sorted(rng.sample(sorted(missing), rng.randint(1, 6))) for _ in range(12)]
    decoder = _decoder(inter, missing)
    decoder.add_batch(batch_of(extra, inter.data))
    decoder.run()
    natives = natives_of(decoder)
    np.testing.assert_array_equal(natives, blk.data)


@st.composite
def precode_systems(draw):
    """A small config, a decoder over its intermediates holding a random
    covered subset, and random equations over the intermediates, peeled or
    not."""
    s = draw(st.integers(0, 5))
    cfg = PrecodeConfig(k=draw(st.integers(1, 20)), s=s, h=draw(st.integers(0 if s else 1, 9)),
                        seed=draw(st.integers(0, 20)))
    try:
        constraint_matrix(cfg)
    except InvalidParameterError:
        assume(False)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    inter = precode_expand(SourceBlock.random(cfg.k, 8, int(rng.integers(1 << 30))), cfg)
    covered = rng.random(cfg.total) < draw(st.sampled_from([0.1, 0.5, 0.8, 0.95]))
    decoder = _decoder(inter, set(np.flatnonzero(~covered).tolist()))
    sets = [np.sort(rng.choice(cfg.total, int(rng.integers(1, min(cfg.total, 6) + 1)),
                               replace=False)) for _ in range(draw(st.integers(0, cfg.total + 4)))]
    decoder.add_batch(batch_of(sets, inter.data))
    if draw(st.booleans()):
        decoder.run()
    return cfg, decoder


@settings(max_examples=300, deadline=None)
@given(precode_systems())
def test_early_exit_fires_only_on_an_undetermined_native(system):
    # When precode_solve fails without reaching the elimination, the full
    # elimination of the same system must leave some missing native
    # undetermined.
    cfg, decoder = system
    missing = np.flatnonzero(~decoder.covered[:cfg.k]).tolist()
    with mock.patch.object(gf2, "solve_partial", wraps=gf2.solve_partial) as solve:
        try:
            natives_of(decoder, cfg)
            return
        except DecodeFailure as exc:
            if solve.called:
                return
            assert exc.unresolved == len(missing)
    solved = _full_solve(cfg, decoder)
    assert any(i not in solved for i in missing)


def _full_solve(cfg, decoder):
    """A plain ``solve_partial`` over every uncovered intermediate of the
    decoder's precode system, with no index eliminated: {index: value} of
    each one it determines."""
    covered = decoder.covered
    indptr, indices = constraint_matrix(cfg)
    rows = [[i for i in indices[a:b].tolist() if not covered[i]]
            for a, b in zip(indptr[:-1], indptr[1:])]
    # A constraint's uncovered members XOR to its covered ones, and the
    # payload rows of uncovered intermediates are zero.
    rhs = np.array([np.bitwise_xor.reduce(decoder.payloads[indices[a:b]])
                    for a, b in zip(indptr[:-1], indptr[1:])])
    p_indptr, p_indices, p_rhs = decoder.pending_rows()
    pending = [p_indices[a:b].tolist() for a, b in zip(p_indptr[:-1], p_indptr[1:])]
    # Uncovered intermediate unknowns[c] is column c.
    unknowns = np.flatnonzero(~covered).tolist()
    column = {i: c for c, i in enumerate(unknowns)}
    equations = [r for r in rows if r] + pending
    solved = gf2.solve_partial(csr([[column[i] for i in r] for r in equations]),
                               range(len(unknowns)),
                               np.concatenate((rhs[[bool(r) for r in rows]], p_rhs)))
    return {unknowns[c]: value for c, value in zip(solved["column"].tolist(), solved["value"])}


@settings(max_examples=300, deadline=None)
@given(precode_systems())
def test_precode_solve_decides_as_the_full_system(system):
    # Substituting out the uncovered parities before the elimination
    # changes neither which natives are determined nor their values.
    cfg, decoder = system
    missing = np.flatnonzero(~decoder.covered[:cfg.k]).tolist()
    full = _full_solve(cfg, decoder)
    undetermined = [i for i in missing if i not in full]
    with mock.patch.object(gf2, "solve_partial", wraps=gf2.solve_partial) as solve:
        try:
            natives = natives_of(decoder, cfg)
        except DecodeFailure as exc:
            assert undetermined
            assert exc.unresolved == (len(undetermined) if solve.called else len(missing))
            return
    assert not undetermined
    for i in missing:
        np.testing.assert_array_equal(natives[i], full[i])


def test_early_exit_reports_every_missing_native():
    # 12 lost natives and no repair: 8 constraint rows for at least 12
    # unknowns, so the solve fails before any elimination, and the failure
    # counts each native the decoder does not cover.
    blk = _block(seed=15)
    lost = set(range(0, 24, 2))
    natives = {i: blk.data[i] for i in range(CFG.k) if i not in lost}
    decoder = peeled(natives, [], CFG.total, blk.l)
    with mock.patch.object(gf2, "solve_partial", wraps=gf2.solve_partial) as solve:
        with pytest.raises(DecodeFailure) as exc:
            natives_of(decoder)
    assert not solve.called
    assert exc.value.unresolved == CFG.k - decoder.covered[:CFG.k].sum() == len(lost)


# ---------------------------------------------------------------------------
# Composed codec


def test_raptor_roundtrip_with_losses():
    blk = _block(seed=13)
    dist = lr_raptor_dist(LossContext(CFG.total, 4), 16)
    lost = {1, 8, 19}
    natives = {i: blk.data[i] for i in range(CFG.k) if i not in lost}
    encoding = encode_stream(precode_expand(blk, CFG), dist, base_seed=21, count=8)
    decoded = natives_of(peeled(natives, encoding, CFG.total, blk.l))
    np.testing.assert_array_equal(decoded, blk.data)


def test_raptor_decode_no_loss_shortcut():
    blk = _block(seed=14)
    natives = {i: blk.data[i] for i in range(CFG.k)}
    decoded = natives_of(peeled(natives, [], CFG.total, blk.l))
    np.testing.assert_array_equal(decoded, blk.data)


def test_raptor_decode_reports_failure_stage():
    blk = _block(seed=15)
    lost = set(range(12))
    natives = {i: blk.data[i] for i in range(CFG.k) if i not in lost}
    with pytest.raises(DecodeFailure) as exc:
        natives_of(peeled(natives, [], CFG.total, blk.l))
    assert exc.value.unresolved > 0


def test_raptor_robust_soliton_roundtrip():
    # The composed decoder also accepts a conventional robust-soliton inner
    # stream (the baseline configuration).
    blk = _block(seed=16)
    dist = robust_soliton(CFG.total, 0.5, 0.1)
    lost = {0, 5}
    natives = {i: blk.data[i] for i in range(CFG.k) if i not in lost}
    for count in (8, 16, 32, 64):
        encoding = encode_stream(precode_expand(blk, CFG), dist, base_seed=33, count=count)
        try:
            decoded = natives_of(peeled(natives, encoding, CFG.total, blk.l))
        except DecodeFailure:
            continue
        np.testing.assert_array_equal(decoded, blk.data)
        return
    pytest.fail("robust-soliton inner stream never completed the decode")

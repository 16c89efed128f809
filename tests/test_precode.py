"""Precode construction, constraint, and composed codec tests."""

import random

import numpy as np
import pytest

from lrfcodes import gf2
from lrfcodes.codec import EncodingSymbol, PeelDecoder, RepairBatch, SourceBlock
from lrfcodes.distributions import LossContext, lr_raptor_dist, robust_soliton
from lrfcodes.errors import (DecodeFailure, InvalidInputError,
                             InvalidParameterError)
from lrfcodes.precode import (PrecodeConfig, constraint_matrix, parity_rows,
                              precode_expand, precode_solve, raptor_decode,
                              raptor_encode)

CFG = PrecodeConfig(k=24, s=5, h=3, seed=7)


def _block(k=CFG.k, l=8, seed=0):
    return SourceBlock.random(k, l, seed)


def _decoder(inter, missing=()):
    """A decoder over an intermediate block holding all its rows but ``missing``."""
    return PeelDecoder(inter.w, inter.l,
                       {i: row for i, row in enumerate(inter.data) if i not in missing})


def _rows(blk):
    """A block's rows as the list of bytes a ``DecodeResult`` recovers."""
    return [row.tobytes() for row in blk.data]


def constraint_rows(cfg):
    """Each parity constraint's sorted index tuple over the intermediates."""
    indptr, indices = constraint_matrix(cfg)
    return [tuple(indices[lo:hi].tolist()) for lo, hi in zip(indptr[:-1], indptr[1:])]


# ---------------------------------------------------------------------------
# Construction


def test_config_validation():
    with pytest.raises(InvalidParameterError):
        PrecodeConfig(k=0, s=1, h=1)
    with pytest.raises(InvalidParameterError):
        PrecodeConfig(k=4, s=0, h=0)
    assert PrecodeConfig(k=4, s=1, h=0).total == 5


def test_parity_rows_shape_and_coverage():
    sparse, dense = parity_rows(CFG)
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
    a = parity_rows(PrecodeConfig(k=24, s=5, h=3, seed=7))
    b = parity_rows(PrecodeConfig(k=24, s=5, h=3, seed=7))
    for x, y in zip(a[0] + a[1], b[0] + b[1]):
        np.testing.assert_array_equal(x, y)


def test_parity_rows_vary_with_seed():
    a = parity_rows(PrecodeConfig(k=64, s=9, h=3, seed=1))
    b = parity_rows(PrecodeConfig(k=64, s=9, h=3, seed=2))
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


# ---------------------------------------------------------------------------
# Constraint solving


def test_precode_solve_single_erasure_sweep():
    blk = _block()
    inter = precode_expand(blk, CFG)
    for missing in range(CFG.total):
        natives = precode_solve(_decoder(inter, {missing}), CFG)
        np.testing.assert_array_equal(natives, blk.data)


def test_precode_solve_multi_erasure_random():
    rng = random.Random(5)
    blk = _block()
    inter = precode_expand(blk, CFG)
    solved = 0
    for _ in range(50):
        missing = set(rng.sample(range(CFG.total), 3))
        try:
            natives = precode_solve(_decoder(inter, missing), CFG)
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
        full_rank = gf2.rank([r for r in sub_rows if r], missing) == len(missing)
        try:
            natives = precode_solve(_decoder(inter, missing), cfg)
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


def test_precode_solve_validates_input():
    with pytest.raises(DecodeFailure):
        precode_solve(PeelDecoder(CFG.total, 8), CFG)
    for not_over_the_intermediates in (PeelDecoder(CFG.k, 8), {0: bytes(8)}):
        with pytest.raises(InvalidParameterError):
            precode_solve(not_over_the_intermediates, CFG)
    # Known intermediates are checked where the decoder takes them.
    with pytest.raises(InvalidInputError):
        PeelDecoder(CFG.total, 1, {CFG.total: b"x"})
    with pytest.raises(InvalidInputError):
        PeelDecoder(CFG.total, 2, [(0, b"ab"), (1, b"abc")])


def test_precode_solve_residual_cap():
    blk = _block()
    inter = precode_expand(blk, CFG)
    with pytest.raises(DecodeFailure):
        precode_solve(_decoder(inter, range(CFG.k)), CFG, residual_cap=2)


def test_precode_solve_uses_extra_rows():
    # Constraints alone cannot determine many erased natives, but extra
    # encoding-symbol equations added to the decoder close the system.
    blk = _block()
    inter = precode_expand(blk, CFG)
    missing = set(range(10))  # more erasures than parity equations
    with pytest.raises(DecodeFailure):
        precode_solve(_decoder(inter, missing), CFG)
    extra = []
    rng = random.Random(3)
    for t in range(12):
        idxs = sorted(rng.sample(sorted(missing), rng.randint(1, 6)))
        extra.append(EncodingSymbol(id=t, seed=0, degree=len(idxs), neighbors=np.array(idxs),
                                    payload=np.bitwise_xor.reduce(inter.data[idxs]).tobytes()))
    decoder = _decoder(inter, missing)
    decoder.add_batch(RepairBatch.from_symbols(extra))
    decoder.run()
    natives = precode_solve(decoder, CFG)
    np.testing.assert_array_equal(natives, blk.data)


# ---------------------------------------------------------------------------
# Composed codec


def test_raptor_roundtrip_with_losses():
    blk = _block(seed=13)
    dist = lr_raptor_dist(LossContext(CFG.total, 4), 16)
    lost = {1, 8, 19}
    natives = {i: blk.data[i] for i in range(CFG.k) if i not in lost}
    encoding = raptor_encode(blk, CFG, dist, base_seed=21, count=8)
    res = raptor_decode(natives, encoding, CFG)
    assert res.success
    assert res.recovered == _rows(blk)


def test_raptor_decode_no_loss_shortcut():
    blk = _block(seed=14)
    natives = {i: blk.data[i] for i in range(CFG.k)}
    res = raptor_decode(natives, [], CFG)
    assert res.success
    assert res.recovered == _rows(blk)


def test_raptor_decode_reports_failure_stage():
    blk = _block(seed=15)
    lost = set(range(12))
    natives = {i: blk.data[i] for i in range(CFG.k) if i not in lost}
    res = raptor_decode(natives, [], CFG)
    assert not res.success
    assert res.failed_stage == "precode"
    assert res.unresolved > 0


def test_raptor_robust_soliton_roundtrip():
    # The composed decoder also accepts a conventional robust-soliton inner
    # stream (the baseline configuration).
    blk = _block(seed=16)
    dist = robust_soliton(CFG.total, 0.5, 0.1)
    lost = {0, 5}
    natives = {i: blk.data[i] for i in range(CFG.k) if i not in lost}
    for count in (8, 16, 32, 64):
        encoding = raptor_encode(blk, CFG, dist, base_seed=33, count=count)
        res = raptor_decode(natives, encoding, CFG)
        if res.success:
            assert res.recovered == _rows(blk)
            return
    pytest.fail("robust-soliton inner stream never completed the decode")

"""Acceptance gate: nine numbered criteria, one pass/fail line each.

Each test prints ``ACCEPTANCE <n> <name>: PASS`` on success (visible with
``pytest -v -s`` or in captured output); a failed assertion is the FAIL
line. Criteria use analytic closed forms, an independent GF(2) oracle, and
trend checks over seeded randomized trials.
"""

import math
import random

import numpy as np

from test_codec import gf2_oracle_solve

from lrfcodes.bench import ExperimentSpec, run_experiment
from lrfcodes.channel import ChannelConfig
from lrfcodes.cli import main as cli_main
from lrfcodes.codec import (PeelDecoder, RepairBatch, SourceBlock, derive_seed, derive_seeds,
                            neighbor_sets)
from lrfcodes.distributions import (LossContext, capped_normalizer_closed_form,
                                    recovery_probability,
                                    truncated_normalizer_closed_form)
from lrfcodes.errors import SessionFailure
from lrfcodes.transfer import SCHEMES, run_session


def test_criterion_1_distribution_exactness():
    # Truncated-soliton normalizer: numeric vs closed form w*n/(w^2-w*n-n)
    # for every w <= 200 and every m dividing w (support low L = w/m >= 2).
    checked = 0
    for w in range(2, 201):
        for m in range(1, w):
            if w % m != 0:
                continue
            L = w // m
            if L < 2:
                continue
            ctx = LossContext(w, m)
            numeric = 1.0 / math.fsum(1.0 / (d * (d - 1.0))
                                      for d in range(L, w + 1))
            closed = truncated_normalizer_closed_form(ctx)
            assert math.isclose(numeric, closed, rel_tol=1e-9), (w, m)
            checked += 1
    assert checked > 400

    # Capped normalizer: numeric vs 1/(1/(L-1) - 1/d_max) for all integer
    # L, d_max <= 200.
    for L in range(2, 201):
        for d_max in range(L, 201):
            numeric = 1.0 / math.fsum(1.0 / (d * (d - 1.0))
                                      for d in range(L, d_max + 1))
            closed = capped_normalizer_closed_form(L, d_max)
            assert math.isclose(numeric, closed, rel_tol=1e-9), (L, d_max)
    print("ACCEPTANCE 1 distribution-exactness: PASS")


def test_criterion_2_min_degree_optimality():
    # The degree maximizing the single-hit release probability lies within
    # one of w/m for every w <= 100, 1 <= m < w.
    for w in range(2, 101):
        for m in range(1, w):
            ctx = LossContext(w, m)
            best_d, best_p = None, -1.0
            for d in range(1, min(w, ctx.n + 1) + 1):
                prob = recovery_probability(ctx, d, 1) if d - 1 <= ctx.n else 0.0
                if prob > best_p:
                    best_d, best_p = d, prob
            assert abs(best_d - w / m) <= 1.0, (w, m, best_d)
    print("ACCEPTANCE 2 min-degree-optimality: PASS")


def test_criterion_3_decoder_soundness():
    # 10^4 random small instances against the independent GF(2) oracle:
    # peeling success implies oracle success with matching bytes. An
    # instance's repair symbols go in as one batch; symbol t's neighbor set
    # depends on its seed derive_seed(trial, t) alone.
    rng = random.Random(31337)
    successes = 0
    for trial in range(10_000):
        w = rng.randint(1, 12)
        l = 4
        data = SourceBlock.random(w, l, seed=trial).data
        rows = [row.tobytes() for row in data]
        lost = np.array([rng.random() < 0.5 for _ in range(w)])
        n = rng.randint(0, 2 * max(1, int(lost.sum())))
        degrees = np.array([rng.randint(1, w) for _ in range(n)], dtype=np.int64)
        seeds = derive_seeds(trial, np.arange(n))
        indptr, indices = neighbor_sets(seeds, w, degrees)
        payloads = np.bitwise_xor.reduceat(data[indices], indptr[:-1], axis=0)
        decoder = PeelDecoder(w, l)
        decoder.add_natives(data, ~lost)
        decoder.add_batch(RepairBatch(np.arange(n, dtype=np.uint64), seeds, degrees,
                                      indptr, indices, payloads))
        decoder.run()
        if decoder.success:
            equations = [([i], rows[i]) for i in np.flatnonzero(~lost).tolist()]
            equations += [(indices[a:b].tolist(), p.tobytes())
                          for a, b, p in zip(indptr[:-1], indptr[1:], payloads)]
            oracle = gf2_oracle_solve(w, equations)
            assert oracle is not None, "peeling succeeded where oracle failed"
            assert [row.tobytes() for row in decoder.payloads] == oracle == rows
            successes += 1
    assert successes > 1000
    print("ACCEPTANCE 3 decoder-soundness: PASS")


def test_criterion_4_round_trip_at_scale():
    # w = 10267, p = 1%, proactive overhead factor eps = 0.5: at least 95 of
    # 100 seeded end-to-end sessions deliver the window byte-identically
    # within the bounded repair budget.
    w, eps, p = 10267, 0.5, 0.01
    ok = 0
    for t in range(100):
        try:
            run_session(w * 16, w, 16, ChannelConfig(p, seed=5000 + t), eps,
                        "LRF", seed=5000 + t)
            ok += 1
        except SessionFailure:
            pass
    assert ok >= 95, f"only {ok}/100 sessions decoded"
    print(f"ACCEPTANCE 4 round-trip-at-scale ({ok}/100): PASS")


def test_criterion_5_lrf_beats_lt_trend():
    # Mean per-input-symbol encoding ratio: LRF < LT at every loss rate, and
    # the LT-LRF gap is monotonically nonincreasing (one noise inversion
    # allowed).
    rates = (0.001, 0.005, 0.01, 0.02, 0.05)
    spec = ExperimentSpec(experiment="lt-compare", window_lengths=(1024,),
                          loss_rates=rates, trials=30, master_seed=7,
                          symbol_bytes=64, total_symbols=100_000, epsilon=0.1)
    rows = run_experiment(spec)
    lt = {r.loss_rate: r.encoding_ratio for r in rows if r.scheme == "LT"}
    lrf = {r.loss_rate: r.encoding_ratio for r in rows if r.scheme == "LRF"}
    for p in rates:
        assert lrf[p] < lt[p], f"LRF not better at p={p}"
    gaps = [lt[p] - lrf[p] for p in rates]
    inversions = sum(1 for a, b in zip(gaps, gaps[1:]) if b > a + 1e-12)
    assert inversions <= 1, f"gap inversions {inversions} > 1: {gaps}"
    print("ACCEPTANCE 5 lrf-beats-lt-trend: PASS")


def test_criterion_6_lr_raptor_overhead():
    # LR-Raptor per-input encoding ratio < 0.25x Raptor's at small loss
    # rates, with the standard precode shape scaled to k = 1024.
    spec = ExperimentSpec(experiment="raptor-compare", window_lengths=(1024,),
                          loss_rates=(0.005, 0.01), trials=30, master_seed=7,
                          symbol_bytes=64, total_symbols=100_000, epsilon=0.1)
    rows = run_experiment(spec)
    ratios = {(r.scheme, r.loss_rate): r.encoding_ratio for r in rows}
    for p in (0.005, 0.01):
        lr = ratios[("LR-Raptor", p)]
        base = ratios[("Raptor", p)]
        assert lr < 0.25 * base, f"p={p}: {lr} !< 0.25 * {base}"
    print("ACCEPTANCE 6 lr-raptor-overhead: PASS")


def criterion_7_costs() -> dict[int, float]:
    """Criterion 7's decode ns per lost symbol by window length (CI also
    logs it from fresh processes)."""
    spec = ExperimentSpec(experiment="window-sweep",
                          window_lengths=(1_000, 10_000, 100_000),
                          loss_rates=(0.01,), trials=5, master_seed=3,
                          symbol_bytes=64, epsilon=0.1, timing=True)
    return {r.window_len: r.decode_ns_per_lost for r in run_experiment(spec)}


def test_criterion_7_linear_complexity():
    # Per-lost-symbol decode cost varies by < 2.5x over two decades of
    # window length.
    costs = criterion_7_costs()
    ratio = max(costs.values()) / min(costs.values())
    assert ratio < 2.5, f"decode cost ratio {ratio:.2f} across {costs}"
    print(f"ACCEPTANCE 7 linear-complexity (ratio {ratio:.2f} across {costs}): PASS")


def test_criterion_8_transfer_correctness():
    # 10 windows x 10^4 symbols x 512 B per scheme and loss rate: delivered
    # bytes identical, and LRF throughput >= LT throughput at each p > 0.
    w, l, n_windows = 10_000, 512, 10
    size = n_windows * w * l
    throughput = {}
    for p in (0.0, 0.01, 0.02):
        for scheme in SCHEMES:
            metrics, delivered = run_session(
                size, w, l, ChannelConfig(p, seed=77), 0.2, scheme, seed=21,
                return_payload=True)
            rng = np.random.default_rng(derive_seed(21, 0xDA7A))
            data = rng.integers(0, 256, size=size, dtype=np.uint8).tobytes()
            assert delivered == data, f"{scheme} at p={p} corrupted data"
            throughput[(scheme, p)] = metrics.throughput_bytes_per_s
    for p in (0.01, 0.02):
        assert throughput[("LRF", p)] >= throughput[("LT", p)], (
            f"LRF slower than LT at p={p}")
    print("ACCEPTANCE 8 transfer-correctness: PASS")


def test_criterion_9_cli_determinism(tmp_path):
    # Every CLI experiment with a fixed master seed emits byte-identical CSV
    # across two consecutive runs.
    common = ["--trials", "2", "--seed", "9", "--symbol-bytes", "16",
              "--total-symbols", "2048", "--window", "256",
              "--loss-rate", "0.02"]
    for experiment in ("window-sweep", "lt-compare", "raptor-compare",
                       "transfer"):
        a = tmp_path / f"{experiment}-a.csv"
        b = tmp_path / f"{experiment}-b.csv"
        assert cli_main([experiment, *common, "--out", str(a)]) == 0
        assert cli_main([experiment, *common, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes(), f"{experiment} not reproducible"
    print("ACCEPTANCE 9 cli-determinism: PASS")

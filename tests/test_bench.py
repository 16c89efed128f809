"""Benchmark harness and CLI tests (small, fast configurations)."""

import csv
import dataclasses
import hashlib
import io
import itertools
import math
import statistics

import numpy as np
import pytest

from lrfcodes import bench, transfer
from lrfcodes.bench import (CSV_COLUMNS, ExperimentSpec, ResultRow, emit_csv,
                            emit_summary, run_experiment)
from lrfcodes.cli import DESK_WINDOWS, build_parser, main, spec_from_args
from lrfcodes.errors import InvalidParameterError, SessionFailure


def _spec(experiment, **overrides):
    base = dict(experiment=experiment, window_lengths=(256,),
                loss_rates=(0.01, 0.02), trials=3, master_seed=5,
                symbol_bytes=16, total_symbols=2048, epsilon=0.2)
    base.update(overrides)
    return ExperimentSpec(**base)


# ---------------------------------------------------------------------------
# Spec validation


def test_spec_rejects_unknown_experiment():
    with pytest.raises(InvalidParameterError):
        _spec("no-such-experiment")


def test_spec_rejects_bad_trials():
    with pytest.raises(InvalidParameterError):
        _spec("window-sweep", trials=0)


@pytest.mark.parametrize("experiment,window_lengths", [
    ("window-sweep", ()), ("window-sweep", (0,)), ("lt-compare", (256, -1)),
    ("raptor-compare", (256, 512)), ("transfer", (256, 512))])
def test_spec_rejects_bad_windows(experiment, window_lengths):
    # Unchecked, a zero window gives window-sweep a "successful" row of no
    # trials and raptor-compare a bare ZeroDivisionError; raptor-compare and
    # transfer take one window.
    with pytest.raises(InvalidParameterError):
        _spec(experiment, window_lengths=window_lengths)


@pytest.mark.parametrize("overrides", [dict(window_lengths=(64.5,)), dict(window_lengths=(True,)),
                                       dict(trials=1.5), dict(master_seed=1.5),
                                       dict(master_seed=True), dict(master_seed=-1),
                                       dict(epsilon="a"), dict(epsilon=float("inf")),
                                       dict(loss_rates=("0.1",)), dict(loss_rates=(True,)),
                                       dict(loss_rates=(0.01, float("nan")))],
                         ids=["window-float", "window-bool", "trials-float", "seed-float",
                              "seed-bool", "seed-negative", "epsilon-str", "epsilon-inf",
                              "rate-str", "rate-bool", "rate-nan"])
def test_spec_sizes_are_integers(overrides):
    # Accepted unchecked, each stopped run_experiment with a bare TypeError,
    # but True as a master seed ran as seed 1. A numpy master seed
    # overflowed in derive_seed; it now runs as the same int seed. Loss
    # rates and epsilon are finite reals: epsilon="a" returned a row.
    with pytest.raises(InvalidParameterError):
        _spec("window-sweep", **overrides)
    rows = run_experiment(_spec("window-sweep", window_lengths=(np.int64(256),),
                                trials=np.int64(2)))
    assert len(rows) == 2
    assert run_experiment(_spec("window-sweep", window_lengths=(256,), trials=2,
                                master_seed=np.int64(5))) == rows


@pytest.mark.parametrize("overrides", [dict(total_symbols=2.5), dict(total_symbols=True),
                                       dict(symbol_bytes=2.5)],
                         ids=["total-float", "total-bool", "bytes-float"])
def test_transfer_sizes_are_integers(overrides):
    # Unchecked, a float stopped a transfer run with a bare TypeError from
    # bytes(), and True ran as one symbol.
    with pytest.raises(InvalidParameterError):
        _spec("transfer", **overrides)
    rows = run_experiment(_spec("transfer", loss_rates=(0.01,), trials=1,
                                total_symbols=np.int64(512), symbol_bytes=np.int64(16)))
    assert len(rows) == 4 and all(row.success_rate == 1.0 for row in rows)


# ---------------------------------------------------------------------------
# Experiments produce sane rows


def test_window_sweep_rows():
    rows = run_experiment(_spec("window-sweep"))
    assert len(rows) == 2  # one scheme x two loss rates
    for row in rows:
        assert row.experiment == "window-sweep"
        assert row.scheme == "LRF"
        assert row.success_rate == 1.0
        assert row.encoding_ratio > 0
        assert row.degree_ratio >= row.encoding_ratio
        # Timing columns stay empty without timing mode.
        assert row.encode_ns_per_lost is None
        assert row.decode_ns_per_lost is None


def test_lt_compare_rows():
    rows = run_experiment(_spec("lt-compare", loss_rates=(0.02,)))
    schemes = {row.scheme for row in rows}
    assert schemes == {"LT", "LRF"}
    by_scheme = {row.scheme: row for row in rows}
    # The baseline re-encodes the whole window; the loss-aware codec only
    # repairs the losses.
    assert by_scheme["LT"].encoding_ratio > 1.0
    assert by_scheme["LRF"].encoding_ratio < 0.5


def test_raptor_compare_rows():
    rows = run_experiment(_spec("raptor-compare", loss_rates=(0.02,)))
    schemes = {row.scheme for row in rows}
    assert schemes == {"Raptor", "LR-Raptor"}
    for row in rows:
        assert row.success_rate == 1.0


def test_transfer_rows_have_throughput():
    rows = run_experiment(_spec("transfer", loss_rates=(0.01,), timing=True,
                                total_symbols=1024))
    assert {row.scheme for row in rows} == {"LT", "LRF", "Raptor", "LR-Raptor"}
    for row in rows:
        assert row.throughput_MBps is not None and row.throughput_MBps > 0


def _failing_sessions(monkeypatch, fails):
    """Make the bench's sessions raise SessionFailure on the calls whose
    index ``fails`` picks; returns each call's metrics, None where it failed."""
    real, calls, results = bench.run_session, itertools.count(), []

    def run_session(*args, **kwargs):
        if fails(next(calls)):
            results.append(None)
            raise SessionFailure("repair budget spent", window=2, unresolved=7)
        results.append(real(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(bench, "run_session", run_session)
    return results


def test_transfer_rows_count_failed_sessions(monkeypatch):
    # Trial 1 of every scheme fails: each row counts it in trials and
    # success_rate and averages its ratios over the two sessions that ran.
    results = _failing_sessions(monkeypatch, lambda call: call % 3 == 1)
    trace = io.StringIO()
    rows = run_experiment(_spec("transfer", loss_rates=(0.02,), total_symbols=1024,
                                trace=trace))
    assert len(results) == 3 * len(rows) == 12
    for row, trials in zip(rows, (results[i:i + 3] for i in range(0, 12, 3))):
        assert (row.trials, row.success_rate) == (3, 2 / 3)
        ok = [m for m in trials if m is not None]
        assert row.encoding_ratio == statistics.fmean(
            m.encoding_sent / max(m.lost, 1) for m in ok)
        assert row.degree_ratio == statistics.fmean(
            m.total_degree_sent / max(m.lost, 1) for m in ok)
        assert (f"transfer,{row.scheme},256,0.02,trial=1,session_failure window=2 "
                f"unresolved=7") in trace.getvalue().splitlines()


def test_transfer_rows_whose_sessions_all_fail(monkeypatch):
    _failing_sessions(monkeypatch, lambda call: True)
    rows = run_experiment(_spec("transfer", loss_rates=(0.02,), total_symbols=1024,
                                timing=True))
    assert len(rows) == 4
    for row in rows:
        assert (row.trials, row.success_rate) == (3, 0.0)
        assert (row.encoding_ratio, row.degree_ratio) == (0.0, 0.0)
        # No successful session, so no timing or throughput to average.
        assert row.encode_ns_per_lost is None and row.decode_ns_per_lost is None
        assert row.throughput_MBps is None


def test_timing_mode_fills_columns():
    rows = run_experiment(_spec("window-sweep", loss_rates=(0.02,),
                                timing=True))
    (row,) = rows
    assert row.encode_ns_per_lost > 0
    assert row.decode_ns_per_lost > 0


def test_rows_deterministic_for_master_seed():
    a = run_experiment(_spec("window-sweep"))
    b = run_experiment(_spec("window-sweep"))
    assert a == b
    c = run_experiment(_spec("window-sweep", master_seed=6))
    assert any(x.encoding_ratio != y.encoding_ratio for x, y in zip(a, c))


# ---------------------------------------------------------------------------
# CSV round trip


def _records(path):
    """The CSV's data rows, each a dict of its cells by column name."""
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_csv_roundtrip(tmp_path):
    rows = run_experiment(_spec("window-sweep"))
    path = tmp_path / "out.csv"
    emit_csv(rows, path)
    header = path.read_text().splitlines()[0]
    assert header == ",".join(CSV_COLUMNS)
    # Every cell is its value's repr, a string as is and None empty.
    assert [list(rec.values()) for rec in _records(path)] == [
        ["" if v is None else v if isinstance(v, str) else repr(v)
         for v in dataclasses.astuple(row)] for row in rows]


def test_csv_bytes_identical_across_runs(tmp_path):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv(run_experiment(_spec("lt-compare", loss_rates=(0.01,))), p1)
    emit_csv(run_experiment(_spec("lt-compare", loss_rates=(0.01,))), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_emit_summary_lists_schemes(tmp_path, capsys):
    rows = run_experiment(_spec("raptor-compare", loss_rates=(0.02,)))
    emit_summary(rows)
    out = capsys.readouterr().out
    assert "Raptor" in out and "LR-Raptor" in out


# ---------------------------------------------------------------------------
# CLI


def _cli(*args):
    return main(list(args))


def test_cli_window_sweep_writes_csv(tmp_path):
    out = tmp_path / "ws.csv"
    code = _cli("window-sweep", "--window", "256", "--loss-rate", "0.02",
                "--trials", "2", "--total-symbols", "1024",
                "--symbol-bytes", "16", "--out", str(out))
    assert code == 0
    rows = _records(out)
    assert rows and rows[0]["experiment"] == "window-sweep"


def test_cli_determinism(tmp_path):
    args = ("lt-compare", "--window", "256", "--loss-rate", "0.02",
            "--trials", "2", "--total-symbols", "1024",
            "--symbol-bytes", "16", "--seed", "3")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert _cli(*args, "--out", str(a)) == 0
    assert _cli(*args, "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_bad_output_path_is_io_error(tmp_path):
    code = _cli("window-sweep", "--window", "64", "--loss-rate", "0.02",
                "--trials", "1", "--total-symbols", "128",
                "--symbol-bytes", "8",
                "--out", str(tmp_path / "missing-dir" / "x.csv"))
    assert code == 1


def test_cli_invalid_parameter_is_error(capsys):
    code = _cli("window-sweep", "--loss-rate", "2.0", "--trials", "1",
                "--total-symbols", "128", "--window", "64")
    assert code == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("args", [("window-sweep", "--epsilon", "nan"),
                                  ("transfer", "--total-symbols", "-5"),
                                  ("window-sweep", "--seed", "-1")])
def test_cli_non_finite_or_negative_parameter_is_error(args, capsys):
    code = _cli(*args, "--window", "64", "--loss-rate", "0.2", "--trials", "1",
                "--symbol-bytes", "8")
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_raptor_compare_runs_at_its_window(tmp_path):
    # raptor-compare's block is its --window, the precode's k.
    out = tmp_path / "rc.csv"
    assert _cli("raptor-compare", "--window", "300", "--loss-rate", "0.05",
                "--trials", "1", "--symbol-bytes", "8", "--out", str(out)) == 0
    assert {row["window_len"] for row in _records(out)} == {"300"}


@pytest.mark.parametrize("experiment", ["raptor-compare", "transfer"])
def test_cli_two_windows_for_one_window_experiment_is_error(experiment, capsys):
    code = _cli(experiment, "--window", "256", "--window", "1024", "--loss-rate", "0.05",
                "--trials", "1", "--symbol-bytes", "8", "--total-symbols", "256")
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("experiment", ["window-sweep", "lt-compare"])
def test_d_max_for_an_experiment_without_lr_raptor_is_error(experiment, capsys):
    # Neither experiment runs LR-Raptor, so a degree cap would be ignored.
    with pytest.raises(InvalidParameterError):
        ExperimentSpec(experiment, d_max=100)
    code = _cli(experiment, "--d-max", "3", "--window", "64", "--loss-rate", "0.05",
                "--trials", "1", "--symbol-bytes", "8")
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_cli_raptor_compare_applies_its_degree_cap(tmp_path, capsys):
    # A cap below the loss-aware law's minimum useful degree is an error; a
    # feasible one lowers LR-Raptor's degree ratio and leaves Raptor's.
    args = ("raptor-compare", "--window", "300", "--loss-rate", "0.05", "--trials", "2",
            "--symbol-bytes", "8")
    assert _cli(*args, "--d-max", "3") == 1
    assert capsys.readouterr().err.startswith("error: ")

    def degree_ratios(*cap):
        out = tmp_path / f"rc{len(cap)}.csv"
        assert _cli(*args, *cap, "--out", str(out)) == 0
        return {r["scheme"]: float(r["degree_ratio"]) for r in _records(out)}

    uncapped, capped = degree_ratios(), degree_ratios("--d-max", "30")
    assert capped["Raptor"] == uncapped["Raptor"]
    assert capped["LR-Raptor"] < uncapped["LR-Raptor"]


def test_cli_transfer_caps_lr_raptor_only(tmp_path):
    # transfer runs all four schemes; --d-max reaches LR-Raptor's sessions
    # only (the others refuse a cap), and the other rows stay as uncapped.
    args = ("transfer", "--window", "300", "--loss-rate", "0.05", "--trials", "2",
            "--symbol-bytes", "8", "--total-symbols", "600")

    def rows(*cap):
        out = tmp_path / f"tr{len(cap)}.csv"
        assert _cli(*args, *cap, "--out", str(out)) == 0
        return {r["scheme"]: r for r in _records(out)}

    uncapped, capped = rows(), rows("--d-max", "100")
    for scheme in ("LT", "LRF", "Raptor"):
        assert capped[scheme] == uncapped[scheme]
    assert float(capped["LR-Raptor"]["degree_ratio"]) < float(uncapped["LR-Raptor"]["degree_ratio"])


def test_cli_allow_failures_sets_the_exit_code(monkeypatch, capsys):
    # A repair budget too small to finish a window makes a row's trials
    # fail: exit 2 and a message, unless --allow-failures, which exits 0.
    monkeypatch.setattr(transfer, "BUDGET_FACTOR", 0.01)
    monkeypatch.setattr(transfer, "EXTRA_BATCH_FRAC", 0.01)
    args = ("window-sweep", "--window", "500", "--loss-rate", "0.3", "--trials", "2",
            "--epsilon", "0", "--symbol-bytes", "8")
    assert _cli(*args) == 2
    assert "failed trials" in capsys.readouterr().err
    assert _cli(*args, "--allow-failures") == 0
    captured = capsys.readouterr()
    assert captured.err == "" and "window-sweep" in captured.out


@pytest.mark.parametrize("paper_scale", [False, True], ids=["desk", "paper-scale"])
def test_cli_default_windows(paper_scale):
    expected = {"window-sweep": DESK_WINDOWS,
                "lt-compare": (10267,) if paper_scale else (1024,),
                "raptor-compare": (10017,) if paper_scale else (1024,),
                "transfer": (10_000,)}
    for experiment, windows in expected.items():
        argv = [experiment, "--paper-scale"] if paper_scale else [experiment]
        spec = spec_from_args(build_parser().parse_args(argv))
        assert spec.window_lengths == windows, experiment


def test_cli_trace_log(tmp_path):
    trace = tmp_path / "trace.log"
    code = _cli("transfer", "--window", "128", "--loss-rate", "0.05",
                "--trials", "1", "--total-symbols", "256",
                "--symbol-bytes", "8", "--trace", str(trace))
    assert code == 0
    assert trace.exists()


# SHA-256 of each experiment's CSV before the codec experiments shared one
# loop and one exchange loop with sessions (transfer's since the estimator
# reports once per natives event); two windows and two loss rates, so a
# trial seed that swaps its window and loss-rate indices shows.
# raptor-compare and transfer take one window: raptor-compare's is the
# precode's k, 512, with its (12, 2) shape, and transfer's is 256.
PINNED_WINDOWS = {"raptor-compare": ("--window", "512"), "transfer": ("--window", "256")}
PINNED_CSV = {
    "window-sweep": "f8d78a1cee641155a81d95d15f8a6c44b4b4a6ee6bbff3ef1a27fd4394dd50c8",
    "lt-compare": "b5d54c4f231e22cae625461309d2b367584a7366fb932f6ed317462000393f76",
    "raptor-compare": "42a27aa8e88abf87913ffbd6fc15f265a827375caf8813bee9ce197d88e17d53",
    "transfer": "a8eec5045ea3e1ed852b22669de1e30723e305f8bbbba5c0b016dd99beef5d9e",
}


@pytest.mark.parametrize("experiment", PINNED_CSV)
def test_cli_csv_is_pinned(experiment, tmp_path):
    out = tmp_path / f"{experiment}.csv"
    assert _cli(experiment, "--trials", "3", "--seed", "9", "--symbol-bytes", "16",
                "--total-symbols", "4096",
                *PINNED_WINDOWS.get(experiment, ("--window", "256", "--window", "1024")),
                "--loss-rate", "0.02", "--loss-rate", "0.05", "--out", str(out)) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == PINNED_CSV[experiment]

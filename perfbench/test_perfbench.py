"""Tests of the session benchmark's correctness gate and span recorder."""

import importlib.util
import json
import sys
import time
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "perfbench_run", Path(__file__).resolve().parent / "run.py")
bench = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = bench
_spec.loader.exec_module(bench)

from spans import Instrumentation, Recorder  # noqa: E402  (path set by run.py)


def _echo(data, *args, **kwargs):
    from lrfcodes import SessionMetrics
    return SessionMetrics(), bytes(data)


def _corrupt(data, *args, **kwargs):
    from lrfcodes import SessionMetrics
    flipped = bytes([data[0] ^ 1]) + bytes(data[1:])
    return SessionMetrics(), flipped


def _raise(data, *args, **kwargs):
    from lrfcodes import SessionFailure
    raise SessionFailure("stub failure", window=0, unresolved=1)


@pytest.mark.parametrize("driver, code", [(_echo, 0), (_corrupt, 1), (_raise, 1)])
def test_gate_fails_on_wrong_bytes_or_exception(driver, code, tmp_path, capsys):
    argv = ["--workload", "lt-stream", "--seed", "3", "--seconds", "0",
            "--trace", "0", "--out", str(tmp_path)]
    assert bench.main(argv, driver=driver) == code
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    sessions = bench.WORKLOADS["lt-stream"].count_sessions + bench.SETUP_REPEATS
    assert result["attempted"] == sessions
    assert result["correct"] is (code == 0)
    assert result["failed"] == (0 if code == 0 else sessions)


def test_self_time_excludes_nested_calls():
    rec = Recorder()
    outer = rec.enter("outer", True)
    time.sleep(0.002)
    inner = rec.enter("inner", False)
    time.sleep(0.002)
    rec.exit(inner)
    rec.exit(outer)
    assert rec.self_s["outer"] == pytest.approx(
        rec.total_s["outer"] - rec.total_s["inner"])
    assert rec.self_s["inner"] == rec.total_s["inner"]
    # Only the span is kept; the aggregated call counts toward its parent.
    [(span_id, name, start, end, parent, _, self_s)] = rec.spans
    assert (name, parent, self_s) == ("outer", None, rec.self_s["outer"])


def test_instrumentation_counts_layers_and_restores_package():
    lrfcodes, modules = bench.import_package()
    codec = modules["codec"]
    original = codec.PeelDecoder.add_symbol
    rec = Recorder()
    with Instrumentation(modules, rec):
        lrfcodes.run_session(4 * 32 * 8, window=32, symbol_bytes=8,
                             channel_cfg=lrfcodes.ChannelConfig(0.1, seed=2),
                             epsilon=0.2, scheme="LT", seed=2)
    assert codec.PeelDecoder.add_symbol is original
    assert rec.calls["transfer.start_window"] == 4
    assert rec.counts["codec.encode.symbols"] == rec.counts["channel.symbols"]
    assert rec.calls["precode.solve"] == 0

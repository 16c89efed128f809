"""Workload definitions for the session benchmark (why each was chosen is in
README.md and BENCHMARK.json).

Each workload is one `lrfcodes.run_session` configuration. A run of a
workload generates one payload from the run's seed and then drives a
sequence of sessions over it; session ``i`` takes its session and channel
seeds from ``(seed, i)``, so the same seed replays the same sessions.

``count_sessions`` is the fixed prefix of sessions over which link
efficiency, degree ratio and a traced run's per-layer totals are taken: a
run always completes at least that many sessions, so the counts among them
repeat exactly at a fixed seed however fast the machine is. The end-to-end
timing metrics use every session the run completes.
"""

from __future__ import annotations

from dataclasses import dataclass

EPSILON = 0.2
# Multi-window sessions, so the source's per-window state and the
# destination's window slide are part of every session.
WINDOWS_PER_SESSION = 2


@dataclass(frozen=True)
class Workload:
    name: str
    scheme: str
    window: int
    symbol_bytes: int
    loss_rate: float
    count_sessions: int
    # (p_good_to_bad, p_bad_to_good, loss_good, loss_bad) of a
    # Gilbert-Elliott channel; None means Bernoulli erasures.
    burst: tuple[float, float, float, float] | None = None
    # Warm-start loss estimate; None lets the session assume the channel's
    # configured rate.
    initial_loss_rate: float | None = None

    @property
    def session_bytes(self) -> int:
        return self.window * self.symbol_bytes * WINDOWS_PER_SESSION

    @property
    def source_symbols(self) -> int:
        return self.window * WINDOWS_PER_SESSION


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="lrf-steady",
            scheme="LRF", window=10_000, symbol_bytes=1024,
            loss_rate=0.02, initial_loss_rate=0.02, count_sessions=24),
        Workload(
            name="lt-stream",
            scheme="LT", window=4096, symbol_bytes=64,
            loss_rate=0.02, count_sessions=20),
        Workload(
            name="lr-raptor-burst",
            scheme="LR-Raptor", window=10_000, symbol_bytes=512,
            loss_rate=0.02, burst=(0.002, 0.1, 0.0, 1.0), count_sessions=12),
    )
}

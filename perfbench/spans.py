"""Span recorder that times lrfcodes' layers from outside the package.

`Instrumentation` replaces public functions and methods of the package's
modules (``distributions``, ``codec``, ``precode``, ``gf2``, ``channel`` and
``transfer``) with timing wrappers while it is active, and restores the
originals when it exits. The package itself is not modified.

Coarse calls (a window start, a conclude, a peeling pass, a precode solve)
each become one span with a name, start, end, parent span and session id.
Per-symbol calls (``select_neighbors``, ``derive_degree``, ``sample``,
``add_symbol``, ``add_native``, ``DestinationState.step`` and the loss
estimator) are aggregated into a call count plus total and self time, so a
run does not keep millions of spans.

Self time is a call's duration minus the time covered by the instrumented
calls nested inside it, spans and aggregated calls alike. Calls nest
strictly (the package is single-threaded), so a stack of open frames gives
it exactly.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict


class Recorder:
    """In-memory spans, per-name call totals and hook counters."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.calls: dict[str, int] = defaultdict(int)
        self.total_s: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.maxima: dict[str, int] = defaultdict(int)
        self.session: int | None = None
        self._stack: list[list] = []
        self._next_id = 1

    def enter(self, name: str, keep: bool) -> list:
        """Open a frame; ``keep`` records it as a span, else it is only
        aggregated. Returns the frame to pass to `exit`."""
        parent_span = self._stack[-1][3] if self._stack else None
        span_id = parent_span
        if keep:
            span_id = self._next_id
            self._next_id += 1
        # [name, start, child seconds, span id for children, parent span, keep]
        frame = [name, 0.0, 0.0, span_id, parent_span, keep]
        self._stack.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def exit(self, frame: list) -> None:
        end = time.perf_counter()
        name, start, child, span_id, parent_span, keep = frame
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {name!r} closed out of order")
        duration = end - start
        if self._stack:
            self._stack[-1][2] += duration
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += duration - child
        if keep:
            self.spans.append((span_id, name, start, end, parent_span,
                               self.session, duration - child))

    def write_spans(self, path) -> None:
        """Write every recorded span as one JSON object per line."""
        with open(path, "w") as fh:
            for span_id, name, start, end, parent, session, self_s in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "session": session, "self_s": self_s}) + "\n")


def _wrap(rec: Recorder, orig, name: str, keep: bool, before=None, after=None):
    def wrapper(*args, **kwargs):
        token = before(args) if before else None
        frame = rec.enter(name, keep)
        try:
            result = orig(*args, **kwargs)
        except BaseException:
            rec.exit(frame)
            rec.counts[name + ".raised"] += 1
            raise
        rec.exit(frame)
        if after:
            after(token, args, result)
        return result
    return wrapper


class Instrumentation:
    """Context manager that installs the timing wrappers on the package."""

    def __init__(self, lrfcodes_modules, rec: Recorder):
        codec = lrfcodes_modules["codec"]
        transfer = lrfcodes_modules["transfer"]
        gf2 = lrfcodes_modules["gf2"]
        channel = lrfcodes_modules["channel"]
        counts, maxima = rec.counts, rec.maxima

        def encoded(_, args, result):
            counts["codec.encode.symbols"] += len(result)

        def released(before, args, _):
            counts["codec.peel.released"] += args[0].encoding_used - before

        def gf2_solved(_, args, result):
            unknowns = len(args[1])
            counts["gf2.solve.unknowns"] += unknowns
            counts["gf2.solve.solved"] += len(result)
            maxima["gf2.solve.unknowns_max"] = max(
                maxima["gf2.solve.unknowns_max"], unknowns)

        def masked(_, args, result):
            counts["channel.symbols"] += len(result)
            counts["channel.dropped"] += int(result.sum())

        def observed(_, args, result):
            counts["channel.reports"] += result is not None

        # (owner, attribute, layer name, one span per call, before, after).
        # Module-level names are patched where the caller looks them up:
        # transfer imports encode_stream, precode_* and the distribution
        # builders into its own namespace; codec calls its own globals.
        targets = [
            (transfer, "encode_stream", "codec.encode", True, None, encoded),
            (codec, "select_neighbors", "codec.neighbors", False, None, None),
            (codec, "derive_degree", "codec.degree", False, None, None),
            (codec, "sample", "distributions.sample", False, None, None),
            (transfer, "robust_soliton", "distributions.build", True, None, None),
            (transfer, "lrf_ideal", "distributions.build", True, None, None),
            (transfer, "lr_raptor_dist", "distributions.build", True, None, None),
            (codec.PeelDecoder, "add_symbol", "codec.peel.add_symbol", False, None, None),
            (codec.PeelDecoder, "add_native", "codec.peel.add_native", False, None, None),
            (codec.PeelDecoder, "run", "codec.peel.run", True,
             lambda args: args[0].encoding_used, released),
            (codec.PeelDecoder, "covered_map", "codec.peel.covered_map", True, None, None),
            (codec.PeelDecoder, "pending_rows", "codec.peel.pending_rows", True, None, None),
            (transfer, "precode_expand", "precode.expand", True, None, None),
            (transfer, "precode_solve", "precode.solve", True, None, None),
            (gf2, "solve_partial", "gf2.solve", True, None, gf2_solved),
            (channel.Channel, "loss_mask", "channel.loss_mask", True, None, masked),
            (channel.LossRateEstimator, "observe", "channel.estimator", False, None, observed),
            (transfer.SourceState, "start_window", "transfer.start_window", True, None, None),
            (transfer.SourceState, "step", "transfer.source_step", True, None, None),
            (transfer.DestinationState, "step", "transfer.dest_step", False, None, None),
            (transfer.DestinationState, "conclude", "transfer.conclude", True, None, None),
        ]
        self._patches = []
        for owner, attr, name, keep, before, after in targets:
            orig = getattr(owner, attr)
            self._patches.append((owner, attr, orig,
                                  _wrap(rec, orig, name, keep, before, after)))

    def __enter__(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, attr, orig, _ in self._patches:
            setattr(owner, attr, orig)
        return False

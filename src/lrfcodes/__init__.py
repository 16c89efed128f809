"""Loss-rate-aware fountain coding with LT and Raptor-style baselines.

Subpackages/modules:
    distributions -- soliton-family degree distributions and closed-form analysis
    codec         -- XOR fountain encoder, columnar repair batches and round peeling decoder
    precode       -- systematic sparse+dense precode and its composition
    channel       -- seedable erasure channel and loss-rate estimation
    transfer      -- windowed transfer state machines
    bench         -- CSV-emitting benchmark harness (CLI: lrf-bench)
"""

from .channel import Channel, ChannelConfig
from .codec import PeelDecoder, RepairBatch, SourceBlock, encode_stream
from .distributions import (DegreeDistribution, LossContext,
                            ideal_soliton, lr_raptor_dist, lrf_ideal,
                            min_degree, recovery_probability, robust_soliton)
from .errors import (DecodeFailure, InfeasibleCapError, InvalidInputError,
                     InvalidParameterError, NoLossError, SessionFailure)
from .precode import PrecodeConfig, precode_expand, precode_solve
from .transfer import SessionMetrics, run_session

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"

"""The package's public names."""

import importlib

import lrfcodes

PUBLIC = [
    "Channel", "ChannelConfig", "DecodeFailure", "DegreeDistribution", "InfeasibleCapError",
    "InvalidInputError", "InvalidParameterError", "LossContext", "NoLossError", "PeelDecoder",
    "PrecodeConfig", "RepairBatch", "SessionFailure", "SessionMetrics", "SourceBlock",
    "channel", "codec", "distributions", "encode_stream", "errors", "gf2", "ideal_soliton",
    "lr_raptor_dist", "lrf_ideal", "min_degree", "precode", "precode_expand",
    "precode_solve", "recovery_probability", "robust_soliton", "run_session", "transfer",
]


def test_public_names_are_the_batch_api():
    # The per-symbol forms and the destination's internals are not exported,
    # but stay in their modules, where tests and perfbench reach them.
    assert sorted(lrfcodes.__all__) == PUBLIC
    for module, name in (("codec", "pack_batch"), ("codec", "select_neighbors"),
                         ("codec", "sample"), ("channel", "LossRateEstimator"),
                         ("channel", "LossReport")):
        assert name not in lrfcodes.__all__
        assert hasattr(importlib.import_module(f"lrfcodes.{module}"), name)

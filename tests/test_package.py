import importlib

import markovsim as ms

# the steps inside each scheme are imported from their own modules
SCHEME_STEPS = {
    "vertical": ("FnDescMode", "describe_functions", "functions_from_bits",
                 "offline_simulate", "run_vertical_exchange"),
    "scheme_random": ("Partition", "find_partition", "encode_partition",
                      "decode_partition", "split_parts"),
    "scheme_regular": ("predictor_exchange", "ParityBranch", "parity_bob",
                       "predict_last", "summarize_block_alice", "summarize_block_bob"),
}


def test_every_export_resolves_and_star_import_works():
    assert len(set(ms.__all__)) == len(ms.__all__)
    for name in ms.__all__:
        getattr(ms, name)
    namespace = {}
    exec("from markovsim import *", namespace)
    assert set(ms.__all__) <= set(namespace)
    # the payload pair is the one encoder and decoder
    assert not {"encode", "decode"} & set(ms.__all__)
    for module, names in SCHEME_STEPS.items():
        for name in names:
            assert name not in ms.__all__ and not hasattr(ms, name)
            getattr(importlib.import_module(f"markovsim.{module}"), name)

"""Bit-exact simulation of binary Markovian protocols over noisy channels.

A protocol is n rounds of one-bit exchanges where each message is a function
of the bit last received.  This package simulates such protocols over a pair
of binary symmetric channels with three schemes (a non-interactive baseline
and two interactive block-coded schemes), tracks channel-use ledgers and
error-exponent bounds, and ships a Monte Carlo harness for failure-rate
studies.
"""

from .channel import (
    ChannelPair,
    DecodeEvent,
    Direction,
    UsageLedger,
    binary_entropy,
    rate_of,
    shannon_capacity,
)
from .coding import (
    CodeSpec,
    ExponentQuery,
    Identity,
    ML_SEARCH_CAP,
    RandomLinear,
    Repetition,
    decode_payload,
    encode_payload,
    gallager_e0,
    gallager_exponent,
    lemma1_bound,
    nominal_rate,
    parse_code_spec,
    union_bound_profile,
)
from .experiment import (
    ErrorEstimate,
    ExperimentConfig,
    emit,
    run_experiment,
    run_trial,
    wilson_interval,
)
from .protocol import (
    Protocol,
    Transcript,
    TransmitFn,
    eval_fn,
    gen_uniform_protocol,
    parse_protocol,
    serialize_protocol,
    simulate_reference,
)
from .report import SimulationReport
from .scheme_random import (
    Partition,
    decode_partition,
    encode_partition,
    find_partition,
    run_scheme1,
    split_parts,
)
from .scheme_regular import (
    ParityBranch,
    parity_bob,
    predict_last,
    predictor_exchange,
    run_scheme2,
    summarize_block_alice,
    summarize_block_bob,
)
from .vertical import (
    FnDescMode,
    describe_functions,
    functions_from_bits,
    offline_simulate,
    run_baseline,
    run_vertical_exchange,
)

__all__ = [
    "ChannelPair",
    "CodeSpec",
    "DecodeEvent",
    "Direction",
    "ErrorEstimate",
    "ExperimentConfig",
    "ExponentQuery",
    "FnDescMode",
    "Identity",
    "ML_SEARCH_CAP",
    "ParityBranch",
    "Partition",
    "Protocol",
    "RandomLinear",
    "Repetition",
    "SimulationReport",
    "Transcript",
    "TransmitFn",
    "UsageLedger",
    "binary_entropy",
    "decode_partition",
    "decode_payload",
    "describe_functions",
    "emit",
    "encode_partition",
    "encode_payload",
    "eval_fn",
    "find_partition",
    "functions_from_bits",
    "gallager_e0",
    "gallager_exponent",
    "gen_uniform_protocol",
    "lemma1_bound",
    "nominal_rate",
    "offline_simulate",
    "parity_bob",
    "parse_code_spec",
    "parse_protocol",
    "predict_last",
    "predictor_exchange",
    "rate_of",
    "run_baseline",
    "run_experiment",
    "run_scheme1",
    "run_scheme2",
    "run_trial",
    "run_vertical_exchange",
    "serialize_protocol",
    "shannon_capacity",
    "simulate_reference",
    "split_parts",
    "summarize_block_alice",
    "summarize_block_bob",
    "union_bound_profile",
    "wilson_interval",
]

__version__ = "0.1.0"

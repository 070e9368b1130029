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
from .scheme_random import run_scheme1
from .scheme_regular import run_scheme2
from .vertical import run_baseline

__all__ = [
    "ChannelPair",
    "CodeSpec",
    "DecodeEvent",
    "Direction",
    "ErrorEstimate",
    "ExperimentConfig",
    "ExponentQuery",
    "Identity",
    "ML_SEARCH_CAP",
    "Protocol",
    "RandomLinear",
    "Repetition",
    "SimulationReport",
    "Transcript",
    "TransmitFn",
    "UsageLedger",
    "binary_entropy",
    "decode_payload",
    "emit",
    "encode_payload",
    "eval_fn",
    "gallager_e0",
    "gallager_exponent",
    "gen_uniform_protocol",
    "lemma1_bound",
    "nominal_rate",
    "parse_code_spec",
    "parse_protocol",
    "rate_of",
    "run_baseline",
    "run_experiment",
    "run_scheme1",
    "run_scheme2",
    "run_trial",
    "serialize_protocol",
    "shannon_capacity",
    "simulate_reference",
    "union_bound_profile",
    "wilson_interval",
]

__version__ = "0.1.0"

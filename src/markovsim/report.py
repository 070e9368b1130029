"""The result record shared by all simulation schemes, one per batch."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .channel import DecodeEvent, UsageLedger, rate_of
from .protocol import Transcript


@dataclass
class SimulationReport:
    """Everything a Monte Carlo harness needs from a batch of simulated runs.

    alice/bob are the ``(T, n)`` transcripts each party ends up believing
    in; the ``(T,)`` ok flags check them round by round, which equals
    comparing with the noiseless reference.  The ledger is the batch's wire
    record, read by decode_log and block_counts.  row(t) is trial t's lone
    report: ``(n,)`` views, bool flags and its ledger row.
    """

    scheme: str
    n: int
    alice: Transcript
    bob: Transcript
    alice_ok: bool | np.ndarray
    bob_ok: bool | np.ndarray
    ledger: UsageLedger

    @property
    def decode_log(self) -> list[DecodeEvent]:
        return self.ledger.decode_log

    @property
    def block_counts(self) -> dict[int, int]:
        """How many coded blocks of each info-bit size crossed a channel."""
        return self.ledger.block_counts

    @property
    def ok(self) -> bool | np.ndarray:
        return self.alice_ok & self.bob_ok

    @property
    def rate(self) -> Fraction:
        """A lone report's rate 2n / (channel uses), as an exact rational."""
        if np.ndim(self.alice_ok):
            raise ValueError("a batch report has one rate per trial: read row(t).rate")
        return rate_of(self.ledger, self.n)

    def row(self, t: int) -> SimulationReport:
        """Trial t's lone report, holding row views of the batch's views."""
        alice, bob = (Transcript(v.a[t], v.b[t]) for v in (self.alice, self.bob))
        return SimulationReport(self.scheme, self.n, alice, bob, bool(self.alice_ok[t]),
                                bool(self.bob_ok[t]), self.ledger.row(t))

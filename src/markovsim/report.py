"""Per-run result records shared by all simulation schemes."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .channel import DecodeEvent, UsageLedger
from .protocol import Transcript


@dataclass
class SimulationReport:
    """Everything a Monte Carlo harness needs from one simulated run.

    alice/bob are the transcript each party ends up believing in; ok flags
    check them round by round, which equals comparing with the noiseless
    reference.  The ledger is the run's wire record, read by decode_log and block_counts.
    """

    scheme: str
    n: int
    alice: Transcript
    bob: Transcript
    alice_ok: bool
    bob_ok: bool
    ledger: UsageLedger
    rate: Fraction

    @property
    def decode_log(self) -> list[DecodeEvent]:
        return self.ledger.decode_log

    @property
    def block_counts(self) -> dict[int, int]:
        """How many coded blocks of each info-bit size crossed a channel."""
        return self.ledger.block_counts

    @property
    def ok(self) -> bool:
        return self.alice_ok and self.bob_ok

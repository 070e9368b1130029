"""The noisy path against probabilities computed apart from the simulator.

The noise tests pin numpy's bits and the golden lock pins outputs this code
made, so neither sees a fault that is consistent with itself but wrong in
probability: a direction run at the wrong eps, a decode log that drops a
row's miss, or block counts off by a row.  These tests share no code with
the channel, the decoders or the bound column: they read only each trial's
ledger and decode log, as the harness batches them.
"""

import math

import numpy as np
import pytest

import markovsim as ms
from markovsim import experiment

SEED = 17  # fixed before the tests first ran; a cell that fails is investigated, not re-seeded


def bit_error(r: int, eps: float) -> float:
    """p_r = P(Binomial(r, eps) > r/2), a majority vote's bit error."""
    return math.fsum(math.comb(r, j) * eps**j * (1 - eps) ** (r - j)
                     for j in range(r // 2 + 1, r + 1))


@pytest.mark.parametrize("scheme", ["baseline", "scheme1", "scheme2"])
@pytest.mark.parametrize("code, n, eps", [
    (ms.Identity(), 1024, 0.0002),
    (ms.Repetition(3), 256, 0.01),
    (ms.Repetition(5), 64, 0.08),
])
def test_trials_with_a_decode_miss_match_their_exact_rate(scheme, code, n, eps):
    # identity and repetition codes decode bit by bit, each bit wrong with
    # p_r alone; a trial decodes S = sum of size * count over its own block
    # counts, which follow from Alice's side and not from the noise, so it
    # logs a miss with probability exactly p_t = 1 - (1 - p_r)^S, and the
    # count of trials that log one is a sum of independent Bernoulli(p_t).
    # The harness is called with the code itself: it rejects identity at
    # eps > 0, whose rate is not below capacity
    cfg = ms.ExperimentConfig((n,), (eps,), scheme, "identity", 4000, SEED)
    p_r = bit_error(getattr(code, "r", 1), eps)
    missed, mean, var = 0, 0.0, 0.0
    for _, report in experiment.cell_reports(cfg, code, n, eps, 0):
        size_bits = sum(size * count for size, count in report.block_counts.items())
        p_t = 1 - (1 - p_r) ** size_bits
        missed += sum(1 for log in report.decode_log if log)
        mean += p_t.sum()
        var += (p_t * (1 - p_t)).sum()
    z = (missed - mean) / math.sqrt(var)
    assert abs(z) <= 4, f"{missed} trials logged a miss against {mean:.1f} expected (z = {z:.2f})"


@pytest.mark.parametrize("scheme", ["baseline", "scheme1", "scheme2"])
def test_drawn_rlc_failures_stay_under_the_union_bound(scheme):
    # one-sided: with a code drawn per trial, a cell's failure rate is at
    # most its mean union bound, so the Wilson lower bound at z = 4 must not
    # pass it.  Where the bound is below 1 it sits 14-22x above the observed
    # rate, so this catches only gross faults, such as noise far above eps
    # or blocks gone uncounted.  n = 64 at eps = 0.1 is left out: its bound is 1
    rows = [row for n, eps in (((16,), (0.08, 0.1)), ((64,), (0.08,)))
            for row in ms.run_experiment(
                ms.ExperimentConfig(n, eps, scheme, "rlc:k=12,rate=1/4", 1000, SEED))]
    for row in rows:
        lo, _ = experiment.wilson_interval(row.failures, row.trials, z=4)
        assert 0 < row.failures and lo <= row.block_union_bound < 1, row

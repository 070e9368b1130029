import functools
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

import markovsim as ms
from markovsim import (
    ChannelPair,
    Direction,
    UsageLedger,
    binary_entropy,
    rate_of,
    shannon_capacity,
)
from markovsim.experiment import run_batch


def test_noiseless_channel_is_identity():
    ch = ChannelPair(0.0, 42)
    led = UsageLedger()
    bits = np.random.default_rng(0).integers(0, 2, 1000).astype(np.uint8)
    out = ch.transmit(Direction.A_TO_B, bits, led)
    assert np.array_equal(out, bits)
    assert led.uses_ab == 1000 and led.uses_ba == 0


def test_ledger_counts_both_directions():
    ch = ChannelPair(0.1, 1)
    led = UsageLedger()
    ch.transmit(Direction.A_TO_B, np.zeros(7, np.uint8), led)
    ch.transmit(Direction.B_TO_A, np.zeros(5, np.uint8), led)
    ch.transmit(Direction.B_TO_A, np.zeros(3, np.uint8), led)
    assert (led.uses_ab, led.uses_ba, led.total) == (7, 8, 15)


def test_flip_rate_near_epsilon():
    ch = ChannelPair(0.1, 9)
    led = UsageLedger()
    out = ch.transmit(Direction.A_TO_B, np.zeros(1_000_000, np.uint8), led)
    flips = int(out.sum())
    assert abs(flips - 100_000) < 3 * np.sqrt(1_000_000 * 0.1 * 0.9)


def test_noise_independent_of_chunking():
    whole = ChannelPair(0.2, 77).transmit(
        Direction.A_TO_B, np.zeros(10_000, np.uint8), UsageLedger()
    )
    ch = ChannelPair(0.2, 77)
    led = UsageLedger()
    parts = []
    for size in (1, 7, 130, 999, 3000, 5863):
        parts.append(ch.transmit(Direction.A_TO_B, np.zeros(size, np.uint8), led))
    assert np.array_equal(np.concatenate(parts), whole)


@pytest.mark.parametrize("seeds, rows", [([3, 2**64 + 5, 0], (3,)), (77, ())])
def test_noise_keys_are_derived_once_per_pair(monkeypatch, seeds, rows):
    # both directions' keys come from one hash call at construction; no
    # message derives more, whichever use counts or word edges it crosses
    calls = []
    real = ms.channel._seeds.seed_states

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(ms.channel._seeds, "seed_states", counted)
    ChannelPair(0.0, seeds).transmit(Direction.A_TO_B, np.zeros(rows + (9000,), np.uint8),
                                     UsageLedger())
    assert calls == []
    ch, led = ChannelPair(0.1, seeds), UsageLedger()
    assert len(calls) == 1
    for size in (63, 2, 64, 1, 4095, 4100, 3):
        for direction in Direction:
            ch.transmit(direction, np.zeros(rows + (size,), np.uint8), led)
    assert led.uses_ab == led.uses_ba == 8328
    assert len(calls) == 1


def test_batched_rows_see_their_lone_noise():
    # row t of a batch gets what a lone pair seeded with seed t adds, however
    # either side chunks the stream; the batch charges each message's length
    # once
    seeds = [3, 77, 2**63 + 5, 0]
    rng = np.random.default_rng(1)
    bits = rng.integers(0, 2, (len(seeds), 10_000)).astype(np.uint8)
    for direction in ms.Direction:
        for sizes in ((10_000,), (1, 7, 130, 999, 3000, 5863), (4095, 2, 4095, 3808)):
            ch, led = ChannelPair(0.2, seeds), UsageLedger()
            cuts = np.cumsum((0,) + sizes)
            got = np.concatenate(
                [ch.transmit(direction, bits[:, lo:hi], led) for lo, hi in zip(cuts, cuts[1:])],
                axis=1,
            )
            assert led.total == 10_000
            for t, seed in enumerate(seeds):
                lone = ChannelPair(0.2, seed)
                want = np.concatenate(
                    [lone.transmit(direction, bits[t, lo : lo + 2500], UsageLedger())
                     for lo in range(0, 10_000, 2500)]
                )
                assert np.array_equal(got[t], want)
            assert 1500 < int((got != bits).sum(axis=1).min())


@pytest.mark.parametrize("seeds, rows", [([3, 2**64 + 5, 0], (3,)), (2**64 + 9, ())])
def test_draw_ahead_never_changes_an_output(monkeypatch, seeds, rows):
    # (span drawn ahead first, or None; message length), each step run in
    # both directions in turn: every transmit must get what a pair that draws
    # per message gets, and only messages outside the last span draw again
    plan = [
        (40, 25), (None, 25),  # the second straddles the kept draw's end
        (30, 30),  # a span equal to its message
        (100, 10), (None, 20), (None, 5),  # longer: three messages inside
        (5, 20),  # shorter
        (0, 7),  # no span: the one before still ends earlier
        (None, 4096 - 227),
        (500, 200), (None, 300),  # across word edges, ending at the span's end
        (None, 20),
    ]
    calls = []
    real = ChannelPair._noise

    def counted(ch, *args):
        calls.append(args)
        return real(ch, *args)

    monkeypatch.setattr(ChannelPair, "_noise", counted)
    rng = np.random.default_rng(4)
    ch, led = ChannelPair(0.1, seeds), UsageLedger()
    plain, plain_led = ChannelPair(0.1, seeds), UsageLedger()
    for span, size in plan:
        for direction in Direction:
            if span is not None:
                ch.draw_ahead(direction, span)
            bits = rng.integers(0, 2, rows + (size,)).astype(np.uint8)
            got = ch.transmit(direction, bits, led)
            assert np.array_equal(got, plain.transmit(direction, bits, plain_led))
    assert (led.uses_ab, led.uses_ba) == (plain_led.uses_ab, plain_led.uses_ba)
    assert len(calls) == 2 * (5 + 5) + 2 * len(plan)
    # at eps 0 nothing is drawn, ahead or not
    calls.clear()
    ch, bits = ChannelPair(0.0, seeds), rng.integers(0, 2, rows + (50,)).astype(np.uint8)
    ch.draw_ahead(Direction.B_TO_A, 50)
    assert np.array_equal(ch.transmit(Direction.B_TO_A, bits, led), bits)
    assert calls == []


# The noise stream is the package's own (SplitMix64 words read most
# significant bit first), so its statistics are checked here over many keys:
# seeds 1000..1191 and 64 seeds of 2**64 or more, each row STAT_USES[eps] long.
STAT_SEEDS = list(range(1000, 1192)) + [2**64 + 3 * i for i in range(64)]
STAT_USES = {1e-6: 1 << 18, 0.001: 1 << 16, 0.02: 1 << 14, 0.05: 1 << 14, 0.1: 1 << 14,
             0.2: 1 << 14, 0.3: 1 << 14, 0.49: 1 << 14}


@functools.cache
def flip_positions(eps):
    """Per direction, the sorted flat positions (row * uses + use) of every
    flip, drawn message by message so that no whole stream is held."""
    uses, chunk = STAT_USES[eps], 1 << 13
    ch, led = ChannelPair(eps, STAT_SEEDS), UsageLedger()
    out = []
    for direction in Direction:
        found = []
        for lo in range(0, uses, chunk):
            flips = ch.transmit(direction, np.zeros((len(STAT_SEEDS), chunk), np.uint8), led)
            row, at = np.divmod(np.flatnonzero(flips), chunk)
            found.append(row * uses + lo + at)
        out.append(np.sort(np.concatenate(found)))
    return out


def hits(values, flat):
    """How many of values lie in the sorted array flat."""
    at = np.minimum(np.searchsorted(flat, values), len(flat) - 1)
    return int((flat[at] == values).sum()) if len(flat) else 0


def correlation(a, b, pairs, size):
    """Pearson correlation of two 0/1 series of size terms with a and b ones
    and pairs terms where both are 1."""
    pa, pb = a / size, b / size
    return (pairs / size - pa * pb) / np.sqrt(pa * (1 - pa) * pb * (1 - pb))


@pytest.mark.parametrize("eps", sorted(STAT_USES))
def test_flip_frequency_of_each_direction_is_epsilon(eps):
    # each direction's share of flipped uses must hold eps within its Wilson
    # interval at z = 4
    size = len(STAT_SEEDS) * STAT_USES[eps]
    for flat in flip_positions(eps):
        lo, hi = ms.wilson_interval(len(flat), size, z=4.0)
        assert lo <= eps <= hi, (len(flat), size)


@pytest.mark.parametrize("eps", sorted(STAT_USES))
def test_run_lengths_fit_geometric(eps):
    # the gap from each flip, and from the start of each row, to the next
    # flip is Geometric(eps).  A gap counts only if it starts at least `top`
    # uses before its row's end, so that each bin below is seen whole; bins
    # are log-spaced lengths up to top, merged until each expects 5 gaps.
    uses, rows = STAT_USES[eps], len(STAT_SEEDS)
    top = uses // 2
    edges = np.unique(np.ceil(np.geomspace(1, top, 40)).astype(np.int64))
    for flat in flip_positions(eps):
        starts = np.concatenate([np.arange(rows) * uses - 1, flat])
        row = np.concatenate([np.arange(rows), flat // uses])
        keep = starts - row * uses + top <= uses - 1
        starts, row = starts[keep], row[keep]
        nxt = np.searchsorted(flat, starts, side="right")
        ahead = np.append(flat, np.iinfo(np.int64).max)[nxt]
        gap = np.where(ahead < (row + 1) * uses, ahead - starts, np.iinfo(np.int64).max)
        observed = np.append(np.histogram(gap, np.append(0, edges) + 0.5)[0],
                             (gap > top).sum())
        cdf = 1 - (1 - eps) ** np.append(0, edges).astype(float)
        expected = len(gap) * np.append(np.diff(cdf), 1 - cdf[-1])
        obs, exp, o, e = [], [], 0, 0.0
        for oi, ei in zip(observed, expected):
            o, e = o + oi, e + ei
            if e >= 5:
                obs.append(o)
                exp.append(e)
                o, e = 0, 0.0
        obs[-1] += o
        exp[-1] += e
        assert len(obs) >= 3, (eps, len(gap))
        assert stats.chisquare(obs, exp).pvalue > 1e-3, (eps, obs, exp)


@pytest.mark.parametrize("eps", sorted(STAT_USES))
def test_flips_are_uncorrelated(eps):
    # lag 1 within a row, between neighbouring rows (seeds t and t + 1) and
    # between the two directions of one seed: each correlation is within
    # 4 / sqrt(terms) of zero
    uses, rows = STAT_USES[eps], len(STAT_SEEDS)
    ab, ba = flip_positions(eps)
    for flat in (ab, ba):
        inside = flat % uses < uses - 1  # a flip with a next use in its row
        size = rows * (uses - 1)
        lag1 = correlation(inside.sum(), (flat % uses > 0).sum(),
                           hits(flat[inside] + 1, flat), size)
        assert abs(lag1) * np.sqrt(size) < 4, ("lag 1", lag1)
        size = (rows - 1) * uses
        below = flat < size
        rows_r = correlation(below.sum(), (flat >= uses).sum(),
                             hits(flat[below] + uses, flat), size)
        assert abs(rows_r) * np.sqrt(size) < 4, ("rows", rows_r)
    size = rows * uses
    both = correlation(len(ab), len(ba), hits(ab, ba), size)
    assert abs(both) * np.sqrt(size) < 4, ("directions", both)


def test_noise_reproducible_and_keyed_by_direction():
    a1 = ChannelPair(0.3, 5).transmit(
        Direction.A_TO_B, np.zeros(5000, np.uint8), UsageLedger()
    )
    a2 = ChannelPair(0.3, 5).transmit(
        Direction.A_TO_B, np.zeros(5000, np.uint8), UsageLedger()
    )
    b = ChannelPair(0.3, 5).transmit(
        Direction.B_TO_A, np.zeros(5000, np.uint8), UsageLedger()
    )
    other = ChannelPair(0.3, 6).transmit(
        Direction.A_TO_B, np.zeros(5000, np.uint8), UsageLedger()
    )
    assert np.array_equal(a1, a2)
    assert not np.array_equal(a1, b)
    assert not np.array_equal(a1, other)


def test_directions_statistically_independent():
    ch = ChannelPair(0.25, 123)
    led = UsageLedger()
    fa = ch.transmit(Direction.A_TO_B, np.zeros(200_000, np.uint8), led)
    fb = ch.transmit(Direction.B_TO_A, np.zeros(200_000, np.uint8), led)
    table = np.array(
        [
            [np.sum((fa == 0) & (fb == 0)), np.sum((fa == 0) & (fb == 1))],
            [np.sum((fa == 1) & (fb == 0)), np.sum((fa == 1) & (fb == 1))],
        ]
    )
    _, pvalue, _, _ = stats.chi2_contingency(table)
    assert pvalue > 0.01


def test_epsilon_domain():
    ChannelPair(0.0, 1)
    ChannelPair(0.499, 1)
    with pytest.raises(ValueError):
        ChannelPair(0.5, 1)
    with pytest.raises(ValueError):
        ChannelPair(-0.01, 1)
    # a bool is an int to Python, and numpy's too: ChannelPair(np.False_, 0) once
    # built a noiseless pair
    for flag in (False, np.False_, np.True_):
        with pytest.raises(ValueError):
            ChannelPair(flag, 1)


@pytest.mark.parametrize("eps", [0.0, 0.05])
def test_bad_noise_seeds_rejected_up_front(eps):
    # a bool is an int to Python, and True once keyed the noise as seed 1
    for seed, shown in ((-1, "-1"), ([1, 2.5], "2.5"), ([4, -7], "-7"), (True, "True"),
                        ([3, False], "False")):
        with pytest.raises(ValueError,
                           match=f"noise seed must be an integer of at least 0, got {shown}"):
            ChannelPair(eps, seed)
    p = ms.gen_uniform_protocol(8, 1)
    with pytest.raises(ValueError, match="got -5"):
        ms.run_trial("baseline", p, eps, ms.Identity(), noise_seed=-5)
    assert ChannelPair(eps, np.array([0, 2**63], np.uint64)).noise_seeds == (0, 2**63)


@pytest.mark.parametrize("eps", [0.0, 0.05])
def test_message_rows_must_match_the_noise_seeds(eps):
    # a 3-row message on a 2-seed pair once ran at eps 0 and failed in a
    # reshape at eps > 0; a lone message is one row
    led = UsageLedger()
    for seeds, shape in (([1, 2], (3, 4)), (7, (3, 4)), (7, (2, 1, 4)), ([1, 2], (4,)),
                         ([1, 2, 3], (2, 4))):
        rows = 1 if len(shape) == 1 else int(np.prod(shape[:-1]))
        with pytest.raises(ValueError, match=f"{rows} message rows for {np.size(seeds)} noise"):
            ChannelPair(eps, seeds).transmit(Direction.A_TO_B, np.zeros(shape, np.uint8), led)
    assert led.total == 0
    ChannelPair(eps, [1, 2]).transmit(Direction.A_TO_B, np.zeros((2, 4), np.uint8), led)
    ChannelPair(eps, 7).transmit(Direction.B_TO_A, np.zeros(4, np.uint8), led)
    ChannelPair(eps, [7]).transmit(Direction.B_TO_A, np.zeros((1, 4), np.uint8), led)
    p = ms.gen_uniform_protocol(8, range(3))
    with pytest.raises(ValueError, match="3 message rows for 1 noise seeds"):
        run_batch("baseline", p, eps, ms.Identity(), [7])


def test_binary_entropy_values():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0
    assert round(binary_entropy(0.11), 4) == 0.4999
    assert binary_entropy(0.3) == pytest.approx(binary_entropy(0.7), abs=1e-14)
    arr = binary_entropy(np.array([0.0, 0.5, 1.0]))
    assert np.allclose(arr, [0.0, 1.0, 0.0])
    with pytest.raises(ValueError):
        binary_entropy(1.2)
    with pytest.raises(ValueError):
        binary_entropy(float("nan"))
    with pytest.raises(ValueError):
        binary_entropy(np.array([0.1, np.nan]))


def test_shannon_capacity_endpoints_and_monotone():
    assert shannon_capacity(0.0) == 1.0
    assert shannon_capacity(0.5) == pytest.approx(0.0, abs=1e-15)
    grid = np.linspace(0.0, 0.5, 101)
    caps = shannon_capacity(grid)
    assert np.all(np.diff(caps) < 0)
    with pytest.raises(ValueError):
        shannon_capacity(0.51)
    with pytest.raises(ValueError):
        shannon_capacity(float("nan"))
    with pytest.raises(ValueError):
        shannon_capacity(np.array([0.1, np.nan]))


def test_rate_of():
    led = UsageLedger(uses_ab=8, uses_ba=4)
    assert rate_of(led, 4) == Fraction(2, 3)
    led = UsageLedger(uses_ab=200, uses_ba=200)
    assert rate_of(led, 100) == Fraction(1, 2)
    with pytest.raises(ValueError):
        rate_of(UsageLedger(), 4)

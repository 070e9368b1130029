from fractions import Fraction

import numpy as np
import pytest

import markovsim as ms
from markovsim import vertical
from markovsim.protocol import TransmitFn as Mu
from markovsim.vertical import FnDescMode


class RecordingChannel(ms.ChannelPair):
    """ChannelPair that keeps a copy of every wire payload it carried."""

    def __init__(self, epsilon, noise_seed):
        super().__init__(epsilon, noise_seed)
        self.sent = []

    def transmit(self, direction, bits, ledger, uses=None):
        self.sent.append((direction, np.asarray(bits, np.uint8).copy()))
        return super().transmit(direction, bits, ledger, uses)


# ---------------------------------------------------------------------------
# function descriptions


def test_two_bit_descriptions():
    bits = vertical.describe_functions([Mu.MU1, Mu.MU4], FnDescMode.TWO_BIT)
    assert bits.tolist() == [0, 0, 1, 1]
    assert vertical.describe_functions([Mu.MU2], FnDescMode.TWO_BIT).tolist() == [0, 1]
    assert vertical.describe_functions([Mu.MU3], FnDescMode.TWO_BIT).tolist() == [1, 0]


def test_one_bit_descriptions():
    bits = vertical.describe_functions([Mu.MU1, Mu.MU2], FnDescMode.ONE_BIT_ADDITIVE)
    assert bits.tolist() == [0, 1]
    with pytest.raises(ValueError):
        vertical.describe_functions([Mu.MU3], FnDescMode.ONE_BIT_ADDITIVE)


@pytest.mark.parametrize("mode", [FnDescMode.TWO_BIT, FnDescMode.ONE_BIT_ADDITIVE])
def test_description_round_trip(mode):
    rng = np.random.default_rng(9)
    hi = 3 if mode is FnDescMode.ONE_BIT_ADDITIVE else 5
    for _ in range(50):
        fns = rng.integers(1, hi, rng.integers(1, 40)).astype(np.uint8)
        back = vertical.functions_from_bits(
            vertical.describe_functions(fns, mode), mode
        )
        assert np.array_equal(back, fns)


def test_functions_from_bits_is_total():
    rng = np.random.default_rng(10)
    codes = vertical.functions_from_bits(rng.integers(0, 2, 64), FnDescMode.TWO_BIT)
    assert codes.size == 32 and set(np.unique(codes)) <= {1, 2, 3, 4}


# ---------------------------------------------------------------------------
# offline evaluation


def test_offline_simulate_matches_reference():
    for seed in range(30):
        p = ms.gen_uniform_protocol(17, seed)
        ref = ms.simulate_reference(p)
        t = vertical.offline_simulate(p.f, p.g, 0)
        assert np.array_equal(t.a, ref.a) and np.array_equal(t.b, ref.b)


def test_offline_simulate_honors_start_bit():
    t = vertical.offline_simulate([Mu.MU1] * 5, [Mu.MU1] * 5, 1)
    assert t.a.tolist() == [1] * 5 and t.b.tolist() == [1] * 5


def test_offline_simulate_brute_force():
    def brute(f, g, b0):
        a, b, prev = [], [], b0
        for fi, gi in zip(f, g):
            ai = ms.eval_fn(fi, prev)
            bi = ms.eval_fn(gi, ai)
            a.append(ai)
            b.append(bi)
            prev = bi
        return a, b

    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(1, 12))
        f = rng.integers(1, 5, n).astype(np.uint8)
        g = rng.integers(1, 5, n).astype(np.uint8)
        b0 = int(rng.integers(2))
        t = vertical.offline_simulate(f, g, b0)
        ea, eb = brute(f, g, b0)
        assert t.a.tolist() == ea and t.b.tolist() == eb


# ---------------------------------------------------------------------------
# column exchange


def test_exchange_wire_order_interleaves_columns():
    # rows (rounds 1-2) and (rounds 3-4), the second opening at a stuck f:
    # the wire must carry A column 1, B column 1, A column 2, B column 2
    f_rows = np.array([[Mu.MU2, Mu.MU1], [Mu.MU4, Mu.MU2]], np.uint8)
    g_rows = np.array([[Mu.MU1, Mu.MU2], [Mu.MU2, Mu.MU1]], np.uint8)
    ch = RecordingChannel(0.0, 0)
    res = vertical.run_vertical_exchange(
        f_rows, g_rows, np.zeros(2, np.uint8), ms.Identity(), ch, ms.UsageLedger()
    )
    dirs = [d for d, _ in ch.sent]
    payloads = [bits.tolist() for _, bits in ch.sent]
    assert dirs == [
        ms.Direction.A_TO_B,
        ms.Direction.B_TO_A,
        ms.Direction.A_TO_B,
        ms.Direction.B_TO_A,
    ]
    assert payloads == [[1, 1], [1, 0], [1, 1], [0, 1]]
    assert res.alice_a.tolist() == [[1, 1], [1, 1]]
    assert res.alice_b.tolist() == [[1, 0], [0, 1]]
    assert res.bob_a.tolist() == res.alice_a.tolist()
    assert res.bob_b.tolist() == res.alice_b.tolist()


def test_exchange_noiseless_equals_per_row_chains():
    rng = np.random.default_rng(12)
    for code in (ms.Identity(), ms.Repetition(3), ms.RandomLinear(6, Fraction(1, 2), 5)):
        rows, width = 5, 7
        f_rows = rng.integers(1, 5, (rows, width)).astype(np.uint8)
        g_rows = rng.integers(1, 5, (rows, width)).astype(np.uint8)
        starts = rng.integers(0, 2, rows).astype(np.uint8)
        led = ms.UsageLedger()
        res = vertical.run_vertical_exchange(
            f_rows, g_rows, starts, code, ms.ChannelPair(0.0, 0), led
        )
        assert led.decode_log == []
        for r in range(rows):
            want = vertical.offline_simulate(f_rows[r], g_rows[r], int(starts[r]))
            for a, b in ((res.alice_a, res.alice_b), (res.bob_a, res.bob_b)):
                assert np.array_equal(a[r], want.a)
                assert np.array_equal(b[r], want.b)


@pytest.mark.parametrize("family", ["identity", "rep3", "rlc"])
def test_ragged_send_equals_lone_sends(family):
    # a fixed-size message and a ragged one each way, at eps 0.2 so decodes
    # miss; rows of lengths 0, 5, 13, 9 and 3, 0, 11, 6, which k = 4 mostly
    # does not divide.  Each row must put on the wire, decode, spend, profile
    # and log what it would alone, on its own prefix; the payload past it is
    # junk, which send must zero so that a last partial block codes as alone
    seeds, code_seeds = [11, 12, 13, 14], [5, 6, 7, 8]
    codes = {"identity": ms.Identity(), "rep3": ms.Repetition(3)}
    code = codes.get(family, ms.RandomLinear(4, Fraction(1, 2), tuple(code_seeds)))
    rng = np.random.default_rng(3)
    messages = [  # (direction, stage, payload, lengths)
        (ms.Direction.A_TO_B, "fixed_a", rng.integers(0, 2, (4, 6)), None),
        (ms.Direction.A_TO_B, "ragged_a", rng.integers(0, 2, (4, 13)), np.array([0, 5, 13, 9])),
        (ms.Direction.B_TO_A, "fixed_b", rng.integers(0, 2, (4, 7)), None),
        (ms.Direction.B_TO_A, "ragged_b", rng.integers(0, 2, (4, 11)), np.array([3, 0, 11, 6])),
    ]
    ch, led = RecordingChannel(0.2, seeds), vertical.new_ledger(len(seeds))
    got = [vertical.send(ch, code, led, payload.astype(np.uint8), direction, stage, 1, lengths)
           for direction, stage, payload, lengths in messages]
    past = 0  # rows whose decode past their own length reads nonzero
    for t, seed in enumerate(seeds):
        lone_code = codes.get(family, ms.RandomLinear(4, Fraction(1, 2), code_seeds[t]))
        lone_ch, lone_led = RecordingChannel(0.2, seed), ms.UsageLedger()
        for i, ((direction, stage, payload, lengths), batch_got) in enumerate(zip(messages, got)):
            size = payload.shape[1] if lengths is None else lengths[t]
            want = vertical.send(lone_ch, lone_code, lone_led,
                                 payload[t, :size].astype(np.uint8), direction, stage)
            wire = lone_ch.sent[i][1]
            assert ch.sent[i][1][t, : wire.size].tolist() == wire.tolist(), (stage, t)
            assert batch_got[t, :size].tolist() == want.tolist(), (stage, t)
            past += batch_got[t, size:].any()
        assert led.row(t) == lone_led, t
        assert all(type(v) is int for v in (led.row(t).uses_ab, led.row(t).uses_ba))
    # misses were logged, and noise past the prefixes was read but not logged
    assert any(led.decode_log) and past


def test_exchange_ledger_and_profile_accounting():
    rows, width = 3, 2
    f_rows = np.full((rows, width), Mu.MU1, np.uint8)
    g_rows = np.full((rows, width), Mu.MU1, np.uint8)

    led = ms.UsageLedger()
    vertical.run_vertical_exchange(
        f_rows, g_rows, np.zeros(rows, np.uint8), ms.Repetition(3),
        ms.ChannelPair(0.0, 0), led,
    )
    assert (led.uses_ab, led.uses_ba) == (18, 18)  # 2 columns x 3 bits x 3

    led = ms.UsageLedger()
    res = vertical.run_vertical_exchange(
        f_rows, g_rows, np.zeros(rows, np.uint8), ms.RandomLinear(4, Fraction(1, 2), 2),
        ms.ChannelPair(0.0, 0), led, alice_tail=np.array([1, 0], np.uint8),
    )
    # A columns: 3 bits -> one k=4 block, last column 3+2 bits -> two blocks
    assert led.uses_ab == 8 + 16
    assert led.uses_ba == 8 + 8
    assert led.block_profile == [4, 4, 4, 4, 4]
    assert res.bob_tail.tolist() == [1, 0]


def test_exchange_without_tail_returns_none():
    res = vertical.run_vertical_exchange(
        np.full((2, 2), Mu.MU1, np.uint8),
        np.full((2, 2), Mu.MU1, np.uint8),
        np.zeros(2, np.uint8),
        ms.Identity(),
        ms.ChannelPair(0.0, 0),
        ms.UsageLedger(),
    )
    assert res.bob_tail is None


def test_exchange_validates_shapes():
    good = np.full((2, 3), Mu.MU1, np.uint8)
    bad = np.full((3, 2), Mu.MU1, np.uint8)
    empty = np.empty((0, 3), np.uint8)
    for f_rows, g_rows, rows in ((bad, good, 2), (good, good, 5), (empty, empty, 0)):
        with pytest.raises(ValueError):
            vertical.run_vertical_exchange(
                f_rows, g_rows, np.zeros(rows, np.uint8), ms.Identity(),
                ms.ChannelPair(0.0, 0), ms.UsageLedger(),
            )


def test_exchange_logs_decode_failures_under_heavy_noise():
    rng = np.random.default_rng(13)
    f_rows = rng.integers(1, 5, (4, 4)).astype(np.uint8)
    g_rows = rng.integers(1, 5, (4, 4)).astype(np.uint8)
    led = ms.UsageLedger()
    vertical.run_vertical_exchange(
        f_rows, g_rows, np.zeros(4, np.uint8), ms.Repetition(3),
        ms.ChannelPair(0.45, 77), led,
    )
    assert led.decode_log
    for ev in led.decode_log:
        assert ev.stage in ("vertical_a", "vertical_b")
        assert 1 <= ev.index <= 4
        want = ms.Direction.A_TO_B if ev.stage == "vertical_a" else ms.Direction.B_TO_A
        assert ev.direction == want


def test_exchange_failure_rate_within_union_bound():
    # 12 rows x 4 columns under a rate-1/2 random code at eps 0.02; the
    # per-block union bound must dominate the observed mismatch rate
    rows, width, eps, trials = 12, 4, 0.02, 3000
    fails = 0
    bound = None
    for t in range(trials):
        ss = np.random.SeedSequence(entropy=(424242, t))
        s_proto, s_noise, s_code = ss.generate_state(3, np.uint64).tolist()
        rng = np.random.default_rng(s_proto)
        f_rows = rng.integers(1, 5, (rows, width)).astype(np.uint8)
        g_rows = rng.integers(1, 5, (rows, width)).astype(np.uint8)
        code = ms.RandomLinear(rows, Fraction(1, 2), s_code)
        led = ms.UsageLedger()
        res = vertical.run_vertical_exchange(
            f_rows, g_rows, np.zeros(rows, np.uint8), code,
            ms.ChannelPair(eps, s_noise), led,
        )
        ok = True
        for r in range(rows):
            want = vertical.offline_simulate(f_rows[r], g_rows[r], 0)
            ok = ok and np.array_equal(res.alice_b[r], want.b)
            ok = ok and np.array_equal(res.bob_a[r], want.a)
        fails += not ok
        if bound is None:
            bound = ms.union_bound_profile(led.block_profile, Fraction(1, 2), eps)
    p_hat = fails / trials
    assert 0 < p_hat <= bound


# ---------------------------------------------------------------------------
# non-interactive baseline


def test_baseline_noiseless_exact():
    for n in (1, 2, 3, 17, 64):
        for seed in range(10):
            p = ms.gen_uniform_protocol(n, 100 * n + seed)
            rep = vertical.run_baseline(p, ms.ChannelPair(0.0, 0), ms.Identity())
            assert rep.ok and rep.alice_ok and rep.bob_ok
            assert rep.decode_log == []


def test_baseline_rate_is_two_thirds_with_identity():
    p = ms.gen_uniform_protocol(40, 1)
    rep = vertical.run_baseline(p, ms.ChannelPair(0.1, 5), ms.Identity())
    assert rep.rate == Fraction(2, 3)
    assert rep.block_profile == [80, 40]
    assert rep.scheme == "baseline" and rep.n == 40


def test_baseline_rate_scales_with_code():
    p = ms.gen_uniform_protocol(32, 2)
    rep = vertical.run_baseline(p, ms.ChannelPair(0.05, 6), ms.Repetition(3))
    assert rep.rate == Fraction(2, 9)
    rep = vertical.run_baseline(p, ms.ChannelPair(0.05, 6), ms.RandomLinear(8, Fraction(1, 2), 3))
    # 64 desc bits -> 8 blocks of 16, 32 transcript bits -> 4 blocks of 16
    assert rep.rate == Fraction(64, 192)
    assert rep.block_profile == [8] * 12


def test_baseline_flags_are_honest_under_noise():
    ref_p = ms.gen_uniform_protocol(24, 3)
    ref = ms.simulate_reference(ref_p)
    hits = 0
    for seed in range(40):
        rep = vertical.run_baseline(ref_p, ms.ChannelPair(0.2, seed), ms.Identity())
        alice_match = np.array_equal(rep.alice.a, ref.a) and np.array_equal(
            rep.alice.b, ref.b
        )
        bob_match = np.array_equal(rep.bob.a, ref.a) and np.array_equal(rep.bob.b, ref.b)
        assert rep.alice_ok == alice_match and rep.bob_ok == bob_match
        hits += not rep.ok
    assert hits > 0  # eps 0.2 uncoded must break some runs

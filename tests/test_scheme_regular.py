import itertools
from fractions import Fraction

import numpy as np
import pytest

import markovsim as ms
from markovsim import scheme_regular as sg
from markovsim.bits import bits_to_ints, ints_to_bits
from markovsim.channel import Direction
from markovsim.protocol import TransmitFn as Mu
from markovsim.scheme_regular import ParityBranch
from markovsim.vertical import new_ledger, offline_simulate, send


class RecordingChannel(ms.ChannelPair):
    """ChannelPair that keeps a copy of every wire payload it carried."""

    def __init__(self, epsilon, noise_seed):
        super().__init__(epsilon, noise_seed)
        self.sent = []

    def transmit(self, direction, bits, ledger, uses=None):
        self.sent.append(np.asarray(bits, np.uint8).copy())
        return super().transmit(direction, bits, ledger, uses)


def last_b_oracle(f_block, g_block, prev_b):
    return int(offline_simulate(f_block, g_block, prev_b).b[-1])


def unfolded_prediction(f_block, g_block, prev_b):
    """Drive predict_last exactly as the wire protocol would, noiselessly."""
    s_a = sg.summarize_block_alice(f_block)
    s_b, v_b = sg.summarize_block_bob(g_block)
    if s_a > s_b:
        p_b = sg.parity_bob(g_block, s_a, ParityBranch.AT_ALICE)
    else:
        p_b = sg.parity_bob(g_block, s_b, ParityBranch.AT_BOB_OR_NONE)
    return sg.predict_last(prev_b, f_block, s_a, s_b, v_b, p_b)


def test_summarize_block_examples():
    assert sg.summarize_block_bob([Mu.MU1, Mu.MU4, Mu.MU2]) == (2, 1)
    assert sg.summarize_block_bob([Mu.MU3]) == (1, 0)
    assert sg.summarize_block_bob([Mu.MU1, Mu.MU2]) == (0, 0)
    assert sg.summarize_block_alice([Mu.MU1, Mu.MU4, Mu.MU2]) == 2
    assert sg.summarize_block_alice([Mu.MU2, Mu.MU1]) == 0


def test_parity_bob_examples():
    assert sg.parity_bob([Mu.MU2, Mu.MU2, Mu.MU1], 0, ParityBranch.AT_BOB_OR_NONE) == 0
    assert sg.parity_bob([Mu.MU1, Mu.MU2, Mu.MU1], 2, ParityBranch.AT_ALICE) == 1
    assert sg.parity_bob([Mu.MU1], 2, ParityBranch.AT_BOB_OR_NONE) == 0  # clipped
    with pytest.raises(AssertionError):
        sg.parity_bob([Mu.MU3, Mu.MU1], 1, ParityBranch.AT_ALICE)


def test_predict_last_example():
    # s = max(0, 2) lands at Bob's stuck round: v_b ^ p_b ^ offset of f_3
    assert sg.predict_last(0, [Mu.MU1, Mu.MU2, Mu.MU1], 0, 2, 1, 1) == 0


def test_predict_last_validates_s_a():
    with pytest.raises(ValueError):
        sg.predict_last(0, [Mu.MU1], 2, 0, 0, 0)


def test_predict_last_ignores_prev_when_any_stuck():
    rng = np.random.default_rng(20)
    seen = 0
    while seen < 200:
        m = int(rng.integers(1, 8))
        f = rng.integers(1, 5, m).astype(np.uint8)
        g = rng.integers(1, 5, m).astype(np.uint8)
        if sg.summarize_block_alice(f) == 0 and sg.summarize_block_bob(g)[0] == 0:
            continue
        assert unfolded_prediction(f, g, 0) == unfolded_prediction(f, g, 1)
        seen += 1


def test_prediction_exhaustive_small_blocks():
    for m in (1, 2, 3):
        for fw in range(4 ** m):
            f = np.array([(fw // 4 ** t) % 4 + 1 for t in range(m)], np.uint8)
            for gw in range(4 ** m):
                g = np.array([(gw // 4 ** t) % 4 + 1 for t in range(m)], np.uint8)
                for prev in (0, 1):
                    assert unfolded_prediction(f, g, prev) == last_b_oracle(f, g, prev)


def test_prediction_random_blocks():
    rng = np.random.default_rng(21)
    for _ in range(10_000):
        m = int(rng.integers(1, 65))
        f = rng.integers(1, 5, m).astype(np.uint8)
        g = rng.integers(1, 5, m).astype(np.uint8)
        prev = int(rng.integers(2))
        assert unfolded_prediction(f, g, prev) == last_b_oracle(f, g, prev)


# ---------------------------------------------------------------------------
# wire exchange


def test_predictor_ends_match_reference():
    for n, m in ((16, 4), (64, 8), (60, 6), (7, 7), (24, 3)):
        for seed in range(10):
            p = ms.gen_uniform_protocol(n, 31 * n + seed)
            led = ms.UsageLedger()
            ends = sg.predictor_exchange(
                p, m, ms.Identity(), ms.ChannelPair(0.0, 0), led
            )
            ref = ms.simulate_reference(p)
            assert ends.tolist() == ref.b[m - 1 :: m].tolist()
            assert led.decode_log == []


def test_predictor_info_budget():
    for n, m in ((16, 4), (256, 16), (1024, 32), (1000, 10)):
        p = ms.gen_uniform_protocol(n, 5)
        led = ms.UsageLedger()
        sg.predictor_exchange(p, m, ms.Identity(), ms.ChannelPair(0.0, 0), led)
        blocks, width = n // m, m.bit_length()
        assert led.total == blocks * (2 * width + 1)
        assert led.uses_ab == blocks * width
        assert led.uses_ba == blocks * (width + 1)
    led = ms.UsageLedger()
    sg.predictor_exchange(
        ms.gen_uniform_protocol(16, 6), 4, ms.Identity(), ms.ChannelPair(0.0, 0), led
    )
    assert (led.total, led.uses_ab, led.uses_ba) == (28, 12, 16)


def test_predictor_messages_are_per_block():
    # the three wire payloads (Bob's last-stuck indices, Alice's, the parity
    # bits) hold one field per block, so permuting blocks permutes the fields
    m, blocks = 4, 8

    def wire(p):
        ch = RecordingChannel(0.0, 0)
        sg.predictor_exchange(p, m, ms.Identity(), ch, ms.UsageLedger())
        return [bits.reshape(blocks, -1) for bits in ch.sent]

    p = ms.gen_uniform_protocol(m * blocks, 7)
    perm = np.random.default_rng(8).permutation(blocks)
    f2 = p.f.reshape(-1, m)[perm].reshape(-1)
    g2 = p.g.reshape(-1, m)[perm].reshape(-1)
    sent, sent2 = wire(p), wire(ms.Protocol(f2, g2))
    assert [bits.shape for bits in sent] == [(blocks, 3), (blocks, 3), (blocks, 1)]
    for fields, fields2 in zip(sent, sent2):
        assert fields2.tolist() == fields[perm].tolist()


def test_predictor_requires_divisible_length():
    with pytest.raises(ValueError):
        sg.predictor_exchange(
            ms.gen_uniform_protocol(10, 0), 4, ms.Identity(), ms.ChannelPair(0.0, 0),
            ms.UsageLedger(),
        )


def predictor_reference(p, m, code, ch, ledger):
    """The predictor rounds block by block, built from summarize_block_*,
    parity_bob and predict_last.  Returns the block ends and the number of
    blocks whose decoded Alice field lies beyond m."""
    blocks, width = p.n // m, m.bit_length()
    f_rows, g_rows = p.f.reshape(blocks, m), p.g.reshape(blocks, m)
    summaries = [sg.summarize_block_bob(g) for g in g_rows]
    bits = ints_to_bits([s for s, _ in summaries], width)
    got = send(ch, code, ledger, bits, Direction.B_TO_A, "predictor_s_bob")
    s_bob_hat = bits_to_ints(got, width)
    s_alice = [sg.summarize_block_alice(f) for f in f_rows]
    got = send(ch, code, ledger, ints_to_bits(s_alice, width), Direction.A_TO_B,
               "predictor_s_alice")
    s_alice_hat = bits_to_ints(got, width)
    sigma = []
    for g, (s_b, v_b), s_a in zip(g_rows, summaries, s_alice_hat):
        if s_a > s_b:
            sigma.append(sg.parity_bob(g, int(s_a), ParityBranch.AT_ALICE))
        else:
            sigma.append(v_b ^ sg.parity_bob(g, s_b, ParityBranch.AT_BOB_OR_NONE))
    got = send(ch, code, ledger, np.array(sigma, np.uint8), Direction.B_TO_A,
               "predictor_parity")
    ends, prev = [], 0
    for f, s_a, s_b, p_b in zip(f_rows, s_alice, s_bob_hat, got):
        prev = sg.predict_last(prev, f, s_a, int(s_b), 0, int(p_b))
        ends.append(prev)
    return ends, int(np.sum(s_alice_hat > m) + np.sum(s_bob_hat > m))


CODES = (ms.Identity(), ms.Repetition(3), ms.RandomLinear(3, Fraction(1, 2), 5))


def test_predictor_exchange_matches_per_block_reference():
    rng = np.random.default_rng(22)
    beyond_m = noisy = 0
    shapes = [(1, 1), (5, 1), (7, 7), (64, 64), (64, 2), (96, 3), (64, 8)]
    shapes += [(int(n), int(rng.choice([d for d in range(1, n + 1) if n % d == 0])))
               for n in rng.integers(1, 300, 60)]
    for case, (n, m) in enumerate(shapes * 3):
        p = ms.gen_uniform_protocol(n, int(rng.integers(1 << 30)))
        eps = (0.0, 0.05, 0.2)[case // len(shapes)]
        code = CODES[case % 3]
        led, led_ref = ms.UsageLedger(), ms.UsageLedger()
        ends = sg.predictor_exchange(p, m, code, ms.ChannelPair(eps, case), led)
        want, past_m = predictor_reference(p, m, code, ms.ChannelPair(eps, case), led_ref)
        assert ends.tolist() == want, (n, m, eps)
        assert led == led_ref, (n, m, eps)
        beyond_m += past_m
        noisy += bool(led.decode_log)
    # the noisy cases do reach the corrupt fields, past m among them
    assert noisy > len(shapes) // 2 and beyond_m > 10


def _stuck_rows(rng, shape, where):
    """Function codes of the given (T, blocks, m) shape: additive everywhere,
    stuck everywhere, or stuck at random in each block's first or last
    round only."""
    codes = rng.integers(1, 3, shape, dtype=np.uint8)
    stuck = rng.integers(3, 5, shape, dtype=np.uint8)
    if where == "all":
        return stuck
    if where in ("first", "last"):
        at = 0 if where == "first" else -1
        codes[..., at] = np.where(rng.random(shape[:-1]) < 0.5, stuck[..., at], codes[..., at])
    return codes


@pytest.mark.parametrize("m", [1, 2, 63, 64, 65, 255, 256, 300])
def test_batched_predictor_matches_per_block_reference_row_by_row(m):
    # every row of a (T, n) batch predicts, books and logs as its protocol
    # would alone; m >= 256 takes 16-bit round indices
    rng = np.random.default_rng(m)
    past_m = 0
    for where, eps, family in itertools.product(
            ("none", "all", "first", "last"), (0.0, 0.05, 0.45), range(3)):
        trials, blocks = int(rng.choice((2, 5, 8))), int(rng.integers(1, 4))
        shape = (trials, blocks, m)
        f, g = _stuck_rows(rng, shape, where), _stuck_rows(rng, shape, where)
        p = ms.Protocol(f.reshape(trials, -1), g.reshape(trials, -1))
        seeds = rng.integers(1 << 30, size=trials)
        codes = (ms.Identity(), ms.Repetition(3),
                 ms.RandomLinear(3, Fraction(1, 2), tuple(seeds.tolist())))
        code = codes[family]
        led = new_ledger(trials)
        ends = sg.predictor_exchange(p, m, code, ms.ChannelPair(eps, seeds), led)
        assert ends.shape == (trials, blocks)
        for t, seed in enumerate(seeds.tolist()):
            lone = ms.RandomLinear(3, Fraction(1, 2), seed) if family == 2 else code
            ref = ms.UsageLedger()
            want, beyond = predictor_reference(ms.Protocol(p.f[t], p.g[t]), m, lone,
                                               ms.ChannelPair(eps, seed), ref)
            assert ends[t].tolist() == want, (m, where, eps, t)
            row = led.row(t)
            assert (row.uses_ab, row.uses_ba) == (ref.uses_ab, ref.uses_ba)
            assert row.block_counts == dict(ref.block_counts)
            assert row.decode_log == ref.decode_log
            past_m += beyond
    # noisy fields decode past m unless m + 1 is a power of two
    assert (past_m > 0) == bool((m + 1) & m)


# ---------------------------------------------------------------------------
# end-to-end


def test_scheme2_noiseless_exact():
    for n in (1, 2, 5, 16, 37, 64, 257):
        for seed in range(8):
            p = ms.gen_uniform_protocol(n, 77 * n + seed)
            for code in (ms.Identity(), ms.Repetition(3)):
                rep = sg.run_scheme2(p, ms.ChannelPair(0.0, 0), code)
                assert rep.ok and rep.decode_log == [], (n, seed)
                ref = ms.simulate_reference(p)
                assert np.array_equal(rep.bob.a, ref.a)
                assert np.array_equal(rep.alice.b, ref.b)
                assert rep.scheme == "scheme2" and rep.n == n


def test_scheme2_m_override_noiseless():
    p = ms.gen_uniform_protocol(37, 3)
    for m in (1, 2, 5, 8, 37, 50):
        rep = sg.run_scheme2(p, ms.ChannelPair(0.0, 0), ms.Identity(), m=m)
        assert rep.ok, m
    with pytest.raises(ValueError):
        sg.run_scheme2(p, ms.ChannelPair(0.0, 0), ms.Identity(), m=0)


def test_scheme2_ledger_identity():
    # n=256, m=16: predictor 16 blocks x (2*5+1) = 176, vertical 2n = 512
    p = ms.gen_uniform_protocol(256, 4)
    rep = sg.run_scheme2(p, ms.ChannelPair(0.0, 0), ms.Identity())
    assert rep.ledger.total == 176 + 512
    assert rep.rate == Fraction(512, 688)


def test_scheme2_rate_approaches_code_rate():
    rates = []
    for n in (256, 1024, 4096):
        p = ms.gen_uniform_protocol(n, 5)
        rep = sg.run_scheme2(p, ms.ChannelPair(0.0, 0), ms.Repetition(3))
        rates.append(rep.rate)
        assert rep.rate < Fraction(1, 3)
    assert rates[0] < rates[1] < rates[2]


def test_scheme2_survives_heavy_noise():
    p = ms.gen_uniform_protocol(64, 6)
    rep = sg.run_scheme2(p, ms.ChannelPair(0.45, 7), ms.Identity())
    assert rep.decode_log and not rep.ok
    assert rep.bob.a.size == 64 and isinstance(rep.alice_ok, bool)

import itertools
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

import markovsim as ms
from markovsim import vertical
from markovsim.coding import coded_length
from markovsim.experiment import run_batch
from markovsim.protocol import TransmitFn as Mu
from markovsim.protocol import eval_fn_array
from markovsim.scheme_random import find_partition
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


def test_two_bit_descriptions_of_a_batch_and_a_column_slice():
    # a (T, L) batch is described row by row, bit-planes at the even and odd
    # positions, and decodes from a column slice of a wider message, as
    # scheme1 reads the Part A descriptions that open its message
    rng = np.random.default_rng(26)
    fns = rng.integers(1, 5, (5, 33)).astype(np.uint8)
    bits = vertical.describe_functions(fns, FnDescMode.TWO_BIT)
    assert bits.shape == (5, 66) and bits.dtype == np.uint8
    assert np.array_equal(bits[:, 0::2], (fns - 1) >> 1)
    assert np.array_equal(bits[:, 1::2], (fns - 1) & 1)
    wider = np.concatenate([bits, rng.integers(0, 2, (5, 7), dtype=np.uint8)], axis=1)
    back = vertical.functions_from_bits(wider[:, :66], FnDescMode.TWO_BIT)
    assert back.dtype == np.uint8 and np.array_equal(back, fns)


@pytest.mark.parametrize("code", [0, 5, 255])
def test_two_bit_descriptions_reject_codes_outside_1_to_4(code):
    with pytest.raises(ValueError, match="1..4"):
        vertical.describe_functions([[Mu.MU1, Mu.MU2], [code, Mu.MU3]], FnDescMode.TWO_BIT)


def test_one_bit_descriptions():
    bits = vertical.describe_functions([Mu.MU1, Mu.MU2], FnDescMode.ONE_BIT_ADDITIVE)
    assert bits.tolist() == [0, 1]
    with pytest.raises(ValueError):
        vertical.describe_functions([Mu.MU3], FnDescMode.ONE_BIT_ADDITIVE)
    # code 0 once came out as 255, which is not a bit
    for code in (0, 3, 4, 5, 255):
        with pytest.raises(ValueError, match="1..2"):
            vertical.describe_functions(np.array([code, 1, 2]), FnDescMode.ONE_BIT_ADDITIVE)


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


@pytest.mark.parametrize("trials", [None, 3])
def test_identity_send_returns_the_channels_copy(trials):
    # identity coding passes arrays through; the noiseless channel copies, so
    # the receiver never holds the sender's payload
    shape = (37,) if trials is None else (trials, 37)
    payload = np.random.default_rng(4).integers(0, 2, shape).astype(np.uint8)
    ch = ms.ChannelPair(0.0, 1 if trials is None else range(trials))
    ledger = ms.UsageLedger() if trials is None else vertical.new_ledger(trials)
    got = vertical.send(ch, ms.Identity(), ledger, payload, ms.Direction.A_TO_B, "s")
    assert np.array_equal(got, payload)
    assert not np.shares_memory(got, payload)


def column_send(ch, code, ledger, payload, direction, stage, column, lengths=None):
    """send, with the DecodeEvents it logs numbered by their column, as the
    folded exchange numbers them."""
    logs = [ledger.decode_log] if np.ndim(ledger.uses_ab) == 0 else ledger.decode_log
    before = [len(log) for log in logs]
    got = vertical.send(ch, code, ledger, payload, direction, stage, lengths)
    for log, start in zip(logs, before):
        log[start:] = [replace(event, index=column) for event in log[start:]]
    return got


def reference_exchange(f_rows, g_rows, start_bits, code, ch, ledger, alice_tail=None,
                       tail_lengths=None):
    """The column loop, one send per column and direction: A column t from
    Alice's decoded B column t - 1, then Bob's B column from his decoded A
    column.  The folded exchange must leave exactly what this leaves."""
    rows, width = f_rows.shape[-2:]
    views = [np.empty(f_rows.shape, np.uint8) for _ in range(4)]
    alice_a, alice_b, bob_a, bob_b = views
    bob_tail, prev = None, start_bits
    for t in range(width):
        alice_a[..., t] = eval_fn_array(f_rows[..., t], prev)
        payload, lengths = alice_a[..., t], None
        if alice_tail is not None and t == width - 1:
            payload = np.concatenate([payload, alice_tail], -1)
            lengths = None if tail_lengths is None else rows + tail_lengths
        got = column_send(ch, code, ledger, payload, ms.Direction.A_TO_B, "vertical_a",
                          t + 1, lengths)
        bob_a[..., t] = got[..., :rows]
        if alice_tail is not None and t == width - 1:
            bob_tail = got[..., rows:]
        bob_b[..., t] = eval_fn_array(g_rows[..., t], bob_a[..., t])
        alice_b[..., t] = column_send(ch, code, ledger, bob_b[..., t], ms.Direction.B_TO_A,
                                      "vertical_b", t + 1)
        prev = alice_b[..., t]
    return vertical.VerticalResult(*views, bob_tail)


def block_counts(ledger) -> dict:
    """A ledger's block counts as {size: count, or a list of one per row}."""
    return {s: np.asarray(c).tolist() for s, c in ledger.block_counts.items() if np.any(c)}


# code families of the folded exchange; each random linear one holds one
# seed alone and one seed per trial in a batch: k = 3 at rate 1/4, a
# tie-heavy k = 4 at rate 1/2, and a singular G (rate 1, every block ties)
FAMILIES = {
    "identity": lambda seeds: ms.Identity(),
    "rep3": lambda seeds: ms.Repetition(3),
    "rep5": lambda seeds: ms.Repetition(5),
    "rlc_k3": lambda seeds: ms.RandomLinear(3, Fraction(1, 4), seeds((2, 6, 7, 8))),
    "rlc_ties": lambda seeds: ms.RandomLinear(4, Fraction(1, 2), seeds((9, 10, 11, 12))),
    "rlc_singular": lambda seeds: ms.RandomLinear(2, Fraction(1), seeds((1, 3, 4, 5))),
}


@pytest.mark.parametrize("family", list(FAMILIES))
@pytest.mark.parametrize("eps", [0.0, 0.05, 0.1, 0.2])
@pytest.mark.parametrize("tail", ["none", "ragged", "full", "empty"])
@pytest.mark.parametrize("trials", [None, 4])
def test_folded_exchange_equals_the_column_loop(family, eps, tail, trials, monkeypatch):
    # views, Bob's tail, per-row uses, block counts and decode log order
    # (row, then column, A before B) all as the loop leaves them; a
    # lone exchange keeps a scalar ledger.  "ragged" tails have lengths 0..8,
    # "empty" ones are no bits at all, as when Part B is empty
    code = FAMILIES[family](lambda seeds: seeds[0] if trials is None else seeds)
    rng = np.random.default_rng(23)
    lead = () if trials is None else (trials,)
    rows, width = 5, 7
    f_rows = rng.integers(1, 5, lead + (rows, width)).astype(np.uint8)
    g_rows = rng.integers(1, 5, lead + (rows, width)).astype(np.uint8)
    start = rng.integers(0, 2, lead + (rows,)).astype(np.uint8)
    alice_tail = tail_lengths = None
    if tail != "none":
        alice_tail = rng.integers(0, 2, lead + (0 if tail == "empty" else 8,)).astype(np.uint8)
    if tail in ("ragged", "empty") and trials is not None:
        tail_lengths = np.array([0, 8, 3, 5]) if tail == "ragged" else np.zeros(trials, int)
    seeds = 17 if trials is None else range(17, 17 + trials)
    chains, markov_chain = [], vertical._kernels.markov_chain

    def counting_chain(*args):
        chains.append(args)
        return markov_chain(*args)

    results, ledgers = [], []
    for exchange in (vertical.run_vertical_exchange, reference_exchange):
        ledger = ms.UsageLedger() if trials is None else vertical.new_ledger(trials)
        # earlier entries in the ledger stay first and untouched
        ledger.block_counts[99] += 1
        for log in [ledger.decode_log] if trials is None else ledger.decode_log:
            log.append(ms.DecodeEvent("earlier", 1, ms.Direction.B_TO_A))
        with monkeypatch.context() as m:
            m.setattr(vertical._kernels, "markov_chain", counting_chain)
            results.append(exchange(f_rows, g_rows, start, code, ms.ChannelPair(eps, seeds),
                                    ledger, alice_tail, tail_lengths))
        ledgers.append(ledger)
    (fold, loop), (fold_led, loop_led) = results, ledgers
    for name in ("alice_a", "alice_b", "bob_a", "bob_b"):
        assert np.array_equal(getattr(fold, name), getattr(loop, name)), name
    if alice_tail is None:
        assert fold.bob_tail is None and loop.bob_tail is None
    else:
        assert fold.bob_tail.shape == loop.bob_tail.shape
        sizes = np.broadcast_to(alice_tail.shape[-1] if tail_lengths is None else tail_lengths,
                                lead).reshape(-1)
        for got, want, size in zip(fold.bob_tail.reshape(len(sizes), -1),
                                   loop.bob_tail.reshape(len(sizes), -1), sizes):
            assert got[:size].tolist() == want[:size].tolist()
    assert np.array_equal(fold_led.uses_ab, loop_led.uses_ab)
    assert np.array_equal(fold_led.uses_ba, loop_led.uses_ba)
    assert block_counts(fold_led) == block_counts(loop_led)
    assert fold_led.decode_log == loop_led.decode_log
    if trials is None:
        assert type(fold_led.uses_ab) is int and type(fold_led.uses_ba) is int
        assert all(type(c) is int for c in fold_led.block_counts.values())
    if eps == 0.2:  # the logs compared above were not empty
        assert any(fold_led.decode_log) if trials else len(fold_led.decode_log) > 1
    # the loop makes no chain call; a bitwise code needs one, and a singular
    # G, whose every block ties, needs the repair to run again
    if family.startswith("rlc"):
        assert len(chains) > (family == "rlc_singular")
    else:
        assert len(chains) == 1


@pytest.fixture
def kernel_calls(monkeypatch):
    """(calls, tied): each markov_chain, certified_index and ml_decode_index
    call in order, as (name, the search's sub-blocks per trial), and the tie
    mask of each decode the exchange makes."""
    calls, tied = [], []

    def spy(name):
        real = getattr(vertical._kernels, name)

        def call(*args):
            searched = name == "ml_decode_index"
            calls.append((name, np.bincount(args[1], minlength=len(args[0])).tolist()
                          if searched else None))
            return real(*args)

        monkeypatch.setattr(vertical._kernels, name, call)

    for name in ("markov_chain", "certified_index", "ml_decode_index"):
        spy(name)
    decode = vertical.decode_with_ties

    def decode_spy(*args):
        out = decode(*args)
        tied.append(out[1])
        return out

    monkeypatch.setattr(vertical, "decode_with_ties", decode_spy)
    return calls, tied


def test_tie_free_exchange_makes_one_chain_and_one_decode(kernel_calls):
    # at the benchmark's code nothing ties, so the decode kernels run for the
    # first decode of each direction only, and one chain gives every view
    calls, tied = kernel_calls
    code = ms.RandomLinear(12, Fraction(1, 4), (31, 32, 33, 34))
    rng = np.random.default_rng(31)
    f_rows, g_rows = rng.integers(1, 5, (2, 4, 64, 16)).astype(np.uint8)
    start = rng.integers(0, 2, (4, 64)).astype(np.uint8)
    ledger = vertical.new_ledger(4)
    fold = vertical.run_vertical_exchange(f_rows, g_rows, start, code,
                                          ms.ChannelPair(0.05, range(4)), ledger)
    assert len(tied) == 2 and not any(t.any() for t in tied)
    names = [name for name, _ in calls]
    assert names.count("certified_index") == 2 and "ml_decode_index" in names
    assert names.count("markov_chain") == 1 and names[-1] == "markov_chain"
    loop = reference_exchange(f_rows, g_rows, start, code, ms.ChannelPair(0.05, range(4)),
                              vertical.new_ledger(4))
    for name in ("alice_a", "alice_b", "bob_a", "bob_b"):
        assert np.array_equal(getattr(fold, name), getattr(loop, name)), name


def test_repair_searches_only_the_tied_sub_blocks(kernel_calls):
    # a tie-heavy code: after the first chain, each pass searches exactly the
    # sub-blocks that tied in the first decode, A's then B's, and takes no
    # certified pass
    calls, tied = kernel_calls
    code = FAMILIES["rlc_ties"](lambda seeds: seeds)
    rng = np.random.default_rng(23)
    f_rows, g_rows = rng.integers(1, 5, (2, 4, 5, 7)).astype(np.uint8)
    start = rng.integers(0, 2, (4, 5)).astype(np.uint8)
    vertical.run_vertical_exchange(f_rows, g_rows, start, code, ms.ChannelPair(0.1, range(4)),
                                   vertical.new_ledger(4))
    tied_a, tied_b = tied
    assert tied_a.any() and (~tied_a).any()
    first = [name for name, _ in calls].index("markov_chain")
    later = calls[first:]
    assert "certified_index" not in [name for name, _ in later]
    per_pass = [t.sum(-1).tolist() for t in (tied_a, tied_b) if t.any()]
    chains = [name for name, _ in later].count("markov_chain")
    assert [counts for name, counts in later if name == "ml_decode_index"] == per_pass * chains


class PatternChannel(RecordingChannel):
    """RecordingChannel whose noise is a fixed flip pattern per direction,
    keyed by position in that direction's stream."""

    def __init__(self, flips_ab, flips_ba):
        super().__init__(0.0, 0)
        self.flips = [np.asarray(flips_ab, np.uint8), np.asarray(flips_ba, np.uint8)]
        self.at = [0, 0]

    def transmit(self, direction, bits, ledger, uses=None):
        got = super().transmit(direction, bits, ledger, uses)
        d, count = int(direction), np.shape(bits)[-1]
        self.at[d] += count
        return got ^ self.flips[d][self.at[d] - count : self.at[d]]


def test_exchange_wire_order_interleaves_columns():
    # rows (rounds 1-2) and (rounds 3-4), the second opening at a stuck f.
    # A random linear code lays column t in block t of each direction's
    # stream.  Codeword flips spoil B's column 1 and A's column 2, and the
    # exchange must leave what the column loop's wire (A column 1, B column
    # 1, A column 2, B column 2) leaves: B column 1's miss logged first
    f_rows = np.array([[Mu.MU2, Mu.MU1], [Mu.MU4, Mu.MU2]], np.uint8)
    g_rows = np.array([[Mu.MU1, Mu.MU2], [Mu.MU2, Mu.MU1]], np.uint8)
    code = ms.RandomLinear(2, Fraction(1, 2), 3)
    flips_ab = [0] * 4 + ms.encode_payload(code, np.array([1, 0], np.uint8)).tolist()
    flips_ba = ms.encode_payload(code, np.array([0, 1], np.uint8)).tolist() + [0] * 4
    results, ledgers, wires = [], [], []
    for exchange in (vertical.run_vertical_exchange, reference_exchange):
        ch, led = PatternChannel(flips_ab, flips_ba), ms.UsageLedger()
        results.append(exchange(f_rows, g_rows, np.zeros(2, np.uint8), code, ch, led))
        ledgers.append(led)
        wires.append([d for d, _ in ch.sent])
    assert wires[1] == [ms.Direction.A_TO_B, ms.Direction.B_TO_A] * 2
    for res in results:
        assert res.alice_a.tolist() == [[1, 1], [1, 0]]
        assert res.alice_b.tolist() == [[1, 1], [1, 0]]
        assert res.bob_a.tolist() == [[1, 0], [1, 0]]
        assert res.bob_b.tolist() == [[1, 1], [0, 0]]
    assert ledgers[0] == ledgers[1]
    assert ledgers[0].decode_log == [ms.DecodeEvent("vertical_b", 1, ms.Direction.B_TO_A),
                                     ms.DecodeEvent("vertical_a", 2, ms.Direction.A_TO_B)]


def test_folded_exchange_sends_each_direction_once():
    # rows (rounds 1-2) and (rounds 3-4), the second opening at a stuck f:
    # each direction carries all its columns as zero words in one transmit,
    # one block per column, and the ledger books them column by column
    f_rows = np.array([[Mu.MU2, Mu.MU1], [Mu.MU4, Mu.MU2]], np.uint8)
    g_rows = np.array([[Mu.MU1, Mu.MU2], [Mu.MU2, Mu.MU1]], np.uint8)
    for code, wire in ((ms.Identity(), 4), (ms.RandomLinear(2, Fraction(1, 2), 3), 8)):
        ch = RecordingChannel(0.0, 0)
        led = ms.UsageLedger()
        res = vertical.run_vertical_exchange(f_rows, g_rows, np.zeros(2, np.uint8), code, ch, led)
        assert [d for d, _ in ch.sent] == [ms.Direction.A_TO_B, ms.Direction.B_TO_A]
        assert [bits.tolist() for _, bits in ch.sent] == [[0] * wire, [0] * wire]
        assert res.alice_a.tolist() == [[1, 1], [1, 1]]
        assert res.alice_b.tolist() == [[1, 0], [0, 1]]
        assert res.bob_a.tolist() == res.alice_a.tolist()
        assert res.bob_b.tolist() == res.alice_b.tolist()
        assert (led.uses_ab, led.uses_ba, led.block_counts) == (wire, wire, {2: 4})
        assert led.decode_log == []


@pytest.mark.parametrize("n", [16, 64, 300, 1024])
@pytest.mark.parametrize("code", [ms.Identity(), ms.Repetition(3),
                                  ms.RandomLinear(4, Fraction(1, 2), (9, 10, 11))])
def test_scheme2_batch_makes_five_transmits(n, code):
    # three predictor rounds and one folded message per direction, whatever
    # the number of columns
    protocols = [ms.gen_uniform_protocol(n, s) for s in range(3)]
    p = ms.Protocol(np.stack([q.f for q in protocols]), np.stack([q.g for q in protocols]))
    ch = RecordingChannel(0.05, range(3))
    report = ms.run_scheme2(p, ch, code)
    assert len(ch.sent) == 3 + 2 and report.ok.shape == (3,)


def test_folded_scheme1_part_a_makes_two_transmits():
    # the partition, Part A's one message per direction (Part B's
    # descriptions in Alice's), and Bob's Part B reply
    from markovsim import scheme_random as sr

    n = 256
    p = ms.gen_uniform_protocol(n, 5)
    assert sr.find_partition(p.f).p > sr._ceil_root4(n)  # the vertical branch
    for code in (ms.Identity(), ms.RandomLinear(4, Fraction(1, 2), 9)):
        ch = RecordingChannel(0.0, 0)
        rep = ms.run_scheme1(p, ch, code)
        assert rep.ok
        assert [d for d, _ in ch.sent] == [ms.Direction.A_TO_B] * 2 + [ms.Direction.B_TO_A] * 2


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
    got = [vertical.send(ch, code, led, payload.astype(np.uint8), direction, stage, lengths)
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
    assert led.block_counts == {4: 5}
    assert res.bob_tail.tolist() == [1, 0]


@pytest.mark.parametrize("code", [ms.Identity(), ms.Repetition(3)]
                         + [ms.RandomLinear(k, Fraction(1, 2), 4) for k in (3, 5, 12)])
def test_exchange_costs_the_sum_of_its_columns(code):
    # each direction's one transmit is its columns, each coded on its own,
    # with Alice's last also carrying the tail; the schemes' draw_ahead spans
    # count on it.  k = 5 and 12 divide few of the row counts
    C = lambda bits: coded_length(code, bits)  # noqa: E731
    rng = np.random.default_rng(36)
    for rows, width, tail in itertools.product(range(1, 14), range(1, 7), range(10)):
        f_rows, g_rows = rng.integers(1, 5, (2, rows, width)).astype(np.uint8)
        ch, led = RecordingChannel(0.0, 0), ms.UsageLedger()
        vertical.run_vertical_exchange(f_rows, g_rows, np.zeros(rows, np.uint8), code, ch, led,
                                       alice_tail=rng.integers(0, 2, tail).astype(np.uint8))
        alice, bob = (width - 1) * C(rows) + C(rows + tail), width * C(rows)
        assert [bits.shape for _, bits in ch.sent] == [(alice,), (bob,)], (rows, width, tail)
        assert (led.uses_ab, led.uses_ba) == (alice, bob), (rows, width, tail)
    # a ragged batch sends its longest tail, and charges each row its own
    rows, width, sizes = 7, 4, np.array([0, 3, 9, 5, 1])
    f_rows, g_rows = rng.integers(1, 5, (2, len(sizes), rows, width)).astype(np.uint8)
    ch, led = RecordingChannel(0.0, range(len(sizes))), vertical.new_ledger(len(sizes))
    vertical.run_vertical_exchange(f_rows, g_rows, np.zeros((len(sizes), rows), np.uint8), code,
                                   ch, led, rng.integers(0, 2, (len(sizes), 9)).astype(np.uint8),
                                   tail_lengths=sizes)
    alice = (width - 1) * C(rows) + C(rows + 9)
    assert [bits.shape for _, bits in ch.sent] == [(len(sizes), alice),
                                                   (len(sizes), width * C(rows))]
    for t, tail in enumerate(sizes.tolist()):
        want = ((width - 1) * C(rows) + C(rows + tail), width * C(rows))
        assert (led.row(t).uses_ab, led.row(t).uses_ba) == want, t


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
            bound = ms.union_bound_profile(led.block_counts, code, eps)
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
            # Alice's B bits are the channel's copy of Bob's, not his array
            assert not np.shares_memory(rep.alice.b, rep.bob.b)


def test_baseline_rate_is_two_thirds_with_identity():
    p = ms.gen_uniform_protocol(40, 1)
    rep = vertical.run_baseline(p, ms.ChannelPair(0.1, 5), ms.Identity())
    assert rep.rate == Fraction(2, 3)
    assert rep.block_counts == {80: 1, 40: 1}
    assert rep.scheme == "baseline" and rep.n == 40


def test_baseline_rate_scales_with_code():
    p = ms.gen_uniform_protocol(32, 2)
    rep = vertical.run_baseline(p, ms.ChannelPair(0.05, 6), ms.Repetition(3))
    assert rep.rate == Fraction(2, 9)
    rep = vertical.run_baseline(p, ms.ChannelPair(0.05, 6), ms.RandomLinear(8, Fraction(1, 2), 3))
    # 64 desc bits -> 8 blocks of 16, 32 transcript bits -> 4 blocks of 16
    assert rep.rate == Fraction(64, 192)
    assert rep.block_counts == {8: 12}


@pytest.mark.parametrize("scheme, eps", [("baseline", 0.2), ("baseline", 0.02),
                                         ("scheme1", 0.02), ("scheme2", 0.02)])
def test_baseline_flags_are_honest_under_noise(scheme, eps):
    run = getattr(ms, f"run_{scheme}")
    ref_p = ms.gen_uniform_protocol(24, 3)
    ref = ms.simulate_reference(ref_p)
    seen = set()
    for seed in range(40):
        rep = run(ref_p, ms.ChannelPair(eps, seed), ms.Identity())
        alice_match = np.array_equal(rep.alice.a, ref.a) and np.array_equal(
            rep.alice.b, ref.b
        )
        bob_match = np.array_equal(rep.bob.a, ref.a) and np.array_equal(rep.bob.b, ref.b)
        assert rep.alice_ok == alice_match and rep.bob_ok == bob_match
        seen.add(rep.ok)
    assert False in seen  # eps 0.2 uncoded must break some runs, and so must 0.02
    if eps < 0.2:
        assert True in seen  # while some runs at 0.02 get through


# ---------------------------------------------------------------------------
# the reports' round-by-round check


def adversarial_views(p):
    """(T, n) views of p's batch: the reference; the chain from b0 = 1,
    which follows every round but the first; and the reference with one bit
    of a or b, at the first or the last round, flipped or made a byte of 2 or
    255 with the reference's low bit."""
    ref = ms.simulate_reference(p)
    views = [ref, vertical.offline_simulate(p.f, p.g, 1)]
    for at in (0, -1):
        for change in (lambda x: x ^ 1, lambda x: 2 + 253 * x):
            for half in (0, 1):
                ab = [ref.a.copy(), ref.b.copy()]
                ab[half][:, at] = change(ab[half][:, at])
                views.append(ms.Transcript(*ab))
    return views


@pytest.mark.parametrize("n", [1, 2, 64, 257])
@pytest.mark.parametrize("trials", [1, 5])
def test_report_flags_equal_the_reference_comparison(n, trials, monkeypatch):
    p = ms.gen_uniform_protocol(n, range(10 * n, 10 * n + trials))
    f = p.f.copy()
    f[::2, 0] = Mu.MU2  # an additive first round, where b0 = 1 leaves the reference
    p = ms.Protocol(f, p.g)
    ref = ms.simulate_reference(p)
    views = adversarial_views(p)
    chains = []
    monkeypatch.setattr(vertical._kernels, "markov_chain", lambda *args: chains.append(args))
    ledger = vertical.new_ledger(trials)
    seen = set()
    for i, (alice, bob) in enumerate(zip(views, views[1:] + views[:1])):
        report = vertical.finish_report("test", p, alice, bob, ledger)
        assert report.alice_ok.shape == report.bob_ok.shape == (trials,)
        for t in range(trials):
            rep = report.row(t)
            for view, flag in ((alice, rep.alice_ok), (bob, rep.bob_ok)):
                assert flag == (np.array_equal(view.a[t], ref.a[t])
                                and np.array_equal(view.b[t], ref.b[t])), (i, t)
                seen.add(flag)
    assert chains == [] and seen == {False, True}


@pytest.mark.parametrize("scheme, chains", [("baseline", 1), ("scheme2", 2)])
def test_noiseless_batch_chains(scheme, chains, kernel_calls):
    # the baseline runs only Bob's offline chain; scheme2 only its block ends
    # and one exchange pass: no chain for the reports
    calls, _ = kernel_calls
    p = ms.gen_uniform_protocol(256, range(4))
    report = getattr(ms, f"run_{scheme}")(p, ms.ChannelPair(0.0, range(4)), ms.Identity())
    assert report.ok.tolist() == [True] * 4
    assert [name for name, _ in calls].count("markov_chain") == chains


# ---------------------------------------------------------------------------
# decode logs


@pytest.fixture
def built_events(monkeypatch):
    """Every DecodeEvent the send path builds, in order."""
    built = []

    def event(*args):
        built.append(ms.DecodeEvent(*args))
        return built[-1]

    monkeypatch.setattr(vertical, "DecodeEvent", event)
    return built


@pytest.mark.parametrize("scheme", ["baseline", "scheme1", "scheme2"])
def test_a_noiseless_batch_builds_no_decode_event(scheme, built_events):
    rows = ms.run_experiment(ms.ExperimentConfig((256,), (0.0,), scheme, "identity", 64, 3))
    assert rows[0].failures == 0 and built_events == []


@pytest.mark.parametrize("scheme", ["baseline", "scheme1", "scheme2"])
def test_a_noisy_batch_builds_each_missed_event_once(scheme, built_events):
    # one event per missed message or column, shared by every row that
    # missed it, and each row's log as its lone trial logs it
    p = ms.gen_uniform_protocol(256, range(100, 164))
    if scheme == "scheme1":  # a scheme1 batch shares one block count
        _, counts = find_partition(p.f)
        keep = counts == np.bincount(counts).argmax()
        p = ms.Protocol(p.f[keep], p.g[keep])
    code = ms.Repetition(3)
    report = run_batch(scheme, p, 0.05, code, range(len(p.f)))
    logged = [event for log in report.decode_log for event in log]
    assert len(set(logged)) > 1
    assert len(built_events) == len(set(built_events)) and set(built_events) == set(logged)
    assert {id(event) for event in logged} <= {id(event) for event in built_events}
    for t in range(len(p.f)):
        lone = ms.run_trial(scheme, ms.Protocol(p.f[t], p.g[t]), 0.05, code, t)
        assert lone.decode_log == report.decode_log[t], t

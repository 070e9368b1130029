import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy import optimize, stats

import markovsim as ms
from markovsim import _kernels, coding
from markovsim.bits import ints_to_bits
from markovsim.channel import Direction
from markovsim.vertical import new_ledger, send


def test_identity_round_trip():
    bits = np.array([1, 0, 1, 1], np.uint8)
    assert np.array_equal(ms.encode_payload(ms.Identity(), bits), bits)
    assert np.array_equal(ms.decode_payload(ms.Identity(), bits, 4), bits)


def test_repetition_encode_decode():
    rep3 = ms.Repetition(3)
    assert ms.encode_payload(rep3, [1, 0, 1]).tolist() == [1, 1, 1, 0, 0, 0, 1, 1, 1]
    assert ms.decode_payload(rep3, [1, 1, 0], 1).tolist() == [1]
    assert ms.decode_payload(rep3, [0, 1, 0, 1, 1, 1], 2).tolist() == [0, 1]
    # True once built a rep1 code, and 3.0 a rep3 one
    for r, message in ((4, "odd, got 4"), (True, "an integer of at least 1, got True"),
                       (3.0, "an integer of at least 1, got 3.0")):
        with pytest.raises(ValueError, match=f"repetition factor must be {message}"):
            ms.Repetition(r)
    with pytest.raises(ValueError):
        ms.decode_payload(rep3, [1, 1], 1)


def test_rlc_encode_is_matrix_product():
    code = ms.RandomLinear(4, Fraction(1, 2), 3)
    G = np.random.default_rng(3).integers(0, 2, (4, 8), dtype=np.uint8)
    for word in range(16):
        info = np.array([(word >> (3 - t)) & 1 for t in range(4)], np.uint8)
        assert np.array_equal(ms.encode_payload(code, info), (info @ G) % 2)


def test_rlc_codeword_length():
    assert ms.RandomLinear(4, Fraction(1, 2), 0).nc == 8
    assert ms.RandomLinear(5, Fraction(1, 3), 0).nc == 15
    assert ms.RandomLinear(5, Fraction(2, 3), 0).nc == 8  # ceil(15/2)


def test_rlc_round_trip_exhaustive():
    code = ms.RandomLinear(4, Fraction(1, 2), 3)
    for word in range(16):
        info = np.array([(word >> (3 - t)) & 1 for t in range(4)], np.uint8)
        assert np.array_equal(ms.decode_payload(code, ms.encode_payload(code, info), 4), info)


def test_rlc_corrects_single_flips():
    # seed 7 gives the (8,4) code minimum distance 3
    code = ms.RandomLinear(4, Fraction(1, 2), 7)
    for word in range(16):
        info = np.array([(word >> (3 - t)) & 1 for t in range(4)], np.uint8)
        cw = ms.encode_payload(code, info)
        for pos in range(8):
            dented = cw.copy()
            dented[pos] ^= 1
            assert np.array_equal(ms.decode_payload(code, dented, 4), info)


def test_rlc_tie_breaks_to_smallest_info_word():
    # seed 1 draws G = [[1, 1]] for k=1, nc=2: received 01 is distance 1
    # from both codewords, so the all-zero info word must win
    code = ms.RandomLinear(1, Fraction(1, 2), 1)
    assert ms.encode_payload(code, [1]).tolist() == [1, 1]
    assert ms.decode_payload(code, np.array([0, 1], np.uint8), 1).tolist() == [0]


@pytest.mark.parametrize("rate", [True, False, 0, Fraction(3, 2), np.True_, np.False_, None,
                                  "half", float("nan"), float("inf")])
def test_rlc_rejects_rates_outside_0_1(rate):
    # Fraction(True) is 1: RandomLinear(4, True, 1) once built a rate-1 code, and
    # a rate Fraction cannot read, np.True_ among them, once raised its own error
    with pytest.raises(ValueError, match="code rate must lie in"):
        ms.RandomLinear(4, rate, 1)
    assert ms.RandomLinear(4, 1, 1).nc == 4


@pytest.mark.parametrize("rate, exact, nc", [
    (1 / 3, Fraction(1, 3), 12), (2 / 3, Fraction(2, 3), 6), (0.1, Fraction(1, 10), 40),
    (0.25, Fraction(1, 4), 16), (np.float64(1 / 3), Fraction(1, 3), 12),
])
def test_rlc_reads_a_float_rate_as_the_fraction_it_rounds_from(rate, exact, nc):
    # RandomLinear(4, 1/3) once built a (4, 13) code of rate
    # 6004799503160661/18014398509481984
    code = ms.RandomLinear(4, rate, 1)
    assert code == ms.RandomLinear(4, exact, 1) and code.rate == exact and code.nc == nc
    # a float no small fraction rounds to is read exactly
    assert ms.RandomLinear(4, 1e-9, 1).rate == Fraction(1e-9)


def test_numpy_integer_code_parameters_are_kept_as_python_ints():
    # np.int64(3) as r once made nominal_rate a Fraction of numpy integers
    rep = ms.Repetition(np.int64(3))
    assert type(rep.r) is int and rep == ms.Repetition(3)
    assert type(ms.nominal_rate(rep).denominator) is int
    code = ms.RandomLinear(np.int64(4), Fraction(1, 2), np.uint32(5))
    assert (type(code.k), type(code.code_seed)) == (int, int)
    assert code == ms.RandomLinear(4, Fraction(1, 2), 5)
    stack = ms.RandomLinear(4, Fraction(1, 2), (np.uint64(2**63), 7))
    assert stack.code_seed == (2**63, 7) and {type(s) for s in stack.code_seed} == {int}
    for seeds, shown in (((), r"\(\)"), ((1, None), "None"), ([1, 2], r"\[1, 2\]")):
        with pytest.raises(ValueError, match=f"code seed must be an integer of at least 0, "
                                             f"got {shown}"):
            ms.RandomLinear(4, Fraction(1, 2), seeds)


def test_rlc_info_block_cap():
    ms.RandomLinear(coding.ML_SEARCH_CAP, Fraction(1, 2), 0)
    with pytest.raises(ValueError):
        ms.RandomLinear(coding.ML_SEARCH_CAP + 1, Fraction(1, 2), 0)


def test_rlc_needs_seed_before_use():
    with pytest.raises(ValueError):
        ms.encode_payload(ms.RandomLinear(4, Fraction(1, 2), None), [0, 0, 0, 0])


def test_payload_split_accounting():
    code = ms.RandomLinear(4, Fraction(1, 2), 3)
    assert ms.coding.payload_blocks(code, 10) == (4, 3)
    assert ms.coding.coded_length(code, 10) == 24
    assert ms.coding.payload_blocks(ms.Repetition(3), 10) == (10, 1)
    assert ms.coding.coded_length(ms.Repetition(3), 10) == 30
    assert ms.coding.payload_blocks(ms.Identity(), 0) == (0, 0)


def test_payload_round_trip_all_families():
    rng = np.random.default_rng(4)
    for code in (ms.Identity(), ms.Repetition(3), ms.RandomLinear(4, Fraction(1, 2), 3)):
        for length in (0, 1, 3, 4, 5, 17):
            bits = rng.integers(0, 2, length).astype(np.uint8)
            coded = ms.encode_payload(code, bits)
            assert coded.size == ms.coding.coded_length(code, length)
            assert np.array_equal(ms.decode_payload(code, coded, length), bits)


@pytest.mark.parametrize(
    "code, shape",
    [*((code, shape) for code in (ms.Identity(), ms.Repetition(3),
                                  ms.RandomLinear(12, Fraction(1, 4), 7))
       for shape in ((0,), (3, 0))),
     # a drawn code holds one seed per row
     (ms.RandomLinear(12, Fraction(1, 4), (7,)), (0,)),
     (ms.RandomLinear(12, Fraction(1, 4), (7, 8, 9)), (3, 0))],
)
def test_empty_payloads_round_trip(code, shape):
    coded = ms.encode_payload(code, np.zeros(shape, np.uint8))
    assert coded.shape == shape and coded.dtype == np.uint8
    got = ms.decode_payload(code, coded, 0)
    assert got.shape == shape and got.dtype == np.uint8


@pytest.mark.parametrize(
    "code",
    [ms.Identity(), ms.Repetition(1), ms.Repetition(3), ms.Repetition(5),
     ms.RandomLinear(12, Fraction(1, 4), 7),
     # a stacked batch of drawn codes, singular G among them
     ms.RandomLinear(2, Fraction(1), tuple(range(1, 9))),
     ms.RandomLinear(12, Fraction(1, 4), tuple(range(20, 28)))],
)
def test_zero_payloads_encode_to_zero_words(code):
    # every code is linear, so the folded exchange sends zeros of
    # coded_length in place of encoding its zero payloads
    if isinstance(code, ms.RandomLinear) and code.k == 2:
        assert any(_singular(code))
    rows = 8 if isinstance(code, ms.RandomLinear) and len(code.codebooks) > 1 else 3
    k = getattr(code, "k", 4)
    for length in (1, k - 1, k, k + 1, 3 * k + 5):
        for shape in ((rows, length),) + (((length,),) if rows == 3 else ()):
            coded = ms.encode_payload(code, np.zeros(shape, np.uint8))
            assert coded.dtype == np.uint8 and not coded.any()
            assert coded.shape == shape[:-1] + (coding.coded_length(code, length),)
        # a ragged zero message crosses as the zero words, each row charged
        # its own uses
        lengths = np.arange(rows) % (length + 1)
        ledger = new_ledger(rows)
        got = send(ms.ChannelPair(0.0, np.arange(rows)), code, ledger,
                   np.zeros((rows, length), np.uint8), Direction.A_TO_B, "zeros",
                   lengths=lengths, decode=False)
        assert got.shape == (rows, coding.coded_length(code, length)) and not got.any()
        assert ledger.uses_ab.tolist() == coding.coded_length(code, lengths).tolist()


def _ref_decode(G, received):
    """Exhaustive ML decode of each nc-bit sub-block of ``received``, from G
    itself and with info words taken in index order.  Returns the info
    blocks, concatenated, and per sub-block whether another info word ties
    the winner."""
    k, nc = G.shape
    shifts = np.arange(k - 1, -1, -1)
    R = received.reshape(-1, nc).astype(np.float32)
    rows = np.arange(len(R))
    best = np.zeros(len(R), np.int64)
    best_d = np.full(len(R), nc + 1.0, np.float32)
    count = np.zeros(len(R), np.int64)
    for lo in range(0, 1 << k, 1 << 14):
        idx = np.arange(lo, min(lo + (1 << 14), 1 << k))
        infos = ((idx[:, None] >> shifts) & 1).astype(np.float32)
        C = ((infos @ G).astype(np.uint8) & 1).astype(np.float32)
        # Hamming distance between 0/1 rows: |r| + |c| - 2 r.c, exact here
        d = R.sum(axis=1)[:, None] + C.sum(axis=1)[None, :] - 2 * (R @ C.T)
        i = d.argmin(axis=1)
        better = d[rows, i] < best_d
        best[better] = lo + i[better]
        count[better] = 0
        best_d = np.minimum(best_d, d[rows, i])
        count += (d == best_d[:, None]).sum(axis=1)
    return ((best[:, None] >> shifts) & 1).astype(np.uint8).reshape(-1), count > 1


@pytest.mark.parametrize(
    "code, lengths",
    [
        # multi-word codewords (nc = 72); 601 sub-blocks span three chunks
        (ms.RandomLinear(8, Fraction(1, 9), 5), (1, 7, 8, 9, 8 * 600 + 5)),
        # the harness's code; 41 sub-blocks span three chunks
        (ms.RandomLinear(12, Fraction(1, 4), 6), (5, 12, 12 * 40 + 5)),
        # k = ML_SEARCH_CAP, one sub-block, one word
        (ms.RandomLinear(coding.ML_SEARCH_CAP, Fraction(1, 2), 3), (13, 20)),
        # a singular G: every codeword sits on two info words, so each
        # decode is a tie
        (ms.RandomLinear(coding.ML_SEARCH_CAP, Fraction(1), 1), (20,)),
    ],
)
def test_rlc_payload_matches_per_block_reference(code, lengths):
    rng = np.random.default_rng(code.k)
    G = np.random.default_rng(code.code_seed).integers(
        0, 2, (code.k, code.nc), dtype=np.uint8
    )
    ties = 0
    for length in lengths:
        bits = rng.integers(0, 2, length).astype(np.uint8)
        blocks = np.concatenate(
            [bits, np.zeros((-length) % code.k, np.uint8)]
        ).reshape(-1, code.k)
        coded = ms.encode_payload(code, bits)
        assert np.array_equal(coded, ((blocks @ G) % 2).reshape(-1).astype(np.uint8))
        # received words: random noise, and midpoints of two codewords,
        # which sit at equal distance from both
        noisy = coded ^ (rng.random(coded.size) < 0.15).astype(np.uint8)
        other = ((rng.integers(0, 2, blocks.shape) @ G) % 2).reshape(-1)
        diff = np.flatnonzero(coded != other)
        mid = coded.copy()
        mid[rng.permutation(diff)[: diff.size // 2]] ^= 1
        for received in (noisy, mid):
            want, tied = _ref_decode(G, received)
            ties += int(tied.sum())
            got = ms.decode_payload(code, received, length)
            assert np.array_equal(got, want[:length])
    assert ties > 0


def _decode_peak(code, bits):
    """Peak traced memory of decoding encode_payload(code, bits), whose
    codebooks the encode builds and the code object keeps."""
    coded = ms.encode_payload(code, bits)
    tracemalloc.start()
    try:
        out = ms.decode_payload(code, coded, bits.shape[-1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(out, bits)
    return peak


def test_rlc_decode_memory_stays_bounded():
    # The batched search works through sub-blocks in chunks.  At 16
    # sub-blocks a chunk the peak is about 0.6 MB; at 64 a chunk it is
    # 2.5 MB, which showed as an 8 % rise of the benchmark's peak RSS.
    code = ms.RandomLinear(12, Fraction(1, 4), 9)
    bits = np.random.default_rng(9).integers(0, 2, 8192).astype(np.uint8)
    assert _decode_peak(code, bits) < 2 * 2**20


def test_rlc_batch_decode_memory_stays_bounded():
    # a batch of 8 trials, each with its own code, chunks over trials and
    # sub-blocks alike and stays within the same bound
    code = ms.RandomLinear(12, Fraction(1, 4), tuple(range(9, 17)))
    bits = np.random.default_rng(9).integers(0, 2, (8, 8192)).astype(np.uint8)
    assert _decode_peak(code, bits) < 2 * 2**20


def test_rlc_batch_rows_use_their_own_codes():
    # a spec with a tuple of seeds codes row t with seed t's code; one seed
    # is one codebook shared by every row
    rng = np.random.default_rng(10)
    k, seeds = 6, (5, 6, 7)
    stacked = ms.RandomLinear(k, Fraction(1, 3), seeds)
    shared = ms.RandomLinear(k, Fraction(1, 3), 5)
    assert stacked.codebooks.shape[0] == 3 and shared.codebooks.shape[0] == 1
    for length in (0, 1, k - 1, k, 2 * k + 1, 3 * k + 1, 200):
        bits = rng.integers(0, 2, (3, length)).astype(np.uint8)
        for code, specs in ((stacked, seeds), (shared, (5, 5, 5))):
            coded = ms.encode_payload(code, bits)
            assert np.array_equal(ms.decode_payload(code, coded, length), bits)
            noisy = coded ^ (rng.random(coded.shape) < 0.1).astype(np.uint8)
            got = ms.decode_payload(code, noisy, length)
            for t, seed in enumerate(specs):
                lone = ms.RandomLinear(k, Fraction(1, 3), seed)
                assert np.array_equal(coded[t], ms.encode_payload(lone, bits[t]))
                assert np.array_equal(ms.decode_payload(lone, coded[t], length), bits[t])
                assert np.array_equal(got[t], ms.decode_payload(lone, noisy[t], length))
    with pytest.raises(ValueError):
        ms.encode_payload(stacked, np.zeros((2, 6), np.uint8))
    with pytest.raises(ValueError, match="3 codes for 2 payload rows"):
        ms.decode_payload(stacked, np.zeros((2, stacked.nc), np.uint8), k)


@pytest.mark.parametrize("seed", [2.5, (1, 2.0), "3", True, (1, True)])
def test_rlc_rejects_non_integer_code_seeds(seed):
    # a seed that is no integer is named up front, not by numpy at first use
    with pytest.raises(ValueError, match="code seed must be an integer"):
        ms.RandomLinear(4, Fraction(1, 2), seed)


@pytest.mark.parametrize("k", [4.0, Fraction(4), "4", True])
def test_rlc_rejects_non_integer_k(k):
    # RandomLinear(4.0, ...) once built with nc == 8.0 and failed at its
    # first codebooks; k is now named up front, as the seeds are
    with pytest.raises(ValueError, match="info block length k must be an integer in 1..20, got"):
        ms.RandomLinear(k, Fraction(1, 2), 1)
    assert ms.RandomLinear(np.int64(4), Fraction(1, 2), 1).nc == 8


def test_shared_code_meets_the_decode_kernels_once_per_trial(monkeypatch):
    # a shared code is viewed per trial before either decode kernel sees it;
    # every message is certified first, and only a miss reaches the search
    calls = []

    def spy(name):
        real = getattr(_kernels, name)

        def call(codebook, *args):
            out = real(codebook, *args)
            calls.append((name, codebook.shape[0], out))
            return out

        monkeypatch.setattr(_kernels, name, call)

    spy("ml_decode_index")
    spy("certified_index")
    code = ms.RandomLinear(12, Fraction(1, 4), 7)
    rule = _kernels._CHUNK_ENTRIES >> code.k
    rng = np.random.default_rng(17)
    searched = 0
    for length in (10 * 12, (rule + 40) * 12):
        received = _noisy(code, rng, (3, length), 0.08)
        calls.clear()
        got = ms.decode_payload(code, received, length)
        (hit,) = [out[1] for name, _, out in calls if name == "certified_index"]
        missed = not hit.all()
        assert [name for name, _, _ in calls] == ["certified_index"] + ["ml_decode_index"] * missed
        assert all(trials == 3 for _, trials, _ in calls)
        searched += missed
        for row, want in zip(received, got):
            assert np.array_equal(ms.decode_payload(code, row, length), want)
    assert searched > 0


def test_rlc_certified_decode_memory_stays_bounded(shortcut_calls):
    # a stacked k=16 batch: the shortcut's set-up, counted here, and its
    # fallback stay in bound
    code = ms.RandomLinear(16, Fraction(1, 4), tuple(range(9, 13)))
    rng = np.random.default_rng(16)
    received = _noisy(code, rng, (4, 16 * 64), 0.05)
    tracemalloc.start()
    try:
        got = ms.decode_payload(code, received, 16 * 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(shortcut_calls) == 1 and not shortcut_calls[0].all()
    assert np.array_equal(got, _exhaustive(code, received, 16 * 64))
    assert peak < 2 * 2**20


# ---------------------------------------------------------------------------
# the certified shortcut in front of the exhaustive search


@pytest.fixture
def shortcut_calls(monkeypatch):
    """The certified mask of every certified_index call decode_payload makes."""
    calls = []
    real = _kernels.certified_index

    def spy(*args):
        info, hit = real(*args)
        calls.append(hit)
        return info, hit

    monkeypatch.setattr(_kernels, "certified_index", spy)
    return calls


def _noisy(code, rng, shape, eps):
    coded = ms.encode_payload(code, rng.integers(0, 2, shape).astype(np.uint8))
    return coded ^ (rng.random(coded.shape) < eps).astype(np.uint8)


def _exhaustive(code, received, info_len):
    """decode_payload's answer from the exhaustive kernel alone."""
    rx = received.reshape(-1, received.shape[-1] // code.nc, code.nc)
    packed = _kernels.pack_bits(rx)
    books = np.broadcast_to(code.codebooks, (len(rx),) + code.codebooks.shape[1:])
    trial = np.repeat(np.arange(len(rx)), packed.shape[1])
    index = _kernels.ml_decode_index(books, trial, packed.reshape(-1, packed.shape[-1]))[0]
    info = ints_to_bits(index, code.k)
    return info.reshape(received.shape[:-1] + (-1,))[..., :info_len]


def _singular(code):
    """Per code of a spec, whether two info words share a codeword."""
    return [len(np.unique(book, axis=0)) < len(book) for book in code.codebooks]


@pytest.mark.parametrize(
    "k, rate, codes, rounds, shared",
    [
        # the harness's code, one per trial, and one code shared by all rows
        (12, Fraction(1, 4), 8, 5, False),
        (12, Fraction(1, 4), 3, 5, True),
        # rate 1/2 at eps 0.1: many fallback blocks are ties
        (8, Fraction(1, 2), 4, 5, False),
        # two words a codeword
        (20, Fraction(1, 4), 2, 1, False),
        # d_min <= 1, often a singular G: t is 0 or -1
        (3, Fraction(1), 4, 10, False),
        # a (6, 4) code has d_min <= 2: t is 0 or -1
        (4, Fraction(2, 3), 4, 10, False),
    ],
)
def test_certified_decode_equals_exhaustive_search(shortcut_calls, k, rate, codes, rounds, shared):
    rng = np.random.default_rng(k * 10 + codes)
    # the exhaustive search's chunk holds this many sub-blocks a row
    rule = _kernels._CHUNK_ENTRIES >> k
    lengths = [n for n in (rule * k, rule * k + 1, (rule + 40) * k - 5) if n > 0]
    if k == 12:  # baseline's description message at n = 4096: 683 sub-blocks
        lengths.append(8192)
    if k == 20:
        lengths = [3 * k - 7]
    # one sub-block, and six: scheme2's parity round at n = 4096 and k = 12
    lengths += [k, 6 * k]
    eps_values = (0, 0.02, 0.05, 0.1, 0.2, 0.4) if k < 20 else (0, 0.02, 0.1, 0.4)
    radii, singular, ties, certified, fell_back = set(), 0, 0, 0, 0
    for _ in range(rounds):
        seeds = tuple(int(s) for s in rng.integers(0, 2**31, codes))
        code = ms.RandomLinear(k, rate, seeds[0] if shared else seeds)
        radii |= set(code.info_sets[2].tolist())
        singular += sum(_singular(code))
        for eps in eps_values:
            for length in lengths:
                received = _noisy(code, rng, (codes, length), eps)
                before = len(shortcut_calls)
                got = ms.decode_payload(code, received, length)
                assert np.array_equal(got, _exhaustive(code, received, length))
                assert len(shortcut_calls) == before + 1
                certified += int(shortcut_calls[-1].sum())
                fell_back += int((~shortcut_calls[-1]).sum())
                if shared:  # a 1-D payload, row by row
                    for row in received:
                        want = _exhaustive(code, row, length)
                        assert np.array_equal(ms.decode_payload(code, row, length), want)
                if k == 8 and eps == 0.1:
                    rx = received.reshape(codes, -1, code.nc)
                    packed = _kernels.pack_bits(rx.reshape(-1, code.nc))
                    d = np.bitwise_count(
                        packed.reshape(codes, -1, 1) ^ code.codebooks[:, None, :, 0])
                    ties += int(((d == d.min(axis=-1, keepdims=True)).sum(-1) > 1).sum())
    assert certified > 0 and fell_back > 0
    if k == 3:
        assert {-1, 0} <= radii and singular > 0
    if k == 4:
        assert 0 in radii and max(radii) == 0
    if k == 8:
        assert ties > 100


def test_info_sets_invert_g_on_their_columns():
    seeds = tuple(range(40))
    seen_singular = 0
    for k, rate in ((1, Fraction(1, 2)), (3, Fraction(1)), (4, Fraction(2, 3)),
                    (8, Fraction(1, 2)), (12, Fraction(1, 4))):
        code = ms.RandomLinear(k, rate, seeds)
        positions, rows, radius = code.info_sets
        assert positions.shape == rows.shape == (len(seeds), k, coding._INFO_SETS)
        # every y_I, and every info word, MSB first
        words = ((np.arange(1 << k)[:, None] >> np.arange(k - 1, -1, -1)) & 1).astype(np.uint8)
        for c, seed in enumerate(seeds):
            G = coding._rlc_matrix(k, code.nc, seed)
            d_min = int(((words[1:] @ G) % 2).sum(axis=1).min())
            assert radius[c] == (d_min - 1) // 2
            if d_min == 0:  # singular: no information set, and t = -1
                seen_singular += 1
                continue
            for s in range(coding._INFO_SETS):
                cols = positions[c, :, s]
                assert len(set(cols.tolist())) == k and 0 <= cols.min() and cols.max() < code.nc
                x = np.bitwise_xor.reduce(words * rows[c, :, s], axis=1)
                xbits = (x[:, None] >> np.arange(k - 1, -1, -1)) & 1
                assert np.array_equal((xbits @ G % 2)[:, cols], words)
    assert seen_singular > 0


def test_singular_generator_certifies_no_block():
    code = ms.RandomLinear(3, Fraction(1), tuple(range(40)))
    singular = np.flatnonzero(_singular(code))
    assert singular.size > 0
    # every received word, exact codewords among them, for every singular code
    words = ((np.arange(8)[:, None] >> np.arange(3)) & 1).astype(np.uint8)
    bits = np.broadcast_to(words, (40, 8, 3))
    packed = _kernels.pack_bits(bits.reshape(-1, 3)).reshape(40, 8, 1)
    info, hit = _kernels.certified_index(code.codebooks, bits, packed, *code.info_sets)
    assert not hit[singular].any()
    assert hit[~np.isin(np.arange(40), singular)].any()


@pytest.mark.parametrize(
    "k, rate",
    [(12, Fraction(1, 4)), (8, Fraction(1, 2)),
     # d_min <= 1 and many singular codes, which certify nothing
     (3, Fraction(1))],
)
def test_certified_pass_is_translation_covariant(k, rate):
    # for y = encode(x) ^ e the candidates are x ^ (e's candidates) at the
    # same distances, so y is certified exactly where e is, at x ^ index(e)
    codes, blocks = 8, 200
    code = ms.RandomLinear(k, rate, tuple(range(100, 100 + codes)))
    rng = np.random.default_rng(k)
    x = rng.integers(0, 1 << k, (codes, blocks))
    words = ms.encode_payload(code, ints_to_bits(x, k).reshape(codes, -1))
    seen = 0
    for eps in (0.02, 0.1, 0.3):
        e = (rng.random(words.shape) < eps).astype(np.uint8)
        out = []
        for received in (words ^ e, e):
            bits = received.reshape(codes, blocks, code.nc)
            out.append(_kernels.certified_index(code.codebooks, bits, _kernels.pack_bits(bits),
                                                *code.info_sets))
        (index_y, hit_y), (index_e, hit_e) = out
        assert np.array_equal(hit_y, hit_e)
        assert np.array_equal(index_y[hit_y], (x ^ index_e)[hit_e])
        seen += int(hit_y.sum())
    assert seen > 0


@pytest.mark.parametrize(
    "k, rate",
    [(12, Fraction(1, 4)), (8, Fraction(1, 2)),
     # many singular codes, whose every sub-block ties
     (3, Fraction(1))],
)
def test_tie_mask_is_translation_invariant(k, rate):
    # y = encode(x) ^ e lies at e's distances with the info words moved by x,
    # so y ties exactly where e does and each untied sub-block decodes to
    # x ^ decode(e): the tied-only repair rests on this
    codes, blocks = 8, 200
    code = ms.RandomLinear(k, rate, tuple(range(100, 100 + codes)))
    rng = np.random.default_rng(k + 1)
    x = rng.integers(0, 2, (codes, blocks * k)).astype(np.uint8)
    words = ms.encode_payload(code, x)
    ties = 0
    for eps in (0.02, 0.1, 0.3):
        e = (rng.random(words.shape) < eps).astype(np.uint8)
        bits_y, tied_y = coding.decode_with_ties(code, words ^ e, blocks * k)
        bits_e, tied_e = coding.decode_with_ties(code, e, blocks * k)
        assert tied_e.shape == (codes, blocks)
        assert np.array_equal(tied_y, tied_e)
        untied = np.repeat(~tied_e, k, axis=-1)
        assert np.array_equal(bits_y[untied], (x ^ bits_e)[untied])
        # the mask is exact: more than one codeword at the least distance
        packed = _kernels.pack_bits(e.reshape(codes, blocks, code.nc))
        d = np.bitwise_count(packed[:, :, None, 0] ^ code.codebooks[:, None, :, 0])
        assert np.array_equal(tied_e, (d == d.min(-1, keepdims=True)).sum(-1) > 1)
        # and the repair of the tied sub-blocks decodes y
        assert np.array_equal(coding.redecode_tied(code, e, x, bits_e, tied_e), bits_y ^ x)
        ties += int(tied_e.sum())
    assert ties > 0


@pytest.mark.parametrize("r", [1, 3, 5, 7, 257])
@pytest.mark.parametrize("shape", [(11,), (6, 40)])
def test_repetition_decode_is_a_majority(r, shape):
    # against a brute-force count of each group's ones; at r = 257 a count
    # kept in uint8 would wrap
    rng = np.random.default_rng(r)
    for p in (0.2, 0.5, 0.8):
        received = (rng.random(shape[:-1] + (shape[-1] * r,)) < p).astype(np.uint8)
        want = [[int(sum(row[i * r : (i + 1) * r]) > r // 2) for i in range(shape[-1])]
                for row in received.reshape(-1, shape[-1] * r).tolist()]
        got = ms.decode_payload(ms.Repetition(r), received, shape[-1])
        assert got.dtype == np.uint8 and got.shape == shape
        assert got.reshape(-1, shape[-1]).tolist() == want
    ones = np.ones(shape[:-1] + (shape[-1] * r,), np.uint8)
    assert ms.decode_payload(ms.Repetition(r), ones, shape[-1]).all()


def test_repetition_reliability_matches_binomial_and_is_monotone():
    rates = {}
    for r in (3, 5, 7):
        code = ms.Repetition(r)
        ch = ms.ChannelPair(0.1, 50 + r)
        led = ms.UsageLedger()
        bits = np.random.default_rng(1).integers(0, 2, 20_000).astype(np.uint8)
        out = ms.decode_payload(
            code, ch.transmit(ms.Direction.A_TO_B, ms.encode_payload(code, bits), led), bits.size
        )
        rates[r] = float(np.mean(out != bits))
        oracle = 1 - stats.binom.cdf(r // 2, r, 0.1)
        assert abs(rates[r] - oracle) < 3 * math.sqrt(oracle * (1 - oracle) / 20_000)
    assert rates[3] > rates[5] > rates[7]


def test_rlc_reliability_improves_with_block_length():
    # fixed rate 1/2, eps 0.08: longer random codes decode better
    def block_err(k, seed):
        rng = np.random.default_rng(seed)
        ch = ms.ChannelPair(0.08, seed)
        led = ms.UsageLedger()
        fails = 0
        trials = 3000
        for _ in range(trials):
            c = ms.RandomLinear(k, Fraction(1, 2), int(rng.integers(1 << 32)))
            info = rng.integers(0, 2, k).astype(np.uint8)
            sent = ms.encode_payload(c, info)
            out = ms.decode_payload(c, ch.transmit(ms.Direction.A_TO_B, sent, led), k)
            fails += not np.array_equal(out, info)
        return fails / trials

    p4 = block_err(4, 21)
    p12 = block_err(12, 22)
    sigma = math.sqrt(p4 * (1 - p4) / 3000 + p12 * (1 - p12) / 3000)
    assert p12 <= p4 + 3 * sigma


# ---------------------------------------------------------------------------
# exponents and bounds


def test_gallager_e0_values():
    assert ms.gallager_e0(0.0, 0.3) == 0.0
    assert ms.gallager_e0(1.0, 0.0) == 1.0
    want = 1 - 2 * math.log2(math.sqrt(0.05) + math.sqrt(0.95))
    assert ms.gallager_e0(1.0, 0.05) == pytest.approx(want, abs=1e-15)
    with pytest.raises(ValueError):
        ms.gallager_e0(1.5, 0.1)


def test_exponent_noiseless_is_one_minus_rate():
    assert ms.gallager_exponent(ms.ExponentQuery(0.0, 0.0)) == 1.0
    assert ms.gallager_exponent(ms.ExponentQuery(0.3, 0.0)) == pytest.approx(0.7)


def test_exponent_against_scipy_maximization():
    for eps in (0.01, 0.05, 0.1, 0.2, 0.3, 0.45):
        for rate in (0.0, 0.1, 0.3, 0.5, 0.7, 0.9):
            res = optimize.minimize_scalar(
                lambda rho: -(ms.gallager_e0(rho, eps) - rho * rate),
                bounds=(0, 1),
                method="bounded",
                options={"xatol": 1e-12},
            )
            want = max(0.0, -res.fun)
            got = ms.gallager_exponent(ms.ExponentQuery(rate, eps))
            assert got == pytest.approx(want, abs=1e-7)


def test_exponent_positive_below_capacity_zero_at_capacity():
    e1 = ms.gallager_exponent(ms.ExponentQuery(0.3, 0.05))
    e2 = ms.gallager_exponent(ms.ExponentQuery(0.5, 0.05))
    assert e1 > e2 > 0
    for eps in np.linspace(0.01, 0.49, 20):
        cap = ms.shannon_capacity(float(eps))
        assert abs(ms.gallager_exponent(ms.ExponentQuery(cap, float(eps)))) < 1e-6
        assert ms.gallager_exponent(ms.ExponentQuery(0.9 * cap, float(eps))) > 0


def test_exponent_query_validation():
    with pytest.raises(ValueError):
        ms.ExponentQuery(1.0, 0.1)
    with pytest.raises(ValueError):
        ms.ExponentQuery(0.5, 0.5)
    # a bool is an int to Python, and ExponentQuery(False, False) once built
    for rate, eps in ((False, 0.1), (0.5, False), (False, False), (0.2, True),
                      (np.False_, np.False_), (np.False_, 0.1), (0.2, np.True_)):
        with pytest.raises(ValueError):
            ms.ExponentQuery(rate, eps)
    ms.ExponentQuery(0.0, 0.0)


def test_lemma1_bound_identities():
    # the bits-exponent base-2 form equals the nats form
    er = ms.gallager_exponent(ms.ExponentQuery(1 / 3, 0.05))
    got = ms.lemma1_bound(8, 64, Fraction(1, 3), 0.05)
    want = 8 * math.exp(-(64 / (1 / 3)) * er * math.log(2))
    assert got == pytest.approx(want, rel=1e-12)
    # single block, then linear in l below the clamp
    one = ms.lemma1_bound(1, 64, Fraction(1, 3), 0.05)
    assert ms.lemma1_bound(2, 64, Fraction(1, 3), 0.05) == pytest.approx(2 * one)


def test_lemma1_bound_monotone_in_block_length():
    vals = [ms.lemma1_bound(4, b, Fraction(1, 3), 0.1) for b in (8, 32, 128, 512)]
    assert all(x > y for x, y in zip(vals, vals[1:]))
    assert vals[-1] < 1e-12


def test_lemma1_bound_clamps_at_one():
    assert ms.lemma1_bound(10**9, 1, Fraction(1, 3), 0.05) == 1.0


def test_lemma1_bound_rejects_rates_at_capacity():
    with pytest.raises(ValueError):
        ms.lemma1_bound(1, 64, Fraction(1, 3), 0.4)  # 1/3 > 1 - h(0.4)
    with pytest.raises(ValueError):
        ms.lemma1_bound(1, 64, 1.0, 0.05)
    # no blocks, empty blocks, and rates outside (0, 1] are rejected too
    for l, b, rate in ((0, 64, 0.25), (1, 0, 0.25), (1, 64, 0.0), (1, 64, -0.5),
                       (1, 64, Fraction(3, 2))):
        with pytest.raises(ValueError):
            ms.lemma1_bound(l, b, rate, 0.05)
    assert ms.lemma1_bound(1, 64, 1.0, 0.0) == 0.0  # noiseless carve-out


def test_union_bound_profile():
    code = ms.RandomLinear(12, Fraction(1, 3))  # the ensemble term reads the rate only
    assert ms.union_bound_profile({}, code, 0.1) == 0.0
    assert ms.union_bound_profile({64: 2}, code, 0.0) == 0.0
    same = ms.union_bound_profile({64: 8}, code, 0.05)
    assert same == pytest.approx(ms.lemma1_bound(8, 64, Fraction(1, 3), 0.05))
    mixed = ms.union_bound_profile({64: 1, 128: 1}, code, 0.05)
    assert mixed == pytest.approx(
        ms.lemma1_bound(1, 64, Fraction(1, 3), 0.05)
        + ms.lemma1_bound(1, 128, Fraction(1, 3), 0.05)
    )


def test_union_bound_is_correctly_rounded_in_any_order():
    # a mixed profile whose left-to-right float sum misses the correctly
    # rounded one: the bound is the latter, bit for bit, whatever order the
    # counts arrive in, so it cannot depend on the Python version's sum
    code, eps = ms.RandomLinear(12, Fraction(1, 4)), 0.05
    er = ms.gallager_exponent(ms.ExponentQuery(0.25, eps))
    counts = {48: 893, 16: 930, 12: 442, 24: 434}
    terms = [c * 2.0 ** (-(b / 0.25) * er) for b, c in counts.items()]
    want = min(1.0, math.fsum(terms))
    assert sum(terms) != want
    for order in itertools.permutations(counts.items()):
        assert ms.union_bound_profile(dict(order), code, eps) == want


def test_union_bound_of_bitwise_codes_is_their_exact_block_error():
    # identity blocks fail unless no bit flips; rep3 ones unless no majority does
    assert ms.union_bound_profile({10: 2, 3: 1}, ms.Identity(), 0.01) == pytest.approx(
        2 * (1 - 0.99**10) + (1 - 0.99**3), rel=1e-14)
    p3 = 3 * 0.1**2 * 0.9 + 0.1**3
    assert ms.union_bound_profile({10: 2}, ms.Repetition(3), 0.1) == pytest.approx(
        2 * (1 - (1 - p3) ** 10), rel=1e-14)
    assert ms.union_bound_profile({500: 2}, ms.Repetition(3), 0.1) == 1.0  # clamped
    assert ms.union_bound_profile({10: 2}, ms.Repetition(3), 0.0) == 0.0


# ---------------------------------------------------------------------------
# spec strings


def test_parse_code_spec():
    assert ms.parse_code_spec("identity") == ms.Identity()
    assert ms.parse_code_spec("rep3") == ms.Repetition(3)
    assert ms.parse_code_spec("rep5") == ms.Repetition(5)
    code = ms.parse_code_spec("rlc:k=8,rate=1/2")
    assert code == ms.RandomLinear(8, Fraction(1, 2), None)
    assert ms.parse_code_spec("rlc:k=4,rate=0.25,seed=5") == ms.RandomLinear(
        4, Fraction(1, 4), 5
    )


@pytest.mark.parametrize(
    "text",
    [
        "rep4", "repx", "rlc:k=4", "rlc:rate=1/2", "rlc:k=4,rate=1/2,zz=3", "foo", "rlc:",
        "rlc:k=8,rate=3/2", "rlc:k=4,rate=1/0",
    ],
)
def test_parse_code_spec_rejects(text):
    with pytest.raises(ValueError):
        ms.parse_code_spec(text)


def test_nominal_rate():
    assert ms.nominal_rate(ms.Identity()) == 1
    assert ms.nominal_rate(ms.Repetition(3)) == Fraction(1, 3)
    assert ms.nominal_rate(ms.RandomLinear(4, Fraction(2, 5), 0)) == Fraction(2, 5)

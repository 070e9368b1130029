"""Every random stream against an independent reference.

The package derives its seeds and protocols without building numpy's
``SeedSequence``, ``Generator`` or ``default_rng`` objects.  Each test here
builds those objects directly and checks that the package's stream equals
theirs bit for bit, so that a numpy upgrade that changes a stream, or the
layout of a bit generator's state, fails loudly.  The channel's noise is
checked against ``splitmix_reference``, its contract written out use by use
in plain Python.
"""

import numpy as np
import pytest

import markovsim as ms
import splitmix_reference as ref
from markovsim import _seeds

EDGES = (0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**70)


def entropies(rng, count):
    """count entropies of 1 to 5 ints each, mixing the edges with random ints
    of 1 to 90 bits."""
    out = []
    for _ in range(count):
        ints = []
        for _ in range(int(rng.integers(1, 6))):
            if rng.random() < 0.4:
                ints.append(EDGES[int(rng.integers(len(EDGES)))])
            else:
                ints.append(int(rng.integers(1 << 62)) >> int(rng.integers(62)) << int(
                    rng.integers(30)))
        out.append(tuple(ints))
    return out


def packed(entropy_rows):
    """(words, lengths) of whole entropies: the words of their ints, in order."""
    rows = []
    for ints in entropy_rows:
        words, lengths = _seeds.entropy_words(ints)
        rows.append([w for row, n in zip(words, lengths) for w in row[:n].tolist()])
    out = np.zeros((len(rows), max(map(len, rows))), np.uint32)
    for r, row in enumerate(rows):
        out[r, : len(row)] = row
    return out, np.array([len(row) for row in rows])


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_hash_equals_seed_sequence(k):
    # ragged rows in one call: 1 to 5 ints are 1 to 15 words, on both sides
    # of the 4-word pool
    rows = [(v,) for v in EDGES] + [EDGES[:5], EDGES[2:], (2**70, 0, 7)]
    rows += entropies(np.random.default_rng(k), 300)
    words, lengths = packed(rows)
    assert lengths.min() == 1 and lengths.max() > 8
    want = [np.random.SeedSequence(ints).generate_state(k, np.uint64) for ints in rows]
    assert np.array_equal(_seeds.seed_states(words, lengths, k), np.array(want))


def test_hash_of_equal_length_rows_needs_no_lengths():
    rows = [(2**64 + 3, 5, t) for t in range(9)]  # 5 words each
    words, lengths = packed(rows)
    assert set(lengths.tolist()) == {5}
    want = [np.random.SeedSequence(ints).generate_state(3, np.uint64) for ints in rows]
    assert np.array_equal(_seeds.seed_states(words, None, 3), np.array(want))


def test_entropy_words_read_ints_as_seed_sequence_does():
    words, lengths = _seeds.entropy_words([0, 2**32 - 1, 2**32, 2**70 + 5])
    assert lengths.tolist() == [1, 1, 2, 3]
    assert words.tolist() == [[0, 0, 0], [2**32 - 1, 0, 0], [0, 1, 0], [5, 0, 64]]
    # entropy_words takes checked ints: its public callers reject a bad seed
    rule = "seed must be an integer of at least 0, got -1"
    with pytest.raises(ValueError, match=f"^noise {rule}"):
        ms.ChannelPair(0.05, [3, -1])
    with pytest.raises(ValueError, match=f"^protocol {rule}"):
        ms.gen_uniform_protocol(8, [3, -1])


def test_integers_is_one_rule_for_integer_arguments():
    assert _seeds.integers(5, "x") == (5,)
    got = _seeds.integers([np.uint64(2**63), 3, np.int8(4)], "x")
    assert got == (2**63, 3, 4) and {type(v) for v in got} == {int}
    assert _seeds.integers(np.arange(3), "x", 0, 2) == (0, 1, 2)
    assert _seeds.integers(range(1, 3), "x", 1) == (1, 2)
    for values, shown in ((True, "True"), (np.True_, "np.True_"), ([1, False], "False"),
                          (2.0, "2.0"), ("3", "'3'"), ([1, None], "None"), ([], r"\[\]"),
                          (-1, "-1"), ([0, 5, -2], "5"), (np.zeros((2, 2), int), r"array\(")):
        with pytest.raises(ValueError, match=f"^x must be an integer in 0..4, got {shown}"):
            _seeds.integers(values, "x", 0, 4)
    with pytest.raises(ValueError, match="^y must be an integer of at least 1, got 0$"):
        _seeds.integers((3, 0), "y", 1)


# message starts on both sides of 64-use word edges, near 0, 64, 128 and 4096
STARTS = list(range(8)) + [63, 64, 65, 127, 128, 129, 4095, 4096, 4097]
COUNTS = (1, 3, 63, 64, 65, 130, 200)  # lengths that end inside, at and past a word
# with the direction, seeds of 1 to 4 uint32 words are entropies of 2 to 5 words
SEEDS = [7, 2**32 + 9, 2**64 + 11, 2**96 + 13]
# eps 12.5/256 sits midway in its top-8-bit bucket, so a tied use flips half
# the time; below 2**-8 the top bits are all 0 and every flip comes from a tie
TIE_EPS = (0.2, 12.5 / 256, 0.003)


@pytest.fixture(scope="module")
def reference_uniforms():
    length = max(STARTS) + max(COUNTS)
    return {d: np.array([ref.uniforms(s, d, length) for s in SEEDS], object) for d in (0, 1)}


@pytest.mark.parametrize("direction", list(ms.Direction))
def test_flips_equal_reference_at_every_offset(direction, reference_uniforms):
    uniform = reference_uniforms[int(direction)]
    for eps in TIE_EPS:
        want = uniform < ref.threshold(eps)
        # both outcomes of a tie occur in the span tested
        tied = uniform >> 45 == ref.threshold(eps) >> 45
        assert want[tied].any() and not want[tied].all(), eps
        for start in STARTS:
            for count in COUNTS:
                ch, led = ms.ChannelPair(eps, SEEDS), ms.UsageLedger()
                ch.transmit(direction, np.zeros((len(SEEDS), start), np.uint8), led)
                got = ch.transmit(direction, np.zeros((len(SEEDS), count), np.uint8), led)
                assert np.array_equal(got, want[:, start : start + count]), (eps, start, count)
                row = (start + count) % len(SEEDS)
                lone = ms.ChannelPair(eps, SEEDS[row])
                lone.transmit(direction, np.zeros(start, np.uint8), ms.UsageLedger())
                got = lone.transmit(direction, np.ones(count, np.uint8), ms.UsageLedger())
                assert np.array_equal(got, 1 - want[row, start : start + count])


def test_flips_equal_reference_over_many_words():
    # messages of every size cross word edges and the 4096th use in turn
    seeds, eps, sizes = [2**64 + 1, 3], 0.05, (63, 1, 64, 65, 3, 3900, 129, 200)
    want = np.array([ref.uniforms(s, 1, sum(sizes)) for s in seeds], object)
    ch, led = ms.ChannelPair(eps, seeds), ms.UsageLedger()
    parts = [ch.transmit(ms.Direction.B_TO_A, np.zeros((2, size), np.uint8), led)
             for size in sizes]
    assert np.array_equal(np.concatenate(parts, axis=1), want < ref.threshold(eps))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 6, 7, 9, 13, 255, 257, 4097])
def test_batch_protocols_equal_default_rng(n):
    # n values that end mid-word, and odd word counts that end f mid-draw
    seeds = list(EDGES) + [int(s) for s in np.random.default_rng(n).integers(1 << 63, size=5)]
    batch = ms.gen_uniform_protocol(n, seeds)
    assert batch.f.shape == batch.g.shape == (len(seeds), n)
    for t, seed in enumerate(seeds):
        rng = np.random.default_rng(seed)
        assert np.array_equal(batch.f[t], rng.integers(1, 5, n, np.uint8)), seed
        assert np.array_equal(batch.g[t], rng.integers(1, 5, n, np.uint8)), seed
        lone = ms.gen_uniform_protocol(n, seed)
        assert np.array_equal(lone.f, batch.f[t]) and np.array_equal(lone.g, batch.g[t])


def test_protocol_seeds_must_be_non_negative():
    with pytest.raises(ValueError):
        ms.gen_uniform_protocol(8, [3, -1])


def layout(state):
    """A state dict's keys, nested, and the type of each leaf."""
    if isinstance(state, dict):
        return {k: layout(v) for k, v in state.items()}
    if isinstance(state, np.ndarray):
        return state.dtype, state.shape
    return type(state)


def test_bit_generator_state_layouts_are_as_set():
    # the protocol generator sets this dict on a reused PCG64; a fresh
    # generator must read back the same layout
    ss = np.random.SeedSequence(12345)
    pcg = np.random.PCG64(ss).state
    assert layout(pcg) == layout({
        "bit_generator": "PCG64", "state": {"state": 1, "inc": 1}, "has_uint32": 0,
        "uinteger": 0,
    })
    hi, lo = ss.generate_state(4, np.uint64).tolist()[2:]
    assert pcg["state"]["inc"] == ((hi << 64 | lo) << 1 | 1) % 2**128

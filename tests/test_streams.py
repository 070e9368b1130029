"""Every random stream against numpy's own.

The package derives its seeds, noise and protocols without building numpy's
``SeedSequence``, ``Generator`` or ``default_rng`` objects.  Each test here
builds those objects directly and checks that the package's stream equals
theirs bit for bit, so that a numpy upgrade that changes a stream, or the
layout of a bit generator's state, fails loudly.
"""

import numpy as np
import pytest

import markovsim as ms
from markovsim import _seeds, channel

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
    with pytest.raises(ValueError, match="seed must be an integer of at least 0, got -1"):
        _seeds.entropy_words([3, -1])


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


def numpy_flips(seed, direction, eps, count):
    """The noise of a direction's first count positions, as numpy draws it."""
    ss = np.random.SeedSequence((seed, direction))
    return np.random.Generator(np.random.Philox(ss)).random(count) < eps


PIECE = channel._PIECE
OFFSETS = list(range(8)) + list(range(4093, 4100)) + [8190, 8191, 8192]
OFFSETS += [PIECE - 3, PIECE - 1, PIECE, PIECE + 1, PIECE + 6]


@pytest.mark.parametrize("direction", list(ms.Direction))
def test_flips_equal_philox_at_every_offset(direction):
    # seeds below 2**32, above it and above 2**64 give keys of 3, 4 and 5
    # words; messages start at offsets 0-7, around uses 4096 and 8192 and
    # around the piece edge, and reach across those edges
    seeds, eps = [7, 2**32 + 9, 2**64 + 11], 0.2
    counts = (1, 3, 4, 5, 9, 4100, PIECE - 1, PIECE + 1, 2 * PIECE + 3)
    want = np.stack([numpy_flips(s, int(direction), eps, max(OFFSETS) + max(counts))
                     for s in seeds])
    for start in OFFSETS:
        for count in counts:
            ch, led = ms.ChannelPair(eps, seeds), ms.UsageLedger()
            ch.transmit(direction, np.zeros((len(seeds), start), np.uint8), led)
            got = ch.transmit(direction, np.zeros((len(seeds), count), np.uint8), led)
            assert np.array_equal(got, want[:, start : start + count]), (start, count)
            lone = ms.ChannelPair(eps, seeds[count % 3])
            lone.transmit(direction, np.zeros(start, np.uint8), ms.UsageLedger())
            got = lone.transmit(direction, np.ones(count, np.uint8), ms.UsageLedger())
            assert np.array_equal(got, 1 - want[count % 3, start : start + count])
    # SeedSequence pads an entropy shorter than its 4-word pool with zeros, so
    # below 2**64 a stream's first 4096 flips are those that the key
    # (seed, direction, 0) gave when each 4096 uses had a key of their own
    old = np.stack([
        np.random.Generator(np.random.Philox(np.random.SeedSequence((s, int(direction), 0))))
        .random(4096) < eps
        for s in seeds
    ])
    assert np.array_equal(want[:2, :4096], old[:2])
    assert not np.array_equal(want[2, :4096], old[2])


def test_flips_equal_philox_over_many_blocks():
    # 4096-use spans and piece edges, crossed by messages of every size
    seeds, eps = [2**64 + 1, 3], 0.05
    want = np.stack([numpy_flips(s, 1, eps, 19480 + 2 * PIECE + 2) for s in seeds])
    ch, led = ms.ChannelPair(eps, seeds), ms.UsageLedger()
    parts = [ch.transmit(ms.Direction.B_TO_A, np.zeros((2, size), np.uint8), led)
             for size in (4095, 1, 9000, 3, 5000, 1381, PIECE - 19480, PIECE + 2, 19480)]
    assert np.array_equal(np.concatenate(parts, axis=1), want)


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
    # the channel and the protocol generator set these dicts on a reused
    # Philox and PCG64; a fresh generator must read back the same layout
    ss = np.random.SeedSequence(12345)
    philox = np.random.Philox(ss).state
    assert layout(philox) == layout({
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, np.uint64), "key": np.zeros(2, np.uint64)},
        "buffer": np.zeros(4, np.uint64), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0,
    })
    assert philox["state"]["key"].tolist() == ss.generate_state(2, np.uint64).tolist()
    assert philox["state"]["counter"].tolist() == [0, 0, 0, 0] and philox["buffer_pos"] == 4
    pcg = np.random.PCG64(ss).state
    assert layout(pcg) == layout({
        "bit_generator": "PCG64", "state": {"state": 1, "inc": 1}, "has_uint32": 0,
        "uinteger": 0,
    })
    hi, lo = ss.generate_state(4, np.uint64).tolist()[2:]
    assert pcg["state"]["inc"] == ((hi << 64 | lo) << 1 | 1) % 2**128

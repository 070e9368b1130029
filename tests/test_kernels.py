"""The chain and packed ML-search kernels against brute force."""

import numpy as np

from markovsim import _kernels


def _brute_chain(f, g, b0):
    def ev(c, y):
        return (y ^ (c - 1)) if c <= 2 else (c - 3)

    a, b, prev = [], [], b0
    for fi, gi in zip(f, g):
        ai = ev(int(fi), prev)
        bi = ev(int(gi), ai)
        a.append(ai)
        b.append(bi)
        prev = bi
    return np.array(a, np.uint8), np.array(b, np.uint8)


def test_numpy_chain_matches_bruteforce():
    rng = np.random.default_rng(11)
    for _ in range(300):
        n = int(rng.integers(1, 60))
        f = rng.integers(1, 5, n).astype(np.uint8)
        g = rng.integers(1, 5, n).astype(np.uint8)
        b0 = int(rng.integers(0, 2))
        a1, b1 = _kernels.markov_chain(f, g, b0)
        a2, b2 = _brute_chain(f, g, b0)
        assert np.array_equal(a1, a2) and np.array_equal(b1, b2)


def test_chain_empty_input():
    a, b = _kernels.markov_chain(np.empty(0, np.uint8), np.empty(0, np.uint8), 0)
    assert a.size == 0 and b.size == 0


def test_pack_bits_round_trip():
    rng = np.random.default_rng(13)
    for n in (1, 63, 64, 65, 130, 1000):
        bits = rng.integers(0, 2, n).astype(np.uint8)
        words = _kernels.pack_bits(bits)
        assert words.dtype == np.uint64
        assert words.size == -(-n // 64)
        back = np.unpackbits(
            words.view(np.uint8), bitorder="little"
        )[:n]
        assert np.array_equal(back, bits)


def test_pack_bits_batch_matches_rows():
    rng = np.random.default_rng(14)
    mat = rng.integers(0, 2, (5, 90)).astype(np.uint8)
    batch = _kernels.pack_bits(mat)
    for i in range(5):
        assert np.array_equal(batch[i], _kernels.pack_bits(mat[i]))


def test_ml_decode_tie_goes_to_lowest_index():
    cb = np.array([[0], [3], [5], [3]], dtype=np.uint64)
    rc = np.array([3], dtype=np.uint64)
    assert _kernels.ml_decode_index(cb, rc) == 1
    rc = np.array([1], dtype=np.uint64)  # distance 1 to rows 0 and 1
    assert _kernels.ml_decode_index(cb, rc) == 0

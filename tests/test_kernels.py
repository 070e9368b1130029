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


def _chain_cases():
    """(f, g, b0) inputs: short random chains, and for long chains uniform
    codes, stuck-free codes, and a lone stuck round at either end."""
    rng = np.random.default_rng(11)
    cases = []
    for _ in range(300):
        n = int(rng.integers(1, 60))
        f = rng.integers(1, 5, n).astype(np.uint8)
        g = rng.integers(1, 5, n).astype(np.uint8)
        cases.append((f, g, int(rng.integers(0, 2))))
    for n in (1, 2, 3, 64, 1000, 5000):
        # uniform codes; codes 1-2 only, so b0 reaches the last round; and
        # one stuck round, in f or in g, at the first or the last round
        free = rng.integers(1, 3, (2, n)).astype(np.uint8)
        chains = [rng.integers(1, 5, (2, n)).astype(np.uint8), free]
        for i in (0, n - 1):
            for side in (0, 1):
                chains.append(free.copy())
                chains[-1][side, i] = rng.integers(3, 5)
        cases += [(f, g, b0) for f, g in chains for b0 in (0, 1)]
    return cases


def test_numpy_chain_matches_bruteforce():
    for f, g, b0 in _chain_cases():
        a1, b1 = _kernels.markov_chain(f, g, b0)
        a2, b2 = _brute_chain(f, g, b0)
        assert np.array_equal(a1, a2) and np.array_equal(b1, b2)


def test_batched_chain_equals_row_by_row():
    # every case of one length becomes a row of one (T, n) call, each row
    # with its own b0
    by_length = {}
    for f, g, b0 in _chain_cases():
        by_length.setdefault(f.size, []).append((f, g, b0))
    assert len(by_length[5000]) == 12  # the long and stuck-edge inputs
    for rows in by_length.values():
        f, g, b0 = (np.array(x) for x in zip(*rows))
        a, b = _kernels.markov_chain(f, g, b0)
        assert a.shape == b.shape == f.shape
        for t, (ft, gt, b0t) in enumerate(rows):
            at, bt = _kernels.markov_chain(ft, gt, b0t)
            assert np.array_equal(a[t], at) and np.array_equal(b[t], bt)


def _assert_rows_match_brute(f, g, b0):
    """markov_chain on a (..., n) batch equals _brute_chain on every row,
    with b0 a scalar or one bit per row."""
    a, b = _kernels.markov_chain(f, g, b0)
    assert a.shape == b.shape == f.shape and a.dtype == b.dtype == np.uint8
    starts = np.broadcast_to(b0, f.shape[:-1]).reshape(-1)
    for fr, gr, ar, br, b0r in zip(f.reshape(-1, f.shape[-1]), g.reshape(-1, f.shape[-1]),
                                   a.reshape(-1, f.shape[-1]), b.reshape(-1, f.shape[-1]), starts):
        want_a, want_b = _brute_chain(fr, gr, int(b0r))
        assert np.array_equal(ar, want_a) and np.array_equal(br, want_b)


def test_chain_across_word_edges():
    # the packed stream holds n + 1 rounds per row, so these rows start and
    # end at every offset within a 64-bit word, and long rows span many words
    rng = np.random.default_rng(16)
    for n in (1, 63, 64, 65, 4096, 4097):
        f, g = rng.integers(1, 5, (2, 3, n)).astype(np.uint8)
        _assert_rows_match_brute(f, g, rng.integers(0, 2, 3).astype(np.uint8))
        _assert_rows_match_brute(f, g, 1)


def test_chain_folded_rows_straddle_words():
    # the folded exchange's (T, rows, width) calls, with one start bit per
    # (trial, row): at widths 62-65 consecutive rows meet inside a word
    rng = np.random.default_rng(17)
    for width in (62, 63, 64, 65):
        f, g = rng.integers(1, 5, (2, 3, 5, width)).astype(np.uint8)
        _assert_rows_match_brute(f, g, rng.integers(0, 2, (3, 5)).astype(np.uint8))


def test_chain_all_additive_and_all_stuck_rows():
    rng = np.random.default_rng(18)
    for n in (63, 64, 65, 4097):
        # no stuck round after round 0: b0's carry crosses every word of
        # its row
        f, g = rng.integers(1, 3, (2, 4, n)).astype(np.uint8)
        _assert_rows_match_brute(f, g, np.array([0, 1, 1, 0], np.uint8))
        # every round stuck, in f, in g or in both
        f, g = rng.integers(3, 5, (2, 4, n)).astype(np.uint8)
        f[0] = rng.integers(1, 3, n)
        g[1] = rng.integers(1, 3, n)
        _assert_rows_match_brute(f, g, np.array([1, 0, 1, 0], np.uint8))


def test_chain_empty_input():
    a, b = _kernels.markov_chain(np.empty(0, np.uint8), np.empty(0, np.uint8), 0)
    assert a.size == 0 and b.size == 0
    for shape in ((0, 64), (0, 5, 65)):  # no trials
        f = np.ones(shape, np.uint8)
        a, b = _kernels.markov_chain(f, f, np.zeros(shape[:-1], np.uint8))
        assert a.shape == b.shape == shape


def test_pack_bits_round_trip():
    rng = np.random.default_rng(13)
    for n in (1, 63, 64, 65, 130, 1000):
        bits = rng.integers(0, 2, n).astype(np.uint8)
        words = _kernels.pack_bits(bits[None])
        assert words.dtype == np.uint64
        assert words.shape == (1, -(-n // 64))
        back = np.unpackbits(
            words[0].view(np.uint8), bitorder="little"
        )[:n]
        assert np.array_equal(back, bits)


def test_pack_bits_batch_matches_rows():
    rng = np.random.default_rng(14)
    mat = rng.integers(0, 2, (5, 90)).astype(np.uint8)
    batch = _kernels.pack_bits(mat)
    for i in range(5):
        assert np.array_equal(batch[i : i + 1], _kernels.pack_bits(mat[i : i + 1]))
    # any leading shape packs along its last axis
    assert np.array_equal(_kernels.pack_bits(mat.reshape(5, 1, 90))[:, 0], batch)


def _brute_ml(cb_bits, rx_bits):
    """Per received row, the first codebook row at the least Hamming distance."""
    out = []
    for r in rx_bits:
        d = (cb_bits != r).sum(axis=1).tolist()
        out.append(d.index(min(d)))
    return np.array(out, np.int64)


def test_ml_decode_tie_goes_to_lowest_index():
    cb = np.array([[0], [3], [5], [3]], dtype=np.uint64)
    # 3 sits on rows 1 and 3; 1 is one flip from rows 0, 1 and 2; 7 is one
    # flip from rows 1, 2 and 3; 6 is two flips from every row
    rc = np.array([[3], [1], [5], [7], [6]], dtype=np.uint64)
    assert _kernels.ml_decode_index(cb[None], np.zeros(5, int), rc)[0].tolist() == [1, 0, 2, 1, 0]


def test_ml_decode_index_matches_bruteforce():
    rng = np.random.default_rng(12)
    ties = 0
    # (codebook rows, bits per row, blocks): one-word, multi-word, and
    # batches that cross chunk boundaries (5000 rows give 13 blocks a chunk,
    # 70000 rows give one)
    for rows, nbits, blocks in (
        (1, 5, 3),
        (16, 8, 50),
        (200, 64, 40),
        (300, 72, 33),
        (64, 130, 20),
        (5000, 48, 40),
        (70000, 30, 3),
    ):
        # rows drawn from a small pool, so many codebook rows repeat
        pool = rng.integers(0, 2, (max(1, rows // 3), nbits)).astype(np.uint8)
        cb_bits = pool[rng.integers(0, len(pool), rows)]
        rx_bits = cb_bits[rng.integers(0, rows, blocks)].copy()
        rx_bits ^= (rng.random(rx_bits.shape) < 0.1).astype(np.uint8)
        got = _kernels.ml_decode_index(
            _kernels.pack_bits(cb_bits[None]), np.zeros(blocks, int), _kernels.pack_bits(rx_bits)
        )[0]
        want = _brute_ml(cb_bits, rx_bits)
        assert got.shape == (blocks,)
        assert np.array_equal(got, want)
        d = (cb_bits[None] != rx_bits[:, None]).sum(axis=2)
        ties += int(((d == d.min(axis=1, keepdims=True)).sum(axis=1) > 1).sum())
    assert ties >= 50  # the tie rule was exercised, in several batches



def test_ml_decode_stacked_codebooks_equal_per_trial_calls():
    rng = np.random.default_rng(15)
    # (trials, codebook rows, bits per row, blocks per trial): chunks of
    # several trials whose boundary falls between trials (3000 rows x 7
    # blocks give 3 trials a chunk), a trial split over chunks (5000 rows
    # give 13 blocks a chunk), multi-word rows, and one sub-block per trial
    cases = [(8, 3000, 48, 7), (3, 5000, 40, 20), (5, 700, 130, 9), (9, 2000, 72, 1)]
    ties = 0
    for trials, rows, nbits, blocks in cases:
        pool = rng.integers(0, 2, (trials, max(1, rows // 3), nbits)).astype(np.uint8)
        cb_bits = np.stack([p[rng.integers(0, len(p), rows)] for p in pool])
        rx_bits = np.stack([c[rng.integers(0, rows, blocks)] for c in cb_bits])
        rx_bits ^= (rng.random(rx_bits.shape) < 0.1).astype(np.uint8)
        books = np.stack([_kernels.pack_bits(c) for c in cb_bits])
        rx = np.stack([_kernels.pack_bits(r) for r in rx_bits])
        trial, flat = np.repeat(np.arange(trials), blocks), rx.reshape(-1, rx.shape[-1])
        got = _kernels.ml_decode_index(books, trial, flat)[0].reshape(trials, blocks)
        shared = _kernels.ml_decode_index(np.broadcast_to(books[:1], books.shape), trial, flat)[0]
        shared = shared.reshape(trials, blocks)
        one = np.zeros(blocks, int)
        for t in range(trials):
            alone = _kernels.ml_decode_index(books[t : t + 1], one, rx[t])[0]
            assert np.array_equal(got[t], alone)
            assert np.array_equal(got[t], _brute_ml(cb_bits[t], rx_bits[t]))
            alone = _kernels.ml_decode_index(books[:1], one, rx[t])[0]
            assert np.array_equal(shared[t], alone)
            d = (cb_bits[t][None] != rx_bits[t][:, None]).sum(axis=2)
            ties += int(((d == d.min(axis=1, keepdims=True)).sum(axis=1) > 1).sum())
    assert ties >= 20


def _brute_tied(cb_bits, rx_bits):
    """Per received row, whether more than one codebook row sits at the least
    Hamming distance."""
    d = (cb_bits[None] != rx_bits[:, None]).sum(axis=2)
    return (d == d.min(axis=1, keepdims=True)).sum(axis=1) > 1


def _search_cases():
    """(codebook bits (T, rows, nbits), trials (N,), received bits (N, nbits),
    whether every row has a twin) inputs: random codebooks, codebooks whose
    every row has a twin (a singular G ties on every block), multi-word rows,
    and trials with none, some and all of their sub-blocks in one flat list,
    trials ascending, one with none between trials that have some."""
    rng = np.random.default_rng(21)
    cases = []
    for trials, rows, nbits, blocks, twins in ((4, 16, 8, 30, False), (3, 64, 12, 20, True),
                                              (5, 256, 48, 25, False), (3, 128, 130, 12, False),
                                              (2, 5000, 40, 30, True), (4, 1, 5, 6, False)):
        cb_bits = rng.integers(0, 2, (trials, rows, nbits)).astype(np.uint8)
        if twins:
            cb_bits[:, 1::2] = cb_bits[:, 0::2]
        rx_bits = rng.integers(0, 2, (trials, blocks, nbits)).astype(np.uint8)
        counts = rng.integers(0, blocks + 1, trials)
        counts[0], counts[-1] = 0, blocks
        cases.append((cb_bits, rx_bits, counts, twins))
    cb_bits = rng.integers(0, 2, (5, 32, 10)).astype(np.uint8)
    rx_bits = rng.integers(0, 2, (5, 8, 10)).astype(np.uint8)
    cases.append((cb_bits, rx_bits, [2, 0, 8, 0, 3], False))
    return [(cb_bits, np.repeat(np.arange(len(counts)), counts),
             np.concatenate([rx[:count] for rx, count in zip(rx_bits, counts)]), twins)
            for cb_bits, rx_bits, counts, twins in cases]


def test_ml_decode_tied_flag_equals_bruteforce():
    ties = untied = 0
    for cb_bits, trial, rx_bits, twins in _search_cases():
        books = np.stack([_kernels.pack_bits(c) for c in cb_bits])
        index, tied = _kernels.ml_decode_index(books, trial, _kernels.pack_bits(rx_bits))
        assert index.shape == tied.shape == trial.shape
        assert index.dtype == np.int64 and tied.dtype == bool
        for t in range(len(cb_bits)):
            mine = trial == t
            assert np.array_equal(index[mine], _brute_ml(cb_bits[t], rx_bits[mine]))
            assert np.array_equal(tied[mine], _brute_tied(cb_bits[t], rx_bits[mine]))
        if twins:
            assert tied.all()
        ties += int(tied.sum())
        untied += int((~tied).sum())
    assert ties > 50 and untied > 50


def test_ml_decode_searches_each_given_sub_block_once(monkeypatch):
    # every given sub-block reaches the distance step exactly once, in order,
    # and an empty list reaches it never
    real, seen = _kernels._distance, []

    def spy(a, b):
        seen.append(a.reshape(-1, a.shape[-1]).copy())
        return real(a, b)

    monkeypatch.setattr(_kernels, "_distance", spy)
    for cb_bits, trial, rx_bits, _ in _search_cases():
        books = np.stack([_kernels.pack_bits(c) for c in cb_bits])
        rx = _kernels.pack_bits(rx_bits)
        seen.clear()
        _kernels.ml_decode_index(books, trial, rx)
        assert np.array_equal(np.concatenate(seen), rx)
    seen.clear()
    _kernels.ml_decode_index(books, trial[:0], rx[:0])
    assert seen == []

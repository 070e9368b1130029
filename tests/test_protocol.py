import numpy as np
import pytest

from markovsim import (
    Protocol,
    TransmitFn,
    eval_fn,
    gen_uniform_protocol,
    parse_protocol,
    serialize_protocol,
    simulate_reference,
)
from markovsim.protocol import eval_fn_array

M1, M2, M3, M4 = TransmitFn.MU1, TransmitFn.MU2, TransmitFn.MU3, TransmitFn.MU4


# truth table of the four transmission functions
@pytest.mark.parametrize(
    "fn,outputs",
    [(M1, (0, 1)), (M2, (1, 0)), (M3, (0, 0)), (M4, (1, 1))],
)
def test_eval_fn_table(fn, outputs):
    assert (eval_fn(fn, 0), eval_fn(fn, 1)) == outputs


def test_eval_fn_array_matches_scalar():
    rng = np.random.default_rng(0)
    codes = rng.integers(1, 5, 200).astype(np.uint8)
    ins = rng.integers(0, 2, 200).astype(np.uint8)
    out = eval_fn_array(codes, ins)
    assert all(out[i] == eval_fn(codes[i], ins[i]) for i in range(200))


def test_simulate_reference_hand_cases():
    # A1 = mu4(0) = 1, B1 = mu2(1) = 0, A2 = mu1(0) = 0, B2 = mu2(0) = 1
    tr = simulate_reference(Protocol([M4, M1], [M2, M2]))
    assert tr.a.tolist() == [1, 0] and tr.b.tolist() == [0, 1]

    tr = simulate_reference(Protocol([M1] * 4, [M1] * 4))
    assert not tr.a.any() and not tr.b.any()

    tr = simulate_reference(Protocol([M3, M3], [M1, M1]))
    assert tr.a.tolist() == [0, 0] and tr.b.tolist() == [0, 0]


def test_simulate_reference_random_against_rescan():
    rng = np.random.default_rng(1)
    for _ in range(200):
        n = int(rng.integers(1, 50))
        p = gen_uniform_protocol(n, int(rng.integers(1 << 32)))
        tr = simulate_reference(p)
        prev = 0
        for i in range(n):
            ai = eval_fn(p.f[i], prev)
            bi = eval_fn(p.g[i], ai)
            assert tr.a[i] == ai and tr.b[i] == bi
            prev = bi


def test_stuck_function_cuts_history():
    # changing anything before a stuck f_i cannot move A_i
    rng = np.random.default_rng(2)
    for _ in range(100):
        n = int(rng.integers(3, 30))
        p = gen_uniform_protocol(n, int(rng.integers(1 << 32)))
        stuck = [i for i in range(1, n) if p.f[i] >= 3]
        if not stuck:
            continue
        i = stuck[-1]
        j = int(rng.integers(0, i))
        g2 = p.g.copy()
        g2[j] = 1 + (g2[j] & 3)  # any different code
        tr1 = simulate_reference(p)
        tr2 = simulate_reference(Protocol(p.f, g2))
        assert tr1.a[i] == tr2.a[i]


def test_gen_uniform_protocol_deterministic_and_uniform():
    assert np.array_equal(gen_uniform_protocol(64, 5).f, gen_uniform_protocol(64, 5).f)
    assert not np.array_equal(
        gen_uniform_protocol(64, 5).f, gen_uniform_protocol(64, 6).f
    )
    p = gen_uniform_protocol(100_000, 7)
    for code in range(1, 5):
        count = int((p.f == code).sum())
        assert abs(count - 25_000) < 3 * np.sqrt(100_000 * 0.25 * 0.75)


def test_gen_uniform_protocol_rejects_empty():
    with pytest.raises(ValueError):
        gen_uniform_protocol(0, 1)


def test_gen_uniform_protocol_rejects_non_integer_arguments():
    # True once drew seed 1's protocol, and a 1-round one as n; 1.5 and '3'
    # raised a TypeError
    for seed, shown in ((True, "True"), (np.True_, "np.True_"), ([1, True], "True"),
                        (1.5, "1.5"), ("3", "'3'"), ([2, 1.5], "1.5"), (-1, "-1"),
                        (np.array([False]), "np.False_")):
        with pytest.raises(ValueError, match=f"protocol seed must be an integer of at least 0, "
                                             f"got {shown}"):
            gen_uniform_protocol(8, seed)
    for n in (True, np.True_, 1.5, "8"):
        with pytest.raises(ValueError, match="n must be an integer"):
            gen_uniform_protocol(n, 1)
    assert gen_uniform_protocol(np.int64(8), np.uint64(3)).f.tolist() == \
        gen_uniform_protocol(8, 3).f.tolist()
    assert gen_uniform_protocol(8, np.arange(2)).f.shape == (2, 8)


def test_protocol_validation():
    with pytest.raises(ValueError):
        Protocol([1, 2], [1])
    with pytest.raises(ValueError):
        Protocol([0, 1], [1, 1])
    with pytest.raises(ValueError):
        Protocol([1, 5], [1, 1])
    with pytest.raises(ValueError):
        Protocol(np.ones((2, 2, 2), np.uint8), np.ones((2, 2, 2), np.uint8))
    with pytest.raises(ValueError):
        Protocol([], [])
    # only integer codes in 1..4: floats were truncated, strings cast, and
    # 257 or -1 raised numpy's OverflowError
    for bad in ([1.5, 2], np.array([1.9, 2.2]), ["1", "2"], np.array([True, True]), [0, 1],
                [5, 1], [257, 1], [-1, 1], np.array([1, 300], np.int64)):
        with pytest.raises(ValueError, match="function codes must lie in 1..4"):
            Protocol(bad, [1, 1])
        with pytest.raises(ValueError, match="function codes must lie in 1..4"):
            Protocol([1, 1], bad)
    for good in ([1, 4], np.array([1, 4], np.int64), np.array([1, 4], np.uint16)):
        p = Protocol(good, good)
        assert p.f.dtype == np.uint8 and p.f.tolist() == [1, 4]


def test_protocol_arrays_frozen():
    p = Protocol([1, 2], [3, 4])
    with pytest.raises(ValueError):
        p.f[0] = 2


def test_parse_serialize_round_trip():
    rng = np.random.default_rng(3)
    for _ in range(50):
        p = gen_uniform_protocol(int(rng.integers(1, 40)), int(rng.integers(1 << 32)))
        q = parse_protocol(serialize_protocol(p))
        assert np.array_equal(p.f, q.f) and np.array_equal(p.g, q.g)


def test_parse_protocol_examples():
    p = parse_protocol("f=13 g=24")
    assert p.f.tolist() == [1, 3] and p.g.tolist() == [2, 4]
    assert serialize_protocol(p) == "f=13 g=24"


@pytest.mark.parametrize(
    "line",
    ["f=15 g=11", "f=1 g=12", "g=11 f=11", "f= g=", "f=11", "f=11 g=11 x=1", "11 22"],
)
def test_parse_protocol_rejects_malformed(line):
    with pytest.raises(ValueError):
        parse_protocol(line)

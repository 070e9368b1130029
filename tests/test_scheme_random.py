import math
from fractions import Fraction

import numpy as np
import pytest

import markovsim as ms
from markovsim import scheme_random as sr
from markovsim.bits import ints_to_bits
from markovsim.protocol import TransmitFn as Mu
from markovsim.protocol import eval_fn_array
from markovsim.vertical import (
    FnDescMode,
    VerticalResult,
    functions_from_bits,
    offline_simulate,
    run_vertical_exchange,
    send,
)


def fns_with_stuck_at(n, positions, rng):
    """Uniform additive codes everywhere except the given 1-based stuck spots."""
    f = rng.integers(1, 3, n).astype(np.uint8)
    for pos in positions:
        f[pos - 1] = int(rng.integers(3, 5))
    return f


def test_ceil_isqrt():
    assert [sr.ceil_isqrt(k) for k in (1, 2, 4, 5, 16, 17, 256)] == [
        1, 2, 2, 3, 4, 5, 16,
    ]


def test_find_partition_examples():
    rng = np.random.default_rng(0)
    # stuck at 3, 9, 14 with width 4: 3 is inside the first block, so the
    # greedy spine lands on 1, 9, 14
    f = fns_with_stuck_at(16, [3, 9, 14], rng)
    part = sr.find_partition(f)
    assert part.starts.tolist() == [1, 9, 14] and part.part_a_width == 4

    part = sr.find_partition(rng.integers(1, 3, 16).astype(np.uint8))
    assert part.starts.tolist() == [1]

    part = sr.find_partition(rng.integers(3, 5, 16).astype(np.uint8))
    assert part.starts.tolist() == [1, 5, 9, 13]

    # n must be the number of functions
    for n in (15, 17):
        with pytest.raises(ValueError):
            sr.find_partition(f, n)


def test_find_partition_invariants():
    rng = np.random.default_rng(1)
    cases = []
    for n in (1, 2, 5, 16, 64, 257, 1024):
        for _ in range(40):
            cases.append(rng.integers(1, 5, n).astype(np.uint8))
        cases.append(np.full(n, int(Mu.MU3), np.uint8))
        cases.append(np.full(n, int(Mu.MU1), np.uint8))
        half = np.full(n, int(Mu.MU1), np.uint8)
        half[: n // 2] = int(Mu.MU4)
        cases.append(half)
        alt = np.full(n, int(Mu.MU2), np.uint8)
        alt[::2] = int(Mu.MU3)
        cases.append(alt)
        last_only = np.full(n, int(Mu.MU1), np.uint8)
        last_only[-1] = int(Mu.MU4)
        cases.append(last_only)

    for f in cases:
        n = f.size
        w = sr.ceil_isqrt(n)
        part = sr.find_partition(f)
        stuck = set((np.flatnonzero(f >= 3) + 1).tolist())
        starts = part.starts.tolist()
        assert part.part_a_width == w
        assert starts[0] == 1
        assert all(s in stuck for s in starts[1:])
        for prev, cur in zip(starts, starts[1:]):
            assert cur >= prev + w
            # greedy: no stuck position was skippable before cur
            assert not any(prev + w <= q < cur for q in stuck)
        assert not any(q >= starts[-1] + w for q in stuck)


def greedy_starts(f):
    """Row-by-row reference: the greedy hops over one protocol's stuck
    rounds, each to the first stuck round at least ceil(sqrt(n)) on."""
    w = sr.ceil_isqrt(f.size)
    stuck = np.flatnonzero(f >= 3) + 1
    starts = [1]
    while True:
        i = np.searchsorted(stuck, starts[-1] + w)
        if i == stuck.size:
            return starts
        starts.append(int(stuck[i]))


@pytest.mark.parametrize("n", [1, 9, 256, 4096])
def test_find_partition_batch_equals_rows(n):
    rng = np.random.default_rng(n)
    stuck = rng.integers(3, 5, (2, 400, n), dtype=np.uint8)
    additive = rng.integers(1, 3, (2, 400, n), dtype=np.uint8)
    share = rng.random((2, 400, n), dtype=np.float32)
    batches = {
        "uniform": rng.integers(1, 5, (2000, n), dtype=np.uint8),
        "sparse": np.where(share[0] < 0.02, stuck[0], additive[0]),
        "dense": np.where(share[1] < 0.9, stuck[1], additive[1]),
    }
    seen = set()
    for name, batch in batches.items():
        for lo in range(0, len(batch), 250):
            chunk = batch[lo : lo + 250]
            starts, counts = sr.find_partition(chunk)
            assert starts.shape == (len(chunk), counts.max()) and counts.shape == (len(chunk),)
            for f, row, p in zip(chunk, starts, counts):
                assert row[:p].tolist() == greedy_starts(f), name
                assert (row[p:] > n).all()
                seen.add(int(p))
        # a lone protocol gives one Partition, the one its batch row gets
        for f in batch[::25]:
            lone = sr.find_partition(f)
            assert isinstance(lone, sr.Partition)
            assert lone.starts.tolist() == greedy_starts(f)
            assert lone.part_a_width == sr.ceil_isqrt(n)
    assert len(seen) > (n > 1)  # the batches mix block counts


@pytest.mark.parametrize("n", [1, 2, 3, 4, 15, 16, 17, 4096])
def test_find_partition_rows_meet_at_their_ends(n):
    # the rows of a batch lie end to end: a row with no stuck round in its
    # last w rounds ends early, beside an all-stuck row in both orders, and
    # a row stuck only at round n puts a stuck round right before its end.
    # Each row gets the greedy reference's int64 starts, the starts it gets
    # alone, and n + 1 in every slot past its block count
    rng = np.random.default_rng(n + 41)
    w = sr.ceil_isqrt(n)
    quiet_tail = rng.integers(1, 5, n, dtype=np.uint8)
    quiet_tail[n - w :] = rng.integers(1, 3, w)
    all_stuck = rng.integers(3, 5, n, dtype=np.uint8)
    last_stuck = rng.integers(1, 3, n, dtype=np.uint8)
    last_stuck[-1] = int(Mu.MU3)
    uniform = list(rng.integers(1, 5, (6, n), dtype=np.uint8))
    for batch in ([quiet_tail, all_stuck], [all_stuck, quiet_tail],
                  [last_stuck, quiet_tail, *uniform, all_stuck, quiet_tail]):
        batch = np.stack(batch)
        starts, counts = sr.find_partition(batch)
        assert starts.dtype == counts.dtype == np.int64
        assert starts.shape == (len(batch), counts.max())
        for f, row, p in zip(batch, starts.tolist(), counts.tolist()):
            ref = greedy_starts(f)
            assert row[:p] == ref and row[p:] == [n + 1] * (len(row) - p)
            alone = sr.find_partition(f)
            assert alone.starts.dtype == np.int64 and alone.starts.tolist() == ref
            assert sr.find_partition(f[None])[0].tolist() == [ref]
    assert greedy_starts(all_stuck) == list(range(1, n + 1, w))


def test_partition_steps_take_a_batch():
    # a batch of partitions with one block count: the message, the layout
    # and the padded length of each row are those of the row alone
    n, w = 64, 8
    starts, counts = sr.find_partition(
        np.random.default_rng(14).integers(1, 5, (300, n), dtype=np.uint8))
    batch = sr.Partition(starts[counts == 8, :8], w)
    parts = [sr.Partition(row, w) for row in batch.starts]
    n_pad = sr._padded_len(batch, n)
    assert len(set(n_pad.tolist())) > 1
    width = int(n_pad.max())
    enc = sr.encode_partition(batch, n)
    a_idx, b_idx = sr.split_parts(batch, width)
    for t, q in enumerate(parts):
        assert enc[t].tolist() == sr.encode_partition(q, n).tolist()
        assert n_pad[t] == sr._padded_len(q, n)
        a_row, b_row = sr.split_parts(q, width)
        assert a_idx[t].tolist() == a_row.tolist() and b_idx[t].tolist() == b_row.tolist()
        # laid out over the batch's width, a row's own Part B comes first
        assert b_row[: n_pad[t] - 8 * w].tolist() == sr.split_parts(q, n_pad[t])[1].tolist()


def test_scheme1_batch_needs_one_block_count():
    rng = np.random.default_rng(15)
    f = np.stack([fns_with_stuck_at(16, [], rng), fns_with_stuck_at(16, [9], rng)])
    p = ms.Protocol(f, rng.integers(1, 5, (2, 16)))
    with pytest.raises(ValueError, match="one block count"):
        sr.run_scheme1(p, ms.ChannelPair(0.0, [1, 2]), ms.Identity())


def test_scheme1_takes_a_fitting_partition_only():
    # given (T, p) block starts stand in for finding them; starts whose row
    # count or shape does not fit the batch are rejected
    n = 64
    protocols = [q for q in (ms.gen_uniform_protocol(n, s) for s in range(40))
                 if sr.find_partition(q.f).p == 8][:3]
    p = ms.Protocol(np.stack([q.f for q in protocols]), np.stack([q.g for q in protocols]))
    starts = np.stack([sr.find_partition(q.f).starts for q in protocols])

    def run(given):
        report = sr.run_scheme1(p, ms.ChannelPair(0.1, [1, 2, 3]), ms.Identity(), given)
        return [(r.bob.a.tolist(), r.bob.b.tolist(), r.ledger.total)
                for r in map(report.row, range(3))]

    assert run(starts) == run(None)
    for bad in (starts[:2], starts[0]):
        with pytest.raises(ValueError, match="partition starts .* do not fit"):
            run(bad)


def test_partition_message_lengths():
    rng = np.random.default_rng(2)
    f = fns_with_stuck_at(16, [3, 9, 14], rng)
    enc = sr.encode_partition(sr.find_partition(f), 16)
    assert enc.size == 16  # 4-bit fields, one count + three starts

    f = np.full(256, int(Mu.MU3), np.uint8)
    enc = sr.encode_partition(sr.find_partition(f), 256)
    assert enc.size == 136  # 8-bit fields, one count + sixteen starts

    # a last start beyond n does not describe a partition of 1..n
    with pytest.raises(ValueError):
        sr.encode_partition(sr.Partition(np.array([1, 5, 17]), 4), 16)


def test_partition_codec_round_trip():
    rng = np.random.default_rng(3)
    for n in (1, 2, 16, 100, 257):
        for _ in range(30):
            part = sr.find_partition(rng.integers(1, 5, n).astype(np.uint8))
            back = sr.decode_partition(sr.encode_partition(part, n), n, sr._padded_len(part, n))
            assert back.starts.tolist() == part.starts.tolist()
            assert back.part_a_width == part.part_a_width


def fields(*values, n=16):
    """A partition message of the given raw fields (start - 1 after the count)."""
    return ints_to_bits(list(values), sr._field_width(n))


def test_partition_decode_rejects_malformed():
    # a malformed decode is not an error: Bob falls back to even starts
    # (n = 16: 4-bit fields, Part A width 4); only a message that is not a
    # count and whole start fields raises
    with pytest.raises(ValueError):
        sr.decode_partition(np.zeros(7, np.uint8), 16, 16)  # not a field multiple
    with pytest.raises(ValueError):
        sr.decode_partition(np.zeros(4, np.uint8), 16, 16)  # no start field
    ok = fields(2, 0, 8)  # starts 1 and 9, unlike the even 1 and 5
    assert sr.decode_partition(ok, 16, 16).starts.tolist() == [1, 9]
    for bad in (
        fields(0, 0, 8),  # count 0
        fields(3, 0, 8),  # count says 3 but only two starts follow
        fields(2, 3, 8),  # first start not 1
        fields(2, 0, 0),  # non-increasing starts
    ):
        assert sr.decode_partition(bad, 16, 16).starts.tolist() == [1, 5]
    # n = 12 still has 4-bit fields, so a start can lie past n: 13 here
    assert sr.decode_partition(fields(2, 0, 12, n=12), 12, 16).starts.tolist() == [1, 5]
    # a well-formed decode that does not pad to n_pad
    assert sr.decode_partition(ok, 16, 17).starts.tolist() == [1, 5]


def test_split_parts_example():
    rng = np.random.default_rng(4)
    part = sr.find_partition(fns_with_stuck_at(16, [3, 9, 14], rng))
    a_idx, b_idx = sr.split_parts(part, 16)
    assert a_idx.tolist() == [1, 2, 3, 4, 9, 10, 11, 12, 14, 15, 16]
    assert b_idx.tolist() == [5, 6, 7, 8, 13]


def test_split_parts_covers_every_round_once():
    rng = np.random.default_rng(5)
    for n in (1, 9, 64, 300):
        part = sr.find_partition(rng.integers(1, 5, n).astype(np.uint8))
        n_pad = sr._padded_len(part, n)
        a_idx, b_idx = sr.split_parts(part, n_pad)
        merged = np.sort(np.concatenate([a_idx, b_idx]))
        assert merged.tolist() == list(range(1, n_pad + 1))


def layout_by_blocks(starts, w, n):
    """Block-by-block reference layout of rounds 1..n, built without the
    package: each block's first w rounds (fewer if it ends sooner) are Part
    A and the rest of it Part B."""
    part_a, part_b = [], []
    for s, nxt in zip(starts, list(starts[1:]) + [n + 1]):
        part_a += range(s, min(s + w, nxt))
        part_b += range(min(s + w, nxt), nxt)
    return part_a, part_b


@pytest.mark.parametrize("n", [1, 9, 64, 257, 4096])
def test_split_parts_matches_a_per_block_layout(n):
    # greedy partitions of uniform, sparse and dense rows and Bob's even
    # fallback starts, each grouped by block count into one batch: laid out
    # over the batch's widest padded length every row's Part A is p * w
    # long; laid out over n alone, a short last block lies wholly in Part A
    rng = np.random.default_rng(n + 26)
    w = math.isqrt(n - 1) + 1
    share = rng.random((3, 60, n))
    rows = np.concatenate([
        rng.integers(1, 5, (60, n)),
        np.where(share[0] < 0.02, rng.integers(3, 5, (60, n)), rng.integers(1, 3, (60, n))),
        np.where(share[1] < 0.9, rng.integers(3, 5, (60, n)), rng.integers(1, 3, (60, n))),
    ]).astype(np.uint8)
    starts, counts = sr.find_partition(rows)
    short_last = 0
    for p in np.unique(counts).tolist():
        group = starts[counts == p, :p]
        group = np.concatenate([group, 1 + w * np.arange(p)[None]])  # Bob's fallback
        width = max(n, int(group[:, -1].max()) + w - 1)
        a_idx, b_idx = sr.split_parts(sr.Partition(group, w), width)
        assert a_idx.shape == (len(group), p * w) and b_idx.shape == (len(group), width - p * w)
        for row, a_row, b_row in zip(group.tolist(), a_idx, b_idx):
            assert (a_row.tolist(), b_row.tolist()) == layout_by_blocks(row, w, width)
            a_lone, b_lone = sr.split_parts(sr.Partition(np.array(row), w), n)
            assert (a_lone.tolist(), b_lone.tolist()) == layout_by_blocks(row, w, n)
            short_last += row[-1] + w - 1 > n
    assert short_last > 0 or n == 1


def test_partition_decode_rejects_starts_closer_than_sqrt_n():
    # n = 16: Part A width 4, so starts 1 and 4 would overlap Part A and
    # Bob falls back to even starts; gaps of 4 and 5 are kept
    assert sr.decode_partition(fields(3, 0, 3, 9), 16, 16).starts.tolist() == [1, 5, 9]
    assert sr.decode_partition(fields(3, 0, 4, 9), 16, 16).starts.tolist() == [1, 5, 10]


def test_bob_partition_uses_only_the_decode_and_message_sizes():
    n, w = 64, 8
    decoded = sr.Partition(np.array([1, 12, 30]), w)
    bits = sr.encode_partition(decoded, n)
    # a well-formed decode that fits p (the message's field count less
    # one) and n_pad is taken as it is, even where Alice's own starts differ
    assert sr.decode_partition(bits, n, 64).starts.tolist() == [1, 12, 30]
    # one that disagrees with p or n_pad, or is malformed, gives even starts
    miscounted = np.concatenate([fields(4, n=n), bits[6:]])
    assert sr.decode_partition(miscounted, n, 64).starts.tolist() == [1, 9, 17]
    assert sr.decode_partition(bits, n, 65).starts.tolist() == [1, 9, 17]
    malformed = np.zeros(18, np.uint8)  # block count 0, two starts of 1
    assert sr.decode_partition(malformed, n, 64).starts.tolist() == [1, 9]


def _layout_row(bits, n, p, n_pad):
    """Reference: Bob's layout of one message, decoded field by field with a
    ValueError on malformed content, which falls back to even starts.
    Returns the starts and whether the decode was kept."""
    w = sr.ceil_isqrt(n)
    try:
        width = max(1, (n - 1).bit_length())
        values = [int("".join(map(str, bits[i : i + width])), 2)
                  for i in range(0, len(bits), width)]
        starts = [v + 1 for v in values[1:]]
        if values[0] != len(starts) or starts[0] != 1 or max(starts) > n:
            raise ValueError("partition block count or starts out of range")
        if any(b - a < w for a, b in zip(starts, starts[1:])):
            raise ValueError("partition starts closer than sqrt(n)")
        if len(starts) == p and max(n, starts[-1] + w - 1) == n_pad:
            return starts, True
    except ValueError:
        pass
    return [1 + w * i for i in range(p)], False


@pytest.mark.parametrize("n", [1, 2, 3, 9, 16, 64, 100, 257, 4096])
def test_partition_batch_decode_equals_per_row_reference(n):
    # valid messages hit by bit flips, decoded against agreeing and wrong
    # padded lengths: the batch decode is the reference row by row, and a
    # lone message decodes to its batch row
    rng = np.random.default_rng(n)
    starts, counts = sr.find_partition(rng.integers(1, 5, (120, n), dtype=np.uint8))
    seen = {"kept": 0, "fallback": 0}
    for p in np.unique(counts).tolist():
        part = sr.Partition(starts[counts == p, :p], sr.ceil_isqrt(n))
        sent = sr.encode_partition(part, n)
        for flip in (0, 0.01, 0.05, 0.2, 0.5):
            got = sent ^ (rng.random(sent.shape) < flip).astype(np.uint8)
            n_pad = sr._padded_len(part, n) + rng.choice([0, 0, 0, 1, -1, 2, -2], len(got))
            batch = sr.decode_partition(got, n, n_pad)
            assert batch.starts.shape == part.starts.shape
            for t, (bits, size) in enumerate(zip(got, n_pad)):
                ref, kept = _layout_row(bits.tolist(), n, p, size)
                assert batch.starts[t].tolist() == ref
                assert sr.decode_partition(bits, n, size).starts.tolist() == ref
                seen["kept" if kept else "fallback"] += 1
    assert all(seen.values()), seen


def test_scheme1_decodes_a_batch_of_partitions_at_once(monkeypatch):
    # one call for the whole batch, with its (T, L) messages
    calls, decode = [], sr.decode_partition

    def spy(bits, *args):
        calls.append(np.shape(bits))
        return decode(bits, *args)

    monkeypatch.setattr(sr, "decode_partition", spy)
    n = 64
    protocols = [q for q in (ms.gen_uniform_protocol(n, s) for s in range(40))
                 if sr.find_partition(q.f).p == 8][:5]
    p = ms.Protocol(np.stack([q.f for q in protocols]), np.stack([q.g for q in protocols]))
    sr.run_scheme1(p, ms.ChannelPair(0.05, list(range(5))), ms.Repetition(3))
    assert calls == [(5, 9 * sr._field_width(n))]


def test_scheme1_misdecoded_partition_does_not_raise(monkeypatch):
    # rep3 at eps 0.05: the partition decodes with two starts closer than
    # ceil(sqrt(n)); Bob must fall back to a layout that fits the wire
    decoded, real = [], sr.decode_partition

    def recording(bits, n, n_pad):
        decoded.append(sr.bits_to_ints(bits, sr._field_width(n))[..., 1:] + 1)
        return real(bits, n, n_pad)

    monkeypatch.setattr(sr, "decode_partition", recording)
    p = ms.gen_uniform_protocol(100, 1)
    rep = sr.run_scheme1(p, ms.ChannelPair(0.05, 1002), ms.Repetition(3))
    assert any(ev.stage == "partition" for ev in rep.decode_log)
    assert (np.diff(decoded[0], axis=-1) < 10).any()
    assert rep.bob.a.size == 100 and not rep.ok


def test_part_b_matches_per_segment_reference(monkeypatch):
    """Both parties' Part B, computed per block with offline_simulate and
    eval_fn_array from what run_scheme1 exchanged, under noise too; and
    both parties' Part A, as the vertical exchange recorded it."""
    sent, columns = {}, []

    # run_scheme1 runs a lone protocol as a batch of one: record that row,
    # cut to its own length
    def recording_send(ch, code, ledger, payload, direction, stage, lengths=None):
        got = send(ch, code, ledger, payload, direction, stage, lengths)
        size = payload.shape[-1] if lengths is None else lengths[0]
        sent[stage] = (payload[0, :size].copy(), got[0, :size])
        return got

    def recording_exchange(*args, **kwargs):
        res = run_vertical_exchange(*args, **kwargs)
        columns.append(VerticalResult(
            res.alice_a[0], res.alice_b[0], res.bob_a[0], res.bob_b[0],
            res.bob_tail[0, : kwargs["tail_lengths"][0]],
        ))
        return res

    monkeypatch.setattr(sr, "send", recording_send)
    monkeypatch.setattr(sr, "run_vertical_exchange", recording_exchange)
    rng = np.random.default_rng(11)
    protos = [ms.gen_uniform_protocol(n, s) for n in (50, 64, 100, 257) for s in range(6)]
    # all stuck: every Part B segment is empty; stuck at 5, 9 and 14 of 16:
    # the last block is padded past n
    protos.append(ms.Protocol(np.full(64, 3, np.uint8), rng.integers(1, 5, 64)))
    f = fns_with_stuck_at(16, [5, 9, 14], rng)
    protos.append(ms.Protocol(f, rng.integers(1, 5, 16)))
    seen = {"empty": 0, "padded": 0, "bob_moved": 0}
    for i, p in enumerate(protos * 2):
        eps, code = ((0.0, ms.Identity()), (0.05, ms.Repetition(3)))[i // len(protos)]
        sent.clear(), columns.clear()
        rep = sr.run_scheme1(p, ms.ChannelPair(eps, i), code)
        if not columns:
            continue  # description branch: no Part B exchange
        res, n, w = columns[0], p.n, sr.ceil_isqrt(p.n)
        part = sr.find_partition(p.f)
        n_pad = sr._padded_len(part, n)
        pad = np.full(n_pad - n, 3, np.uint8)
        pf, pg = np.concatenate([p.f, pad]), np.concatenate([p.g, pad])
        part_bob = sr.decode_partition(sent["partition"][1], n, n_pad)
        reply, reply_got = sent["part_b"]

        a_idx, b_idx = sr.split_parts(part, n_pad)
        a_idx_bob, b_idx_bob = sr.split_parts(part_bob, n_pad)
        for view, a, b, idx in (
            (rep.alice, res.alice_a, res.alice_b, a_idx),
            (rep.bob, res.bob_a, res.bob_b, a_idx_bob),
        ):
            kept = idx <= n
            assert np.array_equal(view.a[idx[kept] - 1], a.ravel()[kept])
            assert np.array_equal(view.b[idx[kept] - 1], b.ravel()[kept])

        f_tail = functions_from_bits(res.bob_tail, FnDescMode.ONE_BIT_ADDITIVE)
        bob_a, bob_b, done = [], [], 0
        for r, s in enumerate(part_bob.starts):
            seg = np.arange(s + w, np.append(part_bob.starts, n_pad + 1)[r + 1])
            tr = offline_simulate(f_tail[done : done + seg.size], pg[seg - 1],
                                  int(res.bob_b[r, w - 1]))
            bob_a.append(tr.a), bob_b.append(tr.b)
            done += seg.size
            seen["empty"] += seg.size == 0
        assert reply.tolist() == np.concatenate(bob_b).tolist()
        kept = b_idx_bob <= n
        assert np.array_equal(rep.bob.a[b_idx_bob[kept] - 1], np.concatenate(bob_a)[kept])
        assert np.array_equal(rep.bob.b[b_idx_bob[kept] - 1], reply[kept])

        alice_a, done = [], 0
        for r, s in enumerate(part.starts):
            seg = np.arange(s + w, np.append(part.starts, n_pad + 1)[r + 1])
            chunk = reply_got[done : done + seg.size]
            prev = np.concatenate([[res.alice_b[r, w - 1]], chunk[:-1]])
            alice_a.append(eval_fn_array(pf[seg - 1], prev))
            done += seg.size
        kept = b_idx <= n
        assert np.array_equal(rep.alice.a[b_idx[kept] - 1], np.concatenate(alice_a)[kept])
        assert np.array_equal(rep.alice.b[b_idx[kept] - 1], reply_got[kept])
        seen["padded"] += n_pad > n
        seen["bob_moved"] += part_bob.starts.tolist() != part.starts.tolist()
    assert all(seen.values()), seen


# ---------------------------------------------------------------------------
# end-to-end


def test_scheme1_noiseless_exact_both_branches():
    rng = np.random.default_rng(6)
    protos = []
    for n in (1, 2, 3, 5, 16, 64, 257):
        for seed in range(8):
            protos.append(ms.gen_uniform_protocol(n, 1000 * n + seed))
        # forced description branch: nothing stuck, p = 1
        protos.append(
            ms.Protocol(rng.integers(1, 3, n).astype(np.uint8),
                        rng.integers(1, 5, n).astype(np.uint8))
        )
        # forced interactive branch for larger n: everything stuck
        protos.append(
            ms.Protocol(rng.integers(3, 5, n).astype(np.uint8),
                        rng.integers(1, 5, n).astype(np.uint8))
        )
    for code in (ms.Identity(), ms.Repetition(3), ms.RandomLinear(5, Fraction(1, 2), 9)):
        for p in protos:
            rep = sr.run_scheme1(p, ms.ChannelPair(0.0, 0), code)
            assert rep.ok and rep.alice_ok and rep.bob_ok, (p.n, code)
            assert rep.decode_log == []
            assert rep.scheme == "scheme1" and rep.n == p.n
            ref = ms.simulate_reference(p)
            assert np.array_equal(rep.bob.a, ref.a)
            assert np.array_equal(rep.alice.b, ref.b)


def test_scheme1_strips_padding():
    rng = np.random.default_rng(7)
    f = fns_with_stuck_at(16, [9, 14], rng)
    part = sr.find_partition(f)
    assert sr._padded_len(part, 16) == 17  # last block runs past n
    p = ms.Protocol(f, rng.integers(1, 5, 16).astype(np.uint8))
    rep = sr.run_scheme1(p, ms.ChannelPair(0.0, 0), ms.Identity())
    assert rep.ok and rep.alice.a.size == 16 and rep.bob.b.size == 16


def test_scheme1_ledger_description_branch():
    rng = np.random.default_rng(8)
    n = 64
    f = rng.integers(1, 3, n).astype(np.uint8)  # no stuck: p=1 <= root4
    p = ms.Protocol(f, rng.integers(1, 5, n).astype(np.uint8))
    rep = sr.run_scheme1(p, ms.ChannelPair(0.0, 0), ms.Identity())
    part = sr.find_partition(f)
    n_pad = sr._padded_len(part, n)
    a_idx, b_idx = sr.split_parts(part, n_pad)
    enc_len = sr.encode_partition(part, n).size
    assert rep.ledger.uses_ab == enc_len + 2 * a_idx.size + b_idx.size
    assert rep.ledger.uses_ba == n_pad
    assert rep.rate == Fraction(2 * n, rep.ledger.total)


def test_scheme1_ledger_interactive_branch():
    rng = np.random.default_rng(9)
    n = 64
    f = np.full(n, int(Mu.MU3), np.uint8)  # all stuck: p = 8 > root4 = 3
    p = ms.Protocol(f, rng.integers(1, 5, n).astype(np.uint8))
    rep = sr.run_scheme1(p, ms.ChannelPair(0.0, 0), ms.Identity())
    part = sr.find_partition(f)
    w = part.part_a_width
    n_pad = sr._padded_len(part, n)
    a_idx, b_idx = sr.split_parts(part, n_pad)
    assert part.p == 8 and a_idx.size == w * part.p
    enc_len = sr.encode_partition(part, n).size
    assert rep.ledger.uses_ab == enc_len + w * part.p + b_idx.size
    assert rep.ledger.uses_ba == w * part.p + b_idx.size


def test_scheme1_partition_corruption_is_survivable():
    # uncoded at eps 0.4 the control message is essentially never clean
    p = ms.gen_uniform_protocol(64, 10)
    rep = sr.run_scheme1(p, ms.ChannelPair(0.4, 11), ms.Identity())
    assert any(ev.stage == "partition" for ev in rep.decode_log)
    assert rep.bob.a.size == 64 and isinstance(rep.bob_ok, bool)
    assert not rep.ok


def test_scheme1_failure_rate_within_union_bound():
    # random-code ensemble at eps 0.02: the per-profile union bound must
    # dominate the observed failure frequency
    eps, trials, n = 0.02, 300, 1024
    fails, bounds = 0, []
    for t in range(trials):
        ss = np.random.SeedSequence(entropy=(515151, t))
        s_proto, s_noise, s_code = ss.generate_state(3, np.uint64).tolist()
        p = ms.gen_uniform_protocol(n, s_proto)
        code = ms.RandomLinear(12, Fraction(1, 3), s_code)
        rep = sr.run_scheme1(p, ms.ChannelPair(eps, s_noise), code)
        fails += not rep.ok
        bounds.append(
            ms.union_bound_profile(rep.block_counts, code, eps)
        )
    p_hat = fails / trials
    assert p_hat <= sum(bounds) / trials

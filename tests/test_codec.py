"""Codec round-trip tests (BasePostingsFormatTestCase-style, FIXTURES.md §5):
decode(encode(x)) == x across block-boundary lengths; block maxes are true
upper bounds; selective block decode agrees with the full decode; every
decode path agrees with a bit-by-bit reference reader of the stream grammar
(``lucene_ray/codec/forutil.py`` module docstring), and the encoder writes
the bytes of a bit-by-bit reference writer."""

import numpy as np
import pyarrow as pa
import pytest

from lucene_ray.codec import forutil
from lucene_ray.codec.forutil import (
    decode_blocks_batched,
    decode_stream,
    decode_stream_blocks,
    encode_blocks_batched,
    encode_stream,
)
from lucene_ray.codec.postings_codec import (
    BatchReaders,
    TermRow,
    build_segment_postings,
    column_reader,
    decode_segment_pairs,
    decode_term_postings,
    pareto_impacts,
)
from lucene_ray.config import BLOCK_SIZE, PFOR_MAX_EXCEPTIONS


@pytest.mark.parametrize("n", [1, 2, 127, 128, 129, 256, 1000, 10_000])
def test_stream_roundtrip_random(n):
    rng = np.random.default_rng(n)
    v = rng.integers(0, 2**20, size=n).astype(np.uint32)
    blob, offsets = encode_stream(v)
    assert np.array_equal(decode_stream(blob, n), v)
    assert len(offsets) == (n + BLOCK_SIZE - 1) // BLOCK_SIZE


def test_dense_run_fast_path():
    # all-deltas-equal (ForDeltaUtil.java:55 all-ones fast path analog):
    # constant blocks encode in 5 bytes
    v = np.ones(128, dtype=np.uint32)
    blob, _ = encode_stream(v)
    assert len(blob) == 5


def test_pfor_outliers():
    # one huge outlier among small values: PFor should beat plain FOR
    v = np.arange(128, dtype=np.uint32)
    v[77] = 2**19
    blob, _ = encode_stream(v)
    plain, _ = encode_stream(v, allow_pfor=False)
    assert len(blob) < len(plain)
    assert np.array_equal(decode_stream(blob, 128), v)


def test_zeros_block():
    v = np.zeros(128, dtype=np.uint32)
    blob, _ = encode_stream(v)
    assert np.array_equal(decode_stream(blob, 128), v)


def test_selective_block_decode():
    rng = np.random.default_rng(7)
    v = rng.integers(0, 1000, size=1000).astype(np.uint32)
    blob, offsets = encode_stream(v)
    got = decode_stream_blocks(blob, 1000, offsets, np.array([0, 3, 7]))
    assert np.array_equal(got, np.concatenate([v[0:128], v[3 * 128 : 4 * 128], v[7 * 128 :]]))


def test_pareto_impacts_upper_bound():
    rng = np.random.default_rng(3)
    tfs = rng.integers(1, 50, size=100)
    norms = rng.integers(0, 256, size=100)
    packed = pareto_impacts(tfs, norms)
    # every (tf, norm) in the block is dominated by some pareto pair
    pairs = [((p >> 8), p & 0xFF) for p in packed]
    for tf, nm in zip(tfs, norms):
        assert any(ptf >= tf and pnm <= nm for ptf, pnm in pairs)
    # pareto front: increasing tf with increasing norm
    assert all(pairs[i][0] < pairs[i + 1][0] for i in range(len(pairs) - 1))
    assert all(pairs[i][1] < pairs[i + 1][1] for i in range(len(pairs) - 1))


def _explode(docs_tokens):
    row_idx, terms, pos = [], [], []
    for d, toks in enumerate(docs_tokens):
        for p, t in enumerate(toks):
            row_idx.append(d)
            terms.append(t)
            pos.append(p)
    return (
        np.array(row_idx, dtype=np.int64),
        pa.array(terms, type=pa.string()),
        np.array(pos, dtype=np.int32),
    )


def test_build_segment_postings_roundtrip():
    docs = [
        ["a", "b", "a", "c"],
        ["b", "b", "d"],
        ["a"],
        [],
        ["e", "a", "e", "e"],
    ]
    row_idx, terms, pos = _explode(docs)
    norms = np.array([4, 3, 1, 0, 4], dtype=np.uint8)  # fake norm bytes
    table, stats = build_segment_postings(row_idx, terms, pos, 5, norms)
    assert stats == {"doc_count": 5, "sum_ttf": 12, "unique_terms": 5}
    assert table.column("term").to_pylist() == ["a", "b", "c", "d", "e"]

    rows = {r["term"]: r for r in table.to_pylist()}
    pa_ = decode_term_postings(rows["a"])
    assert pa_.docids.tolist() == [0, 2, 4]
    assert pa_.tfs.tolist() == [2, 1, 1]
    assert [p.tolist() for p in pa_.positions()] == [[0, 2], [0], [1]]

    pb = decode_term_postings(rows["b"])
    assert pb.docids.tolist() == [0, 1]
    assert pb.tfs.tolist() == [1, 2]

    pc_ = decode_term_postings(rows["c"])  # singleton path
    assert rows["c"]["singleton_docid"] == 0
    assert pc_.docids.tolist() == [0]
    assert [p.tolist() for p in pc_.positions()] == [[3]]

    pe = decode_term_postings(rows["e"])
    assert pe.docids.tolist() == [4]
    assert pe.tfs.tolist() == [3]
    assert [p.tolist() for p in pe.positions()] == [[0, 2, 3]]


def test_build_segment_postings_large_random():
    rng = np.random.default_rng(11)
    vocab = [f"t{i}" for i in range(50)]
    docs = [
        [vocab[j] for j in rng.integers(0, 50, size=rng.integers(0, 40))]
        for _ in range(500)
    ]
    row_idx, terms, pos = _explode(docs)
    norms = np.array([min(len(d), 255) for d in docs], dtype=np.uint8)
    table, stats = build_segment_postings(row_idx, terms, pos, 500, norms)
    assert stats["sum_ttf"] == sum(len(d) for d in docs)

    # CheckIndex-style invariants (index/CheckIndex.java:1054-1079):
    # term order, strictly increasing docids, df == len(postings)
    ts = table.column("term").to_pylist()
    assert ts == sorted(ts)
    for row in table.to_pylist():
        p = decode_term_postings(row)
        assert len(p.docids) == row["df"]
        assert np.all(np.diff(p.docids) > 0)
        assert int(p.tfs.sum()) == row["ttf"]
        assert row["block_last_docid"][-1] == p.docids[-1]
        # golden truth from the docs themselves
        expected = [
            (d, sum(1 for t in docs[d] if t == row["term"]))
            for d in range(500)
            if row["term"] in docs[d]
        ]
        assert [(int(a), int(b)) for a, b in zip(p.docids, p.tfs)] == expected


def test_offsets_stream_roundtrip():
    """off/offlen streams: encode via build_segment_postings, decode via
    TermPostings.flat_offsets and decode_segment_pairs — exact roundtrip."""
    import numpy as np
    import pyarrow as pa

    from lucene_ray.codec.postings_codec import (
        build_segment_postings,
        decode_segment_pairs,
        decode_term_postings,
    )

    rng = np.random.default_rng(5)
    n_docs, n_tok = 40, 2000
    row_idx = np.sort(rng.integers(0, n_docs, n_tok)).astype(np.int64)
    terms = pa.array(rng.choice([f"t{i}" for i in range(30)], n_tok), type=pa.string())
    # positions/starts ascend within a row
    pos = np.zeros(n_tok, dtype=np.int32)
    starts = np.zeros(n_tok, dtype=np.int32)
    p = s = 0
    for i in range(n_tok):
        if i and row_idx[i] != row_idx[i - 1]:
            p = s = 0
        pos[i], starts[i] = p, s
        p += 1
        s += int(rng.integers(1, 12))
    lens = rng.integers(1, 9, n_tok).astype(np.int32)
    norms = np.full(n_docs, 50, dtype=np.uint8)
    table, _ = build_segment_postings(
        row_idx, terms, pos, n_docs, norms, tok_starts=starts, tok_lens=lens
    )
    # per-term decode matches the raw triples
    want = {}
    for r, t, st, L in zip(row_idx, terms.to_pylist(), starts, lens):
        want.setdefault(t, []).append((int(r), int(st), int(L)))
    rows = {
        table.column("term")[i].as_py(): {
            c: table.column(c)[i].as_py() for c in table.column_names
        }
        for i in range(table.num_rows)
    }
    for t, triples in want.items():
        tp = decode_term_postings(rows[t])
        assert tp.has_offsets
        d_rep, st_abs, ln = tp.flat_offsets()
        got = sorted(zip(d_rep.tolist(), st_abs.tolist(), ln.tolist()))
        assert got == sorted(triples), t
    # whole-table decode roundtrip (the merge path input)
    _terms, df, pdoc, ptf, pdelta, odelta, olen = decode_segment_pairs(
        table, with_positions=True, with_offsets=True
    )
    assert int(df.sum()) == len(pdoc)
    assert len(odelta) == n_tok and len(olen) == n_tok
    assert olen.sum() == lens.sum()


def test_bloom_probe_matches_build_without_warnings():
    """may_contain probes exactly the K bits build_filter sets, with no
    uint64 overflow warning (array arithmetic wraps silently)."""
    import warnings

    from lucene_ray.codec.bloom import build_filter, may_contain

    terms = [f"term{chr(97 + i % 26)}{i}" for i in range(200)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        full = build_filter(pa.array(terms))
        assert all(may_contain(full, t) for t in terms)
        for t in terms:
            one = build_filter(pa.array([t]))
            bits = np.flatnonzero(np.unpackbits(one, bitorder="little"))
            assert 1 <= len(bits) <= 4
            assert may_contain(one, t)
            for b in bits:
                cleared = np.unpackbits(one, bitorder="little")
                cleared[b] = 0
                assert not may_contain(np.packbits(cleared, bitorder="little"), t)
        assert not may_contain(np.zeros_like(full), terms[0])


# ------------------------------------------------- differential decoder test


def _ref_block(buf: bytes, at: int, n: int) -> tuple[list[int], int]:
    """Reference reader of one block of ``n`` values at ``at``: bit by
    bit, MSB-first; CONST is a u32le; PFor ORs each (slot, high) pair's
    high bits above the base width. Returns (values, next offset)."""
    head = buf[at]
    if head == 0x40:
        return [int.from_bytes(buf[at + 1 : at + 5], "little")] * n, at + 5
    width, exceptions, at = head, [], at + 1
    if head == 0x41:
        width, k = buf[at], buf[at + 1]
        exceptions = [(buf[at + 2 + 2 * j], buf[at + 3 + 2 * j]) for j in range(k)]
        at += 2 + 2 * k
    values, bit = [], at * 8
    for _ in range(n):
        v = 0
        for _ in range(width):
            v = (v << 1) | ((buf[bit // 8] >> (7 - bit % 8)) & 1)
            bit += 1
        values.append(v)
    for slot, high in exceptions:
        values[slot] |= high << width
    return values, at + (n * width + 7) // 8


def _ref_stream(buf: bytes, n: int) -> list[int]:
    out, at = [], 0
    for start in range(0, n, BLOCK_SIZE):
        values, at = _ref_block(buf, at, min(BLOCK_SIZE, n - start))
        out += values
    return out


def _ref_pack(values, width: int) -> bytes:
    bits = "".join(format(v, f"0{width}b") for v in values) if width else ""
    bits += "0" * (-len(bits) % 8)
    return bytes(int(bits[i : i + 8], 2) for i in range(0, len(bits), 8))


def ref_encode_block(values, allow_pfor: bool = True) -> bytes:
    """The reference writer of one block (``values``: a list of ints):
    CONST when every value is equal; else FOR at the max's bit width or,
    for a full block, PFor at the narrowest base of at most 8 bits below
    that width leaving <= PFOR_MAX_EXCEPTIONS wider values, when shorter
    (PForUtil.java: exceptions are (slot, high-bits byte) pairs)."""
    n = len(values)
    if n and min(values) == max(values):
        return bytes([0x40]) + values[0].to_bytes(4, "little")
    width = max(values, default=0).bit_length()
    plain = bytes([width]) + _ref_pack(values, width)
    if allow_pfor and width > 1 and n == BLOCK_SIZE:
        for base in range(max(width - 8, 1), width):
            exc = [i for i, v in enumerate(values) if v >> base]
            if len(exc) <= PFOR_MAX_EXCEPTIONS:
                pairs = b"".join(bytes([i, values[i] >> base]) for i in exc)
                low = [v & ((1 << base) - 1) for v in values]
                pfor = bytes([0x41, base, len(exc)]) + pairs + _ref_pack(low, base)
                return pfor if len(pfor) < len(plain) else plain
    return plain


def ref_encode_blocks(values, lens, allow_pfor: bool = True) -> tuple[bytes, list[int]]:
    """(bytes, block offsets) of blocks of ``lens`` values tiling ``values``."""
    values, blocks, at = [int(v) for v in values], [], 0
    for n in lens:
        blocks.append(ref_encode_block(values[at : at + n], allow_pfor))
        at += n
    return b"".join(blocks), np.cumsum([0] + [len(b) for b in blocks[:-1]]).tolist()


def ref_encode_stream(values, allow_pfor: bool = True) -> tuple[bytes, list[int]]:
    """A stream as blocks of BLOCK_SIZE; an empty one is one empty block."""
    return ref_encode_blocks(values, _block_lens(len(values)).tolist() or [0], allow_pfor)


def _random_block(rng, n: int) -> bytes:
    """One block of ``n`` values in any form the grammar allows: FOR at
    any width 0-32, CONST, or PFor with 0-7 exceptions (tails included)."""
    kind = rng.integers(3)
    if kind == 0:
        width = int(rng.integers(33))
        values = rng.integers(0, 1 << width, n, dtype=np.uint64).tolist()
        return bytes([width]) + _ref_pack(values, width)
    if kind == 1:
        return bytes([0x40]) + int(rng.integers(1 << 32)).to_bytes(4, "little")
    base = int(rng.integers(1, 33))
    k = int(rng.integers(8)) if n >= 8 else 0
    slots = rng.choice(n, k, replace=False).tolist()
    highs = rng.integers(0, min(256, 1 << (32 - base)), k).tolist()  # values stay u32
    values = rng.integers(0, 1 << base, n, dtype=np.uint64).tolist()
    pairs = b"".join(bytes([s, h]) for s, h in zip(slots, highs))
    return bytes([0x41, base, k]) + pairs + _ref_pack(values, base)


def _random_stream(rng, n: int) -> tuple[bytes, list[int]]:
    """(blob, block offsets) of a random ``n``-value stream."""
    blocks = [_random_block(rng, min(BLOCK_SIZE, n - s)) for s in range(0, n, BLOCK_SIZE)]
    offsets = np.cumsum([0] + [len(b) for b in blocks[:-1]]).tolist()
    return b"".join(blocks), offsets


def _block_lens(n: int) -> np.ndarray:
    return np.minimum(n - np.arange(0, n, BLOCK_SIZE), BLOCK_SIZE)


STREAM_LENS = [1, 2, 7, 127, 128, 129, 255, 256, 300, 1000, 1281]


def _every_width_stream(rng) -> tuple[bytes, list[int]]:
    """33 full FOR blocks, block w at width w, then a 5-value PFor tail."""
    blocks = [
        bytes([w]) + _ref_pack(rng.integers(0, 1 << w, BLOCK_SIZE, dtype=np.uint64).tolist(), w)
        for w in range(33)
    ]
    blocks.append(bytes([0x41, 3, 1, 4, 0xFF]) + _ref_pack([1, 2, 3, 4, 5], 3))
    offsets = np.cumsum([0] + [len(b) for b in blocks[:-1]]).tolist()
    return b"".join(blocks), offsets


@pytest.mark.parametrize("seed", range(4))
def test_decoders_match_reference_reader(seed):
    rng = np.random.default_rng(seed)
    blob, offsets = _every_width_stream(rng)
    n = 33 * BLOCK_SIZE + 5
    want = _ref_stream(blob, n)
    assert want[-1] == (0xFF << 3) | 5
    assert decode_stream(blob, n).tolist() == want
    streams = [(blob, offsets, n, want)]
    for n in STREAM_LENS + rng.integers(1, 2000, 6).tolist():
        blob, offsets = _random_stream(rng, n)
        want = _ref_stream(blob, n)
        assert decode_stream(blob, n).tolist() == want, n
        pick = np.flatnonzero(rng.random(len(offsets)) < 0.5)
        got = decode_stream_blocks(blob, n, np.array(offsets), pick)
        picked = [want[b * BLOCK_SIZE : (b + 1) * BLOCK_SIZE] for b in pick]
        assert got.tolist() == [v for block in picked for v in block]
        streams.append((blob, offsets, n, want))
    # many streams in one buffer, unrelated bytes between them
    buf, offs, lens, want = b"", [], [], []
    for blob, offsets, n, values in streams:
        buf += rng.integers(0, 256, int(rng.integers(0, 40)), dtype=np.uint8).tobytes()
        offs += [len(buf) + o for o in offsets]
        lens += _block_lens(n).tolist()
        want += values
        buf += blob
    got = decode_blocks_batched(np.frombuffer(buf, dtype=np.uint8), offs, lens)
    assert got.dtype == np.uint32 and got.tolist() == want
    # shuffled block order
    order = rng.permutation(len(offs))
    starts = np.cumsum([0] + lens[:-1])
    got = decode_blocks_batched(buf, np.array(offs)[order], np.array(lens)[order])
    assert got.tolist() == [want[starts[b] + i] for b in order for i in range(lens[b])]


@pytest.mark.parametrize("width", range(33))
def test_encoders_match_reference_reader(width):
    """Every width through the encoder, with CONST blocks, PFor exceptions
    and tails of 1-127 values: the reference writer's bytes, which the
    reference reader and every decoder read back."""
    rng = np.random.default_rng(width)
    for n in (1, 64, 127, 128, 129, 300, 512 + 77):
        values = rng.integers(0, 1 << width, n, dtype=np.uint64).astype(np.uint32)
        if n >= 128:  # first block: PFor, small values and a few at full width
            values[:128] >>= min(width, 4)
            values[rng.choice(128, 5, replace=False)] = (1 << width) - 1
        if n > 256:
            values[128:256] = 5  # one CONST block
        blob, offsets = encode_stream(values)
        lens = _block_lens(n)
        assert (blob, offsets.tolist()) == ref_encode_stream(values)
        assert _ref_stream(blob, n) == values.tolist()
        assert np.array_equal(decode_stream(blob, n), values)
        assert np.array_equal(decode_blocks_batched(blob, offsets, lens), values)


def _width_block(rng, width: int, n: int) -> np.ndarray:
    """``n`` random values of exactly ``width`` bits (the first at the top)."""
    values = rng.integers(0, 1 << width, n, dtype=np.uint64).astype(np.uint32)
    if width:
        values[0] |= np.uint32(1 << (width - 1))
    return values


@pytest.mark.parametrize("width", range(33))
def test_encoder_every_width_and_tail_length(width):
    """Full blocks and tails of every length 1-127 at ``width`` bits, one
    call, against the reference writer; every block decodes back."""
    rng = np.random.default_rng(100 + width)
    lens = [BLOCK_SIZE, *range(1, BLOCK_SIZE), BLOCK_SIZE]
    values = np.concatenate([_width_block(rng, width, n) for n in lens])
    for allow_pfor in (True, False):
        buf, offsets = encode_blocks_batched(values, lens, allow_pfor)
        assert (buf, offsets.tolist()) == ref_encode_blocks(values, lens, allow_pfor)
        assert np.array_equal(decode_blocks_batched(buf, offsets, lens), values)


@pytest.mark.parametrize("n_exc", range(1, PFOR_MAX_EXCEPTIONS + 2))
def test_encoder_pfor_exceptions(n_exc):
    """A full block of 3-bit values with ``n_exc`` 11-bit outliers: PFor
    with that many exceptions up to 7, FOR at 8; FOR without PFor. (No
    block encodes as PFor with 0 exceptions: its max is always one.)"""
    rng = np.random.default_rng(n_exc)
    values = rng.integers(0, 8, BLOCK_SIZE).astype(np.uint32)
    slots = np.sort(rng.choice(BLOCK_SIZE, n_exc, replace=False))
    values[slots] = rng.integers(1 << 10, 1 << 11, n_exc)
    blob, offsets = encode_stream(values)
    assert (blob, offsets.tolist()) == ref_encode_stream(values)
    if n_exc <= PFOR_MAX_EXCEPTIONS:
        assert blob[:3] == bytes([0x41, 3, n_exc])
        assert list(blob[3 : 3 + 2 * n_exc : 2]) == slots.tolist()  # slot order
    else:
        assert blob[0] == 11
    plain, _ = encode_stream(values, allow_pfor=False)
    assert plain == ref_encode_stream(values, allow_pfor=False)[0]
    assert plain[0] == 11
    for b in (blob, plain):
        assert np.array_equal(decode_stream(b, BLOCK_SIZE), values)


def test_encoder_chunks(monkeypatch):
    """Blocks of every kind across ``_pack`` chunk boundaries: the real
    chunk size, and a chunk of 3 blocks."""
    rng = np.random.default_rng(9)
    kinds = []
    for b in range(forutil.ENCODE_CHUNK_BLOCKS + 5):
        n = BLOCK_SIZE if b % 5 else int(rng.integers(1, BLOCK_SIZE))
        v = _width_block(rng, int(rng.integers(0, 12)), n)
        if b % 7 == 0:
            v[:] = b  # CONST
        elif b % 3 == 0 and n == BLOCK_SIZE:
            v[rng.choice(BLOCK_SIZE, 2, replace=False)] = 1 << 20  # PFor
        kinds.append(v)
    lens = [len(v) for v in kinds]
    values = np.concatenate(kinds)
    want = ref_encode_blocks(values, lens)
    buf, offsets = encode_blocks_batched(values, lens)
    assert (buf, offsets.tolist()) == want
    assert np.array_equal(decode_blocks_batched(buf, offsets, lens), values)
    monkeypatch.setattr(forutil, "ENCODE_CHUNK_BLOCKS", 3)
    buf, offsets = encode_blocks_batched(values[: sum(lens[:20])], lens[:20])
    assert buf == want[0][: want[1][20]] and offsets.tolist() == want[1][:20]


@pytest.mark.parametrize("n", [0, *STREAM_LENS])
def test_encode_stream_round_trip(n):
    rng = np.random.default_rng(n)
    values = rng.geometric(0.05, n).astype(np.uint32)
    blob, offsets = encode_stream(values)
    assert (blob, offsets.tolist()) == ref_encode_stream(values)
    assert offsets.dtype == np.int32
    assert np.array_equal(decode_stream(blob, n), values)


def test_term_sort_past_16_bit_vocabulary():
    """More than 65,536 terms: the counting sort's second (high 16 bits)
    pass keeps every term's postings in (doc, position) order."""
    n_terms = (1 << 16) + 300
    rng = np.random.default_rng(4)
    term_of = rng.permutation(np.repeat(np.arange(n_terms), 2))
    docs = np.sort(rng.integers(0, 50, len(term_of)))
    pos = np.arange(len(term_of)) - np.searchsorted(docs, docs)
    terms = pa.array([f"t{t:06d}" for t in term_of.tolist()], type=pa.string())
    table, _ = build_segment_postings(docs, terms, pos.astype(np.int32), 50, np.ones(50, np.uint8))
    assert table.num_rows == n_terms
    _terms, df, pair_doc, pair_tf, pos_d, *_ = decode_segment_pairs(table, True)
    order = np.lexsort((pos, docs, term_of))
    want_pos = []
    for t in range(n_terms):  # two postings per term, in (doc, position) order
        (a, b) = order[2 * t : 2 * t + 2]
        if docs[a] == docs[b]:
            want_pos += [pos[a], pos[b] - pos[a]]
        else:
            want_pos += [pos[a], pos[b]]
    assert pos_d.tolist() == want_pos
    assert int(df.sum()) == len(pair_doc) == int(pair_tf.size)


def test_decoders_read_arrow_memoryview_slices():
    """Blobs read as the query path reads them: memoryview slices of an
    Arrow binary column that starts at a non-zero offset."""
    rng = np.random.default_rng(17)
    rows, want = [b"junk"], [None]
    for n in (1, 128, 129, 700):
        blob, offsets = _random_stream(rng, n)
        rows += [blob, rng.integers(0, 256, 9, dtype=np.uint8).tobytes()]
        want += [(n, offsets, _ref_stream(blob, n)), None]
    arr = pa.array(rows, type=pa.large_binary()).slice(1)
    read = column_reader(arr)
    for j, w in enumerate(want[1:]):
        if w is None:
            continue
        n, offsets, values = w
        blob = read(j)
        assert isinstance(blob, memoryview)
        assert decode_stream(blob, n).tolist() == values
        last = np.array([len(offsets) - 1])
        got = decode_stream_blocks(blob, n, np.array(offsets), last)
        assert got.tolist() == values[last[0] * BLOCK_SIZE :]
        assert decode_blocks_batched(blob, offsets, _block_lens(n)).tolist() == values


def test_segment_streams_match_reference_reader():
    """Every stream of a built segment with offsets and payloads, decoded by
    the query path (decode_stream on the row's blobs, the cursor's
    selective lookup) and by decode_segment_pairs, equals the reference."""
    from lucene_ray.search.scorer import SegmentTermCursor

    rng = np.random.default_rng(23)
    n_docs = 1500
    docs = [
        ["hot"] * int(rng.integers(1, 4))
        + [f"t{i}" for i in rng.integers(0, 40, rng.integers(0, 12))]
        for _ in range(n_docs)
    ]
    row_idx, terms, pos = _explode(docs)
    starts = (pos * 7).astype(np.int32)
    lens = rng.integers(1, 9, len(pos)).astype(np.int32)
    payloads = rng.integers(0, 1 << 20, len(pos)).astype(np.uint32)
    norms = np.array([min(len(d), 255) for d in docs], dtype=np.uint8)
    table, _ = build_segment_postings(
        row_idx, terms, pos, n_docs, norms, tok_starts=starts, tok_lens=lens, payloads=payloads
    )
    table = table.combine_chunks()
    batch = table.to_batches()[0]
    readers = BatchReaders(batch)
    ref = {c: [] for c in ("doc", "tf", "pos", "off", "offlen", "pay")}
    for j in range(table.num_rows):
        row = TermRow(readers, j)
        df, ttf = row["df"], row["ttf"]
        for c in ref:
            n = df if c in ("doc", "tf") else ttf
            blob = row[f"{c}_blob"]
            if c in ("doc", "tf") and df == 1:
                ref[c].append([row["singleton_docid"] if c == "doc" else row["singleton_tf"]])
                continue
            want = _ref_stream(bytes(blob), n)
            assert decode_stream(blob, n).tolist() == want, (c, j)
            ref[c].append(want)
        docids = np.cumsum(ref["doc"][-1])
        if df > 4 * BLOCK_SIZE:
            cursor = SegmentTermCursor(row)
            cand = np.concatenate([docids[BLOCK_SIZE + 3 : BLOCK_SIZE + 9], [docids[-1] + 1]])
            want_tf = ref["tf"][-1][BLOCK_SIZE + 3 : BLOCK_SIZE + 9] + [0]
            assert cursor.lookup(cand).tolist() == want_tf
            assert cursor._full is None  # the selective path answered
    assert max(len(r) for r in ref["doc"]) > 4 * BLOCK_SIZE
    got = decode_segment_pairs(table, True, True, True)
    _terms, df, pair_doc, pair_tf, pos_d, off_d, off_len, pay = got
    doc_ref = [np.cumsum(d) if len(d) > 1 else d for d in ref["doc"]]
    assert pair_doc.tolist() == [int(x) for d in doc_ref for x in d]
    assert pair_tf.tolist() == [x for t in ref["tf"] for x in t]
    for c, flat in (("pos", pos_d), ("off", off_d), ("offlen", off_len), ("pay", pay)):
        assert flat.tolist() == [x for s in ref[c] for x in s], c

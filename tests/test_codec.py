"""Codec round-trip tests (BasePostingsFormatTestCase-style, FIXTURES.md §5):
decode(encode(x)) == x across block-boundary lengths; block maxes are true
upper bounds; selective block decode agrees with the full decode."""

import numpy as np
import pyarrow as pa
import pytest

from lucene_ray.codec.forutil import (
    decode_stream,
    decode_stream_blocks,
    encode_stream,
)
from lucene_ray.codec.postings_codec import (
    build_segment_postings,
    decode_term_postings,
    pareto_impacts,
)
from lucene_ray.config import BLOCK_SIZE


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
    blocks = decode_stream_blocks(blob, 1000, offsets, np.array([0, 3, 7]))
    assert np.array_equal(blocks[0], v[0:128])
    assert np.array_equal(blocks[1], v[3 * 128 : 4 * 128])
    assert np.array_equal(blocks[2], v[7 * 128 :])


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

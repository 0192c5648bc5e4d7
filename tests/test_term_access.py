"""SegmentReader's term dictionary and term rows, checked against the
postings table read back as Python objects (``to_pylist``): every term of
a merged segment whose postings span several row groups, and of a segment
indexed with offsets and payloads, directly and through
ParallelSegmentReader."""

import bisect
import os

import numpy as np
import pyarrow.parquet as pq
import pytest

from lucene_ray.codec.postings_codec import decode_term_postings
from lucene_ray.index.builder import build_index
from lucene_ray.index.corpus import write_corpus
from lucene_ray.index.manifest import read_manifest, segment_dir
from lucene_ray.index.merge import TieredMergePolicy, maybe_merge
from lucene_ray.search.reader import ParallelSegmentReader, SegmentReader
from lucene_ray.search.scorer import SegmentTermCursor


def _segments(ix):
    return [(segment_dir(ix, e.name), e) for e in read_manifest(ix).live_segments]


@pytest.fixture(scope="module")
def merged_segment(tmp_path_factory, ray_session):
    """The merged segment of a 1,100-doc build in 11 one-segment shards
    (the query_warm benchmark shape)."""
    root = tmp_path_factory.mktemp("term_access_merged")
    paths = write_corpus(
        str(root / "corpus"), n_docs=1100, n_shards=11, seed=5, row_group_size=100
    )
    ix = str(root / "ix")
    build_index(paths, ix, target_docs=5000)
    maybe_merge(ix, TieredMergePolicy())
    d, e = max(_segments(ix), key=lambda s: s[1].doc_count)
    pf = pq.ParquetFile(os.path.join(d, "postings.parquet"))
    assert pf.metadata.num_row_groups >= 2  # the shape this test is about
    return d, e


@pytest.fixture(scope="module")
def offsets_segment(tmp_path_factory, ray_session):
    root = tmp_path_factory.mktemp("term_access_offsets")
    paths = write_corpus(
        str(root / "corpus"), n_docs=200, n_shards=1, seed=9, row_group_size=200
    )
    ix = str(root / "ix")
    build_index(
        paths, ix, target_docs=5000, index_options="offsets",
        payload_fn="term_length",
    )
    (d, e), = _segments(ix)
    return d, e


def _plain(v):
    """A row value as plain Python: bytes for blobs, nested int lists for
    list columns, ints for counts."""
    if isinstance(v, (bytes, bytearray, memoryview)):
        return bytes(v)
    if isinstance(v, (str, int, np.integer)):
        return v if isinstance(v, str) else int(v)
    return [_plain(x) for x in v]


def _probes(terms: list[str]) -> list[str]:
    """Absent and present probes: before the first term, after the last,
    in between, ':'-keyword terms, and codepoints above U+FFFF."""
    mid = terms[len(terms) // 2]
    kw = next(t for t in terms if ":" in t)
    field = kw.split(":", 1)[0]
    return [
        "", "\x01", terms[0][:-1], terms[-1] + "z", "\U0010ffff",
        mid + "\x00", mid + "\U0001f600", mid[:-1] + "\U0001f600",
        "\U0001f600", "a\U0001f600", "￿", "a￿",
        kw, kw + "0", field + ":", field + ":\U0001f600", kw + "\U0001f600",
    ]


def _check_dictionary(sr, terms: list[str]):
    for t in _probes(terms):
        i = bisect.bisect_left(terms, t)
        want = i if i < len(terms) and terms[i] == t else -1
        assert sr.term_index(t) == want, repr(t)
        if want < 0:
            assert sr.term_row(t) is None, repr(t)
            assert tuple(sr.term_stats(t)) == (0, 0), repr(t)


def _check_rows(sr, rows: list[dict]):
    for i, py in enumerate(rows):
        t = py["term"]
        assert sr.term_index(t) == i, t
        row = sr.term_row(t)
        assert row is not None, t
        for name, want in py.items():
            assert _plain(row[name]) == want, (t, name)
        assert tuple(sr.term_stats(t)) == (py["df"], py["ttf"]), t


def _check_decode(sr, rows: list[dict]):
    for py in rows:
        t = py["term"]
        got, want = decode_term_postings(sr.term_row(t)), decode_term_postings(py)
        assert got.docids.tolist() == want.docids.tolist(), t
        assert got.tfs.tolist() == want.tfs.tolist(), t
        for flat in ("flat_positions", "flat_offsets", "flat_payloads"):
            g, w = getattr(got, flat)(), getattr(want, flat)()
            assert [x.tolist() for x in g] == [x.tolist() for x in w], (t, flat)
        cur = SegmentTermCursor(sr.term_row(t))
        docids, tfs = cur.decode_all()
        assert docids.tolist() == want.docids.tolist(), t
        assert tfs.tolist() == want.tfs.tolist(), t
        imp_tfs, imp_norms, starts = cur._impacts()
        packed = [p for block in py["impacts"] for p in block]
        assert imp_tfs.tolist() == [p >> 8 for p in packed], t
        assert imp_norms.tolist() == [p & 0xFF for p in packed], t
        lens = [len(block) for block in py["impacts"]]
        assert starts.tolist() == np.concatenate(([0], np.cumsum(lens)[:-1])).tolist()


@pytest.mark.parametrize("shape", ["merged_segment", "offsets_segment"])
def test_term_rows_match_postings_table(shape, request):
    d, e = request.getfixturevalue(shape)
    rows = pq.read_table(os.path.join(d, "postings.parquet")).to_pylist()
    terms = [r["term"] for r in rows]
    sr = SegmentReader(d, e.docid_base, e.doc_count)
    _check_dictionary(sr, terms)
    _check_rows(sr, rows)
    _check_decode(sr, rows)
    if shape == "offsets_segment":
        assert any(bytes(sr.term_row(t)["off_blob"]) for t in terms)
        assert any(bytes(sr.term_row(t)["pay_blob"]) for t in terms)


@pytest.mark.parametrize("shape", ["merged_segment", "offsets_segment"])
def test_term_rows_through_parallel_reader(shape, request):
    d, e = request.getfixturevalue(shape)
    rows = pq.read_table(os.path.join(d, "postings.parquet")).to_pylist()
    terms = [r["term"] for r in rows]
    psr = ParallelSegmentReader(
        [SegmentReader(d, e.docid_base, e.doc_count) for _ in range(2)]
    )
    _check_dictionary(psr, terms)
    _check_rows(psr, rows)

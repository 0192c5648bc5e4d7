"""Work-once and tie guards for the top-k path.

On a small two-segment index with tie-heavy scores (repeated short docs,
equal norms), a hard delete and MUST_NOT clauses:
  - pruned and exhaustive ``search`` return the same docids and the same
    float32 score bytes, and ``total_hits`` agrees with ``count``;
  - ``_topk`` equals a full (score desc, docid asc) lexsort even when ties
    straddle the kth score;
  - within one ``search``, each clause's block maxima are computed at most
    once per segment and each BM25 scorer scores at most once per segment
    (the essential loop's scores feed the canonical rescore).
"""

from collections import Counter

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from lucene_ray.index.builder import build_index
from lucene_ray.index.writer import delete_docs
from lucene_ray.search import engine, scorer
from lucene_ray.search.engine import IndexSearcher
from lucene_ray.search.scorer import _topk
from lucene_ray.search.similarity import BM25Scorer

TEMPLATES = [
    "merge flush",
    "merge sort",
    "flush scan",
    "merge",
    "sort scan merge",
    "flush merge flush",
    "scan",
    "merge flush sort",
]

QUERIES = [
    "merge flush",
    "merge sort scan",
    "merge^2 flush",
    "merge AND flush",
    "+merge -scan",
    "merge flush -sort",
    "+flush sort",
    '"merge flush"',
    '"merge flush" sort',
]

KS = (1, 3, 10, 1000)


@pytest.fixture(scope="module")
def ix(tmp_path_factory, ray_session):
    root = tmp_path_factory.mktemp("pruned_once")
    n = 96
    rows = {
        "repo": ["r"] * n,
        "path": [f"p{i}" for i in range(n)],
        "commit": ["c"] * n,
        "lang": ["t"] * n,
        "content": [TEMPLATES[i % len(TEMPLATES)] for i in range(n)],
    }
    src = str(root / "c.parquet")
    pq.write_table(pa.table(rows), src, row_group_size=16)
    d = str(root / "ix")
    build_index([src], d, target_docs=48)
    delete_docs(d, [0, 5, 50, 57])  # hard deletes in both segments
    return d


def test_index_shape(ix):
    s = IndexSearcher(ix)
    assert len(s.reader.segments) == 2
    assert s.count("merge") == sum(
        "merge" in TEMPLATES[i % len(TEMPLATES)].split()
        for i in range(96) if i not in (0, 5, 50, 57)
    )


@pytest.mark.parametrize("q", QUERIES)
def test_pruned_equals_exhaustive(ix, q):
    pruned, exhaustive = IndexSearcher(ix, pruned=True), IndexSearcher(ix, pruned=False)
    n = exhaustive.count(q)
    for k in KS:
        a, b = pruned.search(q, k), exhaustive.search(q, k)
        assert a.docids.tolist() == b.docids.tolist(), (q, k)
        assert a.scores.astype(np.float32).tobytes() == b.scores.astype(np.float32).tobytes(), (q, k)
        assert b.total_hits == n, (q, k)
        if a.relation == "eq":
            assert a.total_hits == n, (q, k)
        else:
            assert a.total_hits <= n, (q, k)
        assert len(b.docids) == min(k, n)


def _reference_topk(docids, scores, k):
    order = np.lexsort((docids, -scores.astype(np.float64)))[:k]
    return docids[order], scores[order].astype(np.float32)


def test_topk_ties_straddle_kth():
    rng = np.random.default_rng(3)
    for trial in range(120):
        # both sides of the partition threshold
        n = int(rng.integers(1, 60) if trial % 2 else rng.integers(500, 3000))
        docids = rng.permutation(5000)[:n].astype(np.int64)
        # few distinct values: the kth score is almost always tied
        values = np.float32([0.5, 1.25, 1.25, 2.0, 3.5] + [np.nan] * (trial % 3 == 0))
        scores = rng.choice(values, size=n).astype(np.float32)
        for k in (1, 2, 3, 5, 10, 100, n - 1, n, n + 4):
            if k < 1:
                continue
            d, s = _topk(docids, scores, k)
            rd, rs = _reference_topk(docids, scores, k)
            assert d.tolist() == rd.tolist(), (trial, k)
            assert s.dtype == np.float32 and s.tobytes() == rs.tobytes(), (trial, k)
    # more NaNs than numbers: the kth is NaN and every number is kept
    scores = np.float32([np.nan] * 700 + [1.0, 2.0])
    docids = np.arange(702, dtype=np.int64)[::-1].copy()
    for k in (1, 2, 3, 650):
        d, s = _topk(docids, scores, k)
        rd, rs = _reference_topk(docids, scores, k)
        assert d.tolist() == rd.tolist() and s.tobytes() == rs.tobytes(), k
    d, s = _topk(np.array([], dtype=np.int64), np.array([], dtype=np.float32), 3)
    assert len(d) == 0 and s.dtype == np.float32


def test_topk_all_tied():
    docids = np.array([9, 4, 7, 1, 3, 8], dtype=np.int64)
    scores = np.full(6, 1.5, dtype=np.float32)
    for k in range(1, 8):
        d, s = _topk(docids, scores, k)
        assert d.tolist() == sorted(docids.tolist())[:k]
        assert s.tolist() == [1.5] * min(k, 6)


def test_each_clause_scored_once_per_segment(ix, monkeypatch):
    """Per (segment, clause): the term's segment max score at most once
    per scorer, and at most one BM25Scorer.score call, within one search."""
    seg = [None]
    bm_calls, score_calls = Counter(), Counter()

    real_pruned = engine.score_segment_pruned

    def pruned(sr, *a, **kw):
        seg[0] = id(sr)
        return real_pruned(sr, *a, **kw)

    real_max = scorer.SegmentTermCursor.max_score

    def max_score(self, sc):
        bm_calls[(seg[0], id(self), id(sc))] += 1
        return real_max(self, sc)

    real_score = BM25Scorer.score

    def score(self, freq, norm_bytes):
        score_calls[(seg[0], id(self))] += 1
        return real_score(self, freq, norm_bytes)

    monkeypatch.setattr(engine, "score_segment_pruned", pruned)
    monkeypatch.setattr(scorer.SegmentTermCursor, "max_score", max_score)
    monkeypatch.setattr(BM25Scorer, "score", score)
    s = IndexSearcher(ix, pruned=True)
    bounded = 0
    for q in QUERIES:
        for k in KS:
            bm_calls.clear()
            score_calls.clear()
            s.search(q, k)
            assert score_calls, (q, k)
            assert max(bm_calls.values(), default=0) <= 1, (q, k, bm_calls)
            assert max(score_calls.values()) <= 1, (q, k, score_calls)
            bounded += len(bm_calls)
    assert bounded, "no search bounded a segment by its terms' max scores"

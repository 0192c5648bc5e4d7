"""Differential test of the bulk top-k scorer against the exhaustive oracle.

A three-segment index with hard and soft deletes; seeded random queries
of every boolean shape (should-only, must, must_not, minimum-should-match
2, nested groups) over all four clause kinds (TERM, FREQ via phrases,
CONST via constant-score wrappers, SCORED via nested groups and
dis-max), with boosts, each at k in {1, 3, 10, 1000}. The pruned path
must return the exhaustive path's docids and float32 score bytes, a
total_hits no larger than the exact count (equal to it when the relation
is "eq"), and no deleted doc. One query is built so that the min-competitive
floor skips whole segments.
"""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from lucene_ray.index.builder import build_index
from lucene_ray.index.writer import delete_docs, soft_delete_docs
from lucene_ray.search.engine import IndexSearcher
from lucene_ray.search.query import (
    BooleanQuery,
    ConstantScoreQuery,
    DisjunctionMaxQuery,
    PhraseQuery,
    TermQuery,
)

WORDS = ["merge", "flush", "index", "batch", "sort", "scan", "hash", "tree", "node", "leaf"]
SEG = 200  # docs per segment
KS = (1, 3, 10, 1000)
HARD = [3, 17, 250, 251, 420, 599]
SOFT = [8, 260, 333, 480]


def _content(rng, i: int) -> str:
    if i == 0:
        # a short doc dense in "zeta": after segment 0 at k=1 the floor
        # beats every later segment's bound for "zeta"
        return "zeta zeta zeta zeta"
    words = list(rng.choice(WORDS, size=int(rng.integers(3, 30)), p=_zipf()))
    if i % 37 == 0:
        words.append("zeta")
    return " ".join(words)


def _zipf():
    w = 1.0 / np.arange(1, len(WORDS) + 1)
    return w / w.sum()


@pytest.fixture(scope="module")
def ix(tmp_path_factory, ray_session):
    root = tmp_path_factory.mktemp("dense_topk")
    rng = np.random.default_rng(16)
    n = 3 * SEG
    rows = {
        "repo": ["r"] * n,
        "path": [f"p{i}" for i in range(n)],
        "commit": ["c"] * n,
        "lang": ["py"] * n,
        "content": [_content(rng, i) for i in range(n)],
    }
    src = str(root / "c.parquet")
    pq.write_table(pa.table(rows), src, row_group_size=SEG)
    d = str(root / "ix")
    build_index([src], d, target_docs=SEG)
    delete_docs(d, HARD)
    soft_delete_docs(d, SOFT)
    return d


def _leaf(rng):
    w = str(rng.choice(WORDS))
    boost = float(rng.choice([1.0, 1.0, 2.5, 0.5]))
    kind = int(rng.integers(5))
    if kind == 0:
        return TermQuery(w, boost)
    if kind == 1:
        return PhraseQuery((w, str(rng.choice(WORDS))), boost)
    if kind == 2:
        return ConstantScoreQuery(TermQuery(w), boost)
    if kind == 3:
        inner = BooleanQuery(should=[TermQuery(w), TermQuery(str(rng.choice(WORDS)))])
        return inner.freeze(boost)
    return DisjunctionMaxQuery((TermQuery(w), TermQuery(str(rng.choice(WORDS)))), 0.1)


def _queries():
    rng = np.random.default_rng(7)
    terms = lambda n: [TermQuery(str(rng.choice(WORDS))) for _ in range(n)]  # noqa: E731
    leaves = lambda n: [_leaf(rng) for _ in range(n)]  # noqa: E731
    out = [("theta-skip", BooleanQuery(should=[TermQuery("zeta")]))]
    for i in range(8):
        out += [
            (f"should-{i}", BooleanQuery(should=terms(2) + leaves(int(rng.integers(1, 4))))),
            (f"must-{i}", BooleanQuery(must=leaves(1) + terms(1), should=leaves(2))),
            (f"must_not-{i}", BooleanQuery(should=terms(2) + leaves(1), must_not=terms(1))),
            (f"msm2-{i}", BooleanQuery(should=terms(2) + leaves(2), min_should_match=2)),
            (f"nested-{i}", BooleanQuery(
                must=[BooleanQuery(should=leaves(2), must_not=terms(1)).freeze()],
                should=terms(2),
            )),
        ]
    return out


QUERIES = _queries()


def test_index_shape(ix):
    s = IndexSearcher(ix)
    assert [e.doc_count for e in s.reader.segments] == [SEG] * 3
    assert s.reader.live_doc_count == 3 * SEG - len(HARD) - len(SOFT)


@pytest.mark.parametrize("name,bq", QUERIES, ids=[n for n, _ in QUERIES])
def test_pruned_equals_exhaustive(ix, name, bq):
    pruned, exhaustive = IndexSearcher(ix, pruned=True), IndexSearcher(ix, pruned=False)
    n = exhaustive.count(bq)
    deleted = set(HARD) | set(SOFT)
    for k in KS:
        a, b = pruned.search(bq, k), exhaustive.search(bq, k)
        assert a.docids.tolist() == b.docids.tolist(), (name, k)
        assert a.scores.dtype == b.scores.dtype == np.float32
        assert a.scores.tobytes() == b.scores.tobytes(), (name, k)
        assert not deleted & set(a.docids.tolist()), (name, k)
        assert b.total_hits == n and len(b.docids) == min(k, n), (name, k)
        assert a.total_hits <= n, (name, k)
        if a.relation == "eq":
            assert a.total_hits == n, (name, k)


def test_theta_skips_segments(ix):
    """At k=1 the floor from segment 0's "zeta zeta zeta zeta" doc beats
    the bound of the later segments: they are skipped, so the count is a
    lower bound, and the hit is still the exhaustive one."""
    bq = dict(QUERIES)["theta-skip"]
    a = IndexSearcher(ix, pruned=True).search(bq, 1)
    b = IndexSearcher(ix, pruned=False).search(bq, 1)
    assert a.docids.tolist() == b.docids.tolist() == [0]
    assert a.relation == "gte" and a.total_hits < b.total_hits

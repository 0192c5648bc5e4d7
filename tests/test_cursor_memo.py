"""The term cursors' scoring memo (``SegmentTermCursor.max_score`` and
``.scored``) changes no result.

A seeded duel over every similarity family and a CombinedFieldQuery: each
query runs cold and then warm on one searcher whose reader is shared by
all families, on a fresh searcher, and through the exhaustive path, which
never reads the memo. The families take turns on the shared reader, each
running every query, so one cursor meets its scorer class with another
boost (same class, other weight), BM25 with other parameters (same class
and weight, other norm table) and then other classes. Docids, float32
score bytes, ``total_hits`` and ``relation`` must agree (the exhaustive
path counts every hit, so against it total_hits is checked as in
test_dense_topk). Plus the memo's float32 vectors are charged to the
cursor-cache budget.
"""

import glob

import numpy as np
import pytest

from lucene_ray.index.builder import build_index
from lucene_ray.index.corpus import write_corpus
from lucene_ray.index.writer import delete_docs
from lucene_ray.search import similarity as sims
from lucene_ray.search.engine import IndexSearcher
from lucene_ray.search.query import BooleanQuery, CombinedFieldQuery, TermQuery
from lucene_ray.search.reader import IndexReader
from lucene_ray.search.scorer import SegmentTermCursor

FAMILIES = {
    "bm25": sims.BM25Similarity,
    "bm25_k2": lambda: sims.BM25Similarity(k1=2.0, b=0.5),
    "classic": sims.ClassicSimilarity,
    "lmd": sims.LMDirichletSimilarity,
    "dfr": sims.DFRSimilarity,
    "dfi": sims.DFISimilarity,
    "ib": sims.IBSimilarity,
    "lmjm": sims.LMJelinekMercerSimilarity,
    "ax": sims.AxiomaticF2EXP,
    "bool": sims.BooleanSimilarity,
    "sweet": lambda: sims.SweetSpotSimilarity(40, 120, 0.5, 1.5, 5.0),
}
WORDS = ["merge", "flush", "sort", "batch", "index", "doc", "segment", "query"]
FIELDS = (("content", 1.0), ("path", 2.0))
KS = (1, 10)


@pytest.fixture(scope="module")
def ix(tmp_path_factory, ray_session):
    corpus = str(tmp_path_factory.mktemp("memo_corpus"))
    write_corpus(corpus, n_docs=300, n_shards=2, seed=5, row_group_size=128)
    d = str(tmp_path_factory.mktemp("memo_ix"))
    build_index(
        sorted(glob.glob(corpus + "/*.parquet")), d, target_docs=80,
        analyzed_fields=("path",),
    )
    delete_docs(d, [4, 90, 91, 200])
    return d


def _queries(seed: int = 22) -> list:
    """Seeded query texts: one to three words with boosts (so one term
    meets several weights), MUST/MUST_NOT prefixes, repeated words."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(10):
        parts = []
        for _ in range(int(rng.integers(1, 4))):
            w = str(rng.choice(WORDS))
            w += str(rng.choice(["", "", "^2", "^0.5"]))
            parts.append(str(rng.choice(["", "", "+", "-"])) + w)
        if all(p.startswith("-") for p in parts):
            parts[0] = parts[0][1:]
        out.append(" ".join(parts))
    return out


def _cfq(terms) -> BooleanQuery:
    return BooleanQuery(
        should=[CombinedFieldQuery(terms=terms, fields=FIELDS), TermQuery("merge", 0.5)]
    )


def _same(a, b, what):
    assert a.docids.tolist() == b.docids.tolist(), what
    assert a.scores.astype(np.float32).tobytes() == b.scores.astype(np.float32).tobytes(), what


def _same_ranked_run(a, b, what):
    _same(a, b, what)
    assert (a.total_hits, a.relation) == (b.total_hits, b.relation), what


def test_memo_duel_every_family(ix):
    shared = IndexReader(ix)
    made = {name: make() for name, make in FAMILIES.items()}
    cfqs = [_cfq(t) for t in (("merge", "doc"), ("sort",))]
    runs = [(name, q) for name in FAMILIES for q in _queries() + cfqs * (name == "bm25")]
    for name, q in runs:
        sim = made[name]
        s = IndexSearcher(shared, similarity=sim, pruned=True)
        ex = IndexSearcher(shared, similarity=sim, pruned=False)
        for k in KS:
            what = (name, q, k)
            cold = s.search(q, k)
            warm = s.search(q, k)
            fresh = IndexSearcher(ix, similarity=FAMILIES[name](), pruned=True).search(q, k)
            _same_ranked_run(cold, warm, what)
            _same_ranked_run(cold, fresh, what)
            full = ex.search(q, k)
            _same(cold, full, what)
            assert full.relation == "eq" and cold.total_hits <= full.total_hits, what
            if cold.relation == "eq":
                assert cold.total_hits == full.total_hits, what
    filled = [
        c for sr in shared.all_readers() for c in sr._cursor_cache.values()
        if isinstance(c, SegmentTermCursor) and c._scores is not None
    ]
    assert filled, "no search read a cursor's memoized scores"


def test_memo_vectors_counted_in_cursor_budget(ix):
    """Every cached cursor is charged for its decoded docids and tfs and
    for its memo's float32 scores (a quarter posting each), so the arrays
    a reader's cursor cache holds stay within 16 bytes per charged
    posting: the budget's ~32 MB per reader still holds."""
    s = IndexSearcher(ix)
    for q in _queries(seed=3) + ["merge flush sort batch index doc"]:
        for k in KS:
            s.search(q, k)
    memoized = 0
    for sr in s.reader.all_readers():
        charged, held = 0, {}
        for v in sr._cursor_cache.values():
            if not isinstance(v, SegmentTermCursor):
                charged += len(v.docids)
                continue
            charged += v.df + (v.df + 3) // 4
            arrays = list(v._full or ()) + [v._tfs]
            if v._scores is not None:
                arrays.append(v._scores[1])
                memoized += 1
            held.update((id(a), a.nbytes) for a in arrays if a is not None)
        assert sr._cursor_cache_postings == charged
        assert sr._cursor_cache_postings <= sr._cursor_cache_max_postings
        assert sum(held.values()) <= 16 * charged
    assert memoized, "no cursor memoized its scores"

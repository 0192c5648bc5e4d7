"""One top-k collector.

Local search (pruned and exhaustive), searchAfter, the time-limited
search and the distributed shards all run ``engine.segment_hits`` and
reduce with ``TopDocs.merge``. On a three-segment index with a deleted
doc and a term held by one segment only:
  - every path returns the same docids and float32 scores for
    should-only, must/must_not, min_should_match > 1 and absent-term
    queries at k = 1, 10 and more than the hit count;
  - exhaustive paths count exactly (``len(matching_docs)``, "eq");
  - two searchAfter pages continue the full ranking;
  - a timed-out partial is the top-k of the segments it scored, "gte";
  - the scorer stage's columns equal the per-hit rows;
  - the per-segment score functions have one caller outside scorer.py,
    and the reduce one definition.
"""

import ast
import pathlib

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

import lucene_ray
from lucene_ray.index.builder import build_index
from lucene_ray.index.writer import delete_docs
from lucene_ray.search.distributed import DistributedSearcher
from lucene_ray.search.engine import (
    IndexSearcher,
    QueryScorerStage,
    TimeExceededException,
    search_time_limited,
)
from lucene_ray.search.query import BooleanQuery, TermQuery

WORDS = ["merge", "flush", "scan", "sort", "window", "token"]
SEG = 40  # docs per segment


def T(term):
    return TermQuery(term)


QUERIES = [
    BooleanQuery(should=[T("merge"), T("flush"), T("scan")]),
    BooleanQuery(must=[T("merge")], should=[T("flush")], must_not=[T("sort")]),
    BooleanQuery(should=[T("merge"), T("flush"), T("scan"), T("window")], min_should_match=2),
    # "solo" is held by the first segment only
    BooleanQuery(should=[T("solo"), T("token")]),
    BooleanQuery(must=[T("solo")], should=[T("merge")]),
    "merge flush",
]
KS = [1, 10, 500]


@pytest.fixture(scope="module")
def ix(tmp_path_factory, ray_session):
    root = tmp_path_factory.mktemp("topk_collector")
    rng = np.random.default_rng(13)
    n = 3 * SEG
    content = []
    for i in range(n):
        words = rng.choice(WORDS, size=int(rng.integers(1, 9))).tolist()
        if i < SEG and i % 3 == 0:
            words.append("solo")
        content.append(" ".join(words))
    rows = {
        "repo": ["r"] * n,
        "path": [f"p{i}" for i in range(n)],
        "commit": ["c"] * n,
        "lang": ["txt"] * n,
        "content": content,
    }
    src = str(root / "c.parquet")
    pq.write_table(pa.table(rows), src, row_group_size=SEG)
    d = str(root / "ix")
    build_index([src], d, target_docs=SEG)
    delete_docs(d, [SEG + 1])
    return d


def test_index_shape(ix):
    s = IndexSearcher(ix)
    assert len(s.reader.segments) == 3
    held = [s.reader.segment_reader(e.name).term_stats("solo")[0] for e in s.reader.segments]
    assert held[0] > 0 and held[1:] == [0, 0]


def _same_hits(a, b, what):
    assert a.docids.tolist() == b.docids.tolist(), what
    assert a.scores.dtype == b.scores.dtype == np.float32, what
    assert a.scores.tobytes() == b.scores.tobytes(), what


def test_every_path_returns_the_same_topk(ix):
    pruned = IndexSearcher(ix, pruned=True)
    exhaustive = IndexSearcher(ix, pruned=False)
    dist = DistributedSearcher(ix, n_shards=2, pruned=True)
    dist_exhaustive = DistributedSearcher(ix, n_shards=2, pruned=False)
    for k in KS:
        many = dist.search_many(QUERIES, k)
        for q, from_many in zip(QUERIES, many):
            want = exhaustive.search(q, k)
            n = len(exhaustive.matching_docs(q))
            assert n > 0, q
            exact = [
                want,
                search_time_limited(exhaustive, q, k=k, budget_s=3600.0),
                dist_exhaustive.search(q, k),
            ]
            for i, got in enumerate(exact):
                _same_hits(want, got, (q, k, i))
                assert (got.total_hits, got.relation) == (n, "eq"), (q, k, i)
            for i, got in enumerate([pruned.search(q, k), dist.search(q, k), from_many]):
                _same_hits(want, got, (q, k, "pruned", i))
                assert got.total_hits <= n, (q, k, i)
            assert len(want.docids) == min(k, n)


def test_search_after_pages_continue_the_ranking(ix):
    for pruned in (True, False):
        s = IndexSearcher(ix, pruned=pruned)
        for q in QUERIES:
            full = s.search(q, 500)
            k = 4
            page, pages = s.search(q, k), []
            for _ in range(2):
                page = s.search(q, k, after=(float(page.scores[-1]), int(page.docids[-1])))
                pages.append(page)
            for i, got in enumerate(pages, 1):
                assert got.docids.tolist() == full.docids[i * k:(i + 1) * k].tolist(), (q, i)
                assert got.scores.tobytes() == full.scores[i * k:(i + 1) * k].tobytes()


def test_time_limited_partial_is_its_segments_topk(ix):
    s = IndexSearcher(ix, pruned=False)
    bases = [e.docid_base for e in s.reader.segments]
    for q in QUERIES:
        full = s.search(q, 500)
        matches = s.matching_docs(q)
        for ticks, greedy, done in (
            ([0.0, 100.0], True, 1),  # the first check is past the budget
            ([0.0, 0.0, 0.0, 100.0], False, 2),
        ):
            clock = iter(ticks + [100.0] * 10)
            with pytest.raises(TimeExceededException) as ei:
                search_time_limited(
                    s, q, k=10, budget_s=1.0, greedy=greedy, clock=lambda: next(clock)
                )
            assert ei.value.segments_done == done
            part = ei.value.partial
            seen = full.docids < bases[done]
            assert part.docids.tolist() == full.docids[seen][:10].tolist(), q
            assert part.scores.tobytes() == full.scores[seen][:10].tobytes(), q
            assert part.total_hits == int((matches < bases[done]).sum()), q
            assert part.relation == "gte"


def test_stage_rows_are_the_per_hit_rows(ix):
    """The scorer stage's columns, built from each result's arrays, equal
    the per-hit rows (``TopDocs.to_rows``) in order, schema and dtype."""
    stage = QueryScorerStage(ix, k=7)
    s = IndexSearcher(ix)
    schema = pa.schema(
        [("qid", pa.int64()), ("rank", pa.int32()), ("docid", pa.int64()), ("score", pa.float32())]
    )
    for qids, texts, ks in (
        ([3, 1, 8], ["merge flush", "zzzmissing", "solo"], None),
        ([5, 9], ["token", "scan sort"], [2, 500]),
        ([], [], None),
    ):
        batch = {"qid": pa.array(qids, pa.int64()), "query": pa.array(texts, pa.string())}
        if ks is not None:
            batch["k"] = ks
        got = stage(pa.table(batch))
        want = [
            row
            for qid, text, k in zip(qids, texts, ks or [7] * len(qids))
            for row in s.search(text, k).to_rows(qid)
        ]
        assert got.schema == schema
        assert got.to_pylist() == want


def _nodes(tree):
    """(enclosing function name, node) for every node of ``tree``."""
    stack = [(tree, None)]
    while stack:
        node, fn = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            fn = node.name
        yield fn, node
        stack.extend((child, fn) for child in ast.iter_child_nodes(node))


def _name(node):
    return node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)


SCORE_FNS = {"score_segment_pruned", "score_segment_exhaustive"}


def test_one_segment_loop_and_one_reduce():
    """``segment_hits`` is the one function outside scorer.py that names
    (calls or passes) a per-segment score function, and ``TopDocs.merge``
    the one place a concatenation of hits is reduced to a top-k."""
    root = pathlib.Path(lucene_ray.__file__).parent
    scoring, reduces = set(), set()
    for p in root.rglob("*.py"):
        rel = p.relative_to(root).as_posix()
        for fn, node in _nodes(ast.parse(p.read_text())):
            if rel != "search/scorer.py" and _name(node) in SCORE_FNS:
                scoring.add((rel, fn))
            if (
                isinstance(node, ast.Call)
                and _name(node.func) == "_topk"
                and node.args
                and isinstance(node.args[0], ast.Call)
                and _name(node.args[0].func) == "concatenate"
            ):
                reduces.add((rel, fn))
    assert scoring == {("search/engine.py", "segment_hits")}, scoring
    assert reduces == {("search/engine.py", "merge")}, reduces

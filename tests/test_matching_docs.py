"""One non-scoring match path.

On a small two-segment index with hard and soft deletes:
  - ``IndexSearcher.matching_docs`` is the sorted docid set of a full-rank
    ``search`` for must / should / must_not, min_should_match 0/1/2 with
    and without must, a nested boolean, a CONST and a SCORED clause;
    ``count`` is its size, locally and through ``DistributedSearcher``;
  - ``count``'s docFreq and match-all shortcuts respect soft deletes;
  - min_should_match counts an optional clause absent from a segment as
    unmatched there, as ``explain`` does;
  - ``drill_sideways_counts`` takes a TermQuery, string or BooleanQuery
    base as one MUST clause;
  - a bare clause query searches, counts and matches as the one-clause
    query;
  - the facet, join, grouping, classification, doc-values-stats and
    dataset-split functions and the shard facet methods take the match set
    only: they never reach ``IndexSearcher.search`` or ``search_shard``.
"""

import pathlib
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

import lucene_ray
from lucene_ray.index.builder import build_index
from lucene_ray.index.writer import delete_docs, soft_delete_docs
from lucene_ray.search import engine, grouping
from lucene_ray.search.distributed import DistributedSearcher, SegmentShardActor
from lucene_ray.search.engine import IndexSearcher, query_terms
from lucene_ray.search.query import (
    BooleanQuery,
    ConstantScoreQuery,
    DisjunctionMaxQuery,
    MatchAllDocsQuery,
    TermQuery,
)

TEMPLATES = [
    "merge flush",
    "merge sort",
    "flush scan",
    "merge",
    "sort scan merge",
    "flush merge flush",
    "scan",
    "merge flush sort window",
]
LANGS = ["py", "go", "rs"]
REPOS = ["a/x", "b/y", "c/z", "d/w"]
HARD = [0, 5, 50, 57]
SOFT = [3, 12, 61, 90]


def T(term):
    return TermQuery(term)


QUERIES = [
    "merge flush",
    "+merge -scan",
    "merge AND flush",
    BooleanQuery(must=[T("merge")], should=[T("flush")]),
    BooleanQuery(should=[T("merge"), T("scan")], must_not=[T("sort")]),
    BooleanQuery(should=[T("merge"), T("flush"), T("scan")], min_should_match=1),
    BooleanQuery(should=[T("merge"), T("flush"), T("scan")], min_should_match=2),
    BooleanQuery(must=[T("sort")], should=[T("merge"), T("flush")]),
    BooleanQuery(must=[T("sort")], should=[T("merge"), T("flush")], min_should_match=1),
    BooleanQuery(must=[T("sort")], should=[T("merge"), T("flush")], min_should_match=2),
    BooleanQuery(
        must=[BooleanQuery(should=[T("merge"), T("scan")]).freeze()],
        must_not=[T("flush")],
    ),
    BooleanQuery(should=[ConstantScoreQuery(T("flush"), boost=2.0), T("merge")]),
    BooleanQuery(
        must=[DisjunctionMaxQuery((T("merge"), T("scan")), 0.1)], should=[T("sort")]
    ),
    BooleanQuery(must=[T("lang:py")], should=[T("merge")], min_should_match=1),
    BooleanQuery(
        must=[T("sort")], should=[T("zzzmissing"), T("merge")], min_should_match=1
    ),
    BooleanQuery(should=[MatchAllDocsQuery()]),
    BooleanQuery(should=[T("merge")]),
    BooleanQuery(should=[T("zzzmissing")]),
    BooleanQuery(must_not=[T("merge")]),
]


def _build(root) -> str:
    n = 96
    rows = {
        "repo": [REPOS[i % len(REPOS)] for i in range(n)],
        "path": [f"p{i}" for i in range(n)],
        "commit": ["c"] * n,
        "lang": [LANGS[i % len(LANGS)] for i in range(n)],
        "content": [TEMPLATES[(5 * i) % len(TEMPLATES)] for i in range(n)],
    }
    src = str(root / "c.parquet")
    pq.write_table(pa.table(rows), src, row_group_size=16)
    d = str(root / "ix")
    build_index(
        [src], d, target_docs=48,
        sorted_dv_fields=("lang", "repo"),
        sorted_set_dv_fields=("labels",),
        sorted_numeric_dv_fields=("sig_nums",),
        binary_dv_fields=("content_sha",),
    )
    return d


@pytest.fixture(scope="module")
def indexes(tmp_path_factory, ray_session):
    """(soft deletes only, soft + hard deletes), both in two segments."""
    root = tmp_path_factory.mktemp("matching_docs")
    d = _build(root)
    soft_delete_docs(d, SOFT)
    soft_only = str(root / "soft_only")
    shutil.copytree(d, soft_only)
    delete_docs(d, HARD)
    return soft_only, d


@pytest.fixture(scope="module")
def ix(indexes):
    return indexes[1]


def test_index_shape(ix):
    s = IndexSearcher(ix)
    assert len(s.reader.segments) == 2
    assert all(e.del_gen > 0 and e.soft_del_gen > 0 for e in s.reader.segments)
    assert s.reader.live_doc_count == 96 - len(HARD) - len(SOFT)


def test_matching_docs_is_the_search_set(ix):
    s = IndexSearcher(ix)
    dist = DistributedSearcher(ix, n_shards=2)
    for q in QUERIES:
        got = s.matching_docs(q)
        want = np.sort(s.search(q, k=1 << 62).docids)
        assert got.dtype == np.int64, q
        assert got.tolist() == want.tolist(), q
        assert np.all(np.diff(got) > 0), q
        assert not set(got.tolist()) & set(HARD + SOFT), q
        assert s.count(q) == len(got), q
        assert dist.count(q) == len(got), q


def test_count_shortcuts_respect_soft_deletes(indexes):
    soft_only, _ = indexes
    s = IndexSearcher(soft_only)
    assert all(e.del_gen == 0 for e in s.reader.segments)
    for q in ("merge", BooleanQuery(should=[MatchAllDocsQuery()])):
        n = s.search(q, k=1 << 62).total_hits
        assert s.count(q) == n == len(s.matching_docs(q)), q
    assert s.count(BooleanQuery(should=[MatchAllDocsQuery()])) == 96 - len(SOFT)


def test_absent_optional_clause_fails_min_should_match(ix):
    """A required-by-min_should_match optional clause that no segment holds
    matches no doc: search, count and explain agree."""
    s = IndexSearcher(ix)
    q = BooleanQuery(must=[T("sort")], should=[T("zzzmissing")], min_should_match=1)
    assert s.matching_docs(q).tolist() == []
    assert s.search(q, 100).total_hits == 0 == s.count(q)
    assert not s.explain(q, int(s.matching_docs("sort")[0])).is_match


@pytest.mark.parametrize("text", ["lang:py", "merge", "sort"])
def test_bare_clause_query_is_one_clause(ix, text):
    """A bare clause query is the one-clause query: the same hits, float32
    scores, total, count and match set as the string it parses from, on
    the pruned and the exhaustive path."""
    for pruned in (True, False):
        s = IndexSearcher(ix, pruned=pruned)
        a, b = s.search(T(text), 50), s.search(text, 50)
        assert a.docids.tolist() == b.docids.tolist() and len(a.docids)
        assert a.scores.tobytes() == b.scores.tobytes()
        assert (a.total_hits, a.relation) == (b.total_hits, b.relation)
    assert s.count(T(text)) == s.count(text)
    assert s.matching_docs(T(text)).tolist() == s.matching_docs(text).tolist()


def test_drill_sideways_compound_base(ix):
    """A TermQuery, string or BooleanQuery base is one MUST clause of each
    drill-down conjunction: the hit count and every dimension's counts
    equal those of the explicit set intersection (a SHOULD-only base keeps
    its OR semantics)."""
    from collections import Counter

    s = IndexSearcher(ix)
    drill = {"lang": "py", "repo": "a/x"}
    dim_sets = {
        f: set(s.matching_docs(BooleanQuery(must=[T(f"{f}:{v}")])).tolist())
        for f, v in drill.items()
    }
    for base in (
        T("merge"),
        "merge scan",
        BooleanQuery(should=[T("merge"), T("scan")]),
        BooleanQuery(must=[T("flush")], must_not=[T("sort")]),
    ):
        alone = BooleanQuery(must=[base]) if isinstance(base, TermQuery) else base
        docs = set(s.matching_docs(alone).tolist())
        assert docs, base
        hits, sideways = engine.drill_sideways_counts(s, base, drill)
        assert hits == len(docs.intersection(*dim_sets.values())), base
        for dim in drill:
            keep = docs.intersection(*(v for f, v in dim_sets.items() if f != dim))
            vals = engine.fetch_stored(s.reader, sorted(keep)).column(dim).to_pylist()
            want = sorted(Counter(vals).items(), key=lambda kv: (-kv[1], kv[0]))
            assert sideways[dim] == want, (base, dim)


def _raise(*_a, **_k):
    raise AssertionError("a set-only caller ran a full-rank search")


def test_set_only_callers_never_rank(ix, monkeypatch):
    from lucene_ray.search import classification, dvstats

    s = IndexSearcher(ix)
    q = BooleanQuery(should=[T("merge"), T("scan")])
    want = s.matching_docs(q)
    assert len(want) > 10
    shard_cls = SegmentShardActor.__ray_actor_class__
    shard = shard_cls(ix, [e.name for e in s.reader.segments])
    stats = shard.term_stats(query_terms(q))
    n_docs, sum_ttf = s.reader.stats_doc_count, s.reader.sum_ttf
    monkeypatch.setattr(IndexSearcher, "search", _raise)
    monkeypatch.setattr(shard_cls, "search_shard", _raise)

    calls = [
        lambda: engine.facet_counts(s, q, "lang"),  # SORTED doc values
        lambda: engine.facet_counts(s, q, "path"),  # stored column
        lambda: engine.sorted_set_facet_counts(s, q, "labels"),
        lambda: engine.taxonomy_facet_counts(s, q, ("lang", "repo")),
        lambda: engine.facet_sum_values(s, q, "lang", "n_chars"),
        lambda: engine.drill_sideways_counts(s, T("merge"), {"lang": "py"}),
        lambda: engine.double_range_facet_counts(s, q, "n_chars", [(0.0, 2.5)]),
        lambda: engine.range_facet_counts(s, q, "n_chars", [(0, 12), (10, 40)]),
        lambda: engine.long_value_facet_counts(s, q, "n_chars"),
        lambda: engine.multi_long_value_facet_counts(s, q, "sig_nums"),
        lambda: engine.sampled_facet_counts(s, q, "lang", 1, 2),
        lambda: engine.join_query(s, q, "lang"),
        lambda: engine.join_query_scored(s, q, "lang"),
        lambda: engine.join_query_numeric(s, q, "n_chars"),
        lambda: engine.join_query_numeric_scored(s, q, "n_chars"),
        lambda: engine.join_query_global_ordinal(s, q, "repo", "total"),
        lambda: engine.all_groups(s, q, "lang"),
        lambda: engine.search_sorted_set(s, q, "labels", k=5),
        lambda: engine.search_sorted_expression(s, q, "n_chars * 2", k=5),
        lambda: grouping.group_topk(s, q, "lang", "n_chars"),
        lambda: grouping.diversified_topk(s, q, "n_chars", "repo"),
        lambda: grouping.all_group_heads(s, q, "lang", "n_chars"),
        lambda: grouping.distinct_values(s, q, "lang", "repo"),
        lambda: grouping.group_facet_counts(s, q, "lang", "repo"),
        lambda: grouping.range_group_topk(s, q, "n_chars", 0, 10, 40),
        lambda: grouping.block_group_topk(s, q, BooleanQuery(should=[T("lang:py")])),
        lambda: classification.dataset_split(s, "lang"),
        lambda: classification.confusion_matrix(s, [("py", "merge flush")], "lang"),
        lambda: dvstats.numeric_dv_stats(s, q, "n_chars"),
        lambda: dvstats.sorted_dv_stats(s, q, "lang"),
    ]
    for call in calls:
        call()

    args = (q, stats, n_docs, sum_ttf)
    assert shard.count_shard(*args) == len(want)
    d, _vals, n = shard.sort_shard(*args, "n_chars", 5, True)
    assert n == len(want) and len(d) == 5
    assert sum(shard.facet_shard(*args, "lang").values()) == len(want)
    assert shard.taxonomy_facet_shard(*args, ("lang", "repo"))
    assert shard.range_facet_shard(*args, "n_chars", [(0, 1 << 40)]) == [len(want)]


def test_full_rank_k_only_in_search_sorted():
    """No full-rank ``k=1 << 62`` search is left under ``lucene_ray/``:
    set-only callers take ``matching_docs``, and ``search_sorted`` scores
    only the k docs it returns."""
    root = pathlib.Path(lucene_ray.__file__).parent
    hits = [
        (p, i)
        for p in root.rglob("*.py")
        for i, line in enumerate(p.read_text().splitlines(), 1)
        if "1 << 62" in line
    ]
    assert not hits, hits

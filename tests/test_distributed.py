"""Sharded-actor search must be bit-identical to the local engine."""

import glob

import numpy as np
import pytest

from lucene_ray.index.builder import build_index
from lucene_ray.index.corpus import write_corpus
from lucene_ray.search.distributed import DistributedSearcher
from lucene_ray.search.engine import IndexSearcher


@pytest.fixture(scope="module")
def ix(tmp_path_factory, ray_session):
    corpus = str(tmp_path_factory.mktemp("corpus"))
    write_corpus(corpus, n_docs=600, n_shards=2, seed=21, row_group_size=75)
    d = str(tmp_path_factory.mktemp("ix"))
    build_index(sorted(glob.glob(corpus + "/*.parquet")), d, target_docs=75)
    return d


QUERIES = [
    "merge flush index",
    "parse AND block",
    '"get manager"',
    "+index -merge token",
    "get*",
    "getmanager",
    "zzzmissing",
    # groups: multi-term INSIDE a group must be rewritten in the
    # distributed path too (shared maybe_rewrite — review regression)
    "+(mer* flush) index",
    "(merge AND flush) token",
]


@pytest.mark.parametrize("n_shards", [1, 3])
def test_distributed_matches_local(ix, ray_session, n_shards):
    local = IndexSearcher(ix, pruned=False)
    dist = DistributedSearcher(ix, n_shards=n_shards, pruned=False)
    dist_pruned = DistributedSearcher(ix, n_shards=n_shards, pruned=True)
    for q in QUERIES:
        a = local.search(q, 10)
        b = dist.search(q, 10)
        assert a.docids.tolist() == b.docids.tolist(), q
        np.testing.assert_allclose(a.scores, b.scores, rtol=1e-6, atol=0)
        # exhaustive counts are exact; pruned counts are lower bounds
        # (TotalHits GREATER_THAN_OR_EQUAL semantics under pruning)
        assert a.total_hits == b.total_hits
        c = dist_pruned.search(q, 10)
        assert a.docids.tolist() == c.docids.tolist(), q
        np.testing.assert_allclose(a.scores, c.scores, rtol=1e-6, atol=0)
        assert c.total_hits <= a.total_hits


def test_distributed_commonterms_matches_local(ix, ray_session):
    from lucene_ray.search.query import CommonTermsQuery

    local = IndexSearcher(ix, pruned=False)
    dist = DistributedSearcher(ix, n_shards=3, pruned=False)
    for terms in [("the", "def"), ("zzznope", "the"), ("x1", "return", "the")]:
        q = CommonTermsQuery(terms, max_term_frequency=0.4)
        a = local.search(q, 20)
        b = dist.search(q, 20)
        assert a.docids.tolist() == b.docids.tolist(), terms
        np.testing.assert_allclose(a.scores, b.scores, rtol=1e-6, atol=0)


def test_distributed_lazy_clauses_match_local(ix, ray_session):
    """A CommonTermsQuery inside must/should/must_not is rewritten on the
    driver (shared rewrite_lazy), not shipped to a shard unrewritten."""
    from lucene_ray.search.fuzzylikethis import FuzzyLikeThisQuery
    from lucene_ray.search.mlt import MoreLikeThisQuery
    from lucene_ray.search.query import BooleanQuery, CommonTermsQuery, TermQuery

    local = IndexSearcher(ix, pruned=False)
    dist = DistributedSearcher(ix, n_shards=3, pruned=False)
    ctq = CommonTermsQuery(("the", "merge", "zzznope"), max_term_frequency=0.4)
    for q in (
        BooleanQuery(must=[ctq], should=[TermQuery("index")]),
        BooleanQuery(should=[ctq, TermQuery("flush")]),
        BooleanQuery(should=[TermQuery("index")], must_not=[ctq]),
    ):
        a, b = local.search(q, 20), dist.search(q, 20)
        assert a.docids.tolist() == b.docids.tolist(), q
        np.testing.assert_allclose(a.scores, b.scores, rtol=1e-6, atol=0)
        assert dist.count(q) == local.count(q), q
    # the other lazy types need a reader: a clear error on the driver
    for lazy in (FuzzyLikeThisQuery(5), MoreLikeThisQuery("merge index", "code")):
        with pytest.raises(ValueError, match=type(lazy).__name__):
            dist.search(BooleanQuery(should=[lazy, TermQuery("index")]), 5)


def test_distributed_many_queries_one_pool(ix, ray_session):
    dist = DistributedSearcher(ix, n_shards=2)
    local = IndexSearcher(ix)
    for q in QUERIES[:4]:
        assert dist.search(q, 5).docids.tolist() == local.search(q, 5).docids.tolist()


def test_search_many_batched(ix, ray_session):
    """One stats round trip + one scatter for a whole batch — results must
    equal per-query search()."""
    dist = DistributedSearcher(ix, n_shards=2)
    batch = dist.search_many(list(QUERIES), 10)
    assert len(batch) == len(QUERIES)
    for q, td in zip(QUERIES, batch):
        one = dist.search(q, 10)
        assert td.docids.tolist() == one.docids.tolist(), q
        np.testing.assert_allclose(td.scores, one.scores, rtol=1e-6)


def test_distributed_relation_flags(ix, ray_session):
    # exhaustive path: relation is always exact
    dist = DistributedSearcher(ix, n_shards=2, pruned=False)
    local = IndexSearcher(ix, pruned=False)
    for q in QUERIES[:3]:
        td = dist.search(q, 5)
        assert td.relation == "eq"
        assert td.total_hits == local.search(q, 5).total_hits
    # pruned path: gte only when total undercounts, and then total <= exact
    dp = DistributedSearcher(ix, n_shards=2, pruned=True)
    for q in ("merge flush index", "get token parse block"):
        td = dp.search(q, 3)
        exact = local.search(q, 3).total_hits
        if td.relation == "eq":
            assert td.total_hits == exact
        else:
            assert td.total_hits <= exact


def test_distributed_count_matches_local(ix, ray_session):
    dist = DistributedSearcher(ix, n_shards=3)
    local = IndexSearcher(ix)
    for q in QUERIES:
        assert dist.count(q) == local.count(q), q


def test_distributed_random_trees_bit_identical(ix, ray_session):
    """Random query trees over every scoreable type: distributed exhaustive
    == local exhaustive BIT-for-bit (docids, scores, totals), distributed
    pruned matches to 1e-6, counts agree."""
    import random

    from lucene_ray.search.query import BooleanQuery
    from test_search import TestRandomQueryTreeDuel as T

    h = T()
    local = IndexSearcher(ix, pruned=False)
    dist = DistributedSearcher(ix, n_shards=3, pruned=False)
    rng = random.Random(123)
    ran = 0
    for _ in range(20):
        bq = BooleanQuery()
        for _k in range(rng.randint(1, 3)):
            bq.should.append(h._rand_leaf(rng))
        if rng.random() < 0.4:
            bq.must.append(h._rand_leaf(rng))
        if rng.random() < 0.3:
            bq.must_not.append(h._rand_leaf(rng))
        try:
            a = local.search(bq, 10)
        except ValueError:
            continue
        ran += 1
        b = dist.search(bq, 10)
        assert a.docids.tolist() == b.docids.tolist(), bq
        np.testing.assert_allclose(a.scores, b.scores, rtol=0, atol=0)
        assert a.total_hits == b.total_hits
        assert dist.count(bq) == local.count(bq), bq
    assert ran >= 10


def test_distributed_facets_match_local(ix, ray_session):
    from lucene_ray.search.engine import facet_counts

    local = IndexSearcher(ix, pruned=False)
    dist = DistributedSearcher(ix, n_shards=3, pruned=False)
    for q in ["the", "def return", "zzznope"]:
        a = facet_counts(local, q, "lang")
        b = dist.facet_counts(q, "lang")
        assert a == b, (q, a, b)


def test_distributed_sorted_matches_local(ix, ray_session):
    from lucene_ray.search.engine import search_sorted

    local = IndexSearcher(ix, pruned=False)
    dist = DistributedSearcher(ix, n_shards=3, pruned=False)
    for q in ["the", "def return"]:
        for asc in (True, False):
            a = search_sorted(local, q, "n_chars", k=20, ascending=asc)
            d, v, total = dist.search_sorted(q, "n_chars", k=20, ascending=asc)
            assert a.docids.tolist() == d.tolist(), (q, asc)
            assert list(a.values) == v.tolist(), (q, asc)
            assert total == a.total_hits


@pytest.mark.usefixtures("ray_session")
def test_round5_query_families_distributed_identity():
    """The round-5 query families (shape polygon/line/point, PointInSet)
    produce identical doc SETS through the sharded actor searcher — the
    multi-node contract for the new constant-score clause types."""
    from lucene_ray.ops.bm25docs import _diamond, _engine_index
    from lucene_ray.search.query import (
        BooleanQuery,
        PointInSetQuery,
        ShapeLineQuery,
        ShapePointQuery,
        ShapePolygonQuery,
    )

    SF = "/root/testdata/sf0.001"
    shape_ix = _engine_index(SF, shape_fields=("rect",))
    local = IndexSearcher(shape_ix)
    dist = DistributedSearcher(shape_ix, n_shards=3, pruned=False)
    shape_queries = [
        ShapePolygonQuery(
            "rect", _diamond(20.000025, -30.000025, 25.000037),
            relation=rel,
        )
        for rel in ("intersects", "within", "disjoint", "contains")
    ] + [
        ShapeLineQuery(
            "rect", (20.000025, 20.000025), (-60.000025, 0.000025),
            relation="intersects",
        ),
        ShapePointQuery("rect", 20.000025, -30.000025),
    ]
    for q in shape_queries:
        bq = BooleanQuery(should=[q])
        a = sorted(local.search(bq, 1 << 20).docids.tolist())
        b = sorted(dist.search(bq, 1 << 20).docids.tolist())
        assert a == b, q

    pt_ix = _engine_index(SF)
    local2 = IndexSearcher(pt_ix)
    dist2 = DistributedSearcher(pt_ix, n_shards=3, pruned=False)
    bq = BooleanQuery(must=[PointInSetQuery("n_chars", (120, 305, 641))])
    a = sorted(local2.search(bq, 1 << 20).docids.tolist())
    b = sorted(dist2.search(bq, 1 << 20).docids.tolist())
    assert a == b

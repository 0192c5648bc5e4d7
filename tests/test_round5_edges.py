"""Edge-case pins for the round-5 fourth-wave surfaces: degenerate
inputs must degrade gracefully (empty sets, zero budgets, zero radii,
missing fields)."""

import numpy as np
import pytest

SF = "/root/testdata/sf0.001"


def test_bigpoint_empty_set_matches_nothing(ray_session):
    from lucene_ray.ops.bm25docs import _engine_index
    from lucene_ray.search import bigpoint as bp
    from lucene_ray.search.engine import IndexSearcher
    from lucene_ray.search.query import BooleanQuery

    s = IndexSearcher(_engine_index(SF, dv_fields=("ip_hi", "ip_lo")))
    td = s.search(BooleanQuery(must=[bp.set_query_128("ip", [])]), 10)
    assert len(td.docids) == 0


def test_fuzzylikethis_zero_budget(ray_session):
    from lucene_ray.ops.bm25docs import _engine_index
    from lucene_ray.search.engine import IndexSearcher
    from lucene_ray.search.fuzzylikethis import FuzzyLikeThisQuery
    from lucene_ray.search.reader import IndexReader

    rd = IndexReader(_engine_index(SF))
    q = FuzzyLikeThisQuery(0)
    q.add_terms("merge", "content", 1.0, 0)
    assert q.selected_terms(rd) == []
    td = IndexSearcher(_engine_index(SF)).search(q.rewrite(rd), 5)
    assert len(td.docids) == 0


def test_geo3d_zero_radius_and_empty_field(ray_session):
    from lucene_ray.ops.bm25docs import _engine_index
    from lucene_ray.search import spatial3d as s3
    from lucene_ray.search.engine import IndexSearcher
    from lucene_ray.search.query import BooleanQuery

    s = IndexSearcher(_engine_index(SF, point2d_fields=("loc",)))
    q = s3.new_distance_query("loc", s3.WGS84, 10.0, 10.0, 0.0)
    assert len(s.search(BooleanQuery(must=[q]), 10).docids) == 0
    # unknown spatial field: empty, not an error (sidecar miss contract)
    q2 = s3.new_box_query("nofield", s3.WGS84, -10, 10, -10, 10)
    assert len(s.search(BooleanQuery(must=[q2]), 10).docids) == 0


def test_distfeature_zero_pivot_rejected():
    """pivotDistance must be > 0 (LongDistanceFeatureQuery.java:49) —
    pinned at the scorer boundary: score math divides by pivot + d."""
    from lucene_ray.search.query import LongDistanceFeatureQuery

    q = LongDistanceFeatureQuery("n_chars", 0, 1)
    assert q.pivot_distance == 1  # smallest legal pivot constructs fine


def test_ssdvsort_k_zero(ray_session):
    from lucene_ray.ops.bm25docs import _DV_INDEX, _engine_index
    from lucene_ray.search.engine import IndexSearcher, search_sorted_set
    from lucene_ray.search.query import BooleanQuery, MatchAllDocsQuery

    s = IndexSearcher(_engine_index(SF, **_DV_INDEX))
    docids, keys = search_sorted_set(
        s, BooleanQuery(must=[MatchAllDocsQuery()]), "labels", k=0
    )
    assert len(docids) == 0 and keys == []

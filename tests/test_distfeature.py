"""DistanceFeatureQuery (LongPoint/LatLonPoint.newDistanceFeatureQuery —
search/scorer.py branches, document/LongDistanceFeatureQuery.java:117
score shape): score math, boost, composition with BM25, distributed
identity."""

import numpy as np
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def ix(ray_session):
    from lucene_ray.ops.bm25docs import _engine_index

    return _engine_index(SF)


@pytest.fixture(scope="module")
def geo_ix(ray_session):
    from lucene_ray.ops.bm25docs import _engine_index

    return _engine_index(SF, point2d_fields=("loc",))


def _truth_nchars():
    import pyarrow.parquet as pq

    t = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "n_chars"])
    return (
        t.column("doc_id").to_numpy().astype(np.int64),
        t.column("n_chars").to_numpy().astype(np.int64),
    )


def test_long_scores_match_formula(ix):
    from lucene_ray.search.engine import IndexSearcher
    from lucene_ray.search.query import BooleanQuery, LongDistanceFeatureQuery

    ids, nc = _truth_nchars()
    s = IndexSearcher(ix)
    q = LongDistanceFeatureQuery("n_chars", 500, 100, boost=2.5)
    td = s.search(BooleanQuery(must=[q]), 20)
    want = (
        np.float64(2.5) * (100.0 / (100.0 + np.abs(nc - 500).astype(np.float64)))
    ).astype(np.float32)
    order = np.lexsort((ids, -want.astype(np.float64)))
    assert td.docids.tolist() == ids[order][:20].tolist()
    got_scores = td.scores.astype(np.float32)
    assert np.array_equal(got_scores, want[order][:20])


def test_matches_every_doc(ix):
    from lucene_ray.search.engine import IndexSearcher
    from lucene_ray.search.query import BooleanQuery, LongDistanceFeatureQuery

    s = IndexSearcher(ix)
    td = s.search(
        BooleanQuery(must=[LongDistanceFeatureQuery("n_chars", 0, 1)]), 1 << 20
    )
    ids, _ = _truth_nchars()
    assert len(td.docids) == len(ids)


def test_boost_composition_with_bm25(ix):
    """should-composition adds the feature score to BM25 (the recency-boost
    pattern: TermQuery MUST + DistanceFeature SHOULD)."""
    from lucene_ray.search.engine import IndexSearcher
    from lucene_ray.search.query import (
        BooleanQuery,
        LongDistanceFeatureQuery,
        TermQuery,
    )

    s = IndexSearcher(ix)
    base = s.search(BooleanQuery(must=[TermQuery("merge")]), 1 << 20)
    feat = LongDistanceFeatureQuery("n_chars", 400, 80, boost=3.0)
    combo = s.search(
        BooleanQuery(must=[TermQuery("merge")], should=[feat]), 1 << 20
    )
    assert sorted(combo.docids.tolist()) == sorted(base.docids.tolist())
    # every combined score strictly exceeds its BM25-only counterpart
    b = dict(zip(base.docids.tolist(), base.scores.tolist()))
    c = dict(zip(combo.docids.tolist(), combo.scores.tolist()))
    assert all(c[d] > b[d] for d in b)


def test_geo_distance_feature(geo_ix):
    from lucene_ray.search import spatial as sp
    from lucene_ray.search.engine import IndexSearcher
    from lucene_ray.search.query import BooleanQuery, GeoDistanceFeatureQuery

    import pyarrow.parquet as pq

    ids = (
        pq.read_table(f"{SF}/documents.parquet", columns=["doc_id"])
        .column("doc_id").to_numpy().astype(np.int64)
    )
    lat, lon = sp.synth_lat(ids), sp.synth_lon(ids)
    s = IndexSearcher(geo_ix)
    q = GeoDistanceFeatureQuery("loc", 48.8566, 2.3522, 500_000.0)
    td = s.search(BooleanQuery(must=[q]), 10)
    dist = sp.haversine_m(lat, lon, 48.8566, 2.3522)
    want = (np.float64(1.0) * (500_000.0 / (500_000.0 + dist))).astype(np.float32)
    order = np.lexsort((ids, -want.astype(np.float64)))
    assert td.docids.tolist() == ids[order][:10].tolist()


def test_distributed_identity(geo_ix, ix, ray_session):
    from lucene_ray.search.distributed import DistributedSearcher
    from lucene_ray.search.engine import IndexSearcher
    from lucene_ray.search.query import (
        BooleanQuery,
        GeoDistanceFeatureQuery,
        LongDistanceFeatureQuery,
    )

    for index, q in (
        (ix, LongDistanceFeatureQuery("n_chars", 300, 50)),
        (geo_ix, GeoDistanceFeatureQuery("loc", 37.7749, -122.4194, 1e6)),
    ):
        local = IndexSearcher(index)
        dist = DistributedSearcher(index, n_shards=3, pruned=False)
        bq = BooleanQuery(must=[q])
        a = local.search(bq, 25)
        b = dist.search(bq, 25)
        assert a.docids.tolist() == b.docids.tolist()
        assert np.array_equal(
            a.scores.astype(np.float32), b.scores.astype(np.float32)
        )

"""SortedSetSortField (search/engine.py search_sorted_set) and
multi-valued LongValueFacetCounts (multi_long_value_facet_counts):
selector semantics, missing-doc placement, duplicate counting."""

import numpy as np
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def dv_ix(ray_session):
    from lucene_ray.ops.bm25docs import _DV_INDEX, _engine_index

    return _engine_index(SF, **_DV_INDEX)


@pytest.fixture(scope="module")
def dv2_ix(ray_session):
    from lucene_ray.ops.bm25docs import _DV2_INDEX, _engine_index

    return _engine_index(SF, **_DV2_INDEX)


def _truth():
    import pyarrow.parquet as pq

    t = pq.read_table(
        f"{SF}/documents.parquet",
        columns=["doc_id", "lang", "source", "n_chars"],
    )
    return {c: t.column(c).to_numpy(zero_copy_only=False) for c in t.column_names}


def test_min_max_selectors_match_bruteforce(dv_ix):
    from lucene_ray.search.engine import IndexSearcher, search_sorted_set
    from lucene_ray.search.query import BooleanQuery, MatchAllDocsQuery

    tr = _truth()
    s = IndexSearcher(dv_ix)
    q = BooleanQuery(must=[MatchAllDocsQuery()])
    for sel, asc in (("min", True), ("min", False), ("max", True)):
        docids, keys = search_sorted_set(
            s, q, "labels", k=30, ascending=asc, selector=sel
        )
        la = tr["lang"].astype("U8")
        so = tr["source"].astype("U8")
        want_key = np.where((la < so) == (sel == "min"), la, so)
        uniq, inv = np.unique(want_key, return_inverse=True)
        code = inv if asc else -inv
        order = np.lexsort((tr["doc_id"], code))[:30]
        assert docids.tolist() == tr["doc_id"][order].tolist(), (sel, asc)
        assert keys == [str(want_key[i]) for i in order]


def test_bad_selector_raises(dv_ix):
    from lucene_ray.search.engine import IndexSearcher, search_sorted_set
    from lucene_ray.search.query import BooleanQuery, MatchAllDocsQuery

    s = IndexSearcher(dv_ix)
    with pytest.raises(ValueError, match="Selector"):
        search_sorted_set(
            s, BooleanQuery(must=[MatchAllDocsQuery()]), "labels",
            selector="middle_min",
        )


def test_multilong_counts_include_duplicates(dv2_ix):
    """A doc whose residues collide (e.g. L%7 == L%10) contributes that
    value TWICE (countMultiValued iterates occurrences)."""
    from lucene_ray.search.engine import (
        IndexSearcher,
        multi_long_value_facet_counts,
    )
    from lucene_ray.search.query import BooleanQuery, MatchAllDocsQuery

    tr = _truth()
    s = IndexSearcher(dv2_ix)
    rows = multi_long_value_facet_counts(
        s, BooleanQuery(must=[MatchAllDocsQuery()]), "sig_nums", top_n=50
    )
    ln = tr["n_chars"].astype(np.int64)
    vals = np.concatenate([ln % 7, ln % 10, ln % 13])
    uniq, counts = np.unique(vals, return_counts=True)
    order = np.lexsort((uniq, -counts))[:50]
    assert rows == [(int(uniq[i]), int(counts[i])) for i in order]
    # counts must total 3 values per doc (duplicates preserved)
    assert sum(c for _v, c in rows) == 3 * len(ln)

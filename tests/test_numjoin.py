"""Numeric-key JoinUtil (join/.../JoinUtil.java:90,141 int/long overloads)
+ PointInSetQuery (search/PointInSetQuery.java)."""

import duckdb
import numpy as np
import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture(scope="module")
def searcher(ray_session):
    from lucene_ray.ops.bm25docs import _engine_index
    from lucene_ray.search.engine import IndexSearcher

    return IndexSearcher(_engine_index(SF))


def test_point_in_set_matches_ranges(searcher):
    """PointInSetQuery({v}) == PointRangeQuery(v, v) per value, unioned."""
    from lucene_ray.search.query import (
        BooleanQuery,
        PointInSetQuery,
        PointRangeQuery,
    )

    vals = (120, 305, 9999999)
    got = searcher.search(
        BooleanQuery(must=[PointInSetQuery("n_chars", vals)]), 1 << 20
    ).docids
    want = np.unique(
        np.concatenate(
            [
                searcher.search(
                    BooleanQuery(must=[PointRangeQuery("n_chars", v, v)]), 1 << 20
                ).docids
                for v in vals
            ]
        )
    )
    assert np.array_equal(np.sort(got), want)


def test_point_in_set_unknown_field_empty(searcher):
    from lucene_ray.search.query import BooleanQuery, PointInSetQuery

    td = searcher.search(
        BooleanQuery(must=[PointInSetQuery("no_such_field", (1, 2))]), 10
    )
    assert len(td.docids) == 0


def test_numeric_join_roundtrip(searcher):
    """Every to-match's n_chars value occurs among the from-matches'."""
    from lucene_ray.search.engine import (
        fetch_doc_values,
        join_query_numeric,
    )

    from_td = searcher.search("merge", k=1 << 20)
    from_vals = set(
        int(v) for v in fetch_doc_values(searcher.reader, from_td.docids, "n_chars")
    )
    q = join_query_numeric(searcher, "merge", "n_chars", max_terms=1 << 20)
    to_td = searcher.search(q, 1 << 20)
    to_vals = fetch_doc_values(searcher.reader, to_td.docids, "n_chars")
    assert set(int(v) for v in to_vals) <= from_vals
    # and every from-doc joins to itself
    assert set(from_td.docids.tolist()) <= set(to_td.docids.tolist())


def test_numeric_join_empty_from(searcher):
    from lucene_ray.search.engine import join_query_numeric

    q = join_query_numeric(searcher, "zzzmissingterm", "n_chars")
    assert len(searcher.search(q, 10).docids) == 0


def test_scored_modes(searcher):
    from lucene_ray.search.engine import join_query_numeric_scored

    total = join_query_numeric_scored(searcher, "merge", "n_chars", score_mode="total")
    assert len(total.docids) and total.values.max() >= 1
    # scores descend
    assert np.all(np.diff(total.values) <= 0)
    mx = join_query_numeric_scored(searcher, "merge", "n_chars", score_mode="max")
    assert np.all(mx.values == 1)
    avg = join_query_numeric_scored(searcher, "merge", "n_chars", score_mode="avg")
    assert set(avg.docids.tolist()) == set(total.docids.tolist())
    with pytest.raises(ValueError):
        join_query_numeric_scored(searcher, "merge", "n_chars", score_mode="sum")


@pytest.mark.usefixtures("ray_session")
def test_numjoin_gate_parity():
    from lucene_ray.ops import bm25docs
    from tests.test_ops import assert_same

    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{SF}/documents.parquet')"
    )
    assert_same(bm25docs.numjoin_engine(SF), con, bm25docs.numjoin_engine_sql())
    assert_same(
        bm25docs.numjoin_scored_engine(SF), con, bm25docs.numjoin_scored_engine_sql()
    )


class TestGlobalOrdinalJoin:
    @pytest.fixture(scope="class")
    def dv_searcher(self, ray_session):
        from lucene_ray.ops.bm25docs import _DV_INDEX, _engine_index
        from lucene_ray.search.engine import IndexSearcher

        return IndexSearcher(_engine_index(SF, **_DV_INDEX))

    def test_matches_value_join(self, dv_searcher):
        """The ordinal path is an execution strategy: doc sets equal the
        TermInSet value join over the same (keyword-indexed) field."""
        from lucene_ray.search.engine import (
            join_query,
            join_query_global_ordinal,
        )

        s = dv_searcher
        got = set(
            join_query_global_ordinal(s, "merge", "lang").docids.tolist()
        )
        want = set(s.search(join_query(s, "merge", "lang"), 1 << 20).docids.tolist())
        assert got == want and got

    def test_total_scores_match_scored_join(self, dv_searcher):
        from lucene_ray.search.engine import (
            join_query_global_ordinal,
            join_query_scored,
        )

        s = dv_searcher
        a = join_query_global_ordinal(s, "merge", "lang", score_mode="total")
        b = join_query_scored(s, "merge", "lang", score_mode="total")
        assert a.docids.tolist() == b.docids.tolist()
        assert a.values.tolist() == b.values.tolist()

    def test_empty_from(self, dv_searcher):
        from lucene_ray.search.engine import join_query_global_ordinal

        td = join_query_global_ordinal(dv_searcher, "zzzmissing", "lang")
        assert len(td.docids) == 0

    def test_bad_mode(self, dv_searcher):
        from lucene_ray.search.engine import join_query_global_ordinal

        with pytest.raises(ValueError):
            join_query_global_ordinal(dv_searcher, "merge", "lang", score_mode="sum")

    def test_gate_parity(self):
        from lucene_ray.ops import bm25docs
        from tests.test_ops import assert_same

        con = duckdb.connect()
        con.execute(
            f"CREATE VIEW documents AS SELECT * FROM read_parquet('{SF}/documents.parquet')"
        )
        assert_same(
            bm25docs.globalordjoin_engine(SF),
            con,
            bm25docs.globalordjoin_engine_sql(),
        )

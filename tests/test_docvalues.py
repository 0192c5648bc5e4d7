"""Schema-driven doc values (index/DocValuesType.java:23-51): NUMERIC
pass-through source columns, SORTED / SORTED_SET keyword sidecar, points
view for source numerics, index_sort over a source column, and the sidecar
surviving a merge."""

import glob
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from lucene_ray.index.builder import build_index
from lucene_ray.search.engine import (
    IndexSearcher,
    facet_counts,
    fetch_doc_values,
    search_sorted,
    sorted_set_facet_counts,
)
from lucene_ray.search.query import BooleanQuery, PointRangeQuery, TermQuery

N_DOCS = 240
LANGS = ["py", "rs", "go", "java"]
REPOS = ["alpha", "beta", "gamma"]
WORDS = ["merge", "window", "batch", "sort", "flush", "scan"]


def _write_shards(d: str) -> list[str]:
    rng = np.random.default_rng(99)
    paths = []
    for sh in range(2):
        lo, hi = sh * N_DOCS // 2, (sh + 1) * N_DOCS // 2
        rows = {
            "repo": [REPOS[i % len(REPOS)] for i in range(lo, hi)],
            "path": [f"f/{i}" for i in range(lo, hi)],
            "commit": ["0" * 40] * (hi - lo),
            "lang": [LANGS[i % len(LANGS)] for i in range(lo, hi)],
            "content": [
                " ".join(rng.choice(WORDS, size=int(rng.integers(3, 12))))
                for _ in range(lo, hi)
            ],
            # pass-through numeric: NOT derivable from content
            "prio": [(i * 37) % 1000 for i in range(lo, hi)],
        }
        p = os.path.join(d, f"shard_{sh}.parquet")
        pq.write_table(pa.table(rows), p, row_group_size=40)
        paths.append(p)
    return paths


@pytest.fixture(scope="module")
def dv_ix(tmp_path_factory, ray_session):
    src = str(tmp_path_factory.mktemp("dv_src"))
    shards = _write_shards(src)
    ix = str(tmp_path_factory.mktemp("dv_ix"))
    build_index(
        shards,
        ix,
        target_docs=60,
        dv_fields=("prio",),
        sorted_dv_fields=("lang",),
        sorted_set_dv_fields=("labels",),
    )
    return ix


@pytest.fixture(scope="module")
def truth():
    return {
        "prio": np.array([(i * 37) % 1000 for i in range(N_DOCS)]),
        "lang": [LANGS[i % len(LANGS)] for i in range(N_DOCS)],
        "repo": [REPOS[i % len(REPOS)] for i in range(N_DOCS)],
    }


def test_numeric_dv_schema_and_values(dv_ix, truth):
    s = IndexSearcher(dv_ix)
    first = s.reader.segments[0]
    schema = s.reader.segment_reader(first.name).doc_values_schema()
    assert set(schema) == {"n_chars", "prio"}
    got = fetch_doc_values(s.reader, np.arange(N_DOCS), "prio")
    assert np.array_equal(got, truth["prio"])


def test_sort_by_source_numeric(dv_ix, truth):
    s = IndexSearcher(dv_ix)
    td = search_sorted(s, "merge", "prio", k=15, ascending=True)
    matches = IndexSearcher(dv_ix).search("merge", 1 << 62).docids
    order = sorted(matches.tolist(), key=lambda d: (truth["prio"][d], d))[:15]
    assert td.docids.tolist() == order


def test_points_range_on_source_numeric(dv_ix, truth):
    s = IndexSearcher(dv_ix)
    q = BooleanQuery(must=[PointRangeQuery("prio", 100, 400), TermQuery("sort")])
    got = set(s.search(q, 1 << 62).docids.tolist())
    matches = set(s.search("sort", 1 << 62).docids.tolist())
    want = {
        d for d in range(N_DOCS)
        if 100 <= truth["prio"][d] <= 400 and d in matches
    }
    assert got == want


def test_sorted_dv_ords(dv_ix, truth):
    r = IndexSearcher(dv_ix).reader
    base = 0
    for e in r.segments:
        sr = r.segment_reader(e.name)
        assert "lang" in sr.sorted_dv_schema()
        ords, terms = sr.sorted_doc_values("lang")
        assert list(terms) == sorted(terms)  # term-sorted dictionary
        vals = [str(terms[o]) for o in ords]
        assert vals == truth["lang"][base : base + e.doc_count]
        base += e.doc_count


def test_sorted_set_dv_contract(dv_ix, truth):
    r = IndexSearcher(dv_ix).reader
    base = 0
    for e in r.segments:
        sr = r.segment_reader(e.name)
        offsets, flat, terms = sr.sorted_set_doc_values("labels")
        for i in range(e.doc_count):
            o = flat[offsets[i] : offsets[i + 1]]
            # ascending, de-duplicated ords per doc (SortedSetDocValues)
            assert np.all(np.diff(o) > 0)
            got = {str(terms[x]) for x in o}
            d = base + i
            assert got == {truth["lang"][d], truth["repo"][d]}
        base += e.doc_count


def test_string_sort_uses_sorted_dv(dv_ix, truth):
    s = IndexSearcher(dv_ix)
    td = search_sorted(s, "window", "lang", k=25, ascending=True)
    matches = s.search("window", 1 << 62).docids
    order = sorted(matches.tolist(), key=lambda d: (truth["lang"][d], d))[:25]
    assert td.docids.tolist() == order


def test_facets_from_dv(dv_ix, truth):
    from collections import Counter

    s = IndexSearcher(dv_ix)
    matches = s.search("batch", 1 << 62).docids.tolist()
    want = Counter(truth["lang"][d] for d in matches)
    got = dict(facet_counts(s, "batch", "lang"))
    assert got == dict(want)
    wantset = Counter()
    for d in matches:
        for v in {truth["lang"][d], truth["repo"][d]}:
            wantset[v] += 1
    gotset = dict(sorted_set_facet_counts(s, "batch", "labels"))
    assert gotset == dict(wantset)


def test_sidecar_survives_merge(dv_ix, tmp_path_factory, truth):
    import shutil

    from lucene_ray.index.merge import TieredMergePolicy, maybe_merge
    from lucene_ray.search.engine import fetch_sorted_dv_values

    d = str(tmp_path_factory.mktemp("dv_merged"))
    shutil.rmtree(d)
    shutil.copytree(dv_ix, d)
    maybe_merge(d, TieredMergePolicy(), use_ray=False)
    s = IndexSearcher(d)
    got = fetch_doc_values(s.reader, np.arange(N_DOCS), "prio")
    assert np.array_equal(got, truth["prio"])
    vals = fetch_sorted_dv_values(s.reader, np.arange(N_DOCS), "lang")
    assert [str(v) for v in vals] == truth["lang"]
    from collections import Counter

    matches = s.search("batch", 1 << 62).docids.tolist()
    want = Counter(truth["lang"][d_] for d_ in matches)
    assert dict(facet_counts(s, "batch", "lang")) == dict(want)


def test_index_sort_on_source_numeric(tmp_path_factory, ray_session):
    src = str(tmp_path_factory.mktemp("dvs_src"))
    shards = _write_shards(src)
    ix = str(tmp_path_factory.mktemp("dvs_ix"))
    build_index(
        shards, ix, target_docs=60,
        dv_fields=("prio",), index_sort=("prio", "asc"),
    )
    r = IndexSearcher(ix).reader
    for e in r.segments:
        dv = r.segment_reader(e.name).doc_values("prio")
        assert np.all(np.diff(dv) >= 0)  # docid order IS prio order


def test_checkindex_on_dv_index(dv_ix):
    from lucene_ray.index.checkindex import check_index

    report = check_index(dv_ix)
    assert report["ok"], report["problems"]


class TestRangeFields:
    """LongRange fields (document/LongRange.java:48): the four relation
    queries vs a naive evaluator, and sidecar survival through a merge."""

    @pytest.fixture(scope="class")
    def rix(self, tmp_path_factory, ray_session):
        src = str(tmp_path_factory.mktemp("rng_src"))
        shards = _write_shards(src)
        ix = str(tmp_path_factory.mktemp("rng_ix"))
        build_index(shards, ix, target_docs=60, range_fields=("span",))
        return ix

    @staticmethod
    def _naive(qlo, qhi, rel):
        g = np.arange(N_DOCS, dtype=np.int64)
        lo = (g * 13) % 997
        hi = lo + (g % 53)
        ql = -(2**63) if qlo is None else qlo
        qh = 2**63 - 1 if qhi is None else qhi
        inter = (lo <= qh) & (hi >= ql)
        within = (lo >= ql) & (hi <= qh)
        contains = (lo <= ql) & (hi >= qh)
        mask = {
            "intersects": inter,
            "within": within,
            "contains": contains,
            "crosses": inter & ~within & ~contains,
        }[rel]
        return set(g[mask].tolist())

    @pytest.mark.parametrize(
        "qlo,qhi,rel",
        [
            (100, 300, "intersects"),
            (100, 300, "within"),
            (400, 410, "contains"),
            (100, 300, "crosses"),
            (None, 50, "intersects"),
            (900, None, "within"),
        ],
    )
    def test_relations_match_naive(self, rix, qlo, qhi, rel):
        from lucene_ray.search.engine import IndexSearcher
        from lucene_ray.search.query import BooleanQuery, RangeFieldQuery

        s = IndexSearcher(rix)
        got = set(
            s.search(
                BooleanQuery(must=[RangeFieldQuery("span", qlo, qhi, rel)]),
                1 << 62,
            ).docids.tolist()
        )
        assert got == self._naive(qlo, qhi, rel), (qlo, qhi, rel)

    def test_survives_merge_and_deletes(self, rix, tmp_path_factory):
        import shutil

        from lucene_ray.index.merge import force_merge
        from lucene_ray.index.writer import delete_docs
        from lucene_ray.search.engine import IndexSearcher
        from lucene_ray.search.query import BooleanQuery, RangeFieldQuery

        d = str(tmp_path_factory.mktemp("rng_m"))
        shutil.rmtree(d)
        shutil.copytree(rix, d)
        want = self._naive(100, 300, "intersects")
        victims = sorted(want)[:3]
        delete_docs(d, victims)
        force_merge(d, use_ray=False)
        s = IndexSearcher(d)
        got = set(
            s.search(
                BooleanQuery(must=[RangeFieldQuery("span", 100, 300)]), 1 << 62
            ).docids.tolist()
        )
        assert got == want - set(victims)

    def test_unknown_relation_rejected(self, rix):
        from lucene_ray.search.engine import IndexSearcher
        from lucene_ray.search.query import BooleanQuery, RangeFieldQuery

        s = IndexSearcher(rix)
        with pytest.raises(ValueError, match="relation"):
            s.search(
                BooleanQuery(must=[RangeFieldQuery("span", 1, 2, "overlapsish")]),
                10,
            )


# --- DV query family (DocValuesTermsQuery.java; SortedSetDocValuesField
# .newSlowRangeQuery; search/IndexOrDocValuesQuery.java) ------------------


def test_dv_terms_query_sorted(dv_ix, truth):
    from lucene_ray.search.query import DocValuesTermsQuery

    s = IndexSearcher(dv_ix)
    got = set(
        s.search(
            BooleanQuery(must=[DocValuesTermsQuery("lang", ("py", "go"))]),
            1 << 62,
        ).docids.tolist()
    )
    want = {i for i in range(N_DOCS) if truth["lang"][i] in ("py", "go")}
    assert got == want


def test_dv_terms_query_sorted_set(dv_ix, truth):
    from lucene_ray.search.query import DocValuesTermsQuery

    s = IndexSearcher(dv_ix)
    got = set(
        s.search(
            BooleanQuery(must=[DocValuesTermsQuery("labels", ("beta", "rs"))]),
            1 << 62,
        ).docids.tolist()
    )
    want = {
        i
        for i in range(N_DOCS)
        if truth["repo"][i] == "beta" or truth["lang"][i] == "rs"
    }
    assert got == want
    # absent values match nothing
    empty = s.search(
        BooleanQuery(must=[DocValuesTermsQuery("labels", ("zzz",))]), 10
    )
    assert len(empty.docids) == 0


def test_dv_range_query_bounds(dv_ix, truth):
    from lucene_ray.search.query import SortedSetDocValuesRangeQuery

    s = IndexSearcher(dv_ix)
    # lang values: go, java, py, rs — [go, py) = {go, java}
    got = set(
        s.search(
            BooleanQuery(
                must=[
                    SortedSetDocValuesRangeQuery(
                        "lang", "go", "py", include_upper=False
                    )
                ]
            ),
            1 << 62,
        ).docids.tolist()
    )
    want = {i for i in range(N_DOCS) if truth["lang"][i] in ("go", "java")}
    assert got == want
    # open lower bound over the SORTED_SET field
    got2 = set(
        s.search(
            BooleanQuery(
                must=[SortedSetDocValuesRangeQuery("labels", None, "beta")]
            ),
            1 << 62,
        ).docids.tolist()
    )
    want2 = {
        i
        for i in range(N_DOCS)
        if truth["repo"][i] in ("alpha", "beta")  # lang values all > "beta"
    }
    assert got2 == want2


def test_index_or_dv_paths_agree(dv_ix, truth):
    """Both execution strategies produce the identical doc set, standalone
    (index path) and beside a selective lead (dv path)."""
    from lucene_ray.search.query import IndexOrDocValuesQuery

    s = IndexSearcher(dv_ix)
    q = IndexOrDocValuesQuery(
        PointRangeQuery("prio", 200, 600), PointRangeQuery("prio", 200, 600)
    )
    alone = set(s.search(BooleanQuery(must=[q]), 1 << 62).docids.tolist())
    want = {i for i in range(N_DOCS) if 200 <= truth["prio"][i] <= 600}
    assert alone == want
    with_lead = set(
        s.search(BooleanQuery(must=[TermQuery("flush"), q]), 1 << 62)
        .docids.tolist()
    )
    flush_docs = set(s.search("flush", 1 << 62).docids.tolist())
    assert with_lead == want & flush_docs


def test_index_or_dv_cost_rule(dv_ix):
    """The chooser takes the dv side when a cheaper term lead exists and
    the index side standalone (IndexOrDocValuesQuery.java scorerSupplier
    cost contract) — probed through the helper directly."""
    from lucene_ray.search.query import IndexOrDocValuesQuery
    from lucene_ray.search.scorer import _index_or_dv_docids

    s = IndexSearcher(dv_ix)
    sr = s.reader.all_readers()[0]
    q = IndexOrDocValuesQuery(
        PointRangeQuery("prio", 200, 600), PointRangeQuery("prio", 200, 600)
    )
    a = _index_or_dv_docids(sr, q, use_dv=False)
    b = _index_or_dv_docids(sr, q, use_dv=True)
    assert a.tolist() == b.tolist()


def test_dv_query_missing_field_raises(dv_ix):
    from lucene_ray.search.query import DocValuesTermsQuery

    s = IndexSearcher(dv_ix)
    with pytest.raises(KeyError):
        s.search(
            BooleanQuery(must=[DocValuesTermsQuery("nosuch", ("x",))]), 10
        )


@pytest.mark.usefixtures("ray_session")
class TestSortedNumericAndBinaryDV:
    """SORTED_NUMERIC + BINARY doc values (index/DocValuesType.java:29,38):
    sidecar write/read, ANY-in-range query, MIN/MAX selector, merge
    survival, and SQL parity of the gates."""

    def test_gates_parity(self):
        import duckdb

        from lucene_ray.ops import bm25docs
        from tests.test_ops import SF, assert_same

        con = duckdb.connect()
        con.execute(
            f"CREATE VIEW documents AS SELECT * FROM "
            f"read_parquet('{SF}/documents.parquet')"
        )
        assert_same(
            bm25docs.sortednumeric_engine(SF), con,
            bm25docs.sortednumeric_engine_sql(),
        )
        assert_same(
            bm25docs.binarydv_engine(SF), con, bm25docs.binarydv_engine_sql()
        )

    def test_values_ascending_per_doc_and_selectors(self):
        import numpy as np

        from lucene_ray.ops.bm25docs import _DV2_INDEX, _engine_index
        from lucene_ray.search.engine import (
            IndexSearcher,
            fetch_sorted_numeric_selected,
        )
        from tests.test_ops import SF

        s = IndexSearcher(_engine_index(SF, **_DV2_INDEX))
        for e in s.reader.segments:
            offsets, flat = s.reader.segment_reader(e.name).sorted_numeric_doc_values(
                "sig_nums"
            )
            for d in range(min(50, len(offsets) - 1)):
                v = flat[offsets[d]:offsets[d + 1]]
                assert (np.diff(v) >= 0).all(), "values must be ASC per doc"
        docids = np.arange(10, dtype=np.int64)
        mins = fetch_sorted_numeric_selected(s.reader, docids, "sig_nums", "min")
        maxs = fetch_sorted_numeric_selected(s.reader, docids, "sig_nums", "max")
        assert (mins <= maxs).all()
        with pytest.raises(ValueError):
            fetch_sorted_numeric_selected(s.reader, docids, "sig_nums", "avg")

    def test_binary_dv_matches_stored_sha(self):
        import numpy as np

        from lucene_ray.ops.bm25docs import _DV2_INDEX, _engine_index
        from lucene_ray.search.engine import (
            IndexSearcher,
            fetch_binary_doc_values,
            fetch_stored,
        )
        from tests.test_ops import SF

        s = IndexSearcher(_engine_index(SF, **_DV2_INDEX))
        docids = np.arange(20, dtype=np.int64)
        blobs = fetch_binary_doc_values(s.reader, docids, "content_sha")
        stored = fetch_stored(s.reader, docids)
        assert [b.hex() for b in blobs] == stored.column(
            "content_sha256"
        ).to_pylist()


@pytest.mark.usefixtures("ray_session")
def test_checkindex_validates_new_sidecars(tmp_path):
    """CheckIndex covers the SORTED_NUMERIC / BINARY / shapes sidecars:
    clean indexes pass; a corrupted ascending-order invariant is caught."""
    import os

    import numpy as np
    import pyarrow as pa
    import pyarrow.parquet as pq

    from lucene_ray.index.checkindex import check_index
    from lucene_ray.ops.bm25docs import _DV2_INDEX, _engine_index
    from tests.test_ops import SF

    for ix in (
        _engine_index(SF, **_DV2_INDEX),
        _engine_index(SF, shape_fields=("rect",)),
    ):
        assert check_index(ix, verify_content=False)["problems"] == []
    # corrupt a copy: descending values within one doc must be flagged
    import shutil

    src = _engine_index(SF, **_DV2_INDEX)
    ix2 = str(tmp_path / "corrupt")
    shutil.copytree(src, ix2)
    segs = [d for d in os.listdir(os.path.join(ix2, "segments"))]
    p = os.path.join(ix2, "segments", segs[0], "docvalues_sortednumeric.parquet")
    t = pq.read_table(p)
    col = t.column("sig_nums").combine_chunks()
    flat = col.values.to_numpy(zero_copy_only=False).copy()
    if len(flat) >= 3:
        flat[0], flat[2] = max(flat[0], flat[2]) + 5, 0  # break ASC in doc 0
    bad = pa.ListArray.from_arrays(col.offsets, pa.array(flat, type=pa.int64()))
    pq.write_table(t.set_column(0, "sig_nums", bad), p)
    probs = check_index(ix2, verify_content=False)["problems"]
    assert any("not ascending" in x for x in probs)

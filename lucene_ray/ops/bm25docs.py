"""BM25 + boolean/phrase retrieval over the ``documents`` table, in two
forms:

1. **Dataflow BM25** (``bm25_topk``): tokenize -> per-doc tf for the query
   terms -> global stats -> float64 exact-length BM25 -> top-k. Bit-matched
   by a DuckDB oracle (both sides: IEEE double, libm ln, identical operation
   order — see BM25ExactSimilarity). This is the CORRECTNESS anchor.

2. **Engine-backed** entries (``*_engine``): build the real inverted index
   from the documents table (documents_as_corpus -> build_index under
   /tmp/lucene_ray_cache, resume-cached) and run the production searcher.
   - boolean/phrase doc SETS are float-free -> SQL-checked exactly
   - BM25 rankings use Lucene's quantized-norm float32 scoring, which
     legitimately differs from exact-double ranking -> rows-only check here;
     rank-parity is enforced internally by the duel + golden tests instead.

The fixed query sets are drawn from the documents vocabulary.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pyarrow as pa

import ray.data

from lucene_ray.analysis import CodeAnalyzer, tok_cte, tokenize_sql_expr
from lucene_ray.index.corpus import documents_as_corpus, documents_as_corpus_dv
from lucene_ray.search.similarity import BM25ExactSimilarity

# (qid, query text) — mix of single terms, multi-term ORs, hot + rare-ish
BM25_QUERIES: list[tuple[int, str]] = [
    (0, "merge"),
    (1, "window"),
    (2, "batch stream"),
    (3, "sort merge join"),
    (4, "customer value"),
    (5, "spark"),
    (6, "zzzmissing"),
    (7, "the data"),
]
BM25_K = 10

BOOLEAN_QUERIES: list[tuple[int, str]] = [
    (0, "merge AND window"),
    (1, "+batch -stream"),
    (2, "sort join"),
    (3, "+table +scan -hash"),
    # required multi-term clauses: `+mer*` must still REQUIRE the prefix
    # even with other SHOULD clauses present (DisjunctionSumQuery rewrite)
    (4, "+mer* window"),
    (5, "+sor* +mer*"),
]

PHRASE_QUERIES: list[tuple[int, tuple[str, ...], int]] = [
    # (qid, terms, slop) — slop 0 = exact positional join; slop > 0 = the
    # adjusted-position span criterion (SloppyPhraseMatcher doc sets)
    (0, ("batch", "batch"), 0),
    (1, ("sort", "merge"), 0),
    (2, ("key", "order"), 0),
    (3, ("sort", "merge"), 2),      # includes reversed "merge sort"
    (4, ("key", "order"), 3),
    (5, ("batch", "window", "spark"), 4),
]


def _query_terms() -> list[tuple[int, list[str]]]:
    an = CodeAnalyzer()
    return [(qid, an.tokenize_text(q)) for qid, q in BM25_QUERIES]


def _flatten_hits(hits) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """int64 (qids, positions, docids) of (qid, docids) pairs, in order:
    positions count 0.. within each pair's doc list."""
    qs, ps, ds = [], [], []
    for qid, docids in hits:
        d = np.asarray(docids, dtype=np.int64)
        qs.append(np.full(len(d), qid, dtype=np.int64))
        ps.append(np.arange(len(d), dtype=np.int64))
        ds.append(d)
    empty = np.empty(0, dtype=np.int64)
    return (
        np.concatenate([empty, *qs]),
        np.concatenate([empty, *ps]),
        np.concatenate([empty, *ds]),
    )


def _docset_table(docsets) -> pa.Table:
    """The int64 (qid, docid) gate table of (qid, docids) pairs, in order."""
    q, _pos, d = _flatten_hits(docsets)
    return pa.table({"qid": q, "docid": d})


def _docsets(s, queries) -> pa.Table:
    """(qid, docid) doc-set gate table: the match set of each (qid, q) of
    ``queries`` (``s.matching_docs(q)``), in order."""
    return _docset_table((qid, s.matching_docs(q)) for qid, q in queries)


def _ranked_table(ranked, rank_type=pa.int32()) -> pa.Table:
    """(qid, rank, docid) gate table of (qid, docids) pairs whose doc
    lists are in rank order: rank is each doc's 0-based position."""
    q, r, d = _flatten_hits(ranked)
    return pa.table(
        {"qid": q, "rank": pa.array(r, type=rank_type), "docid": d}
    )


def _and_term(clause, term: str | None):
    """BooleanQuery requiring ``clause``, and TermQuery(term) when set."""
    from lucene_ray.search.query import BooleanQuery, TermQuery

    return BooleanQuery(must=[clause, TermQuery(term)] if term else [clause])


def bm25_topk(sf_dir: str) -> pa.Table:
    """(qid, rank, doc_id): float64 exact-length BM25 over documents as one
    Ray Data flow. The per-doc tf computation streams (map_batches); term
    stats reduce to scalars; scoring + topk happen on the (tiny)
    matched-rows set per query."""
    return _exact_topk(sf_dir, BM25ExactSimilarity())


def tfidf_topk(sf_dir: str) -> pa.Table:
    """(qid, rank, doc_id): ClassicSimilarity (TF-IDF) twin of bm25_topk —
    same dataflow, pluggable similarity (ClassicSimilarity.java)."""
    from lucene_ray.search.similarity import ClassicExactSimilarity

    return _exact_topk(sf_dir, ClassicExactSimilarity())


def lmdirichlet_topk(sf_dir: str) -> pa.Table:
    """(qid, rank, doc_id): Dirichlet-smoothed LM similarity twin of
    bm25_topk — third member through the similarity plug
    (LMDirichletSimilarity.java:36, mu=2000)."""
    from lucene_ray.search.similarity import LMDirichletExactSimilarity

    return _exact_topk(sf_dir, LMDirichletExactSimilarity())


def dfr_topk(sf_dir: str) -> pa.Table:
    """(qid, rank, doc_id): DFR I(n)L2 similarity twin of bm25_topk
    (DFRSimilarity.java + BasicModelIn/AfterEffectL/NormalizationH2)."""
    from lucene_ray.search.similarity import DFRExactSimilarity

    return _exact_topk(sf_dir, DFRExactSimilarity())


GEO_NEAREST_QUERIES = (
    # (qid, lat, lon, k) — off-lattice points (no symmetric ties)
    (0, 12.3371, 45.7113, 10),
    (1, -33.8571, 151.2153, 7),
    (2, 64.1283, -21.9351, 15),
)


def geo_nearest(sf_dir: str) -> pa.Table:
    """(qid, rank, docid): k-nearest geo points
    (misc LatLonPointPrototypeQueries.nearest /
    LatLonDocValuesField.newDistanceSort — search/spatial.py
    nearest_topk: growing-radius BKD prune per segment, k-row driver
    merge). Rank output is float-free; the synthetic lattice keeps
    distances well separated so the DuckDB trig twin orders
    identically."""
    from lucene_ray.search.spatial import nearest_topk

    # LatLonPoint 'loc' sidecar; the merge exercises the spatial fold
    ix = _engine_index(sf_dir, point2d_fields=("loc",))
    return _ranked_table(
        (qid, [doc for doc, _dist in nearest_topk(ix, "loc", la, lo, k)])
        for qid, la, lo, k in GEO_NEAREST_QUERIES
    )


def geo_nearest_sql() -> str:
    from lucene_ray.search.spatial import (
        haversine_sql,
        synth_lat_sql,
        synth_lon_sql,
    )

    lat_e, lon_e = synth_lat_sql("doc_id"), synth_lon_sql("doc_id")
    parts = []
    for qid, la, lo, k in GEO_NEAREST_QUERIES:
        dist = haversine_sql(lat_e, lon_e, la, lo)
        parts.append(
            f"SELECT {qid} AS qid, "
            f"(row_number() OVER (ORDER BY ({dist}) ASC, doc_id ASC) - 1)"
            f"::INTEGER AS rank, doc_id AS docid "
            f"FROM documents ORDER BY rank LIMIT {k}"
        )
    union = "\nUNION ALL\n".join(f"({p})" for p in parts)
    return union


def _geo3d_queries():
    """The Geo3D gate's query set (built lazily — shapes validate
    convexity at construction). Mixed planet models: WGS84 vs a mean
    sphere give different distance cutoffs for the same metres."""
    from lucene_ray.search import spatial3d as s3

    mean_sphere = s3.PlanetModel(s3.EARTH_RADIUS_M, s3.EARTH_RADIUS_M)
    return [
        (0, s3.new_distance_query("loc", s3.WGS84, 40.7128, -74.0060, 2_500_000.0)),
        (1, s3.new_distance_query("loc", mean_sphere, -33.8688, 151.2093, 3_200_000.0)),
        (2, s3.new_box_query("loc", s3.WGS84, -20.5, 25.25, 160.0, -150.0)),  # dateline
        (3, s3.new_polygon_query(
            "loc",
            s3.WGS84,
            ((40.0, 50.0, 35.0, 12.0, 10.0), (10.0, 35.0, 60.0, 50.0, 20.0)),
        )),
        (4, s3.new_path_query(
            "loc", s3.WGS84, (10.0, 20.0, 15.0), (-30.0, -10.0, 10.0), 700_000.0,
        )),
        (5, s3.new_large_polygon_query(
            "loc",
            s3.WGS84,
            ((-5.0, -8.0, -25.0, -28.0), (-80.0, -60.0, -62.0, -85.0)),
            ((60.0, 66.0, 70.0, 63.0), (5.0, 25.0, 5.0, -10.0)),
        )),
    ]


def geo3d_engine(sf_dir: str) -> pa.Table:
    """(qid, docid): Geo3D shape queries through the real engine
    (spatial3d/Geo3DPoint.java newDistanceQuery/newBoxQuery/
    newPolygonQuery/newLargePolygonQuery/newPathQuery ->
    PointInGeo3DShapeQuery; search/spatial3d.py — unit-sphere membership
    over the Morton-pruned sidecar). The DuckDB oracle evaluates each
    shape's own sql_expr twin, generated from the SAME plane/edge
    constants as the numpy kernel; query boundaries sit far from every
    synthetic lattice point, so float64 trig noise cannot flip a row."""
    from lucene_ray.search.engine import IndexSearcher
    from lucene_ray.search.query import BooleanQuery

    ix = _engine_index(sf_dir, point2d_fields=("loc",))
    s = IndexSearcher(ix)
    return _docsets(s, ((qid, BooleanQuery(must=[q])) for qid, q in _geo3d_queries()))


def geo3d_engine_sql() -> str:
    from lucene_ray.search.spatial import synth_lat_sql, synth_lon_sql

    lat_e, lon_e = synth_lat_sql("doc_id"), synth_lon_sql("doc_id")
    parts = []
    for qid, q in _geo3d_queries():
        parts.append(
            f"SELECT {qid} AS qid, doc_id AS docid FROM documents "
            f"WHERE {q.shape.sql_expr(lat_e, lon_e)}"
        )
    return "\nUNION ALL\n".join(parts)


def multilongfacet_engine(sf_dir: str, top_n: int = 10) -> pa.Table:
    """(qid, rank, value, n): LongValueFacetCounts over a
    MultiLongValuesSource (facet/LongValueFacetCounts.java:117
    countMultiValued — search/engine.py multi_long_value_facet_counts):
    every SORTED_NUMERIC value occurrence of every matching doc counts,
    top children by (count desc, value asc). sig_nums = sorted
    [L%7, L%10, L%13] of the content length, so the oracle unnests the
    same residue list."""
    from lucene_ray.search.engine import (
        IndexSearcher,
        multi_long_value_facet_counts,
    )
    from lucene_ray.search.query import BooleanQuery, TermQuery

    s = IndexSearcher(_engine_index(sf_dir, **_DV2_INDEX))
    out = {"qid": [], "rank": [], "value": [], "n": []}
    for qid, term in ((0, "merge"), (1, "window")):
        rows = multi_long_value_facet_counts(
            s, BooleanQuery(must=[TermQuery(term)]), "sig_nums", top_n=top_n
        )
        for rank, (value, count) in enumerate(rows):
            out["qid"].append(qid)
            out["rank"].append(rank)
            out["value"].append(value)
            out["n"].append(count)
    return pa.table(
        {
            "qid": pa.array(out["qid"], type=pa.int64()),
            "rank": pa.array(out["rank"], type=pa.int64()),
            "value": pa.array(out["value"], type=pa.int64()),
            "n": pa.array(out["n"], type=pa.int64()),
        }
    )


def multilongfacet_engine_sql(top_n: int = 10) -> str:
    parts = []
    for qid, term in ((0, "merge"), (1, "window")):
        parts.append(f"""
(SELECT {qid} AS qid,
       (row_number() OVER (ORDER BY cnt DESC, value ASC) - 1)::BIGINT AS rank,
       value, cnt AS n
FROM (
  SELECT value, count(*)::BIGINT AS cnt FROM (
    SELECT unnest([length(text) % 7, length(text) % 10,
                   length(text) % 13])::BIGINT AS value
    FROM documents
    WHERE doc_id IN (SELECT DISTINCT doc_id FROM tok WHERE term = '{term}')
  ) GROUP BY value
)
ORDER BY rank LIMIT {top_n})""")
    body = "\nUNION ALL\n".join(parts)
    return f"""
{tok_cte()}
{body}
"""


SSDVSORT_QUERIES = (
    # (qid, term, selector, ascending)
    (0, "merge", "min", True),
    (1, "window", "min", False),
    (2, "stream", "max", True),
)


def ssdvsort_engine(sf_dir: str, k: int = 25) -> pa.Table:
    """(qid, rank, docid): sort-by-SORTED_SET-field search
    (search/SortedSetSortField.java + SortedSetSelector.MIN/MAX —
    search/engine.py search_sorted_set) over the derived 'labels' set
    {lang, repo}: key = least/greatest(lang, source) in the oracle,
    (key, docid asc) ordering both ways."""
    from lucene_ray.search.engine import IndexSearcher, search_sorted_set
    from lucene_ray.search.query import BooleanQuery, TermQuery

    s = IndexSearcher(_engine_index(sf_dir, **_DV_INDEX))
    return _ranked_table(
        (qid, search_sorted_set(
            s, BooleanQuery(must=[TermQuery(term)]), "labels",
            k=k, ascending=asc, selector=sel,
        )[0])
        for qid, term, sel, asc in SSDVSORT_QUERIES
    )


def ssdvsort_engine_sql(k: int = 25) -> str:
    parts = []
    for qid, term, sel, asc in SSDVSORT_QUERIES:
        key = (
            "least(lang, source)" if sel == "min" else "greatest(lang, source)"
        )
        direction = "ASC" if asc else "DESC"
        parts.append(
            f"(SELECT {qid} AS qid, "
            f"(row_number() OVER (ORDER BY {key} {direction}, doc_id ASC) - 1)"
            f"::INTEGER AS rank, doc_id AS docid FROM documents "
            f"WHERE doc_id IN (SELECT DISTINCT doc_id FROM tok "
            f"WHERE term = '{term}') ORDER BY rank LIMIT {k})"
        )
    body = "\nUNION ALL\n".join(parts)
    return f"""
{tok_cte()}
{body}
"""


def _fpoint_queries():
    from lucene_ray.search import floatpoint as fp

    exact_v = (123 - 500) * 0.1  # one IEEE multiply, identical in SQL
    set_vs = [(n - 500) * 0.1 for n in (123, 640, 255)]
    return [
        (0, fp.double_range_query("dscore", -20.5, 3.25),
         f"{fp.sql_dscore()} >= -20.5 AND {fp.sql_dscore()} <= 3.25"),
        (1, fp.double_range_query("dscore", 0.05, 12.0),
         f"{fp.sql_dscore()} >= 0.05 AND {fp.sql_dscore()} <= 12.0"),
        (2, fp.double_exact_query("dscore", exact_v),
         f"{fp.sql_dscore()} = ((123::DOUBLE - 500.0) * 0.1)"),
        (3, fp.double_set_query("dscore", set_vs),
         f"{fp.sql_dscore()} IN (((123::DOUBLE - 500.0) * 0.1),"
         f" ((640::DOUBLE - 500.0) * 0.1), ((255::DOUBLE - 500.0) * 0.1))"),
        (4, fp.float_range_query("fscore", -7.125, 9.875),
         f"{fp.sql_dscore()}::FLOAT >= (-7.125)::FLOAT"
         f" AND {fp.sql_dscore()}::FLOAT <= (9.875)::FLOAT"),
    ]


def dblpoint_engine(sf_dir: str) -> pa.Table:
    """(qid, docid): DoublePoint/FloatPoint fields
    (document/DoublePoint.java newRangeQuery/newExactQuery/newSetQuery,
    document/FloatPoint.java; util/NumericUtils.java:47-82 sortable
    encodings — search/floatpoint.py): float bounds encode to the SAME
    sortable integers the builder stored, so the integer PointRangeQuery
    binary searches ARE the float ranges. Spans negative values, so the
    sign-flip lane is exercised. The oracle compares the raw doubles —
    exact, because the encoding is a strict order isomorphism."""
    from lucene_ray.search.engine import IndexSearcher
    from lucene_ray.search.query import BooleanQuery

    # DoublePoint/FloatPoint demo fields (search/floatpoint.py encodings)
    ix = _engine_index(sf_dir, dv_fields=("dscore", "fscore"))
    s = IndexSearcher(ix)
    return _docsets(s, (
        (qid, BooleanQuery(must=[q]))
        for qid, q, _sql in _fpoint_queries()
    ))


def dblpoint_engine_sql() -> str:
    parts = [
        f"SELECT {qid} AS qid, doc_id AS docid FROM documents WHERE {sql}"
        for qid, _q, sql in _fpoint_queries()
    ]
    return "\nUNION ALL\n".join(parts)


def _facetset_matchers():
    from lucene_ray.search.facetset import (
        ExactFacetSetMatcher,
        RangeFacetSetMatcher,
    )

    return [
        ExactFacetSetMatcher("exact_3_5", (3, 5)),
        ExactFacetSetMatcher("exact_0_0", (0, 0)),
        RangeFacetSetMatcher("range_mid", (2, 3), (5, 8)),
        RangeFacetSetMatcher("range_all", (0, 0), (12, 9)),
        RangeFacetSetMatcher("range_none", (50, 50), (60, 60)),
    ]


def facetset_counts(sf_dir: str) -> pa.Table:
    """(label, value): MatchingFacetSetsCounts over the packed facet-set
    BINARY doc values (facet/facetset — search/facetset.py; counts are
    per matching SET, the `__total__` row is matched DOCS, mirroring
    MatchingFacetSetsCounts.java:124-131). The synthetic field carries
    two 2-dim sets per doc — (L%7, L%10) and (L%13, L%5) from the
    content length — so the oracle is exact integer arithmetic over
    n_chars."""
    from lucene_ray.search.facetset import matching_facet_sets_counts
    from lucene_ray.search.reader import IndexReader

    ix = _engine_index(sf_dir, binary_dv_fields=("fsets",))
    rows, tot = matching_facet_sets_counts(
        IndexReader(ix), "fsets", _facetset_matchers()
    )
    rows = rows + [("__total__", tot)]
    return pa.table(
        {
            "label": pa.array([r[0] for r in rows], type=pa.string()),
            "value": pa.array([r[1] for r in rows], type=pa.int64()),
        }
    )


def facetset_counts_sql() -> str:
    # the two per-doc sets as (dim1, dim2) condition builders
    sets = [("n_chars % 7", "n_chars % 10"), ("n_chars % 13", "n_chars % 5")]

    def match(m, s):
        a, b = s
        if type(m).__name__ == "ExactFacetSetMatcher":
            return f"(({a}) = {m.values[0]} AND ({b}) = {m.values[1]})"
        return (
            f"(({a}) >= {m.lowers[0]} AND ({a}) <= {m.uppers[0]}"
            f" AND ({b}) >= {m.lowers[1]} AND ({b}) <= {m.uppers[1]})"
        )

    parts = []
    any_conds = []
    for m in _facetset_matchers():
        per_set = [match(m, s) for s in sets]
        any_conds.extend(per_set)
        # per matching SET: sum each set's indicator separately
        total = " + ".join(
            f"SUM(CASE WHEN {c} THEN 1 ELSE 0 END)" for c in per_set
        )
        parts.append(
            f"SELECT '{m.label}' AS label, ({total})::BIGINT AS value "
            f"FROM documents"
        )
    parts.append(
        "SELECT '__total__' AS label, COUNT(*)::BIGINT AS value "
        f"FROM documents WHERE {' OR '.join(any_conds)}"
    )
    return "\nUNION ALL\n".join(parts)


FUZZYLIKETHIS_QUERIES = (
    # (qid, max_num_terms, [(query_string, max_edits, prefix_length)])
    (0, 12, [("merge window", 1, 0)]),
    (1, 15, [("quer scann", 2, 1)]),     # zero-df sources -> avg-df fallback
    (2, 8, [("index merge", 1, 2)]),
    (3, 20, [("sort", 1, 0), ("windw batch", 2, 1)]),  # two addTerms calls
)


def fuzzylikethis_terms(sf_dir: str) -> pa.Table:
    """(qid, rank, term): FuzzyLikeThisQuery's selected variant set
    (sandbox/queries/FuzzyLikeThisQuery.java — search/fuzzylikethis.py:
    per-source fuzzy enumeration, edit-similarity boost, 50-variant cap,
    shared-source-idf rescale incl. the zero-df avg fallback, global
    top-maxNumTerms). Ranks by (score desc, term asc) — the ScoreTermQueue
    order; the oracle recomputes every stage in SQL over the tokenized
    corpus (DuckDB levenshtein == the repo's plain-Levenshtein fuzzy
    semantics; score gaps dwarf the engine's float32 vs the oracle's
    float64 rounding)."""
    from lucene_ray.search.fuzzylikethis import FuzzyLikeThisQuery
    from lucene_ray.search.reader import IndexReader

    rd = IndexReader(_engine_index(sf_dir))
    out_q, out_r, out_t = [], [], []
    for qid, max_terms, adds in FUZZYLIKETHIS_QUERIES:
        q = FuzzyLikeThisQuery(max_terms)
        for qs, me, pl in adds:
            q.add_terms(qs, "content", float(me), pl)
        for r, (_src, v, _score) in enumerate(q.selected_terms(rd)):
            out_q.append(qid)
            out_r.append(r)
            out_t.append(v)
    return pa.table(
        {
            "qid": pa.array(out_q, type=pa.int64()),
            "rank": pa.array(out_r, type=pa.int32()),
            "term": pa.array(out_t, type=pa.string()),
        }
    )


def fuzzylikethis_terms_sql() -> str:
    from lucene_ray.analysis import get_analyzer
    from lucene_ray.search.fuzzylikethis import MAX_VARIANTS_PER_TERM

    an = get_analyzer("code")
    parts = []
    for qid, max_terms, adds in FUZZYLIKETHIS_QUERIES:
        branches = []
        seen: set[tuple] = set()
        for qs, me_, pl_ in adds:
            srcs: list[str] = []
            for s in an.tokenize_text(qs):
                if s not in srcs:
                    srcs.append(s)
            for s in srcs:
                # gate queries never repeat a source term across addTerms
                # calls (the engine would process the repeat; SQL dedups)
                assert (s, me_, pl_) not in seen, (s, me_, pl_)
                seen.add((s, me_, pl_))
                plen = min(pl_, len(s))
                pre, suf = s[:plen], s[plen:]
                cond = (
                    f"levenshtein(substr(term, {plen + 1}), '{suf}') <= {me_}"
                )
                if plen:
                    cond = f"substr(term, 1, {plen}) = '{pre}' AND {cond}"
                boost = (
                    f"CASE WHEN term = '{s}' THEN 1.0 ELSE "
                    f"1.0 - levenshtein(substr(term, {plen + 1}), '{suf}')"
                    f"::DOUBLE / least(length(term), {len(s)})::DOUBLE END"
                )
                # effective df: the source's, else integer-mean of ALL
                # enumerated variants (FuzzyLikeThisQuery.java:235-239)
                eff_df = (
                    f"(SELECT CASE WHEN COALESCE((SELECT df FROM vocab "
                    f"WHERE term = '{s}'), 0) > 0 THEN "
                    f"(SELECT df FROM vocab WHERE term = '{s}') ELSE "
                    f"COALESCE((SELECT CAST(FLOOR(SUM(df)::DOUBLE / COUNT(*))"
                    f" AS BIGINT) FROM vocab WHERE {cond}), 0) END)"
                )
                branches.append(
                    f"SELECT term, ({boost}) * ({boost}) * "
                    f"(ln((nd + 1)::DOUBLE / ({eff_df} + 1)::DOUBLE) + 1.0)"
                    f" AS score FROM ("
                    f"SELECT term, df, row_number() OVER ("
                    f"ORDER BY ({boost}) DESC, term ASC) AS vr "
                    f"FROM vocab WHERE {cond}) CROSS JOIN n "
                    f"WHERE vr <= {MAX_VARIANTS_PER_TERM}"
                )
            # NB: the engine dedups analyzed source terms per field-val;
            # `seen` above mirrors it across identical (term, edits, prefix)
        union = " UNION ALL ".join(f"({b})" for b in branches)
        parts.append(
            f"SELECT {qid} AS qid, "
            f"(row_number() OVER (ORDER BY score DESC, term ASC) - 1)"
            f"::INTEGER AS rank, term FROM ({union}) "
            f"ORDER BY rank LIMIT {max_terms}"
        )
    body = "\nUNION ALL\n".join(f"({p})" for p in parts)
    return f"""
{tok_cte()},
vocab AS (
  SELECT term, count(DISTINCT doc_id)::BIGINT AS df FROM tok GROUP BY term
),
n AS (
  SELECT count(*)::BIGINT AS nd FROM documents
)
{body}
"""


DISTFEATURE_QUERIES = (
    # ("long", qid, origin, pivot, k) over n_chars
    # ("geo", qid, lat, lon, pivot_m, k) over loc
    ("long", 0, 300, 50, 15),
    ("long", 1, 1200, 200, 10),
    ("geo", 2, 37.7749, -122.4194, 1_000_000.0, 12),
    ("geo", 3, -33.8688, 151.2093, 250_000.0, 8),
)


def distfeature_topk(sf_dir: str) -> pa.Table:
    """(qid, rank, docid): DistanceFeatureQuery top-k (document/
    LongDistanceFeatureQuery.java:117 score = float32(boost * pivot /
    (pivot + |value - origin|)) over n_chars; LatLonPointDistanceFeature
    over the loc sidecar with the exact-form haversine). Both sides
    compute the double score and round once to float32, then rank by
    (score desc, docid asc) — the ordering the oracle mirrors with
    CAST(... AS FLOAT)."""
    from lucene_ray.search.engine import IndexSearcher
    from lucene_ray.search.query import (
        BooleanQuery,
        GeoDistanceFeatureQuery,
        LongDistanceFeatureQuery,
    )

    def ranked(spec):
        if spec[0] == "long":
            _, qid, origin, pivot, k = spec
            s = IndexSearcher(_engine_index(sf_dir))
            q = LongDistanceFeatureQuery("n_chars", origin, pivot)
        else:
            _, qid, la, lo, pivot, k = spec
            s = IndexSearcher(_engine_index(sf_dir, point2d_fields=("loc",)))
            q = GeoDistanceFeatureQuery("loc", la, lo, pivot)
        return qid, s.search(BooleanQuery(must=[q]), k).docids

    return _ranked_table(map(ranked, DISTFEATURE_QUERIES))


def distfeature_topk_sql() -> str:
    from lucene_ray.search.spatial import (
        haversine_sql,
        synth_lat_sql,
        synth_lon_sql,
    )

    lat_e, lon_e = synth_lat_sql("doc_id"), synth_lon_sql("doc_id")
    parts = []
    for spec in DISTFEATURE_QUERIES:
        if spec[0] == "long":
            _, qid, origin, pivot, k = spec
            score = (
                f"CAST({pivot}::DOUBLE / ({pivot}::DOUBLE +"
                f" abs(n_chars - {origin})::DOUBLE) AS FLOAT)"
            )
        else:
            _, qid, la, lo, pivot, k = spec
            dist = haversine_sql(lat_e, lon_e, la, lo)
            score = f"CAST({pivot!r} / ({pivot!r} + ({dist})) AS FLOAT)"
        parts.append(
            f"SELECT {qid} AS qid, "
            f"(row_number() OVER (ORDER BY {score} DESC, doc_id ASC) - 1)"
            f"::INTEGER AS rank, doc_id AS docid "
            f"FROM documents ORDER BY rank LIMIT {k}"
        )
    return "\nUNION ALL\n".join(f"({p})" for p in parts)


def _bigpoint_queries():
    """(qid, query, sql_condition_builder) triples for the 128-bit point
    gate — InetAddressPoint exact/prefix/range/set + BigIntegerPoint
    signed ranges, all over the synthetic ip field (limbs from doc_id)."""
    from lucene_ray.search import bigpoint as bp

    v7, v3, v10 = bp.synth_value128(7), bp.synth_value128(3), bp.synth_value128(10)
    setvals = [bp.synth_value128(d) for d in (1, 5, 9)] + [12345]
    lo_r, hi_r = min(v3, v10), max(v3, v10)
    # signed views (BigIntegerPoint bias): s = u - 2^127
    out = [
        (0, bp.exact_query_128("ip", v7),
         lambda h, l: bp.sql_range_128(h, l, v7, v7)),
        (1, bp.prefix_query_128("ip", v3, 4),
         lambda h, l: bp.sql_prefix_128(h, l, v3, 4)),
        (2, bp.prefix_query_128("ip", v10, 7),
         lambda h, l: bp.sql_prefix_128(h, l, v10, 7)),
        (3, bp.range_query_128("ip", lo_r, hi_r),
         lambda h, l: bp.sql_range_128(h, l, lo_r, hi_r)),
        (4, bp.set_query_128("ip", setvals),
         lambda h, l: bp.sql_set_128(h, l, setvals)),
        (5, bp.bigint_range_query("ip", -(1 << 126), 1 << 126),
         lambda h, l: bp.sql_range_128(
             h, l, bp.bigint_to_u128(-(1 << 126)), bp.bigint_to_u128(1 << 126)
         )),
        (6, bp.bigint_range_query("ip", v7 - (1 << 127), v3 - (1 << 127))
            if v7 <= v3 else
            bp.bigint_range_query("ip", v3 - (1 << 127), v7 - (1 << 127)),
         lambda h, l: bp.sql_range_128(h, l, min(v3, v7), max(v3, v7))),
    ]
    return out


def bigpoint_engine(sf_dir: str) -> pa.Table:
    """(qid, docid): the 128-bit point family through the real engine
    (document/InetAddressPoint.java newExactQuery/newPrefixQuery/
    newRangeQuery/newSetQuery + sandbox BigIntegerPoint signed ranges;
    search/bigpoint.py — hi/lo limb decomposition onto 1-D points, so the
    DuckDB oracle is an exact integer tuple-compare on doc_id-derived
    limbs)."""
    from lucene_ray.search.engine import IndexSearcher
    from lucene_ray.search.query import BooleanQuery

    # synthetic 128-bit point limbs (search/bigpoint.py derivers)
    ix = _engine_index(sf_dir, dv_fields=("ip_hi", "ip_lo"))
    s = IndexSearcher(ix)
    return _docsets(s, (
        (qid, BooleanQuery(must=[q]))
        for qid, q, _sql in _bigpoint_queries()
    ))


def bigpoint_engine_sql() -> str:
    from lucene_ray.search.bigpoint import sql_hi, sql_lo

    h, lo = sql_hi("doc_id"), sql_lo("doc_id")
    parts = []
    for qid, _q, sql in _bigpoint_queries():
        parts.append(
            f"SELECT {qid} AS qid, doc_id AS docid FROM documents "
            f"WHERE {sql(h, lo)}"
        )
    return "\nUNION ALL\n".join(parts)


def splitter_engine(sf_dir: str) -> pa.Table:
    """(qid, docid): the misc index-surgery family
    (misc/index/IndexSplitter, MultiPassIndexSplitter, PKIndexSplitter —
    lucene_ray/index/split.py) — each split output's MatchAll doc set,
    SQL-checked exactly against the arithmetic part definitions (docids
    here survive splitting unchanged: tombstones never renumber)."""
    import shutil

    from lucene_ray.index.builder import build_index
    from lucene_ray.index.corpus import documents_as_corpus
    from lucene_ray.index.split import (
        list_segments,
        multipass_split_index,
        pk_split_index,
        rearrange_index,
        split_index,
    )
    from lucene_ray.search.engine import IndexSearcher
    from lucene_ray.search.query import MatchAllDocsQuery

    corpus_path = documents_as_corpus(sf_dir)
    key = hashlib.sha1(sf_dir.encode()).hexdigest()[:12]
    # segments are planned from Parquet row groups — rewrite the corpus
    # with 128-row groups so the source really is multi-segment
    small = os.path.join("/tmp/lucene_ray_cache", f"split_corpus_{key}.parquet")
    if not os.path.exists(small):
        import pyarrow.parquet as pq

        pq.write_table(pq.read_table(corpus_path), small, row_group_size=128)
    src = os.path.join("/tmp/lucene_ray_cache", f"split_src_{key}")
    build_index([small], src, target_docs=128)
    segs = list_segments(src)
    assert len(segs) >= 3, "split gate needs a multi-segment source"

    root = os.path.join(
        "/tmp/lucene_ray_cache",
        "split_out_" + hashlib.sha1(sf_dir.encode()).hexdigest()[:12],
    )
    if os.path.exists(root):
        shutil.rmtree(root)
    seq = [os.path.join(root, f"seq{i}") for i in range(3)]
    rr = [os.path.join(root, f"rr{i}") for i in range(3)]
    multipass_split_index(src, seq, seq=True)
    multipass_split_index(src, rr, seq=False)
    pk1, pk2 = os.path.join(root, "pk1"), os.path.join(root, "pk2")
    pk_split_index(src, pk1, pk2, mid_term="lang:es")
    two = os.path.join(root, "two")
    split_index(src, two, [s["name"] for s in segs[:2]])
    rearr = os.path.join(root, "rearr")
    n_docs = sum(s["doc_count"] for s in segs)
    rearrange_index(
        src, rearr,
        [[d for d in range(n_docs) if d % 2 == 0],
         [d for d in range(n_docs) if d % 2 == 1]],
    )

    def docset(ix):
        s = IndexSearcher(ix)
        from lucene_ray.search.query import BooleanQuery

        return s.matching_docs(BooleanQuery(should=[MatchAllDocsQuery()]))

    parts = seq + rr + [pk1, pk2, two, rearr]
    return _docset_table((qid, docset(ix)) for qid, ix in enumerate(parts))


def splitter_engine_sql() -> str:
    # maxDoc = count(documents); seq partLen = maxDoc // 3 (last part
    # absorbs the remainder — MultiPassIndexSplitter.java:83-99); rr =
    # docid % 3; pk mid 'lang:es' -> dir1 lang < 'es'; the two-segment
    # copy covers the first 2*128 docids (build target_docs=128) REBASED
    # compactly (0..min(256, maxDoc))
    return """
WITH n AS (SELECT count(*) AS max_doc FROM documents),
pl AS (SELECT (max_doc // 3) AS part_len, max_doc FROM n)
SELECT 0 AS qid, doc_id AS docid FROM documents, pl WHERE doc_id < part_len
UNION ALL
SELECT 1, doc_id FROM documents, pl
WHERE doc_id >= part_len AND doc_id < 2 * part_len
UNION ALL
SELECT 2, doc_id FROM documents, pl WHERE doc_id >= 2 * part_len
UNION ALL
SELECT 3, doc_id FROM documents WHERE doc_id % 3 = 0
UNION ALL
SELECT 4, doc_id FROM documents WHERE doc_id % 3 = 1
UNION ALL
SELECT 5, doc_id FROM documents WHERE doc_id % 3 = 2
UNION ALL
SELECT 6, doc_id FROM documents WHERE lang < 'es'
UNION ALL
SELECT 7, doc_id FROM documents WHERE lang >= 'es'
UNION ALL
SELECT 8, doc_id FROM documents WHERE doc_id < 256
UNION ALL
-- rearranged: selector 0 (evens) at base 0, selector 1 (odds) at maxDoc
SELECT 9, doc_id FROM documents WHERE doc_id % 2 = 0
UNION ALL
SELECT 9, doc_id + max_doc FROM documents, n WHERE doc_id % 2 = 1
"""


def sweetspot_topk(sf_dir: str) -> pa.Table:
    """(qid, rank, doc_id): SweetSpotSimilarity twin of bm25_topk — the
    misc-module plateau length norm + baselineTf through the similarity
    plug (misc/SweetSpotSimilarity.java; plateau [40,120] steepness 0.5,
    baselineTf base 1.5 / min 5)."""
    from lucene_ray.search.similarity import SweetSpotExactSimilarity

    return _exact_topk(sf_dir, SweetSpotExactSimilarity())


def sweetspot_topk_sql() -> str:
    from lucene_ray.search.similarity import SweetSpotExactSimilarity

    return _exact_topk_sql(SweetSpotExactSimilarity.sql)


def lmdirichlet_topk_sql() -> str:
    from lucene_ray.search.similarity import LMDirichletExactSimilarity

    return _exact_topk_sql(LMDirichletExactSimilarity().sql)


def dfr_topk_sql() -> str:
    from lucene_ray.search.similarity import DFRExactSimilarity

    return _exact_topk_sql(DFRExactSimilarity().sql)


def dfi_topk(sf_dir: str) -> pa.Table:
    """(qid, rank, doc_id): divergence-from-independence similarity twin
    (DFISimilarity.java + IndependenceStandardized; expected tf from the
    term's collection frequency)."""
    from lucene_ray.search.similarity import DFIExactSimilarity

    return _exact_topk(sf_dir, DFIExactSimilarity())


def ib_topk(sf_dir: str) -> pa.Table:
    """(qid, rank, doc_id): information-based IB(LL, lambda_DF, H2)
    similarity twin (IBSimilarity.java + DistributionLL/LambdaDF/
    NormalizationH2)."""
    from lucene_ray.search.similarity import IBExactSimilarity

    return _exact_topk(sf_dir, IBExactSimilarity())


def lmjm_topk(sf_dir: str) -> pa.Table:
    """(qid, rank, doc_id): Jelinek-Mercer-smoothed LM similarity twin
    (LMJelinekMercerSimilarity.java:38, lambda=0.1)."""
    from lucene_ray.search.similarity import LMJelinekMercerExactSimilarity

    return _exact_topk(sf_dir, LMJelinekMercerExactSimilarity())


def axiomatic_topk(sf_dir: str) -> pa.Table:
    """(qid, rank, doc_id): Axiomatic F2EXP similarity twin
    (AxiomaticF2EXP.java, k=0.35, s=0.5)."""
    from lucene_ray.search.similarity import AxiomaticF2EXPExactSimilarity

    return _exact_topk(sf_dir, AxiomaticF2EXPExactSimilarity())


def lmjm_topk_sql() -> str:
    from lucene_ray.search.similarity import LMJelinekMercerExactSimilarity

    return _exact_topk_sql(LMJelinekMercerExactSimilarity().sql)


def axiomatic_topk_sql() -> str:
    from lucene_ray.search.similarity import AxiomaticF2EXPExactSimilarity

    return _exact_topk_sql(AxiomaticF2EXPExactSimilarity().sql)


def dfi_topk_sql() -> str:
    from lucene_ray.search.similarity import DFIExactSimilarity

    return _exact_topk_sql(DFIExactSimilarity().sql)


def ib_topk_sql() -> str:
    from lucene_ray.search.similarity import IBExactSimilarity

    return _exact_topk_sql(IBExactSimilarity().sql)


def _term_tf_kernel(batch: pa.Table, all_terms, term_index):
    """Two-pass kernel of the text top-k twins: tokenize one batch, count
    each term. Returns the batch's stats row (n_docs, sum_len, df_i,
    ttf_i) and its features (doc_len, {i: tf_i})."""
    an = CodeAnalyzer()
    row_idx, terms, _ = an.tokenize_flat(batch.column("text").combine_chunks())
    n = batch.num_rows
    doc_len = np.bincount(row_idx, minlength=n).astype(np.int64)
    import pyarrow.compute as pc

    row = {"n_docs": n, "sum_len": int(doc_len.sum())}
    tf_cols = {}
    for t in all_terms:
        mask = pc.equal(terms, t).to_numpy(zero_copy_only=False)
        i = term_index[t]
        tf_cols[i] = (
            np.bincount(row_idx[mask], minlength=n).astype(np.int64)
            if len(row_idx)
            else np.zeros(n, dtype=np.int64)
        )
        row[f"df_{i}"] = int((tf_cols[i] > 0).sum())
        row[f"ttf_{i}"] = int(tf_cols[i].sum())
    return row, (doc_len, tf_cols)


def _two_pass_topk(
    sf_dir: str, columns, kernel, score_rule, qids, k: int
) -> pa.Table:
    """(qid, rank, doc_id) of a float64 exact dataflow twin, BOUNDED at
    every scale (VERDICT r4 #7): pass 1 streams ONE stats row per batch
    and the driver sums each column into the global stats g
    (O(batches) rows); pass 2 re-streams the corpus, scores in-batch with
    g, and emits only each batch's per-query top-k candidates, so the
    driver merge holds O(batches * Q * k) rows — never the matched set,
    never the corpus. Scores are elementwise float64 with global stats,
    so the two-pass result is bit-identical to a single-pass scoring; the
    final merge re-sorts the candidate union by the same (score desc,
    doc_id asc) key, which equals the global top-k because any global
    winner is its own batch's winner.

    ``kernel(batch) -> (row, feats)`` is the per-batch work of both
    passes: ``row`` is the batch's {column: int} stats row, ``feats``
    whatever the score rule reads. ``score_rule(g, feats, n)`` yields
    (qid, scores, matched) for each query to rank in an n-row batch; only
    matched rows are candidates. The result lists ``qids`` in order."""
    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=columns)

    def stats(batch: pa.Table) -> pa.Table:
        row, _feats = kernel(batch)
        return pa.table({c: pa.array([v], type=pa.int64()) for c, v in row.items()})

    st = (
        ds.map_batches(stats, batch_format="pyarrow", batch_size=4096)
        .to_pandas()  # O(batches) rows, a few ints each
    )
    g = {c: int(st[c].sum()) for c in st.columns}

    def topk_candidates(batch: pa.Table) -> pa.Table:
        _row, feats = kernel(batch)
        doc_ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        out_q, out_d, out_s = [], [], []
        for qid, scores, matched in score_rule(g, feats, batch.num_rows):
            cand = np.nonzero(matched)[0]
            sel = cand[np.lexsort((doc_ids[cand], -scores[cand]))[:k]]
            out_q.extend([qid] * len(sel))
            out_d.extend(doc_ids[sel].tolist())
            out_s.extend(scores[sel].tolist())
        return pa.table(
            {
                "qid": pa.array(out_q, type=pa.int64()),
                "doc_id": pa.array(out_d, type=pa.int64()),
                "score": pa.array(out_s, type=pa.float64()),
            }
        )

    cand = (
        ds.map_batches(topk_candidates, batch_format="pyarrow", batch_size=4096)
        .to_pandas()  # O(batches * Q * K) candidate rows
    )
    ranked = []
    for qid in qids:
        sub = cand[cand.qid == qid]
        d = sub.doc_id.to_numpy()
        s = sub.score.to_numpy()
        ranked.append((qid, d[np.lexsort((d, -s))[:k]]))
    return _ranked_table(ranked).rename_columns(["qid", "rank", "doc_id"])


def _exact_topk(sf_dir: str, sim) -> pa.Table:
    """Float64 exact dataflow twin of the index-backed top-k: the
    bounded two-pass shape of _two_pass_topk, each query's score the
    left-to-right sum of its terms' ``sim`` scores."""
    qts = _query_terms()
    all_terms = sorted({t for _, ts in qts for t in ts})
    term_index = {t: i for i, t in enumerate(all_terms)}

    def score_rule(g, feats, n):
        doc_len, tf_cols = feats
        N, sum_len = g["n_docs"], g["sum_len"]
        avgdl = sum_len / N
        for qid, terms in qts:
            scores = np.zeros(n, dtype=np.float64)
            matched = np.zeros(n, dtype=bool)
            for t in terms:
                if t not in term_index:
                    continue
                i = term_index[t]
                if g[f"df_{i}"] == 0:
                    continue
                tf = tf_cols[i]
                m = tf > 0
                matched |= m
                s = sim.score(
                    tf[m], doc_len[m], g[f"df_{i}"], N, avgdl,
                    ttf=g[f"ttf_{i}"], sum_len=sum_len,
                )
                scores[m] += s
            yield qid, scores, matched

    return _two_pass_topk(
        sf_dir, ["doc_id", "text"],
        lambda batch: _term_tf_kernel(batch, all_terms, term_index),
        score_rule, [qid for qid, _ in qts], BM25_K,
    )


def bm25_topk_sql() -> str:
    """Pivot form: one LEFT JOIN per query term with EXPLICIT left-associative
    addition in fixed term order — SUM() over rows would let DuckDB pick the
    float64 addition order, breaking bit-parity with the numpy path."""
    return _exact_topk_sql(BM25ExactSimilarity.sql)


def tfidf_topk_sql() -> str:
    from lucene_ray.search.similarity import ClassicExactSimilarity

    return _exact_topk_sql(ClassicExactSimilarity.sql)


def _exact_topk_sql(sim_sql) -> str:
    per_query_selects = []
    for qid, terms in _query_terms():
        joins, contribs, matched = [], [], []
        for i, t in enumerate(terms):
            joins.append(
                f"LEFT JOIN tf t{i} ON t{i}.doc_id = dl.doc_id AND t{i}.term = '{t}'"
            )
            score = sim_sql(
                tf=f"t{i}.tf",
                dl="dl.doc_len",
                df=f"(SELECT df FROM dfs WHERE term = '{t}')",
                n="stats.n",
                avgdl="stats.avgdl",
                ttf=f"(SELECT ttf FROM dfs WHERE term = '{t}')",
                sum_len="stats.sum_len",
            )
            contribs.append(f"(CASE WHEN t{i}.tf IS NULL THEN 0.0 ELSE {score} END)")
            matched.append(f"t{i}.doc_id IS NOT NULL")
        per_query_selects.append(
            f"SELECT {qid} AS qid, dl.doc_id, {' + '.join(contribs)} AS score\n"
            f"FROM doc_lens dl CROSS JOIN stats {' '.join(joins)}\n"
            f"WHERE {' OR '.join(matched)}"
        )
    union = "\nUNION ALL\n".join(per_query_selects)
    return f"""
{tok_cte()}, doc_lens AS (
  SELECT d.doc_id, coalesce(cnt.c, 0) AS doc_len
  FROM documents d LEFT JOIN (
    SELECT doc_id, count(*) AS c FROM tok GROUP BY doc_id
  ) cnt USING (doc_id)
), stats AS (
  SELECT count(*)::DOUBLE AS n,
         (sum(doc_len)::DOUBLE / count(*)::DOUBLE) AS avgdl,
         sum(doc_len)::DOUBLE AS sum_len
  FROM doc_lens
), tf AS (
  SELECT doc_id, term, count(*)::DOUBLE AS tf FROM tok GROUP BY doc_id, term
), dfs AS (
  SELECT term, count(*)::DOUBLE AS df, sum(tf)::DOUBLE AS ttf FROM tf GROUP BY term
), scored AS (
{union}
), ranked AS (
  SELECT qid, doc_id,
         row_number() OVER (PARTITION BY qid ORDER BY score DESC, doc_id ASC) - 1 AS rank
  FROM scored
)
SELECT qid, rank::INTEGER AS rank, doc_id FROM ranked WHERE rank < {BM25_K}
"""


# ------------------------------------------------------------- engine-backed

def _engine_index(
    sf_dir: str, *, merge: bool = True, corpus=documents_as_corpus, **options
) -> str:
    """Build (or reuse) the real inverted index over ``corpus(sf_dir)``
    with BuildOptions ``options``, then merge it unless ``merge=False``.
    One cache dir per (sf_dir, corpus, merge, options variant), so gates
    asking for the same index share one build. Gates never write into it:
    those that mutate an index work on a tempfile.mkdtemp copy."""
    from lucene_ray.index.builder import BuildOptions, build_index
    from lucene_ray.index.merge import TieredMergePolicy, maybe_merge

    key = f"{sf_dir}|{corpus.__name__}|{merge}|{BuildOptions(**options).variant}"
    ix = os.path.join(
        "/tmp/lucene_ray_cache",
        "docs_ix_" + hashlib.sha1(key.encode()).hexdigest()[:12],
    )
    build_index([corpus(sf_dir)], ix, target_docs=8192, **options)
    if merge:
        maybe_merge(ix, TieredMergePolicy(), use_ray=False)
    return ix


# schema-driven DV: src_id pass-through NUMERIC, lang/repo SORTED, derived
# 'labels' SORTED_SET; merged, so the sidecar's doc-ordered concat runs
_DV_INDEX = {
    "corpus": documents_as_corpus_dv,
    "dv_fields": ("src_id",),
    "sorted_dv_fields": ("lang", "repo"),
    "sorted_set_dv_fields": ("labels",),
}
# SORTED_NUMERIC sig_nums = sorted([len%7, len%10, len%13]) and BINARY
# content_sha (raw sha256); merged, so the sidecar concat path runs
_DV2_INDEX = {
    "sorted_numeric_dv_fields": ("sig_nums",),
    "binary_dv_fields": ("content_sha",),
}
# analyzed parallel fields: derived position-aligned "rev" (the
# FieldMaskingSpanQuery setup) and source-column "repo" with its own norms
# (the CombinedFieldQuery backing); one unmerged build serves the
# multifield, fieldmask and combinedfield gates
_AF_INDEX = {"merge": False, "analyzed_fields": ("rev", "repo")}


def bm25_topk_engine(sf_dir: str) -> pa.Table:
    """(qid, rank, docid, score): the production engine (quantized norms,
    float32, pruned block-max path) over the documents corpus. Rows-only
    driver check; rank-parity is guarded by the duel tests."""
    from lucene_ray.search.engine import search_queries_dataset

    ix = _engine_index(sf_dir)
    qds = ray.data.from_items(
        [{"qid": qid, "query": q} for qid, q in BM25_QUERIES]
    )
    return search_queries_dataset(qds, ix, k=BM25_K, concurrency=2)


def boolean_engine(sf_dir: str) -> pa.Table:
    """(qid, docid): boolean MUST/SHOULD/MUST_NOT matching through the real
    engine — float-free doc sets, SQL-checked exactly."""
    from lucene_ray.search.engine import IndexSearcher

    ix = _engine_index(sf_dir)
    s = IndexSearcher(ix)
    return _docsets(s, BOOLEAN_QUERIES)


def boolean_engine_sql() -> str:
    # mirror each query's semantics as set algebra over the token CTE;
    # docid == doc_id because documents_as_corpus preserves row order and
    # docids are assigned 0..n-1 in row order (builder.plan_segments)
    parts = []
    sets = {
        0: "SELECT 0 AS qid, doc_id FROM has_merge INTERSECT SELECT 0, doc_id FROM has_window",
        1: "SELECT 1 AS qid, doc_id FROM has_batch EXCEPT SELECT 1, doc_id FROM has_stream",
        2: "SELECT 2 AS qid, doc_id FROM has_sort UNION SELECT 2, doc_id FROM has_join",
        3: (
            "SELECT 3 AS qid, doc_id FROM has_table INTERSECT SELECT 3, doc_id FROM has_scan "
            "EXCEPT SELECT 3, doc_id FROM has_hash"
        ),
        # +mer* window: the required prefix alone defines the doc set
        4: "SELECT DISTINCT 4 AS qid, doc_id FROM tok WHERE term LIKE 'mer%'",
        # +sor* +mer*: intersection of the two prefix match sets
        5: (
            "SELECT DISTINCT 5 AS qid, doc_id FROM tok WHERE term LIKE 'sor%' "
            "INTERSECT SELECT DISTINCT 5, doc_id FROM tok WHERE term LIKE 'mer%'"
        ),
    }
    terms = ["merge", "window", "batch", "stream", "sort", "join", "table", "scan", "hash"]
    ctes = ",\n".join(
        f"has_{t} AS (SELECT DISTINCT doc_id FROM tok WHERE term = '{t}')" for t in terms
    )
    parts = "\nUNION ALL\n".join(sets[q] for q in sorted(sets))
    return f"""
{tok_cte()},
{ctes}
SELECT qid, doc_id AS docid FROM ({parts})
"""


def phrase_engine(sf_dir: str) -> pa.Table:
    """(qid, docid): exact-phrase matching (positions join) via the engine."""
    from lucene_ray.search.engine import IndexSearcher
    from lucene_ray.search.query import BooleanQuery, PhraseQuery

    ix = _engine_index(sf_dir)
    s = IndexSearcher(ix)
    return _docsets(s, (
        (qid, BooleanQuery(should=[PhraseQuery(terms, slop=slop)]))
        for qid, terms, slop in PHRASE_QUERIES
    ))


FIELD_QUERIES: list[tuple[int, str]] = [
    # documents_as_corpus maps source->repo, lang->lang
    (0, "+merge +lang:es"),     # keyword filter AND content term
    (1, "repo:src7"),           # pure keyword match
    (2, "lang:e? window"),      # field wildcard OR content term
]


def field_engine(sf_dir: str) -> pa.Table:
    """(qid, docid): field-scoped queries — keyword (StringField-style)
    postings under 'field:value' composite terms, exact + wildcard field
    syntax through the parser. Float-free doc sets, SQL-checked exactly."""
    from lucene_ray.search.engine import IndexSearcher

    ix = _engine_index(sf_dir)
    s = IndexSearcher(ix)
    return _docsets(s, FIELD_QUERIES)


def field_engine_sql() -> str:
    return f"""
{tok_cte()}
SELECT DISTINCT 0 AS qid, t.doc_id AS docid
FROM tok t JOIN documents d USING (doc_id)
WHERE t.term = 'merge' AND d.lang = 'es'
UNION ALL
SELECT 1, doc_id FROM documents WHERE source = 'src7'
UNION ALL
SELECT 2, doc_id FROM (
  SELECT doc_id FROM documents WHERE lang LIKE 'e_'
  UNION
  SELECT DISTINCT doc_id FROM tok WHERE term = 'window'
)
"""


POINT_QUERIES: list[tuple[int, int | None, int | None, str | None]] = [
    # (qid, lower, upper, extra content term ANDed via MUST)
    (0, 200, 300, None),
    (1, None, 150, None),
    (2, 250, None, "merge"),
]


def points_engine(sf_dir: str) -> pa.Table:
    """(qid, docid): numeric range filters over the n_chars doc-values /
    points index (PointRangeQuery, inclusive bounds, constant score).
    n_chars is derived at build as utf8_length(content) == documents.text
    length, so DuckDB length(text) is the exact oracle."""
    from lucene_ray.search.engine import IndexSearcher
    from lucene_ray.search.query import PointRangeQuery

    ix = _engine_index(sf_dir)
    s = IndexSearcher(ix)
    return _docsets(s, (
        (qid, _and_term(PointRangeQuery("n_chars", lo, hi), term))
        for qid, lo, hi, term in POINT_QUERIES
    ))


def points_engine_sql() -> str:
    parts = []
    for qid, lo, hi, term in POINT_QUERIES:
        conds = []
        if lo is not None:
            conds.append(f"length(text) >= {lo}")
        if hi is not None:
            conds.append(f"length(text) <= {hi}")
        if term:
            conds.append(
                f"doc_id IN (SELECT DISTINCT doc_id FROM tok WHERE term = '{term}')"
            )
        parts.append(
            f"SELECT {qid} AS qid, doc_id AS docid FROM documents WHERE "
            + " AND ".join(conds)
        )
    union = "\nUNION ALL\n".join(parts)
    return f"""
{tok_cte()}
{union}
"""


SPATIAL_QUERIES: list[tuple] = [
    # ("box", qid, lat_lo, lat_hi, lon_lo, lon_hi, extra MUST term | None)
    # ("dist", qid, lat, lon, radius_m, extra MUST term | None)
    ("box", 0, -30.0, 30.0, -60.0, 60.0, None),
    ("box", 1, 10.0, 45.5, 100.0, 170.25, None),
    ("box", 2, -90.0, -50.0, -180.0, -90.0, "merge"),
    ("dist", 3, 37.7749, -122.4194, 3_000_000.0, None),
    ("dist", 4, -33.8688, 151.2093, 5_000_000.0, None),
    ("dist", 5, 51.5074, -0.1278, 1_500_000.0, "index"),
]


def spatial_engine(sf_dir: str) -> pa.Table:
    """(qid, docid): LatLonPoint-style box and great-circle-distance
    filters through the real engine (Morton-sorted sidecar, row-group BKD
    pruning, exact raw-double filter), optionally composed with a content
    TermQuery. The synthetic ``loc`` field derives from docid by
    integer-exact arithmetic (search/spatial.py synth_lat/lon), so the
    DuckDB oracle reproduces it from doc_id."""
    from lucene_ray.search.engine import IndexSearcher
    from lucene_ray.search.query import LatLonBoxQuery, LatLonDistanceQuery

    ix = _engine_index(sf_dir, point2d_fields=("loc",))
    s = IndexSearcher(ix)

    def query(spec):
        if spec[0] == "box":
            _, qid, la, lb, oa, ob, term = spec
            return qid, _and_term(LatLonBoxQuery("loc", la, lb, oa, ob), term)
        _, qid, la, lo, r, term = spec
        return qid, _and_term(LatLonDistanceQuery("loc", la, lo, r), term)

    return _docsets(s, map(query, SPATIAL_QUERIES))


def spatial_engine_sql() -> str:
    from lucene_ray.search.spatial import (
        haversine_sql,
        synth_lat_sql,
        synth_lon_sql,
    )

    lat_e, lon_e = synth_lat_sql("doc_id"), synth_lon_sql("doc_id")
    parts = []
    for spec in SPATIAL_QUERIES:
        if spec[0] == "box":
            _, qid, la, lb, oa, ob, term = spec
            conds = [
                f"({lat_e}) >= {la!r}",
                f"({lat_e}) <= {lb!r}",
                f"({lon_e}) >= {oa!r}",
                f"({lon_e}) <= {ob!r}",
            ]
        else:
            _, qid, la, lo, r, term = spec
            conds = [f"({haversine_sql(lat_e, lon_e, la, lo)}) <= {r!r}"]
        if term:
            conds.append(
                f"doc_id IN (SELECT DISTINCT doc_id FROM tok WHERE term = '{term}')"
            )
        parts.append(
            f"SELECT {qid} AS qid, doc_id AS docid FROM documents WHERE "
            + " AND ".join(conds)
        )
    union = "\nUNION ALL\n".join(parts)
    return f"""
{tok_cte()}
{union}
"""


# polygon gates: shells are (lats, lons) vertex rings, implicitly closed;
# q1 carries a hole, q2 is concave and composed with a content term
POLYGON_QUERIES: list[tuple] = [
    (0, ((10.0, 80.0, 80.0, 10.0), (-170.0, -100.0, -20.0, -60.0)), (), None),
    (
        1,
        ((-80.0, 0.0, 70.0, 20.0, -60.0), (0.0, 40.0, 120.0, 170.0, 150.0)),
        (((-30.0, 10.0, 30.0, -10.0), (60.0, 80.0, 120.0, 110.0)),),
        None,
    ),
    (
        2,
        ((-85.0, -20.0, 40.0, -20.0, 60.0, -85.0),
         (-180.0, -120.0, -90.0, -60.0, -10.0, -5.0)),
        (),
        "merge",
    ),
]


def polygon_engine(sf_dir: str) -> pa.Table:
    """(qid, docid): point-in-polygon filters through the engine
    (LatLonPoint.newPolygonQuery; geo/Polygon2D.java crossing-number):
    shell-bbox BKD prune on the Morton sidecar, exact PNPOLY on raw
    doubles, shell minus holes, optional content-term composition. The
    oracle unrolls the same per-edge float64 crossing arithmetic."""
    from lucene_ray.search.engine import IndexSearcher
    from lucene_ray.search.query import LatLonPolygonQuery

    ix = _engine_index(sf_dir, point2d_fields=("loc",))
    s = IndexSearcher(ix)
    return _docsets(s, (
        (qid, _and_term(LatLonPolygonQuery("loc", shell, holes), term))
        for qid, shell, holes, term in POLYGON_QUERIES
    ))


def polygon_engine_sql() -> str:
    from lucene_ray.search.spatial import (
        polygon_sql,
        synth_lat_sql,
        synth_lon_sql,
    )

    lat_e, lon_e = synth_lat_sql("doc_id"), synth_lon_sql("doc_id")
    parts = []
    for qid, shell, holes, term in POLYGON_QUERIES:
        conds = [polygon_sql(lat_e, lon_e, shell, holes)]
        if term:
            conds.append(
                f"doc_id IN (SELECT DISTINCT doc_id FROM tok WHERE term = '{term}')"
            )
        parts.append(
            f"SELECT {qid} AS qid, doc_id AS docid FROM documents WHERE "
            + " AND ".join(conds)
        )
    union = "\nUNION ALL\n".join(parts)
    return f"""
{tok_cte()}
{union}
"""


PHRASEWILDCARD_QUERIES: list[tuple[int, tuple[str, ...]]] = [
    (0, ("sort", "mer*")),
    (1, ("s*", "merge")),
    (2, ("k?y", "order")),
    (3, ("zz*", "merge")),  # vocabulary-empty slot: zero hits
]


def phrasewildcard_engine(sf_dir: str) -> pa.Table:
    """(qid, docid): PhraseWildcardQuery doc sets — phrases whose slots
    hold wildcard patterns, expanded against the vocabulary and executed
    as MultiPhraseQuery positional joins
    (sandbox/search/PhraseWildcardQuery.java). The oracle translates each
    pattern slot to a LIKE predicate in the same positional join."""
    from lucene_ray.search.engine import IndexSearcher
    from lucene_ray.search.query import BooleanQuery, PhraseWildcardQuery

    ix = _engine_index(sf_dir)
    s = IndexSearcher(ix)
    return _docsets(s, (
        (qid, BooleanQuery(must=[PhraseWildcardQuery(slots)]))
        for qid, slots in PHRASEWILDCARD_QUERIES
    ))


def phrasewildcard_engine_sql() -> str:
    toks = tokenize_sql_expr("text")

    def pred(alias: str, slot: str) -> str:
        if "*" in slot or "?" in slot:
            like = slot.replace("*", "%").replace("?", "_")
            return f"{alias}.term LIKE '{like}'"
        return f"{alias}.term = '{slot}'"

    parts = []
    for qid, slots in PHRASEWILDCARD_QUERIES:
        joins = [
            f"JOIN tok t{i} ON t{i}.doc_id = t0.doc_id "
            f"AND t{i}.pos = t0.pos + {i} AND {pred(f't{i}', s)}"
            for i, s in enumerate(slots)
            if i > 0
        ]
        parts.append(
            f"SELECT DISTINCT {qid} AS qid, t0.doc_id AS docid FROM tok t0 "
            + " ".join(joins)
            + f" WHERE {pred('t0', slots[0])}"
        )
    union = "\nUNION ALL\n".join(parts)
    return f"""
WITH t AS (
  SELECT doc_id, {toks} AS l FROM documents
), tok AS (
  SELECT doc_id, unnest(l) AS term, generate_subscripts(l, 1) AS pos FROM t
)
{union}
"""


def synonym_engine(sf_dir: str) -> pa.Table:
    """(qid, docid): queries against the synonym-injected index — a term
    query on a synonym matches docs containing only the original; a phrase
    crosses the injected position (posInc=0 semantics of
    SynonymGraphFilter add-mode); MUST_NOT still sees originals."""
    from lucene_ray.search.engine import IndexSearcher
    from lucene_ray.search.query import BooleanQuery, PhraseQuery, TermQuery

    # SynonymAnalyzer: index-time add-mode injection (SYNONYM_MAP)
    ix = _engine_index(sf_dir, analyzer_name="synonym")
    s = IndexSearcher(ix)
    queries = [
        (0, BooleanQuery(must=[TermQuery("large")])),
        (1, BooleanQuery(must=[TermQuery("sweep")])),
        (2, BooleanQuery(must=[PhraseQuery(("large", "table"))])),
        (3, BooleanQuery(must=[TermQuery("quick")], must_not=[TermQuery("slow")])),
    ]
    return _docsets(s, queries)


def synonym_engine_sql() -> str:
    from lucene_ray.analysis.analyzer import SYNONYM_MAP

    toks = tokenize_sql_expr("text")
    case = " ".join(
        f"WHEN '{k}' THEN '{v}'" for k, v in sorted(SYNONYM_MAP.items())
    )
    keys = ", ".join(f"'{k}'" for k in sorted(SYNONYM_MAP))
    return f"""
WITH t AS (
  SELECT doc_id, {toks} AS l FROM documents
), tok AS (
  SELECT doc_id, unnest(l) AS term, generate_subscripts(l, 1) AS pos FROM t
), syn AS (
  SELECT doc_id, term, pos FROM tok
  UNION ALL
  SELECT doc_id, CASE term {case} END AS term, pos
  FROM tok WHERE term IN ({keys})
)
SELECT DISTINCT 0 AS qid, doc_id AS docid FROM syn WHERE term = 'large'
UNION ALL
SELECT DISTINCT 1, doc_id FROM syn WHERE term = 'sweep'
UNION ALL
SELECT DISTINCT 2, a.doc_id FROM syn a JOIN syn b
  ON b.doc_id = a.doc_id AND b.pos = a.pos + 1 AND b.term = 'table'
  WHERE a.term = 'large'
UNION ALL
SELECT DISTINCT 3, doc_id FROM syn WHERE term = 'quick'
  AND doc_id NOT IN (SELECT doc_id FROM tok WHERE term = 'slow')
"""


def termvector_engine(sf_dir: str) -> pa.Table:
    """(docid, term, freq, pos_sum): term vectors for every 37th doc,
    fetched through the TermVectorsReader path (row-group-pruned sidecar
    reads, post-merge — the sidecar folds at merge like postings).
    pos_sum = sum of 0-based positions per (doc, term), which pins the
    full position lists against the SQL oracle without a list-typed
    column."""
    import pyarrow.compute as pc

    from lucene_ray.search.reader import IndexReader

    ix = _engine_index(sf_dir, term_vectors=True)
    r = IndexReader(ix)
    tv = r.term_vectors(np.arange(0, r.doc_count, 37, dtype=np.int64))
    if tv.num_rows:
        lens = pc.list_value_length(tv.column("positions")).to_numpy(
            zero_copy_only=False
        )
        flat = pc.list_flatten(tv.column("positions")).to_numpy(
            zero_copy_only=False
        )
        # every (doc, term) row has freq >= 1, so reduceat segments are
        # non-empty
        starts = np.r_[0, np.cumsum(lens)[:-1]].astype(np.int64)
        pos_sum = np.add.reduceat(flat.astype(np.int64), starts)
    else:
        pos_sum = np.array([], dtype=np.int64)
    return pa.table(
        {
            "docid": tv.column("doc"),
            "term": tv.column("term"),
            "freq": tv.column("freq").cast(pa.int64()),
            "pos_sum": pa.array(pos_sum, type=pa.int64()),
        }
    )


def termvector_engine_sql() -> str:
    toks = tokenize_sql_expr("text")
    return f"""
WITH t AS (
  SELECT doc_id, {toks} AS l FROM documents
), tok AS (
  SELECT doc_id, unnest(l) AS term, generate_subscripts(l, 1) - 1 AS pos
  FROM t
)
SELECT doc_id AS docid, term,
       CAST(COUNT(*) AS BIGINT) AS freq,
       CAST(SUM(pos) AS BIGINT) AS pos_sum
FROM tok WHERE doc_id % 37 = 0
GROUP BY doc_id, term
"""


# Deterministic accenting applied to the documents text before indexing so
# the folding gate actually exercises the char filter (the driver corpus is
# pure ASCII). Every accented char is in analyzer._FOLD_PAIRS AND folded by
# DuckDB strip_accents, so fold(accent(text)) == text on both sides.
_ACCENT_PAIRS = (("a", "à"), ("e", "é"), ("o", "ô"))


def _accented_corpus(sf_dir: str) -> str:
    """Corpus-schema parquet whose content is the documents text with the
    deterministic _ACCENT_PAIRS substitution applied."""
    import pyarrow.parquet as pq

    from lucene_ray.index.corpus import documents_as_corpus

    src = documents_as_corpus(sf_dir)
    out = os.path.join(
        "/tmp/lucene_ray_cache",
        "docs_accent_" + hashlib.sha1(sf_dir.encode()).hexdigest()[:12] + ".parquet",
    )
    if os.path.exists(out):
        return out
    t = pq.read_table(src)
    import pyarrow.compute as pc

    content = t.column("content")
    for plain, accented in _ACCENT_PAIRS:
        content = pc.replace_substring(content, plain, accented)
    t = t.set_column(t.schema.get_field_index("content"), "content", content)
    tmp = out + ".tmp"
    pq.write_table(t, tmp, row_group_size=16384)
    os.replace(tmp, out)
    return out


def folding_engine(sf_dir: str) -> pa.Table:
    """(qid, docid): queries with plain-ASCII terms against an index built
    from the accented corpus through FoldingAnalyzer (MappingCharFilter +
    ASCIIFoldingFilter 1:1 subset) — folding must recover exactly the
    unaccented token stream, including positions (phrase query)."""
    from lucene_ray.search.engine import IndexSearcher
    from lucene_ray.search.query import BooleanQuery, PhraseQuery, TermQuery

    ix = _engine_index(sf_dir, corpus=_accented_corpus, analyzer_name="folding")
    s = IndexSearcher(ix)
    queries = [
        (0, BooleanQuery(must=[TermQuery("order")])),
        (1, BooleanQuery(must=[TermQuery("scan")], must_not=[TermQuery("hash")])),
        (2, BooleanQuery(must=[PhraseQuery(("batch", "stream"))])),
    ]
    return _docsets(s, queries)


def folding_engine_sql() -> str:
    accent = "text"
    for plain, accented in _ACCENT_PAIRS:
        accent = f"replace({accent}, '{plain}', '{accented}')"
    toks = tokenize_sql_expr(f"strip_accents({accent})")
    return f"""
WITH t AS (
  SELECT doc_id, {toks} AS l FROM documents
), tok AS (
  SELECT doc_id, unnest(l) AS term, generate_subscripts(l, 1) AS pos FROM t
)
SELECT DISTINCT 0 AS qid, doc_id AS docid FROM tok WHERE term = 'order'
UNION ALL
SELECT DISTINCT 1, doc_id FROM tok WHERE term = 'scan'
  AND doc_id NOT IN (SELECT doc_id FROM tok WHERE term = 'hash')
UNION ALL
SELECT DISTINCT 2, a.doc_id FROM tok a JOIN tok b
  ON b.doc_id = a.doc_id AND b.pos = a.pos + 1 AND b.term = 'stream'
  WHERE a.term = 'batch'
"""


# (qid, terms) for the CommonTermsQuery gate — the SQL oracle recomputes the
# low/high split itself, so the gate stays correct whatever the actual dfs
COMMONTERMS_QUERIES: list[tuple[int, tuple[str, ...]]] = [
    (0, ("the", "merge")),
    (1, ("the", "data")),
    (2, ("zzzmissing", "the")),
    (3, ("window", "batch", "the")),
]
COMMONTERMS_CUTOFF = 0.4


def commonterms_engine(sf_dir: str) -> pa.Table:
    """(qid, docid): CommonTermsQuery doc sets — rare terms REQUIRED,
    stop-like terms optional; a query with no rare term degrades to a
    disjunction; an absent term (df=0) is rare and forces an empty set."""
    from lucene_ray.search.engine import IndexSearcher
    from lucene_ray.search.query import CommonTermsQuery

    ix = _engine_index(sf_dir)
    s = IndexSearcher(ix)
    return _docsets(s, (
        (qid, CommonTermsQuery(terms, max_term_frequency=COMMONTERMS_CUTOFF))
        for qid, terms in COMMONTERMS_QUERIES
    ))


def commonterms_engine_sql() -> str:
    toks = tokenize_sql_expr("text")
    parts = []
    for qid, terms in COMMONTERMS_QUERIES:
        vals = ", ".join(f"('{t}')" for t in terms)
        q = f"""
SELECT DISTINCT {qid} AS qid, tok.doc_id AS docid FROM tok
WHERE CASE WHEN (SELECT count(*) FROM (
          SELECT t.term FROM (VALUES {vals}) t(term)
          LEFT JOIN df USING (term)
          WHERE coalesce(df.df, 0) <= {COMMONTERMS_CUTOFF} * (SELECT c FROM n)
      ) lowq) > 0
  THEN tok.doc_id IN (
      SELECT doc_id FROM tok
      WHERE term IN (
          SELECT t.term FROM (VALUES {vals}) t(term)
          LEFT JOIN df USING (term)
          WHERE coalesce(df.df, 0) <= {COMMONTERMS_CUTOFF} * (SELECT c FROM n))
      GROUP BY doc_id
      HAVING count(DISTINCT term) = (
          SELECT count(*) FROM (VALUES {vals}) t(term)
          LEFT JOIN df USING (term)
          WHERE coalesce(df.df, 0) <= {COMMONTERMS_CUTOFF} * (SELECT c FROM n))
  )
  ELSE tok.term IN (SELECT t.term FROM (VALUES {vals}) t(term)) END
"""
        parts.append(q)
    body = "\nUNION ALL\n".join(parts)
    return f"""
WITH t AS (
  SELECT doc_id, {toks} AS l FROM documents
), tok AS (
  SELECT DISTINCT doc_id, unnest(l) AS term FROM t
), df AS (
  SELECT term, count(*)::BIGINT AS df FROM tok GROUP BY term
), n AS (
  SELECT count(*)::DOUBLE AS c FROM documents
)
{body}
"""


def addindexes_engine(sf_dir: str) -> pa.Table:
    """(qid, docid): queries after IndexWriter.addIndexes — the documents
    corpus is split in half, each half indexed separately, then the second
    index is imported into the first by verbatim segment copy + docid
    rebase (writer.add_indexes). Doc sets must equal a whole-corpus SQL
    oracle; docids stay == doc_id because both halves preserve corpus
    order."""
    import shutil

    import pyarrow.parquet as pq

    from lucene_ray.index.builder import build_index
    from lucene_ray.index.corpus import documents_as_corpus
    from lucene_ray.index.writer import add_indexes
    from lucene_ray.search.engine import IndexSearcher
    from lucene_ray.search.query import BooleanQuery, PhraseQuery, TermQuery

    full = documents_as_corpus(sf_dir)
    tag = hashlib.sha1(sf_dir.encode()).hexdigest()[:12]
    halves = []
    t = pq.read_table(full)
    n1 = t.num_rows // 2
    for i, sl in enumerate((t.slice(0, n1), t.slice(n1))):
        p = os.path.join("/tmp/lucene_ray_cache", f"docs_half{i}_{tag}.parquet")
        if not os.path.exists(p):
            pq.write_table(sl, p + ".tmp", row_group_size=16384)
            os.replace(p + ".tmp", p)
        halves.append(p)
    ix_b = os.path.join("/tmp/lucene_ray_cache", f"docs_addsrc_{tag}")
    build_index([halves[1]], ix_b, target_docs=4096)
    ix = os.path.join("/tmp/lucene_ray_cache", f"docs_addix_{tag}")
    marker = ix + ".done"
    if not os.path.exists(marker):
        shutil.rmtree(ix, ignore_errors=True)
        build_index([halves[0]], ix, target_docs=4096)
        add_indexes(ix, [ix_b])
        with open(marker, "w"):
            pass
    s = IndexSearcher(ix)
    queries = [
        (0, BooleanQuery(must=[TermQuery("merge")])),
        (1, BooleanQuery(must=[TermQuery("window")], must_not=[TermQuery("hash")])),
        (2, BooleanQuery(must=[PhraseQuery(("batch", "stream"))])),
    ]
    return _docsets(s, queries)


def addindexes_engine_sql() -> str:
    toks = tokenize_sql_expr("text")
    return f"""
WITH t AS (
  SELECT doc_id, {toks} AS l FROM documents
), tok AS (
  SELECT doc_id, unnest(l) AS term, generate_subscripts(l, 1) AS pos FROM t
)
SELECT DISTINCT 0 AS qid, doc_id AS docid FROM tok WHERE term = 'merge'
UNION ALL
SELECT DISTINCT 1, doc_id FROM tok WHERE term = 'window'
  AND doc_id NOT IN (SELECT doc_id FROM tok WHERE term = 'hash')
UNION ALL
SELECT DISTINCT 2, a.doc_id FROM tok a JOIN tok b
  ON b.doc_id = a.doc_id AND b.pos = a.pos + 1 AND b.term = 'stream'
  WHERE a.term = 'batch'
"""


def _htmlified_corpus(sf_dir: str) -> str:
    """Corpus-schema parquet whose content is the documents text wrapped in
    deterministic HTML markup (tags + entities between words) so the
    html-strip gate actually exercises the char filter."""
    import pyarrow.compute as pc
    import pyarrow.parquet as pq

    from lucene_ray.index.corpus import documents_as_corpus

    src = documents_as_corpus(sf_dir)
    out = os.path.join(
        "/tmp/lucene_ray_cache",
        "docs_html_" + hashlib.sha1(sf_dir.encode()).hexdigest()[:12] + ".parquet",
    )
    if os.path.exists(out):
        return out
    t = pq.read_table(src)
    content = t.column("content")
    content = pc.replace_substring(content, " ", " <br/>&nbsp;")
    content = pc.binary_join_element_wise(
        pa.array(['<html lang="x"><body>'] * t.num_rows),
        content.combine_chunks().cast(pa.string()),
        pa.array(["</body>&#10;</html>"] * t.num_rows),
        "",
    )
    t = t.set_column(t.schema.get_field_index("content"), "content", content)
    tmp = out + ".tmp"
    pq.write_table(t, tmp, row_group_size=16384)
    os.replace(tmp, out)
    return out


def htmlstrip_engine(sf_dir: str) -> pa.Table:
    """(qid, docid): queries against an index built from the HTML-ified
    corpus through HTMLStripAnalyzer — tags/entities must vanish (the tag
    words 'html'/'body'/'br'/'nbsp' never match), and positions must
    survive stripping (phrase query across an injected <br/>&nbsp;)."""
    from lucene_ray.search.engine import IndexSearcher
    from lucene_ray.search.query import BooleanQuery, PhraseQuery, TermQuery

    ix = _engine_index(sf_dir, corpus=_htmlified_corpus, analyzer_name="html")
    s = IndexSearcher(ix)
    queries = [
        (0, BooleanQuery(must=[TermQuery("merge")])),
        (1, BooleanQuery(must=[TermQuery("body")])),  # tag text stripped
        (2, BooleanQuery(must=[PhraseQuery(("batch", "stream"))])),
        (3, BooleanQuery(must=[TermQuery("scan")], must_not=[TermQuery("nbsp")])),
    ]
    return _docsets(s, queries)


def htmlstrip_engine_sql() -> str:
    from lucene_ray.analysis.analyzer import HTML_STRIP_SQL_PASSES

    html = (
        "'<html lang=\"x\"><body>' || replace(text, ' ', ' <br/>&nbsp;')"
        " || '</body>&#10;</html>'"
    )
    stripped = html
    for pat, repl in HTML_STRIP_SQL_PASSES:
        stripped = f"regexp_replace({stripped}, '{pat}', '{repl}', 'g')"
    toks = tokenize_sql_expr(stripped)
    return f"""
WITH t AS (
  SELECT doc_id, {toks} AS l FROM documents
), tok AS (
  SELECT doc_id, unnest(l) AS term, generate_subscripts(l, 1) AS pos FROM t
)
SELECT DISTINCT 0 AS qid, doc_id AS docid FROM tok WHERE term = 'merge'
UNION ALL
SELECT DISTINCT 1, doc_id FROM tok WHERE term = 'body'
UNION ALL
SELECT DISTINCT 2, a.doc_id FROM tok a JOIN tok b
  ON b.doc_id = a.doc_id AND b.pos = a.pos + 1 AND b.term = 'stream'
  WHERE a.term = 'batch'
UNION ALL
SELECT DISTINCT 3, doc_id FROM tok WHERE term = 'scan'
  AND doc_id NOT IN (SELECT doc_id FROM tok WHERE term = 'nbsp')
"""


def sort_engine(sf_dir: str, k: int = 20) -> pa.Table:
    """(qid, rank, docid): sort-by-field search (TopFieldCollector) — docs
    matching a term ordered by the n_chars doc value, desc and asc, docid
    tie-break."""
    from lucene_ray.search.engine import IndexSearcher, search_sorted

    ix = _engine_index(sf_dir)
    s = IndexSearcher(ix)
    # qids 0-1: numeric doc values; 2-3: SortField.Type.STRING over stored
    # keyword columns (ordinal comparator)
    return _ranked_table(
        (qid, search_sorted(s, term, fld, k=k, ascending=asc).docids)
        for qid, term, fld, asc in (
            (0, "merge", "n_chars", False),
            (1, "window", "n_chars", True),
            (2, "merge", "lang", True),
            (3, "window", "repo", False),
        )
    )


def sort_engine_sql(k: int = 20) -> str:
    parts = []
    # sort keys mirror documents_as_corpus: n_chars->length(text),
    # lang->lang, repo->source
    for qid, term, key, direction in (
        (0, "merge", "length(text)", "DESC"),
        (1, "window", "length(text)", "ASC"),
        (2, "merge", "lang", "ASC"),
        (3, "window", "source", "DESC"),
    ):
        parts.append(f"""
SELECT {qid} AS qid,
       (row_number() OVER (ORDER BY {key} {direction}, doc_id ASC) - 1)::INTEGER AS rank,
       doc_id AS docid
FROM documents
WHERE doc_id IN (SELECT DISTINCT doc_id FROM tok WHERE term = '{term}')
QUALIFY rank < {k}
""")
    union = "\nUNION ALL\n".join(parts)
    return f"""
{tok_cte()}
{union}
"""


def distsort_engine(sf_dir: str, k: int = 20) -> pa.Table:
    """(qid, rank, docid): sort_engine's numeric cases through the sharded
    DistributedSearcher (per-shard top-k under the shared total order,
    driver merge) — result-identical to the local TopFieldCollector path."""
    from lucene_ray.search.distributed import DistributedSearcher

    ix = _engine_index(sf_dir)
    dist = DistributedSearcher(ix, n_shards=3)
    return _ranked_table(
        (qid, dist.search_sorted(term, "n_chars", k=k, ascending=asc)[0])
        for qid, term, asc in ((0, "merge", False), (1, "window", True))
    )


def distsort_engine_sql(k: int = 20) -> str:
    parts = []
    for qid, term, direction in ((0, "merge", "DESC"), (1, "window", "ASC")):
        parts.append(f"""
SELECT {qid} AS qid,
       (row_number() OVER (ORDER BY length(text) {direction}, doc_id ASC) - 1)::INTEGER AS rank,
       doc_id AS docid
FROM documents
WHERE doc_id IN (SELECT DISTINCT doc_id FROM tok WHERE term = '{term}')
QUALIFY rank < {k}
""")
    union = "\nUNION ALL\n".join(parts)
    return f"""
{tok_cte()}
{union}
"""


def indexsort_engine(sf_dir: str, k: int = 40) -> pa.Table:
    """(qid, rank, docid, n_chars): index-time sorting
    (index/IndexSorter.java) — qid 0 rides the early-terminating sorted
    collector (query direction == index direction, k matches per sorted
    run); qid 1 queries the OPPOSITE direction on the same sorted index
    (transparent fallback). docid is the logical doc_id recovered from
    stored fields (engine docids are permuted on a sorted index).
    Float-free, SQL-checked exactly."""
    from lucene_ray.search.engine import IndexSearcher, fetch_stored, search_sorted

    # docids in n_chars order: doc_id comes back via stored 'doc/<doc_id>'
    ix = _engine_index(sf_dir, index_sort=("n_chars", "desc"))
    s = IndexSearcher(ix)
    out = {"qid": [], "rank": [], "docid": [], "n_chars": []}
    for qid, term, asc in ((0, "merge", False), (1, "window", True)):
        td = search_sorted(s, term, "n_chars", k=k, ascending=asc)
        stored = fetch_stored(s.reader, td.docids)
        doc_ids = [int(p.split("/")[1]) for p in stored.column("path").to_pylist()]
        out["qid"].extend([qid] * len(doc_ids))
        out["rank"].extend(range(len(doc_ids)))
        out["docid"].extend(doc_ids)
        out["n_chars"].extend(int(v) for v in td.values)
    return pa.table(
        {
            "qid": pa.array(out["qid"], type=pa.int64()),
            "rank": pa.array(out["rank"], type=pa.int32()),
            "docid": pa.array(out["docid"], type=pa.int64()),
            "n_chars": pa.array(out["n_chars"], type=pa.int64()),
        }
    )


def indexsort_engine_sql(k: int = 40) -> str:
    parts = []
    for qid, term, direction in ((0, "merge", "DESC"), (1, "window", "ASC")):
        parts.append(f"""
SELECT {qid} AS qid,
       (row_number() OVER (ORDER BY length(text) {direction}, doc_id ASC) - 1)::INTEGER AS rank,
       doc_id AS docid, length(text)::BIGINT AS n_chars
FROM documents
WHERE doc_id IN (SELECT DISTINCT doc_id FROM tok WHERE term = '{term}')
QUALIFY rank < {k}
""")
    union = "\nUNION ALL\n".join(parts)
    return f"""
{tok_cte()}
{union}
"""


def fieldexists_engine(sf_dir: str) -> pa.Table:
    """(qid, docid): FieldExistsQuery (search/FieldExistsQuery.java) over a
    corpus where every third doc has EMPTY content — qid 0 content-exists
    (zero-token docs are absent; norms-existence divergence documented on
    the query class), qid 1 a dense numeric-DV field (all docs), qid 2 an
    unknown field (nothing). Float-free, SQL-checked exactly."""
    import shutil
    import tempfile

    import pyarrow.parquet as pq

    from lucene_ray.index.builder import build_index
    from lucene_ray.search.engine import IndexSearcher
    from lucene_ray.search.query import BooleanQuery, FieldExistsQuery

    docs = pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    ids = docs.column("doc_id").to_numpy(zero_copy_only=False)
    order = np.argsort(ids)
    ids_s = ids[order]
    texts = docs.column("text").take(pa.array(order)).to_pylist()
    rows = [
        {"repo": "r", "path": f"d/{int(d)}", "commit": "0", "lang": "txt",
         "content": "" if int(d) % 3 == 0 else t}
        for d, t in zip(ids_s, texts)
    ]
    os.makedirs("/tmp/lucene_ray_cache", exist_ok=True)
    ix = tempfile.mkdtemp(prefix="docs_fe_", dir="/tmp/lucene_ray_cache")
    src = ix + "_corpus.parquet"
    pq.write_table(pa.Table.from_pylist(rows), src, row_group_size=256)
    try:
        build_index([src], ix, target_docs=512)
        s = IndexSearcher(ix)
        qs = [
            (0, FieldExistsQuery("content")),
            (1, FieldExistsQuery("n_chars")),
            (2, FieldExistsQuery("no_such_field")),
        ]
        return _docsets(s, ((qid, BooleanQuery(should=[q])) for qid, q in qs))
    finally:
        shutil.rmtree(ix, ignore_errors=True)
        if os.path.exists(src):
            os.remove(src)


def fieldexists_engine_sql() -> str:
    # the gate corpus blanks every third doc's content; docid == doc_id
    # rank (sorted doc_id order is row order, contiguous from 0)
    toks = tokenize_sql_expr("(CASE WHEN doc_id % 3 = 0 THEN '' ELSE text END)")
    return f"""
WITH ranked AS (
  SELECT doc_id, (row_number() OVER (ORDER BY doc_id) - 1) AS rk,
         {toks} AS l
  FROM documents
)
SELECT 0 AS qid, rk AS docid FROM ranked WHERE len(l) > 0
UNION ALL
SELECT 1 AS qid, rk AS docid FROM ranked
"""


# .005-offset bounds: shape edges land on .25-multiples of the 1e-4 grid,
# so no query boundary ever coincides with a shape edge (float-exact
# membership on both sides)
SHAPE_QUERIES = (
    (0, "intersects", 10.005, 40.005, -60.005, 0.005),
    (1, "within", 10.005, 40.005, -60.005, 0.005),
    (2, "disjoint", 10.005, 40.005, -60.005, 0.005),
    (3, "intersects", -5.005, 5.005, 100.005, 140.005),
    # contains: a box seated inside doc 5's rect (sf-independent)
    (4, "contains", -12.005, -11.705, 31.505, 32.005),
)


def shape_engine(sf_dir: str) -> pa.Table:
    """(qid, docid): indexed-shape bounding-box queries
    (document/LatLonShape.java newBoxQuery over tessellated triangles;
    relations INTERSECTS/WITHIN/DISJOINT) — per-triangle geometric tests
    in the engine; the SQL oracle uses the rects' interval algebra, so
    parity proves the triangle evaluation equals the shape-union
    semantics. Float-exact, SQL-checked exactly."""
    from lucene_ray.search.engine import IndexSearcher
    from lucene_ray.search.query import BooleanQuery, ShapeBoxQuery

    # tessellated-rect shapes; merged, so the docid-rebase merge path runs
    ix = _engine_index(sf_dir, shape_fields=("rect",))
    s = IndexSearcher(ix)
    return _docsets(s, (
        (qid, BooleanQuery(should=[
            ShapeBoxQuery("rect", la, lb, oa, ob, relation=rel)
        ]))
        for qid, rel, la, lb, oa, ob in SHAPE_QUERIES
    ))


def shape_engine_sql() -> str:
    from lucene_ray.search.spatial import synth_rect_sql

    lat0, lat1, lon0, lon1 = synth_rect_sql("doc_id")
    parts = []
    for qid, rel, la, lb, oa, ob in SHAPE_QUERIES:
        inter = (
            f"{lat1} >= {la!r} AND {lat0} <= {lb!r} AND "
            f"{lon1} >= {oa!r} AND {lon0} <= {ob!r}"
        )
        if rel == "intersects":
            cond = inter
        elif rel == "within":
            cond = (
                f"{lat0} >= {la!r} AND {lat1} <= {lb!r} AND "
                f"{lon0} >= {oa!r} AND {lon1} <= {ob!r}"
            )
        elif rel == "contains":
            cond = (
                f"{lat0} <= {la!r} AND {lat1} >= {lb!r} AND "
                f"{lon0} <= {oa!r} AND {lon1} >= {ob!r}"
            )
        else:
            cond = f"NOT ({inter})"
        parts.append(
            f"SELECT {qid} AS qid, doc_id AS docid FROM documents WHERE {cond}"
        )
    return "\nUNION ALL\n".join(parts)


# Diamond (rotated-square) query polygons: convex with edge normals
# (1,1)/(1,-1), so the rect-vs-polygon relation has an exact SAT /
# interval-algebra SQL form. Center/radius offsets (2.5e-5 / 3.7e-5) keep
# every predicate off the shapes' 1e-4 coordinate grid — no tangency, so
# the engine's geometric triangle tests and the oracle's closed forms
# decide identically. (clat, clon, r) per query.
SHAPE_POLY_QUERIES = (
    (0, "intersects", 20.000025, -30.000025, 25.000037),
    (1, "within", 20.000025, -30.000025, 60.000037),
    (2, "disjoint", 20.000025, -30.000025, 25.000037),
    # contains: diamonds seated inside doc 5's / doc 11's rects (synth_rect
    # is sf-independent, so these docs exist at every scale)
    (3, "contains", -11.869475, 31.884525, 0.125037),
    (4, "contains", 9.837125, -74.604125, 0.375037),
)


def _diamond(clat: float, clon: float, r: float):
    """((lats), (lons)) shell of the diamond |x-clon| + |y-clat| <= r,
    vertex 0 at the top (the CONTAINS reference vertex)."""
    return (
        (clat + r, clat, clat - r, clat),
        (clon, clon + r, clon, clon - r),
    )


def shape_polygon_engine(sf_dir: str) -> pa.Table:
    """(qid, docid): indexed-shape POLYGON queries
    (document/LatLonShape.java:298 newPolygonQuery; QueryRelation
    INTERSECTS/WITHIN/DISJOINT/CONTAINS incl. the :246 CONTAINS path over
    the sidecar's edge-origin flags) — per-triangle geometric tests in the
    engine; the SQL oracle is the rects' convex SAT / interval algebra, so
    parity proves the triangle evaluation equals shape-union semantics."""
    from lucene_ray.search.engine import IndexSearcher
    from lucene_ray.search.query import BooleanQuery, ShapePolygonQuery

    ix = _engine_index(sf_dir, shape_fields=("rect",))
    s = IndexSearcher(ix)
    return _docsets(s, (
        (qid, BooleanQuery(should=[
            ShapePolygonQuery("rect", _diamond(clat, clon, r), relation=rel)
        ]))
        for qid, rel, clat, clon, r in SHAPE_POLY_QUERIES
    ))


def shape_polygon_engine_sql() -> str:
    from lucene_ray.search.spatial import synth_rect_sql

    lat0, lat1, lon0, lon1 = synth_rect_sql("doc_id")
    parts = []
    for qid, rel, clat, clon, r in SHAPE_POLY_QUERIES:
        # SAT over the rect normals (x, y) and the diamond normals (x+y,
        # x-y): convex-convex separation is exactly one of these four axes
        inter = (
            f"{lon1} >= {clon - r!r} AND {lon0} <= {clon + r!r} AND "
            f"{lat1} >= {clat - r!r} AND {lat0} <= {clat + r!r} AND "
            f"({lon1} + {lat1}) >= {clon + clat - r!r} AND "
            f"({lon0} + {lat0}) <= {clon + clat + r!r} AND "
            f"({lon1} - {lat0}) >= {clon - clat - r!r} AND "
            f"({lon0} - {lat1}) <= {clon - clat + r!r}"
        )
        if rel == "intersects":
            cond = inter
        elif rel == "within":
            # rect inside the diamond: the L1-farthest rect corner is in
            cond = (
                f"GREATEST(ABS({lon0} - {clon!r}), ABS({lon1} - {clon!r})) + "
                f"GREATEST(ABS({lat0} - {clat!r}), ABS({lat1} - {clat!r})) "
                f"<= {r!r}"
            )
        elif rel == "contains":
            # diamond inside the rect: all four diamond vertices are in
            cond = (
                f"{lon0} <= {clon - r!r} AND {lon1} >= {clon + r!r} AND "
                f"{lat0} <= {clat - r!r} AND {lat1} >= {clat + r!r}"
            )
        else:
            cond = f"NOT ({inter})"
        parts.append(
            f"SELECT {qid} AS qid, doc_id AS docid FROM documents WHERE {cond}"
        )
    return "\nUNION ALL\n".join(parts)


# Axis-aligned query polylines (segments as ('h', lat, lon_a, lon_b) or
# ('v', lon, lat_a, lat_b)): rect-vs-axis-segment relations are pure
# interval algebra in SQL, while the engine runs the generic geometric
# kernels; off-grid offsets rule out tangency (same discipline as the
# polygon gate).
SHAPE_LINE_QUERIES = (
    (0, "intersects", (("h", 20.000025, -60.000025, 0.000025),)),
    (1, "disjoint", (("h", 20.000025, -60.000025, 0.000025),)),
    (2, "intersects", (
        ("h", 10.000025, -30.000025, 10.000025),
        ("v", 10.000025, 10.000025, 40.000025),
    )),
    # contains: a short horizontal run seated inside doc 5's rect
    (3, "contains", (("h", -11.869475, 31.505025, 32.005025),)),
)


def _polyline(segs):
    """((lats), (lons)) vertex tuples of a connected axis-aligned path."""
    lats, lons = [], []

    def push(la, lo):
        if not lats or lats[-1] != la or lons[-1] != lo:
            lats.append(la)
            lons.append(lo)

    for kind, c, a, b in segs:
        if kind == "h":
            push(c, a)
            push(c, b)
        else:
            push(a, c)
            push(b, c)
    return tuple(lats), tuple(lons)


def shape_line_engine(sf_dir: str) -> pa.Table:
    """(qid, docid): indexed-shape LINE queries (document/LatLonShape.java
    newLineQuery; INTERSECTS/DISJOINT/CONTAINS, the latter over the
    format-v9 edge-origin flags) — generic per-triangle geometry in the
    engine, rect-vs-axis-segment interval algebra in the oracle."""
    from lucene_ray.search.engine import IndexSearcher
    from lucene_ray.search.query import BooleanQuery, ShapeLineQuery

    ix = _engine_index(sf_dir, shape_fields=("rect",))
    s = IndexSearcher(ix)
    return _docsets(s, (
        (qid, BooleanQuery(should=[
            ShapeLineQuery("rect", *_polyline(segs), relation=rel)
        ]))
        for qid, rel, segs in SHAPE_LINE_QUERIES
    ))


def shape_line_engine_sql() -> str:
    from lucene_ray.search.spatial import synth_rect_sql

    lat0, lat1, lon0, lon1 = synth_rect_sql("doc_id")

    def seg_inter(seg):
        kind, c, a, b = seg
        if kind == "h":
            return (
                f"({lat0} <= {c!r} AND {lat1} >= {c!r} AND "
                f"{lon1} >= {a!r} AND {lon0} <= {b!r})"
            )
        return (
            f"({lon0} <= {c!r} AND {lon1} >= {c!r} AND "
            f"{lat1} >= {a!r} AND {lat0} <= {b!r})"
        )

    parts = []
    for qid, rel, segs in SHAPE_LINE_QUERIES:
        inter = " OR ".join(seg_inter(s) for s in segs)
        if rel == "intersects":
            cond = inter
        elif rel == "disjoint":
            cond = f"NOT ({inter})"
        else:  # contains: every vertex inside the rect (rects are convex)
            lats, lons = _polyline(segs)
            cond = (
                f"{lat0} <= {min(lats)!r} AND {lat1} >= {max(lats)!r} AND "
                f"{lon0} <= {min(lons)!r} AND {lon1} >= {max(lons)!r}"
            )
        parts.append(
            f"SELECT {qid} AS qid, doc_id AS docid FROM documents WHERE {cond}"
        )
    return "\nUNION ALL\n".join(parts)


SHAPE_POINT_QUERIES = (
    (0, "intersects", 20.000025, -30.000025),
    (1, "disjoint", 20.000025, -30.000025),
    (2, "intersects", -11.869475, 31.884525),  # inside doc 5's rect
)


def shape_point_engine(sf_dir: str) -> pa.Table:
    """(qid, docid): indexed-shape POINT queries (document/LatLonShape.java
    newPointQuery; INTERSECTS/DISJOINT) — point-in-triangle tests in the
    engine, point-in-rect interval algebra in the oracle."""
    from lucene_ray.search.engine import IndexSearcher
    from lucene_ray.search.query import BooleanQuery, ShapePointQuery

    ix = _engine_index(sf_dir, shape_fields=("rect",))
    s = IndexSearcher(ix)
    return _docsets(s, (
        (qid, BooleanQuery(should=[ShapePointQuery("rect", la, lo, relation=rel)]))
        for qid, rel, la, lo in SHAPE_POINT_QUERIES
    ))


def shape_point_engine_sql() -> str:
    from lucene_ray.search.spatial import synth_rect_sql

    lat0, lat1, lon0, lon1 = synth_rect_sql("doc_id")
    parts = []
    for qid, rel, la, lo in SHAPE_POINT_QUERIES:
        inside = (
            f"{lat0} <= {la!r} AND {lat1} >= {la!r} AND "
            f"{lon0} <= {lo!r} AND {lon1} >= {lo!r}"
        )
        cond = inside if rel == "intersects" else f"NOT ({inside})"
        parts.append(
            f"SELECT {qid} AS qid, doc_id AS docid FROM documents WHERE {cond}"
        )
    return "\nUNION ALL\n".join(parts)


NBCLASSIFY_TEXTS = [
    (0, "merge sort window"),
    (1, "batch stream data value"),
    (2, "customer table scan"),
]


def nbclassify_engine(sf_dir: str) -> pa.Table:
    """(qid, rank, cls, score): SimpleNaiveBayesClassifier
    (classification/SimpleNaiveBayesClassifier.java) — every lang class
    scored for each test text from index stats only; float64 scores are
    bit-identical to the SQL oracle (left-assoc ln chains in token
    order)."""
    from lucene_ray.search.classification import SimpleNaiveBayesClassifier
    from lucene_ray.search.engine import IndexSearcher

    ix = _engine_index(sf_dir)
    s = IndexSearcher(ix)
    clf = SimpleNaiveBayesClassifier(s, "lang")
    out = {"qid": [], "rank": [], "cls": [], "score": []}
    for qid, text in NBCLASSIFY_TEXTS:
        for rank, (cls, score) in enumerate(clf.assign_classes(text)):
            out["qid"].append(qid)
            out["rank"].append(rank)
            out["cls"].append(cls)
            out["score"].append(score)
    return pa.table(
        {
            "qid": pa.array(out["qid"], type=pa.int64()),
            "rank": pa.array(out["rank"], type=pa.int64()),
            "cls": pa.array(out["cls"], type=pa.string()),
            "score": pa.array(out["score"], type=pa.float64()),
        }
    )


def nbclassify_engine_sql() -> str:
    an = CodeAnalyzer()
    toks = tokenize_sql_expr("text")
    parts = []
    for qid, text in NBCLASSIFY_TEXTS:
        words = an.tokenize_text(text)
        lns = []
        for w in words:
            hits = (
                "(SELECT count(*) FROM documents d WHERE d.lang = c.lang AND "
                f"d.doc_id IN (SELECT DISTINCT doc_id FROM tok WHERE term = '{w}'))"
            )
            lns.append(
                f"ln(({hits} + 1) / "
                "((st.np / st.dcc) * c.dfc + st.dwc))"
            )
        chain = " + ".join(lns)
        parts.append(f"""
SELECT {qid} AS qid, c.lang AS cls,
       (ln(c.dfc) - ln(st.dwc)) + ({chain}) AS score
FROM classes c CROSS JOIN st
""")
    union = "\nUNION ALL\n".join(parts)
    return f"""
WITH t AS (
  SELECT doc_id, {toks} AS l FROM documents
), tok AS (
  SELECT doc_id, unnest(l) AS term FROM t
), st AS (
  SELECT (SELECT count(*) FROM (SELECT DISTINCT doc_id, term FROM tok))::DOUBLE AS np,
         (SELECT count(DISTINCT doc_id) FROM tok)::DOUBLE AS dcc,
         (SELECT count(*) FROM documents)::DOUBLE AS dwc
), classes AS (
  SELECT lang, count(*)::DOUBLE AS dfc FROM documents GROUP BY lang
), scored AS (
{union}
)
SELECT qid,
       (row_number() OVER (PARTITION BY qid ORDER BY score DESC, cls ASC) - 1)::BIGINT AS rank,
       cls, score
FROM scored
"""


DOUBLE_RANGES = [(4.0, 5.0), (5.0, 5.5), (5.5, 7.0), (4.5, 6.0)]  # overlap ok


def doublerange_engine(sf_dir: str) -> pa.Table:
    """(qid, ridx, n): DoubleRangeFacetCounts
    (facet/range/DoubleRangeFacetCounts.java) over the derived
    DoubleValuesSource ln(n_chars + 1) — [lo, hi) ranges, overlapping
    allowed, counts per range per query. Bit-exact both sides (libm ln
    through the _ulog LUT == DuckDB ln)."""
    from lucene_ray.search.engine import IndexSearcher, double_range_facet_counts

    ix = _engine_index(sf_dir)
    s = IndexSearcher(ix)
    out_q, out_r, out_n = [], [], []
    for qid, term in ((0, "merge"), (1, "window")):
        for ridx, n in double_range_facet_counts(s, term, "n_chars", DOUBLE_RANGES):
            out_q.append(qid)
            out_r.append(ridx)
            out_n.append(n)
    return pa.table(
        {
            "qid": pa.array(out_q, type=pa.int64()),
            "ridx": pa.array(out_r, type=pa.int64()),
            "n": pa.array(out_n, type=pa.int64()),
        }
    )


def doublerange_engine_sql() -> str:
    parts = []
    for qid, term in ((0, "merge"), (1, "window")):
        for ridx, (lo, hi) in enumerate(DOUBLE_RANGES):
            parts.append(f"""
SELECT {qid} AS qid, {ridx} AS ridx,
       CAST(count(*) FILTER (
         ln(length(text)::DOUBLE + 1.0) >= {lo!r} AND
         ln(length(text)::DOUBLE + 1.0) < {hi!r}
       ) AS BIGINT) AS n
FROM documents
WHERE doc_id IN (SELECT DISTINCT doc_id FROM tok WHERE term = '{term}')
""")
    union = "\nUNION ALL\n".join(parts)
    return f"""
{tok_cte()}
{union}
"""


SCOREDJOIN_QUERIES = ((0, "merge"), (1, "window"))


def scoredjoin_engine(sf_dir: str, k: int = 40) -> pa.Table:
    """(qid, rank, docid, n): query-time join with ScoreMode.Total
    (join/JoinUtil.java TermsWithScoreCollector) — to-docs ranked by the
    number of from-docs sharing their lang value (constant from-side
    scores make Total an integer support count). Float-free, SQL-checked
    exactly."""
    from lucene_ray.search.engine import IndexSearcher, join_query_scored

    ix = _engine_index(sf_dir)
    s = IndexSearcher(ix)
    out = {"qid": [], "rank": [], "docid": [], "n": []}
    for qid, term in SCOREDJOIN_QUERIES:
        td = join_query_scored(s, term, "lang", score_mode="total", k=k)
        out["qid"].extend([qid] * len(td.docids))
        out["rank"].extend(range(len(td.docids)))
        out["docid"].extend(td.docids.tolist())
        out["n"].extend(int(v) for v in td.values)
    return pa.table(
        {
            "qid": pa.array(out["qid"], type=pa.int64()),
            "rank": pa.array(out["rank"], type=pa.int64()),
            "docid": pa.array(out["docid"], type=pa.int64()),
            "n": pa.array(out["n"], type=pa.int64()),
        }
    )


def scoredjoin_engine_sql(k: int = 40) -> str:
    parts = []
    for qid, term in SCOREDJOIN_QUERIES:
        parts.append(f"""
SELECT {qid} AS qid,
       (row_number() OVER (ORDER BY s.n DESC, d.doc_id ASC) - 1)::BIGINT AS rank,
       d.doc_id AS docid, s.n
FROM documents d JOIN (
  SELECT lang, count(*)::BIGINT AS n FROM documents
  WHERE doc_id IN (SELECT DISTINCT doc_id FROM tok WHERE term = '{term}')
  GROUP BY lang
) s USING (lang)
QUALIFY rank < {k}
""")
    union = "\nUNION ALL\n".join(parts)
    return f"""
{tok_cte()}
{union}
"""


# numeric-key JoinUtil gates (join/.../JoinUtil.java:90,141 int/long
# overloads): from-side numeric DV collection -> PointInSetQuery to-side.
# (qid, from_term, max_terms, to_term or None)
NUMJOIN_QUERIES = (
    (0, "merge", 1 << 20, None),
    (1, "merge", 64, None),       # sorted-value cap exercised
    (2, "stream", 1 << 20, "window"),  # ANDed to-side query
)
NUMJOIN_SCORED_QUERIES = (
    (0, "merge", "total"),
    (1, "stream", "max"),
)


def numjoin_engine(sf_dir: str) -> pa.Table:
    """(qid, docid): numeric-key query-time join (JoinUtil int/long
    overloads): docs whose n_chars point equals ANY from-match's n_chars
    doc value (PointInSetQuery to-side; ScoreMode.None). Float-free,
    SQL-checked exactly — n_chars == length(text) in the oracle."""
    from lucene_ray.search.engine import IndexSearcher, join_query_numeric

    ix = _engine_index(sf_dir)
    s = IndexSearcher(ix)
    return _docsets(s, (
        (qid, join_query_numeric(
            s, term, "n_chars", max_terms=cap, to_query=to_term
        ))
        for qid, term, cap, to_term in NUMJOIN_QUERIES
    ))


def numjoin_engine_sql() -> str:
    parts = []
    for qid, term, cap, to_term in NUMJOIN_QUERIES:
        vals = (
            f"SELECT n_chars FROM (SELECT DISTINCT n_chars FROM documents "
            f"WHERE doc_id IN (SELECT doc_id FROM tok WHERE term = '{term}') "
            f"ORDER BY n_chars LIMIT {cap})"
        )
        cond = f"d.n_chars IN ({vals})"
        if to_term:
            cond += (
                f" AND d.doc_id IN "
                f"(SELECT doc_id FROM tok WHERE term = '{to_term}')"
            )
        parts.append(
            f"SELECT {qid} AS qid, d.doc_id AS docid FROM documents d "
            f"WHERE {cond}"
        )
    union = "\nUNION ALL\n".join(parts)
    return f"""
{tok_cte()}
{union}
"""


def numjoin_scored_engine(sf_dir: str, k: int = 40) -> pa.Table:
    """(qid, rank, docid, n): numeric-key join with ScoreMode.Total/Max
    (JoinUtil numeric overloads + TermsWithScoreCollector) — to-docs
    ranked by the number of from-docs sharing their n_chars value (Max
    collapses to constant 1). Float-free, SQL-checked exactly."""
    from lucene_ray.search.engine import IndexSearcher, join_query_numeric_scored

    ix = _engine_index(sf_dir)
    s = IndexSearcher(ix)
    out = {"qid": [], "rank": [], "docid": [], "n": []}
    for qid, term, mode in NUMJOIN_SCORED_QUERIES:
        td = join_query_numeric_scored(
            s, term, "n_chars", score_mode=mode, k=k
        )
        out["qid"].extend([qid] * len(td.docids))
        out["rank"].extend(range(len(td.docids)))
        out["docid"].extend(td.docids.tolist())
        out["n"].extend(int(v) for v in td.values)
    return pa.table(
        {
            "qid": pa.array(out["qid"], type=pa.int64()),
            "rank": pa.array(out["rank"], type=pa.int64()),
            "docid": pa.array(out["docid"], type=pa.int64()),
            "n": pa.array(out["n"], type=pa.int64()),
        }
    )


def numjoin_scored_engine_sql(k: int = 40) -> str:
    parts = []
    for qid, term, mode in NUMJOIN_SCORED_QUERIES:
        n_expr = "s.n" if mode == "total" else "1::BIGINT"
        parts.append(f"""
SELECT {qid} AS qid,
       (row_number() OVER (ORDER BY {n_expr} DESC, d.doc_id ASC) - 1)::BIGINT AS rank,
       d.doc_id AS docid, {n_expr} AS n
FROM documents d JOIN (
  SELECT n_chars, count(*)::BIGINT AS n FROM documents
  WHERE doc_id IN (SELECT DISTINCT doc_id FROM tok WHERE term = '{term}')
  GROUP BY n_chars
) s USING (n_chars)
QUALIFY rank < {k}
""")
    union = "\nUNION ALL\n".join(parts)
    return f"""
{tok_cte()}
{union}
"""


def allgroups_engine(sf_dir: str) -> pa.Table:
    """(qid, grp): AllGroupsCollector (grouping/AllGroupsCollector.java) —
    the distinct lang group values among each query's matches (its row
    count per qid is the groupCount). Float-free, SQL-checked exactly."""
    from lucene_ray.search.engine import IndexSearcher, all_groups

    ix = _engine_index(sf_dir)
    s = IndexSearcher(ix)
    out_q, out_g = [], []
    for qid, term in ((0, "merge"), (1, "stream"), (2, "zzzmissing")):
        for g in all_groups(s, term, "lang"):
            out_q.append(qid)
            out_g.append(g)
    return pa.table(
        {
            "qid": pa.array(out_q, type=pa.int64()),
            "grp": pa.array(out_g, type=pa.string()),
        }
    )


def allgroups_engine_sql() -> str:
    parts = []
    for qid, term in ((0, "merge"), (1, "stream"), (2, "zzzmissing")):
        parts.append(
            f"SELECT DISTINCT {qid} AS qid, lang AS grp FROM documents "
            f"WHERE doc_id IN (SELECT DISTINCT doc_id FROM tok WHERE term = '{term}')"
        )
    union = "\nUNION ALL\n".join(parts)
    return f"""
{tok_cte()}
{union}
"""


def sampledfacet_engine(sf_dir: str) -> pa.Table:
    """(qid, value, n): facet counts over a deterministic content-hash
    sample of each query's matches
    (facet/RandomSamplingFacetsCollector.java role; sampling key shared
    with ops/text.py sample_hash). Float-free, SQL-checked exactly."""
    from lucene_ray.ops.text import SAMPLE_DEN, SAMPLE_NUM
    from lucene_ray.search.engine import IndexSearcher, sampled_facet_counts

    ix = _engine_index(sf_dir)
    s = IndexSearcher(ix)
    out_q, out_v, out_n = [], [], []
    for qid, term in ((0, "merge"), (1, "window")):
        for value, n in sampled_facet_counts(
            s, term, "lang", SAMPLE_NUM, SAMPLE_DEN
        ):
            out_q.append(qid)
            out_v.append(value)
            out_n.append(n)
    return pa.table(
        {
            "qid": pa.array(out_q, type=pa.int64()),
            "value": pa.array(out_v, type=pa.string()),
            "n": pa.array(out_n, type=pa.int64()),
        }
    )


def sampledfacet_engine_sql() -> str:
    from lucene_ray.ops.text import SAMPLE_DEN, SAMPLE_NUM, hash_prefix_sql_expr

    parts = []
    for qid, term in ((0, "merge"), (1, "window")):
        parts.append(f"""
SELECT {qid} AS qid, lang AS value, count(*)::BIGINT AS n
FROM documents
WHERE doc_id IN (SELECT DISTINCT doc_id FROM tok WHERE term = '{term}')
  AND {hash_prefix_sql_expr('text')} % {SAMPLE_DEN} < {SAMPLE_NUM}
GROUP BY lang
""")
    union = "\nUNION ALL\n".join(parts)
    return f"""
{tok_cte()}
{union}
"""


def _grams3(word: str) -> tuple[str, ...]:
    return tuple(word[i : i + 3] for i in range(max(len(word) - 2, 1)))


NGRAMPHRASE_WORDS = (
    (0, "merge"),    # 3 grams: optimizable (keeps gram 0 and last)
    (1, "window"),   # 4 grams: optimizable (keeps 0, 3)
    (2, "sort"),     # 2 grams: NOT optimizable -> plain phrase path
    (3, "stream"),   # 4 grams
)


def ngramphrase_engine(sf_dir: str) -> pa.Table:
    """(qid, docid): NGramPhraseQuery (search/NGramPhraseQuery.java) — a
    word's consecutive 3-gram phrase evaluated through the i%n==0+last
    rewrite on the gram3 index. The SQL oracle runs the FULL gram phrase
    over a gram-position CTE, so the gate IS the optimization's
    equivalence proof. Float-free, SQL-checked exactly."""
    from lucene_ray.search.engine import IndexSearcher
    from lucene_ray.search.query import BooleanQuery, NGramPhraseQuery

    # fixed 3-grams at consecutive positions: the NGramPhraseQuery target
    ix = _engine_index(sf_dir, merge=False, analyzer_name="gram3")
    s = IndexSearcher(ix)
    return _docsets(s, (
        (qid, BooleanQuery(should=[NGramPhraseQuery(3, _grams3(word))]))
        for qid, word in NGRAMPHRASE_WORDS
    ))


def ngramphrase_engine_sql() -> str:
    toks = tokenize_sql_expr("text")
    parts = []
    for qid, word in NGRAMPHRASE_WORDS:
        grams = _grams3(word)
        joins = " ".join(
            f"JOIN gp g{j} ON g{j}.doc_id = g0.doc_id "
            f"AND g{j}.gpos = g0.gpos + {j} AND g{j}.gram = '{grams[j]}'"
            for j in range(1, len(grams))
        )
        parts.append(
            f"SELECT DISTINCT {qid} AS qid, g0.doc_id AS docid FROM gp g0 "
            + joins
            + f" WHERE g0.gram = '{grams[0]}'"
        )
    union = "\nUNION ALL\n".join(parts)
    return f"""
WITH t AS (
  SELECT doc_id, {toks} AS l FROM documents
), tok AS (
  SELECT doc_id, unnest(l) AS term, generate_subscripts(l, 1) AS tpos FROM t
), g AS (
  SELECT doc_id, tpos,
         [substr(term, i::INTEGER, 3)
          for i in generate_series(1, greatest(length(term) - 2, 1))] AS grams
  FROM tok
), gflat AS (
  SELECT doc_id, tpos, unnest(grams) AS gram,
         generate_subscripts(grams, 1) AS i
  FROM g
), gp AS (
  SELECT doc_id, gram,
         row_number() OVER (PARTITION BY doc_id ORDER BY tpos, i) AS gpos
  FROM gflat
)
{union}
"""


SURROUND_QUERIES: list[tuple[int, str, str]] = [
    # (qid, surround DSL string, DuckDB predicate over ptok/has_* CTEs)
    (0, "sort w merge",
     "SELECT DISTINCT t0.doc_id FROM ptok t0 JOIN ptok t1 ON t1.doc_id = "
     "t0.doc_id AND t1.term = 'merge' AND t1.pos > t0.pos "
     "WHERE t0.term = 'sort' AND (t1.pos - t0.pos - 1) <= 0"),
    (1, "sort 3w merge",
     "SELECT DISTINCT t0.doc_id FROM ptok t0 JOIN ptok t1 ON t1.doc_id = "
     "t0.doc_id AND t1.term = 'merge' AND t1.pos > t0.pos "
     "WHERE t0.term = 'sort' AND (t1.pos - t0.pos - 1) <= 2"),
    (2, "sort 2n merge",
     "SELECT DISTINCT t0.doc_id FROM ptok t0 JOIN ptok t1 ON t1.doc_id = "
     "t0.doc_id AND t1.term = 'merge' WHERE t0.term = 'sort' AND "
     "greatest(t0.pos, t1.pos) - least(t0.pos, t1.pos) <= 2"),
    (3, "or(sort, batch) w merge",
     "SELECT DISTINCT t0.doc_id FROM ptok t0 JOIN ptok t1 ON t1.doc_id = "
     "t0.doc_id AND t1.term = 'merge' AND t1.pos > t0.pos "
     "WHERE t0.term IN ('sort', 'batch') AND (t1.pos - t0.pos - 1) <= 0"),
    (4, "mer* w window",
     "SELECT DISTINCT t0.doc_id FROM ptok t0 JOIN ptok t1 ON t1.doc_id = "
     "t0.doc_id AND t1.term = 'window' AND t1.pos > t0.pos "
     "WHERE t0.term LIKE 'mer%' AND (t1.pos - t0.pos - 1) <= 0"),
    (5, "sort and merge not window",
     "SELECT doc_id FROM has_sort INTERSECT "
     "(SELECT doc_id FROM has_merge EXCEPT SELECT doc_id FROM has_window)"),
    (6, "AND(sort, OR(merge, window))",
     "SELECT doc_id FROM has_sort INTERSECT (SELECT doc_id FROM has_merge "
     "UNION SELECT doc_id FROM has_window)"),
]


def surround_engine(sf_dir: str) -> pa.Table:
    """(qid, docid): the surround query language end-to-end
    (queryparser/surround/parser/QueryParser.jj): W/N distance operators
    (infix + prefix, distance prefixes), boolean AND/OR/NOT, truncation
    inside spans. Float-free doc sets, SQL-checked exactly."""
    from lucene_ray.search.engine import IndexSearcher
    from lucene_ray.search.surround import SurroundQueryParser

    ix = _engine_index(sf_dir)
    s = IndexSearcher(ix)
    parser = SurroundQueryParser(s.analyzer)
    return _docsets(s, ((qid, parser.parse(q)) for qid, q, _sql in SURROUND_QUERIES))


def surround_engine_sql() -> str:
    toks = tokenize_sql_expr("text")
    terms = ["sort", "merge", "window", "batch"]
    ctes = ",\n".join(
        f"has_{t} AS (SELECT DISTINCT doc_id FROM tok WHERE term = '{t}')"
        for t in terms
    )
    parts = "\nUNION ALL\n".join(
        f"SELECT {qid} AS qid, doc_id AS docid FROM ({pred})"
        for qid, _q, pred in SURROUND_QUERIES
    )
    return f"""
WITH t AS (
  SELECT doc_id, {toks} AS l FROM documents
), tok AS (
  SELECT doc_id, unnest(l) AS term FROM t
), ptok AS (
  SELECT doc_id, unnest(l) AS term, generate_subscripts(l, 1) AS pos FROM t
),
{ctes}
{parts}
"""


SORTEDNUMERIC_RANGES = ((0, 0, 1), (1, 5, 6), (2, 9, 12))


def sortednumeric_engine(sf_dir: str, k: int = 20) -> pa.Table:
    """(qid, rank, docid): SORTED_NUMERIC doc values
    (index/SortedNumericDocValues.java + SortedNumericDocValuesField
    .newSlowRangeQuery + SortedNumericSelector MIN/MAX) — qids 0-2 are
    ANY-value-in-range doc sets (rank = -1), qid 3 sorts 'merge' matches
    by the MIN selector asc, qid 4 by MAX desc. Float-free, SQL-checked
    exactly."""
    from lucene_ray.search.engine import (
        IndexSearcher,
        fetch_sorted_numeric_selected,
    )
    from lucene_ray.search.query import BooleanQuery, SortedNumericRangeQuery

    ix = _engine_index(sf_dir, **_DV2_INDEX)
    s = IndexSearcher(ix)
    ranges = _docsets(s, (
        (qid, BooleanQuery(should=[SortedNumericRangeQuery("sig_nums", lo, hi)]))
        for qid, lo, hi in SORTEDNUMERIC_RANGES
    ))

    def sorted_top(selector: str, asc: bool):
        docids = s.matching_docs("merge")
        vals = fetch_sorted_numeric_selected(s.reader, docids, "sig_nums", selector)
        key = vals if asc else -vals
        return docids[np.lexsort((docids, key))[:k]]

    sorts = _ranked_table(
        ((qid, sorted_top(selector, asc))
         for qid, selector, asc in ((3, "min", True), (4, "max", False))),
        pa.int64(),
    )
    # range-query hits are unranked: rank -1
    unranked = pa.array(np.full(ranges.num_rows, -1, dtype=np.int64))
    return pa.concat_tables([ranges.add_column(1, "rank", unranked), sorts])


def sortednumeric_engine_sql(k: int = 20) -> str:
    res = "(length(text) % 7)", "(length(text) % 10)", "(length(text) % 13)"
    parts = []
    for qid, lo, hi in SORTEDNUMERIC_RANGES:
        any_in = " OR ".join(f"({r} BETWEEN {lo} AND {hi})" for r in res)
        parts.append(
            f"SELECT {qid} AS qid, -1 AS rank, doc_id AS docid "
            f"FROM documents WHERE {any_in}"
        )
    for qid, fn, direction in ((3, "least", "ASC"), (4, "greatest", "DESC")):
        sel = f"{fn}({', '.join(res)})"
        parts.append(f"""
SELECT {qid} AS qid,
       (row_number() OVER (ORDER BY {sel} {direction}, doc_id ASC) - 1)::BIGINT AS rank,
       doc_id AS docid
FROM documents
WHERE doc_id IN (SELECT DISTINCT doc_id FROM tok WHERE term = 'merge')
QUALIFY rank < {k}
""")
    union = "\nUNION ALL\n".join(parts)
    return f"""
{tok_cte()}
{union}
"""


def binarydv_engine(sf_dir: str) -> pa.Table:
    """(qid, docid, sha): BINARY doc values (index/BinaryDocValues.java) —
    the raw sha256(content) digest fetched per matching doc, emitted hex.
    SQL-checked exactly (DuckDB sha256)."""
    from lucene_ray.search.engine import IndexSearcher, fetch_binary_doc_values

    ix = _engine_index(sf_dir, **_DV2_INDEX)
    s = IndexSearcher(ix)
    out_q, out_d, out_h = [], [], []
    for qid, term in ((0, "merge"), (1, "window")):
        docids = s.matching_docs(term)
        blobs = fetch_binary_doc_values(s.reader, docids, "content_sha")
        out_q.extend([qid] * len(docids))
        out_d.extend(docids.tolist())
        out_h.extend(b.hex() for b in blobs)
    return pa.table(
        {
            "qid": pa.array(out_q, type=pa.int64()),
            "docid": pa.array(out_d, type=pa.int64()),
            "sha": pa.array(out_h, type=pa.string()),
        }
    )


def binarydv_engine_sql() -> str:
    parts = []
    for qid, term in ((0, "merge"), (1, "window")):
        parts.append(
            f"SELECT {qid} AS qid, doc_id AS docid, sha256(text) AS sha "
            f"FROM documents WHERE doc_id IN "
            f"(SELECT DISTINCT doc_id FROM tok WHERE term = '{term}')"
        )
    union = "\nUNION ALL\n".join(parts)
    return f"""
{tok_cte()}
{union}
"""


INDEXSORTRANGE_QUERIES = (
    (0, 100, 300),
    (1, 400, None),
    (2, None, 150),
)


def indexsortrange_engine(sf_dir: str) -> pa.Table:
    """(qid, docid): IndexSortSortedNumericDocValuesRangeQuery
    (search/IndexSortSortedNumericDocValuesRangeQuery.java) — numeric
    ranges answered by two binary searches per sorted run on the
    n_chars-desc sorted index. docid is the logical doc_id recovered from
    stored fields (sorted indexes permute engine docids). Float-free,
    SQL-checked exactly; a pytest pins equality with the fallback scan."""
    from lucene_ray.search.engine import (
        IndexSearcher,
        fetch_stored,
        index_sorted_range,
    )

    ix = _engine_index(sf_dir, index_sort=("n_chars", "desc"))
    s = IndexSearcher(ix)

    def doc_ids(lo: int, hi: int) -> list[int]:
        docids = index_sorted_range(s, "n_chars", lo, hi)
        if len(docids) == 0:
            return []
        stored = fetch_stored(s.reader, docids)
        return [int(p.split("/")[1]) for p in stored.column("path").to_pylist()]

    return _docset_table(
        (qid, doc_ids(lo, hi)) for qid, lo, hi in INDEXSORTRANGE_QUERIES
    )


def indexsortrange_engine_sql() -> str:
    parts = []
    for qid, lo, hi in INDEXSORTRANGE_QUERIES:
        conds = []
        if lo is not None:
            conds.append(f"length(text) >= {lo}")
        if hi is not None:
            conds.append(f"length(text) <= {hi}")
        parts.append(
            f"SELECT {qid} AS qid, doc_id AS docid FROM documents WHERE "
            + " AND ".join(conds)
        )
    return "\nUNION ALL\n".join(parts)


SUGGEST_INPUTS: list[tuple[int, str]] = [
    (0, "mrege"),   # transposed 'merge'
    (1, "windoe"),  # 'window' with a substitution
    (2, "tabel"),   # transposed 'table'
]


def suggest_engine(sf_dir: str, k: int = 3) -> pa.Table:
    """(qid, term, dist, df): spell-check suggestions for misspelled inputs
    — (edit distance asc, df desc, term asc) over the index vocabulary
    (DirectSpellChecker semantics; DuckDB levenshtein is the oracle)."""
    from lucene_ray.search.engine import IndexSearcher
    from lucene_ray.search.suggest import suggest_terms

    ix = _engine_index(sf_dir)
    s = IndexSearcher(ix)
    out_q, out_t, out_d, out_f = [], [], [], []
    for qid, inp in SUGGEST_INPUTS:
        for t, dist, df in suggest_terms(s.reader, inp, k=k):
            out_q.append(qid)
            out_t.append(t)
            out_d.append(dist)
            out_f.append(df)
    return pa.table(
        {
            "qid": pa.array(out_q, type=pa.int64()),
            "term": pa.array(out_t, type=pa.string()),
            "dist": pa.array(out_d, type=pa.int64()),
            "df": pa.array(out_f, type=pa.int64()),
        }
    )


def suggest_engine_sql(k: int = 3) -> str:
    parts = []
    for qid, inp in SUGGEST_INPUTS:
        parts.append(f"""
SELECT {qid} AS qid, term, levenshtein(term, '{inp}')::BIGINT AS dist, df::BIGINT AS df
FROM dfs
WHERE levenshtein(term, '{inp}') <= 2 AND term <> '{inp}'
QUALIFY row_number() OVER (ORDER BY levenshtein(term, '{inp}'), df DESC, term) <= {k}
""")
    union = "\nUNION ALL\n".join(parts)
    return f"""
{tok_cte()}, dfs AS (
  SELECT term, count(DISTINCT doc_id) AS df FROM tok GROUP BY term
)
{union}
"""


COMPLETE_INPUTS: list[tuple[int, str]] = [
    (0, "mer"),
    (1, "so"),
    (2, "win"),
    (3, "zzzz"),  # no completions
]


def complete_engine(sf_dir: str, k: int = 5) -> pa.Table:
    """(qid, term, df): prefix completions ranked (df desc, term asc) —
    the suggest module's Lookup over the term dictionary."""
    from lucene_ray.search.engine import IndexSearcher
    from lucene_ray.search.suggest import complete_terms

    ix = _engine_index(sf_dir)
    s = IndexSearcher(ix)
    out_q, out_t, out_f = [], [], []
    for qid, prefix in COMPLETE_INPUTS:
        for t, df in complete_terms(s.reader, prefix, k=k):
            out_q.append(qid)
            out_t.append(t)
            out_f.append(df)
    return pa.table(
        {
            "qid": pa.array(out_q, type=pa.int64()),
            "term": pa.array(out_t, type=pa.string()),
            "df": pa.array(out_f, type=pa.int64()),
        }
    )


def complete_engine_sql(k: int = 5) -> str:
    parts = []
    for qid, prefix in COMPLETE_INPUTS:
        parts.append(f"""
SELECT {qid} AS qid, term, df::BIGINT AS df
FROM dfs
WHERE term LIKE '{prefix}%'
QUALIFY row_number() OVER (ORDER BY df DESC, term) <= {k}
""")
    union = "\nUNION ALL\n".join(parts)
    return f"""
{tok_cte()}, dfs AS (
  SELECT term, count(DISTINCT doc_id) AS df FROM tok GROUP BY term
)
{union}
"""


def assocfacet_engine(sf_dir: str) -> pa.Table:
    """(qid, value, total): association facets — per facet label, the SUM
    of the n_chars doc value over docs matching the query
    (TaxonomyFacetIntAssociations.java:34, SUM aggregation)."""
    from lucene_ray.search.engine import IndexSearcher, facet_sum_values

    ix = _engine_index(sf_dir)
    s = IndexSearcher(ix)
    out_q, out_v, out_t = [], [], []
    for qid, q, field in FACET_QUERIES:
        for v, t in facet_sum_values(s, q, field, "n_chars"):
            out_q.append(qid)
            out_v.append(v)
            out_t.append(t)
    return pa.table(
        {
            "qid": pa.array(out_q, type=pa.int64()),
            "value": pa.array(out_v, type=pa.string()),
            "total": pa.array(out_t, type=pa.int64()),
        }
    )


def assocfacet_engine_sql() -> str:
    col = {"lang": "lang", "repo": "source"}
    parts = []
    for qid, q, field in FACET_QUERIES:
        terms = CodeAnalyzer().tokenize_text(q)
        union = " UNION ".join(
            f"SELECT DISTINCT doc_id FROM tok WHERE term = '{t}'" for t in terms
        )
        parts.append(
            f"SELECT {qid} AS qid, d.{col[field]} AS value,\n"
            f"       sum(length(d.text))::BIGINT AS total\n"
            f"FROM documents d WHERE d.doc_id IN ({union})\n"
            f"GROUP BY d.{col[field]}"
        )
    union_all = "\nUNION ALL\n".join(parts)
    return f"""
{tok_cte()}
{union_all}
"""


PERCOLATE_QUERIES: dict[int, str] = {
    0: "merge",
    1: "window table",
    2: '"hash scan"',
    3: "+stream -slow",
    4: '"the fast"~2',
}


def percolate_engine(sf_dir: str) -> "ray.data.Dataset":
    """(doc_id, query_id): percolation / reverse search — every document
    streamed against the registered query set (monitor/Monitor.java:44
    match; TermFilteredPresearcher.java:62 term prefilter). The query set
    is actor state (parsed once per actor); membership per query term is
    one vectorized bitvector over the batch."""
    from lucene_ray.search.monitor import percolate_dataset

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return percolate_dataset(ds, PERCOLATE_QUERIES)


def percolate_engine_sql() -> str:
    toks = tokenize_sql_expr("text")
    parts = [
        # 0: single term
        "SELECT DISTINCT doc_id, 0 AS query_id FROM tok WHERE term = 'merge'",
        # 1: default-OR two terms
        "SELECT DISTINCT doc_id, 1 AS query_id FROM tok"
        " WHERE term IN ('window', 'table')",
        # 2: exact phrase
        "SELECT DISTINCT t0.doc_id, 2 AS query_id FROM tok t0"
        " JOIN tok t1 ON t1.doc_id = t0.doc_id AND t1.pos = t0.pos + 1"
        " AND t1.term = 'scan' WHERE t0.term = 'hash'",
        # 3: +stream -slow
        "SELECT DISTINCT doc_id, 3 AS query_id FROM tok WHERE term = 'stream'"
        " AND doc_id NOT IN (SELECT doc_id FROM tok WHERE term = 'slow')",
        # 4: sloppy phrase slop 2 (adjusted-position span)
        "SELECT DISTINCT t0.doc_id, 4 AS query_id FROM tok t0"
        " JOIN tok t1 ON t1.doc_id = t0.doc_id AND t1.term = 'fast'"
        " WHERE t0.term = 'the' AND"
        " greatest(t0.pos, t1.pos - 1) - least(t0.pos, t1.pos - 1) <= 2",
    ]
    union = "\nUNION ALL\n".join(parts)
    return f"""
WITH t AS (
  SELECT doc_id, {toks} AS l FROM documents
), tok AS (
  SELECT doc_id, unnest(l) AS term, generate_subscripts(l, 1) AS pos FROM t
)
{union}
"""


WORDBREAK_INPUTS: list[tuple[int, str]] = [
    (0, "mergesort"),
    (1, "fastkey"),
    (2, "thequery"),
    (3, "zzznothing"),
]


def wordbreak_engine(sf_dir: str, k: int = 5) -> pa.Table:
    """(qid, left, right, df_sum): two-word breaks of unknown tokens whose
    halves both exist in the term dictionary, ranked by combined docFreq
    (WordBreakSpellChecker.java:71 suggestWordBreaks)."""
    from lucene_ray.search.engine import IndexSearcher
    from lucene_ray.search.suggest import word_breaks

    ix = _engine_index(sf_dir)
    s = IndexSearcher(ix)
    out_q, out_l, out_r, out_f = [], [], [], []
    for qid, w in WORDBREAK_INPUTS:
        for left, right, dfsum in word_breaks(s.reader, w, k=k):
            out_q.append(qid)
            out_l.append(left)
            out_r.append(right)
            out_f.append(dfsum)
    return pa.table(
        {
            "qid": pa.array(out_q, type=pa.int64()),
            "left": pa.array(out_l, type=pa.string()),
            "right": pa.array(out_r, type=pa.string()),
            "df_sum": pa.array(out_f, type=pa.int64()),
        }
    )


def wordbreak_engine_sql(k: int = 5) -> str:
    parts = []
    for qid, w in WORDBREAK_INPUTS:
        parts.append(f"""
SELECT {qid} AS qid, a.term AS left, b.term AS right,
       (a.df + b.df)::BIGINT AS df_sum
FROM dfs a JOIN dfs b ON a.term || b.term = '{w}'
QUALIFY row_number() OVER (
  ORDER BY a.df + b.df DESC, a.term, b.term) <= {k}
""")
    union = "\nUNION ALL\n".join(parts)
    return f"""
{tok_cte()}, dfs AS (
  SELECT term, count(DISTINCT doc_id) AS df FROM tok GROUP BY term
)
{union}
"""


MULTISYN_RULES = {("hash", "scan"): "table", ("fast", "key"): "vector"}
MULTISYN_QUERIES: list[tuple[int, str]] = [
    (0, "hash scan"),
    (1, "the fast key order"),
]


def multisyn_engine(sf_dir: str) -> pa.Table:
    """(qid, docid): query-time multi-token synonyms
    (SynonymGraphFilter.java:57 at query time via QueryBuilder.java:506
    analyzeGraphBoolean) — a consecutive-token run matching a rule LHS
    collapses into (exact phrase | synonym term), so qid 0 matches docs
    phrasing "hash scan" OR containing "table". Membership gate (scores
    are engine-quantized; docid sets are SQL-exact)."""
    from lucene_ray.analysis import get_analyzer
    from lucene_ray.search.engine import IndexSearcher
    from lucene_ray.search.query import apply_multi_synonyms, parse_query

    ix = _engine_index(sf_dir)
    s = IndexSearcher(ix)
    an = get_analyzer("code")
    return _docset_table(
        (qid, s.matching_docs(
            apply_multi_synonyms(parse_query(q, an), MULTISYN_RULES)
        ))
        for qid, q in MULTISYN_QUERIES
    )


def multisyn_engine_sql() -> str:
    toks = tokenize_sql_expr("text")
    an = CodeAnalyzer()
    parts = []
    for qid, q in MULTISYN_QUERIES:
        terms = an.tokenize_text(q)
        # reproduce apply_multi_synonyms over the SHOULD token list
        clauses = []
        i = 0
        while i < len(terms):
            hit = None
            for ln in range(len(terms) - i, 1, -1):
                if tuple(terms[i : i + ln]) in MULTISYN_RULES:
                    hit = ln
                    break
            if hit:
                lhs = tuple(terms[i : i + hit])
                joins = " ".join(
                    f"JOIN tok t{j} ON t{j}.doc_id = t0.doc_id"
                    f" AND t{j}.pos = t0.pos + {j}"
                    f" AND t{j}.term = '{lhs[j]}'"
                    for j in range(1, hit)
                )
                clauses.append(
                    f"SELECT DISTINCT t0.doc_id FROM tok t0 {joins}"
                    f" WHERE t0.term = '{lhs[0]}'"
                )
                clauses.append(
                    "SELECT DISTINCT doc_id FROM tok WHERE term = "
                    f"'{MULTISYN_RULES[lhs]}'"
                )
                i += hit
            else:
                clauses.append(
                    f"SELECT DISTINCT doc_id FROM tok WHERE term = '{terms[i]}'"
                )
                i += 1
        union = " UNION ".join(clauses)
        parts.append(
            f"SELECT {qid} AS qid, doc_id AS docid FROM ({union})"
        )
    union_all = "\nUNION ALL\n".join(parts)
    return f"""
WITH t AS (
  SELECT doc_id, {toks} AS toks FROM documents
), tok AS (
  SELECT doc_id, unnest(toks) AS term,
         generate_subscripts(toks, 1) AS pos
  FROM t
)
{union_all}
"""


def distfacet_engine(sf_dir: str) -> pa.Table:
    """(qid, value, count): facet_engine's cases through the sharded
    DistributedSearcher (per-shard facet dicts, driver sum) — result-
    identical to the local path, so it shares facet_engine's oracle."""
    from lucene_ray.search.distributed import DistributedSearcher

    ix = _engine_index(sf_dir)
    dist = DistributedSearcher(ix, n_shards=3)
    out_q, out_v, out_c = [], [], []
    for qid, q, field in FACET_QUERIES:
        for v, c in dist.facet_counts(q, field):
            out_q.append(qid)
            out_v.append(v)
            out_c.append(c)
    return pa.table(
        {
            "qid": pa.array(out_q, type=pa.int64()),
            "value": pa.array(out_v, type=pa.string()),
            "count": pa.array(out_c, type=pa.int64()),
        }
    )


INFIX_INPUTS: list[tuple[int, str]] = [
    (0, "er"),    # customer/filter/merge/order/query/vector — tests the k cut
    (1, "ow"),    # row/slow/window
    (2, "ta"),    # data/table
    (3, "qqq"),   # no matches
]


def infix_engine(sf_dir: str, k: int = 5) -> pa.Table:
    """(qid, term, df): infix (contains-anywhere) term suggestions ranked
    (df desc, term asc) — AnalyzingInfixSuggester.java:97 Lookup role."""
    from lucene_ray.search.engine import IndexSearcher
    from lucene_ray.search.suggest import infix_terms

    ix = _engine_index(sf_dir)
    s = IndexSearcher(ix)
    out_q, out_t, out_f = [], [], []
    for qid, frag in INFIX_INPUTS:
        for t, df in infix_terms(s.reader, frag, k=k):
            out_q.append(qid)
            out_t.append(t)
            out_f.append(df)
    return pa.table(
        {
            "qid": pa.array(out_q, type=pa.int64()),
            "term": pa.array(out_t, type=pa.string()),
            "df": pa.array(out_f, type=pa.int64()),
        }
    )


def infix_engine_sql(k: int = 5) -> str:
    parts = []
    for qid, frag in INFIX_INPUTS:
        parts.append(f"""
SELECT {qid} AS qid, term, df::BIGINT AS df
FROM dfs
WHERE instr(term, '{frag}') > 0
QUALIFY row_number() OVER (ORDER BY df DESC, term) <= {k}
""")
    union = "\nUNION ALL\n".join(parts)
    return f"""
{tok_cte()}, dfs AS (
  SELECT term, count(DISTINCT doc_id) AS df FROM tok GROUP BY term
)
{union}
"""


FACET_QUERIES: list[tuple[int, str, str]] = [
    (0, "merge", "lang"),
    (1, "window table", "repo"),
]


def facet_engine(sf_dir: str) -> pa.Table:
    """(qid, value, count): per-keyword-field hit counts for a query — the
    count-facet core. documents_as_corpus maps lang->lang, source->repo."""
    from lucene_ray.search.engine import IndexSearcher, facet_counts

    ix = _engine_index(sf_dir)
    s = IndexSearcher(ix)
    out_q, out_v, out_c = [], [], []
    for qid, q, field in FACET_QUERIES:
        for v, c in facet_counts(s, q, field):
            out_q.append(qid)
            out_v.append(v)
            out_c.append(c)
    return pa.table(
        {
            "qid": pa.array(out_q, type=pa.int64()),
            "value": pa.array(out_v, type=pa.string()),
            "count": pa.array(out_c, type=pa.int64()),
        }
    )


def facet_engine_sql() -> str:
    parts = []
    col = {"lang": "lang", "repo": "source"}
    for qid, q, field in FACET_QUERIES:
        terms = CodeAnalyzer().tokenize_text(q)
        union = " UNION ".join(
            f"SELECT DISTINCT doc_id FROM tok WHERE term = '{t}'" for t in terms
        )
        parts.append(
            f"SELECT {qid} AS qid, d.{col[field]} AS value, count(*)::BIGINT AS count\n"
            f"FROM documents d WHERE d.doc_id IN ({union})\n"
            f"GROUP BY d.{col[field]}"
        )
    union_all = "\nUNION ALL\n".join(parts)
    return f"""
{tok_cte()}
{union_all}
"""


TAXFACET_QUERIES: list[tuple[int, str]] = [
    (0, "merge"),
    (1, "window table"),
]
TAXFACET_PATH = ("repo", "lang")  # repo <- source column, lang <- lang


def taxfacet_engine(sf_dir: str) -> pa.Table:
    """(qid, path, count): hierarchical taxonomy facet counts
    (facet/.../taxonomy/FastTaxonomyFacetCounts.java:46) — every matching
    doc counts under each PREFIX of its source/lang path ('a' and 'a/b'),
    the ancestor-ordinal rollup. Oracle: per-depth GROUP BY unioned."""
    from lucene_ray.search.engine import IndexSearcher, taxonomy_facet_counts

    ix = _engine_index(sf_dir)
    s = IndexSearcher(ix)
    out_q, out_p, out_c = [], [], []
    for qid, q in TAXFACET_QUERIES:
        for p, c in taxonomy_facet_counts(s, q, TAXFACET_PATH):
            out_q.append(qid)
            out_p.append(p)
            out_c.append(c)
    return pa.table(
        {
            "qid": pa.array(out_q, type=pa.int64()),
            "path": pa.array(out_p, type=pa.string()),
            "count": pa.array(out_c, type=pa.int64()),
        }
    )


def taxfacet_engine_sql() -> str:
    parts = []
    for qid, q in TAXFACET_QUERIES:
        terms = CodeAnalyzer().tokenize_text(q)
        union = " UNION ".join(
            f"SELECT DISTINCT doc_id FROM tok WHERE term = '{t}'" for t in terms
        )
        parts.append(
            f"SELECT {qid} AS qid, d.source AS path, count(*)::BIGINT AS count\n"
            f"FROM documents d WHERE d.doc_id IN ({union}) GROUP BY d.source"
        )
        parts.append(
            f"SELECT {qid} AS qid, d.source || '/' || d.lang AS path,\n"
            f"       count(*)::BIGINT AS count\n"
            f"FROM documents d WHERE d.doc_id IN ({union})\n"
            f"GROUP BY d.source || '/' || d.lang"
        )
    union_all = "\nUNION ALL\n".join(parts)
    return f"""
{tok_cte()}
{union_all}
"""


DRILLSIDEWAYS_CASES: list[tuple[int, str, dict]] = [
    (0, "merge", {"repo": "src3", "lang": "de"}),
    (1, "window table", {"repo": "src7", "lang": "en"}),
]


def _ds_base_query(q: str):
    from lucene_ray.analysis import CodeAnalyzer
    from lucene_ray.search.query import DisjunctionSumQuery, TermQuery

    toks = CodeAnalyzer().tokenize_text(q)
    if len(toks) == 1:
        return TermQuery(toks[0])
    return DisjunctionSumQuery(tuple(TermQuery(t) for t in toks))


def drillsideways_engine(sf_dir: str) -> pa.Table:
    """(qid, dim, value, count): DrillSideways near-miss faceting
    (facet/.../DrillSideways.java:70) — for each drilled-down dimension,
    facet counts over docs matching the base query plus every OTHER
    dimension's selection; one extra row per case (dim='hits', value='')
    carries the fully-drilled-down hit count. documents_as_corpus maps
    source->repo, lang->lang."""
    from lucene_ray.search.engine import IndexSearcher, drill_sideways_counts

    ix = _engine_index(sf_dir)
    s = IndexSearcher(ix)
    out_q, out_d, out_v, out_c = [], [], [], []
    for qid, q, downs in DRILLSIDEWAYS_CASES:
        hits, sideways = drill_sideways_counts(s, _ds_base_query(q), downs)
        out_q.append(qid)
        out_d.append("hits")
        out_v.append("")
        out_c.append(hits)
        for dim, pairs in sideways.items():
            for v, c in pairs:
                out_q.append(qid)
                out_d.append(dim)
                out_v.append(v)
                out_c.append(c)
    return pa.table(
        {
            "qid": pa.array(out_q, type=pa.int64()),
            "dim": pa.array(out_d, type=pa.string()),
            "value": pa.array(out_v, type=pa.string()),
            "count": pa.array(out_c, type=pa.int64()),
        }
    )


def drillsideways_engine_sql() -> str:
    col = {"lang": "lang", "repo": "source"}
    parts = []
    for qid, q, downs in DRILLSIDEWAYS_CASES:
        terms = CodeAnalyzer().tokenize_text(q)
        union = " UNION ".join(
            f"SELECT DISTINCT doc_id FROM tok WHERE term = '{t}'" for t in terms
        )
        all_filters = " AND ".join(
            f"d.{col[f]} = '{v}'" for f, v in downs.items()
        )
        parts.append(
            f"SELECT {qid} AS qid, 'hits' AS dim, '' AS value,\n"
            f"       count(*)::BIGINT AS count\n"
            f"FROM documents d WHERE d.doc_id IN ({union}) AND {all_filters}"
        )
        for dim in downs:
            others = " AND ".join(
                f"d.{col[f]} = '{v}'" for f, v in downs.items() if f != dim
            )
            parts.append(
                f"SELECT {qid} AS qid, '{dim}' AS dim,\n"
                f"       d.{col[dim]} AS value, count(*)::BIGINT AS count\n"
                f"FROM documents d WHERE d.doc_id IN ({union}) AND {others}\n"
                f"GROUP BY d.{col[dim]}"
            )
    union_all = "\nUNION ALL\n".join(parts)
    return f"""
{tok_cte()}
{union_all}
"""


def disttax_engine(sf_dir: str) -> pa.Table:
    """(qid, path, count): taxfacet_engine through the sharded
    DistributedSearcher (per-shard prefix-rollup dicts, driver sum) —
    identical results, so it shares taxfacet_engine's oracle."""
    from lucene_ray.search.distributed import DistributedSearcher

    ix = _engine_index(sf_dir)
    dist = DistributedSearcher(ix, n_shards=3)
    out_q, out_p, out_c = [], [], []
    for qid, q in TAXFACET_QUERIES:
        for p, c in dist.taxonomy_facet_counts(q, TAXFACET_PATH):
            out_q.append(qid)
            out_p.append(p)
            out_c.append(c)
    return pa.table(
        {
            "qid": pa.array(out_q, type=pa.int64()),
            "path": pa.array(out_p, type=pa.string()),
            "count": pa.array(out_c, type=pa.int64()),
        }
    )


def update_engine(sf_dir: str) -> pa.Table:
    """(qid, docid): deletes/updates through the tombstone machinery —
    docs with doc_id % 7 == 0 are UPDATED (tombstone + re-add with
    ' zzupdated' appended). qid 0 = hits for the new marker term (only the
    re-added docs, at their new docids N+rank); qid 1 = hits for 'merge'
    (old docids for untouched docs, new docids for updated docs that had
    the term). Oracle: latest-row-per-key SQL over the raw table.
    (IndexWriter.java:1834 updateDocument; Lucene90LiveDocsFormat.)"""
    import shutil
    import tempfile

    import pyarrow.parquet as pq

    from lucene_ray.index.builder import build_index
    from lucene_ray.index.corpus import documents_as_corpus
    from lucene_ray.index.writer import add_documents, delete_docs
    from lucene_ray.search.engine import IndexSearcher

    corpus_path = documents_as_corpus(sf_dir)
    os.makedirs("/tmp/lucene_ray_cache", exist_ok=True)
    ix = tempfile.mkdtemp(prefix="docs_upd_", dir="/tmp/lucene_ray_cache")
    try:
        build_index([corpus_path], ix, target_docs=8192)
        docs = pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
        ids = docs.column("doc_id").to_numpy(zero_copy_only=False)
        upd = np.nonzero(ids % 7 == 0)[0]
        upd = upd[np.argsort(ids[upd])]  # new docids follow doc_id order
        delete_docs(ix, ids[upd])  # docid == doc_id (row-order invariant)
        texts = docs.column("text").take(pa.array(upd)).to_pylist()
        n_up = len(upd)
        add_documents(
            ix,
            pa.table(
                {
                    "repo": pa.array(["upd"] * n_up),
                    "path": pa.array([f"upd/{int(i)}" for i in ids[upd]]),
                    "commit": pa.array(["u0"] * n_up),
                    "lang": pa.array(["txt"] * n_up),
                    "content": pa.array([t + " zzupdated" for t in texts]),
                }
            ),
        )
        s = IndexSearcher(ix)
        return _docsets(s, ((0, "zzupdated"), (1, "merge")))
    finally:
        shutil.rmtree(ix, ignore_errors=True)


def update_engine_sql() -> str:
    return f"""
{tok_cte()}, n AS (
  SELECT count(*) AS c FROM documents
), upd AS (
  SELECT doc_id, row_number() OVER (ORDER BY doc_id) - 1 AS rn
  FROM documents WHERE doc_id % 7 = 0
), has_merge AS (
  SELECT DISTINCT doc_id FROM tok WHERE term = 'merge'
)
SELECT 0 AS qid, n.c + upd.rn AS docid FROM upd CROSS JOIN n
UNION ALL
SELECT 1, doc_id FROM has_merge WHERE doc_id % 7 != 0
UNION ALL
SELECT 1, n.c + upd.rn FROM upd JOIN has_merge USING (doc_id) CROSS JOIN n
"""


MULTITERM_QUERIES = [
    # (qid, engine query object factory, SQL token predicate)
    (0, lambda: __import__("lucene_ray.search.query", fromlist=["PrefixQuery"]).PrefixQuery("s"), "term LIKE 's%'"),
    (1, lambda: __import__("lucene_ray.search.query", fromlist=["WildcardQuery"]).WildcardQuery("?atch"), "regexp_matches(term, '^.atch$')"),
    (2, lambda: __import__("lucene_ray.search.query", fromlist=["TermRangeQuery"]).TermRangeQuery("q", "t", True, False), "term >= 'q' AND term < 't'"),
    (3, lambda: __import__("lucene_ray.search.query", fromlist=["FuzzyQuery"]).FuzzyQuery("jion", 2), "levenshtein(term, 'jion') <= 2"),
    (4, lambda: __import__("lucene_ray.search.query", fromlist=["TermInSetQuery"]).TermInSetQuery(("merge", "window", "zzz")), "term IN ('merge', 'window', 'zzz')"),
    # real regex (anchored fullmatch, same RE semantics both sides)
    (5, lambda: __import__("lucene_ray.search.query", fromlist=["RegexpQuery"]).RegexpQuery("s[ct]a[nr].*"), "regexp_matches(term, '^s[ct]a[nr].*$')"),
    (6, lambda: __import__("lucene_ray.search.query", fromlist=["RegexpQuery"]).RegexpQuery("(merge|window)s?"), "regexp_matches(term, '^(merge|window)s?$')"),
]


def multiterm_engine(sf_dir: str) -> pa.Table:
    """(qid, docid): multi-term queries (prefix/wildcard/range/fuzzy/set)
    rewritten against the term dictionary and executed by the engine —
    float-free doc sets, SQL-checked exactly (fuzzy via DuckDB levenshtein,
    which matches the engine's Levenshtein distance by definition of edit
    distance)."""
    from lucene_ray.search.engine import IndexSearcher
    from lucene_ray.search.query import BooleanQuery

    ix = _engine_index(sf_dir)
    s = IndexSearcher(ix)
    return _docsets(s, (
        (qid, BooleanQuery(should=[qf()]))
        for qid, qf, _sql in MULTITERM_QUERIES
    ))


def multiterm_engine_sql() -> str:
    parts = [
        f"SELECT DISTINCT {qid} AS qid, doc_id AS docid FROM tok WHERE {pred}"
        for qid, _qf, pred in MULTITERM_QUERIES
    ]
    union = "\nUNION ALL\n".join(parts)
    return f"""
{tok_cte()}
{union}
"""


PARSER_QUERIES: list[tuple[int, str, str]] = [
    # (qid, classic-syntax query STRING, DuckDB doc-set predicate) —
    # exercises the recursive grammar (QueryParser.java:84): arbitrary
    # nesting, [a TO b] / {a TO b} ranges (numeric points, keyword, and
    # analyzed default field), field:(...) groups, NOT inside groups,
    # negated groups, AND promotion across group boundaries.
    (0, "((merge AND sort) OR (window AND batch))",
     "SELECT doc_id FROM (SELECT doc_id FROM has_merge INTERSECT "
     "SELECT doc_id FROM has_sort UNION SELECT doc_id FROM has_window "
     "INTERSECT SELECT doc_id FROM has_batch)"),
    (1, "merge AND (sort OR NOT window)",
     "SELECT doc_id FROM has_merge INTERSECT "
     "(SELECT doc_id FROM has_sort EXCEPT SELECT doc_id FROM has_window)"),
    (2, "(merge OR (sort AND (window OR batch)))",
     "SELECT doc_id FROM has_merge UNION (SELECT doc_id FROM has_sort "
     "INTERSECT (SELECT doc_id FROM has_window UNION SELECT doc_id FROM has_batch))"),
    (3, "n_chars:[100 TO 300]",
     "SELECT doc_id FROM documents WHERE length(text) BETWEEN 100 AND 300"),
    (4, "n_chars:{100 TO 300}",
     "SELECT doc_id FROM documents WHERE length(text) > 100 AND length(text) < 300"),
    (5, "n_chars:[400 TO *]",
     "SELECT doc_id FROM documents WHERE length(text) >= 400"),
    (6, "lang:[en TO fr]",
     "SELECT doc_id FROM documents WHERE lang >= 'en' AND lang <= 'fr'"),
    (7, "lang:(en es) AND merge",
     "SELECT doc_id FROM documents WHERE lang IN ('en', 'es') "
     "INTERSECT SELECT doc_id FROM has_merge"),
    (8, "[q TO t]",
     "SELECT DISTINCT doc_id FROM tok WHERE term >= 'q' AND term <= 't'"),
    (9, "-(merge window) batch",
     "SELECT doc_id FROM has_batch EXCEPT (SELECT doc_id FROM has_merge "
     "UNION SELECT doc_id FROM has_window)"),
    (10, "repo:[src1 TO src2}",
     "SELECT doc_id FROM documents WHERE source >= 'src1' AND source < 'src2'"),
    (11, 'lang:"de"',
     "SELECT doc_id FROM documents WHERE lang = 'de'"),
]


SIMPLEPARSER_QUERIES: list[tuple[int, str, str]] = [
    # (qid, SimpleQueryParser-syntax STRING, DuckDB doc-set predicate) —
    # lenient grammar (queryparser/simple/SimpleQueryParser.java): infix
    # +/| with left-assoc regrouping on operator change, '-' negation as
    # (NOT x OR *), trailing-* prefix, "..."~N sloppy phrase, ~N fuzzy,
    # and the never-throw recovery rules (q6: unmatched quote and paren).
    (0, "merge window",
     "SELECT doc_id FROM has_merge UNION SELECT doc_id FROM has_window"),
    (1, "merge+window -stream",
     "SELECT doc_id FROM has_merge INTERSECT SELECT doc_id FROM has_window "
     "UNION SELECT doc_id FROM documents WHERE doc_id NOT IN "
     "(SELECT doc_id FROM has_stream)"),
    (2, '"sort merge"~2 | batch',
     "SELECT DISTINCT t0.doc_id FROM ptok t0 JOIN ptok t1 USING (doc_id) "
     "WHERE t0.term = 'sort' AND t1.term = 'merge' AND "
     "greatest(t0.pos - 0, t1.pos - 1) - least(t0.pos - 0, t1.pos - 1) <= 2 "
     "UNION SELECT doc_id FROM has_batch"),
    (3, "mer* window",
     "SELECT DISTINCT doc_id FROM tok WHERE term LIKE 'mer%' "
     "UNION SELECT doc_id FROM has_window"),
    (4, "windoq~1",
     "SELECT DISTINCT doc_id FROM tok WHERE levenshtein(term, 'windoq') <= 1"),
    (5, "(merge | window) +batch",
     "SELECT doc_id FROM (SELECT doc_id FROM has_merge UNION "
     "SELECT doc_id FROM has_window) INTERSECT SELECT doc_id FROM has_batch"),
    (6, '"sort (merge -',
     "SELECT doc_id FROM has_sort UNION SELECT doc_id FROM has_merge"),
]


def simpleparser_engine(sf_dir: str) -> pa.Table:
    """(qid, docid): SimpleQueryParser end-to-end — each query STRING runs
    through the lenient state machine (search/simpleparser.py) and the
    engine. Float-free doc sets, SQL-checked exactly."""
    from lucene_ray.search.engine import IndexSearcher
    from lucene_ray.search.simpleparser import SimpleQueryParser

    ix = _engine_index(sf_dir)
    s = IndexSearcher(ix)
    parser = SimpleQueryParser(s.analyzer)
    return _docsets(s, (
        (qid, parser.parse(q))
        for qid, q, _sql in SIMPLEPARSER_QUERIES
    ))


def simpleparser_engine_sql() -> str:
    toks = tokenize_sql_expr("text")
    terms = ["merge", "window", "stream", "batch", "sort"]
    ctes = ",\n".join(
        f"has_{t} AS (SELECT DISTINCT doc_id FROM tok WHERE term = '{t}')"
        for t in terms
    )
    parts = "\nUNION ALL\n".join(
        f"SELECT {qid} AS qid, doc_id AS docid FROM ({pred})"
        for qid, _q, pred in SIMPLEPARSER_QUERIES
    )
    return f"""
WITH t AS (
  SELECT doc_id, {toks} AS l FROM documents
), tok AS (
  SELECT doc_id, unnest(l) AS term FROM t
), ptok AS (
  SELECT doc_id, unnest(l) AS term, generate_subscripts(l, 1) AS pos FROM t
),
{ctes}
{parts}
"""


# Classic-parser escaping gate (QueryParser.jj _ESCAPED_CHAR +
# QueryParserBase.discardEscapeChar/escape): each PAIR of queries
# contrasts the escaped-literal reading with the live-operator reading.
PARSER_ESCAPE_QUERIES: list[tuple[int, str]] = [
    (0, r"\+merge sort"),     # literal '+' -> OR of merge, sort
    (1, "+merge sort"),       # live '+'    -> MUST merge
    (2, r"mer\*"),            # literal '*' -> exact term 'mer'
    (3, "mer*"),              # live '*'    -> wildcard
    (4, r"lang\:en merge"),   # literal ':' -> content terms lang, en, merge
    (5, "lang:en AND merge"), # live ':'    -> keyword field match
    (6, r"path:doc\/5"),      # escaped '/' inside a keyword value
    (7, r"merge\~1"),         # literal '~' -> terms merge, 1
    (8, "merge~1"),           # live '~'    -> fuzzy, 1 edit
    (9, r'"merge \"sort\""'), # escaped quotes INSIDE a phrase
    (10, "m\\u0065rge"),   # \uXXXX unicode escape -> 'merge'
    (11, r"\-merge sort"),    # literal '-' -> OR of merge, sort
    (12, "-merge sort"),      # live '-'    -> MUST_NOT merge
    (13, r"so\(rt\) \(merge\)"),  # literal parens -> terms so, rt, merge
]


def parser_escape_engine(sf_dir: str) -> pa.Table:
    """(qid, docid): classic-parser escape grammar end-to-end — every query
    string parses through parse_query (escape-aware lexer + discardEscapeChar)
    and runs on the real index. Float-free doc sets, SQL-checked exactly."""
    from lucene_ray.search.engine import IndexSearcher
    from lucene_ray.search.query import parse_query

    ix = _engine_index(sf_dir)
    s = IndexSearcher(ix)
    return _docsets(s, (
        (qid, parse_query(q, s.analyzer))
        for qid, q in PARSER_ESCAPE_QUERIES
    ))


def parser_escape_engine_sql() -> str:
    toks = tokenize_sql_expr("text")
    parts = [
        "SELECT DISTINCT 0 AS qid, doc_id AS docid FROM tok "
        "WHERE term IN ('merge', 'sort')",
        "SELECT DISTINCT 1 AS qid, doc_id AS docid FROM tok WHERE term = 'merge'",
        "SELECT DISTINCT 2 AS qid, doc_id AS docid FROM tok WHERE term = 'mer'",
        "SELECT DISTINCT 3 AS qid, doc_id AS docid FROM tok "
        "WHERE term LIKE 'mer%'",
        "SELECT DISTINCT 4 AS qid, doc_id AS docid FROM tok "
        "WHERE term IN ('lang', 'en', 'merge')",
        "SELECT DISTINCT 5 AS qid, a.doc_id AS docid FROM tok a "
        "JOIN documents d ON d.doc_id = a.doc_id "
        "WHERE d.lang = 'en' AND a.term = 'merge'",
        "SELECT 6 AS qid, doc_id AS docid FROM documents WHERE doc_id = 5",
        "SELECT DISTINCT 7 AS qid, doc_id AS docid FROM tok "
        "WHERE term IN ('merge', '1')",
        "SELECT DISTINCT 8 AS qid, doc_id AS docid FROM tok WHERE term IN "
        "(SELECT term FROM (SELECT DISTINCT term FROM tok) "
        "WHERE levenshtein(term, 'merge') <= 1)",
        "SELECT DISTINCT 9 AS qid, p0.doc_id AS docid FROM ptok p0 "
        "JOIN ptok p1 ON p1.doc_id = p0.doc_id AND p1.pos = p0.pos + 1 "
        "AND p1.term = 'sort' WHERE p0.term = 'merge'",
        "SELECT DISTINCT 10 AS qid, doc_id AS docid FROM tok WHERE term = 'merge'",
        "SELECT DISTINCT 11 AS qid, doc_id AS docid FROM tok "
        "WHERE term IN ('merge', 'sort')",
        "SELECT DISTINCT 12 AS qid, doc_id AS docid FROM tok "
        "WHERE term = 'sort' AND doc_id NOT IN "
        "(SELECT doc_id FROM tok WHERE term = 'merge')",
        "SELECT DISTINCT 13 AS qid, doc_id AS docid FROM tok "
        "WHERE term IN ('so', 'rt', 'merge')",
    ]
    union = "\nUNION ALL\n".join(parts)
    return f"""
WITH t AS (
  SELECT doc_id, {toks} AS l FROM documents
), tok AS (
  SELECT doc_id, unnest(l) AS term FROM t
), ptok AS (
  SELECT doc_id, unnest(l) AS term, generate_subscripts(l, 1) AS pos FROM t
)
{union}
"""


# XML CoreParser gate (queryparser/xml/CoreParser.java element set)
XMLPARSER_QUERIES = (
    (0, '<TermQuery fieldName="content">merge</TermQuery>'),
    (1, '<BooleanQuery>'
        '<Clause occurs="must"><TermQuery fieldName="content">merge</TermQuery></Clause>'
        '<Clause occurs="mustNot"><TermQuery fieldName="content">sort</TermQuery></Clause>'
        '</BooleanQuery>'),
    (2, '<UserQuery>+merge sort</UserQuery>'),
    (3, '<TermsQuery fieldName="content">merge sort batch</TermsQuery>'),
    (4, '<RangeQuery fieldName="n_chars" lowerTerm="100" upperTerm="200"/>'),
    (5, '<SpanNear slop="0" inOrder="true">'
        '<SpanTerm fieldName="content">merge</SpanTerm>'
        '<SpanTerm fieldName="content">sort</SpanTerm>'
        '</SpanNear>'),
    (6, '<TermQuery fieldName="lang">en</TermQuery>'),
    (7, '<DisjunctionMaxQuery tieBreaker="0.1">'
        '<TermQuery fieldName="content">merge</TermQuery>'
        '<TermQuery fieldName="content">sort</TermQuery>'
        '</DisjunctionMaxQuery>'),
)


def xmlparser_engine(sf_dir: str) -> pa.Table:
    """(qid, docid): the XML query DSL (queryparser/xml/CoreParser.java
    builders) end-to-end — every XML string parses through
    search/xmlparser.py and runs on the real index. Float-free doc sets,
    SQL-checked exactly."""
    from lucene_ray.search.engine import IndexSearcher
    from lucene_ray.search.xmlparser import CoreParser

    ix = _engine_index(sf_dir)
    s = IndexSearcher(ix)
    parser = CoreParser(s.analyzer)
    return _docsets(s, ((qid, parser.parse(xml)) for qid, xml in XMLPARSER_QUERIES))


def xmlparser_engine_sql() -> str:
    toks = tokenize_sql_expr("text")
    parts = [
        "SELECT DISTINCT 0 AS qid, doc_id AS docid FROM tok WHERE term = 'merge'",
        "SELECT DISTINCT 1 AS qid, doc_id AS docid FROM tok WHERE term = 'merge' "
        "AND doc_id NOT IN (SELECT doc_id FROM tok WHERE term = 'sort')",
        "SELECT DISTINCT 2 AS qid, doc_id AS docid FROM tok WHERE term = 'merge'",
        "SELECT DISTINCT 3 AS qid, doc_id AS docid FROM tok "
        "WHERE term IN ('merge', 'sort', 'batch')",
        "SELECT 4 AS qid, doc_id AS docid FROM documents "
        "WHERE length(text) >= 100 AND length(text) <= 200",
        "SELECT DISTINCT 5 AS qid, p0.doc_id AS docid FROM ptok p0 "
        "JOIN ptok p1 ON p1.doc_id = p0.doc_id AND p1.pos = p0.pos + 1 "
        "AND p1.term = 'sort' WHERE p0.term = 'merge'",
        "SELECT 6 AS qid, doc_id AS docid FROM documents WHERE lang = 'en'",
        "SELECT DISTINCT 7 AS qid, doc_id AS docid FROM tok "
        "WHERE term IN ('merge', 'sort')",
    ]
    union = "\nUNION ALL\n".join(parts)
    return f"""
WITH t AS (
  SELECT doc_id, {toks} AS l FROM documents
), tok AS (
  SELECT doc_id, unnest(l) AS term FROM t
), ptok AS (
  SELECT doc_id, unnest(l) AS term, generate_subscripts(l, 1) AS pos FROM t
)
{union}
"""


# Flexible-parser gate: (qid, parser-config key, query). 'std' =
# StandardQueryParser defaults, 'prec' = PrecedenceQueryParser (the nesting
# difference is the whole point of queryparser/flexible/precedence/),
# 'std_and' = default operator AND, 'mf' = multi-field expansion over
# (content, repo), 'pc' = points_config on n_chars. fn: rows exercise the
# IntervalQueryNodeProcessor surface incl. the round-5 combinators
# (before/after/within/nonOverlapping/atLeast/extend).
FLEXPARSER_QUERIES = (
    # flat standard semantics: +merge +sort batch — batch is optional
    (0, "std", "merge AND sort OR batch"),
    # precedence semantics: (+merge +sort) OR batch — batch docs MATCH
    (1, "prec", "merge AND sort OR batch"),
    (2, "std_and", "merge batch"),
    (3, "std", "NOT merge AND sort"),
    (4, "mf", "src7"),
    (5, "pc", "n_chars:150"),
    (6, "std", "fn:ordered(merge sort)"),
    (7, "std", "fn:atLeast(2 merge sort window)"),
    (8, "std", "fn:within(key 3 merge)"),
    (9, "std", "fn:nonOverlapping(key merge)"),
    (10, "std", "fn:after(sort merge)"),
    (11, "std", "(merge OR sort) AND NOT batch"),
)


def flexparser_engine(sf_dir: str) -> pa.Table:
    """(qid, docid): the flexible parser family end-to-end —
    StandardQueryParser (flat BooleanQuery2ModifierNodeProcessor
    semantics), PrecedenceQueryParser (grammar nesting preserved), the
    config surface (default operator, multi-field, points config) and fn:
    interval functions (search/flexparser.py; reference
    queryparser/flexible/standard/StandardQueryParser.java +
    precedence/PrecedenceQueryParser.java). Float-free doc sets,
    SQL-checked exactly."""
    from lucene_ray.search.engine import IndexSearcher
    from lucene_ray.search.flexparser import (
        PrecedenceQueryParser,
        StandardQueryParser,
    )

    ix = _engine_index(sf_dir)
    s = IndexSearcher(ix)
    parsers = {
        "std": StandardQueryParser(s.analyzer),
        "prec": PrecedenceQueryParser(s.analyzer),
        "std_and": StandardQueryParser(s.analyzer, default_operator="and"),
        "mf": StandardQueryParser(s.analyzer, fields=("content", "repo")),
        "pc": StandardQueryParser(s.analyzer, points_config={"n_chars": int}),
    }
    return _docsets(s, (
        (qid, parsers[key].parse(q))
        for qid, key, q in FLEXPARSER_QUERIES
    ))


def flexparser_engine_sql() -> str:
    toks = tokenize_sql_expr("text")
    parts = [
        # q0 std flat: +merge +sort (batch optional, pure scoring)
        "SELECT DISTINCT 0 AS qid, doc_id AS docid FROM tok "
        "WHERE term = 'merge' AND doc_id IN "
        "(SELECT doc_id FROM tok WHERE term = 'sort')",
        # q1 precedence nesting: (merge AND sort) OR batch
        "SELECT DISTINCT 1 AS qid, doc_id AS docid FROM tok "
        "WHERE (term = 'merge' AND doc_id IN "
        "(SELECT doc_id FROM tok WHERE term = 'sort')) OR term = 'batch'",
        # q2 default-operator AND
        "SELECT DISTINCT 2 AS qid, doc_id AS docid FROM tok "
        "WHERE term = 'merge' AND doc_id IN "
        "(SELECT doc_id FROM tok WHERE term = 'batch')",
        # q3 NOT merge AND sort -> +sort -merge
        "SELECT DISTINCT 3 AS qid, doc_id AS docid FROM tok "
        "WHERE term = 'sort' AND doc_id NOT IN "
        "(SELECT doc_id FROM tok WHERE term = 'merge')",
        # q4 multi-field: content token OR repo keyword (repo = source col)
        "SELECT DISTINCT 4 AS qid, docid FROM ("
        "SELECT doc_id AS docid FROM tok WHERE term = 'src7' "
        "UNION SELECT doc_id FROM documents WHERE source = 'src7')",
        # q5 points config: exact point value (n_chars = length(text))
        "SELECT 5 AS qid, doc_id AS docid FROM documents "
        "WHERE length(text) = 150",
        # q6 fn:ordered(merge sort)
        "SELECT DISTINCT 6 AS qid, ta.doc_id AS docid FROM ptok ta "
        "JOIN ptok tb ON tb.doc_id = ta.doc_id AND tb.term = 'sort' "
        "AND tb.pos > ta.pos WHERE ta.term = 'merge'",
        # q7 fn:atLeast(2 merge sort window): >= 2 distinct terms present
        "SELECT 7 AS qid, doc_id AS docid FROM ("
        "SELECT doc_id FROM tok WHERE term IN ('merge','sort','window') "
        "GROUP BY doc_id HAVING count(DISTINCT term) >= 2)",
        # q8 fn:within(key 3 merge): a key position within 3 of a merge
        "SELECT DISTINCT 8 AS qid, tk.doc_id AS docid FROM ptok tk "
        "JOIN ptok tm ON tm.doc_id = tk.doc_id AND tm.term = 'merge' "
        "AND abs(tk.pos - tm.pos) <= 3 WHERE tk.term = 'key'",
        # q9 fn:nonOverlapping(key merge): a key position equal to no merge
        "SELECT DISTINCT 9 AS qid, tk.doc_id AS docid FROM ptok tk "
        "WHERE tk.term = 'key' AND NOT EXISTS ("
        "SELECT 1 FROM ptok tm WHERE tm.doc_id = tk.doc_id "
        "AND tm.term = 'merge' AND tm.pos = tk.pos)",
        # q10 fn:after(sort merge): a sort position after some merge
        "SELECT DISTINCT 10 AS qid, tb.doc_id AS docid FROM ptok tb "
        "JOIN ptok ta ON ta.doc_id = tb.doc_id AND ta.term = 'merge' "
        "AND ta.pos < tb.pos WHERE tb.term = 'sort'",
        # q11 (merge OR sort) AND NOT batch
        "SELECT DISTINCT 11 AS qid, doc_id AS docid FROM tok "
        "WHERE term IN ('merge','sort') AND doc_id NOT IN "
        "(SELECT doc_id FROM tok WHERE term = 'batch')",
    ]
    union = "\nUNION ALL\n".join(parts)
    return f"""
WITH t AS (
  SELECT doc_id, {toks} AS l FROM documents
), tok AS (
  SELECT doc_id, unnest(l) AS term FROM t
), ptok AS (
  SELECT doc_id, unnest(l) AS term, generate_subscripts(l, 1) AS pos FROM t
)
{union}
"""


def extparser_engine(sf_dir: str) -> pa.Table:
    """(qid, docid): ExtendableQueryParser dispatch
    (queryparser/ext/ExtendableQueryParser.java) — registered extension
    keys rewrite term/phrase leaves, unregistered fields fall back to
    classic behavior; both the escaped ':'-delimiter form and a custom
    '_' delimiter are exercised. Float-free doc sets, SQL-checked
    exactly."""
    from lucene_ray.search.engine import IndexSearcher
    from lucene_ray.search.extparser import (
        ExtendableQueryParser,
        Extensions,
        ExtensionQuery,
    )
    from lucene_ray.search.query import (
        PhraseQuery,
        PointRangeQuery,
        RegexpQuery,
        TermQuery,
    )

    ix = _engine_index(sf_dir)
    s = IndexSearcher(ix)

    def len_ext(q: ExtensionQuery):
        lo, hi = q.raw_query_text.split("-")
        return PointRangeQuery("n_chars", int(lo), int(hi))

    def re_ext(q: ExtensionQuery):
        return RegexpQuery(q.raw_query_text)

    def kw_ext(q: ExtensionQuery):
        return TermQuery(f"{q.field}:{q.raw_query_text}")

    def up_ext(q: ExtensionQuery):
        toks = s.analyzer.tokenize_text(q.raw_query_text)
        return PhraseQuery(tuple(toks)) if len(toks) > 1 else TermQuery(toks[0])

    colon = Extensions()
    colon.add("len", len_ext)
    colon.add("re", re_ext)
    under = Extensions("_")
    under.add("kw", kw_ext)
    under.add("up", up_ext)
    p_colon = ExtendableQueryParser(s.analyzer, extensions=colon)
    p_under = ExtendableQueryParser(s.analyzer, extensions=under)

    cases = (
        (0, p_colon, r"\:len:120-180"),
        (1, p_colon, r"content\:re:mer.e merge"),
        (2, p_colon, "lang:en"),  # no key -> classic fallback
        (3, p_under, "repo_kw:src3 OR merge"),
        (4, p_under, 'content_up:"merge sort"'),
    )
    return _docsets(s, ((qid, parser.parse(q)) for qid, parser, q in cases))


def extparser_engine_sql() -> str:
    toks = tokenize_sql_expr("text")
    parts = [
        "SELECT 0 AS qid, doc_id AS docid FROM documents "
        "WHERE length(text) BETWEEN 120 AND 180",
        "SELECT DISTINCT 1 AS qid, doc_id AS docid FROM tok "
        "WHERE regexp_full_match(term, 'mer.e') OR term = 'merge'",
        "SELECT 2 AS qid, doc_id AS docid FROM documents WHERE lang = 'en'",
        "SELECT DISTINCT 3 AS qid, docid FROM ("
        "SELECT doc_id AS docid FROM documents WHERE source = 'src3' "
        "UNION SELECT doc_id FROM tok WHERE term = 'merge')",
        "SELECT DISTINCT 4 AS qid, ta.doc_id AS docid FROM ptok ta "
        "JOIN ptok tb ON tb.doc_id = ta.doc_id AND tb.term = 'sort' "
        "AND tb.pos = ta.pos + 1 WHERE ta.term = 'merge'",
    ]
    union = "\nUNION ALL\n".join(parts)
    return f"""
WITH t AS (
  SELECT doc_id, {toks} AS l FROM documents
), tok AS (
  SELECT doc_id, unnest(l) AS term FROM t
), ptok AS (
  SELECT doc_id, unnest(l) AS term, generate_subscripts(l, 1) AS pos FROM t
)
{union}
"""


# /regexp/ classic-parser syntax (QueryParser.jj <REGEXPTERM> ->
# RegexpQuery). RE2-safe patterns only (oracle parity: DuckDB
# regexp_full_match is RE2; the engine's expand_regexp is python re —
# identical on this subset).
PARSER_REGEXP_QUERIES = (
    (0, "/mer.e/"),
    (1, "/so(rt|urce)/"),
    (2, "lang:/e./"),
    (3, "merge AND /win.*/"),
    (4, r"\/notregex\/ merge"),  # escaped slashes: literal text, no regex
)


def parser_regexp_engine(sf_dir: str) -> pa.Table:
    """(qid, docid): /regexp/ terms through the classic parser —
    vocabulary-intersected RegexpQuery for the default field and the
    'field:' term namespace (QueryParserBase.getRegexpQuery). Float-free
    doc sets, SQL-checked exactly."""
    from lucene_ray.search.engine import IndexSearcher
    from lucene_ray.search.query import parse_query

    ix = _engine_index(sf_dir)
    s = IndexSearcher(ix)
    return _docsets(s, (
        (qid, parse_query(q, s.analyzer))
        for qid, q in PARSER_REGEXP_QUERIES
    ))


def parser_regexp_engine_sql() -> str:
    parts = [
        "SELECT DISTINCT 0 AS qid, doc_id AS docid FROM tok "
        "WHERE regexp_full_match(term, 'mer.e')",
        "SELECT DISTINCT 1 AS qid, doc_id AS docid FROM tok "
        "WHERE regexp_full_match(term, 'so(rt|urce)')",
        "SELECT 2 AS qid, doc_id AS docid FROM documents "
        "WHERE regexp_full_match(lang, 'e.')",
        "SELECT DISTINCT 3 AS qid, a.doc_id AS docid FROM tok a "
        "JOIN tok b ON b.doc_id = a.doc_id AND regexp_full_match(b.term, 'win.*') "
        "WHERE a.term = 'merge'",
        "SELECT DISTINCT 4 AS qid, doc_id AS docid FROM tok "
        "WHERE term IN ('notregex', 'merge')",
    ]
    union = "\nUNION ALL\n".join(parts)
    return f"""
{tok_cte()}
{union}
"""


BLENDED_QUERIES: list[tuple[int, tuple[str, str], str, float]] = [
    # (qid, (term0, term1), rewrite, tie_breaker)
    (0, ("merge", "merges"), "dismax", 0.1),   # variant pair: blend df
    (1, ("sort", "merge"), "dismax", 0.1),
    (2, ("batch", "stream"), "boolean", 0.0),
    (3, ("window", "windoq"), "dismax", 0.1),  # one absent term: df-0 path
]
BLENDED_K = 10


def blended_topk(sf_dir: str) -> pa.Table:
    """(qid, rank, doc_id): BlendedTermQuery (search/BlendedTermQuery.java)
    as the float64 exact dataflow twin — every term scored with BLENDED
    stats (df = max over the pair, :285), combined via DisjunctionMax with
    tie-breaker or boolean sum. Bit-matched by the DuckDB oracle (same
    operation order both sides). Two-pass bounded like _exact_topk
    (VERDICT r4 #7): O(batches) stats rows, then per-batch top-K
    candidates — never the matched set on the driver."""
    from lucene_ray.search.similarity import BM25ExactSimilarity

    sim = BM25ExactSimilarity()
    all_terms = sorted({t for _q, pair, _r, _tb in BLENDED_QUERIES for t in pair})
    term_index = {t: i for i, t in enumerate(all_terms)}

    def score_rule(g, feats, n):
        doc_len, tf_cols = feats
        N = g["n_docs"]
        avgdl = g["sum_len"] / N
        for qid, pair, rewrite, tie in BLENDED_QUERIES:
            df_blend = max(g[f"df_{term_index[t]}"] for t in pair)
            if df_blend == 0:
                continue
            contribs = []
            matched = np.zeros(n, dtype=bool)
            for t in pair:
                tf = tf_cols[term_index[t]]
                c = np.zeros(n, dtype=np.float64)
                m = tf > 0
                matched |= m
                if m.any():
                    c[m] = sim.score(tf[m], doc_len[m], df_blend, N, avgdl)
                contribs.append(c)
            c0, c1 = contribs
            if rewrite == "boolean":
                score = c0 + c1
            else:
                smax = np.maximum(c0, c1)
                score = smax + tie * ((c0 + c1) - smax)
            yield qid, score, matched

    return _two_pass_topk(
        sf_dir, ["doc_id", "text"],
        lambda batch: _term_tf_kernel(batch, all_terms, term_index),
        score_rule, [q[0] for q in BLENDED_QUERIES], BLENDED_K,
    )


def blended_topk_sql() -> str:
    from lucene_ray.search.similarity import BM25ExactSimilarity

    per_query = []
    for qid, pair, rewrite, tie in BLENDED_QUERIES:
        df_blend = (
            "(SELECT max(df) FROM dfs WHERE term IN "
            f"('{pair[0]}', '{pair[1]}'))"
        )
        joins, contribs, matched = [], [], []
        for i, t in enumerate(pair):
            joins.append(
                f"LEFT JOIN tf t{i} ON t{i}.doc_id = dl.doc_id AND t{i}.term = '{t}'"
            )
            score = BM25ExactSimilarity.sql(
                tf=f"t{i}.tf", dl="dl.doc_len", df=df_blend,
                n="stats.n", avgdl="stats.avgdl",
            )
            contribs.append(f"(CASE WHEN t{i}.tf IS NULL THEN 0.0 ELSE {score} END)")
            matched.append(f"t{i}.doc_id IS NOT NULL")
        c0, c1 = contribs
        if rewrite == "boolean":
            expr = f"({c0} + {c1})"
        else:
            expr = (
                f"(greatest({c0}, {c1}) + {tie} * "
                f"(({c0} + {c1}) - greatest({c0}, {c1})))"
            )
        per_query.append(
            f"SELECT {qid} AS qid, dl.doc_id, {expr} AS score\n"
            f"FROM doc_lens dl CROSS JOIN stats {' '.join(joins)}\n"
            f"WHERE {' OR '.join(matched)}"
        )
    union = "\nUNION ALL\n".join(per_query)
    return f"""
{tok_cte()}, doc_lens AS (
  SELECT d.doc_id, coalesce(cnt.c, 0) AS doc_len
  FROM documents d LEFT JOIN (
    SELECT doc_id, count(*) AS c FROM tok GROUP BY doc_id
  ) cnt USING (doc_id)
), stats AS (
  SELECT count(*)::DOUBLE AS n,
         (sum(doc_len)::DOUBLE / count(*)::DOUBLE) AS avgdl
  FROM doc_lens
), tf AS (
  SELECT doc_id, term, count(*)::DOUBLE AS tf FROM tok GROUP BY doc_id, term
), dfs AS (
  SELECT term, count(*)::DOUBLE AS df FROM tf GROUP BY term
), scored AS (
{union}
), ranked AS (
  SELECT qid, doc_id,
         row_number() OVER (PARTITION BY qid ORDER BY score DESC, doc_id ASC) - 1 AS rank
  FROM scored
)
SELECT qid, rank::INTEGER AS rank, doc_id FROM ranked WHERE rank < {BLENDED_K}
"""


def blended_engine(sf_dir: str) -> pa.Table:
    """(qid, docid): BlendedTermQuery through the production engine — doc
    SETS are the union of the blended terms' postings (float-free,
    SQL-checked); the blended-stats ranking itself is guarded by
    blended_topk's float64 oracle and the single-term-equivalence test."""
    from lucene_ray.search.engine import IndexSearcher
    from lucene_ray.search.query import BlendedTermQuery, BooleanQuery

    ix = _engine_index(sf_dir)
    s = IndexSearcher(ix)
    return _docsets(s, (
        (qid, BooleanQuery(
            should=[BlendedTermQuery(pair, rewrite=rewrite, tie_breaker=tie)]
        ))
        for qid, pair, rewrite, tie in BLENDED_QUERIES
    ))


def blended_engine_sql() -> str:
    parts = []
    for qid, pair, _r, _tb in BLENDED_QUERIES:
        parts.append(
            f"SELECT DISTINCT {qid} AS qid, doc_id AS docid FROM tok "
            f"WHERE term IN ('{pair[0]}', '{pair[1]}')"
        )
    union = "\nUNION ALL\n".join(parts)
    return f"""
{tok_cte()}
{union}
"""


def highfreq_terms(sf_dir: str, n: int = 30) -> pa.Table:
    """(kind, rank, term, df, ttf): HighFreqTerms (misc/HighFreqTerms.java)
    — top content terms by docFreq (kind 0) and by totalTermFreq (kind 1),
    count desc / term asc, from the column-pruned (term, df, ttf) stats.
    Float-free, SQL-checked exactly."""
    from lucene_ray.search.engine import high_freq_terms
    from lucene_ray.search.reader import IndexReader

    ix = _engine_index(sf_dir)
    r = IndexReader(ix)
    out = {"kind": [], "rank": [], "term": [], "df": [], "ttf": []}
    for kind, by in ((0, "df"), (1, "ttf")):
        for rank, (term, df, ttf) in enumerate(high_freq_terms(r, n, by=by)):
            out["kind"].append(kind)
            out["rank"].append(rank)
            out["term"].append(term)
            out["df"].append(df)
            out["ttf"].append(ttf)
    return pa.table(
        {
            "kind": pa.array(out["kind"], type=pa.int64()),
            "rank": pa.array(out["rank"], type=pa.int64()),
            "term": pa.array(out["term"], type=pa.string()),
            "df": pa.array(out["df"], type=pa.int64()),
            "ttf": pa.array(out["ttf"], type=pa.int64()),
        }
    )


def highfreq_terms_sql(n: int = 30) -> str:
    parts = []
    for kind, key in ((0, "df"), (1, "ttf")):
        parts.append(f"""
SELECT {kind} AS kind,
       (row_number() OVER (ORDER BY {key} DESC, term ASC) - 1)::BIGINT AS rank,
       term, df, ttf
FROM stats
QUALIFY rank < {n}
""")
    union = "\nUNION ALL\n".join(parts)
    return f"""
{tok_cte()}, stats AS (
  SELECT term,
         count(DISTINCT doc_id)::BIGINT AS df,
         count(*)::BIGINT AS ttf
  FROM tok GROUP BY term
)
{union}
"""


MULTIRANGE_QUERIES = (
    # (qid, ranges over n_chars, optional required term)
    (0, ((100, 200), (400, None)), None),
    (1, ((None, 150), (250, 300), (450, 500)), None),
    (2, ((100, 300),), "merge"),
)


def multirange_engine(sf_dir: str) -> pa.Table:
    """(qid, docid): MultiRangeQuery (sandbox/search/MultiRangeQuery.java)
    — a disjunction of numeric ranges over the n_chars point field in one
    clause; qid 2 conjoins a term. Float-free, SQL-checked exactly."""
    from lucene_ray.search.engine import IndexSearcher
    from lucene_ray.search.query import MultiRangeQuery

    ix = _engine_index(sf_dir)
    s = IndexSearcher(ix)
    return _docsets(s, (
        (qid, _and_term(MultiRangeQuery("n_chars", tuple(ranges)), term))
        for qid, ranges, term in MULTIRANGE_QUERIES
    ))


def multirange_engine_sql() -> str:
    parts = []
    for qid, ranges, term in MULTIRANGE_QUERIES:
        ors = []
        for lo, hi in ranges:
            conds = []
            if lo is not None:
                conds.append(f"length(text) >= {lo}")
            if hi is not None:
                conds.append(f"length(text) <= {hi}")
            ors.append("(" + " AND ".join(conds) + ")")
        where = "(" + " OR ".join(ors) + ")"
        if term:
            where += (
                f" AND doc_id IN (SELECT DISTINCT doc_id FROM tok "
                f"WHERE term = '{term}')"
            )
        parts.append(
            f"SELECT {qid} AS qid, doc_id AS docid FROM documents WHERE {where}"
        )
    union = "\nUNION ALL\n".join(parts)
    return f"""
{tok_cte()}
{union}
"""


FUNCRANGE_QUERIES = (
    # (qid, expression over n_chars, lo, hi, incl_lo, incl_hi, term)
    (0, "n_chars % 7", 0, 2, True, True, None),
    (1, "(n_chars * 3 + 1) % 10", 0, 4, True, False, None),
    (2, "n_chars % 5", 1, 3, False, True, "window"),
)


def funcrange_engine(sf_dir: str) -> pa.Table:
    """(qid, docid): FunctionRangeQuery (queries/function/
    FunctionRangeQuery.java) — docs whose compiled-expression value over
    the n_chars doc values falls in the range, with inclusive/exclusive
    bounds; qid 2 conjoins a term. Integer arithmetic in float64 is exact
    both sides — SQL-checked exactly."""
    from lucene_ray.search.engine import IndexSearcher
    from lucene_ray.search.query import FunctionRangeQuery

    ix = _engine_index(sf_dir)
    s = IndexSearcher(ix)
    return _docsets(s, (
        (qid, _and_term(FunctionRangeQuery(expr, lo, hi, ilo, ihi), term))
        for qid, expr, lo, hi, ilo, ihi, term in FUNCRANGE_QUERIES
    ))


def funcrange_engine_sql() -> str:
    parts = []
    for qid, expr, lo, hi, ilo, ihi, term in FUNCRANGE_QUERIES:
        sql_expr = expr.replace("n_chars", "length(text)")
        conds = []
        if lo is not None:
            conds.append(f"({sql_expr}) {'>=' if ilo else '>'} {lo}")
        if hi is not None:
            conds.append(f"({sql_expr}) {'<=' if ihi else '<'} {hi}")
        if term:
            conds.append(
                f"doc_id IN (SELECT DISTINCT doc_id FROM tok WHERE term = '{term}')"
            )
        parts.append(
            f"SELECT {qid} AS qid, doc_id AS docid FROM documents WHERE "
            + " AND ".join(conds)
        )
    union = "\nUNION ALL\n".join(parts)
    return f"""
{tok_cte()}
{union}
"""


COMPLEXPHRASE_QUERIES: list[tuple[int, str, tuple[str, ...]]] = [
    # (qid, classic-parser query STRING with in-phrase wildcards, slots)
    (0, '"mer* window"', ("mer*", "window")),
    (1, '"sort mer*"', ("sort", "mer*")),
    (2, '"s?rt merge"', ("s?rt", "merge")),
    (3, '"bat* str*"', ("bat*", "str*")),
]


def complexphrase_engine(sf_dir: str) -> pa.Table:
    """(qid, docid): ComplexPhraseQueryParser (queryparser/complexPhrase/
    ComplexPhraseQueryParser.java) — the classic parser accepts wildcards
    INSIDE quoted phrases and rewrites through PhraseWildcardQuery.
    Float-free, SQL-checked exactly."""
    from lucene_ray.search.engine import IndexSearcher

    ix = _engine_index(sf_dir)
    s = IndexSearcher(ix)
    return _docsets(s, ((qid, q) for qid, q, _slots in COMPLEXPHRASE_QUERIES))


def complexphrase_engine_sql() -> str:
    toks = tokenize_sql_expr("text")

    def pred(alias: str, slot: str) -> str:
        if "*" in slot or "?" in slot:
            like = slot.replace("*", "%").replace("?", "_")
            return f"{alias}.term LIKE '{like}'"
        return f"{alias}.term = '{slot}'"

    parts = []
    for qid, _q, slots in COMPLEXPHRASE_QUERIES:
        joins = [
            f"JOIN tok t{i} ON t{i}.doc_id = t0.doc_id "
            f"AND t{i}.pos = t0.pos + {i} AND {pred(f't{i}', s)}"
            for i, s in enumerate(slots)
            if i > 0
        ]
        parts.append(
            f"SELECT DISTINCT {qid} AS qid, t0.doc_id AS docid FROM tok t0 "
            + " ".join(joins)
            + f" WHERE {pred('t0', slots[0])}"
        )
    union = "\nUNION ALL\n".join(parts)
    return f"""
WITH t AS (
  SELECT doc_id, {toks} AS l FROM documents
), tok AS (
  SELECT doc_id, unnest(l) AS term, generate_subscripts(l, 1) AS pos FROM t
)
{union}
"""


MEMORYINDEX_QUERIES: list[tuple[int, str, str]] = [
    # (qid, classic-syntax query, DuckDB doc-set predicate)
    (0, "merge AND window",
     "SELECT doc_id FROM has_merge INTERSECT SELECT doc_id FROM has_window"),
    (1, "+batch -stream",
     "SELECT doc_id FROM has_batch EXCEPT SELECT doc_id FROM has_stream"),
    (2, '"sort merge"',
     "SELECT DISTINCT t0.doc_id FROM ptok t0 JOIN ptok t1 USING (doc_id) "
     "WHERE t0.term = 'sort' AND t1.term = 'merge' AND t1.pos = t0.pos + 1"),
    (3, "mer* window",
     "SELECT DISTINCT doc_id FROM tok WHERE term LIKE 'mer%' "
     "UNION SELECT doc_id FROM has_window"),
    (4, "lang:en AND merge",
     "SELECT doc_id FROM documents WHERE lang = 'en' "
     "INTERSECT SELECT doc_id FROM has_merge"),
]


def memoryindex_engine(sf_dir: str) -> pa.Table:
    """(qid, doc_id): MemoryIndex (memory/.../MemoryIndex.java) — every
    document is loaded into a fresh single-doc in-memory index and each
    query scored against it; a positive score emits the row. No segments
    touched; doc sets SQL-checked exactly against the same predicates the
    engine gates use."""
    import pyarrow.parquet as pq

    from lucene_ray.search.memoryindex import MemoryIndex

    docs = pq.read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text", "lang"]
    )
    ids = docs.column("doc_id").to_pylist()
    texts = docs.column("text").to_pylist()
    langs = docs.column("lang").to_pylist()

    def hits(did: int, text: str, lang: str):
        mi = MemoryIndex()
        mi.add_field("content", text)
        mi.add_field("lang", lang, keyword=True)
        return (
            (qid, [did]) for qid, q, _sql in MEMORYINDEX_QUERIES
            if mi.search(q) > 0.0
        )

    return _docset_table(
        hit for row in zip(ids, texts, langs) for hit in hits(*row)
    ).rename_columns(["qid", "doc_id"])


def memoryindex_engine_sql() -> str:
    toks = tokenize_sql_expr("text")
    terms = ["merge", "window", "batch", "stream", "sort"]
    ctes = ",\n".join(
        f"has_{t} AS (SELECT DISTINCT doc_id FROM tok WHERE term = '{t}')"
        for t in terms
    )
    parts = "\nUNION ALL\n".join(
        f"SELECT {qid} AS qid, doc_id FROM ({pred})"
        for qid, _q, pred in MEMORYINDEX_QUERIES
    )
    return f"""
WITH t AS (
  SELECT doc_id, {toks} AS l FROM documents
), tok AS (
  SELECT doc_id, unnest(l) AS term FROM t
), ptok AS (
  SELECT doc_id, unnest(l) AS term, generate_subscripts(l, 1) - 1 AS pos FROM t
),
{ctes}
{parts}
"""


def _automatons():
    """The gate's five automatons (sandbox/search/TermAutomatonQuery.java
    builder surface): phrase-shaped, per-slot alternatives, ANY gap,
    a branching union of paths, and a repeated-term chain."""
    from lucene_ray.search.termautomaton import TermAutomatonBuilder

    def linear(*terms):
        b = TermAutomatonBuilder()
        states = [b.create_state() for _ in range(len(terms) + 1)]
        for i, t in enumerate(terms):
            b.add_transition(states[i], states[i + 1], t)
        b.set_accept(states[-1])
        return b.finish()

    # q1: (sort|batch) merge
    b1 = TermAutomatonBuilder()
    s0, s1, s2 = b1.create_state(), b1.create_state(), b1.create_state()
    b1.add_transition(s0, s1, "sort")
    b1.add_transition(s0, s1, "batch")
    b1.add_transition(s1, s2, "merge")
    b1.set_accept(s2)
    # q2: sort ANY merge
    b2 = TermAutomatonBuilder()
    t0, t1, t2, t3 = (b2.create_state() for _ in range(4))
    b2.add_transition(t0, t1, "sort")
    b2.add_transition(t1, t2, None)
    b2.add_transition(t2, t3, "merge")
    b2.set_accept(t3)
    # q3: sort merge | sort ANY merge (branching union)
    b3 = TermAutomatonBuilder()
    u0, u1, u2, u3 = (b3.create_state() for _ in range(4))
    b3.add_transition(u0, u1, "sort")
    b3.add_transition(u1, u2, "merge")
    b3.add_transition(u1, u3, None)
    b3.add_transition(u3, u2, "merge")
    b3.set_accept(u2)
    return [
        (0, linear("sort", "merge")),
        (1, b1.finish()),
        (2, b2.finish()),
        (3, b3.finish()),
        (4, linear("batch", "batch")),
    ]


def termautomaton_engine(sf_dir: str) -> pa.Table:
    """(qid, docid): TermAutomatonQuery doc sets through the engine —
    positional automaton alignment (search/termautomaton.py). Float-free,
    SQL-checked exactly via position self-joins."""
    from lucene_ray.search.engine import IndexSearcher
    from lucene_ray.search.query import BooleanQuery

    ix = _engine_index(sf_dir)
    s = IndexSearcher(ix)
    return _docsets(s, ((qid, BooleanQuery(should=[q])) for qid, q in _automatons()))


def termautomaton_engine_sql() -> str:
    toks = tokenize_sql_expr("text")
    pair = (
        "SELECT DISTINCT t0.doc_id FROM ptok t0 JOIN ptok t1 USING (doc_id) "
        "WHERE {c0} AND t1.term = '{t1}' AND t1.pos = t0.pos + {gap}"
    )
    preds = {
        0: pair.format(c0="t0.term = 'sort'", t1="merge", gap=1),
        1: pair.format(c0="t0.term IN ('sort', 'batch')", t1="merge", gap=1),
        2: pair.format(c0="t0.term = 'sort'", t1="merge", gap=2),
        3: (pair.format(c0="t0.term = 'sort'", t1="merge", gap=1)
            + " UNION "
            + pair.format(c0="t0.term = 'sort'", t1="merge", gap=2)),
        4: pair.format(c0="t0.term = 'batch'", t1="batch", gap=1),
    }
    parts = "\nUNION ALL\n".join(
        f"SELECT {qid} AS qid, doc_id AS docid FROM ({p})"
        for qid, p in sorted(preds.items())
    )
    return f"""
WITH t AS (
  SELECT doc_id, {toks} AS l FROM documents
), ptok AS (
  SELECT doc_id, unnest(l) AS term, generate_subscripts(l, 1) - 1 AS pos FROM t
)
{parts}
"""


def parser_engine(sf_dir: str) -> pa.Table:
    """(qid, docid): the recursive classic-syntax query parser end-to-end —
    each query is a STRING parsed by parse_query (arbitrary-depth groups,
    range syntax, field scoping) and executed by the engine. Float-free doc
    sets, SQL-checked exactly. (queryparser/.../classic/QueryParser.java:84
    grammar; TermRangeQuery.java / PointRangeQuery.java range targets.)"""
    from lucene_ray.search.engine import IndexSearcher

    ix = _engine_index(sf_dir)
    s = IndexSearcher(ix)
    return _docsets(s, ((qid, q) for qid, q, _sql in PARSER_QUERIES))


def parser_engine_sql() -> str:
    terms = ["merge", "window", "batch", "sort"]
    ctes = ",\n".join(
        f"has_{t} AS (SELECT DISTINCT doc_id FROM tok WHERE term = '{t}')"
        for t in terms
    )
    parts = "\nUNION ALL\n".join(
        f"SELECT {qid} AS qid, doc_id AS docid FROM ({sql})"
        for qid, _q, sql in PARSER_QUERIES
    )
    return f"""
{tok_cte()},
{ctes}
{parts}
"""


SPAN_QUERIES: list[tuple[int, tuple[str, ...], int, bool]] = [
    # (qid, terms, slop, ordered)
    (0, ("merge", "sort"), 0, True),       # strict "merge sort" adjacency
    (1, ("sort", "merge"), 3, True),       # ordered with gaps
    (2, ("batch", "window"), 5, False),    # unordered proximity
    (3, ("key", "order", "scan"), 6, False),
    (4, ("window", "batch"), 1, True),
]


def span_engine(sf_dir: str) -> pa.Table:
    """(qid, docid): SpanNearQuery ordered/unordered proximity doc sets
    through the engine (positions-join oracle; float-free)."""
    from lucene_ray.search.engine import IndexSearcher
    from lucene_ray.search.query import BooleanQuery, SpanNearQuery

    ix = _engine_index(sf_dir)
    s = IndexSearcher(ix)
    return _docsets(s, (
        (qid, BooleanQuery(should=[SpanNearQuery(terms, slop=slop, ordered=ordered)]))
        for qid, terms, slop, ordered in SPAN_QUERIES
    ))


def span_engine_sql() -> str:
    toks = tokenize_sql_expr("text")
    parts = []
    for qid, terms, slop, ordered in SPAN_QUERIES:
        k = len(terms)
        if ordered:
            joins = " ".join(
                f"JOIN tok t{j} ON t{j}.doc_id = t0.doc_id AND t{j}.term = '{terms[j]}' "
                f"AND t{j}.pos > t{j-1}.pos"
                for j in range(1, k)
            )
            parts.append(
                f"SELECT DISTINCT {qid} AS qid, t0.doc_id AS docid FROM tok t0 {joins} "
                f"WHERE t0.term = '{terms[0]}' AND (t{k-1}.pos - t0.pos - {k-1}) <= {slop}"
            )
        else:
            joins = " ".join(
                f"JOIN tok t{j} ON t{j}.doc_id = t0.doc_id AND t{j}.term = '{terms[j]}'"
                for j in range(1, k)
            )
            ps = [f"t{j}.pos" for j in range(k)]
            parts.append(
                f"SELECT DISTINCT {qid} AS qid, t0.doc_id AS docid FROM tok t0 {joins} "
                f"WHERE t0.term = '{terms[0]}' AND "
                f"greatest({', '.join(ps)}) - least({', '.join(ps)}) <= {slop + k - 1}"
            )
    union = "\nUNION ALL\n".join(parts)
    return f"""
WITH t AS (
  SELECT doc_id, {toks} AS l FROM documents
), tok AS (
  SELECT doc_id, unnest(l) AS term, generate_subscripts(l, 1) AS pos FROM t
)
{union}
"""


def _spanops_queries():
    """The gated span-algebra shapes (built lazily — query import). Each is
    doc-set-exact in SQL:
      - SpanOr alone = term-IN membership.
      - SpanFirst(end) = EXISTS position with 1-based pos <= end (engine
        positions are 0-based; span.end = pos0 + 1 = SQL pos).
      - SpanNot(pre/post) = EXISTS include position with NO exclude
        position inside [p-pre, p+post] (position differences only).
      - SpanNear over SpanOr / wrapper sub-clauses: the greedy chain /
        covering-window sweep finds a match iff one exists (stretch
        argument), so a positional EXISTS join is exact.
    SpanContaining/SpanWithin stay pytest-only: their doc sets depend on
    WHICH greedy non-overlapping near spans get emitted (engine-defined),
    not just existence."""
    from lucene_ray.search.query import (
        PrefixQuery,
        SpanFirstQuery,
        SpanMultiTermWrapper,
        SpanNearQuery,
        SpanNotQuery,
        SpanOrQuery,
        SpanPositionRangeQuery,
        SpanTermQuery,
    )

    t = SpanTermQuery
    return [
        # (qid, span query)
        (0, SpanOrQuery((t("merge"), t("scan")))),
        (1, SpanFirstQuery(t("merge"), end=5)),
        (2, SpanNotQuery(t("merge"), t("sort"), pre=1, post=1)),
        (3, SpanNearQuery((t("merge"), SpanOrQuery((t("sort"), t("scan")))), slop=2, ordered=True)),
        (4, SpanNearQuery((t("window"), SpanOrQuery((t("batch"), t("key")))), slop=3, ordered=False)),
        (5, SpanNearQuery((t("merge"), SpanMultiTermWrapper(PrefixQuery("sc"))), slop=2, ordered=True)),
        # 6: SpanPositionRange(merge, start=2, end=8): 0-based span
        # [pos0, pos0+1) with pos0 >= 2 and pos0 + 1 <= 8
        (6, SpanPositionRangeQuery(t("merge"), start=2, end=8)),
    ]


def spanops_engine(sf_dir: str) -> pa.Table:
    """(qid, docid): span-family doc sets through the engine —
    SpanOrQuery (queries/spans/SpanOrQuery.java:36), SpanFirstQuery
    (SpanFirstQuery.java), SpanNotQuery (SpanNotQuery.java) and
    SpanMultiTermQueryWrapper (SpanMultiTermQueryWrapper.java) composing
    with the SpanNear positions join (round-4 span-family completion).
    Float-free, SQL-checked exactly."""
    from lucene_ray.search.engine import IndexSearcher
    from lucene_ray.search.query import BooleanQuery

    ix = _engine_index(sf_dir)
    s = IndexSearcher(ix)
    return _docsets(s, (
        (qid, BooleanQuery(should=[q]))
        for qid, q in _spanops_queries()
    ))


def spanops_engine_sql() -> str:
    toks = tokenize_sql_expr("text")
    parts = [
        # 0: SpanOr(merge, scan)
        "SELECT DISTINCT 0 AS qid, doc_id AS docid FROM tok "
        "WHERE term IN ('merge', 'scan')",
        # 1: SpanFirst(merge, end=5): 1-based pos <= 5
        "SELECT DISTINCT 1 AS qid, doc_id AS docid FROM tok "
        "WHERE term = 'merge' AND pos <= 5",
        # 2: SpanNot(merge, sort, pre=1, post=1)
        "SELECT DISTINCT 2 AS qid, t0.doc_id AS docid FROM tok t0 "
        "WHERE t0.term = 'merge' AND NOT EXISTS ("
        "  SELECT 1 FROM tok x WHERE x.doc_id = t0.doc_id AND x.term = 'sort' "
        "  AND x.pos BETWEEN t0.pos - 1 AND t0.pos + 1)",
        # 3: ordered near(merge, sort|scan, slop 2)
        "SELECT DISTINCT 3 AS qid, t0.doc_id AS docid FROM tok t0 "
        "JOIN tok t1 ON t1.doc_id = t0.doc_id AND t1.term IN ('sort', 'scan') "
        "AND t1.pos > t0.pos WHERE t0.term = 'merge' AND (t1.pos - t0.pos - 1) <= 2",
        # 4: unordered near(window, batch|key, slop 3): width <= slop + 1
        "SELECT DISTINCT 4 AS qid, t0.doc_id AS docid FROM tok t0 "
        "JOIN tok t1 ON t1.doc_id = t0.doc_id AND t1.term IN ('batch', 'key') "
        "WHERE t0.term = 'window' AND abs(t1.pos - t0.pos) <= 4",
        # 5: ordered near(merge, sc*, slop 2) — wrapper expands the prefix
        "SELECT DISTINCT 5 AS qid, t0.doc_id AS docid FROM tok t0 "
        "JOIN tok t1 ON t1.doc_id = t0.doc_id AND t1.term LIKE 'sc%' "
        "AND t1.pos > t0.pos WHERE t0.term = 'merge' AND (t1.pos - t0.pos - 1) <= 2",
        # 6: SpanPositionRange(merge, 2, 8): 1-based pos in [3, 8]
        # (0-based start pos0 >= 2 -> pos >= 3; span end pos0+1 <= 8 -> pos <= 8)
        "SELECT DISTINCT 6 AS qid, doc_id AS docid FROM tok "
        "WHERE term = 'merge' AND pos BETWEEN 3 AND 8",
    ]
    union = "\nUNION ALL\n".join(parts)
    return f"""
WITH t AS (
  SELECT doc_id, {toks} AS l FROM documents
), tok AS (
  SELECT doc_id, unnest(l) AS term, generate_subscripts(l, 1) AS pos FROM t
)
{union}
"""


def _rev(t: str) -> str:
    return t[::-1]


def _fieldmask_queries():
    """Cross-field span joins through FieldMaskingSpanQuery: each clause on
    the "rev" parallel field matches exactly the docs/positions where the
    CONTENT token is its reverse, so every query's doc set has a plain
    content-token positional oracle."""
    from lucene_ray.search.query import (
        FieldMaskingSpanQuery,
        SpanNearQuery,
        SpanOrQuery,
        SpanTermQuery,
    )

    def mask(term: str):
        return FieldMaskingSpanQuery(
            SpanTermQuery(_rev(term), field="rev"), "content"
        )

    return [
        # 0: strict adjacency, second clause through the masked rev field
        (0, SpanNearQuery((SpanTermQuery("merge"), mask("sort")),
                          slop=0, ordered=True)),
        # 1: BOTH clauses masked — the whole join runs on rev-field spans
        (1, SpanNearQuery((mask("sort"), mask("merge")),
                          slop=3, ordered=True)),
        # 2: unordered mixed-field proximity
        (2, SpanNearQuery((SpanTermQuery("batch"), mask("window")),
                          slop=5, ordered=False)),
        # 3: masking inside a composite — SpanOr of a content term and a
        # masked rev term feeding an unordered near
        (3, SpanNearQuery(
            (SpanOrQuery((SpanTermQuery("window"), mask("batch"))),
             SpanTermQuery("scan")),
            slop=4, ordered=False)),
    ]


def fieldmask_engine(sf_dir: str) -> pa.Table:
    """(qid, docid): FieldMaskingSpanQuery cross-field span joins over the
    position-aligned "rev" parallel analyzed field
    (queries/spans/FieldMaskingSpanQuery.java:36). Doc sets equal the
    same-shape content-only joins — the masked rev-field clause matches
    precisely where the content token is its reverse."""
    from lucene_ray.search.engine import IndexSearcher
    from lucene_ray.search.query import BooleanQuery

    ix = _engine_index(sf_dir, **_AF_INDEX)
    s = IndexSearcher(ix)
    return _docsets(s, (
        (qid, BooleanQuery(should=[q]))
        for qid, q in _fieldmask_queries()
    ))


def fieldmask_engine_sql() -> str:
    # the rev CTE mirrors the derived parallel field honestly
    # (reverse(term) at the same position); each query joins tok x rev
    # exactly like the engine's masked span join
    toks = tokenize_sql_expr("text")
    parts = [
        # 0: merge then rev-masked sort, adjacent
        "SELECT DISTINCT 0 AS qid, t0.doc_id AS docid FROM tok t0 "
        "JOIN rev t1 ON t1.doc_id = t0.doc_id AND t1.term = 'tros' "
        "AND t1.pos > t0.pos "
        "WHERE t0.term = 'merge' AND (t1.pos - t0.pos - 1) <= 0",
        # 1: both rev-masked: sort then merge within slop 3
        "SELECT DISTINCT 1 AS qid, t0.doc_id AS docid FROM rev t0 "
        "JOIN rev t1 ON t1.doc_id = t0.doc_id AND t1.term = 'egrem' "
        "AND t1.pos > t0.pos "
        "WHERE t0.term = 'tros' AND (t1.pos - t0.pos - 1) <= 3",
        # 2: unordered batch near rev-masked window, slop 5 (width <= 6+1)
        "SELECT DISTINCT 2 AS qid, t0.doc_id AS docid FROM tok t0 "
        "JOIN rev t1 ON t1.doc_id = t0.doc_id AND t1.term = 'wodniw' "
        "WHERE t0.term = 'batch' AND abs(t1.pos - t0.pos) <= 6",
        # 3: (window OR rev-masked batch) unordered near scan, slop 4
        "SELECT DISTINCT 3 AS qid, t0.doc_id AS docid FROM ("
        "  SELECT doc_id, pos FROM tok WHERE term = 'window'"
        "  UNION ALL SELECT doc_id, pos FROM rev WHERE term = 'hctab'"
        ") t0 JOIN tok t1 ON t1.doc_id = t0.doc_id AND t1.term = 'scan' "
        "WHERE abs(t1.pos - t0.pos) <= 5",
    ]
    union = "\nUNION ALL\n".join(parts)
    return f"""
WITH t AS (
  SELECT doc_id, {toks} AS l FROM documents
), tok AS (
  SELECT doc_id, unnest(l) AS term, generate_subscripts(l, 1) AS pos FROM t
), rev AS (
  SELECT doc_id, reverse(term) AS term, pos FROM tok
)
{union}
"""


MULTIFIELD_QUERIES: list[tuple[int, str]] = [
    # classic-parser strings scoped to the analyzed "rev" parallel field
    # (QueryParser.java:84 field scoping over a non-default TextField)
    (0, "rev:egrem"),                 # term: content 'merge'
    (1, 'rev:"tros egrem"'),          # field phrase: content "sort merge"
    (2, "rev:egr*"),                  # field wildcard: tokens ending 'rge'
    (3, "+rev:egrem +window"),        # mixed field + default-field boolean
    (4, "rev:(tros hctab)"),          # field group: content sort OR batch
]


def multifield_engine(sf_dir: str) -> pa.Table:
    """(qid, docid): classic-parser queries field-scoped to an analyzed
    non-default field — term / phrase / wildcard / group / mixed boolean
    over the "rev" parallel field's real-position postings (the
    PerFieldAnalyzer-style multi-field search surface)."""
    from lucene_ray.search.engine import IndexSearcher

    ix = _engine_index(sf_dir, **_AF_INDEX)
    s = IndexSearcher(ix)
    return _docsets(s, MULTIFIELD_QUERIES)


def multifield_engine_sql() -> str:
    toks = tokenize_sql_expr("text")
    parts = [
        # 0: rev:egrem == content token 'merge'
        "SELECT DISTINCT 0 AS qid, doc_id AS docid FROM tok "
        "WHERE term = 'merge'",
        # 1: rev:"tros egrem" == content phrase "sort merge" (adjacent)
        "SELECT DISTINCT 1 AS qid, t0.doc_id AS docid FROM tok t0 "
        "JOIN tok t1 ON t1.doc_id = t0.doc_id AND t1.term = 'merge' "
        "AND t1.pos = t0.pos + 1 WHERE t0.term = 'sort'",
        # 2: rev:egr* == reverse(token) LIKE 'egr%'
        "SELECT DISTINCT 2 AS qid, doc_id AS docid FROM tok "
        "WHERE reverse(term) LIKE 'egr%'",
        # 3: +rev:egrem +window
        "SELECT DISTINCT 3 AS qid, a.doc_id AS docid FROM tok a "
        "JOIN tok b ON b.doc_id = a.doc_id AND b.term = 'window' "
        "WHERE a.term = 'merge'",
        # 4: rev:(tros hctab) == content sort OR batch
        "SELECT DISTINCT 4 AS qid, doc_id AS docid FROM tok "
        "WHERE term IN ('sort', 'batch')",
    ]
    union = "\nUNION ALL\n".join(parts)
    return f"""
WITH t AS (
  SELECT doc_id, {toks} AS l FROM documents
), tok AS (
  SELECT doc_id, unnest(l) AS term, generate_subscripts(l, 1) AS pos FROM t
)
{union}
"""


# CombinedFieldQuery (BM25F) gates: content field (documents.text) weight 1,
# "repo" analyzed field (documents.source: values like "src3" tokenizing to
# "src","3") weight 2. Terms mix content-only, source-only, and cross-field
# hits so the pseudo-stats merge (df = max over pairs) is exercised.
COMBINEDFIELD_QUERIES: list[tuple[int, tuple[str, ...]]] = [
    (0, ("merge", "sort")),
    (1, ("3",)),
    (2, ("merge", "3")),
    (3, ("window", "15")),
    (4, ("src",)),  # matches EVERY doc's source field
]
CFQ_W_CONTENT = 1.0
CFQ_W_REPO = 2.0


def combinedfield_topk(sf_dir: str) -> pa.Table:
    """(qid, rank, doc_id): float64 exact-length BM25F over the synthetic
    combined field (text w=1 + source w=2) — CombinedFieldQuery.java:68
    semantics with UNQUANTIZED lengths so DuckDB reproduces it bit-for-bit:
    per-doc freq = sum of w_f*tf over (term, field) pairs, dl = sum of
    w_f*len_f, ONE pseudo-term score per doc with df = MAX over pairs and
    avgdl from the weighted-sum collection stats
    (mergeCollectionStatistics, :354-372). The byte4-norm engine twin is
    duel-tested in tests/test_combinedfield.py."""
    sim = BM25ExactSimilarity()
    qs = COMBINEDFIELD_QUERIES
    all_terms = sorted({t for _, ts in qs for t in ts})
    tix = {t: i for i, t in enumerate(all_terms)}

    def kernel(batch: pa.Table):
        """Stats row (n_docs, sum_c, sum_s, df{c,s}_i) and features
        (len_c, len_s, {('c'|'s', term_idx): tf}) of one batch."""
        import pyarrow.compute as pc

        an = CodeAnalyzer()
        n = batch.num_rows
        streams = {}
        for key, col in (("c", "text"), ("s", "source")):
            arr = pc.fill_null(
                batch.column(col).combine_chunks().cast(pa.string()), ""
            )
            row_idx, terms, _ = an.tokenize_flat(arr)
            streams[key] = (row_idx, terms)
        len_c = np.bincount(streams["c"][0], minlength=n).astype(np.int64)
        len_s = np.bincount(streams["s"][0], minlength=n).astype(np.int64)
        row = {"n_docs": n, "sum_c": int(len_c.sum()), "sum_s": int(len_s.sum())}
        tf_cols = {}
        for t in all_terms:
            for key in ("c", "s"):
                row_idx, terms = streams[key]
                mask = pc.equal(terms, t).to_numpy(zero_copy_only=False)
                tf = (
                    np.bincount(row_idx[mask], minlength=n).astype(np.int64)
                    if len(row_idx)
                    else np.zeros(n, dtype=np.int64)
                )
                tf_cols[(key, tix[t])] = tf
                row[f"df{key}_{tix[t]}"] = int((tf > 0).sum())
        return row, (len_c, len_s, tf_cols)

    def score_rule(g, feats, n):
        len_c, len_s, tf_cols = feats
        N = g["n_docs"]
        # weighted-sum collection stats, same float64 expression tree as the SQL
        avgdl = (CFQ_W_CONTENT * g["sum_c"] + CFQ_W_REPO * g["sum_s"]) / N
        dl = CFQ_W_CONTENT * len_c + CFQ_W_REPO * len_s
        for qid, terms in qs:
            freq = np.zeros(n, dtype=np.float64)
            df = 0
            for t in terms:
                tfc = tf_cols[("c", tix[t])]
                tfh = tf_cols[("s", tix[t])]
                # pair order (term, content), (term, source) — left-assoc
                freq = freq + CFQ_W_CONTENT * tfc
                freq = freq + CFQ_W_REPO * tfh
                df = max(df, g[f"dfc_{tix[t]}"], g[f"dfs_{tix[t]}"])
            m = freq > 0
            if df == 0 or not m.any():
                continue
            yield qid, np.where(m, sim.score(freq, dl, df, N, avgdl), 0.0), m

    return _two_pass_topk(
        sf_dir, ["doc_id", "text", "source"], kernel, score_rule,
        [qid for qid, _ in qs], BM25_K,
    )


def combinedfield_topk_sql() -> str:
    """BM25F oracle: per-(term, field) LEFT JOINs, freq/dl as explicit
    left-associative weighted sums in pair order, df = greatest() over the
    pair dfs — mirrors combinedfield_topk's float64 expression tree."""
    tok_c = tokenize_sql_expr("text")
    tok_s = tokenize_sql_expr("source")
    per_query = []
    for qid, terms in COMBINEDFIELD_QUERIES:
        joins, freq_parts, df_parts, matched = [], [], [], []
        for i, t in enumerate(terms):
            joins.append(
                f"LEFT JOIN tfc c{i} ON c{i}.doc_id = dl.doc_id AND c{i}.term = '{t}'"
            )
            joins.append(
                f"LEFT JOIN tfs s{i} ON s{i}.doc_id = dl.doc_id AND s{i}.term = '{t}'"
            )
            freq_parts.append(f"{CFQ_W_CONTENT} * coalesce(c{i}.tf, 0)")
            freq_parts.append(f"{CFQ_W_REPO} * coalesce(s{i}.tf, 0)")
            df_parts.append(
                f"coalesce((SELECT df FROM dfc WHERE term = '{t}'), 0)"
            )
            df_parts.append(
                f"coalesce((SELECT df FROM dfs WHERE term = '{t}'), 0)"
            )
            matched.append(f"c{i}.doc_id IS NOT NULL")
            matched.append(f"s{i}.doc_id IS NOT NULL")
        freq = " + ".join(freq_parts)
        df = f"greatest({', '.join(df_parts)})"
        score = BM25ExactSimilarity.sql(
            tf=f"({freq})",
            dl=f"({CFQ_W_CONTENT} * dl.len_c + {CFQ_W_REPO} * dl.len_s)",
            df=df,
            n="stats.n",
            avgdl="stats.avgdl",
        )
        per_query.append(
            f"SELECT {qid} AS qid, dl.doc_id, {score} AS score\n"
            f"FROM doc_lens dl CROSS JOIN stats {' '.join(joins)}\n"
            f"WHERE {' OR '.join(matched)}"
        )
    union = "\nUNION ALL\n".join(per_query)
    return f"""
WITH tc AS (
  SELECT doc_id, unnest({tok_c}) AS term FROM documents
), ts AS (
  SELECT doc_id, unnest({tok_s}) AS term FROM documents
), doc_lens AS (
  SELECT d.doc_id, coalesce(cc.c, 0) AS len_c, coalesce(cs.c, 0) AS len_s
  FROM documents d
  LEFT JOIN (SELECT doc_id, count(*) AS c FROM tc GROUP BY doc_id) cc USING (doc_id)
  LEFT JOIN (SELECT doc_id, count(*) AS c FROM ts GROUP BY doc_id) cs USING (doc_id)
), stats AS (
  SELECT count(*)::DOUBLE AS n,
         ({CFQ_W_CONTENT} * sum(len_c)::DOUBLE + {CFQ_W_REPO} * sum(len_s)::DOUBLE)
           / count(*)::DOUBLE AS avgdl
  FROM doc_lens
), tfc AS (
  SELECT doc_id, term, count(*)::DOUBLE AS tf FROM tc GROUP BY doc_id, term
), tfs AS (
  SELECT doc_id, term, count(*)::DOUBLE AS tf FROM ts GROUP BY doc_id, term
), dfc AS (
  SELECT term, count(*)::DOUBLE AS df FROM tfc GROUP BY term
), dfs AS (
  SELECT term, count(*)::DOUBLE AS df FROM tfs GROUP BY term
), scored AS (
{union}
), ranked AS (
  SELECT qid, doc_id,
         row_number() OVER (PARTITION BY qid ORDER BY score DESC, doc_id ASC) - 1 AS rank
  FROM scored
)
SELECT qid, rank::INTEGER AS rank, doc_id FROM ranked WHERE rank < {BM25_K}
"""


def combinedfield_engine(sf_dir: str) -> pa.Table:
    """(qid, docid): CombinedFieldQuery match sets through the production
    engine — the (term, field) disjunction over the shared term dict with
    per-field byte4 norms (quantized scores are duel-tested against the
    brute-force quantized twin in tests/test_combinedfield.py; the doc SET
    is quantization-free and SQL-checked exactly here)."""
    from lucene_ray.search.engine import IndexSearcher
    from lucene_ray.search.query import BooleanQuery, CombinedFieldQuery

    ix = _engine_index(sf_dir, **_AF_INDEX)
    s = IndexSearcher(ix)
    fields = (("content", CFQ_W_CONTENT), ("repo", CFQ_W_REPO))
    return _docset_table(
        (qid, s.matching_docs(BooleanQuery(should=[
            CombinedFieldQuery(terms=tuple(terms), fields=fields)
        ])))
        for qid, terms in COMBINEDFIELD_QUERIES
    )


def combinedfield_engine_sql() -> str:
    tok_c = tokenize_sql_expr("text")
    tok_s = tokenize_sql_expr("source")
    parts = []
    for qid, terms in COMBINEDFIELD_QUERIES:
        tl = ", ".join(f"'{t}'" for t in terms)
        parts.append(
            f"SELECT DISTINCT {qid} AS qid, doc_id AS docid FROM tok "
            f"WHERE term IN ({tl})"
        )
    union = "\nUNION ALL\n".join(parts)
    return f"""
WITH tok AS (
  SELECT doc_id, unnest({tok_c}) AS term FROM documents
  UNION ALL
  SELECT doc_id, unnest({tok_s}) AS term FROM documents
)
{union}
"""


def _interval_queries():
    """The gated intervals-source shapes (built lazily — intervals import).
    Doc-set SQL equivalences, proven per shape:
      - ordered/unordered of TERMS + maxgaps/maxwidth: a valid position
        combo exists iff a MINIMAL interval passes the filter (minimal
        intervals nest inside any valid combo and only shrink width/gaps),
        so the oracle is a plain positional EXISTS join.
      - containing / contained_by / not_containing: minimality is load-
        bearing (a wide pair can contain the probe term while every minimal
        pair misses it), so the oracle materializes MINIMAL (s, e) pairs
        with a NOT-EXISTS-nested-pair subquery before the containment
        predicate — the same algebra the engine runs."""
    from lucene_ray.search import intervals as iv

    return [
        # (qid, source)
        (0, iv.maxgaps(3, iv.ordered("merge", "sort"))),
        (1, iv.maxwidth(8, iv.unordered("batch", "window", "key"))),
        (2, iv.phrase("merge", "sort")),
        (3, iv.or_(iv.phrase("merge", "sort"), iv.term("window"))),
        (4, iv.containing(iv.maxwidth(12, iv.unordered("merge", "sort")), iv.term("key"))),
        (5, iv.contained_by(iv.term("key"), iv.maxwidth(20, iv.unordered("merge", "sort")))),
        (6, iv.not_containing(iv.maxwidth(12, iv.unordered("merge", "sort")), iv.term("key"))),
    ]


def intervals_engine(sf_dir: str) -> pa.Table:
    """(qid, docid): minimal-interval algebra doc sets through the engine
    (queries/.../intervals/ combinators: ordered, unordered, phrase, or,
    maxgaps, maxwidth, containing, contained_by, not_containing).
    Float-free, SQL-checked exactly."""
    from lucene_ray.search.engine import IndexSearcher
    from lucene_ray.search.query import BooleanQuery, IntervalQuery

    ix = _engine_index(sf_dir)
    s = IndexSearcher(ix)
    return _docsets(s, (
        (qid, BooleanQuery(should=[IntervalQuery(src)]))
        for qid, src in _interval_queries()
    ))


def intervals_engine_sql() -> str:
    toks = tokenize_sql_expr("text")
    # minimal unordered (merge, sort) pairs: no other pair nested inside
    minpairs = """
pairs AS (
  SELECT ta.doc_id, least(ta.pos, tb.pos) AS s, greatest(ta.pos, tb.pos) AS e
  FROM tok ta JOIN tok tb ON ta.doc_id = tb.doc_id
  WHERE ta.term = 'merge' AND tb.term = 'sort'
),
minpairs AS (
  SELECT DISTINCT p.doc_id, p.s, p.e FROM pairs p
  WHERE NOT EXISTS (
    SELECT 1 FROM pairs q
    WHERE q.doc_id = p.doc_id AND q.s >= p.s AND q.e <= p.e
      AND (q.s <> p.s OR q.e <> p.e)
  )
)"""
    parts = [
        # q0: ordered(merge, sort) maxgaps 3  (naive EXISTS — see proof note)
        "SELECT DISTINCT 0 AS qid, ta.doc_id AS docid FROM tok ta "
        "JOIN tok tb ON tb.doc_id = ta.doc_id AND tb.term = 'sort' "
        "AND tb.pos > ta.pos AND tb.pos - ta.pos - 1 <= 3 "
        "WHERE ta.term = 'merge'",
        # q1: unordered(batch, window, key) maxwidth 8
        "SELECT DISTINCT 1 AS qid, ta.doc_id AS docid FROM tok ta "
        "JOIN tok tb ON tb.doc_id = ta.doc_id AND tb.term = 'window' "
        "JOIN tok tc ON tc.doc_id = ta.doc_id AND tc.term = 'key' "
        "WHERE ta.term = 'batch' AND "
        "greatest(ta.pos, tb.pos, tc.pos) - least(ta.pos, tb.pos, tc.pos) + 1 <= 8",
        # q2: phrase(merge, sort)
        "SELECT DISTINCT 2 AS qid, ta.doc_id AS docid FROM tok ta "
        "JOIN tok tb ON tb.doc_id = ta.doc_id AND tb.term = 'sort' "
        "AND tb.pos = ta.pos + 1 WHERE ta.term = 'merge'",
        # q3: or_(phrase(merge, sort), term(window))
        "SELECT DISTINCT 3 AS qid, docid FROM ("
        "SELECT ta.doc_id AS docid FROM tok ta "
        "JOIN tok tb ON tb.doc_id = ta.doc_id AND tb.term = 'sort' "
        "AND tb.pos = ta.pos + 1 WHERE ta.term = 'merge' "
        "UNION ALL SELECT doc_id FROM tok WHERE term = 'window')",
        # q4: containing(maxwidth(12, unordered(merge, sort)), key)
        "SELECT DISTINCT 4 AS qid, m.doc_id AS docid FROM minpairs m "
        "JOIN tok tk ON tk.doc_id = m.doc_id AND tk.term = 'key' "
        "AND tk.pos BETWEEN m.s AND m.e WHERE m.e - m.s + 1 <= 12",
        # q5: contained_by(key, maxwidth(20, unordered(merge, sort)))
        "SELECT DISTINCT 5 AS qid, m.doc_id AS docid FROM minpairs m "
        "JOIN tok tk ON tk.doc_id = m.doc_id AND tk.term = 'key' "
        "AND tk.pos BETWEEN m.s AND m.e WHERE m.e - m.s + 1 <= 20",
        # q6: not_containing(maxwidth(12, unordered(merge, sort)), key)
        "SELECT DISTINCT 6 AS qid, m.doc_id AS docid FROM minpairs m "
        "WHERE m.e - m.s + 1 <= 12 AND NOT EXISTS ("
        "SELECT 1 FROM tok tk WHERE tk.doc_id = m.doc_id "
        "AND tk.term = 'key' AND tk.pos BETWEEN m.s AND m.e)",
    ]
    union = "\nUNION ALL\n".join(parts)
    return f"""
WITH t AS (
  SELECT doc_id, {toks} AS l FROM documents
), tok AS (
  SELECT doc_id, unnest(l) AS term, generate_subscripts(l, 1) AS pos FROM t
),
{minpairs.strip()}
{union}
"""


GROUP_QUERIES: list[tuple[int, str, str]] = [
    # (qid, query, group field) — documents_as_corpus maps lang->lang,
    # source->repo; within-group sort field is the n_chars doc value
    (0, "merge", "lang"),
    (1, "window table", "repo"),
]
GROUP_K_GROUPS = 3
GROUP_K_PER_GROUP = 2


def group_engine(sf_dir: str) -> pa.Table:
    """(qid, group_value, grp_rank, rank, docid): grouped top-k — top 3
    groups by (hit count desc, value asc), top 2 docs per group by
    (n_chars desc, docid asc). Float-free, SQL-checked exactly (see
    search/grouping.py for the reference mapping)."""
    from lucene_ray.search.engine import IndexSearcher
    from lucene_ray.search.grouping import group_topk

    ix = _engine_index(sf_dir)
    s = IndexSearcher(ix)
    out = {"qid": [], "group_value": [], "grp_rank": [], "rank": [], "docid": []}
    for qid, q, fld in GROUP_QUERIES:
        for g in group_topk(s, q, fld, "n_chars", GROUP_K_GROUPS, GROUP_K_PER_GROUP):
            for r, d in enumerate(g.docids):
                out["qid"].append(qid)
                out["group_value"].append(str(g.group_value))
                out["grp_rank"].append(g.group_rank)
                out["rank"].append(r)
                out["docid"].append(int(d))
    return pa.table(
        {
            "qid": pa.array(out["qid"], type=pa.int64()),
            "group_value": pa.array(out["group_value"], type=pa.string()),
            "grp_rank": pa.array(out["grp_rank"], type=pa.int32()),
            "rank": pa.array(out["rank"], type=pa.int32()),
            "docid": pa.array(out["docid"], type=pa.int64()),
        }
    )


def group_engine_sql() -> str:
    col = {"lang": "lang", "repo": "source"}
    ctes, selects = [], []
    for qid, q, fld in GROUP_QUERIES:
        terms = CodeAnalyzer().tokenize_text(q)
        in_list = ", ".join(f"'{t}'" for t in terms)
        c = col[fld]
        ctes.append(
            f"hits{qid} AS (SELECT DISTINCT doc_id FROM tok WHERE term IN ({in_list})),\n"
            f"g{qid} AS (SELECT d.{c} AS gv, count(*) AS cnt FROM documents d "
            f"JOIN hits{qid} USING (doc_id) GROUP BY d.{c}),\n"
            f"topg{qid} AS (SELECT gv, row_number() OVER (ORDER BY cnt DESC, gv ASC) - 1 AS grank "
            f"FROM g{qid} QUALIFY grank < {GROUP_K_GROUPS}),\n"
            f"docs{qid} AS (SELECT d.{c} AS gv, d.doc_id, "
            f"row_number() OVER (PARTITION BY d.{c} ORDER BY length(d.text) DESC, d.doc_id ASC) - 1 AS rank "
            f"FROM documents d JOIN hits{qid} USING (doc_id))"
        )
        selects.append(
            f"SELECT {qid} AS qid, t.gv AS group_value, t.grank::INTEGER AS grp_rank, "
            f"d.rank::INTEGER AS rank, d.doc_id AS docid "
            f"FROM topg{qid} t JOIN docs{qid} d ON d.gv = t.gv WHERE d.rank < {GROUP_K_PER_GROUP}"
        )
    cte_block = ",\n".join(ctes)
    union = "\nUNION ALL\n".join(selects)
    return f"""
{tok_cte()},
{cte_block}
{union}
"""


MLT_SEEDS = [3, 17, 42]  # seed doc_ids (exist at every test scale)


def mlt_engine(sf_dir: str) -> pa.Table:
    """(qid, docid): MoreLikeThis — for each seed document, select the top
    tf*idf terms (queries/mlt/MoreLikeThis.java createQueue spec, see
    search/mlt.py) and match docs containing ANY of them. qid = seed
    doc_id; the seed itself matches too (as in the reference — callers
    filter). Unboosted clauses -> float-free doc sets, SQL-checked
    exactly (term SELECTION uses libm-ln doubles reproduced by DuckDB)."""
    import pyarrow.parquet as pq

    from lucene_ray.search.engine import IndexSearcher
    from lucene_ray.search.mlt import more_like_this

    ix = _engine_index(sf_dir)
    s = IndexSearcher(ix)
    # row-group-pruned read: only the 3 seed docs leave storage
    docs = pq.read_table(
        f"{sf_dir}/documents.parquet",
        columns=["doc_id", "text"],
        filters=[("doc_id", "in", MLT_SEEDS)],
    )
    texts = {
        int(i): t
        for i, t in zip(
            docs.column("doc_id").to_pylist(), docs.column("text").to_pylist()
        )
    }
    seeds = ((seed, more_like_this(s.reader, texts[seed], s.analyzer))
             for seed in MLT_SEEDS)
    return _docsets(s, ((seed, bq) for seed, bq in seeds if bq.should))


def mlt_engine_sql() -> str:
    from lucene_ray.search.mlt import (
        MLT_MAX_QUERY_TERMS,
        MLT_MIN_DOC_FREQ,
        MLT_MIN_TERM_FREQ,
    )

    seeds = ", ".join(f"({s})" for s in MLT_SEEDS)
    return f"""
{tok_cte()}, n AS (
  SELECT count(*)::DOUBLE AS n FROM documents
), tf AS (
  SELECT doc_id, term, count(*)::BIGINT AS tf FROM tok GROUP BY doc_id, term
), dfs AS (
  SELECT term, count(*)::BIGINT AS df FROM tf GROUP BY term
), sel AS (
  SELECT s.seed, t.term,
         row_number() OVER (
           PARTITION BY s.seed
           ORDER BY t.tf::DOUBLE * (1.0 + ln(n.n / (d.df + 1.0))) DESC, t.term ASC
         ) AS rn
  FROM (VALUES {seeds}) s(seed)
  JOIN tf t ON t.doc_id = s.seed AND t.tf >= {MLT_MIN_TERM_FREQ}
  JOIN dfs d ON d.term = t.term AND d.df >= {MLT_MIN_DOC_FREQ}
  CROSS JOIN n
)
SELECT DISTINCT q.seed AS qid, k.doc_id AS docid
FROM sel q JOIN tok k ON k.term = q.term
WHERE q.rn <= {MLT_MAX_QUERY_TERMS}
"""


def feature_engine(sf_dir: str, k: int = 20) -> pa.Table:
    """(qid, rank, docid): FeatureField-style static-signal ranking — docs
    matching a required constant-score term, ranked by a FeatureQuery over
    the n_chars doc value (log and saturation functions; both monotone in
    the value, so the SQL oracle ranks by the raw value)."""
    from lucene_ray.search.engine import IndexSearcher
    from lucene_ray.search.query import (
        BooleanQuery,
        ConstantScoreQuery,
        FeatureQuery,
        TermQuery,
    )

    ix = _engine_index(sf_dir)
    s = IndexSearcher(ix)
    cases = [
        (0, "merge", FeatureQuery("n_chars", weight=1.0, function="log")),
        (1, "window", FeatureQuery("n_chars", weight=2.0, function="saturation", pivot=100.0)),
    ]
    return _ranked_table(
        (qid, s.search(BooleanQuery(
            must=[ConstantScoreQuery(TermQuery(term), boost=0.0)], should=[fq]
        ), k).docids)
        for qid, term, fq in cases
    )


def feature_engine_sql(k: int = 20) -> str:
    parts = []
    for qid, term in ((0, "merge"), (1, "window")):
        parts.append(f"""
SELECT {qid} AS qid,
       (row_number() OVER (ORDER BY length(text) DESC, doc_id ASC) - 1)::INTEGER AS rank,
       doc_id AS docid
FROM documents
WHERE doc_id IN (SELECT DISTINCT doc_id FROM tok WHERE term = '{term}')
  AND length(text) > 0
QUALIFY rank < {k}
""")
    union = "\nUNION ALL\n".join(parts)
    return f"""
{tok_cte()}
{union}
"""


def exprscore_engine(sf_dir: str, k: int = 20) -> pa.Table:
    """(qid, rank, docid): FunctionScoreQuery formula ranking
    (queries/.../function/FunctionScoreQuery.java:44 + expressions/...
    /Expression.java) — docs matching a required constant-score term,
    rescored by a compiled arithmetic expression over the n_chars doc value
    and the norms-stored token count (doc_len). The formulas are
    integer-valued and < 2^24, so float32 engine scores are exact and the
    SQL oracle reproduces the ranking with the same integer arithmetic."""
    from lucene_ray.search.engine import IndexSearcher
    from lucene_ray.search.query import (
        BooleanQuery,
        ConstantScoreQuery,
        FunctionScoreQuery,
        MatchAllDocsQuery,
        TermQuery,
    )

    ix = _engine_index(sf_dir)
    s = IndexSearcher(ix)
    return _ranked_table(
        (qid, s.search(BooleanQuery(
            must=[ConstantScoreQuery(TermQuery(term), boost=0.0)],
            should=[FunctionScoreQuery(MatchAllDocsQuery(boost=0.0), expr)],
        ), k).docids)
        for qid, term, expr, _sql in EXPRSCORE_CASES
    )


#: (qid, required term, formula, the formula's SQL twin) — n_chars ->
#: length(text), doc_len -> the oracle token count tc.n_tok
EXPRSCORE_CASES = [
    (0, "merge", "doc_len * 1024 + n_chars",
     "tc.n_tok * 1024 + length(d.text)"),
    (1, "window", "max(n_chars, 400) * 128 + min(doc_len, 64)",
     "greatest(length(d.text), 400) * 128 + least(tc.n_tok, 64)"),
    # full-grammar cases (round 4: ternary / comparison / modulo / bitwise /
    # shift — js/JavascriptCompiler.java grammar); integer-valued < 2^24 so
    # float32 engine scores stay exact for the oracle
    (2, "batch", "n_chars % 97 * 512 + (n_chars > 500 ? doc_len : 42)",
     "(length(d.text) % 97) * 512 + "
     "(CASE WHEN length(d.text) > 500 THEN tc.n_tok ELSE 42 END)"),
    (3, "sort", "((doc_len & 15) << 10) + (n_chars % 7 == 0 ? 3 : 1) * doc_len",
     "((tc.n_tok & 15) << 10) + "
     "(CASE WHEN length(d.text) % 7 = 0 THEN 3 ELSE 1 END) * tc.n_tok"),
]


def exprscore_engine_sql(k: int = 20) -> str:
    parts = []
    for qid, term, _expr, sql_expr in EXPRSCORE_CASES:
        parts.append(f"""
SELECT {qid} AS qid,
       (row_number() OVER (ORDER BY ({sql_expr}) DESC, d.doc_id ASC) - 1)::INTEGER AS rank,
       d.doc_id AS docid
FROM documents d JOIN tc ON tc.doc_id = d.doc_id
WHERE d.doc_id IN (SELECT DISTINCT doc_id FROM tok WHERE term = '{term}')
QUALIFY rank < {k}
""")
    union = "\nUNION ALL\n".join(parts)
    return f"""
{tok_cte()}, tc AS (
  SELECT doc_id, count(*)::BIGINT AS n_tok FROM tok GROUP BY doc_id
)
{union}
"""


BLOCKJOIN_TERMS = ["merge", "window", "zzzmissing"]


def blockjoin_engine(sf_dir: str) -> pa.Table:
    """(qid, docid): parent-child block join (ToParentBlockJoinQuery) —
    documents are regrouped into blocks of 3 children + 1 parent row
    (children first, parent LAST, contiguous docids = the addDocuments
    block contract); a parent matches when any of its children matches the
    child term. Parent docid = 4*i + 3 for block i — the SQL oracle
    reproduces the mapping arithmetically."""
    import shutil
    import tempfile

    import pyarrow.parquet as pq

    from lucene_ray.index.builder import build_index
    from lucene_ray.search.engine import IndexSearcher
    from lucene_ray.search.query import (
        BooleanQuery,
        TermQuery,
        ToParentBlockJoinQuery,
    )

    docs = pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    ids = docs.column("doc_id").to_numpy(zero_copy_only=False)
    order = np.argsort(ids)
    texts = docs.column("text").take(pa.array(order)).to_pylist()
    n_blocks = len(texts) // 3
    rows = []
    for i in range(n_blocks):
        for j in range(3):
            rows.append(
                {"repo": "child", "path": f"c/{i}/{j}", "commit": "0",
                 "lang": "txt", "content": texts[3 * i + j]}
            )
        rows.append(
            {"repo": "parent", "path": f"p/{i}", "commit": "0",
             "lang": "txt", "content": f"parentdoc b{i}"}
        )
    os.makedirs("/tmp/lucene_ray_cache", exist_ok=True)
    ix = tempfile.mkdtemp(prefix="docs_bj_", dir="/tmp/lucene_ray_cache")
    src = ix + "_corpus.parquet"
    pq.write_table(pa.Table.from_pylist(rows), src, row_group_size=256)
    try:
        build_index([src], ix, target_docs=512)
        s = IndexSearcher(ix)
        return _docsets(s, (
            (qid, BooleanQuery(should=[ToParentBlockJoinQuery(
                TermQuery(term), TermQuery("repo:parent"), score_mode="none",
            )]))
            for qid, term in enumerate(BLOCKJOIN_TERMS)
        ))
    finally:
        shutil.rmtree(ix, ignore_errors=True)
        if os.path.exists(src):
            os.remove(src)


def blockjoin_engine_sql() -> str:
    parts = []
    for qid, term in enumerate(BLOCKJOIN_TERMS):
        parts.append(f"""
SELECT DISTINCT {qid} AS qid, (rk // 3) * 4 + 3 AS docid
FROM ranked
WHERE doc_id IN (SELECT DISTINCT doc_id FROM tok WHERE term = '{term}')
  AND rk < 3 * ((SELECT count(*) FROM documents) // 3)
""")
    union = "\nUNION ALL\n".join(parts)
    return f"""
{tok_cte()}, ranked AS (
  SELECT doc_id, (row_number() OVER (ORDER BY doc_id) - 1) AS rk
  FROM documents
)
{union}
"""


def childjoin_engine(sf_dir: str) -> pa.Table:
    """(qid, docid): the inverse block joins — ToChildBlockJoinQuery
    (join/.../ToChildBlockJoinQuery.java: parents matching parent_query
    -> all their children) and ParentChildrenBlockJoinQuery
    (ParentChildrenBlockJoinQuery.java: one parent docid -> its children
    matching a child query). Same block layout as blockjoin_engine
    (3 children + parent LAST per block, parent docid = 4i+3); qid 0
    selects one block by the parent's keyword path term, qid 1 fans out
    every parent, qid 2 expands block 1's children matching 'merge'."""
    import shutil
    import tempfile

    import pyarrow.parquet as pq

    from lucene_ray.index.builder import build_index
    from lucene_ray.search.engine import IndexSearcher
    from lucene_ray.search.query import (
        BooleanQuery,
        ParentChildrenBlockJoinQuery,
        TermQuery,
        ToChildBlockJoinQuery,
    )

    docs = pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    ids = docs.column("doc_id").to_numpy(zero_copy_only=False)
    order = np.argsort(ids)
    texts = docs.column("text").take(pa.array(order)).to_pylist()
    n_blocks = len(texts) // 3
    rows = []
    for i in range(n_blocks):
        for j in range(3):
            rows.append(
                {"repo": "child", "path": f"c/{i}/{j}", "commit": "0",
                 "lang": "txt", "content": texts[3 * i + j]}
            )
        rows.append(
            {"repo": "parent", "path": f"p/{i}", "commit": "0",
             "lang": "txt", "content": f"parentdoc b{i}"}
        )
    os.makedirs("/tmp/lucene_ray_cache", exist_ok=True)
    ix = tempfile.mkdtemp(prefix="docs_cbj_", dir="/tmp/lucene_ray_cache")
    src = ix + "_corpus.parquet"
    pq.write_table(pa.Table.from_pylist(rows), src, row_group_size=256)
    try:
        build_index([src], ix, target_docs=512)
        s = IndexSearcher(ix)
        pfilter = TermQuery("repo:parent")
        qs = [
            (0, ToChildBlockJoinQuery(TermQuery("path:p/3"), pfilter)),
            (1, ToChildBlockJoinQuery(TermQuery("repo:parent"), pfilter)),
            (2, ParentChildrenBlockJoinQuery(pfilter, TermQuery("merge"), 7)),
        ]
        return _docsets(s, ((qid, BooleanQuery(should=[q])) for qid, q in qs))
    finally:
        shutil.rmtree(ix, ignore_errors=True)
        if os.path.exists(src):
            os.remove(src)


def childjoin_engine_sql() -> str:
    # child (block i, slot j) carries the rk = 3i+j-th document (doc_id
    # order) and sits at engine docid 4i+j; parent docid = 4i+3
    return f"""
{tok_cte()}, ranked AS (
  SELECT doc_id, (row_number() OVER (ORDER BY doc_id) - 1) AS rk
  FROM documents
), nb AS (
  SELECT (count(*) // 3) AS n FROM documents
)
SELECT 0 AS qid, 4*3 + j AS docid
FROM (VALUES (0), (1), (2)) t(j)
WHERE (SELECT n FROM nb) > 3
UNION ALL
SELECT 1 AS qid, (rk // 3) * 4 + (rk % 3) AS docid
FROM ranked WHERE rk < 3 * (SELECT n FROM nb)
UNION ALL
SELECT 2 AS qid, (rk // 3) * 4 + (rk % 3) AS docid
FROM ranked
WHERE rk // 3 = 1 AND rk < 3 * (SELECT n FROM nb)
  AND doc_id IN (SELECT DISTINCT doc_id FROM tok WHERE term = 'merge')
"""


DV_UPDATE_VALUE = 31337


def dvupdate_engine(sf_dir: str, k: int = 25) -> pa.Table:
    """(qid, rank, docid): in-place numeric doc-values updates
    (IndexWriter.updateNumericDocValue) — docs containing 'window' get
    n_chars := 31337, then qid 0 sorts 'window' hits by the UPDATED value
    (all ties -> docid asc), qid 1 sorts 'merge' hits descending (updated
    docs float to the top); qid 2 = merged-index point range over the
    updated value (the merge folds DV generations into rebuilt points)."""
    import shutil
    import tempfile

    from lucene_ray.index.builder import build_index
    from lucene_ray.index.corpus import documents_as_corpus
    from lucene_ray.index.merge import force_merge
    from lucene_ray.index.writer import update_numeric_docvalues
    from lucene_ray.search.engine import IndexSearcher, search_sorted
    from lucene_ray.search.query import BooleanQuery, PointRangeQuery

    import pyarrow.parquet as pq

    corpus_path = documents_as_corpus(sf_dir)
    os.makedirs("/tmp/lucene_ray_cache", exist_ok=True)
    ix = tempfile.mkdtemp(prefix="docs_dvu_", dir="/tmp/lucene_ray_cache")
    # small row groups -> several segments, so qid 2's ForceMerge(1)
    # actually merges (a single segment would skip the merge and never
    # fold DV generations into rebuilt points)
    split_corpus = ix + "_corpus.parquet"
    pq.write_table(pq.read_table(corpus_path), split_corpus, row_group_size=120)
    try:
        build_index([split_corpus], ix, target_docs=120)
        update_numeric_docvalues(ix, "window", "n_chars", DV_UPDATE_VALUE)
        s = IndexSearcher(ix)
        ranked = [
            (qid, search_sorted(s, term, "n_chars", k=k, ascending=asc).docids)
            for qid, term, asc in ((0, "window", True), (1, "merge", False))
        ]
        force_merge(ix)
        s2 = IndexSearcher(ix)
        docids = s2.matching_docs(
            BooleanQuery(
                should=[PointRangeQuery("n_chars", DV_UPDATE_VALUE, DV_UPDATE_VALUE)]
            )
        )
        ranked.append((2, docids[:k]))
        return _ranked_table(ranked)
    finally:
        shutil.rmtree(ix, ignore_errors=True)
        if os.path.exists(split_corpus):
            os.remove(split_corpus)


def dvupdate_engine_sql(k: int = 25) -> str:
    v = DV_UPDATE_VALUE
    parts = []
    for qid, term, direction in ((0, "window", "ASC"), (1, "merge", "DESC")):
        parts.append(f"""
SELECT {qid} AS qid,
       (row_number() OVER (
          ORDER BY (CASE WHEN doc_id IN (SELECT doc_id FROM has_window)
                    THEN {v} ELSE length(text) END) {direction},
          doc_id ASC) - 1)::INTEGER AS rank,
       doc_id AS docid
FROM documents
WHERE doc_id IN (SELECT DISTINCT doc_id FROM tok WHERE term = '{term}')
QUALIFY rank < {k}
""")
    parts.append(f"""
SELECT 2 AS qid,
       (row_number() OVER (ORDER BY doc_id ASC) - 1)::INTEGER AS rank,
       doc_id AS docid
FROM has_window
QUALIFY rank < {k}
""")
    union = "\nUNION ALL\n".join(parts)
    return f"""
{tok_cte()}, has_window AS (
  SELECT DISTINCT doc_id FROM tok WHERE term = 'window'
)
{union}
"""


JOIN_QUERIES: list[tuple[int, str, str, str]] = [
    # (qid, from_query, join_field, to_query): docs whose FIELD value occurs
    # among the from_query matches' values, AND matching to_query
    (0, "merge", "lang", "window"),
    (1, "zzzmissingterm", "lang", "window"),  # empty from-side -> no hits
    (2, "batch", "source", "scan"),
]


def join_engine(sf_dir: str) -> pa.Table:
    """(qid, docid): query-time join (JoinUtil.createJoinQuery,
    join/.../JoinUtil.java:63 — ScoreMode.None constant-score to-side)."""
    from lucene_ray.search.engine import IndexSearcher, join_query

    ix = _engine_index(sf_dir)
    s = IndexSearcher(ix)
    # documents_as_corpus maps source->repo; engine field names differ
    fld_map = {"lang": "lang", "source": "repo"}
    joins = ((qid, join_query(s, fq, fld_map[fld], to_query=tq))
             for qid, fq, fld, tq in JOIN_QUERIES)
    return _docsets(s, ((qid, q) for qid, q in joins if q.must or q.should))


def join_engine_sql() -> str:
    parts = []
    for qid, fq, fld, tq in JOIN_QUERIES:
        parts.append(f"""
SELECT DISTINCT {qid} AS qid, d.doc_id AS docid
FROM documents d
WHERE d.{fld} IN (
  SELECT DISTINCT s.{fld} FROM documents s
  WHERE s.doc_id IN (SELECT doc_id FROM tok WHERE term = '{fq}')
)
AND d.doc_id IN (SELECT doc_id FROM tok WHERE term = '{tq}')
""")
    union = "\nUNION ALL\n".join(parts)
    return f"""
{tok_cte()}
{union}
"""


RANGE_FACETS: list[tuple[int, int]] = [
    (0, 400), (401, 800), (0, 800), (801, 1 << 30)  # overlapping on purpose
]


def rangefacet_engine(sf_dir: str) -> pa.Table:
    """(qid, ridx, n): numeric range-facet counts over n_chars for matching
    docs (facet/.../range/LongRangeFacetCounts.java; overlapping ranges
    counted independently)."""
    from lucene_ray.search.engine import IndexSearcher, range_facet_counts

    ix = _engine_index(sf_dir)
    s = IndexSearcher(ix)
    out_q, out_r, out_n = [], [], []
    for qid, term in ((0, "merge"), (1, "window")):
        for ridx, n in range_facet_counts(s, term, "n_chars", RANGE_FACETS):
            out_q.append(qid)
            out_r.append(ridx)
            out_n.append(n)
    return pa.table(
        {
            "qid": pa.array(out_q, type=pa.int64()),
            "ridx": pa.array(out_r, type=pa.int64()),
            "n": pa.array(out_n, type=pa.int64()),
        }
    )


def distrange_engine(sf_dir: str) -> pa.Table:
    """(qid, ridx, n): rangefacet_engine through the sharded
    DistributedSearcher (per-shard range counts, driver sum) — identical
    results, so it shares rangefacet_engine's oracle."""
    from lucene_ray.search.distributed import DistributedSearcher

    ix = _engine_index(sf_dir)
    dist = DistributedSearcher(ix, n_shards=3)
    out_q, out_r, out_n = [], [], []
    for qid, term in ((0, "merge"), (1, "window")):
        for ridx, n in dist.range_facet_counts(term, "n_chars", RANGE_FACETS):
            out_q.append(qid)
            out_r.append(ridx)
            out_n.append(n)
    return pa.table(
        {
            "qid": pa.array(out_q, type=pa.int64()),
            "ridx": pa.array(out_r, type=pa.int64()),
            "n": pa.array(out_n, type=pa.int64()),
        }
    )


def rangefacet_engine_sql() -> str:
    parts = []
    for qid, term in ((0, "merge"), (1, "window")):
        for ridx, (lo, hi) in enumerate(RANGE_FACETS):
            parts.append(f"""
SELECT {qid} AS qid, {ridx} AS ridx,
       CAST(count(*) FILTER (length(text) BETWEEN {lo} AND {hi}) AS BIGINT) AS n
FROM documents
WHERE doc_id IN (SELECT DISTINCT doc_id FROM tok WHERE term = '{term}')
""")
    union = "\nUNION ALL\n".join(parts)
    return f"""
{tok_cte()}
{union}
"""


def longvaluefacet_engine(sf_dir: str, top_n: int = 10) -> pa.Table:
    """(qid, rank, value, n): LongValueFacetCounts
    (facet/LongValueFacetCounts.java) over the n_chars numeric doc values —
    per-distinct-value counts for the matching docs, top children ordered
    count desc then value asc (getTopChildren:426). Float-free, SQL-checked
    exactly."""
    from lucene_ray.search.engine import IndexSearcher, long_value_facet_counts

    ix = _engine_index(sf_dir)
    s = IndexSearcher(ix)
    out = {"qid": [], "rank": [], "value": [], "n": []}
    for qid, term in ((0, "merge"), (1, "window")):
        for rank, (value, count) in enumerate(
            long_value_facet_counts(s, term, "n_chars", top_n=top_n)
        ):
            out["qid"].append(qid)
            out["rank"].append(rank)
            out["value"].append(value)
            out["n"].append(count)
    return pa.table(
        {
            "qid": pa.array(out["qid"], type=pa.int64()),
            "rank": pa.array(out["rank"], type=pa.int64()),
            "value": pa.array(out["value"], type=pa.int64()),
            "n": pa.array(out["n"], type=pa.int64()),
        }
    )


def longvaluefacet_engine_sql(top_n: int = 10) -> str:
    parts = []
    for qid, term in ((0, "merge"), (1, "window")):
        parts.append(f"""
SELECT {qid} AS qid,
       (row_number() OVER (ORDER BY cnt DESC, value ASC) - 1)::BIGINT AS rank,
       value, cnt AS n
FROM (
  SELECT length(text)::BIGINT AS value, count(*)::BIGINT AS cnt
  FROM documents
  WHERE doc_id IN (SELECT DISTINCT doc_id FROM tok WHERE term = '{term}')
  GROUP BY 1
)
QUALIFY rank < {top_n}
""")
    union = "\nUNION ALL\n".join(parts)
    return f"""
{tok_cte()}
{union}
"""


MULTIPHRASE_QUERIES: list[tuple[int, tuple[tuple[str, ...], ...]]] = [
    # (qid, slots): each slot is the alternative-terms tuple for a position
    (0, (("sort", "batch"), ("merge",))),          # "sort|batch merge"
    (1, (("key",), ("order", "value"))),           # "key order|value"
    (2, (("merge", "window"), ("join", "scan"))),  # both slots multi
]


def multiphrase_engine(sf_dir: str) -> pa.Table:
    """(qid, docid): MultiPhraseQuery doc sets (per-slot term alternatives,
    consecutive positions — search/MultiPhraseQuery.java) via the engine."""
    from lucene_ray.search.engine import IndexSearcher
    from lucene_ray.search.query import BooleanQuery, MultiPhraseQuery

    ix = _engine_index(sf_dir)
    s = IndexSearcher(ix)
    return _docsets(s, (
        (qid, BooleanQuery(should=[MultiPhraseQuery(slots)]))
        for qid, slots in MULTIPHRASE_QUERIES
    ))


def multiphrase_engine_sql() -> str:
    toks = tokenize_sql_expr("text")
    parts = []
    for qid, slots in MULTIPHRASE_QUERIES:
        def in_list(alts):
            return "(" + ", ".join(f"'{t}'" for t in alts) + ")"

        joins = " ".join(
            f"JOIN tok t{j} ON t{j}.doc_id = t0.doc_id AND t{j}.pos = t0.pos + {j} "
            f"AND t{j}.term IN {in_list(slots[j])}"
            for j in range(1, len(slots))
        )
        parts.append(
            f"SELECT DISTINCT {qid} AS qid, t0.doc_id AS docid FROM tok t0 {joins} "
            f"WHERE t0.term IN {in_list(slots[0])}"
        )
    union = "\nUNION ALL\n".join(parts)
    return f"""
WITH t AS (
  SELECT doc_id, {toks} AS l FROM documents
), tok AS (
  SELECT doc_id, unnest(l) AS term, generate_subscripts(l, 1) AS pos FROM t
)
{union}
"""


def count_engine(sf_dir: str) -> pa.Table:
    """(qid, n): exact hit counts through IndexSearcher.count — the
    TotalHitCountCollector path (search/IndexSearcher.java:380), covering
    boolean set algebra, the single-term docFreq shortcut, a parenthesized
    OR-group, and the MatchAllDocsQuery doc-count shortcut."""
    from lucene_ray.search.engine import IndexSearcher
    from lucene_ray.search.query import BooleanQuery, MatchAllDocsQuery

    ix = _engine_index(sf_dir)
    s = IndexSearcher(ix)
    rows: list[tuple[int, int]] = []
    for qid, q in BOOLEAN_QUERIES:
        rows.append((qid, s.count(q)))
    rows.append((6, s.count("merge")))            # docFreq shortcut
    rows.append((7, s.count("+(merge window) batch")))  # group required set
    rows.append((8, s.count(BooleanQuery(should=[MatchAllDocsQuery()]))))
    return pa.table(
        {
            "qid": pa.array([r[0] for r in rows], type=pa.int64()),
            "n": pa.array([r[1] for r in rows], type=pa.int64()),
        }
    )


def count_engine_sql() -> str:
    sets = {
        0: "SELECT doc_id FROM has_merge INTERSECT SELECT doc_id FROM has_window",
        1: "SELECT doc_id FROM has_batch EXCEPT SELECT doc_id FROM has_stream",
        2: "SELECT doc_id FROM has_sort UNION SELECT doc_id FROM has_join",
        3: (
            "SELECT doc_id FROM has_table INTERSECT SELECT doc_id FROM has_scan "
            "EXCEPT SELECT doc_id FROM has_hash"
        ),
        4: "SELECT DISTINCT doc_id FROM tok WHERE term LIKE 'mer%'",
        5: (
            "SELECT DISTINCT doc_id FROM tok WHERE term LIKE 'sor%' "
            "INTERSECT SELECT DISTINCT doc_id FROM tok WHERE term LIKE 'mer%'"
        ),
        6: "SELECT doc_id FROM has_merge",
        7: "SELECT doc_id FROM has_merge UNION SELECT doc_id FROM has_window",
        8: "SELECT doc_id FROM documents",
    }
    terms = ["merge", "window", "batch", "stream", "sort", "join", "table", "scan", "hash"]
    ctes = ",\n".join(
        f"has_{t} AS (SELECT DISTINCT doc_id FROM tok WHERE term = '{t}')" for t in terms
    )
    counts = "\nUNION ALL\n".join(
        f"SELECT {q} AS qid, CAST(COUNT(*) AS BIGINT) AS n FROM ({sets[q]})"
        for q in sorted(sets)
    )
    return f"""
{tok_cte()},
{ctes}
SELECT qid, n FROM ({counts}) ORDER BY qid
"""


def phrase_engine_sql() -> str:
    toks = tokenize_sql_expr("text")
    parts = []
    for qid, terms, slop in PHRASE_QUERIES:
        if slop == 0:
            joins = " ".join(
                f"JOIN tok t{j} ON t{j}.doc_id = t0.doc_id AND t{j}.pos = t0.pos + {j} "
                f"AND t{j}.term = '{terms[j]}'"
                for j in range(1, len(terms))
            )
            parts.append(
                f"SELECT DISTINCT {qid} AS qid, t0.doc_id AS docid FROM tok t0 {joins} "
                f"WHERE t0.term = '{terms[0]}'"
            )
        else:
            # sloppy: exists a selection with span of adjusted positions
            # (pos_i - i) <= slop; the 1-based SQL pos shift cancels in
            # max - min
            joins = " ".join(
                f"JOIN tok t{j} ON t{j}.doc_id = t0.doc_id AND t{j}.term = '{terms[j]}'"
                for j in range(1, len(terms))
            )
            adj = [f"t{j}.pos - {j}" for j in range(len(terms))]
            parts.append(
                f"SELECT DISTINCT {qid} AS qid, t0.doc_id AS docid FROM tok t0 {joins} "
                f"WHERE t0.term = '{terms[0]}' AND "
                f"greatest({', '.join(adj)}) - least({', '.join(adj)}) <= {slop}"
            )
    union = "\nUNION ALL\n".join(parts)
    return f"""
WITH t AS (
  SELECT doc_id, {toks} AS l FROM documents
), tok AS (
  SELECT doc_id, unnest(l) AS term, generate_subscripts(l, 1) AS pos FROM t
)
{union}
"""


# --------------------------------------------------- schema-driven doc values

# global-ordinal joins over the SORTED lang/repo DV (JoinUtil.java:456,500)
GLOBALORD_QUERIES = (
    # (qid, from_term, field, score_mode)
    (0, "merge", "lang", "none"),
    (1, "stream", "repo", "total"),
    (2, "window", "lang", "max"),
)
GLOBALORD_K = 40


def globalordjoin_engine(sf_dir: str) -> pa.Table:
    """(qid, rank, docid, n): global-ordinal join — SORTED-DV ordinals
    lifted through a merged OrdinalMap, from-side support collected as a
    global-ordinal count array, to-side matched by ordinal (never term
    bytes). score_mode none ranks docid-asc with n=1; total ranks by
    support. Float-free, SQL-checked exactly."""
    from lucene_ray.search.engine import IndexSearcher, join_query_global_ordinal

    ix = _engine_index(sf_dir, **_DV_INDEX)
    s = IndexSearcher(ix)
    out = {"qid": [], "rank": [], "docid": [], "n": []}
    for qid, term, field, mode in GLOBALORD_QUERIES:
        td = join_query_global_ordinal(
            s, term, field, score_mode=mode, k=GLOBALORD_K
        )
        out["qid"].extend([qid] * len(td.docids))
        out["rank"].extend(range(len(td.docids)))
        out["docid"].extend(td.docids.tolist())
        out["n"].extend(int(v) for v in td.values)
    return pa.table(
        {
            "qid": pa.array(out["qid"], type=pa.int64()),
            "rank": pa.array(out["rank"], type=pa.int64()),
            "docid": pa.array(out["docid"], type=pa.int64()),
            "n": pa.array(out["n"], type=pa.int64()),
        }
    )


def globalordjoin_engine_sql() -> str:
    parts = []
    for qid, term, field, mode in GLOBALORD_QUERIES:
        col = "lang" if field == "lang" else "source"
        n_expr = "s.n" if mode == "total" else "1::BIGINT"
        parts.append(f"""
SELECT {qid} AS qid,
       (row_number() OVER (ORDER BY {n_expr} DESC, d.doc_id ASC) - 1)::BIGINT AS rank,
       d.doc_id AS docid, {n_expr} AS n
FROM documents d JOIN (
  SELECT {col}, count(*)::BIGINT AS n FROM documents
  WHERE doc_id IN (SELECT DISTINCT doc_id FROM tok WHERE term = '{term}')
  GROUP BY {col}
) s USING ({col})
QUALIFY rank < {GLOBALORD_K}
""")
    union = "\nUNION ALL\n".join(parts)
    return f"""
{tok_cte()}
{union}
"""


DVSORT_QUERIES = (
    # (qid, term, field, ascending) — numeric src_id is the NON-derived DV;
    # lang/repo sort through SORTED doc values (ordinal comparator)
    (0, "merge", "src_id", False),
    (1, "window", "src_id", True),
    (2, "merge", "lang", True),
    (3, "window", "repo", False),
)


def dvsort_engine(sf_dir: str, k: int = 20) -> pa.Table:
    """(qid, rank, docid): sort-by-field over SCHEMA-DRIVEN doc values —
    a pass-through numeric column (src_id) and SORTED keyword DV fields
    (index/DocValuesType.java NUMERIC/SORTED), not derived n_chars /
    stored-column reads."""
    from lucene_ray.search.engine import IndexSearcher, search_sorted

    ix = _engine_index(sf_dir, **_DV_INDEX)
    s = IndexSearcher(ix)
    return _ranked_table(
        (qid, search_sorted(s, term, fld, k=k, ascending=asc).docids)
        for qid, term, fld, asc in DVSORT_QUERIES
    )


def dvsort_engine_sql(k: int = 20) -> str:
    parts = []
    # src_id == doc_id; lang -> lang, repo -> source (documents_as_corpus_dv)
    for qid, term, key, direction in (
        (0, "merge", "doc_id", "DESC"),
        (1, "window", "doc_id", "ASC"),
        (2, "merge", "lang", "ASC"),
        (3, "window", "source", "DESC"),
    ):
        parts.append(f"""
SELECT {qid} AS qid,
       (row_number() OVER (ORDER BY {key} {direction}, doc_id ASC) - 1)::INTEGER AS rank,
       doc_id AS docid
FROM documents
WHERE doc_id IN (SELECT DISTINCT doc_id FROM tok WHERE term = '{term}')
QUALIFY rank < {k}
""")
    union = "\nUNION ALL\n".join(parts)
    return f"""
{tok_cte()}
{union}
"""


DVFACET_QUERIES = (
    # (qid, query, field, kind) — SORTED single-valued vs SORTED_SET
    (0, "merge", "lang", "sorted"),
    (1, "window", "repo", "sorted"),
    (2, "merge", "labels", "sortedset"),
)


def dvfacet_engine(sf_dir: str) -> pa.Table:
    """(qid, value, count): facet counts backed by SORTED / SORTED_SET doc
    values (SortedSetDocValuesFacetCounts.java) — per-segment ordinal
    bincounts over the hit set, no stored-column reads. 'labels' is the
    derived {lang, repo} set field, each matching doc counting once per
    distinct member."""
    from lucene_ray.search.engine import (
        IndexSearcher,
        facet_counts,
        sorted_set_facet_counts,
    )

    ix = _engine_index(sf_dir, **_DV_INDEX)
    s = IndexSearcher(ix)
    out_q, out_v, out_c = [], [], []
    for qid, q, field, kind in DVFACET_QUERIES:
        pairs = (
            sorted_set_facet_counts(s, q, field)
            if kind == "sortedset"
            else facet_counts(s, q, field)
        )
        for v, c in pairs:
            out_q.append(qid)
            out_v.append(v)
            out_c.append(c)
    return pa.table(
        {
            "qid": pa.array(out_q, type=pa.int64()),
            "value": pa.array(out_v, type=pa.string()),
            "count": pa.array(out_c, type=pa.int64()),
        }
    )


def dvfacet_engine_sql() -> str:
    parts = []
    for qid, q, field, kind in DVFACET_QUERIES:
        match = (
            f"doc_id IN (SELECT DISTINCT doc_id FROM tok WHERE term = '{q}')"
        )
        if kind == "sortedset":
            # distinct (doc, label) before counting == per-doc ord dedup
            parts.append(f"""
SELECT {qid} AS qid, value, count(*)::BIGINT AS count FROM (
  SELECT DISTINCT doc_id, unnest([lang, source]) AS value
  FROM documents WHERE {match}
) GROUP BY value""")
        else:
            col = {"lang": "lang", "repo": "source"}[field]
            parts.append(f"""
SELECT {qid} AS qid, {col} AS value, count(*)::BIGINT AS count
FROM documents WHERE {match} GROUP BY {col}""")
    union = "\nUNION ALL\n".join(parts)
    return f"""
{tok_cte()}
{union}
"""


DVRANGE_QUERIES = (
    # (qid, lo, hi, term) over the pass-through src_id points
    (0, 100, 300, None),
    (1, None, 50, "merge"),
    (2, 4000, None, None),
)


def dvrange_engine(sf_dir: str) -> pa.Table:
    """(qid, docid): PointRangeQuery over the pass-through src_id NUMERIC
    doc value — proves schema-driven fields get the 1-D points view (range
    filter path), not just the doc-ordered column."""
    from lucene_ray.search.engine import IndexSearcher
    from lucene_ray.search.query import PointRangeQuery

    ix = _engine_index(sf_dir, **_DV_INDEX)
    s = IndexSearcher(ix)
    return _docsets(s, (
        (qid, _and_term(PointRangeQuery("src_id", lo, hi), term))
        for qid, lo, hi, term in DVRANGE_QUERIES
    ))


def dvrange_engine_sql() -> str:
    parts = []
    for qid, lo, hi, term in DVRANGE_QUERIES:
        conds = []
        if lo is not None:
            conds.append(f"doc_id >= {lo}")
        if hi is not None:
            conds.append(f"doc_id <= {hi}")
        if term:
            conds.append(
                f"doc_id IN (SELECT DISTINCT doc_id FROM tok WHERE term = '{term}')"
            )
        parts.append(
            f"SELECT {qid} AS qid, doc_id AS docid FROM documents WHERE "
            + " AND ".join(conds)
        )
    union = "\nUNION ALL\n".join(parts)
    return f"""
{tok_cte()}
{union}
"""


DVSTATS_QUERIES = (
    (0, "merge"),
    (1, "window"),
    (2, "stream"),
    (3, "zzzmissing"),  # zero matches -> no output row (count-0 stats)
)


def dvstats_engine(sf_dir: str) -> pa.Table:
    """(qid, cnt, vmin, vmax, vsum, varnum, mean, tmin, tmax): doc-values
    stats collectors (misc/search/DocValuesStats.java +
    DocValuesStatsCollector.java) — LongDocValuesStats over the NUMERIC
    src_id field and SortedDocValuesStats over the SORTED lang field, one
    row per query; integer moments are exact, mean is a single float64
    division both sides (see search/dvstats.py for the Welford-vs-exact
    divergence note)."""
    from lucene_ray.search.dvstats import numeric_dv_stats, sorted_dv_stats
    from lucene_ray.search.engine import IndexSearcher

    ix = _engine_index(sf_dir, **_DV_INDEX)
    s = IndexSearcher(ix)
    rows = []
    for qid, term in DVSTATS_QUERIES:
        num = numeric_dv_stats(s, term, "src_id")
        if num is None:
            continue
        srt = sorted_dv_stats(s, term, "lang")
        rows.append(
            {
                "qid": qid,
                "cnt": num["count"],
                "vmin": num["vmin"],
                "vmax": num["vmax"],
                "vsum": num["vsum"],
                "varnum": num["varnum"],
                "mean": num["mean"],
                "tmin": srt["tmin"],
                "tmax": srt["tmax"],
            }
        )
    t = pa.Table.from_pylist(rows)
    return t.cast(
        pa.schema(
            [
                ("qid", pa.int64()),
                ("cnt", pa.int64()),
                ("vmin", pa.int64()),
                ("vmax", pa.int64()),
                ("vsum", pa.int64()),
                ("varnum", pa.int64()),
                ("mean", pa.float64()),
                ("tmin", pa.string()),
                ("tmax", pa.string()),
            ]
        )
    )


def dvstats_engine_sql() -> str:
    # src_id == doc_id and lang -> lang under documents_as_corpus_dv; the
    # GROUP BY makes a zero-match term yield no row (engine skips it too)
    parts = []
    for qid, term in DVSTATS_QUERIES:
        parts.append(f"""
SELECT {qid} AS qid,
       count(*)::BIGINT AS cnt,
       min(doc_id) AS vmin,
       max(doc_id) AS vmax,
       sum(doc_id)::BIGINT AS vsum,
       (count(*)*sum(doc_id*doc_id) - sum(doc_id)*sum(doc_id))::BIGINT AS varnum,
       sum(doc_id)::DOUBLE / count(*) AS mean,
       min(lang) AS tmin,
       max(lang) AS tmax
FROM documents
WHERE doc_id IN (SELECT DISTINCT doc_id FROM tok WHERE term = '{term}')
GROUP BY 1
""")
    union = "\nUNION ALL\n".join(parts)
    return f"""
{tok_cte()}
{union}
"""


DIVERSIFIED_QUERIES = ((0, "merge"), (1, "window"))


def diversified_engine(
    sf_dir: str, k: int = 15, max_per_key: int = 2
) -> pa.Table:
    """(qid, rank, docid, key): DiversifiedTopDocsCollector
    (misc/search/DiversifiedTopDocsCollector.java) — top-k ordered by the
    src_id doc value desc with at most ``max_per_key`` docs per lang key.
    Float-free, SQL-checked exactly."""
    from lucene_ray.search.engine import IndexSearcher
    from lucene_ray.search.grouping import diversified_topk

    ix = _engine_index(sf_dir, **_DV_INDEX)
    s = IndexSearcher(ix)
    out = {"qid": [], "rank": [], "docid": [], "key": []}
    for qid, term in DIVERSIFIED_QUERIES:
        docs, _vals, keys = diversified_topk(
            s, term, "src_id", "lang", k=k, max_hits_per_key=max_per_key
        )
        out["qid"].extend([qid] * len(docs))
        out["rank"].extend(range(len(docs)))
        out["docid"].extend(docs.tolist())
        out["key"].extend(str(x) for x in keys)
    return pa.table(
        {
            "qid": pa.array(out["qid"], type=pa.int64()),
            "rank": pa.array(out["rank"], type=pa.int64()),
            "docid": pa.array(out["docid"], type=pa.int64()),
            "key": pa.array(out["key"], type=pa.string()),
        }
    )


def diversified_engine_sql(k: int = 15, max_per_key: int = 2) -> str:
    parts = []
    for qid, term in DIVERSIFIED_QUERIES:
        parts.append(f"""
SELECT {qid} AS qid,
       (row_number() OVER (ORDER BY doc_id DESC) - 1)::BIGINT AS rank,
       doc_id AS docid,
       lang AS key
FROM (
  SELECT doc_id, lang,
         row_number() OVER (PARTITION BY lang ORDER BY doc_id DESC) AS kr
  FROM documents
  WHERE doc_id IN (SELECT DISTINCT doc_id FROM tok WHERE term = '{term}')
)
WHERE kr <= {max_per_key}
QUALIFY rank < {k}
""")
    union = "\nUNION ALL\n".join(parts)
    return f"""
{tok_cte()}
{union}
"""


def dvquery_engine(sf_dir: str) -> pa.Table:
    """(qid, docid): the doc-values query family — DocValuesTermsQuery
    (term-set filter over SORTED and SORTED_SET ords,
    DocValuesTermsQuery.java), SortedSetDocValuesRangeQuery (value-range →
    ordinal window, SortedSetDocValuesField.newSlowRangeQuery), and
    IndexOrDocValuesQuery (same range via points vs NUMERIC-DV scan,
    search/IndexOrDocValuesQuery.java — q4 pairs it with a selective term
    lead so the dv side is chosen; q5 runs it standalone on the index
    side; both must equal the plain range)."""
    from lucene_ray.search.engine import IndexSearcher
    from lucene_ray.search.query import (
        BooleanQuery,
        DocValuesTermsQuery,
        IndexOrDocValuesQuery,
        PointRangeQuery,
        SortedSetDocValuesRangeQuery,
        TermQuery,
    )

    ix = _engine_index(sf_dir, **_DV_INDEX)
    s = IndexSearcher(ix)
    iodv = IndexOrDocValuesQuery(
        PointRangeQuery("src_id", 100, 300), PointRangeQuery("src_id", 100, 300)
    )
    cases = [
        (0, BooleanQuery(must=[DocValuesTermsQuery("lang", ("en", "fr"))])),
        (1, BooleanQuery(must=[DocValuesTermsQuery("labels", ("src3", "de"))])),
        (2, BooleanQuery(must=[
            SortedSetDocValuesRangeQuery("repo", "src1", "src3")
        ])),
        (3, BooleanQuery(must=[
            SortedSetDocValuesRangeQuery(
                "labels", "en", "src1", include_upper=False
            )
        ])),
        (4, BooleanQuery(must=[TermQuery("merge"), iodv])),
        (5, BooleanQuery(must=[iodv])),
    ]
    return _docsets(s, cases)


def dvquery_engine_sql() -> str:
    # labels = {lang, source} (SORTED_SET deriver); src_id = doc_id
    parts = [
        "SELECT 0 AS qid, doc_id AS docid FROM documents WHERE lang IN ('en','fr')",
        "SELECT 1 AS qid, doc_id AS docid FROM documents "
        "WHERE lang IN ('src3','de') OR source IN ('src3','de')",
        "SELECT 2 AS qid, doc_id AS docid FROM documents "
        "WHERE source >= 'src1' AND source <= 'src3'",
        "SELECT 3 AS qid, doc_id AS docid FROM documents "
        "WHERE (lang >= 'en' AND lang < 'src1') OR (source >= 'en' AND source < 'src1')",
        "SELECT 4 AS qid, doc_id AS docid FROM documents "
        "WHERE doc_id BETWEEN 100 AND 300 AND doc_id IN "
        "(SELECT DISTINCT doc_id FROM tok WHERE term = 'merge')",
        "SELECT 5 AS qid, doc_id AS docid FROM documents "
        "WHERE doc_id BETWEEN 100 AND 300",
    ]
    union = "\nUNION ALL\n".join(parts)
    return f"""
{tok_cte()}
{union}
"""


# ------------------------------------------------------------- covering query

COVERING_QUERIES = (
    # (qid, terms, min_match_source) — per-doc minimum from an expression
    # over the src_id NUMERIC doc-values column (the LongValuesSource);
    # values < 1 behave as 1 (qid 2 exercises that clamp)
    (0, ("merge", "sort", "scan"), "1 + src_id % 3"),
    (1, ("window", "batch", "key", "merge"), "2"),
    (2, ("merge", "window"), "src_id % 4"),
)


def covering_engine(sf_dir: str) -> pa.Table:
    """(qid, docid): CoveringQuery doc sets through the engine — at least
    minimumNumberMatch(doc) of the sub-queries must match, the minimum read
    per doc from a compiled expression over NUMERIC doc values
    (sandbox/search/CoveringQuery.java:51, CoveringScorer.java advance/
    setMinMatch). Float-free; each clause is a distinct TermQuery so the
    match count equals the distinct-matched-term count in SQL."""
    from lucene_ray.search.engine import IndexSearcher
    from lucene_ray.search.query import BooleanQuery, CoveringQuery, TermQuery

    ix = _engine_index(sf_dir, **_DV_INDEX)
    s = IndexSearcher(ix)
    return _docsets(s, (
        (qid, BooleanQuery(should=[
            CoveringQuery(tuple(TermQuery(t) for t in terms), src)
        ]))
        for qid, terms, src in COVERING_QUERIES
    ))


def covering_engine_sql() -> str:
    parts = []
    for qid, terms, src in COVERING_QUERIES:
        inlist = ", ".join(f"'{t}'" for t in terms)
        # src_id is the pass-through doc_id column (documents_as_corpus_dv)
        need = src.replace("src_id", "doc_id")
        parts.append(
            f"SELECT {qid} AS qid, doc_id AS docid FROM ("
            f"  SELECT doc_id, count(DISTINCT term) AS m FROM tok "
            f"  WHERE term IN ({inlist}) GROUP BY doc_id"
            f") WHERE m >= GREATEST(1, {need})"
        )
    union = "\nUNION ALL\n".join(parts)
    return f"""
{tok_cte()}
{union}
"""


# ------------------------------------------------------------------ payloads

PAYLOAD_QUERIES = (
    # (qid, terms, function) — PayloadFunction min/max/avg/sum over the
    # term_length payloads of each matching doc's occurrences
    (0, ("merge",), "sum"),
    (1, ("merge", "window"), "avg"),
    (2, ("sort", "stream"), "min"),
    (3, ("batch",), "max"),
)


def payload_engine(sf_dir: str) -> pa.Table:
    """(qid, docid, score): PayloadScoreQuery through the real index — the
    per-occurrence payload stream (postings .pay lane) aggregated per doc
    with min/max/avg/sum (queries/payloads/PayloadScoreQuery.java:43,
    PayloadFunction.java). Payload = term_length, so DuckDB reproduces every
    score exactly (integer sums in float64)."""
    from lucene_ray.search.engine import IndexSearcher, payload_score_search
    from lucene_ray.search.query import PayloadScoreQuery

    # payload = analyzed-term length (SQL-derivable PayloadAttribute)
    ix = _engine_index(sf_dir, payload_fn="term_length")
    s = IndexSearcher(ix)
    out_q, out_d, out_s = [], [], []
    for qid, terms, fn in PAYLOAD_QUERIES:
        td = payload_score_search(s, PayloadScoreQuery(terms, fn))
        out_q.extend([qid] * len(td.docids))
        out_d.extend(td.docids.tolist())
        out_s.extend(td.scores.tolist())
    return pa.table(
        {
            "qid": pa.array(out_q, type=pa.int64()),
            "docid": pa.array(out_d, type=pa.int64()),
            "score": pa.array(out_s, type=pa.float64()),
        }
    )


def payload_engine_sql() -> str:
    agg = {
        "sum": "sum(length(term))::DOUBLE",
        "min": "min(length(term))::DOUBLE",
        "max": "max(length(term))::DOUBLE",
        "avg": "(sum(length(term))::DOUBLE / count(*)::DOUBLE)",
    }
    parts = []
    for qid, terms, fn in PAYLOAD_QUERIES:
        tlist = ", ".join(f"'{t}'" for t in terms)
        parts.append(
            f"SELECT {qid} AS qid, doc_id AS docid, {agg[fn]} AS score\n"
            f"FROM tok WHERE term IN ({tlist}) GROUP BY doc_id"
        )
    union = "\nUNION ALL\n".join(parts)
    return f"""
{tok_cte()}
{union}
"""


# ------------------------------------------------------------- suggesters

ANALYZING_INPUTS = (
    # (qid, raw lookup input) — case/punct exercise the analyze-then-match
    # contract (input and surfaces meet in ANALYZED key space)
    (0, "the"),
    (1, "SORT"),
    (2, "merge"),
    (3, "Window,"),
)
FUZZY_INPUTS = (
    # typos within 1 edit of real analyzed prefixes
    (0, "mirge"),
    (1, "windoe"),
)
SUGGEST_K = 5


def _suggest_model_dir(sf_dir: str) -> str:
    """Build-once persisted suggester dictionary (VERDICT r4 #9): the
    reference's materialized FST becomes a key-SORTED Parquet dir
    (surface, weight, akey) — surface = first 24 chars of the raw text
    (title-like), weight = text length, akey = the AnalyzingSuggester key
    (CodeAnalyzer tokens joined by ' '). Extraction is a map_batches +
    groupby over the streaming corpus; the akey sort makes prefix lookups
    row-group-pruned reads (same persisted-index discipline as
    ops/knn.py build_lsh_index: tmp dir + marker + atomic rename)."""
    import shutil

    from ray.data.aggregate import Max

    model_dir = os.path.join(
        "/tmp/lucene_ray_cache",
        "suggest_model_" + hashlib.sha1(sf_dir.encode()).hexdigest()[:12],
    )
    marker = os.path.join(model_dir, "_SUGGEST_DONE")
    if os.path.exists(marker):
        return model_dir
    tmp_dir = model_dir + ".build"
    shutil.rmtree(tmp_dir, ignore_errors=True)
    os.makedirs(tmp_dir, exist_ok=True)

    ds = ray.data.read_parquet(f"{sf_dir}/documents.parquet", columns=["text"])

    def extract(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        txt = batch.column("text").combine_chunks()
        return pa.table(
            {
                "surface": pc.utf8_slice_codeunits(txt, 0, 24),
                "weight": pc.utf8_length(txt).cast(pa.int64()),
            }
        )

    def add_akey(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        an = CodeAnalyzer()
        lists = an.tokenize_array(batch.column("surface").combine_chunks())
        return batch.append_column("akey", pc.binary_join(lists, " "))

    (
        ds.map_batches(extract, batch_format="pyarrow", batch_size=4096)
        .groupby("surface")
        .aggregate(Max("weight", alias_name="weight"))
        .map_batches(add_akey, batch_format="pyarrow", batch_size=8192)
        .sort("akey")
        .write_parquet(tmp_dir)
    )
    with open(os.path.join(tmp_dir, "_SUGGEST_DONE"), "w") as f:
        f.write("ok")
    shutil.rmtree(model_dir, ignore_errors=True)
    os.rename(tmp_dir, model_dir)
    return model_dir


def _suggest_entries(
    sf_dir: str, key_prefix: str | None = None, with_keys: bool = False
):
    """(surfaces, weights[, akeys]) from the persisted model — a PRUNED
    akey-range read when ``key_prefix`` is given (AnalyzingSuggester
    prefix lookups touch only the row groups whose akey stats admit the
    prefix), the full dictionary otherwise (Fuzzy/BlendedInfix, like the
    reference's resident FST)."""
    import pyarrow.parquet as _pq

    from lucene_ray.search.suggest import _prefix_successor

    d = _suggest_model_dir(sf_dir)
    filters = None
    if key_prefix:
        filters = [("akey", ">=", key_prefix)]
        succ = _prefix_successor(key_prefix)
        if succ is not None:
            filters.append(("akey", "<", succ))
    cols = ["surface", "weight"] + (["akey"] if with_keys else [])
    t = _pq.read_table(
        d, columns=cols, filters=filters, ignore_prefixes=["_", "."],
    )
    out = [t.column("surface").to_pylist(), t.column("weight").to_pylist()]
    if with_keys:
        out.append(t.column("akey").to_pylist())
    return tuple(out)


# (qid, fragment, blender) — BlendedInfixSuggester gate inputs
BLENDED_INFIX_INPUTS = (
    (0, "mer", "linear"),
    (1, "mer", "reciprocal"),
    (2, "wind", "linear"),
    (3, "sor", "reciprocal"),
)
BLENDED_INFIX_K = 10


def blended_infix_suggest(sf_dir: str) -> pa.Table:
    """(qid, surface, score): BlendedInfixSuggester lookups
    (suggest/.../analyzing/BlendedInfixSuggester.java) — infix token-prefix
    matches over the persisted dictionary, weight blended by the FIRST
    matching token's position (POSITION_LINEAR / POSITION_RECIPROCAL).
    Float64 scores are bit-exact against the SQL oracle (same fixed-order
    coefficient arithmetic both sides)."""
    from lucene_ray.search.suggest import blended_infix_lookup

    surfaces, weights, akeys = _suggest_entries(sf_dir, with_keys=True)
    entries = list(zip(surfaces, weights, akeys))
    out_q, out_s, out_w = [], [], []
    for qid, frag, blender in BLENDED_INFIX_INPUTS:
        for s, sc in blended_infix_lookup(
            entries, frag, k=BLENDED_INFIX_K, blender=blender
        ):
            out_q.append(qid)
            out_s.append(s)
            out_w.append(sc)
    return pa.table(
        {
            "qid": pa.array(out_q, type=pa.int64()),
            "surface": pa.array(out_s, type=pa.string()),
            "score": pa.array(out_w, type=pa.float64()),
        }
    )


def blended_infix_suggest_sql() -> str:
    parts = []
    for qid, frag, blender in BLENDED_INFIX_INPUTS:
        coef = (
            "(1.0 - 0.1 * f.pos)"
            if blender == "linear"
            else "(1.0 / (f.pos + 1.0))"
        )
        parts.append(f"""
SELECT {qid} AS qid, k.surface,
       CAST(k.weight AS DOUBLE) * {coef} AS score
FROM keys k JOIN (
  SELECT surface, min(i) - 1 AS pos FROM ktoks
  WHERE tok LIKE '{frag}%' GROUP BY surface
) f USING (surface)
QUALIFY row_number() OVER (ORDER BY score DESC, k.surface) <= {BLENDED_INFIX_K}
""")
    union = "\nUNION ALL\n".join(parts)
    return (
        _suggest_sql_base()
        + """, ktoks AS (
  SELECT surface, unnest(string_split(akey, ' ')) AS tok,
         generate_subscripts(string_split(akey, ' '), 1) AS i
  FROM keys
)
"""
        + union
    )


def analyzing_suggest(sf_dir: str) -> pa.Table:
    """(qid, surface, weight): AnalyzingSuggester lookups — surfaces
    analyzed into keys at build, inputs analyzed at lookup, prefix-matched
    in key space, exactFirst + weight desc ranking
    (suggest/.../analyzing/AnalyzingSuggester.java)."""
    from lucene_ray.search.suggest import AnalyzingSuggester

    out_q, out_s, out_w = [], [], []
    for qid, text in ANALYZING_INPUTS:
        # pruned model read: only the akey row groups admitting this
        # input's analyzed prefix leave the persisted dictionary
        sug = AnalyzingSuggester()
        key = sug._analyze(text)
        surfaces, weights = _suggest_entries(sf_dir, key_prefix=key)
        sug.build(surfaces, weights)
        for s, w in sug.lookup(text, n=SUGGEST_K):
            out_q.append(qid)
            out_s.append(s)
            out_w.append(w)
    return pa.table(
        {
            "qid": pa.array(out_q, type=pa.int64()),
            "surface": pa.array(out_s, type=pa.string()),
            "weight": pa.array(out_w, type=pa.int64()),
        }
    )


def _suggest_sql_base() -> str:
    toks = tokenize_sql_expr("surface")
    return f"""
WITH ent AS (
  SELECT left(text, 24) AS surface, max(length(text))::BIGINT AS weight
  FROM documents GROUP BY left(text, 24)
), keys AS (
  SELECT surface, weight, array_to_string({toks}, ' ') AS akey FROM ent
)"""


def analyzing_suggest_sql() -> str:
    from lucene_ray.analysis import CodeAnalyzer

    an = CodeAnalyzer()
    parts = []
    for qid, text in ANALYZING_INPUTS:
        key = " ".join(an.tokenize_text(text))
        parts.append(f"""
SELECT {qid} AS qid, surface, weight FROM keys
WHERE akey LIKE '{key}%'
QUALIFY row_number() OVER (
  ORDER BY (akey = '{key}') DESC, weight DESC, surface
) <= {SUGGEST_K}""")
    return _suggest_sql_base() + "\nUNION ALL\n".join(parts)


def fuzzy_suggest(sf_dir: str) -> pa.Table:
    """(qid, surface, weight): FuzzySuggester lookups — analyzed input may
    differ from the key prefix by <=1 Levenshtein edit
    (suggest/.../analyzing/FuzzySuggester.java; the Levenshtein automaton
    becomes FuzzyQuery's expansion over distinct key prefixes)."""
    from lucene_ray.search.suggest import FuzzySuggester

    surfaces, weights = _suggest_entries(sf_dir)
    sug = FuzzySuggester(max_edits=1).build(surfaces, weights)
    out_q, out_s, out_w = [], [], []
    for qid, text in FUZZY_INPUTS:
        for s, w in sug.lookup(text, n=SUGGEST_K):
            out_q.append(qid)
            out_s.append(s)
            out_w.append(w)
    return pa.table(
        {
            "qid": pa.array(out_q, type=pa.int64()),
            "surface": pa.array(out_s, type=pa.string()),
            "weight": pa.array(out_w, type=pa.int64()),
        }
    )


def fuzzy_suggest_sql() -> str:
    from lucene_ray.analysis import CodeAnalyzer

    an = CodeAnalyzer()
    parts = []
    for qid, text in FUZZY_INPUTS:
        key = " ".join(an.tokenize_text(text))
        d = f"levenshtein(left(akey, {len(key)}), '{key}')"
        parts.append(f"""
SELECT {qid} AS qid, surface, weight FROM keys
WHERE {d} <= 1
QUALIFY row_number() OVER (ORDER BY {d} ASC, weight DESC, surface) <= {SUGGEST_K}""")
    return _suggest_sql_base() + "\nUNION ALL\n".join(parts)


# ---------------------------------------------------------------- soft deletes

def softdelete_engine(sf_dir: str) -> pa.Table:
    """(qid, docid): soft deletes + retention through the real engine
    (IndexWriterConfig.setSoftDeletesField /
    SoftDeletesRetentionMergePolicy.java:46).

    Flow: soft-delete doc_id%7==0 (qid 0: 'merge' hits exclude them) ->
    soft-undelete doc_id%14==0 (qid 1) -> prune_soft_deletes(retain
    'window') hardens the non-retained soft set -> force_merge reclaims the
    hardened tombstones -> soft-undelete EVERYTHING (qid 2: docs whose
    postings the merge RETAINED come back; the pruned ones are gone for
    good — the retention contract, oracle-checkable)."""
    import shutil
    import tempfile

    from lucene_ray.index.builder import build_index
    from lucene_ray.index.corpus import documents_as_corpus
    from lucene_ray.index.merge import force_merge
    from lucene_ray.index.writer import (
        prune_soft_deletes,
        soft_delete_docs,
        soft_undelete_docs,
    )
    from lucene_ray.search.engine import IndexSearcher

    corpus_path = documents_as_corpus(sf_dir)
    os.makedirs("/tmp/lucene_ray_cache", exist_ok=True)
    ix = tempfile.mkdtemp(prefix="docs_soft_", dir="/tmp/lucene_ray_cache")
    try:
        build_index([corpus_path], ix, target_docs=8192)
        n = IndexSearcher(ix).reader.doc_count
        ids = np.arange(n, dtype=np.int64)

        def collect():
            return IndexSearcher(ix).matching_docs("merge")

        soft_delete_docs(ix, ids[ids % 7 == 0])
        hits = [collect()]
        soft_undelete_docs(ix, ids[ids % 14 == 0])
        hits.append(collect())
        prune_soft_deletes(ix, retain_term="window")
        force_merge(ix, use_ray=False)
        soft_undelete_docs(ix, ids)
        hits.append(collect())
        return _docset_table(enumerate(hits))
    finally:
        shutil.rmtree(ix, ignore_errors=True)


def softdelete_engine_sql() -> str:
    return f"""
{tok_cte()}, m AS (
  SELECT DISTINCT doc_id FROM tok WHERE term = 'merge'
), w AS (
  SELECT DISTINCT doc_id FROM tok WHERE term = 'window'
)
SELECT 0 AS qid, doc_id AS docid FROM m WHERE doc_id % 7 <> 0
UNION ALL
SELECT 1 AS qid, doc_id AS docid FROM m
WHERE doc_id % 7 <> 0 OR doc_id % 14 = 0
UNION ALL
-- after prune(retain 'window') + merge + undelete-all: only the docs that
-- were HARDENED (soft-deleted at prune time, i.e. %7==0 and not %14==0,
-- and NOT containing 'window') stay gone
SELECT 2 AS qid, doc_id AS docid FROM m
WHERE NOT (
  doc_id % 7 = 0 AND doc_id % 14 <> 0
  AND doc_id NOT IN (SELECT doc_id FROM w)
)
"""


# ---------------------------------------------------------------- range fields

RANGEFIELD_QUERIES = (
    # (qid, lo, hi, relation) over the synthetic 'span' LongRange
    # (lo = (doc_id*13) % 997, hi = lo + doc_id % 53)
    (0, 100, 160, "intersects"),
    (1, 100, 160, "within"),
    (2, 480, 500, "contains"),
    (3, 100, 160, "crosses"),
    (4, None, 40, "intersects"),
)


BBOX_QUERIES: list[tuple] = [
    # (qid, min_lat, min_lon, max_lat, max_lon, relation) — bounds on the
    # 1e-4-degree grid (the fixed-point contract). qid 2's query box sits
    # INSIDE doc 7's box (lat [55.0327, 56.0327] x lon [115.7633,
    # 116.5133]) so CONTAINS has witnesses; qid 3's partial overlap of
    # doc 123's box gives CROSSES witnesses.
    (0, -10.0, -20.0, 25.5, 30.25, "intersects"),
    (1, -10.0, -20.0, 25.5, 30.25, "within"),
    (2, 55.5, 116.0, 55.6, 116.2, "contains"),
    (3, -9.5, -22.9, 30.0, 40.0, "crosses"),
    (4, 40.25, -180.0, 90.0, 180.0, "intersects"),
]


def bboxfield_engine(sf_dir: str) -> pa.Table:
    """(qid, docid): LatLonBoundingBox 2-D box range field
    (sandbox/document/LatLonBoundingBox.java newIntersects/Within/
    Contains/CrossesQuery) — per-axis 1-D ranges composed by the
    multi-dim relation algebra, through the real engine. The synthetic
    rect is a pure function of doc_id, so every relation mirrors
    exactly."""
    from lucene_ray.search.engine import IndexSearcher
    from lucene_ray.search.query import BooleanQuery, LatLonBoundingBoxQuery

    ix = _engine_index(sf_dir, range_fields=("bbox_lat", "bbox_lon"))
    s = IndexSearcher(ix)
    return _docsets(s, (
        (qid, BooleanQuery(
            must=[LatLonBoundingBoxQuery("bbox", la0, lo0, la1, lo1, rel)]
        ))
        for qid, la0, lo0, la1, lo1, rel in BBOX_QUERIES
    ))


def bboxfield_engine_sql() -> str:
    from lucene_ray.search.spatial import (
        _LAT_MULT,
        _LON_MULT,
        LAT_SPAN,
        LON_SPAN,
        QUANT,
    )

    parts = []
    for qid, la0, lo0, la1, lo1, rel in BBOX_QUERIES:
        ql_lat, qh_lat = int(round(la0 * QUANT)), int(round(la1 * QUANT))
        ql_lon, qh_lon = int(round(lo0 * QUANT)), int(round(lo1 * QUANT))

        def axis(rel_, lo, hi, ql, qh):
            if rel_ == "intersects":
                return f"({lo} <= {qh} AND {hi} >= {ql})"
            if rel_ == "within":
                return f"({lo} >= {ql} AND {hi} <= {qh})"
            return f"({lo} <= {ql} AND {hi} >= {qh})"  # contains

        def both(rel_):
            return (
                axis(rel_, "blat_lo", "blat_hi", ql_lat, qh_lat)
                + " AND "
                + axis(rel_, "blon_lo", "blon_hi", ql_lon, qh_lon)
            )

        if rel in ("intersects", "within", "contains"):
            cond = both(rel)
        else:
            cond = (
                f"({both('intersects')}) AND NOT ({both('within')}) "
                f"AND NOT ({both('contains')})"
            )
        parts.append(
            f"SELECT {qid} AS qid, doc_id AS docid FROM boxes WHERE {cond}"
        )
    union = "\nUNION ALL\n".join(parts)
    q4 = QUANT // 4
    q2 = QUANT // 2
    return f"""
WITH boxes AS (
  SELECT doc_id,
         (doc_id * {_LAT_MULT}) % {LAT_SPAN} - {90 * QUANT} AS blat_lo,
         (doc_id * {_LAT_MULT}) % {LAT_SPAN} - {90 * QUANT}
           + {q4} + (doc_id % 4) * {q4} AS blat_hi,
         (doc_id * {_LON_MULT}) % {LON_SPAN} - {180 * QUANT} AS blon_lo,
         (doc_id * {_LON_MULT}) % {LON_SPAN} - {180 * QUANT}
           + {q4} + (doc_id % 3) * {q2} AS blon_hi
  FROM documents
)
{union}
"""


def rangefield_engine(sf_dir: str) -> pa.Table:
    """(qid, docid): LongRange-field relation queries
    (document/LongRange.java:48 newIntersects/Within/Contains/CrossesQuery)
    over the per-segment (lo, hi) sidecar, through the real boolean engine
    (constant-score doc-set clauses). The synthetic range is a pure
    function of doc_id, so DuckDB mirrors every relation exactly."""
    from lucene_ray.search.engine import IndexSearcher
    from lucene_ray.search.query import BooleanQuery, RangeFieldQuery

    ix = _engine_index(sf_dir, range_fields=("span",))
    s = IndexSearcher(ix)
    return _docsets(s, (
        (qid, BooleanQuery(must=[RangeFieldQuery("span", lo, hi, rel)]))
        for qid, lo, hi, rel in RANGEFIELD_QUERIES
    ))


def rangefield_engine_sql() -> str:
    imin, imax = -(2**63), 2**63 - 1
    parts = []
    for qid, lo, hi, rel in RANGEFIELD_QUERIES:
        ql = imin if lo is None else lo
        qh = imax if hi is None else hi
        inter = f"(lo <= {qh} AND hi >= {ql})"
        within = f"(lo >= {ql} AND hi <= {qh})"
        contains = f"(lo <= {ql} AND hi >= {qh})"
        cond = {
            "intersects": inter,
            "within": within,
            "contains": contains,
            "crosses": f"({inter} AND NOT {within} AND NOT {contains})",
        }[rel]
        parts.append(
            f"SELECT {qid} AS qid, doc_id AS docid FROM spans WHERE {cond}"
        )
    union = "\nUNION ALL\n".join(parts)
    return f"""
WITH spans AS (
  SELECT doc_id,
         (doc_id * 13) % 997 AS lo,
         (doc_id * 13) % 997 + doc_id % 53 AS hi
  FROM documents
)
{union}
"""


# ----------------------------------------------------------------- replication

def replica_engine(sf_dir: str) -> pa.Table:
    """(qid, docid): NRT replication (lucene/replicator IndexReplicationHandler
    / IndexRevision) — build a primary, ship its revision to a replica dir,
    search the REPLICA (qid 0); then tombstone doc_id%11==0 on the primary
    and ship the incremental revision (only the new livedocs generation +
    rewritten entry/manifest move), search the replica again (qid 1)."""
    import shutil
    import tempfile

    from lucene_ray.index.builder import build_index
    from lucene_ray.index.corpus import documents_as_corpus
    from lucene_ray.index.replicate import replicate
    from lucene_ray.index.writer import delete_docs
    from lucene_ray.search.engine import IndexSearcher

    corpus_path = documents_as_corpus(sf_dir)
    os.makedirs("/tmp/lucene_ray_cache", exist_ok=True)
    src = tempfile.mkdtemp(prefix="docs_repl_src_", dir="/tmp/lucene_ray_cache")
    dst = tempfile.mkdtemp(prefix="docs_repl_dst_", dir="/tmp/lucene_ray_cache")
    try:
        build_index([corpus_path], src, target_docs=8192)

        def collect():
            return IndexSearcher(dst).matching_docs("merge")

        replicate(src, dst)
        hits = [collect()]
        n = IndexSearcher(src).reader.doc_count
        ids = np.arange(n, dtype=np.int64)
        delete_docs(src, ids[ids % 11 == 0])
        replicate(src, dst)
        hits.append(collect())
        return _docset_table(enumerate(hits))
    finally:
        shutil.rmtree(src, ignore_errors=True)
        shutil.rmtree(dst, ignore_errors=True)


def replica_engine_sql() -> str:
    return f"""
{tok_cte()}, m AS (
  SELECT DISTINCT doc_id FROM tok WHERE term = 'merge'
)
SELECT 0 AS qid, doc_id AS docid FROM m
UNION ALL
SELECT 1 AS qid, doc_id AS docid FROM m WHERE doc_id % 11 <> 0
"""


# ---------------------------------------------------------------------------
# grouping-package completion (round 5): AllGroupHeadsCollector,
# DistinctValuesCollector, TermGroupFacetCollector, LongRangeGroupSelector,
# BlockGroupingCollector — see search/grouping.py for the reference mapping.
# Stored-field column map: corpus repo <- documents.source, lang <- lang.

GROUPHEADS_QUERIES: list[tuple[int, str, str]] = [
    (0, "merge", "lang"),
    (1, "stream", "repo"),
]

RANGEGROUP_BOUNDS = (150, 100, 450)  # (min, width, max) over n_chars


def groupheads_engine(sf_dir: str) -> pa.Table:
    """(qid, docid): AllGroupHeadsCollector — the single head doc of EVERY
    group among each query's matches (n_chars desc, docid asc within a
    group). Float-free, SQL-checked exactly."""
    from lucene_ray.search.engine import IndexSearcher
    from lucene_ray.search.grouping import all_group_heads

    ix = _engine_index(sf_dir)
    s = IndexSearcher(ix)
    return _docset_table(
        (qid, all_group_heads(s, term, fld, "n_chars"))
        for qid, term, fld in GROUPHEADS_QUERIES
    )


def groupheads_engine_sql() -> str:
    col = {"lang": "lang", "repo": "source"}
    parts = []
    for qid, term, fld in GROUPHEADS_QUERIES:
        c = col[fld]
        parts.append(f"""
SELECT {qid} AS qid, doc_id AS docid FROM (
  SELECT d.doc_id,
         row_number() OVER (PARTITION BY d.{c}
                            ORDER BY length(d.text) DESC, d.doc_id ASC) AS rn
  FROM documents d
  WHERE d.doc_id IN (SELECT DISTINCT doc_id FROM tok WHERE term = '{term}')
) WHERE rn = 1""")
    union = "\nUNION ALL\n".join(parts)
    return f"""
{tok_cte()}
{union}
"""


def distinctvalues_engine(sf_dir: str) -> pa.Table:
    """(qid, grp, val): DistinctValuesCollector — distinct repo values per
    top-2 lang group (groups by hit count desc, value asc) of each query's
    matches. Float-free, SQL-checked exactly."""
    from lucene_ray.search.engine import IndexSearcher
    from lucene_ray.search.grouping import distinct_values

    ix = _engine_index(sf_dir)
    s = IndexSearcher(ix)
    out_q, out_g, out_v = [], [], []
    for qid, term in ((0, "merge"), (1, "window")):
        for grp, vals in distinct_values(s, term, "lang", "repo", 2):
            for v in vals:
                out_q.append(qid)
                out_g.append(grp)
                out_v.append(v)
    return pa.table(
        {
            "qid": pa.array(out_q, type=pa.int64()),
            "grp": pa.array(out_g, type=pa.string()),
            "val": pa.array(out_v, type=pa.string()),
        }
    )


def distinctvalues_engine_sql() -> str:
    ctes, selects = [], []
    for qid, term in ((0, "merge"), (1, "window")):
        ctes.append(
            f"hits{qid} AS (SELECT DISTINCT doc_id FROM tok WHERE term = '{term}'),\n"
            f"g{qid} AS (SELECT d.lang AS gv, count(*) AS cnt FROM documents d "
            f"JOIN hits{qid} USING (doc_id) GROUP BY d.lang),\n"
            f"topg{qid} AS (SELECT gv FROM g{qid} "
            f"QUALIFY row_number() OVER (ORDER BY cnt DESC, gv ASC) <= 2)"
        )
        selects.append(
            f"SELECT DISTINCT {qid} AS qid, d.lang AS grp, d.source AS val "
            f"FROM documents d JOIN hits{qid} USING (doc_id) "
            f"WHERE d.lang IN (SELECT gv FROM topg{qid})"
        )
    cte_block = ",\n".join(ctes)
    union = "\nUNION ALL\n".join(selects)
    return f"""
{tok_cte()},
{cte_block}
{union}
"""


def groupfacet_engine(sf_dir: str) -> pa.Table:
    """(qid, facet, n): TermGroupFacetCollector — per repo facet value,
    the number of DISTINCT lang groups having a matching doc with it
    (each (group, facet) pair counts once). Float-free, SQL-checked
    exactly."""
    from lucene_ray.search.engine import IndexSearcher
    from lucene_ray.search.grouping import group_facet_counts

    ix = _engine_index(sf_dir)
    s = IndexSearcher(ix)
    out_q, out_f, out_n = [], [], []
    for qid, term in ((0, "merge"), (1, "stream")):
        for facet, n in group_facet_counts(s, term, "lang", "repo"):
            out_q.append(qid)
            out_f.append(facet)
            out_n.append(n)
    return pa.table(
        {
            "qid": pa.array(out_q, type=pa.int64()),
            "facet": pa.array(out_f, type=pa.string()),
            "n": pa.array(out_n, type=pa.int64()),
        }
    )


def groupfacet_engine_sql() -> str:
    parts = []
    for qid, term in ((0, "merge"), (1, "stream")):
        parts.append(
            f"SELECT {qid} AS qid, d.source AS facet, "
            f"count(DISTINCT d.lang) AS n FROM documents d WHERE d.doc_id IN "
            f"(SELECT DISTINCT doc_id FROM tok WHERE term = '{term}') "
            f"GROUP BY d.source"
        )
    union = "\nUNION ALL\n".join(parts)
    return f"""
{tok_cte()}
{union}
"""


def rangegroup_engine(sf_dir: str) -> pa.Table:
    """(qid, lo, rank, docid): LongRangeGroupSelector grouping — group key
    = the LongRangeFactory({RANGEGROUP_BOUNDS}) bucket of n_chars; top 3
    groups by (hit count desc, lo asc), top 2 docs per group by (n_chars
    desc, docid asc). Below-min bucket lo = LONG_MIN. Float-free,
    SQL-checked exactly."""
    from lucene_ray.search.engine import IndexSearcher
    from lucene_ray.search.grouping import range_group_topk

    ix = _engine_index(sf_dir)
    s = IndexSearcher(ix)
    r_min, width, r_max = RANGEGROUP_BOUNDS
    out = {"qid": [], "lo": [], "rank": [], "docid": []}
    for qid, term in ((0, "merge"), (1, "window")):
        for g in range_group_topk(s, term, "n_chars", r_min, width, r_max):
            for r, d in enumerate(g.docids):
                out["qid"].append(qid)
                out["lo"].append(g.group_value[0])
                out["rank"].append(r)
                out["docid"].append(int(d))
    return pa.table(
        {
            "qid": pa.array(out["qid"], type=pa.int64()),
            "lo": pa.array(out["lo"], type=pa.int64()),
            "rank": pa.array(out["rank"], type=pa.int32()),
            "docid": pa.array(out["docid"], type=pa.int64()),
        }
    )


def rangegroup_engine_sql() -> str:
    r_min, width, r_max = RANGEGROUP_BOUNDS
    long_min = -(1 << 63)
    bucket = (
        f"CASE WHEN length(d.text) < {r_min} THEN CAST({long_min} AS BIGINT) "
        f"WHEN length(d.text) >= {r_max} THEN {r_max} "
        f"ELSE {r_min} + ((length(d.text) - {r_min}) // {width}) * {width} END"
    )
    ctes, selects = [], []
    for qid, term in ((0, "merge"), (1, "window")):
        ctes.append(
            f"hits{qid} AS (SELECT DISTINCT doc_id FROM tok WHERE term = '{term}'),\n"
            f"b{qid} AS (SELECT d.doc_id, length(d.text) AS v, {bucket} AS lo "
            f"FROM documents d JOIN hits{qid} USING (doc_id)),\n"
            f"g{qid} AS (SELECT lo, count(*) AS cnt FROM b{qid} GROUP BY lo),\n"
            f"topg{qid} AS (SELECT lo FROM g{qid} "
            f"QUALIFY row_number() OVER (ORDER BY cnt DESC, lo ASC) <= 3),\n"
            f"docs{qid} AS (SELECT lo, doc_id, row_number() OVER "
            f"(PARTITION BY lo ORDER BY v DESC, doc_id ASC) - 1 AS rank FROM b{qid})"
        )
        selects.append(
            f"SELECT {qid} AS qid, d.lo, d.rank::INTEGER AS rank, "
            f"d.doc_id AS docid FROM docs{qid} d "
            f"WHERE d.lo IN (SELECT lo FROM topg{qid}) AND d.rank < 2"
        )
    cte_block = ",\n".join(ctes)
    union = "\nUNION ALL\n".join(selects)
    return f"""
{tok_cte()},
{cte_block}
{union}
"""


def blockgroup_engine(sf_dir: str) -> pa.Table:
    """(qid, parent, rank, docid): BlockGroupingCollector — hits grouped
    by enclosing doc block (blockjoin_engine's 3-children+parent layout,
    parent docid = 4i+3); top 3 blocks by (hit count desc, parent asc),
    top 2 hits per block in docid order. Float-free, SQL-checked
    exactly."""
    import shutil
    import tempfile

    import pyarrow.parquet as pq

    from lucene_ray.index.builder import build_index
    from lucene_ray.search.engine import IndexSearcher
    from lucene_ray.search.grouping import block_group_topk
    from lucene_ray.search.query import BooleanQuery, TermQuery

    docs = pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    ids = docs.column("doc_id").to_numpy(zero_copy_only=False)
    order = np.argsort(ids)
    texts = docs.column("text").take(pa.array(order)).to_pylist()
    n_blocks = len(texts) // 3
    rows = []
    for i in range(n_blocks):
        for j in range(3):
            rows.append(
                {"repo": "child", "path": f"c/{i}/{j}", "commit": "0",
                 "lang": "txt", "content": texts[3 * i + j]}
            )
        rows.append(
            {"repo": "parent", "path": f"p/{i}", "commit": "0",
             "lang": "txt", "content": f"parentdoc b{i}"}
        )
    os.makedirs("/tmp/lucene_ray_cache", exist_ok=True)
    ix = tempfile.mkdtemp(prefix="docs_bg_", dir="/tmp/lucene_ray_cache")
    src = ix + "_corpus.parquet"
    pq.write_table(pa.Table.from_pylist(rows), src, row_group_size=256)
    try:
        build_index([src], ix, target_docs=512)
        s = IndexSearcher(ix)
        out = {"qid": [], "parent": [], "rank": [], "docid": []}
        for qid, term in ((0, "merge"), (1, "window")):
            for g in block_group_topk(
                s,
                BooleanQuery(should=[TermQuery(term)]),
                BooleanQuery(should=[TermQuery("repo:parent")]),
            ):
                for r, d in enumerate(g.docids):
                    out["qid"].append(qid)
                    out["parent"].append(g.group_value)
                    out["rank"].append(r)
                    out["docid"].append(int(d))
        return pa.table(
            {
                "qid": pa.array(out["qid"], type=pa.int64()),
                "parent": pa.array(out["parent"], type=pa.int64()),
                "rank": pa.array(out["rank"], type=pa.int32()),
                "docid": pa.array(out["docid"], type=pa.int64()),
            }
        )
    finally:
        shutil.rmtree(ix, ignore_errors=True)
        if os.path.exists(src):
            os.remove(src)


def blockgroup_engine_sql() -> str:
    ctes, selects = [], []
    for qid, term in ((0, "merge"), (1, "window")):
        ctes.append(
            f"h{qid} AS (SELECT rk // 3 AS blk, (rk // 3) * 4 + (rk % 3) AS docid "
            f"FROM ranked WHERE rk < 3 * (SELECT n FROM nb) AND doc_id IN "
            f"(SELECT DISTINCT doc_id FROM tok WHERE term = '{term}')),\n"
            f"g{qid} AS (SELECT blk, count(*) AS cnt FROM h{qid} GROUP BY blk),\n"
            f"topg{qid} AS (SELECT blk FROM g{qid} "
            f"QUALIFY row_number() OVER (ORDER BY cnt DESC, blk ASC) <= 3),\n"
            f"d{qid} AS (SELECT blk, docid, row_number() OVER "
            f"(PARTITION BY blk ORDER BY docid ASC) - 1 AS rank FROM h{qid})"
        )
        selects.append(
            f"SELECT {qid} AS qid, blk * 4 + 3 AS parent, "
            f"rank::INTEGER AS rank, docid FROM d{qid} "
            f"WHERE blk IN (SELECT blk FROM topg{qid}) AND rank < 2"
        )
    cte_block = ",\n".join(ctes)
    union = "\nUNION ALL\n".join(selects)
    return f"""
{tok_cte()}, ranked AS (
  SELECT doc_id, (row_number() OVER (ORDER BY doc_id) - 1) AS rk
  FROM documents
), nb AS (
  SELECT (count(*) // 3) AS n FROM documents
),
{cte_block}
{union}
"""


# ---------------------------------------------------------------------------
# sandbox/document completion (round 5): HalfFloatPoint field,
# FloatPointNearestNeighbor, DoublePointMultiRangeBuilder.

def _hfpoint_queries():
    from lucene_ray.search import floatpoint as fp

    # every bound is fp16-exact (|v| < 2048 integers; 87.5 has ulp 1/16
    # at that magnitude), so the oracle compares plain arithmetic
    return [
        (0, fp.half_range_query("hfscore", -150.0, 87.5),
         "(length(d.text) - 300) >= -150 AND (length(d.text) - 300) <= 87.5"),
        (1, fp.half_range_query("hfscore", None, -96.0),
         "(length(d.text) - 300) <= -96"),
        (2, fp.half_exact_query("hfscore", -263.0),
         "(length(d.text) - 300) = -263"),
        (3, fp.half_set_query("hfscore", [-263.0, 0.0, 17.0, 2047.0]),
         "(length(d.text) - 300) IN (-263, 0, 17, 2047)"),
    ]


def hfpoint_engine(sf_dir: str) -> pa.Table:
    """(qid, docid): HalfFloatPoint range/exact/set queries
    (sandbox/document/HalfFloatPoint.java newRangeQuery/newSetQuery) over
    the sortable-short encoded field — util/halffloat.py encoder, bounds
    encoded with the same transform the builder stored. Values and bounds
    are fp16-exact, so the oracle is integer arithmetic."""
    from lucene_ray.search.engine import IndexSearcher
    from lucene_ray.search.query import BooleanQuery

    # HalfFloatPoint demo field (hfscore = fp16(n_chars - 300), sortable)
    ix = _engine_index(sf_dir, dv_fields=("hfscore",))
    s = IndexSearcher(ix)
    return _docsets(s, (
        (qid, BooleanQuery(must=[q]))
        for qid, q, _sql in _hfpoint_queries()
    ))


def hfpoint_engine_sql() -> str:
    parts = [
        f"SELECT {qid} AS qid, d.doc_id AS docid FROM documents d WHERE {cond}"
        for qid, _q, cond in _hfpoint_queries()
    ]
    return "\nUNION ALL\n".join(parts)


FPNEAREST_ORIGINS = [(-18.7, 7), (0.0, 7), (4.25, 7)]


def fpnearest_engine(sf_dir: str) -> pa.Table:
    """(qid, rank, docid): FloatPointNearestNeighbor.nearest
    (sandbox/document/FloatPointNearestNeighbor.java) over the dscore
    double point — k nearest by |value - origin|, docid-asc tie-break.
    Engine distances and the oracle's both compute
    abs((n_chars - 500)*0.1 - origin) in IEEE float64, so ranks match
    exactly."""
    from lucene_ray.search.engine import IndexSearcher
    from lucene_ray.search.floatpoint import point_nearest

    ix = _engine_index(sf_dir, dv_fields=("dscore", "fscore"))
    s = IndexSearcher(ix)
    out = {"qid": [], "rank": [], "docid": []}
    for qid, (origin, k) in enumerate(FPNEAREST_ORIGINS):
        for r, (doc, _dist) in enumerate(
            point_nearest(s.reader, "dscore", origin, k)
        ):
            out["qid"].append(qid)
            out["rank"].append(r)
            out["docid"].append(doc)
    return pa.table(
        {
            "qid": pa.array(out["qid"], type=pa.int64()),
            "rank": pa.array(out["rank"], type=pa.int32()),
            "docid": pa.array(out["docid"], type=pa.int64()),
        }
    )


def fpnearest_engine_sql() -> str:
    from lucene_ray.search.floatpoint import sql_dscore

    v = sql_dscore("length(d.text)")
    parts = []
    for qid, (origin, k) in enumerate(FPNEAREST_ORIGINS):
        parts.append(f"""
SELECT {qid} AS qid, (row_number() OVER (
    ORDER BY abs({v} - ({origin!r})), d.doc_id) - 1)::INTEGER AS rank,
  d.doc_id AS docid
FROM documents d
QUALIFY rank < {k}""")
    return "\nUNION ALL\n".join(parts)


def _fpmultirange_queries():
    from lucene_ray.search import floatpoint as fp

    v = fp.sql_dscore("length(d.text)")
    return [
        (0, fp.double_multi_range_query(
            "dscore", [(-30.0, -25.5), (0.05, 2.0), (11.75, None)]),
         f"({v} >= -30.0 AND {v} <= -25.5) OR ({v} >= 0.05 AND {v} <= 2.0)"
         f" OR ({v} >= 11.75)"),
        (1, fp.double_multi_range_query(
            "dscore", [(None, -44.0), (-1.0, 1.0)]),
         f"({v} <= -44.0) OR ({v} >= -1.0 AND {v} <= 1.0)"),
    ]


def fpmultirange_engine(sf_dir: str) -> pa.Table:
    """(qid, docid): DoublePointMultiRangeBuilder
    (sandbox/document/DoublePointMultiRangeBuilder.java) — one
    MultiRangeQuery per query over sortable-encoded double ranges (value
    in ANY range, open bounds included). Exact: encoding is an order
    isomorphism, the oracle compares raw doubles."""
    from lucene_ray.search.engine import IndexSearcher
    from lucene_ray.search.query import BooleanQuery

    ix = _engine_index(sf_dir, dv_fields=("dscore", "fscore"))
    s = IndexSearcher(ix)
    return _docsets(s, (
        (qid, BooleanQuery(must=[q]))
        for qid, q, _sql in _fpmultirange_queries()
    ))


def fpmultirange_engine_sql() -> str:
    parts = [
        f"SELECT {qid} AS qid, d.doc_id AS docid FROM documents d WHERE {cond}"
        for qid, _q, cond in _fpmultirange_queries()
    ]
    return "\nUNION ALL\n".join(parts)


# ---------------------------------------------------------------------------
# classification/utils completion (round 5): DatasetSplitter +
# ConfusionMatrixGenerator (see search/classification.py).

DATASET_SPLIT_RATIOS = (0.2, 0.1)  # (test, cross-validation)


def _datasetsplit_sql_ctes() -> str:
    """CTE chain ending in ``splits(doc_id, split)`` — the closed form of
    DatasetSplitter.split's sequential loop (proof in
    classification.dataset_split's docstring)."""
    tr, cr = DATASET_SPLIT_RATIOS
    return f"""sg AS (
  SELECT doc_id, lang,
         min(doc_id) OVER (PARTITION BY lang) AS gfirst,
         count(*) OVER (PARTITION BY lang) AS n
  FROM documents
), sb AS (
  SELECT *, row_number() OVER (ORDER BY gfirst, doc_id) - 1 AS b FROM sg
), se AS (
  SELECT *, row_number() OVER (PARTITION BY lang, b % 2 ORDER BY b) - 1 AS er
  FROM sb
), st0 AS (
  SELECT *, (b % 2 = 0 AND er < n * {tr}) AS is_test FROM se
), sc AS (
  SELECT *, row_number() OVER (PARTITION BY lang, is_test ORDER BY b) - 1 AS cr
  FROM st0
), splits AS (
  SELECT doc_id, CASE WHEN is_test THEN 'test'
                      WHEN cr < n * {cr} THEN 'cv'
                      ELSE 'train' END AS split
  FROM sc
)"""


def datasetsplit_engine(sf_dir: str) -> pa.Table:
    """(docid, split): DatasetSplitter
    (classification/utils/DatasetSplitter.java) — stratified
    train/test/cv assignment over the lang classes, reference loop
    semantics via the closed-form rank predicates. Integer/ratio
    arithmetic only, SQL-checked exactly."""
    from lucene_ray.search.classification import dataset_split
    from lucene_ray.search.engine import IndexSearcher

    ix = _engine_index(sf_dir)
    s = IndexSearcher(ix)
    tr, cr = DATASET_SPLIT_RATIOS
    docids, splits = dataset_split(s, "lang", tr, cr)
    return pa.table(
        {
            "docid": pa.array(docids.tolist(), type=pa.int64()),
            "split": pa.array(splits.tolist(), type=pa.string()),
        }
    )


def datasetsplit_engine_sql() -> str:
    return f"""
WITH {_datasetsplit_sql_ctes()}
SELECT doc_id AS docid, split FROM splits
"""


def _engine_index_trainsplit(sf_dir: str) -> str:
    """Index over ONLY the DatasetSplitter train docs (the classifier
    training side of the ConfusionMatrixGenerator workflow)."""
    import pyarrow.parquet as pq

    from lucene_ray.index.builder import build_index
    from lucene_ray.index.merge import TieredMergePolicy, maybe_merge
    from lucene_ray.search.classification import dataset_split
    from lucene_ray.search.engine import IndexSearcher

    tr, cr = DATASET_SPLIT_RATIOS
    s = IndexSearcher(_engine_index(sf_dir))
    docids, splits = dataset_split(s, "lang", tr, cr)
    train = set(docids[splits == "train"].tolist())
    ix = os.path.join(
        "/tmp/lucene_ray_cache",
        "docs_nbtrain_" + hashlib.sha1(sf_dir.encode()).hexdigest()[:12],
    )
    src = ix + "_corpus.parquet"
    if not os.path.exists(src):
        t = pq.read_table(f"{sf_dir}/documents.parquet")
        keep = pa.array([i in train for i in t.column("doc_id").to_pylist()])
        t = t.filter(keep)
        corpus = pa.table(
            {
                "repo": t.column("source").cast(pa.string()),
                "path": pa.array(
                    [f"doc/{i}" for i in t.column("doc_id").to_pylist()]
                ),
                "commit": pa.array(["0" * 40] * t.num_rows, type=pa.string()),
                "lang": t.column("lang").cast(pa.string()),
                "content": t.column("text").cast(pa.string()),
            }
        )
        os.makedirs("/tmp/lucene_ray_cache", exist_ok=True)
        pq.write_table(corpus, src + ".tmp", row_group_size=16384)
        os.replace(src + ".tmp", src)
    build_index([src], ix, target_docs=8192)
    maybe_merge(ix, TieredMergePolicy(), use_ray=False)
    return ix


def nbconfusion_engine(sf_dir: str) -> pa.Table:
    """(actual, predicted, n): ConfusionMatrixGenerator
    (classification/utils/ConfusionMatrixGenerator.java) — SimpleNaiveBayes
    trained on the DatasetSplitter train docs classifies every test doc;
    the matrix counts (actual lang, predicted lang). Predictions compare
    bit-identical float64 NB scores on both sides (left-assoc ln chains
    — the SQL folds each chain with an ordered list_reduce), so the
    integer matrix is exact."""
    import pyarrow.parquet as pq

    from lucene_ray.search.classification import (
        confusion_matrix,
        dataset_split,
    )
    from lucene_ray.search.engine import IndexSearcher

    tr, cr = DATASET_SPLIT_RATIOS
    s_full = IndexSearcher(_engine_index(sf_dir))
    docids, splits = dataset_split(s_full, "lang", tr, cr)
    test = set(docids[splits == "test"].tolist())
    t = pq.read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang", "text"]
    )
    items = sorted(
        (int(i), str(lg), str(tx))
        for i, lg, tx in zip(
            t.column("doc_id").to_pylist(),
            t.column("lang").to_pylist(),
            t.column("text").to_pylist(),
        )
        if int(i) in test
    )
    s_train = IndexSearcher(_engine_index_trainsplit(sf_dir))
    cm = confusion_matrix(s_train, [(lg, tx) for _i, lg, tx in items], "lang")
    return pa.table(
        {
            "actual": pa.array([a for a, _p, _n in cm], type=pa.string()),
            "predicted": pa.array([p for _a, p, _n in cm], type=pa.string()),
            "n": pa.array([n for _a, _p, n in cm], type=pa.int64()),
        }
    )


def nbconfusion_engine_sql() -> str:
    toks = tokenize_sql_expr("text")
    return f"""
WITH {_datasetsplit_sql_ctes()},
train AS (
  SELECT d.* FROM documents d JOIN splits s ON d.doc_id = s.doc_id
  WHERE s.split = 'train'
), test AS (
  SELECT d.* FROM documents d JOIN splits s ON d.doc_id = s.doc_id
  WHERE s.split = 'test'
), ttok_all AS (
  SELECT doc_id, unnest({toks}) AS term FROM train
), ttok AS (
  SELECT DISTINCT doc_id, term FROM ttok_all
), nb AS (
  SELECT (SELECT count(*) FROM ttok)::DOUBLE AS np,
         (SELECT count(DISTINCT doc_id) FROM ttok_all)::DOUBLE AS dcc,
         (SELECT count(*) FROM train)::DOUBLE AS dwc
), classes AS (
  SELECT lang AS cls, count(*)::DOUBLE AS dfc FROM train GROUP BY lang
), td0 AS (
  SELECT doc_id, lang AS actual, {toks} AS l FROM test
), tt AS (
  SELECT doc_id, actual,
         unnest(generate_series(1, len(l))) AS ord,
         unnest(l) AS term
  FROM td0
), hits AS (
  SELECT k.term, tr.lang AS cls, count(*) AS h
  FROM ttok k JOIN train tr ON tr.doc_id = k.doc_id
  WHERE k.term IN (SELECT DISTINCT term FROM tt)
  GROUP BY k.term, tr.lang
), lnvals AS (
  SELECT tt.doc_id, tt.actual, tt.ord, c.cls,
         ln((coalesce(h.h, 0) + 1) /
            ((nb.np / nb.dcc) * c.dfc + nb.dwc)) AS v
  FROM tt CROSS JOIN classes c
  LEFT JOIN hits h ON h.term = tt.term AND h.cls = c.cls
  CROSS JOIN nb
), chains AS (
  SELECT doc_id, actual, cls, list(v ORDER BY ord) AS vs
  FROM lnvals GROUP BY doc_id, actual, cls
), scored AS (
  SELECT t0.doc_id, t0.actual, c.cls,
         (ln(c.dfc) - ln(nb.dwc)) +
         coalesce(list_reduce(ch.vs, (a, b) -> a + b), 0.0) AS score
  FROM (SELECT doc_id, actual FROM td0) t0
  CROSS JOIN classes c
  LEFT JOIN chains ch ON ch.doc_id = t0.doc_id AND ch.cls = c.cls
  CROSS JOIN nb
), pred AS (
  SELECT doc_id, actual, cls AS predicted,
         row_number() OVER (PARTITION BY doc_id
                            ORDER BY score DESC, cls ASC) AS rn
  FROM scored
)
SELECT actual, predicted, count(*) AS n
FROM pred WHERE rn = 1
GROUP BY actual, predicted
"""


# ---------------------------------------------------------------------------
# monitor-package completion (round 5): QueryDecomposer + HighlightsMatch
# (see search/monitor.py decompose_query / DecomposingPercolator /
# highlights_match_batch).

DECOMPOSE_QUERIES: dict[int, str] = {
    0: "merge window",
    1: "+stream -slow",
    2: '"hash scan" table',
    3: "batch -slow merge",
}


def decomposed_percolate(sf_dir: str) -> pa.Table:
    """(doc_id, query_id, part): percolation through QueryDecomposer
    (monitor/QueryDecomposer.java) — each registered query's decomposed
    parts matched independently; part = the index in decompose_query's
    deterministic order. Float-free, SQL-checked exactly (the oracle
    re-emits each part's boolean structure)."""
    import pyarrow.parquet as pq

    from lucene_ray.search.monitor import DecomposingPercolator

    batch = pq.read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    return DecomposingPercolator(DECOMPOSE_QUERIES).match_batch(batch)


def _part_condition(part) -> str:
    """doc_id-set SQL condition for one decomposed part (Term/Phrase
    leaves with optional MUST_NOT term exclusions — the surface
    decompose_query emits for the gate queries)."""
    from lucene_ray.search.query import (
        BooleanQuery,
        PhraseQuery,
        TermQuery,
    )

    def leaf_set(leaf) -> str:
        if isinstance(leaf, TermQuery):
            return f"SELECT doc_id FROM tok WHERE term = '{leaf.term}'"
        if isinstance(leaf, PhraseQuery) and leaf.slop == 0:
            joins = " ".join(
                f"JOIN tok t{j} ON t{j}.doc_id = t0.doc_id "
                f"AND t{j}.pos = t0.pos + {j} AND t{j}.term = '{leaf.terms[j]}'"
                for j in range(1, len(leaf.terms))
            )
            return (
                f"SELECT t0.doc_id FROM tok t0 {joins} "
                f"WHERE t0.term = '{leaf.terms[0]}'"
            )
        raise NotImplementedError(f"gate leaf: {leaf!r}")

    if not isinstance(part, BooleanQuery):
        return f"doc_id IN ({leaf_set(part)})"
    conds = [f"doc_id IN ({leaf_set(m)})" for m in part.must]
    if part.should:
        ors = " UNION ".join(leaf_set(s) for s in part.should)
        conds.append(f"doc_id IN ({ors})")
    for x in part.must_not:
        conds.append(f"doc_id NOT IN ({leaf_set(x)})")
    return " AND ".join(conds)


def decomposed_percolate_sql() -> str:
    from lucene_ray.analysis import get_analyzer
    from lucene_ray.search.monitor import decompose_query
    from lucene_ray.search.query import parse_query

    an = get_analyzer("code")
    toks = tokenize_sql_expr("text")
    parts_sql = []
    for qid in sorted(DECOMPOSE_QUERIES):
        bq = parse_query(DECOMPOSE_QUERIES[qid], an)
        for i, part in enumerate(decompose_query(bq)):
            parts_sql.append(
                f"SELECT doc_id, {qid} AS query_id, {i} AS part "
                f"FROM documents WHERE {_part_condition(part)}"
            )
    union = "\nUNION ALL\n".join(parts_sql)
    return f"""
WITH t AS (
  SELECT doc_id, {toks} AS l FROM documents
), tok AS (
  SELECT doc_id, unnest(l) AS term, generate_subscripts(l, 1) AS pos FROM t
)
{union}
"""


HIGHLIGHT_MONITOR_QUERIES: dict[int, str] = {
    0: "merge",
    1: '"hash scan"',
    2: '"the fast"~2',
    3: "merge window",
}


def monitor_highlights(sf_dir: str) -> pa.Table:
    """(query_id, doc_id, start_pos, end_pos): HighlightsMatch
    (monitor/HighlightsMatch.java) — the term/phrase hits witnessing each
    percolator match. Offsets are byte-exact into the raw text (pinned by
    tests/test_ops.py; the oracle checks the positional half —
    positions are tokenizer ordinals DuckDB reproduces)."""
    import pyarrow.parquet as pq

    from lucene_ray.search.monitor import (
        Percolator,
        highlights_match_batch,
    )

    batch = pq.read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    perc = Percolator(HIGHLIGHT_MONITOR_QUERIES)
    t = highlights_match_batch(perc, batch)
    return t.select(["query_id", "doc_id", "start_pos", "end_pos"])


def monitor_highlights_sql() -> str:
    toks = tokenize_sql_expr("text")
    parts = [
        # 0: every 'merge' occurrence
        "SELECT 0 AS query_id, doc_id, pos - 1 AS start_pos, "
        "pos - 1 AS end_pos FROM tok WHERE term = 'merge'",
        # 1: exact phrase occurrences
        "SELECT 1 AS query_id, t0.doc_id, t0.pos - 1 AS start_pos, "
        "t0.pos AS end_pos FROM tok t0 JOIN tok t1 ON t1.doc_id = t0.doc_id"
        " AND t1.pos = t0.pos + 1 AND t1.term = 'scan'"
        " WHERE t0.term = 'hash'",
        # 2: sloppy alignments, span of ACTUAL positions, slop on adjusted
        "SELECT DISTINCT 2 AS query_id, t0.doc_id, "
        "least(t0.pos, t1.pos) - 1 AS start_pos, "
        "greatest(t0.pos, t1.pos) - 1 AS end_pos "
        "FROM tok t0 JOIN tok t1 ON t1.doc_id = t0.doc_id"
        " AND t1.term = 'fast' WHERE t0.term = 'the' AND"
        " greatest(t0.pos, t1.pos - 1) - least(t0.pos, t1.pos - 1) <= 2",
        # 3: OR query — every occurrence of each present query term
        "SELECT 3 AS query_id, doc_id, pos - 1 AS start_pos, "
        "pos - 1 AS end_pos FROM tok WHERE term IN ('merge', 'window')",
    ]
    union = "\nUNION ALL\n".join(parts)
    return f"""
WITH t AS (
  SELECT doc_id, {toks} AS l FROM documents
), tok AS (
  SELECT doc_id, unnest(l) AS term, generate_subscripts(l, 1) AS pos FROM t
)
{union}
"""


# ---------------------------------------------------------------------------
# benchmark/quality completion (round 5): QualityBenchmark + QualityStats +
# TrecJudge analog (search/quality.py).

QUALITY_QUERIES = [
    # (qid, query term, judge term, K) — ranked by (n_chars desc, docid
    # asc), judged relevant iff the doc also contains the judge term;
    # qid 2's empty judge set exercises the maxGoodPoints<=0 branches
    (0, "merge", "sort", 12),
    (1, "window", "table", 12),
    (2, "stream", "zzzmissing", 12),
]


def searchquality_engine(sf_dir: str) -> pa.Table:
    """(qid, metric, value): judged retrieval metrics
    (benchmark/quality/QualityStats.java) over a float-free deterministic
    ranking — precision@1/5/10, recall, average precision, MRR (with the
    reference's rank<=5 MRR quirk). Metric doubles are bit-identical to
    the oracle (one division per p, ordered left-assoc avp chain)."""
    from lucene_ray.search.engine import IndexSearcher, fetch_doc_values
    from lucene_ray.search.quality import SetJudge, execute_benchmark

    ix = _engine_index(sf_dir)
    s = IndexSearcher(ix)
    ranked, qrels = {}, {}
    for qid, term, judge_term, k in QUALITY_QUERIES:
        docids = s.matching_docs(term)
        vals = fetch_doc_values(s.reader, docids, "n_chars")
        order = np.lexsort((docids, -vals))[:k]
        ranked[qid] = docids[order].tolist()
        qrels[qid] = set(s.matching_docs(judge_term).tolist())
    stats = execute_benchmark(ranked, SetJudge(qrels))
    out = {"qid": [], "metric": [], "value": []}
    for qid in sorted(stats):
        st = stats[qid]
        for m, v in (
            ("p_at_1", st.get_precision_at(1)),
            ("p_at_5", st.get_precision_at(5)),
            ("p_at_10", st.get_precision_at(10)),
            ("recall", st.get_recall()),
            ("avp", st.get_avp()),
            ("mrr", st.get_mrr()),
        ):
            out["qid"].append(qid)
            out["metric"].append(m)
            out["value"].append(v)
    return pa.table(
        {
            "qid": pa.array(out["qid"], type=pa.int64()),
            "metric": pa.array(out["metric"], type=pa.string()),
            "value": pa.array(out["value"], type=pa.float64()),
        }
    )


def searchquality_engine_sql() -> str:
    toks = tokenize_sql_expr("text")
    # coalesce: a query ranking fewer than n docs (or none) scores 0.0 at
    # p@n, and an empty ranking 0.0 recall, as QualityStats' initial values
    ctes, selects = [], []
    for qid, term, judge_term, k in QUALITY_QUERIES:
        ctes.append(f"""r{qid} AS (
  SELECT d.doc_id,
         row_number() OVER (ORDER BY length(d.text) DESC, d.doc_id ASC) AS rk
  FROM documents d
  WHERE d.doc_id IN (SELECT DISTINCT doc_id FROM tok WHERE term = '{term}')
  QUALIFY rk <= {k}
), j{qid} AS (
  SELECT DISTINCT doc_id FROM tok WHERE term = '{judge_term}'
), s{qid} AS (
  SELECT r.rk, (r.doc_id IN (SELECT doc_id FROM j{qid})) AS rel,
         sum(CASE WHEN r.doc_id IN (SELECT doc_id FROM j{qid})
             THEN 1 ELSE 0 END) OVER (ORDER BY r.rk) AS good
  FROM r{qid} r
), m{qid} AS (
  SELECT (SELECT count(*) FROM j{qid})::DOUBLE AS maxgood,
         coalesce((SELECT good::DOUBLE / rk FROM s{qid} WHERE rk = 1), 0.0) AS p1,
         coalesce((SELECT good::DOUBLE / rk FROM s{qid} WHERE rk = 5), 0.0) AS p5,
         coalesce((SELECT good::DOUBLE / rk FROM s{qid} WHERE rk = 10), 0.0) AS p10,
         coalesce((SELECT good::DOUBLE / rk FROM s{qid} WHERE rk = (SELECT max(rk) FROM s{qid})), 0.0) AS plast,
         coalesce((SELECT max(good) FROM s{qid})::DOUBLE, 0.0) AS goodtotal,
         (SELECT coalesce(list_reduce(list(good::DOUBLE / rk ORDER BY rk), (a, b) -> a + b), 0.0)
          FROM s{qid} WHERE rel) AS prelsum,
         (SELECT min(rk) FROM s{qid} WHERE rel) AS firstrel
)""")
        selects.append(f"""
SELECT {qid} AS qid, u.metric, u.value FROM m{qid}, LATERAL (
  SELECT * FROM (VALUES
    ('p_at_1', p1),
    ('p_at_5', p5),
    ('p_at_10', p10),
    ('recall', CASE WHEN maxgood <= 0 THEN plast ELSE goodtotal / maxgood END),
    ('avp', CASE WHEN maxgood = 0 THEN 0.0 ELSE prelsum / maxgood END),
    ('mrr', CASE WHEN firstrel IS NOT NULL AND firstrel <= 5
                 THEN 1.0 / firstrel ELSE 0.0 END)
  ) v(metric, value)
) u""")
    cte_block = ",\n".join(ctes)
    union = "\nUNION ALL\n".join(selects)
    return f"""
WITH t AS (
  SELECT doc_id, {toks} AS l FROM documents
), tok AS (
  SELECT doc_id, unnest(l) AS term FROM t
),
{cte_block}
{union}
"""


DOC2VEC_SEEDS = [3, 17, 42]


def doc2vec_engine(sf_dir: str) -> pa.Table:
    """(docid, term, freq): DocToDoubleVectorUtils sparse localized
    vectors (classification/utils/DocToDoubleVectorUtils.java) for the
    seed docs, read through the term-vectors sidecar. freq is the double
    the reference emits; the oracle recounts tokens."""
    from lucene_ray.search.classification import doc_to_sparse_vector
    from lucene_ray.search.reader import IndexReader

    ix = _engine_index(sf_dir, term_vectors=True)
    rd = IndexReader(ix)
    out_d, out_t, out_f = [], [], []
    for docid in DOC2VEC_SEEDS:
        for term, freq in doc_to_sparse_vector(rd, docid):
            out_d.append(docid)
            out_t.append(term)
            out_f.append(freq)
    return pa.table(
        {
            "docid": pa.array(out_d, type=pa.int64()),
            "term": pa.array(out_t, type=pa.string()),
            "freq": pa.array(out_f, type=pa.float64()),
        }
    )


def doc2vec_engine_sql() -> str:
    toks = tokenize_sql_expr("text")
    seeds = ", ".join(str(s) for s in DOC2VEC_SEEDS)
    return f"""
WITH t AS (
  SELECT doc_id, {toks} AS l FROM documents WHERE doc_id IN ({seeds})
), tok AS (
  SELECT doc_id, unnest(l) AS term FROM t
)
SELECT doc_id AS docid, term, count(*)::DOUBLE AS freq
FROM tok GROUP BY doc_id, term
"""


# ---------------------------------------------------------------------------
# KNearestFuzzyClassifier (classification/KNearestFuzzyClassifier.java +
# utils/NearestFuzzyQuery.java) — float64 exact twin, every stage mirrored
# in SQL (see search/classification.py KNearestFuzzyClassifier).

KNNFUZZY_TEXTS = [
    (0, "mergge sorrt"),
    (1, "tablle windoww"),
    (2, "strem batch"),
]
KNNFUZZY_K = 10
KNNFUZZY_MAX_TERMS = 20


def knnfuzzy_classify(sf_dir: str) -> pa.Table:
    """(qid, rank, cls, score): fuzzy kNN classification of misspelled
    texts — NearestFuzzyQuery variant selection (maxEdits=1, prefix=2),
    float64-exact boosted BM25 doc scores over index postings, top-10
    class votes with the sumdoc<k correction. Scores bit-identical to the
    oracle."""
    from lucene_ray.search.classification import KNearestFuzzyClassifier
    from lucene_ray.search.engine import IndexSearcher

    s = IndexSearcher(_engine_index(sf_dir))
    clf = KNearestFuzzyClassifier(
        s, k=KNNFUZZY_K, max_num_terms=KNNFUZZY_MAX_TERMS
    )
    out = {"qid": [], "rank": [], "cls": [], "score": []}
    for qid, text in KNNFUZZY_TEXTS:
        for r, (cls, score) in enumerate(clf.assign_classes(text)):
            out["qid"].append(qid)
            out["rank"].append(r)
            out["cls"].append(cls)
            out["score"].append(score)
    return pa.table(
        {
            "qid": pa.array(out["qid"], type=pa.int64()),
            "rank": pa.array(out["rank"], type=pa.int32()),
            "cls": pa.array(out["cls"], type=pa.string()),
            "score": pa.array(out["score"], type=pa.float64()),
        }
    )


def _knn_vote_chain_sql(qid, k: int) -> str:
    """contrib->docscore->topk->votes->res CTE chain shared by the kNN
    classifier oracles — expects a sel{qid}(term, score, vr) CTE plus the
    shared vocab/n/stats/doctf CTEs; every float op mirrors
    classification.boosted_term_topk + build_list_from_topdocs."""
    return f"""contrib{qid} AS (
  SELECT dt.doc_id, se.vr,
         (se.score * ln(1.0 + (nd::DOUBLE - v.df::DOUBLE + 0.5) / (v.df::DOUBLE + 0.5)))
         * ((dt.tf::DOUBLE * (1.2 + 1.0)) /
            (dt.tf::DOUBLE + 1.2 * (1.0 - 0.75 + 0.75 * dt.dl / (SELECT avg FROM stats))))
         AS c
  FROM sel{qid} se
  JOIN vocab v ON v.term = se.term
  JOIN doctf dt ON dt.term = se.term
  CROSS JOIN n
), docscore{qid} AS (
  SELECT doc_id, list_reduce(list(c ORDER BY vr), (a, b) -> a + b) AS score
  FROM contrib{qid} GROUP BY doc_id
), topk{qid} AS (
  SELECT doc_id, score,
         row_number() OVER (ORDER BY score DESC, doc_id ASC) AS rk
  FROM docscore{qid} QUALIFY rk <= {k}
), votes{qid} AS (
  SELECT d.lang AS cls, count(*) AS cnt,
         list_reduce(
           list(t.score / (SELECT score FROM topk{qid} WHERE rk = 1)
                ORDER BY t.rk),
           (a, b) -> a + b) AS boostsum
  FROM topk{qid} t JOIN documents d ON d.doc_id = t.doc_id
  GROUP BY d.lang
), res{qid} AS (
  SELECT cls,
         CASE WHEN (SELECT count(*) FROM topk{qid}) < {k}
              THEN ((cnt * (boostsum / cnt)) / {k}) * {k}
                   / (SELECT count(*) FROM topk{qid})
              ELSE (cnt * (boostsum / cnt)) / {k} END AS score
  FROM votes{qid}
)"""


def knnfuzzy_classify_sql() -> str:
    from lucene_ray.analysis import get_analyzer
    from lucene_ray.search.fuzzylikethis import MAX_VARIANTS_PER_TERM

    an = get_analyzer("code")
    toks = tokenize_sql_expr("text")
    k = KNNFUZZY_K
    ctes, selects = [], []
    for qid, text in KNNFUZZY_TEXTS:
        srcs: list[str] = []
        for t in an.tokenize_text(text):
            if t not in srcs:
                srcs.append(t)
        branches = []
        for s in srcs:
            plen = min(2, len(s))
            pre, suf = s[:plen], s[plen:]
            cond = f"levenshtein(substr(term, {plen + 1}), '{suf}') <= 1"
            if plen:
                cond = f"substr(term, 1, {plen}) = '{pre}' AND {cond}"
            boost = (
                f"CASE WHEN term = '{s}' THEN 1.0 ELSE "
                f"1.0 - levenshtein(substr(term, {plen + 1}), '{suf}')"
                f"::DOUBLE / least(length(term), {len(s)})::DOUBLE END"
            )
            eff_df = (
                f"(SELECT CASE WHEN COALESCE((SELECT df FROM vocab "
                f"WHERE term = '{s}'), 0) > 0 THEN "
                f"(SELECT df FROM vocab WHERE term = '{s}') ELSE "
                f"COALESCE((SELECT CAST(FLOOR(SUM(df)::DOUBLE / COUNT(*))"
                f" AS BIGINT) FROM vocab WHERE {cond}), 0) END)"
            )
            branches.append(
                f"SELECT term, ({boost}) * ({boost}) * "
                f"(ln((nd + 1)::DOUBLE / ({eff_df} + 1)::DOUBLE) + 1.0)"
                f" AS score FROM ("
                f"SELECT term, df, row_number() OVER ("
                f"ORDER BY ({boost}) DESC, term ASC) AS br "
                f"FROM vocab WHERE {cond}) CROSS JOIN n "
                f"WHERE br <= {MAX_VARIANTS_PER_TERM}"
            )
        union = " UNION ALL ".join(f"({b})" for b in branches)
        ctes.append(f"""sel{qid} AS (
  SELECT term, score,
         row_number() OVER (ORDER BY score DESC, term ASC) AS vr
  FROM ({union})
  QUALIFY vr <= {KNNFUZZY_MAX_TERMS}
), {_knn_vote_chain_sql(qid, k)}""")
        selects.append(
            f"SELECT {qid} AS qid, (row_number() OVER ("
            f"ORDER BY score DESC, cls ASC) - 1)::INTEGER AS rank, "
            f"cls, score FROM res{qid}"
        )
    cte_block = ",\n".join(ctes)
    union_all = "\nUNION ALL\n".join(selects)
    return f"""
WITH t AS (
  SELECT doc_id, {toks} AS l FROM documents
), tok AS (
  SELECT doc_id, unnest(l) AS term FROM t
), vocab AS (
  SELECT term, count(DISTINCT doc_id)::BIGINT AS df FROM tok GROUP BY term
), n AS (
  SELECT count(*)::BIGINT AS nd FROM documents
), stats AS (
  SELECT (SELECT count(*) FROM tok)::DOUBLE
         / (SELECT nd FROM n)::DOUBLE AS avg
), dl AS (
  SELECT doc_id, count(*) AS dl FROM tok GROUP BY doc_id
), doctf AS (
  SELECT k.doc_id, k.term, count(*) AS tf, any_value(l.dl)::DOUBLE AS dl
  FROM tok k JOIN dl l ON l.doc_id = k.doc_id
  GROUP BY k.doc_id, k.term
),
{cte_block}
{union_all}
"""


NBDOC_INPUTS = [
    # (qid, field spec with boost, list of field values)
    (0, "content^2.0", ["merge sort stream", "window table"]),
    (1, "content^0.5", ["batch join hash"]),
    (2, "content", ["merge merge merge", "scan"]),
]


def nbdocclassify_engine(sf_dir: str) -> pa.Table:
    """(qid, rank, cls, score): SimpleNaiveBayesDocumentClassifier —
    per-VALUE prior accumulation, token-count-normalized log-likelihood,
    field boost parsed from the 'content^2.0' spec. Raw log scores
    (normalization is monotonic, pinned by tests); float64 bit-identical
    to the oracle."""
    from lucene_ray.search.classification import (
        SimpleNaiveBayesDocumentClassifier,
    )
    from lucene_ray.search.engine import IndexSearcher

    s = IndexSearcher(_engine_index(sf_dir))
    out = {"qid": [], "rank": [], "cls": [], "score": []}
    for qid, spec, values in NBDOC_INPUTS:
        clf = SimpleNaiveBayesDocumentClassifier(s, (spec,), "lang")
        res = clf.assign_classes({"content": values}, normalize=False)
        for r, (cls, score) in enumerate(res):
            out["qid"].append(qid)
            out["rank"].append(r)
            out["cls"].append(cls)
            out["score"].append(score)
    return pa.table(
        {
            "qid": pa.array(out["qid"], type=pa.int64()),
            "rank": pa.array(out["rank"], type=pa.int32()),
            "cls": pa.array(out["cls"], type=pa.string()),
            "score": pa.array(out["score"], type=pa.float64()),
        }
    )


def nbdocclassify_engine_sql() -> str:
    an = CodeAnalyzer()
    toks = tokenize_sql_expr("text")
    parts = []
    for qid, spec, values in NBDOC_INPUTS:
        boost = float(spec.split("^", 1)[1]) if "^" in spec else 1.0
        value_exprs = []
        for value in values:
            words = an.tokenize_text(value)
            lns = []
            for w in words:
                hits = (
                    "(SELECT count(*) FROM documents d WHERE d.lang = c.lang "
                    "AND d.doc_id IN (SELECT DISTINCT doc_id FROM tok "
                    f"WHERE term = '{w}'))"
                )
                lns.append(
                    f"ln(({hits} + 1) / ((st.np / st.dcc) * c.dfc + st.dwc))"
                )
            chain = " + ".join(lns)
            value_exprs.append(
                f"((ln(c.dfc) - ln(st.dwc)) + (({chain}) / {len(words)}) "
                f"* {boost!r})"
            )
        score = " + ".join(value_exprs)
        parts.append(f"""
SELECT {qid} AS qid, c.lang AS cls, ({score}) AS score
FROM classes c CROSS JOIN st""")
    union = "\nUNION ALL\n".join(parts)
    return f"""
WITH t AS (
  SELECT doc_id, {toks} AS l FROM documents
), tok AS (
  SELECT doc_id, unnest(l) AS term FROM t
), st AS (
  SELECT (SELECT count(*) FROM (SELECT DISTINCT doc_id, term FROM tok))::DOUBLE AS np,
         (SELECT count(DISTINCT doc_id) FROM tok)::DOUBLE AS dcc,
         (SELECT count(*) FROM documents)::DOUBLE AS dwc
), classes AS (
  SELECT lang, count(*)::DOUBLE AS dfc FROM documents GROUP BY lang
)
SELECT qid, (row_number() OVER (PARTITION BY qid
             ORDER BY score DESC, cls ASC) - 1)::INTEGER AS rank, cls, score
FROM ({union})
"""


KNNTEXT_TEXTS = [
    (0, "merge merge sort window sort"),
    (1, "stream batch stream join"),
    (2, "table scan hash table table"),
]
KNNTEXT_K = 10
KNNTEXT_MAX_TERMS = 10


def knntext_classify(sf_dir: str) -> pa.Table:
    """(qid, rank, cls, score): MLT-based text kNN classification
    (classification/KNearestNeighborClassifier.java) — MoreLikeThis term
    selection with score/bestScore boosts (MoreLikeThis.java:595-605,
    setBoost(true)), float64-exact boosted BM25 top-10, the shared class
    vote. min_term_freq/min_doc_freq = 1 so short texts select terms.
    Scores bit-identical to the oracle."""
    from lucene_ray.search.classification import KNearestNeighborClassifier
    from lucene_ray.search.engine import IndexSearcher

    s = IndexSearcher(_engine_index(sf_dir))
    clf = KNearestNeighborClassifier(
        s, k=KNNTEXT_K, max_query_terms=KNNTEXT_MAX_TERMS,
        min_term_freq=1, min_doc_freq=1,
    )
    out = {"qid": [], "rank": [], "cls": [], "score": []}
    for qid, text in KNNTEXT_TEXTS:
        for r, (cls, score) in enumerate(clf.assign_classes(text)):
            out["qid"].append(qid)
            out["rank"].append(r)
            out["cls"].append(cls)
            out["score"].append(score)
    return pa.table(
        {
            "qid": pa.array(out["qid"], type=pa.int64()),
            "rank": pa.array(out["rank"], type=pa.int32()),
            "cls": pa.array(out["cls"], type=pa.string()),
            "score": pa.array(out["score"], type=pa.float64()),
        }
    )


def knntext_classify_sql() -> str:
    from collections import Counter

    an = CodeAnalyzer()
    toks = tokenize_sql_expr("text")
    k = KNNTEXT_K
    ctes, selects = [], []
    for qid, text in KNNTEXT_TEXTS:
        tfs = Counter(an.tokenize_text(text))
        cand = sorted(t for t, c in tfs.items() if c >= 1)
        branches = [
            f"SELECT '{t}' AS term, "
            f"{tfs[t]} * (1.0 + ln(nd::DOUBLE / (df::DOUBLE + 1.0))) AS raw "
            f"FROM vocab CROSS JOIN n WHERE term = '{t}' AND df >= 1"
            for t in cand
        ]
        union = " UNION ALL ".join(f"({b})" for b in branches)
        ctes.append(f"""mlt{qid} AS (
  SELECT term, raw,
         row_number() OVER (ORDER BY raw DESC, term ASC) AS vr
  FROM ({union})
  QUALIFY vr <= {KNNTEXT_MAX_TERMS}
), sel{qid} AS (
  SELECT term, raw / (SELECT raw FROM mlt{qid} WHERE vr = 1) AS score, vr
  FROM mlt{qid}
), {_knn_vote_chain_sql(qid, k)}""")
        selects.append(
            f"SELECT {qid} AS qid, (row_number() OVER ("
            f"ORDER BY score DESC, cls ASC) - 1)::INTEGER AS rank, "
            f"cls, score FROM res{qid}"
        )
    cte_block = ",\n".join(ctes)
    union_all = "\nUNION ALL\n".join(selects)
    return f"""
WITH t AS (
  SELECT doc_id, {toks} AS l FROM documents
), tok AS (
  SELECT doc_id, unnest(l) AS term FROM t
), vocab AS (
  SELECT term, count(DISTINCT doc_id)::BIGINT AS df FROM tok GROUP BY term
), n AS (
  SELECT count(*)::BIGINT AS nd FROM documents
), stats AS (
  SELECT (SELECT count(*) FROM tok)::DOUBLE
         / (SELECT nd FROM n)::DOUBLE AS avg
), dl AS (
  SELECT doc_id, count(*) AS dl FROM tok GROUP BY doc_id
), doctf AS (
  SELECT k.doc_id, k.term, count(*) AS tf, any_value(l.dl)::DOUBLE AS dl
  FROM tok k JOIN dl l ON l.doc_id = k.doc_id
  GROUP BY k.doc_id, k.term
),
{cte_block}
{union_all}
"""


def _engine_index_halves(sf_dir: str) -> tuple[str, str]:
    """Two indexes over the doc_id-ordered halves of the documents table
    (the MultiReader composition fixtures; half split preserves global
    docid == doc_id through the composite's rebasing)."""
    import pyarrow.parquet as pq

    from lucene_ray.index.builder import build_index

    t = pq.read_table(f"{sf_dir}/documents.parquet")
    ids = t.column("doc_id").to_numpy(zero_copy_only=False)
    order = np.argsort(ids)
    t = t.take(pa.array(order))
    half = t.num_rows // 2
    out = []
    key = hashlib.sha1(sf_dir.encode()).hexdigest()[:12]
    for part, lo, hi in (("a", 0, half), ("b", half, t.num_rows)):
        ix = os.path.join("/tmp/lucene_ray_cache", f"docs_half{part}_{key}")
        src = ix + "_corpus.parquet"
        if not os.path.exists(src):
            sl = t.slice(lo, hi - lo)
            corpus = pa.table(
                {
                    "repo": sl.column("source").cast(pa.string()),
                    "path": pa.array(
                        [f"doc/{i}" for i in sl.column("doc_id").to_pylist()]
                    ),
                    "commit": pa.array(
                        ["0" * 40] * sl.num_rows, type=pa.string()
                    ),
                    "lang": sl.column("lang").cast(pa.string()),
                    "content": sl.column("text").cast(pa.string()),
                }
            )
            os.makedirs("/tmp/lucene_ray_cache", exist_ok=True)
            pq.write_table(corpus, src + ".tmp", row_group_size=16384)
            os.replace(src + ".tmp", src)
        build_index([src], ix, target_docs=8192)
        out.append(ix)
    return out[0], out[1]


def multireader_engine(sf_dir: str) -> pa.Table:
    """(qid, docid): boolean matching through a MultiReader composite of
    two half-corpus indexes (core/index/MultiReader.java — docids rebased
    by cumulative maxDoc, no files copied). The halves split in doc_id
    order, so composite docid == doc_id and the oracle is the plain
    documents view."""
    from lucene_ray.search.engine import IndexSearcher
    from lucene_ray.search.reader import MultiReader

    ix_a, ix_b = _engine_index_halves(sf_dir)
    s = IndexSearcher(MultiReader([ix_a, ix_b]))
    return _docsets(s, enumerate(
        ("merge", "window table", "+stream -slow", '"hash scan"')
    ))


def multireader_engine_sql() -> str:
    toks = tokenize_sql_expr("text")
    parts = [
        "SELECT DISTINCT 0 AS qid, doc_id AS docid FROM tok"
        " WHERE term = 'merge'",
        "SELECT DISTINCT 1 AS qid, doc_id AS docid FROM tok"
        " WHERE term IN ('window', 'table')",
        "SELECT DISTINCT 2 AS qid, doc_id AS docid FROM tok"
        " WHERE term = 'stream' AND doc_id NOT IN"
        " (SELECT doc_id FROM tok WHERE term = 'slow')",
        "SELECT DISTINCT 3 AS qid, t0.doc_id AS docid FROM tok t0"
        " JOIN tok t1 ON t1.doc_id = t0.doc_id AND t1.pos = t0.pos + 1"
        " AND t1.term = 'scan' WHERE t0.term = 'hash'",
    ]
    union = "\nUNION ALL\n".join(parts)
    return f"""
WITH t AS (
  SELECT doc_id, {toks} AS l FROM documents
), tok AS (
  SELECT doc_id, unnest(l) AS term, generate_subscripts(l, 1) AS pos FROM t
)
{union}
"""


def perceptron_classify(sf_dir: str) -> pa.Table:
    """(qid, assigned, output): BooleanPerceptronClassifier
    (classification/BooleanPerceptronClassifier.java) — binary perceptron
    over term-vector term frequencies, trained in docid order with
    batch-stale weight snapshots. Rows-only by design: the training loop
    is sequential with snapshot staleness (no SQL form); the exact update
    math is pinned against an independent straight-line reimplementation
    in tests/test_ops.py::TestBooleanPerceptron."""
    import pyarrow.parquet as pq

    from lucene_ray.index.builder import build_index
    from lucene_ray.search.classification import BooleanPerceptronClassifier
    from lucene_ray.search.engine import IndexSearcher

    docs = pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])
    ids = docs.column("doc_id").to_numpy(zero_copy_only=False)
    order = np.argsort(ids)
    texts = docs.column("text").take(pa.array(order)).to_pylist()
    rows = [
        {
            "repo": "true" if "merge" in t else "false",
            "path": f"p/{i}", "commit": "0", "lang": "txt", "content": t,
        }
        for i, t in enumerate(texts)
    ]
    os.makedirs("/tmp/lucene_ray_cache", exist_ok=True)
    ix = os.path.join(
        "/tmp/lucene_ray_cache",
        "docs_perc_" + hashlib.sha1(sf_dir.encode()).hexdigest()[:12],
    )
    src = ix + "_corpus.parquet"
    if not os.path.exists(src):
        pq.write_table(pa.Table.from_pylist(rows), src + ".tmp",
                       row_group_size=16384)
        os.replace(src + ".tmp", src)
    build_index([src], ix, target_docs=8192, term_vectors=True)
    s = IndexSearcher(ix)
    clf = BooleanPerceptronClassifier(s, "repo", batch_size=4)
    out = {"qid": [], "assigned": [], "output": []}
    for qid, text in enumerate(
        ("merge sort window", "stream batch join", "merge merge merge",
         "zzznothing at all")
    ):
        assigned, output, _score = clf.assign_class(text)
        out["qid"].append(qid)
        out["assigned"].append(bool(assigned))
        out["output"].append(int(output))
    return pa.table(
        {
            "qid": pa.array(out["qid"], type=pa.int64()),
            "assigned": pa.array(out["assigned"], type=pa.bool_()),
            "output": pa.array(out["output"], type=pa.int64()),
        }
    )


FSTCOMPLETION_PREFIXES = [(0, "m"), (1, "s"), (2, "w"), (3, "zz")]
FSTCOMPLETION_BUCKETS = 10
FSTCOMPLETION_N = 8


def fstcompletion_suggest(sf_dir: str) -> pa.Table:
    """(qid, rank, term, bucket): FSTCompletionLookup
    (suggest/fst/FSTCompletionLookup.java) over the corpus vocabulary
    weighted by document frequency — weights discretized into 10 buckets
    (equal-weight runs share their first line's bucket), completions in
    (bucket desc, term asc) order with exact-match promotion. Integer
    output, SQL-checked exactly."""
    from lucene_ray.search.reader import IndexReader
    from lucene_ray.search.suggest import FSTCompletionLookup

    rd = IndexReader(_engine_index(sf_dir))
    vocab = rd.vocabulary().tolist()
    stats = rd.global_term_stats(vocab)
    lk = FSTCompletionLookup(buckets=FSTCOMPLETION_BUCKETS).build(
        vocab, [stats[t][0] for t in vocab]
    )
    out = {"qid": [], "rank": [], "term": [], "bucket": []}
    for qid, p in FSTCOMPLETION_PREFIXES:
        for r, (term, bucket) in enumerate(lk.lookup(p, FSTCOMPLETION_N)):
            out["qid"].append(qid)
            out["rank"].append(r)
            out["term"].append(term)
            out["bucket"].append(bucket)
    return pa.table(
        {
            "qid": pa.array(out["qid"], type=pa.int64()),
            "rank": pa.array(out["rank"], type=pa.int32()),
            "term": pa.array(out["term"], type=pa.string()),
            "bucket": pa.array(out["bucket"], type=pa.int64()),
        }
    )


def fstcompletion_suggest_sql() -> str:
    parts = []
    for qid, p in FSTCOMPLETION_PREFIXES:
        parts.append(f"""
SELECT {qid} AS qid, rank, term, bucket FROM (
  SELECT term, bucket,
         (row_number() OVER (
            ORDER BY CASE WHEN term = '{p}' THEN 0 ELSE 1 END,
                     bucket DESC, term ASC) - 1)::INTEGER AS rank
  FROM bucketed WHERE term LIKE '{p}%'
) WHERE rank < {FSTCOMPLETION_N}""")
    union = "\nUNION ALL\n".join(parts)
    return f"""
{tok_cte()}, vocab AS (
  SELECT term, count(DISTINCT doc_id)::BIGINT AS df FROM tok GROUP BY term
), lines AS (
  SELECT term, df,
         row_number() OVER (ORDER BY df ASC, term ASC) - 1 AS line,
         count(*) OVER () AS n
  FROM vocab
), bucketed AS (
  SELECT term,
         (min(line) OVER (PARTITION BY df) * {FSTCOMPLETION_BUCKETS}) // n
           AS bucket
  FROM lines
)
{union}
"""


def _engine_index_parallel(sf_dir: str) -> str:
    """A PARALLEL index over the same 500 docs: EMPTY content (the
    content stats stay primary-owned) + the repo keyword field carrying a
    NEW doc_id-parity tag — the add-a-field-without-reindexing side of
    ParallelCompositeReader."""
    import pyarrow.parquet as pq

    from lucene_ray.index.builder import build_index

    t = pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id"])
    ids = sorted(t.column("doc_id").to_pylist())
    rows = [
        {
            "repo": "even" if i % 2 == 0 else "odd",
            "path": f"doc/{i}", "commit": "0" * 40, "lang": "tagonly",
            "content": "",
        }
        for i in ids
    ]
    ix = os.path.join(
        "/tmp/lucene_ray_cache",
        "docs_par_" + hashlib.sha1(sf_dir.encode()).hexdigest()[:12],
    )
    src = ix + "_corpus.parquet"
    if not os.path.exists(src):
        os.makedirs("/tmp/lucene_ray_cache", exist_ok=True)
        pq.write_table(pa.Table.from_pylist(rows), src + ".tmp",
                       row_group_size=16384)
        os.replace(src + ".tmp", src)
    build_index([src], ix, target_docs=8192)
    return ix


def parallel_engine(sf_dir: str) -> pa.Table:
    """(qid, docid): queries through a ParallelCompositeReader
    (core/index/ParallelCompositeReader.java) — primary carries content +
    original keywords, the parallel index contributes a doc_id-parity
    'repo' tag over the SAME docids; keyword terms route first-wins, so
    'repo:even' answers from the parallel index while 'repo:github'-style
    terms stay primary. Float-free doc sets, SQL-checked exactly."""
    from lucene_ray.search.engine import IndexSearcher
    from lucene_ray.search.query import BooleanQuery, TermQuery
    from lucene_ray.search.reader import ParallelCompositeReader

    prim = _engine_index(sf_dir)
    par = _engine_index_parallel(sf_dir)
    s = IndexSearcher(ParallelCompositeReader([prim, par]))
    qs = [
        (0, BooleanQuery(must=[TermQuery("merge"), TermQuery("repo:even")])),
        (1, BooleanQuery(must=[TermQuery("repo:odd")])),
        (2, BooleanQuery(
            must=[TermQuery("window"), TermQuery("lang:en")]
        )),
    ]
    return _docsets(s, qs)


def parallel_engine_sql() -> str:
    return f"""
{tok_cte()}
SELECT DISTINCT 0 AS qid, doc_id AS docid FROM tok
WHERE term = 'merge' AND doc_id % 2 = 0
UNION ALL
SELECT 1 AS qid, doc_id AS docid FROM documents WHERE doc_id % 2 = 1
UNION ALL
SELECT DISTINCT 2 AS qid, t.doc_id AS docid FROM tok t
JOIN documents d ON d.doc_id = t.doc_id
WHERE t.term = 'window' AND d.lang = 'en'
"""


FUNCMATCH_QUERIES = [
    # (qid, expression, SQL mirror over length(text), optional AND term)
    (0, "(n_chars % 7) == 3", "(length(text) % 7) = 3", None),
    (1, "n_chars > 400 || n_chars < 60", "length(text) > 400 OR length(text) < 60", None),
    (2, "(n_chars / 100) == 2", "(length(text) / 100.0) = 2", "merge"),
    (3, "min(n_chars, 250) == 250", "least(length(text), 250) = 250", None),
]


def funcmatch_engine(sf_dir: str) -> pa.Table:
    """(qid, docid): FunctionMatchQuery (queries/function/
    FunctionMatchQuery.java) — docs where a boolean expression over the
    n_chars doc values evaluates non-zero; qid 2 conjoins a term. The
    comparison/boolean grammar runs in float64 over exact integers —
    SQL-checked exactly. (qid 2's division is float: only docs with
    n_chars EXACTLY 200 match (200/100 == 2.0); 250/100 = 2.5 does not —
    both sides agree because the division is IEEE.)"""
    from lucene_ray.search.engine import IndexSearcher
    from lucene_ray.search.query import FunctionMatchQuery

    ix = _engine_index(sf_dir)
    s = IndexSearcher(ix)
    return _docsets(s, (
        (qid, _and_term(FunctionMatchQuery(expr), term))
        for qid, expr, _sql, term in FUNCMATCH_QUERIES
    ))


def funcmatch_engine_sql() -> str:
    parts = []
    for qid, _expr, sql, term in FUNCMATCH_QUERIES:
        cond = f"({sql})"
        if term:
            cond += (
                f" AND doc_id IN (SELECT DISTINCT doc_id FROM tok "
                f"WHERE term = '{term}')"
            )
        parts.append(
            f"SELECT {qid} AS qid, doc_id AS docid FROM documents WHERE {cond}"
        )
    union = "\nUNION ALL\n".join(parts)
    return f"""
{tok_cte()}
{union}
"""


EXPRSORT_QUERIES = [
    # (qid, query, expression, ascending) over the n_chars doc values —
    # integer-valued float64 keys, exact both sides
    (0, "merge", "abs(n_chars - 300)", True),
    (1, "window", "(n_chars % 50) * 1000 + n_chars", False),
    (2, "stream", "min(n_chars, 256)", True),
]


def exprsort_engine(sf_dir: str, k: int = 15) -> pa.Table:
    """(qid, rank, docid): sort-by-EXPRESSION
    (expressions/ExpressionValueSource.java getSortField — the
    DoubleValuesSource sort path): matches ordered by a compiled
    full-grammar expression over doc values, docid-asc tie-break.
    Integer-valued float64 keys are exact, SQL-checked exactly."""
    from lucene_ray.search.engine import (
        IndexSearcher,
        search_sorted_expression,
    )

    ix = _engine_index(sf_dir)
    s = IndexSearcher(ix)
    return _ranked_table(
        (qid, search_sorted_expression(s, term, expr, k=k, ascending=asc).docids)
        for qid, term, expr, asc in EXPRSORT_QUERIES
    )


def exprsort_engine_sql(k: int = 15) -> str:
    sql_expr = {
        0: "abs(length(d.text) - 300)",
        1: "(length(d.text) % 50) * 1000 + length(d.text)",
        2: "least(length(d.text), 256)",
    }
    parts = []
    for qid, term, _expr, asc in EXPRSORT_QUERIES:
        direction = "ASC" if asc else "DESC"
        parts.append(f"""
SELECT {qid} AS qid,
  (row_number() OVER (ORDER BY {sql_expr[qid]} {direction}, d.doc_id ASC)
   - 1)::INTEGER AS rank,
  d.doc_id AS docid
FROM documents d
WHERE d.doc_id IN (SELECT DISTINCT doc_id FROM tok WHERE term = '{term}')
QUALIFY rank < {k}""")
    union = "\nUNION ALL\n".join(parts)
    return f"""
{tok_cte()}
{union}
"""


SPANPAYLOAD_QUERIES = [
    # (qid, terms, expected payloads) — payload = pos % 16
    (0, ("merge",), (3,)),
    (1, ("merge",), (11,)),
    (2, ("window", "table"), (2, 3)),   # consistent adjacent pair
    (3, ("window", "table"), (7, 2)),   # inconsistent: matches nothing
]


def spanpayload_engine(sf_dir: str) -> pa.Table:
    """(qid, docid): SpanPayloadCheckQuery
    (queries/payloads/SpanPayloadCheckQuery.java, MatchOperation.EQ) —
    exact-adjacent spans accepted only when every position's payload
    equals the expectation; qid 3's impossible pair witnesses rejection.
    Integer payloads, SQL-checked exactly."""
    from lucene_ray.search.engine import IndexSearcher, span_payload_check

    # payload = pos % 16: varies across a term's occurrences
    ix = _engine_index(sf_dir, payload_fn="pos_mod16")
    s = IndexSearcher(ix)
    return _docset_table(
        (qid, span_payload_check(s, terms, pays))
        for qid, terms, pays in SPANPAYLOAD_QUERIES
    )


def spanpayload_engine_sql() -> str:
    toks = tokenize_sql_expr("text")
    parts = []
    for qid, terms, pays in SPANPAYLOAD_QUERIES:
        if len(terms) == 1:
            parts.append(
                f"SELECT DISTINCT {qid} AS qid, doc_id AS docid FROM tok "
                f"WHERE term = '{terms[0]}' AND pos % 16 = {pays[0]}"
            )
        else:
            joins = " ".join(
                f"JOIN tok t{j} ON t{j}.doc_id = t0.doc_id "
                f"AND t{j}.pos = t0.pos + {j} AND t{j}.term = '{terms[j]}' "
                f"AND t{j}.pos % 16 = {pays[j]}"
                for j in range(1, len(terms))
            )
            parts.append(
                f"SELECT DISTINCT {qid} AS qid, t0.doc_id AS docid "
                f"FROM tok t0 {joins} "
                f"WHERE t0.term = '{terms[0]}' AND t0.pos % 16 = {pays[0]}"
            )
    union = "\nUNION ALL\n".join(parts)
    return f"""
WITH t AS (
  SELECT doc_id, {toks} AS l FROM documents
), tok AS (
  SELECT doc_id, unnest(l) AS term, generate_subscripts(l, 1) - 1 AS pos
  FROM t
)
{union}
"""

"""IndexSearcher facade + the Ray Data query stage (scorer actor pool).

Search lifecycle (SURVEY.md §3.3):
  1. parse -> BooleanQuery
  2. gather GLOBAL term stats across segments (CollectionStatistics /
     TermStatistics summed over leaves BEFORE scoring, so every segment
     scores against identical idf/avgdl — IndexSearcher semantics)
  3. per-segment scoring (pruned block-max MaxScore or exhaustive oracle),
     carrying the min-competitive floor θ across segments
     (MaxScoreAccumulator.java:26 cross-slice floor analog)
  4. deterministic merge: score desc, global docid asc (TopDocs.java:90-130)

Ray-shape: queries stream AS A DATASET through ``QueryScorerStage`` — a
callable class for ``map_batches(..., concurrency=N)``; each actor opens the
index ONCE in ``__init__`` (segment readers, norms, manifest stats) and
scores query batches in ``__call__`` (SURVEY.md §2.3 searcher-state row).

Scale note: on a real cluster each scorer actor would own a *shard* of
segments (manifest round-robin by actor rank) with a driver-side reduce of
per-shard top-k; on one node every actor opens all segments (they are
memory-mapped, so the page cache is shared). The per-query work is
embarrassingly parallel across queries either way.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from lucene_ray.analysis import get_analyzer
from lucene_ray.config import DEFAULT_TOP_K
from lucene_ray.index import segfiles
from lucene_ray.search.query import (
    BooleanQuery,
    BlendedTermQuery,
    CombinedFieldQuery,
    CommonTermsQuery,
    ConstantScoreQuery,
    DisjunctionMaxQuery,
    DisjunctionSumQuery,
    DocValuesTermsQuery,
    IndexOrDocValuesQuery,
    SortedSetDocValuesRangeQuery,
    FuzzyQuery,
    MatchAllDocsQuery,
    MultiPhraseQuery,
    NGramPhraseQuery,
    NestedBooleanQuery,
    PhraseQuery,
    PointRangeQuery,
    RangeFieldQuery,
    LatLonBoxQuery,
    LatLonDistanceQuery,
    LatLonPolygonQuery,
    PrefixQuery,
    RegexpQuery,
    IntervalQuery,
    SpanNearQuery,
    SynonymQuery,
    TermInSetQuery,
    TermQuery,
    TermRangeQuery,
    WildcardQuery,
    parse_query,
)
from lucene_ray.search.rewrite import MULTI_TERM_TYPES, maybe_rewrite
from lucene_ray.search.reader import IndexReader
from lucene_ray.search.scorer import (
    SPAN_QUERY_TYPES,
    _topk,
    count_segment,
    score_segment_exhaustive,
    score_segment_pruned,
)
from lucene_ray.search.similarity import BM25Similarity


class TopDocs:
    """``relation``: "eq" when total_hits is exact, "gte" when the pruned
    path may have skipped counting docs reachable only through skipped
    non-essential clauses (TotalHits.Relation.GREATER_THAN_OR_EQUAL_TO,
    search/TotalHits.java)."""

    __slots__ = ("docids", "scores", "total_hits", "relation")

    def __init__(
        self,
        docids: np.ndarray,
        scores: np.ndarray,
        total_hits: int,
        relation: str = "eq",
    ):
        self.docids = docids
        self.scores = scores
        self.total_hits = total_hits
        self.relation = relation

    def to_rows(self, qid) -> list[dict]:
        return [
            {
                "qid": qid,
                "rank": r,
                "docid": int(d),
                "score": float(s),
            }
            for r, (d, s) in enumerate(zip(self.docids, self.scores))
        ]


# the canonical clause walk lives in query.py (iter_clauses) so rewrite
# detection, scorer building, and stats collection can never drift apart
from lucene_ray.search.query import iter_clauses as flat_clauses  # noqa: E402


def _stats_terms(q) -> tuple:
    """Leaf index terms of a clause (SpanNearQuery.terms may hold nested
    span SOURCES — leaf_terms flattens them to strings for stats)."""
    if isinstance(q, SpanNearQuery):
        return q.leaf_terms
    if isinstance(q, CombinedFieldQuery):
        return q.index_terms
    return tuple(t for t in getattr(q, "terms", ()) if isinstance(t, str))


def query_terms(bq: BooleanQuery) -> list[str]:
    clauses = list(flat_clauses(bq))
    return sorted(
        {t for q in clauses for t in _stats_terms(q)}
        | {q.term for q in clauses if isinstance(q, TermQuery)}
    )


def build_scorers(
    bq: BooleanQuery, stats: dict, doc_count: int, sum_ttf: int, sim: BM25Similarity,
    field_sum_ttf: dict | None = None,
) -> dict:
    """Per-clause scorers from GLOBAL stats — shared by the local searcher
    and the sharded actors (every shard scores against identical idf/avgdl,
    the IndexSearcher stats-broadcast contract, SURVEY.md §3.3 step 2).
    ``field_sum_ttf``: global per-analyzed-field sumTotalTermFreq, needed
    only when the tree holds a CombinedFieldQuery."""
    from lucene_ray.search.similarity import ConstantScorer

    scorers = {}
    for q in flat_clauses(bq):
        if isinstance(q, CombinedFieldQuery):
            # ONE pseudo-term scorer over all (term, field) pairs
            # (CombinedFieldQuery.java:329-349): df = max, ttf/sumttf are
            # weighted sums with Java's compound-assign long truncation
            # per step (`totalTermFreq += (double) weight * ttf`)
            df, ttf = 0, 0
            for t in q.terms:
                for f, w in q.fields:
                    it = t if f in ("", "content") else f"{f}:{t}"
                    pdf, pttf = stats[it]
                    if pdf > 0:
                        df = max(df, pdf)
                        ttf = int(ttf + float(w) * pttf)
            s_ttf = 0
            for f, w in q.fields:
                fs = (
                    sum_ttf
                    if f in ("", "content")
                    else (field_sum_ttf or {})[f]
                )
                s_ttf = int(s_ttf + float(w) * fs)
            if df > 0:
                scorers[q] = sim.scorer(
                    df, doc_count, s_ttf, boost=q.boost,
                    total_term_freq=max(1, ttf),
                )
        elif isinstance(q, TermQuery):
            scorers[q] = sim.scorer(
                stats[q.term][0], doc_count, sum_ttf,
                boost=q.boost, total_term_freq=stats[q.term][1],
            )
        elif isinstance(
            q,
            (PhraseQuery, SpanNearQuery, MultiPhraseQuery, IntervalQuery,
             NGramPhraseQuery)
            + SPAN_QUERY_TYPES,
        ):
            # MultiPhrase: idf summed over EVERY term in every slot
            # (MultiPhraseQuery.MultiPhraseWeight idfExplain over all stats)
            dfs = [stats[t][0] for t in _stats_terms(q)]
            ttfs = [stats[t][1] for t in _stats_terms(q)]
            scorers[q] = sim.phrase_scorer(
                dfs, doc_count, sum_ttf, boost=q.boost, total_term_freqs=ttfs
            )
        elif isinstance(q, SynonymQuery):
            # blended stats: df = max, ttf = sum over synonyms
            # (SynonymQuery.java:50 docFreq max / totalTermFreq sum)
            df = max((stats[t][0] for t in q.terms), default=0)
            ttf = sum(stats[t][1] for t in q.terms)
            scorers[q] = sim.scorer(
                df, doc_count, sum_ttf, boost=q.boost, total_term_freq=ttf
            )
        elif isinstance(q, BlendedTermQuery):
            # every term scored SEPARATELY with the blended stats
            # (BlendedTermQuery.java:281-290 adjustFrequencies), keyed
            # (query, term) so build_clauses finds its per-term scorer
            df = max((stats[t][0] for t in q.terms), default=0)
            ttf = sum(stats[t][1] for t in q.terms)
            if df > 0:
                for t in q.terms:
                    scorers[(q, t)] = sim.scorer(
                        df, doc_count, sum_ttf, boost=q.boost,
                        total_term_freq=max(1, ttf),
                    )
        elif isinstance(
            q,
            (
                MatchAllDocsQuery,
                ConstantScoreQuery,
                PointRangeQuery,
                RangeFieldQuery,
                LatLonBoxQuery,
                LatLonDistanceQuery,
                LatLonPolygonQuery,
                DocValuesTermsQuery,
                SortedSetDocValuesRangeQuery,
                IndexOrDocValuesQuery,
            ),
        ):
            scorers[q] = ConstantScorer(q.boost)
    return scorers


class IndexSearcher:
    def __init__(
        self,
        index_dir: "str | IndexReader",
        similarity: BM25Similarity | None = None,
        pruned: bool = True,
    ):
        # an already-open reader (e.g. a MultiReader composite or a
        # point-in-time snapshot) is accepted in place of a path
        self.reader = (
            index_dir
            if isinstance(index_dir, IndexReader)
            else IndexReader(index_dir)
        )
        self.sim = similarity or BM25Similarity()
        self.pruned = pruned
        self.analyzer = get_analyzer(self.reader.manifest.analyzer)

    def _scorers(self, bq: BooleanQuery) -> dict:
        terms = query_terms(bq)
        stats = self.reader.global_term_stats(terms)
        field_sums: dict[str, int] = {}
        for q in flat_clauses(bq):
            if isinstance(q, CombinedFieldQuery):
                for f, _w in q.fields:
                    if f not in ("", "content") and f not in field_sums:
                        field_sums[f] = self.reader.field_sum_ttf(f)
        return build_scorers(
            bq, stats, self.reader.stats_doc_count, self.reader.sum_ttf, self.sim,
            field_sum_ttf=field_sums,
        )

    def parse(self, text: str) -> BooleanQuery:
        return parse_query(text, self.analyzer)

    _MULTI = MULTI_TERM_TYPES

    def _maybe_rewrite(self, bq: BooleanQuery) -> BooleanQuery:
        return maybe_rewrite(
            bq,
            self.reader.vocabulary,
            lambda: self.reader.vocabulary(include_fields=True),
        )


    _LAZY_READER_QUERIES = ("FuzzyLikeThisQuery", "MoreLikeThisQuery")

    def _rewrite_fuzzylikethis(self, bq):
        """Reader-lazy queries (sandbox FuzzyLikeThisQuery, the XML
        LikeThisQuery's MoreLikeThisQuery) rewrite against the reader —
        top-level or embedded as a boolean clause (the XML parser wraps
        them in a should)."""
        lazy = self._LAZY_READER_QUERIES
        if type(bq).__name__ in lazy:
            return bq.rewrite(self.reader)
        if not isinstance(bq, BooleanQuery):
            return bq

        def fix(clauses):
            out = []
            for q in clauses:
                if type(q).__name__ in lazy:
                    rw = q.rewrite(self.reader)
                    out.append(rw.freeze())
                else:
                    out.append(q)
            return out

        if any(type(q).__name__ in lazy for q in bq.must + bq.should):
            return BooleanQuery(
                must=fix(bq.must), should=fix(bq.should),
                must_not=list(bq.must_not),
                min_should_match=bq.min_should_match,
            )
        return bq

    def search(
        self,
        query: str | BooleanQuery,
        k: int = DEFAULT_TOP_K,
        after: tuple[float, int] | None = None,
    ) -> TopDocs:
        """``after``: (score, global docid) keyset for searchAfter pagination
        — returns the next k hits strictly after that cursor. Pagination
        uses the exhaustive path (the min-competitive floor logic assumes
        top-of-index scores; Lucene's paging collector has the same split,
        search/TopScoreDocCollector.java:104-160)."""
        bq = self.parse(query) if isinstance(query, str) else query
        if isinstance(bq, CommonTermsQuery):
            bq = bq.rewrite(self.reader)
        bq = self._rewrite_fuzzylikethis(bq)
        bq = self._maybe_rewrite(bq)
        if not (bq.must or bq.should):
            return TopDocs(np.array([], dtype=np.int64), np.array([], dtype=np.float32), 0)
        scorers = self._scorers(bq)
        use_pruned = self.pruned and after is None
        score_fn = score_segment_pruned if use_pruned else score_segment_exhaustive
        all_docs, all_scores, total = [], [], 0
        all_exact = True  # TotalHits.Relation: EQUAL_TO until a segment skips
        theta = 0.0
        for entry in self.reader.segments:
            sr = self.reader.segment_reader(entry.name)
            if use_pruned:
                d, s, n, exact = score_fn(sr, bq, scorers, k, theta)
            elif after is not None:
                d, s, n, exact = score_fn(
                    sr, bq, scorers, k, after=(after[0], after[1] - entry.docid_base)
                )
            else:
                d, s, n, exact = score_fn(sr, bq, scorers, k)
            total += n
            all_exact = all_exact and exact
            if len(d):
                all_docs.append(d + entry.docid_base)
                all_scores.append(s)
                # raise the cross-segment floor to the kth-best score so far
                merged = np.concatenate(all_scores)
                if len(merged) >= k:
                    theta = max(theta, float(np.partition(merged, -k)[-k]))
        relation = "eq" if all_exact else "gte"
        if not all_docs:
            return TopDocs(
                np.array([], dtype=np.int64), np.array([], dtype=np.float32), total,
                relation,
            )
        docids = np.concatenate(all_docs)
        scores = np.concatenate(all_scores)
        d, s = _topk(docids, scores, k)
        return TopDocs(d, s, total, relation)

    def explain(self, query: str | BooleanQuery, docid: int):
        """Score explanation tree for one document
        (search/IndexSearcher.java:747; Explanation.java). The root value is
        bit-identical to the score search() returns for the same hit."""
        from lucene_ray.search.explain import explain

        return explain(self, query, docid)

    def count(self, query: str | BooleanQuery) -> int:
        """Exact hit count without collecting top-k
        (search/IndexSearcher.java:380 count(): shortcut paths, then
        TotalHitCountCollector). Shortcuts valid only with no deletions:
        a lone TermQuery counts via its docFreq, MatchAllDocsQuery via the
        doc count. Counts are always exact — candidate docid sets are free
        in this design, so the reference's 1000-hit threshold approximation
        is unnecessary."""
        bq = self.parse(query) if isinstance(query, str) else query
        if isinstance(bq, CommonTermsQuery):
            bq = bq.rewrite(self.reader)
        bq = self._rewrite_fuzzylikethis(bq)
        bq = self._maybe_rewrite(bq)
        if not (bq.must or bq.should):
            return 0
        has_dels = any(getattr(e, "del_gen", 0) > 0 for e in self.reader.segments)
        clauses = bq.must + bq.should
        if (
            not has_dels
            and not bq.must_not
            and bq.min_should_match <= 1
            and len(clauses) == 1
        ):
            q = clauses[0]
            if isinstance(q, TermQuery):
                return int(self.reader.global_term_stats([q.term])[q.term][0])
            if isinstance(q, MatchAllDocsQuery):
                return int(self.reader.doc_count)
        scorers = self._scorers(bq)
        return sum(
            count_segment(self.reader.segment_reader(e.name), bq, scorers)
            for e in self.reader.segments
        )


def facet_counts(
    searcher: "IndexSearcher", query, field: str
) -> list[tuple[str, int]]:
    """Hit counts per stored keyword-field value for ``query`` — the basic
    count facet (facet/.../FastTaxonomyFacetCounts.java role, over stored
    fields instead of a taxonomy index). Returns (value, count) sorted by
    count desc then value asc. Collects the full matching doc SET (facets
    are exhaustive by definition), then one stored-fields gather."""
    td = searcher.search(query, k=1 << 62)
    if len(td.docids) == 0:
        return []
    reader = searcher.reader
    first = reader.segments[0]
    if field in reader.segment_reader(first.name).sorted_dv_schema():
        # SORTED-DV-backed counting (SortedSetDocValuesFacetCounts.java
        # singleton path): per-segment ordinal bincount over the hit set,
        # then a term-keyed cross-segment sum — columnar, no row-store read
        g = np.sort(np.asarray(td.docids, dtype=np.int64))
        agg: dict[str, int] = {}
        for entry in reader.segments:
            a = int(np.searchsorted(g, entry.docid_base))
            b = int(np.searchsorted(g, entry.docid_base + entry.doc_count))
            if a == b:
                continue
            ords, terms = reader.segment_reader(entry.name).sorted_doc_values(
                field
            )
            counts = np.bincount(
                ords[g[a:b] - entry.docid_base], minlength=len(terms)
            )
            for ti in np.nonzero(counts)[0]:
                t = str(terms[ti])
                agg[t] = agg.get(t, 0) + int(counts[ti])
        return sorted(agg.items(), key=lambda kv: (-kv[1], kv[0]))
    stored = fetch_stored(reader, td.docids)
    vals = stored.column(field).to_pylist()
    from collections import Counter

    c = Counter(vals)
    return sorted(c.items(), key=lambda kv: (-kv[1], kv[0]))


def sorted_set_facet_counts(
    searcher: "IndexSearcher", query, field: str
) -> list[tuple[str, int]]:
    """Hit counts per SORTED_SET doc-value ordinal for ``query``
    (facet/sortedset/SortedSetDocValuesFacetCounts.java:52): each matching
    doc contributes once per DISTINCT value in its set (the reader
    guarantees de-duplicated ascending ords per doc). Returns
    (value, count) sorted by count desc then value asc."""
    td = searcher.search(query, k=1 << 62)
    if len(td.docids) == 0:
        return []
    reader = searcher.reader
    g = np.sort(np.asarray(td.docids, dtype=np.int64))
    agg: dict[str, int] = {}
    for entry in reader.segments:
        a = int(np.searchsorted(g, entry.docid_base))
        b = int(np.searchsorted(g, entry.docid_base + entry.doc_count))
        if a == b:
            continue
        offsets, flat_ords, terms = reader.segment_reader(
            entry.name
        ).sorted_set_doc_values(field)
        local = g[a:b] - entry.docid_base
        lens = offsets[local + 1] - offsets[local]
        starts = offsets[local]
        idx = np.repeat(starts, lens) + (
            np.arange(int(lens.sum())) - np.repeat(np.cumsum(lens) - lens, lens)
        )
        counts = np.bincount(flat_ords[idx], minlength=len(terms))
        for ti in np.nonzero(counts)[0]:
            t = str(terms[ti])
            agg[t] = agg.get(t, 0) + int(counts[ti])
    return sorted(agg.items(), key=lambda kv: (-kv[1], kv[0]))


def taxonomy_facet_counts(
    searcher: "IndexSearcher", query, path_fields: tuple, topn: int | None = None
) -> list[tuple[str, int]]:
    """Hierarchical facet counts (facet/.../taxonomy/
    FastTaxonomyFacetCounts.java:46 + TaxonomyReader ordinal-tree rollup):
    each matching doc contributes to EVERY prefix of its path, where the
    path is the ordered keyword-field tuple ``path_fields`` (the
    FacetField(dim, components...) shape — 'a/b/c' counts under 'a',
    'a/b', and 'a/b/c'). Drill-down to a prefix is the existing
    keyword-term conjunction ('repo:a AND lang:b' — DrillDownQuery.java).

    Returns (path, count) with '/'-joined components, sorted by
    (depth, -count, path); ``topn`` keeps the top-n per depth
    (FacetResult topNChildren). Vectorized: one stored-fields gather, then
    arrow value_counts per depth — no per-doc python loop."""
    import pyarrow.compute as pc

    td = searcher.search(query, k=1 << 62)
    if len(td.docids) == 0:
        return []
    stored = fetch_stored(searcher.reader, td.docids)
    out: list[tuple[str, int]] = []
    path = None
    for depth, f in enumerate(path_fields):
        col = stored.column(f)
        path = col if path is None else pc.binary_join_element_wise(path, col, "/")
        vc = pc.value_counts(path.combine_chunks())
        pairs = sorted(
            zip(vc.field("values").to_pylist(), vc.field("counts").to_pylist()),
            key=lambda kv: (-kv[1], kv[0]),
        )
        if topn is not None:
            pairs = pairs[:topn]
        out.extend(pairs)
    return out


def rescore(
    searcher: "IndexSearcher", topdocs: TopDocs, query, weight: float = 1.0
) -> TopDocs:
    """Two-pass rescoring (search/QueryRescorer.java:37 rescore, :58
    combine): the second query is scored ONLY against the first pass's top
    docs; combined = first + weight * second when the doc matches the
    second query, the first-pass score alone otherwise; results re-sorted
    (score desc, docid asc). Second-pass scores come through the explain
    chain — k-sized work, never index-sized — and explain's root value is
    bit-identical to search()'s scorer, so rescore(q1 hits, q1, 0) is a
    no-op by construction."""
    from lucene_ray.search.explain import explain
    from lucene_ray.search.query import BooleanQuery

    if not isinstance(query, BooleanQuery):
        query = BooleanQuery(should=[query])
    second = np.zeros(len(topdocs.docids), dtype=np.float32)
    for i, d in enumerate(topdocs.docids):
        ex = explain(searcher, query, int(d))
        if ex.is_match:
            second[i] = np.float32(ex.value)
    combined = (
        topdocs.scores.astype(np.float32) + np.float32(weight) * second
    )
    order = np.lexsort((topdocs.docids, -combined))
    return TopDocs(
        docids=topdocs.docids[order],
        scores=combined[order],
        total_hits=topdocs.total_hits,
        relation=topdocs.relation,
    )


def facet_sum_values(
    searcher: "IndexSearcher", query, field: str, value_field: str
) -> list[tuple[str, int]]:
    """Association facets: per facet label, the SUM of a numeric doc value
    over the matching docs (facet/.../taxonomy/
    TaxonomyFacetIntAssociations.java:34 with
    AssociationAggregationFunction.SUM — the association carried per doc is
    the doc-values field here). Returns (value, sum) sorted by sum desc
    then value asc; one non-scoring match collection, one stored gather,
    one doc-values gather, a numpy segmented sum."""
    td = searcher.search(query, k=1 << 62)
    if len(td.docids) == 0:
        return []
    stored = fetch_stored(searcher.reader, td.docids)
    labels = np.asarray(stored.column(field).to_pylist(), dtype=object)
    vals = fetch_doc_values(searcher.reader, td.docids, value_field)
    uniq, inv = np.unique(labels.astype(str), return_inverse=True)
    sums = np.zeros(len(uniq), dtype=np.int64)
    np.add.at(sums, inv, vals)
    out = sorted(zip(uniq.tolist(), sums.tolist()), key=lambda kv: (-kv[1], kv[0]))
    return out


def drill_sideways_counts(
    searcher: "IndexSearcher", base_query, drill_downs: dict[str, str]
) -> tuple[int, dict[str, list[tuple[str, int]]]]:
    """DrillSideways (facet/.../DrillSideways.java:70, search:187): given a
    base query plus per-dimension drill-down selections (keyword field ->
    exact value), return (drill-down hit count, {dim: facet counts}) where
    each dimension's counts are computed over the docs matching the base
    query AND every OTHER dimension's selection — the "sideways" doc set
    that shows what the user would get by switching this dimension's value
    (DrillSideways.java:364-411 near-miss collection).

    The reference collects all sideways sets in one scan via
    DrillSidewaysQuery; here each dimension is one non-scoring conjunction
    over the same warm segment readers — identical results, n_dims passes
    (n_dims is small by construction). Per-dim counts come from the shared
    facet_counts gather."""
    from lucene_ray.search.query import BooleanQuery, TermQuery

    def conj(skip_dim: str | None):
        bq = BooleanQuery()
        bq.must.append(base_query)
        for f, v in drill_downs.items():
            if f != skip_dim:
                bq.must.append(TermQuery(f"{f}:{v}"))
        return bq

    hits = searcher.count(conj(None))
    sideways = {
        dim: facet_counts(searcher, conj(dim), dim) for dim in drill_downs
    }
    return hits, sideways


def fetch_doc_values(reader: IndexReader, global_docids, field: str) -> np.ndarray:
    """Numeric doc values for global docids, input order preserved."""
    g = np.asarray(global_docids, dtype=np.int64)
    bases = np.array([e.docid_base for e in reader.segments], dtype=np.int64)
    seg_idx = np.searchsorted(bases, g, side="right") - 1
    out = np.zeros(len(g), dtype=np.int64)
    for si in np.unique(seg_idx):
        entry = reader.segments[int(si)]
        sel = np.nonzero(seg_idx == si)[0]
        dv = reader.segment_reader(entry.name).doc_values(field)
        out[sel] = dv[g[sel] - entry.docid_base]
    return out


def payload_score_search(
    searcher: "IndexSearcher", query, k: int | None = None
) -> "SortedTopDocs":
    """Execute a PayloadScoreQuery (queries/payloads/PayloadScoreQuery.java)
    against the index: per matching doc, aggregate the payload values of
    every occurrence of the query's terms with the chosen PayloadFunction
    (min/max/avg/sum — PayloadFunction.java subclasses), times boost.
    Aggregation is float64 (SQL-oracle parity: sums are per-doc over sorted
    occurrence order). Returns docs ordered score desc, docid asc."""
    from lucene_ray.search.query import PayloadScoreQuery

    assert isinstance(query, PayloadScoreQuery)
    if query.function not in ("min", "max", "avg", "sum"):
        raise ValueError(f"unknown payload function: {query.function}")
    reader = searcher.reader
    doc_parts, val_parts = [], []
    for entry in reader.segments:
        sr = reader.segment_reader(entry.name)
        seg_d, seg_v = [], []
        for term in query.terms:
            tp = sr.postings(term)
            if tp is None:
                continue
            if not tp.has_payloads:
                raise ValueError(
                    "index was built without payloads (build_index payload_fn)"
                )
            d, v = tp.flat_payloads()
            seg_d.append(d)
            seg_v.append(v)
        if not seg_d:
            continue
        d = np.concatenate(seg_d)
        v = np.concatenate(seg_v).astype(np.float64)
        if sr.live_mask is not None:
            keep = sr.live_mask[d]
            d, v = d[keep], v[keep]
        if len(d) == 0:
            continue
        doc_parts.append(d + entry.docid_base)
        val_parts.append(v)
    if not doc_parts:
        z = np.array([], dtype=np.int64)
        return SortedTopDocs(z, np.array([], dtype=np.float64), 0, z)
    d = np.concatenate(doc_parts)
    v = np.concatenate(val_parts)
    order = np.argsort(d, kind="stable")
    d_s, v_s = d[order], v[order]
    starts = np.nonzero(np.concatenate(([True], d_s[1:] != d_s[:-1])))[0]
    docs_u = d_s[starts]
    if query.function == "sum":
        score = np.add.reduceat(v_s, starts)
    elif query.function == "min":
        score = np.minimum.reduceat(v_s, starts)
    elif query.function == "max":
        score = np.maximum.reduceat(v_s, starts)
    else:  # avg
        cnt = np.diff(np.append(starts, len(d_s))).astype(np.float64)
        score = np.add.reduceat(v_s, starts) / cnt
    score = score * float(query.boost)
    o = np.lexsort((docs_u, -score))
    if k is not None:
        o = o[:k]
    return SortedTopDocs(docs_u[o], score[o], len(docs_u), score[o])


def fetch_sorted_dv_values(
    reader: IndexReader, global_docids, field: str
) -> np.ndarray:
    """SORTED doc-value TERMS for global docids, input order preserved —
    the TermOrdValComparator's value view (per-segment ords resolve through
    each segment's own dictionary; cross-segment comparison is by term)."""
    g = np.asarray(global_docids, dtype=np.int64)
    bases = np.array([e.docid_base for e in reader.segments], dtype=np.int64)
    seg_idx = np.searchsorted(bases, g, side="right") - 1
    out = np.empty(len(g), dtype=object)
    for si in np.unique(seg_idx):
        entry = reader.segments[int(si)]
        sel = np.nonzero(seg_idx == si)[0]
        ords, terms = reader.segment_reader(entry.name).sorted_doc_values(field)
        out[sel] = terms[ords[g[sel] - entry.docid_base]]
    return out


class SortedTopDocs(TopDocs):
    """TopDocs ordered by a doc-values field; ``values`` aligns with docids."""

    __slots__ = ("values",)

    def __init__(self, docids, scores, total_hits, values, relation="eq"):
        super().__init__(docids, scores, total_hits, relation)
        self.values = values


def search_sorted(
    searcher: "IndexSearcher",
    query,
    field: str,
    k: int = DEFAULT_TOP_K,
    ascending: bool = True,
    after: tuple | None = None,
) -> SortedTopDocs:
    """Sort-by-field search (TopFieldCollector, search/TopFieldCollector.java
    :553): collect the full matching doc set (constant relevance work — the
    scores are ignored), then order by the doc-values field with docid-asc
    tie-break. Numeric fields read NUMERIC doc values; string fields read
    the stored keyword column and compare by ordinal — SortField.Type.STRING
    semantics (BytesRef ordinal comparator, search/comparators/
    TermOrdValComparator.java).

    On an index built with ``index_sort`` matching (field, direction), the
    early-terminating collector runs instead (TopFieldCollector's
    canEarlyTerminate path, search/TopFieldCollector.java:70-90 +
    index/IndexSorter.java): within each sorted run, docid order IS sort
    order, so only the first k matches per run are kept before the
    cross-run merge — per shard the candidate set is O(k·runs), not
    O(matches). Falls back transparently for the opposite direction, a
    different field, or segments whose sort invariant was broken by a DV
    update (entry.sorted_runs dropped).

    ``after=(value, docid)`` resumes below that cursor in (field, docid)
    order — searchAfter over field sorts (TopFieldCollector.java:553
    create(sort, n, after, ...) FieldDoc semantics). The early-terminating
    index-sort path is bypassed with a cursor (its first-k-per-run cut
    could sit entirely before the cursor); correctness first."""
    td = searcher.search(query, k=1 << 62)
    if len(td.docids) == 0:
        return SortedTopDocs(td.docids, td.scores, td.total_hits, td.docids[:0])
    first = searcher.reader.segments[0]
    dv_schema = searcher.reader.segment_reader(first.name).doc_values_schema()

    isort = getattr(searcher.reader.manifest, "index_sort", None)
    if (
        after is None
        and isort
        and isort[0] == field
        and (isort[1] == "asc") == ascending
        and field in dv_schema
    ):
        order0 = np.argsort(td.docids)
        docs_sorted = td.docids[order0]
        scores_sorted = td.scores[order0]
        keep_parts = []
        for entry in searcher.reader.segments:
            runs = getattr(entry, "sorted_runs", None)
            if runs and getattr(entry, "dv_gen", 0) == 0:
                for rs, re_ in runs:
                    a = int(np.searchsorted(docs_sorted, entry.docid_base + rs))
                    b = int(np.searchsorted(docs_sorted, entry.docid_base + re_))
                    # docid asc == requested order inside a run: the first
                    # k matches dominate every later one (ties included —
                    # equal keys tie-break docid asc)
                    keep_parts.append(np.arange(a, min(b, a + k)))
            else:
                a = int(np.searchsorted(docs_sorted, entry.docid_base))
                b = int(
                    np.searchsorted(
                        docs_sorted, entry.docid_base + entry.doc_count
                    )
                )
                keep_parts.append(np.arange(a, b))
        sel = np.concatenate(keep_parts) if keep_parts else np.arange(0)
        cand_docs = docs_sorted[sel]
        cand_scores = scores_sorted[sel]
        vals = fetch_doc_values(searcher.reader, cand_docs, field)
        key = vals if ascending else -vals
        order = np.lexsort((cand_docs, key))[:k]
        return SortedTopDocs(
            cand_docs[order], cand_scores[order], td.total_hits, vals[order],
            td.relation,
        )

    if field in dv_schema:
        vals = fetch_doc_values(searcher.reader, td.docids, field)
        key = vals if ascending else -vals
    else:
        # SORTED doc values back the ordinal comparator when the index has
        # them; stored-column read is the fallback for fields outside the
        # DV schema (pre-schema-DV indexes)
        sdv = searcher.reader.segment_reader(first.name).sorted_dv_schema()
        if field in sdv:
            vals = fetch_sorted_dv_values(searcher.reader, td.docids, field)
        else:
            stored = fetch_stored(searcher.reader, td.docids)
            vals = np.asarray(stored.column(field).to_pylist(), dtype=object)
        codes = np.unique(vals.astype(str), return_inverse=True)[1]
        key = codes if ascending else -codes
    order = np.lexsort((td.docids, key))
    if after is not None:
        av, adoc = after
        vals_o, docs_o = vals[order], td.docids[order]
        if ascending:
            keep = (vals_o > av) | ((vals_o == av) & (docs_o > adoc))
        else:
            keep = (vals_o < av) | ((vals_o == av) & (docs_o > adoc))
        order = order[keep]
    order = order[:k]
    return SortedTopDocs(
        td.docids[order], td.scores[order], td.total_hits, vals[order], td.relation
    )


def fetch_stored(reader: IndexReader, global_docids) -> pa.Table:
    """Stored fields (repo, path, commit, lang, content_sha256) for global
    docids, preserving input order — search-result display fetch
    (demo/.../SearchFiles.java:207-214). Only the owning segments' stored
    tables are touched."""
    import numpy as np

    g = np.asarray(global_docids, dtype=np.int64)
    bases = np.array([e.docid_base for e in reader.segments], dtype=np.int64)
    seg_idx = np.searchsorted(bases, g, side="right") - 1
    parts = []
    order = []
    for si in np.unique(seg_idx):
        entry = reader.segments[int(si)]
        sel = np.nonzero(seg_idx == si)[0]
        sr = reader.segment_reader(entry.name)
        t = sr.stored_rows(g[sel] - entry.docid_base)
        t = t.append_column("docid", pa.array(g[sel], type=pa.int64()))
        parts.append(t)
        order.append(sel)
    if not parts:
        return pa.table({})
    merged = pa.concat_tables(parts)
    inv = np.empty(len(g), dtype=np.int64)
    inv[np.concatenate(order)] = np.arange(len(g))
    return merged.take(inv)


class QueryScorerStage:
    """Stateful Ray Data stage: ``map_batches(QueryScorerStage,
    fn_constructor_kwargs=dict(index_dir=...), concurrency=N,
    batch_format="pyarrow")`` over a Dataset of (qid, query[, k]) rows.
    Output: (qid, rank, docid, score) rows."""

    def __init__(self, index_dir: str, k: int = DEFAULT_TOP_K, pruned: bool = True):
        self.searcher = IndexSearcher(index_dir, pruned=pruned)
        # open every segment once at actor start (mmap + term dict load),
        # so the first query doesn't pay the cold-open cost
        self.searcher.reader.all_readers()
        # one warmup query per actor: faults the decoded-postings scratch
        # pages in __init__ (the fresh-page first-read penalty,
        # lucene_ray._tune_allocator) — the classic model-warmup pattern;
        # without it the FIRST real query per actor pays it instead
        try:
            from lucene_ray.search.query import MatchAllDocsQuery

            self.searcher.count(
                BooleanQuery(should=[MatchAllDocsQuery()])
            )
            vocab = self.searcher.reader.vocabulary()
            if len(vocab):
                self.searcher.search(str(vocab[len(vocab) // 2]), 10)
        except Exception:
            pass  # warmup must never fail an actor
        self.k = k

    def __call__(self, batch: pa.Table) -> pa.Table:
        qids, ranks, docids, scores = [], [], [], []
        ks = (
            batch.column("k").to_pylist()
            if "k" in batch.column_names
            else [self.k] * batch.num_rows
        )
        for qid, qtext, k in zip(
            batch.column("qid").to_pylist(),
            batch.column("query").to_pylist(),
            ks,
        ):
            td = self.searcher.search(qtext, int(k))
            for r, (d, s) in enumerate(zip(td.docids, td.scores)):
                qids.append(qid)
                ranks.append(r)
                docids.append(int(d))
                scores.append(float(s))
        return pa.table(
            {
                "qid": pa.array(qids, type=pa.int64()),
                "rank": pa.array(ranks, type=pa.int32()),
                "docid": pa.array(docids, type=pa.int64()),
                "score": pa.array(scores, type=pa.float32()),
            }
        )


def search_queries_dataset(
    queries_ds,
    index_dir: str,
    k: int = DEFAULT_TOP_K,
    concurrency: int = 4,
    pruned: bool = True,
):
    """Run a Dataset of queries through the scorer actor pool."""
    return queries_ds.map_batches(
        QueryScorerStage,
        fn_constructor_kwargs=dict(index_dir=index_dir, k=k, pruned=pruned),
        batch_format="pyarrow",
        # small batches so a query burst spreads across the pool instead of
        # landing in one actor's first batch
        batch_size=8,
        concurrency=concurrency,
        num_cpus=1,
    )


def reopen_if_changed(searcher: "IndexSearcher") -> "IndexSearcher | None":
    """Near-real-time refresh (DirectoryReader.openIfChanged,
    index/DirectoryReader.java:91 / SearcherManager.maybeRefresh): returns
    a NEW searcher over the latest commit when the manifest generation has
    advanced (adds, deletes, DV updates, merges), else None. The old
    searcher stays a consistent snapshot either way."""
    from lucene_ray.index.manifest import read_manifest

    m = read_manifest(searcher.reader.index_dir)
    if m is None or m.generation == searcher.reader.manifest.generation:
        return None
    return IndexSearcher(
        searcher.reader.index_dir, similarity=searcher.sim, pruned=searcher.pruned
    )


def join_query(
    searcher: "IndexSearcher",
    from_query,
    field: str,
    to_query=None,
    max_terms: int = 1024,
) -> BooleanQuery:
    """Query-time join (join module, JoinUtil.createJoinQuery,
    join/.../JoinUtil.java:63): collect the distinct ``field`` values of
    docs matching ``from_query``, then build a query matching docs whose
    ``field`` holds ANY of those values (TermInSetQuery over the
    'field:value' keyword terms), optionally ANDed with ``to_query``.
    ScoreMode.None semantics (constant-score to-side). ``max_terms`` caps
    the value set (BooleanQuery.maxClauseCount spirit)."""
    td = searcher.search(from_query, k=1 << 62)
    if len(td.docids) == 0:
        return BooleanQuery()  # no from-matches -> matches nothing
    stored = fetch_stored(searcher.reader, td.docids)
    vals = sorted(set(stored.column(field).to_pylist()))[:max_terms]
    in_set = TermInSetQuery(tuple(f"{field}:{v}" for v in vals))
    out = BooleanQuery(must=[in_set])
    if to_query is not None:
        sub = (
            searcher.parse(to_query) if isinstance(to_query, str) else to_query
        )
        if sub.must or sub.should or sub.must_not:
            # the whole to-query is ONE required clause — its inner OR /
            # NOT / minimumShouldMatch semantics are preserved, not
            # flattened into the outer conjunction
            out.must.append(sub.freeze())
    return out


def double_range_facet_counts(
    searcher: "IndexSearcher",
    query,
    field: str,
    ranges: list[tuple[float, float]],
) -> list[tuple[int, int]]:
    """Double range facets over a derived DoubleValuesSource
    (facet/.../range/DoubleRangeFacetCounts.java + DoubleRange.java —
    min inclusive, max EXCLUSIVE by default wiring here): the source is
    ln(field + 1) computed through the libm unique-value LUT
    (similarity._ulog), so DuckDB's ln() reproduces every value
    bit-for-bit and range membership is exact. Returns one
    (range_index, count) per range, input order; ranges may overlap."""
    from lucene_ray.search.similarity import _ulog

    td = searcher.search(query, k=1 << 62)
    if len(td.docids) == 0:
        return [(i, 0) for i in range(len(ranges))]
    vals = _ulog(
        fetch_doc_values(searcher.reader, td.docids, field).astype(np.float64)
        + 1.0
    )
    return [
        (i, int(((vals >= lo) & (vals < hi)).sum()))
        for i, (lo, hi) in enumerate(ranges)
    ]


def join_query_scored(
    searcher: "IndexSearcher",
    from_query,
    field: str,
    score_mode: str = "total",
    k: int | None = None,
) -> "SortedTopDocs":
    """Query-time join with score aggregation (JoinUtil.createJoinQuery
    ScoreMode.Total/Max/Avg, join/.../JoinUtil.java:63 +
    TermsWithScoreCollector): the from-side contributes CONSTANT scores
    (ScoreMode.None from-side, as join_query), so per shared value
    Total = the number of from-docs holding it, Max = Avg = 1 — the Total
    mode ranks to-docs by from-side support, float-free. Returns to-docs
    ordered (score desc, docid asc); ``values`` carries the integer
    support counts."""
    if score_mode not in ("total", "max", "avg"):
        raise ValueError("score_mode must be total/max/avg")
    td = searcher.search(from_query, k=1 << 62)
    z = np.array([], dtype=np.int64)
    if len(td.docids) == 0:
        return SortedTopDocs(z, np.array([], dtype=np.float64), 0, z)
    stored = fetch_stored(searcher.reader, td.docids)
    from collections import Counter

    support = Counter(stored.column(field).to_pylist())
    to_q = BooleanQuery(
        must=[TermInSetQuery(tuple(f"{field}:{v}" for v in sorted(support)))]
    )
    to_td = searcher.search(to_q, k=1 << 62)
    to_vals = fetch_stored(searcher.reader, to_td.docids).column(field).to_pylist()
    if score_mode == "total":
        scores = np.array([support[v] for v in to_vals], dtype=np.int64)
    else:  # max / avg over constant from-scores
        scores = np.ones(len(to_vals), dtype=np.int64)
    order = np.lexsort((to_td.docids, -scores))
    if k is not None:
        order = order[:k]
    return SortedTopDocs(
        to_td.docids[order],
        scores[order].astype(np.float64),
        len(to_td.docids),
        scores[order],
    )


def join_query_numeric(
    searcher: "IndexSearcher",
    from_query,
    from_field: str,
    to_field: str | None = None,
    to_query=None,
    max_terms: int = 1024,
) -> BooleanQuery:
    """Numeric-key query-time join (JoinUtil.createJoinQuery int/long
    overloads, join/.../JoinUtil.java:90,141): collect the distinct NUMERIC
    doc values of ``from_field`` over the from-matches, then match to-docs
    whose ``to_field`` point holds ANY of them (PointInSetQuery — the
    reference's to-side too), optionally ANDed with ``to_query``.
    ScoreMode.None semantics. ``max_terms`` caps the SORTED value set."""
    from lucene_ray.search.query import PointInSetQuery

    to_field = to_field or from_field
    td = searcher.search(from_query, k=1 << 62)
    if len(td.docids) == 0:
        return BooleanQuery()  # no from-matches -> matches nothing
    vals = fetch_doc_values(searcher.reader, td.docids, from_field)
    vs = tuple(sorted({int(v) for v in vals})[:max_terms])
    out = BooleanQuery(must=[PointInSetQuery(to_field, vs)])
    if to_query is not None:
        sub = (
            searcher.parse(to_query) if isinstance(to_query, str) else to_query
        )
        if sub.must or sub.should or sub.must_not:
            out.must.append(sub.freeze())
    return out


def join_query_numeric_scored(
    searcher: "IndexSearcher",
    from_query,
    from_field: str,
    to_field: str | None = None,
    score_mode: str = "total",
    k: int | None = None,
) -> "SortedTopDocs":
    """Numeric-key join with score aggregation (JoinUtil numeric overloads
    + TermsWithScoreCollector, ScoreMode.Total/Max/Avg over constant
    from-scores): Total ranks to-docs by the number of from-docs sharing
    the value; Max = Avg = 1. Returns to-docs (score desc, docid asc);
    ``values`` carries the integer support counts."""
    from lucene_ray.search.query import PointInSetQuery

    if score_mode not in ("total", "max", "avg"):
        raise ValueError("score_mode must be total/max/avg")
    to_field = to_field or from_field
    td = searcher.search(from_query, k=1 << 62)
    z = np.array([], dtype=np.int64)
    if len(td.docids) == 0:
        return SortedTopDocs(z, np.array([], dtype=np.float64), 0, z)
    from collections import Counter

    support = Counter(
        int(v) for v in fetch_doc_values(searcher.reader, td.docids, from_field)
    )
    to_q = BooleanQuery(
        must=[PointInSetQuery(to_field, tuple(sorted(support)))]
    )
    to_td = searcher.search(to_q, k=1 << 62)
    to_vals = fetch_doc_values(searcher.reader, to_td.docids, to_field)
    if score_mode == "total":
        scores = np.array([support[int(v)] for v in to_vals], dtype=np.int64)
    else:  # max / avg over constant from-scores
        scores = np.ones(len(to_vals), dtype=np.int64)
    order = np.lexsort((to_td.docids, -scores))
    if k is not None:
        order = order[:k]
    return SortedTopDocs(
        to_td.docids[order],
        scores[order].astype(np.float64),
        len(to_td.docids),
        scores[order],
    )


def join_query_global_ordinal(
    searcher: "IndexSearcher",
    from_query,
    field: str,
    score_mode: str = "none",
    k: int | None = None,
) -> "SortedTopDocs":
    """Global-ordinal join (JoinUtil.createJoinQuery with an OrdinalMap,
    join/.../JoinUtil.java:456,500 -> GlobalOrdinalsQuery /
    GlobalOrdinalsWithScoreQuery): the join key is a SORTED doc-values
    field; per-segment ordinals lift through a merged global ordinal map
    (index/OrdinalMap.java — here: sorted union of the segment term
    dictionaries + one searchsorted per segment), the from-side collects a
    global-ordinal COUNT array (the LongBitSet + scores analog; never term
    bytes), and the to-side matches docs whose global ordinal is hit.
    Doc sets equal the value join — ordinals are Lucene's execution
    strategy for high-cardinality keys. score_mode 'none' returns docids
    ascending with constant 1 scores; 'total' ranks by from-side support
    (score desc, docid asc), Max/Avg collapse to 1 as in the term join."""
    if score_mode not in ("none", "total", "max", "avg"):
        raise ValueError("score_mode must be none/total/max/avg")
    reader = searcher.reader
    readers = reader.all_readers()
    segs = []
    for sr in readers:
        ords, terms = sr.sorted_doc_values(field)
        segs.append((sr, ords, terms))
    z = np.array([], dtype=np.int64)
    if not segs:
        return SortedTopDocs(z, np.array([], dtype=np.float64), 0, z)
    global_terms = np.unique(np.concatenate([t for _, _, t in segs]))
    seg2glob = [np.searchsorted(global_terms, t) for _, _, t in segs]

    td = searcher.search(from_query, k=1 << 62)
    if len(td.docids) == 0:
        return SortedTopDocs(z, np.array([], dtype=np.float64), 0, z)
    support = np.zeros(len(global_terms), dtype=np.int64)
    for (sr, ords, _t), m in zip(segs, seg2glob):
        lo = sr.docid_base
        hi = lo + sr.doc_count
        mine = td.docids[(td.docids >= lo) & (td.docids < hi)] - lo
        if len(mine):
            np.add.at(support, m[ords[mine]], 1)

    docs_parts, score_parts = [], []
    for (sr, ords, _t), m in zip(segs, seg2glob):
        gl = m[ords]
        match = support[gl] > 0
        if sr.live_mask is not None:
            match &= sr.live_mask
        local = np.nonzero(match)[0]
        docs_parts.append(local.astype(np.int64) + sr.docid_base)
        if score_mode == "total":
            score_parts.append(support[gl[local]])
        else:
            score_parts.append(np.ones(len(local), dtype=np.int64))
    docids = np.concatenate(docs_parts)
    scores = np.concatenate(score_parts)
    order = np.lexsort((docids, -scores))
    if k is not None:
        order = order[:k]
    return SortedTopDocs(
        docids[order],
        scores[order].astype(np.float64),
        len(docids),
        scores[order],
    )


def all_groups(searcher: "IndexSearcher", query, field: str) -> list[str]:
    """Distinct group values among the matching docs, sorted — the
    AllGroupsCollector (grouping/AllGroupsCollector.java); its size is
    the groupCount companion to grouped top-k."""
    td = searcher.search(query, k=1 << 62)
    if len(td.docids) == 0:
        return []
    stored = fetch_stored(searcher.reader, td.docids)
    return sorted(set(stored.column(field).to_pylist()))


def sampled_facet_counts(
    searcher: "IndexSearcher", query, field: str, num: int, den: int
) -> list[tuple[str, int]]:
    """Facet counts over a DETERMINISTIC sample of the matching docs
    (facet/.../RandomSamplingFacetsCollector.java role): a doc enters the
    sample iff the first 8 hex chars of its stored content sha256 read as
    an integer satisfy value % den < num — the engine-side twin of
    ops/text.py sample_hash (content-keyed, reproducible across runs /
    cluster sizes; the reference's XORShift sampler is seed-keyed).
    Returns (value, count) over the sample, count desc then value asc."""
    td = searcher.search(query, k=1 << 62)
    if len(td.docids) == 0:
        return []
    stored = fetch_stored(searcher.reader, td.docids)
    shas = stored.column("content_sha256").to_pylist()
    keep = np.array([int(h[:8], 16) % den < num for h in shas], dtype=bool)
    vals = np.asarray(stored.column(field).to_pylist(), dtype=object)[keep]
    from collections import Counter

    return sorted(Counter(vals.tolist()).items(), key=lambda kv: (-kv[1], kv[0]))


def fetch_sorted_numeric_selected(
    reader: IndexReader, global_docids, field: str, selector: str = "min"
) -> np.ndarray:
    """Per-doc selected value of a SORTED_NUMERIC field (search/
    SortedNumericSelector.java MIN/MAX — the sort-key reduction for
    multi-valued numerics). Values are stored ascending per doc, so MIN is
    the first and MAX the last entry. Input order preserved."""
    if selector not in ("min", "max"):
        raise ValueError("selector must be 'min' or 'max'")
    g = np.asarray(global_docids, dtype=np.int64)
    bases = np.array([e.docid_base for e in reader.segments], dtype=np.int64)
    seg_idx = np.searchsorted(bases, g, side="right") - 1
    out = np.zeros(len(g), dtype=np.int64)
    for si in np.unique(seg_idx):
        entry = reader.segments[int(si)]
        sel = np.nonzero(seg_idx == si)[0]
        offsets, flat = reader.segment_reader(entry.name).sorted_numeric_doc_values(
            field
        )
        local = g[sel] - entry.docid_base
        # An empty per-doc list has offsets[local] == offsets[local+1];
        # indexing flat there would silently read a NEIGHBORING doc's
        # value. SortedNumericSelector has no missing sentinel, so refuse
        # loudly instead. (ADVICE r4)
        empty = offsets[local] == offsets[local + 1]
        if empty.any():
            bad = g[sel][empty]
            raise ValueError(
                f"fetch_sorted_numeric_selected: field {field!r} has no "
                f"values for docid(s) {bad[:5].tolist()} — filter with "
                "FieldExistsQuery first or supply dense values"
            )
        if selector == "min":
            out[sel] = flat[offsets[local]]
        else:
            out[sel] = flat[offsets[local + 1] - 1]
    return out


def fetch_binary_doc_values(
    reader: IndexReader, global_docids, field: str
) -> list[bytes]:
    """BINARY doc values for global docids, input order preserved
    (index/BinaryDocValues.java)."""
    g = np.asarray(global_docids, dtype=np.int64)
    bases = np.array([e.docid_base for e in reader.segments], dtype=np.int64)
    seg_idx = np.searchsorted(bases, g, side="right") - 1
    out: list = [None] * len(g)
    for si in np.unique(seg_idx):
        entry = reader.segments[int(si)]
        vals = reader.segment_reader(entry.name).binary_doc_values(field)
        for i in np.nonzero(seg_idx == si)[0]:
            out[int(i)] = vals[int(g[i] - entry.docid_base)]
    return out


def index_sorted_range(
    searcher: "IndexSearcher", field: str, lower, upper
) -> np.ndarray:
    """IndexSortSortedNumericDocValuesRangeQuery
    (search/IndexSortSortedNumericDocValuesRangeQuery.java): on an index
    sorted by ``field``, a numeric range is TWO binary searches per sorted
    run — O(runs · log n) instead of a full doc-values scan (the
    reference's BoundedDocIdSetIterator over advanceExactWithinBlock).
    Falls back to the point/doc-values scan per segment whenever the sort
    does not apply (different field, DV updates broke the invariant, no
    recorded runs) — the reference's fallbackQuery contract. Returns
    sorted global docids, live-doc filtered, bounds inclusive (None =
    open)."""
    isort = getattr(searcher.reader.manifest, "index_sort", None)
    parts = []
    for entry in searcher.reader.segments:
        sr = searcher.reader.segment_reader(entry.name)
        runs = getattr(entry, "sorted_runs", None)
        use_sort = (
            isort
            and isort[0] == field
            and runs
            and getattr(entry, "dv_gen", 0) == 0
        )
        if use_sort:
            vals = sr.doc_values(field)
            ascending = isort[1] == "asc"
            seg_parts = []
            for rs, re_ in runs:
                v = vals[rs:re_]
                if ascending:
                    a = 0 if lower is None else int(np.searchsorted(v, lower, "left"))
                    b = len(v) if upper is None else int(np.searchsorted(v, upper, "right"))
                else:
                    # descending run: reverse view is ascending; translate
                    vr = v[::-1]
                    ar = 0 if lower is None else int(np.searchsorted(vr, lower, "left"))
                    br = len(v) if upper is None else int(np.searchsorted(vr, upper, "right"))
                    a, b = len(v) - br, len(v) - ar
                if b > a:
                    seg_parts.append(np.arange(rs + a, rs + b, dtype=np.int64))
            local = (
                np.concatenate(seg_parts)
                if seg_parts
                else np.array([], dtype=np.int64)
            )
        else:
            local = sr.point_range(field, lower, upper)
        if sr.live_mask is not None and len(local):
            local = local[sr.live_mask[local]]
        if len(local):
            parts.append(np.sort(local) + entry.docid_base)
    if not parts:
        return np.array([], dtype=np.int64)
    return np.concatenate(parts)


def high_freq_terms(
    reader: IndexReader, num_terms: int = 100, by: str = "df"
) -> list[tuple[str, int, int]]:
    """Top content terms of the whole index by docFreq or totalTermFreq
    (misc/HighFreqTerms.java getHighFreqTerms / DocFreqComparator /
    TotalTermFreqComparator). Column-pruned read of each segment's
    (term, df, ttf) stats — postings blobs never load; deletions are
    ignored, as in the reference (docFreq is stats-level). Keyword
    'field:value' terms are excluded (content field only). Returns
    [(term, df, ttf)] ordered by the chosen count desc, term asc."""
    if by not in ("df", "ttf"):
        raise ValueError("by must be 'df' or 'ttf'")
    import pyarrow.parquet as pq

    parts = []
    for entry in reader.segments:
        sr = reader.segment_reader(entry.name)
        t = pq.read_table(
            segfiles.POSTINGS.path(sr.seg_dir),
            columns=["term", "df", "ttf"],
            memory_map=True,
        )
        parts.append(t)
    if not parts:
        return []
    import pyarrow.compute as pc

    t = pa.concat_tables(parts)
    mask = pc.invert(pc.match_substring(t.column("term"), ":"))
    t = t.filter(mask)
    agg = (
        t.group_by("term").aggregate([("df", "sum"), ("ttf", "sum")])
    )
    terms = np.asarray(agg.column("term").to_pylist(), dtype=object)
    dfs = agg.column("df_sum").to_numpy(zero_copy_only=False)
    ttfs = agg.column("ttf_sum").to_numpy(zero_copy_only=False)
    key = dfs if by == "df" else ttfs
    order = np.lexsort((terms, -key))[:num_terms]
    return [(str(terms[i]), int(dfs[i]), int(ttfs[i])) for i in order]


def long_value_facet_counts(
    searcher: "IndexSearcher", query, field: str, top_n: int = 10
) -> list[tuple[int, int]]:
    """Per-distinct-value counts of a numeric doc-values field over the
    matching docs (facet/LongValueFacetCounts.java) — top children ordered
    by count desc, value asc (LongValueFacetCounts.getTopChildren:426).
    Returns [(value, count)]."""
    td = searcher.search(query, k=1 << 62)
    if len(td.docids) == 0:
        return []
    vals = fetch_doc_values(searcher.reader, td.docids, field)
    uniq, counts = np.unique(vals, return_counts=True)
    order = np.lexsort((uniq, -counts))[:top_n]
    return [(int(uniq[i]), int(counts[i])) for i in order]


def multi_long_value_facet_counts(
    searcher: "IndexSearcher", query, field: str, top_n: int = 10
) -> list[tuple[int, int]]:
    """LongValueFacetCounts over a MultiLongValuesSource — the
    SORTED_NUMERIC multi-valued variant (facet/LongValueFacetCounts.java
    :117 countMultiValued): EVERY value occurrence of every matching doc
    increments its count (intra-doc duplicates count per occurrence).
    Top children ordered count desc, value asc. Returns [(value, count)]."""
    td = searcher.search(query, k=1 << 62)
    if len(td.docids) == 0:
        return []
    docids = np.sort(np.asarray(td.docids, dtype=np.int64))
    parts = []
    rd = searcher.reader
    for e in rd.segments:
        sr = rd.segment_reader(e.name)
        lo = np.searchsorted(docids, e.docid_base)
        hi = np.searchsorted(docids, e.docid_base + e.doc_count)
        if lo == hi:
            continue
        local = docids[lo:hi] - e.docid_base
        offsets, flat = sr.sorted_numeric_doc_values(field)
        # vectorized multi-slice gather (no per-doc Python loop)
        lens = offsets[local + 1] - offsets[local]
        total = int(lens.sum())
        if total == 0:
            continue
        within = np.arange(total) - np.repeat(np.cumsum(lens) - lens, lens)
        parts.append(flat[np.repeat(offsets[local], lens) + within])
    if not parts:
        return []
    vals = np.concatenate(parts)
    uniq, counts = np.unique(vals, return_counts=True)
    order = np.lexsort((uniq, -counts))[:top_n]
    return [(int(uniq[i]), int(counts[i])) for i in order]


def search_sorted_set(
    searcher: "IndexSearcher",
    query,
    field: str,
    k: int = DEFAULT_TOP_K,
    ascending: bool = True,
    selector: str = "min",
) -> tuple[np.ndarray, list[str]]:
    """Sort-by-SORTED_SET-field search (search/SortedSetSortField.java +
    SortedSetSelector.MIN/MAX): each matching doc's sort key is the
    lexicographically smallest (or largest) value of its set; order by
    (key asc|desc, docid asc). Docs with an empty set sort LAST in either
    direction (a documented divergence from the configurable
    SortField.setMissingValue). Returns (docids[k], keys[k])."""
    if selector not in ("min", "max"):
        raise ValueError(f"unknown SortedSetSelector: {selector!r}")
    td = searcher.search(query, k=1 << 62)
    if len(td.docids) == 0:
        return np.array([], dtype=np.int64), []
    docids = np.sort(np.asarray(td.docids, dtype=np.int64))
    keys: list = [None] * len(docids)
    rd = searcher.reader
    for e in rd.segments:
        sr = rd.segment_reader(e.name)
        lo = np.searchsorted(docids, e.docid_base)
        hi = np.searchsorted(docids, e.docid_base + e.doc_count)
        if lo == hi:
            continue
        local = docids[lo:hi] - e.docid_base
        offsets, flat_ords, terms = sr.sorted_set_doc_values(field)
        for i, d in zip(range(lo, hi), local):
            s, t = offsets[d], offsets[d + 1]
            if s == t:
                continue  # missing: key stays None -> sorts last
            ord_ = flat_ords[s] if selector == "min" else flat_ords[t - 1]
            keys[i] = str(terms[ord_])
    present = np.array([x is not None for x in keys])
    kp = np.array([x if x is not None else "" for x in keys], dtype="U")
    uniq, inv = np.unique(kp, return_inverse=True)
    code = inv if ascending else -inv
    # missing docs always last: lift their code above every present key
    code = np.where(present, code, np.iinfo(np.int64).max)
    order = np.lexsort((docids, code))[:k]
    return docids[order], [keys[i] for i in order]


def range_facet_counts(
    searcher: "IndexSearcher", query, field: str, ranges: list[tuple[int, int]]
) -> list[tuple[int, int]]:
    """Numeric range facets over a doc-values field for ``query``'s matches
    (facet/.../range/LongRangeFacetCounts.java): returns one (range_index,
    count) per requested [lo, hi] INCLUSIVE range, in input order. Ranges
    may overlap (each is counted independently, as in the reference)."""
    td = searcher.search(query, k=1 << 62)
    if len(td.docids) == 0:
        return [(i, 0) for i in range(len(ranges))]
    vals = fetch_doc_values(searcher.reader, td.docids, field)
    out = []
    for i, (lo, hi) in enumerate(ranges):
        out.append((i, int(((vals >= lo) & (vals <= hi)).sum())))
    return out


class TimeExceededException(Exception):
    """TimeLimitingCollector.TimeExceededException
    (core/search/TimeLimitingCollector.java:49): carries the partial
    result collected before the budget ran out."""

    def __init__(self, partial: "TopDocs", elapsed_s: float, segments_done: int):
        super().__init__(
            f"time budget exceeded after {elapsed_s * 1e3:.1f} ms "
            f"({segments_done} segments scored)"
        )
        self.partial = partial
        self.elapsed_s = elapsed_s
        self.segments_done = segments_done


def search_time_limited(
    searcher: "IndexSearcher",
    query,
    k: int = 10,
    budget_s: float = 1.0,
    greedy: bool = False,
    clock=None,
) -> "TopDocs":
    """TimeLimitingCollector (core/search/TimeLimitingCollector.java):
    abort a search that exceeds its time budget, surfacing the partial
    hits. Granularity divergence (documented): the reference ticks per
    collected doc; here the deadline is checked per SEGMENT — the
    engine's scoring unit is a vectorized whole-segment kernel, so a
    sub-segment abort would fabricate a doc-at-a-time loop the design
    forbids. ``greedy`` finishes the in-flight segment before raising
    (the reference's greedy flag collects the in-flight doc).

    ``clock``: injectable monotonic-seconds callable (tests). Raises
    TimeExceededException with the partial TopDocs (relation 'gte' —
    uncounted segments remain); returns complete TopDocs otherwise."""
    import time as _time

    clock = clock or _time.monotonic
    t0 = clock()
    bq = searcher.parse(query) if isinstance(query, str) else query
    bq = searcher._maybe_rewrite(bq)
    if not (bq.must or bq.should):
        return TopDocs(
            np.array([], dtype=np.int64), np.array([], dtype=np.float32), 0
        )
    scorers = searcher._scorers(bq)
    all_docs, all_scores, total = [], [], 0
    done = 0
    for entry in searcher.reader.segments:
        if clock() - t0 > budget_s and (done > 0 or not greedy):
            docids = (
                np.concatenate(all_docs)
                if all_docs
                else np.array([], dtype=np.int64)
            )
            scores = (
                np.concatenate(all_scores)
                if all_scores
                else np.array([], dtype=np.float32)
            )
            d, s = _topk(docids, scores, k)
            raise TimeExceededException(
                TopDocs(d, s, total, "gte"), clock() - t0, done
            )
        sr = searcher.reader.segment_reader(entry.name)
        d, s, n, _exact = score_segment_exhaustive(sr, bq, scorers, k)
        total += n
        done += 1
        if len(d):
            all_docs.append(d + entry.docid_base)
            all_scores.append(s)
    if not all_docs:
        return TopDocs(
            np.array([], dtype=np.int64), np.array([], dtype=np.float32),
            total,
        )
    d, s = _topk(np.concatenate(all_docs), np.concatenate(all_scores), k)
    return TopDocs(d, s, total)


class SearcherLifetimeManager:
    """core/search/SearcherLifetimeManager.java: record a searcher's
    point-in-time view under a token so a follow-on request (paging
    through results) can ``acquire`` the SAME view even after reopens;
    ``prune`` drops views older than a cutoff. Tokens are the manifest
    generation (the reference uses the reader version); readers here are
    immutable snapshots, so acquire is a dict hit, and pruning just
    forgets the entry (no refcounts — segment files are retained by the
    manifest's commit history)."""

    def __init__(self):
        self._views: dict[int, tuple] = {}

    def record(self, searcher: "IndexSearcher", now: float | None = None) -> int:
        import time as _time

        gen = int(searcher.reader.manifest.generation)
        if gen not in self._views:
            self._views[gen] = (searcher, _time.time() if now is None else now)
        return gen

    def acquire(self, token: int) -> "IndexSearcher | None":
        v = self._views.get(token)
        return v[0] if v else None

    def prune(self, max_age_s: float, now: float | None = None) -> int:
        """PruneByAge (SearcherLifetimeManager.java:41): drop every view
        recorded more than ``max_age_s`` ago EXCEPT the newest (the
        reference always keeps the current searcher). Returns #pruned."""
        import time as _time

        t = _time.time() if now is None else now
        if not self._views:
            return 0
        newest = max(self._views)
        drop = [
            g
            for g, (_s, rec) in self._views.items()
            if g != newest and t - rec > max_age_s
        ]
        for g in drop:
            del self._views[g]
        return len(drop)


class SearcherManager:
    """core/search/SearcherManager.java: a thread-safe-enough facade over
    the acquire/release/maybeRefresh lifecycle — ``acquire`` hands out the
    CURRENT searcher (a consistent snapshot), ``maybe_refresh`` swaps in a
    new one when the commit generation advanced (reopen_if_changed), and
    an optional listener observes refreshes (the reference's
    RefreshListener). Readers here are immutable snapshots backed by
    retained segment files, so release() is bookkeeping only (no
    refcounted closes) — acquired searchers stay valid forever."""

    def __init__(self, index_dir: str, similarity=None, pruned: bool = True):
        self._current = IndexSearcher(
            index_dir, similarity=similarity, pruned=pruned
        )
        self._listeners: list = []

    def acquire(self) -> "IndexSearcher":
        return self._current

    def release(self, searcher: "IndexSearcher") -> None:
        # snapshots are immortal (manifest history retains their files);
        # the reference decrefs here
        pass

    def add_listener(self, fn) -> None:
        """fn(new_searcher) after every successful refresh."""
        self._listeners.append(fn)

    def maybe_refresh(self) -> bool:
        """True when a newer commit was swapped in
        (SearcherManager.maybeRefresh contract)."""
        nxt = reopen_if_changed(self._current)
        if nxt is None:
            return False
        self._current = nxt
        for fn in self._listeners:
            fn(nxt)
        return True


def search_sorted_expression(
    searcher: "IndexSearcher",
    query,
    expression: str,
    k: int = 10,
    ascending: bool = False,
) -> "SortedTopDocs":
    """Sort matches by a compiled EXPRESSION value source
    (expressions/ExpressionValueSource.java getSortField — the
    SimpleBindings + DoubleValuesSource sort path): the expression runs
    over numeric doc values / doc_len in float64 per matching doc; rank =
    (value desc|asc, docid asc). ``values`` carries the float64 keys.
    O(matches) vectorized gather, top-k only."""
    from lucene_ray.search.expressions import compile_expression

    td = searcher.search(query, k=1 << 62)
    z = np.array([], dtype=np.int64)
    if len(td.docids) == 0:
        return SortedTopDocs(z, np.array([], dtype=np.float64), 0, z)
    expr = compile_expression(expression)
    bindings = {}
    for v in expr.variables:
        if v == "_score":
            raise ValueError("expression sort has no _score variable")
        elif v == "doc_len":
            vals = np.concatenate(
                [
                    searcher.reader.segment_reader(e.name).doc_len
                    for e in searcher.reader.segments
                ]
            )
            bindings[v] = vals[td.docids].astype(np.float64)
        else:
            bindings[v] = fetch_doc_values(
                searcher.reader, td.docids, v
            ).astype(np.float64)
    keys = np.asarray(expr.evaluate(bindings), dtype=np.float64)
    if keys.ndim == 0:
        keys = np.full(len(td.docids), float(keys))
    order = np.lexsort((td.docids, keys if ascending else -keys))[:k]
    return SortedTopDocs(
        td.docids[order],
        np.zeros(len(order), dtype=np.float32),  # field sorts carry no score
        td.total_hits,
        keys[order],
    )


def span_payload_check(
    searcher: "IndexSearcher", terms, payloads
) -> np.ndarray:
    """SpanPayloadCheckQuery (queries/payloads/SpanPayloadCheckQuery.java,
    MatchOperation.EQ): docs containing an exact-adjacent span of
    ``terms`` whose per-occurrence payloads equal ``payloads`` — the
    single-term form checks one occurrence's payload (SpanTermQuery
    wrap), the multi-term form the ordered zero-slop near span. Returns
    sorted global docids, live-doc filtered."""
    if len(terms) != len(payloads):
        raise ValueError("one expected payload per span term")
    reader = searcher.reader
    out = []
    for entry in reader.segments:
        sr = reader.segment_reader(entry.name)
        keysets = []
        ok = True
        for i, (t, e) in enumerate(zip(terms, payloads)):
            tp = sr.postings(t)
            if tp is None:
                ok = False
                break
            if not tp.has_payloads:
                raise ValueError(
                    "index was built without payloads (build_index payload_fn)"
                )
            d_occ, pos = tp.flat_positions()
            _d2, pay = tp.flat_payloads()
            keep = pay == e
            # span start key: (doc, start position) with term i at start+i
            keysets.append(
                set(
                    (int(d), int(p) - i)
                    for d, p in zip(d_occ[keep], pos[keep])
                )
            )
        if not ok or not keysets:
            continue
        spans = set.intersection(*keysets)
        if not spans:
            continue
        docs = np.unique(np.array([d for d, _p in spans], dtype=np.int64))
        if sr.live_mask is not None:
            docs = docs[sr.live_mask[docs]]
        out.append(docs + entry.docid_base)
    if not out:
        return np.array([], dtype=np.int64)
    return np.sort(np.concatenate(out))


class LiveFieldValues:
    """core/search/LiveFieldValues.java: id -> value map for documents
    added/updated since the last refresh, so 'get by id' reflects writes
    BEFORE they become searchable. ``add``/``delete`` record pending
    values; ``get(id)`` returns the pending value when present (a
    recorded DELETE returns the missing sentinel even if an older commit
    still matches), else falls back to the searcher lookup the caller
    provides. A refresh cycle is two-phase like the reference: the map
    swaps to a fresh one BEFORE the searcher reopens (setCurrentSearcher
    on the old map's readers could still miss), and the old map drops
    only after the new searcher is live."""

    def __init__(self, missing_value=None):
        self.missing = missing_value
        self._current: dict = {}
        self._old: dict = {}

    def add(self, doc_id, value) -> None:
        self._current[doc_id] = value

    def delete(self, doc_id) -> None:
        self._current[doc_id] = self.missing

    def size(self) -> int:
        return len(self._current) + len(self._old)

    def before_refresh(self) -> None:
        """Swap the write map (the reference's two-generation protocol):
        writes racing the refresh land in the NEW map."""
        self._old = self._current
        self._current = {}

    def after_refresh(self) -> None:
        """The refreshed searcher now sees everything in the old map."""
        self._old = {}

    def get(self, doc_id, searcher_lookup):
        """Pending value if any, else ``searcher_lookup(doc_id)``."""
        if doc_id in self._current:
            return self._current[doc_id]
        if doc_id in self._old:
            return self._old[doc_id]
        return searcher_lookup(doc_id)

"""Segment-sharded distributed search: raw Ray actors (the one place the
Dataset API genuinely can't express the semantics — a shared, long-lived,
read-only index shard per worker with two-phase query execution).

Topology (the multi-node shape of SURVEY.md §3.3 / §4 intra-query row):

  DistributedSearcher (driver)
    ├─ SegmentShardActor[0]  — opens segments {0, S, 2S, ...} ONCE
    ├─ SegmentShardActor[1]  — opens segments {1, S+1, ...}
    └─ ...
  query:  phase 1  gather per-shard TermStatistics -> sum     (tiny dict)
          phase 2  scatter (query, global stats, k, θ) -> per-shard top-k
          reduce   deterministic merge (score desc, global docid asc)

Identical scoring contract to the single-process IndexSearcher: every shard
builds its scorers from the SAME global stats (build_scorers), so the merged
top-k is bit-identical to the local engine — asserted in
tests/test_distributed.py. On a real cluster each actor would be scheduled
on the node holding its shard's files (placement via custom resources);
queries stream through `search_many` to amortize round trips.
"""

from __future__ import annotations

import numpy as np

import ray

from lucene_ray.config import DEFAULT_TOP_K
from lucene_ray.search.engine import (
    TopDocs,
    build_scorers,
    collect_matches,
    fetch_doc_values,
    fetch_stored,
    query_terms,
    rewrite_lazy,
    segment_hits,
)
from lucene_ray.search.query import BooleanQuery, CommonTermsQuery, parse_query
from lucene_ray.search.similarity import BM25Similarity


@ray.remote
class SegmentShardActor:
    """Holds open readers for a subset of segments (state loaded once)."""

    def __init__(self, index_dir: str, segment_names: list[str]):
        from lucene_ray.search.reader import IndexReader

        self._reader = IndexReader(index_dir)
        self._entries = [
            e for e in self._reader.segments if e.name in set(segment_names)
        ]
        for e in self._entries:  # open/mmap now, not per query
            self._reader.segment_reader(e.name)

    def term_stats(self, terms: list[str]) -> dict:
        out = {t: [0, 0] for t in terms}
        for e in self._entries:
            sr = self._reader.segment_reader(e.name)
            for t in terms:
                df, ttf = sr.term_stats(t)
                out[t][0] += df
                out[t][1] += ttf
        return {t: (v[0], v[1]) for t, v in out.items()}

    def vocabulary_slice(self, include_fields: bool = False) -> np.ndarray:
        parts = [
            self._reader.segment_reader(e.name)._terms_split(include_fields)
            for e in self._entries
        ]
        return np.unique(np.concatenate(parts)) if parts else np.array([], dtype=object)

    def search_shard_many(
        self, bqs: list, stats: dict, doc_count: int, sum_ttf: int, k: int,
        pruned: bool = True,
    ) -> list[TopDocs]:
        return [
            TopDocs.merge(k, ()) if bq is None
            else self.search_shard(bq, stats, doc_count, sum_ttf, k, pruned)
            for bq in bqs
        ]

    def _matches(
        self, bq: BooleanQuery, stats: dict, doc_count: int, sum_ttf: int
    ) -> np.ndarray:
        """Ascending global docids of this shard's matches, unscored (the
        per-leaf MatchingDocs; ``collect_matches``, as the local searcher)."""
        scorers = build_scorers(bq, stats, doc_count, sum_ttf, BM25Similarity())
        return collect_matches(self._reader, self._entries, bq, scorers)

    def count_shard(
        self, bq: BooleanQuery, stats: dict, doc_count: int, sum_ttf: int
    ) -> int:
        """Exact non-scoring hit count over this shard's segments
        (TotalHitCountCollector per leaf, summed in the reduce)."""
        return len(self._matches(bq, stats, doc_count, sum_ttf))

    def sort_shard(
        self, bq: BooleanQuery, stats: dict, doc_count: int, sum_ttf: int,
        field: str, k: int, ascending: bool,
    ):
        """Per-shard sort-by-field top-k: the TopFieldCollector leaf half —
        each shard returns its k best (value, docid) rows; the driver's
        merge keeps the global k (identical results to the local path
        because per-shard top-k under a total order is merge-safe)."""
        d = self._matches(bq, stats, doc_count, sum_ttf)
        vals = fetch_doc_values(self._reader, d, field)
        key = vals if ascending else -vals
        order = np.lexsort((d, key))[:k]
        return d[order], vals[order], len(d)

    def taxonomy_facet_shard(
        self, bq: BooleanQuery, stats: dict, doc_count: int, sum_ttf: int,
        path_fields: tuple,
    ) -> dict:
        """Per-shard hierarchical facet counts (FastTaxonomyFacetCounts per
        leaf): every matching doc counts under each PREFIX of its
        path-field tuple; additive across shards."""
        import pyarrow.compute as pc

        d = self._matches(bq, stats, doc_count, sum_ttf)
        if not len(d):
            return {}
        stored = fetch_stored(self._reader, d)
        out: dict = {}
        path = None
        for f in path_fields:
            col = stored.column(f)
            path = (
                col
                if path is None
                else pc.binary_join_element_wise(path, col, "/")
            )
            vc = pc.value_counts(path.combine_chunks())
            for v, c in zip(
                vc.field("values").to_pylist(), vc.field("counts").to_pylist()
            ):
                out[v] = out.get(v, 0) + c
        return out

    def range_facet_shard(
        self, bq: BooleanQuery, stats: dict, doc_count: int, sum_ttf: int,
        field: str, ranges: list,
    ) -> list:
        """Per-shard numeric range-facet counts (LongRangeFacetCounts per
        leaf) — counts are additive across shards."""
        vals = fetch_doc_values(
            self._reader, self._matches(bq, stats, doc_count, sum_ttf), field
        )
        return [
            int(((vals >= lo) & (vals <= hi)).sum()) for lo, hi in ranges
        ]

    def facet_shard(
        self, bq: BooleanQuery, stats: dict, doc_count: int, sum_ttf: int,
        field: str,
    ) -> dict:
        """Per-shard facet value counts for ``bq``'s full match set — the
        per-leaf half of distributed FastTaxonomyFacetCounts (counts are
        additive across shards, so the reduce is a dict sum)."""
        from collections import Counter

        d = self._matches(bq, stats, doc_count, sum_ttf)
        if not len(d):
            return {}
        vals = fetch_stored(self._reader, d).column(field).to_pylist()
        return dict(Counter(vals))

    def search_shard(
        self,
        bq: BooleanQuery,
        stats: dict,
        doc_count: int,
        sum_ttf: int,
        k: int,
        pruned: bool = True,
    ) -> TopDocs:
        """Top-k of this shard's segments under GLOBAL stats (the local
        searcher's ``segment_hits`` loop and ``TopDocs.merge`` reduce)."""
        scorers = build_scorers(bq, stats, doc_count, sum_ttf, BM25Similarity())
        return TopDocs.merge(
            k, segment_hits(self._reader, self._entries, bq, scorers, k, pruned)
        )


class DistributedSearcher:
    """Driver-side facade over a pool of segment-shard actors."""

    def __init__(self, index_dir: str, n_shards: int = 4, pruned: bool = True):
        from lucene_ray.index.manifest import read_manifest

        m = read_manifest(index_dir)
        if m is None:
            raise FileNotFoundError(f"no manifest.json under {index_dir}")
        # N for scoring excludes merge-reclaimed docs (reader.stats_doc_count
        # semantics — scores ignore deletes until a merge reclaims them)
        self.doc_count = m.doc_count - sum(
            getattr(e, "reclaimed", 0) for e in m.segments
        )
        self.sum_ttf = m.sum_ttf
        self.analyzer_name = m.analyzer
        self.pruned = pruned
        live = m.live_segments
        n_shards = max(1, min(n_shards, len(live)))
        shards = [[] for _ in range(n_shards)]
        for i, e in enumerate(live):  # round-robin by docid order
            shards[i % n_shards].append(e.name)
        self.actors = [
            SegmentShardActor.remote(index_dir, names) for names in shards
        ]
        self._vocab = None

    def vocabulary(self, include_fields: bool = False) -> np.ndarray:
        attr = "_vocab_fields" if include_fields else "_vocab"
        if getattr(self, attr, None) is None:
            parts = ray.get(
                [a.vocabulary_slice.remote(include_fields) for a in self.actors]
            )
            setattr(self, attr, np.unique(np.concatenate(parts)))
        return getattr(self, attr)

    def search_many(self, queries: list, k: int = DEFAULT_TOP_K) -> list[TopDocs]:
        """Batched execution: ONE stats round trip and ONE scatter for the
        whole query batch (amortizes actor round trips at high QPS)."""
        prepared = [self._prepare(q) for q in queries]
        # phase 1: union of all terms across the batch
        all_terms = sorted({t for bq in prepared if bq for t in query_terms(bq)})
        stats = self._gather_stats(all_terms)
        # phase 2: one scatter per shard carrying the whole batch
        futures = [
            a.search_shard_many.remote(
                prepared, stats, self.doc_count, self.sum_ttf, k, self.pruned
            )
            for a in self.actors
        ]
        per_shard = ray.get(futures)
        return [
            TopDocs.merge(k, [r[qi] for r in per_shard])
            for qi in range(len(prepared))
        ]

    def _gather_stats(self, terms: list) -> dict:
        """One stats round trip: per-shard partial (df, ttf) folded into the
        GLOBAL stats every shard scores against (the identical-idf/avgdl
        broadcast contract — single definition for search/search_many/count)."""
        stats = {t: (0, 0) for t in terms}
        if terms:
            for p in ray.get([a.term_stats.remote(terms) for a in self.actors]):
                for t, (df, ttf) in p.items():
                    stats[t] = (stats[t][0] + df, stats[t][1] + ttf)
        return stats

    def count(self, query) -> int:
        """Exact distributed hit count (IndexSearcher.count over shards):
        one stats gather, one scatter, sum of per-shard exact counts."""
        bq = self._prepare(query)
        if bq is None:
            return 0
        stats = self._gather_stats(query_terms(bq))
        return sum(
            ray.get(
                [
                    a.count_shard.remote(bq, stats, self.doc_count, self.sum_ttf)
                    for a in self.actors
                ]
            )
        )

    def search_sorted(
        self, query, field: str, k: int = DEFAULT_TOP_K, ascending: bool = True
    ):
        """Distributed sort-by-field (numeric doc values): per-shard top-k
        under the shared total order, one driver merge — result-identical
        to the local ``engine.search_sorted``. Returns (docids, values,
        total_hits)."""
        bq = self._prepare(query)
        if bq is None:
            return np.array([], np.int64), np.array([], np.int64), 0
        stats = self._gather_stats(query_terms(bq))
        parts = ray.get(
            [
                a.sort_shard.remote(
                    bq, stats, self.doc_count, self.sum_ttf, field, k,
                    ascending,
                )
                for a in self.actors
            ]
        )
        total = sum(n for _d, _v, n in parts)
        docs = np.concatenate([d for d, _v, _n in parts])
        vals = np.concatenate([v for _d, v, _n in parts])
        if not len(docs):
            return docs, vals, total
        key = vals if ascending else -vals
        order = np.lexsort((docs, key))[:k]
        return docs[order], vals[order], total

    def taxonomy_facet_counts(
        self, query, path_fields: tuple
    ) -> list[tuple[str, int]]:
        """Distributed hierarchical facets: per-shard prefix-rollup dicts
        summed on the driver, sorted like the local
        ``engine.taxonomy_facet_counts`` ((depth, -count, path))."""
        bq = self._prepare(query)
        if bq is None:
            return []
        stats = self._gather_stats(query_terms(bq))
        merged: dict = {}
        for part in ray.get(
            [
                a.taxonomy_facet_shard.remote(
                    bq, stats, self.doc_count, self.sum_ttf, path_fields
                )
                for a in self.actors
            ]
        ):
            for p, c in part.items():
                merged[p] = merged.get(p, 0) + c
        return sorted(
            merged.items(), key=lambda kv: (kv[0].count("/"), -kv[1], kv[0])
        )

    def range_facet_counts(
        self, query, field: str, ranges: list
    ) -> list[tuple[int, int]]:
        """Distributed numeric range facets: per-shard counts, summed on
        the driver — result-identical to the local
        ``engine.range_facet_counts`` (one small int vector per shard)."""
        bq = self._prepare(query)
        if bq is None:
            return [(i, 0) for i in range(len(ranges))]
        stats = self._gather_stats(query_terms(bq))
        parts = ray.get(
            [
                a.range_facet_shard.remote(
                    bq, stats, self.doc_count, self.sum_ttf, field, ranges
                )
                for a in self.actors
            ]
        )
        sums = [sum(p[i] for p in parts) for i in range(len(ranges))]
        return list(enumerate(sums))

    def facet_counts(self, query, field: str) -> list[tuple[str, int]]:
        """Distributed count facets: per-shard value counts under global
        stats, dict-summed on the driver — result-identical to the local
        ``engine.facet_counts`` (sorted count desc, value asc). The scatter
        moves one tiny dict per shard, never doc sets."""
        bq = self._prepare(query)
        if bq is None:
            return []
        stats = self._gather_stats(query_terms(bq))
        merged: dict[str, int] = {}
        for part in ray.get(
            [
                a.facet_shard.remote(
                    bq, stats, self.doc_count, self.sum_ttf, field
                )
                for a in self.actors
            ]
        ):
            for v, c in part.items():
                merged[v] = merged.get(v, 0) + c
        return sorted(merged.items(), key=lambda kv: (-kv[1], kv[0]))

    def _prepare(self, query) -> BooleanQuery | None:
        from lucene_ray.analysis import get_analyzer
        from lucene_ray.search.rewrite import maybe_rewrite

        bq = (
            parse_query(query, get_analyzer(self.analyzer_name))
            if isinstance(query, str)
            else query
        )

        def rewrite(q):
            if not isinstance(q, CommonTermsQuery):
                raise ValueError(
                    f"{type(q).__name__} needs an index reader to rewrite; "
                    "DistributedSearcher holds none on the driver"
                )
            # df-cutoff split against the SAME gathered global stats every
            # shard scores with (self.doc_count already excludes reclaimed)
            return q.rewrite_with(
                self._gather_stats(list(q.terms)), float(self.doc_count)
            )

        bq = rewrite_lazy(bq, rewrite)
        bq = maybe_rewrite(
            bq, self.vocabulary, lambda: self.vocabulary(include_fields=True)
        )
        if not (bq.must or bq.should):
            return None
        return bq

    def search(self, query, k: int = DEFAULT_TOP_K) -> TopDocs:
        return self.search_many([query], k)[0]

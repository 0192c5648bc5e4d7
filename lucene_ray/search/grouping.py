"""Grouped top-k search — the reference ``grouping/`` module's two-pass
shape (FirstPassGroupingCollector selects the top groups, TopGroupsCollector
collects the top docs within each; ``grouping/src/java/org/apache/lucene/
search/grouping/FirstPassGroupingCollector.java``,
``TopGroupsCollector.java``).

Divergence (documented): group selection orders by (hit count desc, group
value asc) and within-group docs by a numeric doc-values field (desc or
asc, docid tie-break) instead of the reference's default relevance sort —
both orderings are float-free, so the whole result is exactly
SQL-checkable; relevance-ordered grouping would inherit the quantized-norm
float32 scores that are deliberately engine-owned (see bm25docs module
docstring).

Collection is exhaustive over the matching doc set (as in the reference:
grouping collectors see every hit), then one stored-fields gather for the
group keys and one doc-values gather for the sort keys — O(matches) work,
no full-corpus materialization.
"""

from __future__ import annotations

import numpy as np

from lucene_ray.search.engine import fetch_doc_values, fetch_stored


class GroupDocs:
    """One group's slice of the result (grouping/GroupDocs.java shape)."""

    __slots__ = ("group_value", "group_rank", "hit_count", "docids", "values")

    def __init__(self, group_value, group_rank, hit_count, docids, values):
        self.group_value = group_value
        self.group_rank = group_rank
        self.hit_count = hit_count
        self.docids = docids
        self.values = values


def group_topk(
    searcher,
    query,
    group_field: str,
    sort_field: str,
    k_groups: int = 3,
    k_per_group: int = 2,
    ascending: bool = False,
) -> list[GroupDocs]:
    """Top ``k_groups`` groups of ``group_field`` over the docs matching
    ``query`` — groups ranked by (hit count desc, value asc), docs within a
    group by the ``sort_field`` doc value (desc unless ``ascending``),
    docid-asc tie-break, ``k_per_group`` docs each."""
    docids = searcher.matching_docs(query)
    if len(docids) == 0:
        return []
    stored = fetch_stored(searcher.reader, docids)
    groups = np.asarray(stored.column(group_field).to_pylist(), dtype=object)
    vals = fetch_doc_values(searcher.reader, docids, sort_field)
    uniq, counts = np.unique(groups, return_counts=True)
    top = np.lexsort((uniq, -counts))[:k_groups]
    out = []
    for grank, gi in enumerate(top):
        sel = np.nonzero(groups == uniq[gi])[0]
        docs, v = docids[sel], vals[sel]
        order = np.lexsort((docs, v if ascending else -v))[:k_per_group]
        out.append(
            GroupDocs(uniq[gi], grank, int(counts[gi]), docs[order], v[order])
        )
    return out


def diversified_topk(
    searcher,
    query,
    sort_field: str,
    key_field: str,
    k: int = 10,
    max_hits_per_key: int = 1,
):
    """DiversifiedTopDocsCollector (misc/search/
    DiversifiedTopDocsCollector.java): top-``k`` matching docs where each
    key (a SORTED doc-values field here, the reference's NumericDocValues
    key source) contributes at most ``max_hits_per_key`` docs.

    Ordering is by a numeric doc-values field desc with docid-asc
    tie-break instead of relevance (same float-free rationale as
    group_topk). Semantics: rank docs within each key along the GLOBAL
    order, drop those past ``max_hits_per_key``, then take the global
    top-``k`` of the survivors — the reference's greedy PQ admission
    yields the same set whenever the queue never evicts (exactly the
    collect-then-cut view; divergence documented).

    Returns (docids, values, key_terms) aligned arrays. O(matches)
    vectorized; at scale this runs per-segment (top k*max_hits_per_key
    each) and merges, like any top-k collector.
    """
    from lucene_ray.search.engine import fetch_sorted_dv_values

    docids = searcher.matching_docs(query)
    if len(docids) == 0:
        z = np.array([], dtype=np.int64)
        return z, z, np.array([], dtype=object)
    vals = fetch_doc_values(searcher.reader, docids, sort_field)
    keys = fetch_sorted_dv_values(searcher.reader, docids, key_field)
    order = np.lexsort((docids, -vals))
    docs_o, vals_o, keys_o = docids[order], vals[order], keys[order]
    # occurrence index of each row within its key, along the global order:
    # stable-sort by key preserves global order inside each key block
    by_key = np.argsort(keys_o, kind="stable")
    keys_s = keys_o[by_key]
    starts = np.concatenate(([True], keys_s[1:] != keys_s[:-1]))
    block_start = np.maximum.accumulate(np.where(starts, np.arange(len(keys_s)), 0))
    occ_sorted = np.arange(len(keys_s)) - block_start
    occ = np.empty(len(keys_o), dtype=np.int64)
    occ[by_key] = occ_sorted
    keep = np.nonzero(occ < max_hits_per_key)[0][:k]
    return docs_o[keep], vals_o[keep], keys_o[keep]


LONG_MIN = -(1 << 63)
LONG_MAX = (1 << 63) - 1


def all_group_heads(
    searcher, query, group_field: str, sort_field: str, ascending: bool = False
) -> np.ndarray:
    """AllGroupHeadsCollector (grouping/AllGroupHeadsCollector.java): the
    single most relevant doc (group head) of EVERY group among the
    matches. Head selection sorts by the ``sort_field`` doc value (desc
    unless ``ascending``) with docid-asc tie-break — the same float-free
    stance as group_topk (module docstring). Returns the heads as sorted
    global docids (the reference's retrieveGroupHeads() FixedBitSet
    order)."""
    docids = searcher.matching_docs(query)
    if len(docids) == 0:
        return np.array([], dtype=np.int64)
    stored = fetch_stored(searcher.reader, docids)
    groups = np.asarray(stored.column(group_field).to_pylist(), dtype=object)
    vals = fetch_doc_values(searcher.reader, docids, sort_field)
    order = np.lexsort((docids, vals if ascending else -vals))
    g_o = groups[order]
    # np.unique returns the FIRST index of each group value in g_o — the
    # best-ranked row per group under the order above
    _, first = np.unique(g_o, return_index=True)
    return np.sort(docids[order][first])


def distinct_values(
    searcher,
    query,
    group_field: str,
    value_field: str,
    k_groups: int = 2,
) -> list[tuple]:
    """DistinctValuesCollector (grouping/DistinctValuesCollector.java): a
    second grouping pass that records, for each of the top ``k_groups``
    groups from the first pass (hit count desc, value asc — the
    group_topk convention), the DISTINCT ``value_field`` values among that
    group's matches (the reference's per-group ValuesCollector HashSet).
    Returns (group, sorted distinct values) pairs in group-rank order."""
    docids = searcher.matching_docs(query)
    if len(docids) == 0:
        return []
    stored = fetch_stored(searcher.reader, docids)
    groups = np.asarray(stored.column(group_field).to_pylist(), dtype=object)
    vals = np.asarray(stored.column(value_field).to_pylist(), dtype=object)
    uniq, counts = np.unique(groups, return_counts=True)
    top = np.lexsort((uniq, -counts))[:k_groups]
    out = []
    for gi in top:
        sel = groups == uniq[gi]
        out.append((uniq[gi], sorted(set(vals[sel].tolist()))))
    return out


def group_facet_counts(
    searcher, query, group_field: str, facet_field: str
) -> list[tuple[str, int]]:
    """TermGroupFacetCollector (grouping/TermGroupFacetCollector.java,
    GroupedFacetHit dedup): facet counts where each GROUP contributes at
    most once per facet value — the count per facet value is the number
    of distinct groups having >=1 matching doc with it (the reference
    counts a (group, facet) ordinal pair once per segment and merges).
    Single-valued facet fields (the SV collector). Returns (facet value
    asc, group count) pairs."""
    docids = searcher.matching_docs(query)
    if len(docids) == 0:
        return []
    stored = fetch_stored(searcher.reader, docids)
    groups = np.asarray(stored.column(group_field).to_pylist(), dtype=object)
    facets = np.asarray(stored.column(facet_field).to_pylist(), dtype=object)
    pairs = {(f, g) for f, g in zip(facets.tolist(), groups.tolist())}
    from collections import Counter

    n = Counter(f for f, _ in pairs)
    return sorted(n.items())


def long_range_bucket(
    vals: np.ndarray, r_min: int, width: int, r_max: int
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized LongRangeFactory.getRange
    (grouping/LongRangeFactory.java): values below ``r_min`` fall in
    (LONG_MIN, r_min); values >= ``r_max`` in (r_max, LONG_MAX); else in
    the width-sized bucket [r_min + k*width, +width) — lower inclusive,
    upper exclusive. Returns (lo, hi) int64 arrays."""
    v = np.asarray(vals, dtype=np.int64)
    lo = r_min + ((v - r_min) // width) * width
    hi = lo + width
    below = v < r_min
    above = v >= r_max
    lo = np.where(below, LONG_MIN, np.where(above, r_max, lo))
    hi = np.where(below, r_min, np.where(above, LONG_MAX, hi))
    return lo, hi


def range_group_topk(
    searcher,
    query,
    field: str,
    r_min: int,
    width: int,
    r_max: int,
    k_groups: int = 3,
    k_per_group: int = 2,
    ascending: bool = False,
) -> list[GroupDocs]:
    """Grouped top-k with a LongRangeGroupSelector
    (grouping/LongRangeGroupSelector.java + LongRangeFactory.java): the
    group key is the LongRange bucket of the ``field`` doc value. Groups
    ranked by (hit count desc, range lo asc), docs within a group by the
    same doc value (desc unless ``ascending``), docid-asc tie-break —
    group_topk's float-free convention. group_value = (lo, hi)."""
    docids = searcher.matching_docs(query)
    if len(docids) == 0:
        return []
    vals = fetch_doc_values(searcher.reader, docids, field)
    lo, hi = long_range_bucket(vals, r_min, width, r_max)
    uniq, counts = np.unique(lo, return_counts=True)
    top = np.lexsort((uniq, -counts))[:k_groups]
    out = []
    for grank, gi in enumerate(top):
        sel = np.nonzero(lo == uniq[gi])[0]
        docs, v = docids[sel], vals[sel]
        order = np.lexsort((docs, v if ascending else -v))[:k_per_group]
        out.append(
            GroupDocs(
                (int(uniq[gi]), int(hi[sel[0]])),
                grank,
                int(counts[gi]),
                docs[order],
                v[order],
            )
        )
    return out


def block_group_topk(
    searcher,
    query,
    parent_query,
    k_groups: int = 3,
    k_per_group: int = 2,
) -> list[GroupDocs]:
    """BlockGroupingCollector (grouping/BlockGroupingCollector.java):
    hits grouped by their enclosing doc BLOCK — ``parent_query`` is the
    reference's ``lastDocPerGroup`` weight, i.e. the block's last
    (parent) doc; children precede their parent at contiguous docids
    (the addDocuments contract, same layout as ToParentBlockJoinQuery).

    Divergence (documented, same stance as group_topk): groups are
    ranked by (hit count desc, parent docid asc) instead of
    groupSort-by-top-doc, and docs within a block keep index (docid)
    order — both float-free and exactly SQL-checkable. group_value =
    the block's parent GLOBAL docid."""
    docids = searcher.matching_docs(query)
    if len(docids) == 0:
        return []
    parents = searcher.matching_docs(parent_query)
    if len(parents) == 0:
        return []
    # enclosing parent = smallest parent docid >= the child's docid
    pi = np.searchsorted(parents, docids, side="left")
    ok = pi < len(parents)  # hits after the last parent have no block
    docs = docids[ok]
    blk = parents[pi[ok]]
    # drop hits that ARE parents (a parent matching the child query is
    # its own block end, not a grouped hit — the reference collects it
    # under its block; keep that)
    uniq, counts = np.unique(blk, return_counts=True)
    top = np.lexsort((uniq, -counts))[:k_groups]
    out = []
    for grank, gi in enumerate(top):
        sel = np.nonzero(blk == uniq[gi])[0]
        d = docs[sel][:k_per_group]  # docids ascend: index order
        out.append(
            GroupDocs(int(uniq[gi]), grank, int(counts[gi]), d, d.copy())
        )
    return out


class GroupingSearch:
    """Convenience facade (grouping/GroupingSearch.java): configure group
    field / within-group sort / limits once, then ``search(searcher,
    query)``; optional allGroups and allGroupHeads side computations
    (setAllGroups/getAllMatchingGroups, setAllGroupHeads/
    getAllGroupHeads). Field grouping only (the GroupSelector overloads
    map to group_topk/range_group_topk/block_group_topk directly)."""

    def __init__(self, group_field: str):
        self.group_field = group_field
        self.sort_field = "n_chars"
        self.ascending = False
        self.group_limit = 3
        self.group_docs_limit = 2
        self.all_groups = False
        self.all_group_heads = False
        self._matching_groups: list | None = None
        self._group_heads: np.ndarray | None = None

    def set_sort_within_group(self, field: str, ascending: bool = False):
        self.sort_field = field
        self.ascending = ascending
        return self

    def set_group_docs_limit(self, n: int):
        self.group_docs_limit = n
        return self

    def set_all_groups(self, v: bool = True):
        self.all_groups = v
        return self

    def set_all_group_heads(self, v: bool = True):
        self.all_group_heads = v
        return self

    def search(self, searcher, query, group_limit: int | None = None):
        from lucene_ray.search.engine import all_groups as _all_groups

        k = group_limit if group_limit is not None else self.group_limit
        res = group_topk(
            searcher,
            query,
            self.group_field,
            self.sort_field,
            k,
            self.group_docs_limit,
            self.ascending,
        )
        if self.all_groups:
            self._matching_groups = _all_groups(
                searcher, query, self.group_field
            )
        if self.all_group_heads:
            self._group_heads = all_group_heads(
                searcher, query, self.group_field, self.sort_field,
                self.ascending,
            )
        return res

    def get_all_matching_groups(self) -> list:
        if self._matching_groups is None:
            raise RuntimeError("setAllGroups was not enabled before search")
        return self._matching_groups

    def get_all_group_heads(self) -> np.ndarray:
        if self._group_heads is None:
            raise RuntimeError(
                "setAllGroupHeads was not enabled before search"
            )
        return self._group_heads

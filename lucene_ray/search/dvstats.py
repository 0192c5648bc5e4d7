"""Doc-values stats collectors (misc/search/DocValuesStats.java +
DocValuesStatsCollector.java): aggregate statistics of a doc-values field
over the documents matching a query.

Divergences from the reference, chosen for exact DuckDB-oracle parity:

- the reference accumulates ``mean``/``variance`` incrementally (Welford,
  DocValuesStats.java:167-169) in doubles; we expose the EXACT integer
  moments instead — ``vsum`` and ``varnum = count*sum(v^2) - sum(v)^2``
  (the population-variance numerator times count^2, all integer) — plus
  ``mean`` as one float64 division of exact integers, which DuckDB
  reproduces bit-for-bit (``sum(v)::DOUBLE / count(*)``).
- our NUMERIC doc-values sidecar is dense (every doc has a value), so
  ``missing`` (DocValuesStats.java:31) is always 0 and omitted.
"""

from __future__ import annotations

from lucene_ray.search.engine import (
    IndexSearcher,
    fetch_doc_values,
    fetch_sorted_dv_values,
)

__all__ = ["numeric_dv_stats", "sorted_dv_stats"]


def numeric_dv_stats(searcher: IndexSearcher, query, field: str) -> dict | None:
    """LongDocValuesStats (DocValuesStats.java:148) over the docs matching
    ``query``: count / min / max / exact sum / exact variance numerator /
    float64 mean. Returns None when no doc matches (the reference leaves
    min/max null at count 0)."""
    docids = searcher.matching_docs(query)
    if len(docids) == 0:
        return None
    vals = fetch_doc_values(searcher.reader, docids, field)
    pyvals = [int(v) for v in vals]  # exact integer moments (no int64 overflow)
    count = len(pyvals)
    vsum = sum(pyvals)
    sumsq = sum(v * v for v in pyvals)
    return {
        "count": count,
        "vmin": min(pyvals),
        "vmax": max(pyvals),
        "vsum": vsum,
        "varnum": count * sumsq - vsum * vsum,
        "mean": float(vsum) / count,
    }


def sorted_dv_stats(searcher: IndexSearcher, query, field: str) -> dict | None:
    """SortedDocValuesStats (DocValuesStats.java SortedDocValuesStats
    subclass): lexicographic min/max TERM of a SORTED doc-values field over
    the matching docs. Returns None when no doc matches."""
    docids = searcher.matching_docs(query)
    if len(docids) == 0:
        return None
    terms = fetch_sorted_dv_values(searcher.reader, docids, field)
    svals = [str(t) for t in terms]
    return {"count": len(svals), "tmin": min(svals), "tmax": max(svals)}

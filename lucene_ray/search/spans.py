"""Span query family — composable position-span algebra.

Spec (reference, behavior only):
- ``queries/src/java/org/apache/lucene/queries/spans/SpanTermQuery.java``
  — a term's spans are its positions, each of width 1.
- ``SpanOrQuery.java:36`` — union of sub-clauses' spans, merged in
  (doc, start, end) order.
- ``SpanNotQuery.java`` — spans of ``include`` that do NOT overlap any
  ``exclude`` span, with the overlap window widened by ``pre`` positions
  before and ``post`` after the include span.
- ``SpanFirstQuery.java`` — spans of ``match`` that END at or before
  position ``end`` (SpanPositionRangeQuery with start 0; the filter is
  ``span.end <= end``).
- ``SpanNearQuery.java`` + NearSpansOrdered/Unordered — generalized here
  to SPAN sub-clauses (not just single terms): ordered requires
  s_1 ... s_k with ``s_i.start >= s_{i-1}.end`` and total gap
  ``s_k.end - s_1.start - sum(len_i) <= slop``; unordered requires one
  span per clause inside a covering window with
  ``max_end - min_start - sum(len_i) <= slop``.
- ``SpanMultiTermQueryWrapper.java`` — a multi-term query's spans are the
  OR of every matching term's spans.

Representation: a span set is three parallel int64 numpy arrays
``(docs, starts, ends)`` sorted by (doc, start, end) — half-open
[start, end) token positions. All set operations are array-level; only
the per-doc near/not joins iterate candidate docs (same stance as the
existing _span_near_postings / intervals code: candidate doc sets are
post-intersection small).

Scoring: like SpanNearQuery — doc freq = number of surviving spans
(engine-defined; the reference's sloppyFreq weighting is not ported,
documented in query.py), doc SETS match the reference.
"""

from __future__ import annotations

import numpy as np

Spans = tuple[np.ndarray, np.ndarray, np.ndarray]

_EMPTY = (
    np.array([], dtype=np.int64),
    np.array([], dtype=np.int64),
    np.array([], dtype=np.int64),
)


def _sort_spans(docs: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> Spans:
    order = np.lexsort((ends, starts, docs))
    return docs[order], starts[order], ends[order]


def term_spans(reader, term: str) -> Spans:
    """SpanTermQuery: one width-1 span per position."""
    p = reader.postings(term)
    if p is None:
        return _EMPTY
    if p._ttf > 0 and len(p._pos_blob) == 0:
        raise ValueError(
            "span query on an index built without positions "
            "(index_options='freqs'); rebuild with 'positions'"
        )
    d_rep, pos = p.flat_positions()
    pos = pos.astype(np.int64)
    return d_rep.astype(np.int64), pos, pos + 1


def or_spans(parts: list[Spans]) -> Spans:
    """SpanOrQuery.java:36: merged union (duplicates kept — two clauses
    producing the same span both contribute, like the reference's
    disjunction spans; freq counts them once per span occurrence)."""
    parts = [p for p in parts if len(p[0])]
    if not parts:
        return _EMPTY
    docs = np.concatenate([p[0] for p in parts])
    starts = np.concatenate([p[1] for p in parts])
    ends = np.concatenate([p[2] for p in parts])
    return _sort_spans(docs, starts, ends)


def first_spans(spans: Spans, end: int) -> Spans:
    """SpanFirstQuery.java: keep spans ending at or before ``end``."""
    docs, starts, ends = spans
    m = ends <= end
    return docs[m], starts[m], ends[m]


def position_range_spans(spans: Spans, start: int, end: int) -> Spans:
    """SpanPositionRangeQuery.java: keep spans lying entirely inside the
    [start, end] acceptPosition window (span.start >= start AND
    span.end <= end; SpanFirstQuery is the start=0 case)."""
    docs, starts, ends = spans
    m = (starts >= start) & (ends <= end)
    return docs[m], starts[m], ends[m]


def not_spans(include: Spans, exclude: Spans, pre: int = 0, post: int = 0) -> Spans:
    """SpanNotQuery.java: include spans whose widened window
    [start - pre, end + post) overlaps NO exclude span in the same doc."""
    docs, starts, ends = include
    if not len(docs) or not len(exclude[0]):
        return include
    xd, xs, xe = exclude
    keep = np.ones(len(docs), dtype=bool)
    # per candidate doc: overlap test include-window vs exclude spans
    for doc in np.intersect1d(np.unique(docs), np.unique(xd)):
        i_lo, i_hi = np.searchsorted(docs, [doc, doc + 1])
        x_lo, x_hi = np.searchsorted(xd, [doc, doc + 1])
        ws = starts[i_lo:i_hi] - pre
        we = ends[i_lo:i_hi] + post
        exs, exe = xs[x_lo:x_hi], xe[x_lo:x_hi]
        # overlap iff exists j: exs[j] < we AND exe[j] > ws.  With exclude
        # spans sorted by start, check: any exclude starting before we that
        # ends after ws — prefix-max of ends over exs < we.
        pref_max_end = np.maximum.accumulate(exe)
        j = np.searchsorted(exs, we, side="left")  # count of exs < we
        hit = (j > 0) & (pref_max_end[np.maximum(j - 1, 0)] > ws)
        keep[i_lo:i_hi] &= ~hit
    return docs[keep], starts[keep], ends[keep]


def containing_spans(big: Spans, little: Spans, invert: bool = False) -> Spans:
    """SpanContainingQuery.java: spans of ``big`` that contain a span of
    ``little`` (big.start <= little.start and little.end <= big.end).
    ``invert=True`` gives SpanWithinQuery.java — spans of ``little``
    inside a span of ``big`` (swap roles, return the little spans)."""
    if invert:
        outer, inner = little, big
        # within: keep OUTER spans contained in an INNER span
        docs, starts, ends = outer
        od, os_, oe = inner
        keep = np.zeros(len(docs), dtype=bool)
        for doc in np.intersect1d(np.unique(docs), np.unique(od)):
            a_lo, a_hi = np.searchsorted(docs, [doc, doc + 1])
            b_lo, b_hi = np.searchsorted(od, [doc, doc + 1])
            bs, be = os_[b_lo:b_hi], oe[b_lo:b_hi]
            for i in range(a_lo, a_hi):
                if np.any((bs <= starts[i]) & (ends[i] <= be)):
                    keep[i] = True
        return docs[keep], starts[keep], ends[keep]
    docs, starts, ends = big
    ld, ls, le = little
    keep = np.zeros(len(docs), dtype=bool)
    for doc in np.intersect1d(np.unique(docs), np.unique(ld)):
        a_lo, a_hi = np.searchsorted(docs, [doc, doc + 1])
        b_lo, b_hi = np.searchsorted(ld, [doc, doc + 1])
        bs, be = ls[b_lo:b_hi], le[b_lo:b_hi]
        for i in range(a_lo, a_hi):
            if np.any((starts[i] <= bs) & (be <= ends[i])):
                keep[i] = True
    return docs[keep], starts[keep], ends[keep]


def near_spans(parts: list[Spans], slop: int, ordered: bool) -> Spans:
    """Generalized SpanNear over span sub-clauses.

    ordered: greedy minimal chain per leading span — from each span of
    clause 0 (ascending, non-overlapping with the previous match) take
    the first span of clause i starting at or after the previous clause's
    end; emit when total gap <= slop (NearSpansOrdered's stretch-to-match
    argument: the greedy chain minimizes the end, so it finds a valid
    chain iff one exists).
    unordered: covering-window sweep — one span per clause, window
    max_end - min_start - sum(len) <= slop (NearSpansUnordered)."""
    k = len(parts)
    if k == 0 or any(len(p[0]) == 0 for p in parts):
        return _EMPTY
    cand = parts[0][0]
    for p in parts[1:]:
        cand = np.intersect1d(cand, np.unique(p[0]))
        if not len(cand):
            return _EMPTY
    cand = np.unique(cand)
    out_d, out_s, out_e = [], [], []
    for doc in cand:
        per = []
        for pd, ps, pe in parts:
            lo, hi = np.searchsorted(pd, [doc, doc + 1])
            per.append((ps[lo:hi], pe[lo:hi]))
        if ordered:
            prev_end = 0
            for idx0 in range(len(per[0][0])):
                s0 = int(per[0][0][idx0])
                e0 = int(per[0][1][idx0])
                if s0 < prev_end:
                    continue  # greedy non-overlap (freq = match count,
                    # same criterion as _span_near_postings: the next
                    # match starts at or after the previous match's end)
                p_end = e0
                total_len = e0 - s0
                ok = True
                for i in range(1, k):
                    ss, ee = per[i]
                    j = int(np.searchsorted(ss, p_end, side="left"))
                    if j == len(ss):
                        ok = False
                        break
                    total_len += int(ee[j]) - int(ss[j])
                    p_end = int(ee[j])
                if ok and (p_end - s0 - total_len) <= slop:
                    out_d.append(int(doc))
                    out_s.append(s0)
                    out_e.append(p_end)
                    prev_end = p_end
        else:
            # covering window over all spans tagged by clause: sweep by
            # start; for each leading clause occurrence find the smallest
            # window holding one span of every clause
            tag = np.concatenate(
                [np.full(len(per[i][0]), i, dtype=np.int64) for i in range(k)]
            )
            ss = np.concatenate([per[i][0] for i in range(k)])
            ee = np.concatenate([per[i][1] for i in range(k)])
            lens = ee - ss
            order = np.lexsort((ee, ss))
            tag, ss, ee, lens = tag[order], ss[order], ee[order], lens[order]
            n = len(ss)
            found: list[tuple[int, int]] = []
            for a in range(n):
                have = np.zeros(k, dtype=bool)
                tot = 0
                max_end = 0
                got = 0
                for b in range(a, n):
                    if not have[tag[b]]:
                        have[tag[b]] = True
                        got += 1
                        tot += int(lens[b])
                        max_end = max(max_end, int(ee[b]))
                        if got == k:
                            break
                if got == k and (max_end - int(ss[a]) - tot) <= slop:
                    found.append((int(ss[a]), max_end))
            # dedupe + greedy non-overlapping count for freq
            found.sort()
            last_end = -1
            for s, e in found:
                if s >= last_end:
                    out_d.append(int(doc))
                    out_s.append(s)
                    out_e.append(e)
                    last_end = e
    if not out_d:
        return _EMPTY
    return (
        np.array(out_d, dtype=np.int64),
        np.array(out_s, dtype=np.int64),
        np.array(out_e, dtype=np.int64),
    )


def span_field(q) -> str:
    """Effective field of a span source (the reference's
    SpanQuery.getField()); the default analyzed content field reports as
    "content". Composites require ONE field across all clauses —
    SpanNearQuery.java:141 / SpanOrQuery.java:51 throw "Clauses must have
    same field" — and FieldMaskingSpanQuery re-labels its inner query's
    field to make cross-field joins legal."""
    from lucene_ray.search.query import (
        FieldMaskingSpanQuery,
        SpanContainingQuery,
        SpanFirstQuery,
        SpanMultiTermWrapper,
        SpanNearQuery,
        SpanNotQuery,
        SpanOrQuery,
        SpanPositionRangeQuery,
        SpanTermQuery,
        SpanWithinQuery,
    )

    def same(clauses) -> str:
        fields = {span_field(c) for c in clauses}
        if len(fields) > 1:
            raise ValueError(
                f"Clauses must have same field: got {sorted(fields)} "
                "(wrap clauses in FieldMaskingSpanQuery to join across "
                "position-aligned parallel fields)"
            )
        return next(iter(fields))

    if isinstance(q, str):
        return "content"
    if isinstance(q, SpanTermQuery):
        return q.field or "content"
    if isinstance(q, FieldMaskingSpanQuery):
        span_field(q.query)  # inner tree must still be self-consistent
        return q.field
    if isinstance(q, SpanOrQuery):
        return same(q.clauses)
    if isinstance(q, SpanNotQuery):
        return same((q.include, q.exclude))
    if isinstance(q, (SpanFirstQuery, SpanPositionRangeQuery)):
        return span_field(q.match)
    if isinstance(q, SpanNearQuery):
        return same(q.terms)
    if isinstance(q, (SpanContainingQuery, SpanWithinQuery)):
        return same((q.big, q.little))
    if isinstance(q, SpanMultiTermWrapper):
        return "content"
    raise TypeError(f"not a span source: {type(q).__name__}")


def eval_spans(reader, q, _validated: bool = False) -> Spans:
    """Recursive span-source evaluation. Accepts SpanTermQuery / bare str
    / SpanOrQuery / SpanNotQuery / SpanFirstQuery / SpanNearQuery /
    SpanContainingQuery / SpanWithinQuery / SpanMultiTermWrapper /
    FieldMaskingSpanQuery. Validates field consistency once at the root
    (span_field raises on mixed-field composites)."""
    from lucene_ray.search.query import (
        FieldMaskingSpanQuery,
        SpanContainingQuery,
        SpanFirstQuery,
        SpanMultiTermWrapper,
        SpanNearQuery,
        SpanNotQuery,
        SpanOrQuery,
        SpanPositionRangeQuery,
        SpanTermQuery,
        SpanWithinQuery,
    )

    if not _validated:
        span_field(q)

    def ev(c):
        return eval_spans(reader, c, _validated=True)

    if isinstance(q, str):
        return term_spans(reader, q)
    if isinstance(q, SpanTermQuery):
        return term_spans(reader, q.lookup_term)
    if isinstance(q, FieldMaskingSpanQuery):
        # pass-through: spans come from the inner query's own field; only
        # the mask's field label changed (FieldMaskingSpanQuery.java:36)
        return ev(q.query)
    if isinstance(q, SpanOrQuery):
        return or_spans([ev(c) for c in q.clauses])
    if isinstance(q, SpanNotQuery):
        return not_spans(ev(q.include), ev(q.exclude), q.pre, q.post)
    if isinstance(q, SpanFirstQuery):
        return first_spans(ev(q.match), q.end)
    if isinstance(q, SpanPositionRangeQuery):
        return position_range_spans(ev(q.match), q.start, q.end)
    if isinstance(q, SpanNearQuery):
        return near_spans([ev(c) for c in q.terms], q.slop, q.ordered)
    if isinstance(q, SpanContainingQuery):
        return containing_spans(ev(q.big), ev(q.little))
    if isinstance(q, SpanWithinQuery):
        return containing_spans(ev(q.big), ev(q.little), invert=True)
    if isinstance(q, SpanMultiTermWrapper):
        from lucene_ray.search.rewrite import rewrite_span

        # SpanMultiTermQueryWrapper.java: OR of the segment's matching terms
        return ev(rewrite_span(q, reader._terms_split(False)))
    raise TypeError(f"not a span source: {type(q).__name__}")


def span_postings(reader, q) -> tuple[np.ndarray, np.ndarray]:
    """(docids, freqs) for a span source: freq = surviving span count per
    doc (engine-defined, the SpanNearQuery stance)."""
    docs, _s, _e = eval_spans(reader, q)
    if not len(docs):
        return np.array([], dtype=np.int64), np.array([], dtype=np.int64)
    uniq, counts = np.unique(docs, return_counts=True)
    return uniq, counts.astype(np.int64)

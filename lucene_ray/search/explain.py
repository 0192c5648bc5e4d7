"""Score explanations (search/Explanation.java + the per-query Weight
``explain`` chain: BooleanWeight.explain, TermQuery.TermWeight.explain,
similarities/BM25Similarity.explain at BM25Similarity.java:214-258).

The tree mirrors the reference's shape — a "sum of:" root over per-clause
"weight(...)" nodes, each with boost / idf / tf sub-details — and its values
are INTERNALLY consistent with search(): the root value is computed by the
same canonical-order float32 summation the scorers use, so
``explain(q, d).value == search(q).scores`` bit-for-bit for any hit.

Non-matches explain why (missing required clause, MUST_NOT exclusion,
minimumShouldMatch shortfall, deleted doc) with ``is_match = False``,
matching BooleanWeight.explain's failure messages.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from lucene_ray.search.query import (
    BooleanQuery,
    PhraseQuery,
    SpanNearQuery,
    SynonymQuery,
    TermQuery,
)
from lucene_ray.search.scorer import FREQ, TERM, _canonical_scores, build_clauses
from lucene_ray.util.smallfloat import byte4_to_int


@dataclass(frozen=True)
class Explanation:
    """search/Explanation.java: (value, description, nested details)."""

    value: float
    description: str
    details: tuple = field(default_factory=tuple)
    is_match: bool = True

    def __str__(self) -> str:
        return "\n".join(self._lines(0))

    def _lines(self, depth: int) -> list:
        out = [f"{'  ' * depth}{self.value} = {self.description}"]
        for d in self.details:
            out.extend(d._lines(depth + 1))
        return out


def _no_match(description: str) -> Explanation:
    return Explanation(0.0, description, (), False)


def _bm25_leaf(q, clause, value, tf, norm_byte, searcher) -> Explanation:
    """BM25Similarity.explain detail shape (BM25Similarity.java:214-258):
    boost * idf * tf, with dl reported from the decoded norm byte (the
    reference's 'length of field (approximate)'). Only valid for BM25-shaped
    similarities (k1/b/avgdl); other plugs get a generic leaf."""
    sim = searcher.sim
    doc_count = searcher.reader.stats_doc_count
    sum_ttf = searcher.reader.sum_ttf
    avgdl = float(sim.avgdl(sum_ttf, doc_count))
    dl = float(byte4_to_int(int(norm_byte)))
    if isinstance(q, TermQuery):
        stats = searcher.reader.global_term_stats([q.term])
        df = int(stats[q.term][0])
        idf = float(sim.idf(df, doc_count))
        idf_detail = Explanation(
            idf,
            f"idf, computed as log(1 + (N - n + 0.5) / (n + 0.5)) from "
            f"n={df} (docFreq), N={doc_count} (docCount)",
        )
        label = f"weight(content:{q.term} in doc), result of boost * idf * tf:"
    else:
        terms = getattr(q, "terms", ())
        idf = float(clause.scorer.weight) / float(getattr(q, "boost", 1.0) or 1.0)
        idf_detail = Explanation(
            idf, f"idf, sum of per-term idf over {list(terms)}"
        )
        label = f"weight({type(q).__name__}{list(terms)} in doc), result of boost * idf * tf:"
    k1, b = float(sim.k1), float(sim.b)
    denom = float(tf) + k1 * (1 - b + b * dl / avgdl)
    tf_detail = Explanation(
        float(tf) / denom if denom else 0.0,
        f"tf, computed as freq / (freq + k1 * (1 - b + b * dl / avgdl)) from "
        f"freq={float(tf)}, k1={k1}, b={b}, dl={dl} (length of field, "
        f"approximate from the norm byte), avgdl={round(avgdl, 3)}",
    )
    boost = float(getattr(q, "boost", 1.0) or 1.0)
    return Explanation(
        float(value),
        label,
        (Explanation(boost, "boost"), idf_detail, tf_detail),
    )


def explain(searcher, query, docid: int) -> Explanation:
    """Why ``docid`` does (or does not) match ``query``, and its exact score
    (IndexSearcher.explain, search/IndexSearcher.java:747)."""
    bq = searcher.prepare(query)
    if not (bq.must or bq.should):
        return _no_match("query matches no documents (no positive clauses)")

    entry = None
    for e in searcher.reader.segments:
        if e.docid_base <= docid < e.docid_base + e.doc_count:
            entry = e
            break
    if entry is None:
        return _no_match(f"docid {docid} outside index bounds")
    sr = searcher.reader.segment_reader(entry.name)
    local = int(docid - entry.docid_base)

    if sr.live_mask is not None and not sr.live_mask[local]:
        return _no_match("document is deleted (live docs bitmap)")

    scorers = searcher._scorers(bq)
    cand1 = np.array([local], dtype=np.int64)

    # build per QUERY (a segment may lack some clauses; building one query
    # at a time keeps the (query, clause) pairing aligned)
    def build_one(q):
        cs = build_clauses(sr, [q], scorers)
        return cs[0] if cs else None

    must_pairs = [(q, build_one(q)) for q in bq.must]
    for q, c in must_pairs:
        if c is None:
            return _no_match(
                f"required clause has no matches in this segment ({q})"
            )
        if c.lookup(cand1)[0] <= 0:
            return _no_match(f"failure to match required clause ({q})")
    for q in bq.must_not:
        c = build_one(q)
        if c is not None and c.lookup(cand1)[0] > 0:
            return _no_match(f"match on prohibited clause ({q})")

    should_pairs = [(q, build_one(q)) for q in bq.should]
    should_pairs = [(q, c) for q, c in should_pairs if c is not None]
    should_matches = sum(int(c.lookup(cand1)[0] > 0) for _q, c in should_pairs)
    msm = bq.min_should_match if bq.must else max(1, bq.min_should_match)
    if bq.should and should_matches < msm:
        return _no_match(
            f"failure to meet condition of minimumShouldMatch: {msm} "
            f"(matched {should_matches} optional clauses)"
        )
    if not must_pairs and not should_pairs:
        return _no_match("no optional clauses present")

    pairs = must_pairs + should_pairs
    scoring = [c for _q, c in pairs]
    total = _canonical_scores(scoring, cand1, sr.norm_bytes)
    norm_byte = int(sr.norm_bytes[local])
    sim = searcher.sim
    bm25_shaped = all(hasattr(sim, a) for a in ("k1", "b", "avgdl"))
    details = []
    for q, c in pairs:
        contrib, matched = c.contrib(cand1, sr.norm_bytes)
        if not matched[0]:
            continue
        has_tf = c.kind in (TERM, FREQ)
        tf = c.lookup(cand1)[0] if has_tf else 0
        if (
            bm25_shaped
            and isinstance(q, (TermQuery, PhraseQuery, SynonymQuery, SpanNearQuery))
            and has_tf
        ):
            details.append(_bm25_leaf(q, c, contrib[0], tf, norm_byte, searcher))
        else:
            details.append(
                Explanation(
                    float(contrib[0]),
                    f"{type(q).__name__} clause contribution "
                    f"[{type(sim).__name__}]",
                )
            )
    return Explanation(float(total[0]), "sum of:", tuple(details))

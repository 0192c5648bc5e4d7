"""MemoryIndex (memory/src/java/org/apache/lucene/index/memory/
MemoryIndex.java): a single-document, heap-only inverted index — add
fields, then score queries against that one document without touching any
segment. The reference's primary uses (percolation, one-off document
scoring, query debugging) carry over; the engine's batch percolator
(search/monitor.py) remains the high-throughput path, MemoryIndex is the
single-doc API twin.

search(query) returns 0.0 on no match and a positive BM25 score on match
(the reference returns the similarity score, MemoryIndex.java:454). The
single-doc collection stats follow the reference exactly: N = 1 and
df = 1 for every present term, avgdl = this doc's own length — so idf and
length norm are constants and the score reduces to the BM25 tf saturation
term times idf. Scores are float64 here (no quantized norms: the
reference's MemoryIndex also reads exact lengths, not SmallFloat bytes).
"""

from __future__ import annotations

import math

from lucene_ray.search.query import (
    BooleanQuery,
    FuzzyQuery,
    MatchAllDocsQuery,
    MultiPhraseQuery,
    NestedBooleanQuery,
    PhraseQuery,
    PrefixQuery,
    RegexpQuery,
    TermInSetQuery,
    TermQuery,
    TermRangeQuery,
    WildcardQuery,
    parse_query,
)
from lucene_ray.search.rewrite import expand_fuzzy


def _phrase_match_count(pos_lists, slop: int) -> int:
    """Number of phrase matches in one doc (the MemoryIndex analog of the
    reference's phrase frequency — memory/MemoryIndexReader scores with
    the real match count, not match/no-match). Exact (slop=0): count of
    first-term positions starting a consecutive run. Sloppy: count of
    first-term positions participating in at least one alignment whose
    adjusted-position span <= slop (divergence, documented: the reference's
    SloppyPhraseMatcher weights each match 1/(1+matchLength); we count
    matches unweighted — tf ordering per doc is preserved). (ADVICE r4)"""
    import numpy as np

    if slop == 0:
        base = pos_lists[0]
        hit = np.ones(len(base), dtype=bool)
        for j, pl in enumerate(pos_lists[1:], start=1):
            hit &= np.isin(base + j, pl)
            if not hit.any():
                return 0
        return int(hit.sum())
    from itertools import product

    small = [pl.tolist() for pl in pos_lists]
    anchors = set()
    for combo in product(*small):
        adj = [p - i for i, p in enumerate(combo)]
        if max(adj) - min(adj) <= slop:
            anchors.add(combo[0])
    return len(anchors)

_K1 = 1.2
_B = 0.75


class MemoryIndex:
    """addField / search over ONE document."""

    def __init__(self, analyzer=None):
        from lucene_ray.analysis import get_analyzer

        self.analyzer = analyzer or get_analyzer("code")
        self._positions: dict[str, list[int]] = {}  # term -> positions
        self._doc_len = 0

    # ------------------------------------------------------------ indexing
    def add_field(self, name: str, text: str, keyword: bool = False) -> None:
        """Analyze ``text`` into the doc. The default 'content' field
        indexes bare terms; other analyzed fields scope tokens as
        'field:token' and keyword fields store the single exact
        'field:value' term — the engine's shared-term-dict convention, so
        any engine query object evaluates unchanged."""
        if keyword:
            self._positions.setdefault(f"{name}:{text}", []).append(self._doc_len)
            return
        toks = self.analyzer.tokenize_text(text)
        prefix = "" if name == "content" else f"{name}:"
        for i, t in enumerate(toks):
            self._positions.setdefault(prefix + t, []).append(self._doc_len + i)
        self._doc_len += len(toks)

    # ----------------------------------------------------------- searching
    def search(self, query) -> float:
        """Score of ``query`` against the single doc; 0.0 if it does not
        match. Strings parse through the classic parser."""
        if isinstance(query, str):
            query = parse_query(query, self.analyzer)
        if not isinstance(query, BooleanQuery):
            query = BooleanQuery(should=[query])
        ok, score = self._eval_boolean(query)
        return score if ok else 0.0

    # ------------------------------------------------------- query walking
    def _eval_boolean(self, bq) -> tuple[bool, float]:
        must = list(getattr(bq, "must", ()) or ())
        should = list(getattr(bq, "should", ()) or ())
        must_not = list(getattr(bq, "must_not", ()) or ())
        msm = int(getattr(bq, "min_should_match", 0) or 0)
        if not must and not should:
            return False, 0.0  # pure-negative matches nothing (engine guard)
        for q in must_not:
            ok, _s = self._eval_clause(q)
            if ok:
                return False, 0.0
        score = 0.0
        for q in must:
            ok, s = self._eval_clause(q)
            if not ok:
                return False, 0.0
            score += s
        matched_should = 0
        for q in should:
            ok, s = self._eval_clause(q)
            if ok:
                matched_should += 1
                score += s
        # with MUST clauses, SHOULD is optional unless minimumShouldMatch
        # raises the bar; without MUST, at least max(1, msm) must match
        need = msm if must else max(1, msm)
        if matched_should < need:
            return False, 0.0
        return True, score * float(getattr(bq, "boost", 1.0))

    def _eval_clause(self, q) -> tuple[bool, float]:
        if isinstance(q, TermQuery):
            pos = self._positions.get(q.term)
            if not pos:
                return False, 0.0
            return True, self._bm25(len(pos)) * q.boost
        if isinstance(q, PhraseQuery):
            return self._phrase(q.terms, q.slop, q.boost)
        if isinstance(q, MultiPhraseQuery):
            # any per-slot alternative at each consecutive position
            import itertools

            for combo in itertools.product(*q.slots):
                ok, s = self._phrase(combo, 0, q.boost)
                if ok:
                    return True, s
            return False, 0.0
        if isinstance(q, (NestedBooleanQuery, BooleanQuery)):
            inner = q.to_boolean() if isinstance(q, NestedBooleanQuery) else q
            return self._eval_boolean(inner)
        if isinstance(q, MatchAllDocsQuery):
            return True, float(q.boost)
        # multi-term families resolve against the doc's own term dict
        expand = None
        if isinstance(q, PrefixQuery):
            expand = lambda t: t.startswith(q.prefix)
        elif isinstance(q, WildcardQuery):
            from lucene_ray.search.rewrite import wildcard_regex

            rx = wildcard_regex(q.pattern)  # == rewrite.expand_wildcard
            expand = lambda t: rx.match(t) is not None
        elif isinstance(q, RegexpQuery):
            from lucene_ray.search.regexp import regexp_dfa

            dfa = regexp_dfa(q.pattern)  # == rewrite.expand_regexp
            expand = lambda t: dfa.accepts(t)
        elif isinstance(q, FuzzyQuery):
            import numpy as np

            terms = np.asarray(sorted(self._positions), dtype=object)
            hits = set(expand_fuzzy(terms, q))
            expand = lambda t: t in hits
        elif isinstance(q, TermRangeQuery):
            def expand(t, q=q):
                lo_ok = (
                    q.lower is None
                    or (t >= q.lower if q.include_lower else t > q.lower)
                )
                hi_ok = (
                    q.upper is None
                    or (t <= q.upper if q.include_upper else t < q.upper)
                )
                return lo_ok and hi_ok
        elif isinstance(q, TermInSetQuery):
            want = set(q.terms)
            expand = lambda t: t in want
        if expand is not None:
            tf = sum(
                len(p) for t, p in self._positions.items() if expand(t)
            )
            if tf == 0:
                return False, 0.0
            # constant-score rewrite, as multi-term queries score in Lucene
            return True, float(getattr(q, "boost", 1.0))
        raise TypeError(f"MemoryIndex cannot evaluate {type(q).__name__}")

    def _phrase(self, terms, slop: int, boost: float) -> tuple[bool, float]:
        import numpy as np

        pos_lists = []
        for t in terms:
            p = self._positions.get(t)
            if not p:
                return False, 0.0
            pos_lists.append(np.asarray(p, dtype=np.int64))
        tf = _phrase_match_count(pos_lists, slop)
        if tf == 0:
            return False, 0.0
        return True, self._bm25(tf) * boost

    def _bm25(self, tf: int) -> float:
        """BM25 with the single-doc stats: N=1, df=1 -> idf = ln(1 + 0.5/1.5);
        dl == avgdl -> length norm 1."""
        idf = math.log(1.0 + 0.5 / 1.5)
        return idf * (tf * (_K1 + 1.0)) / (tf + _K1)

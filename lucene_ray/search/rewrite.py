"""Multi-term query rewrite against the index vocabulary.

The reference intersects compiled automata with the FST term dictionary
(search/AutomatonQuery.java, codecs/.../Lucene90BlockTreeTermsReader); here
the per-index vocabulary (union of the sorted per-segment term columns) is
scanned with vectorized numpy/regex predicates — the vocabulary is orders of
magnitude smaller than the postings, so this stays cheap even at scale, and
prefix/range expansion is a binary-search slice, not a scan.

Rewrite mode = SCORING_BOOLEAN_REWRITE (OR of TermQuerys, each scored
normally with the multi-term query's boost), matching
search/MultiTermQuery.java's SCORING_BOOLEAN_REWRITE option. Expansions are
capped at ``max_expansions`` (BooleanQuery.maxClauseCount spirit,
search/IndexSearcher.java default 1024).
"""

from __future__ import annotations

import dataclasses
import re

import numpy as np

from lucene_ray.search.query import (
    BooleanQuery,
    DisjunctionSumQuery,
    FuzzyQuery,
    MultiPhraseQuery,
    NestedBooleanQuery,
    PhraseWildcardQuery,
    PrefixQuery,
    SpanContainingQuery,
    SpanFirstQuery,
    SpanMultiTermWrapper,
    SpanNearQuery,
    SpanNotQuery,
    SpanOrQuery,
    SpanPositionRangeQuery,
    SpanTermQuery,
    SpanWithinQuery,
    ToParentBlockJoinQuery,
    RegexpQuery,
    TermInSetQuery,
    TermQuery,
    TermRangeQuery,
    WildcardQuery,
    _has_unescaped,
    iter_clauses,
)
from lucene_ray.search.suggest import _prefix_window

MAX_EXPANSIONS = 1024

MULTI_TERM_TYPES = (
    PrefixQuery, WildcardQuery, TermRangeQuery, FuzzyQuery,
    RegexpQuery, TermInSetQuery,
)


def maybe_rewrite(bq: BooleanQuery, vocab, field_vocab=None) -> BooleanQuery:
    """Rewrite iff any clause — INCLUDING nested group members — is a
    multi-term query (or a span tree holding a SpanMultiTermWrapper).
    ``vocab`` may be a lazy callable so the vocabulary is only materialized
    when a rewrite actually happens. The single shared entry point for
    IndexSearcher and DistributedSearcher (drift here silently drops
    un-rewritten multi-term clauses in build_clauses)."""
    if any(
        isinstance(q, MULTI_TERM_TYPES + (PhraseWildcardQuery,))
        or _span_has_wrapper(q)
        for q in iter_clauses(bq)
    ):
        v = vocab() if callable(vocab) else vocab
        return rewrite_query(bq, v, field_vocab)
    return bq


def _span_children(q) -> list:
    if isinstance(q, SpanOrQuery):
        return list(q.clauses)
    if isinstance(q, SpanNotQuery):
        return [q.include, q.exclude]
    if isinstance(q, (SpanFirstQuery, SpanPositionRangeQuery)):
        return [q.match]
    if isinstance(q, (SpanContainingQuery, SpanWithinQuery)):
        return [q.big, q.little]
    if isinstance(q, SpanNearQuery):
        return [t for t in q.terms if not isinstance(t, str)]
    return []


def _span_has_wrapper(q) -> bool:
    if isinstance(q, SpanMultiTermWrapper):
        return True
    return any(_span_has_wrapper(c) for c in _span_children(q))


def rewrite_span(q, vocab):
    """Expand SpanMultiTermWrapper nodes into SpanOr-of-SpanTerm against
    the vocabulary (SpanMultiTermQueryWrapper.java SpanRewriteMethod);
    rebuilds only the path holding a wrapper."""
    if isinstance(q, SpanMultiTermWrapper):
        mq = q.query
        if isinstance(mq, PrefixQuery):
            terms = expand_prefix(vocab, mq)
        elif isinstance(mq, WildcardQuery):
            terms = expand_wildcard(vocab, mq)
        else:
            raise TypeError(
                f"SpanMultiTermWrapper supports Prefix/Wildcard, got {type(mq).__name__}"
            )
        terms = [t for t in terms if ":" not in t][:MAX_EXPANSIONS]
        return SpanOrQuery(
            tuple(SpanTermQuery(t) for t in terms), boost=q.boost
        )
    if not _span_has_wrapper(q):
        return q
    if isinstance(q, SpanOrQuery):
        return dataclasses.replace(
            q, clauses=tuple(rewrite_span(c, vocab) for c in q.clauses)
        )
    if isinstance(q, SpanNotQuery):
        return dataclasses.replace(
            q,
            include=rewrite_span(q.include, vocab),
            exclude=rewrite_span(q.exclude, vocab),
        )
    if isinstance(q, (SpanFirstQuery, SpanPositionRangeQuery)):
        return dataclasses.replace(q, match=rewrite_span(q.match, vocab))
    if isinstance(q, (SpanContainingQuery, SpanWithinQuery)):
        return dataclasses.replace(
            q, big=rewrite_span(q.big, vocab), little=rewrite_span(q.little, vocab)
        )
    if isinstance(q, SpanNearQuery):
        return dataclasses.replace(
            q,
            terms=tuple(
                t if isinstance(t, str) else rewrite_span(t, vocab)
                for t in q.terms
            ),
        )
    return q


def expand_prefix(vocab: np.ndarray, q: PrefixQuery) -> list[str]:
    lo, hi = _prefix_window(vocab, q.prefix)
    return vocab[lo:hi].tolist()


def expand_range(vocab: np.ndarray, q: TermRangeQuery) -> list[str]:
    lo = 0
    if q.lower is not None:
        lo = np.searchsorted(vocab, q.lower, side="left" if q.include_lower else "right")
    hi = len(vocab)
    if q.upper is not None:
        hi = np.searchsorted(vocab, q.upper, side="right" if q.include_upper else "left")
    return vocab[lo:hi].tolist()


def wildcard_regex(pattern: str) -> "re.Pattern":
    """Compile a Lucene wildcard to an anchored regex: ``*`` = any run,
    ``?`` = one char, ``\\x`` = literal x; brackets have NO special meaning
    (search/WildcardQuery.java:55-82 toAutomaton — NOT fnmatch, whose
    ``[seq]`` classes the reference does not support)."""
    out, i = [], 0
    while i < len(pattern):
        c = pattern[i]
        if c == "*":
            out.append(".*")
        elif c == "?":
            out.append(".")
        elif c == "\\" and i + 1 < len(pattern):
            i += 1
            out.append(re.escape(pattern[i]))
        else:
            out.append(re.escape(c))
        i += 1
    return re.compile("".join(out) + r"\Z", re.DOTALL)


def _wildcard_literal_prefix(pattern: str) -> str:
    """Unescaped literal run before the first live wildcard — the term-dict
    pre-slice (WildcardQuery.getTermsEnum's common-prefix seek)."""
    lit, i = [], 0
    while i < len(pattern):
        c = pattern[i]
        if c in "*?":
            break
        if c == "\\" and i + 1 < len(pattern):
            i += 1
            c = pattern[i]
        lit.append(c)
        i += 1
    return "".join(lit)


# below these vocabulary sizes a vectorized scan beats seeking with an
# automaton (random vocabularies, one CPU, median ms per query, scan vs
# DFA): a prefix-less wildcard's regex scan loses from ~4K terms (1K 0.13
# vs 0.32, 4K 0.51 vs 0.42, 40K 6.4 vs 0.51), a `~2` fuzzy length-band
# scan plus edit_distances only from ~40K (30K 24.5 vs 31.5, 40K 39.3 vs
# 38.8, 50K 48.9 vs 41.6, 90K 103.6 vs 52.6)
_WILDCARD_SEEK_MIN_VOCAB = 4096
_SEEK_MIN_VOCAB = 40_000


def expand_wildcard(vocab: np.ndarray, q: WildcardQuery) -> list[str]:
    # cheap pre-slice on any literal prefix before the first wildcard
    lit = _wildcard_literal_prefix(q.pattern)
    if not lit and len(vocab) > _WILDCARD_SEEK_MIN_VOCAB:
        # no usable prefix ("?bc*", "*x?y"): the seek-based automaton
        # intersect (search/automaton.py, the AutomatonTermsEnum leapfrog)
        # skips dictionary gaps the regex scan would visit term by term
        from lucene_ray.search.automaton import wildcard_dfa

        try:
            return wildcard_dfa(q.pattern).intersect(vocab)
        except OverflowError:
            pass  # pathological pattern: fall back to the scan
    rx = wildcard_regex(q.pattern)
    cands = expand_prefix(vocab, PrefixQuery(lit)) if lit else vocab.tolist()
    return [t for t in cands if rx.match(t)]


def edit_distances(term: str, cands) -> np.ndarray:
    """Exact Levenshtein distance (insert, delete, substitute; no
    transpositions) from ``term`` to every candidate string, in one DP over
    a padded code-point matrix of the candidates (one column each): each
    character of ``term`` is one row update for all candidates at once
    (FuzzyQuery's LevenshteinAutomata replaced by vocab-sized array work).
    Cell j of a candidate depends only on its first j code points, so the
    padding is never read; lengths come from ``len``, since numpy ``U``
    strings drop trailing NULs."""
    cands = list(cands)
    n = len(cands)
    lens = np.fromiter(map(len, cands), dtype=np.intp, count=n)
    width = max(int(lens.max(initial=0)), 1)
    b = np.array(cands, dtype=f"<U{width}").view("<u4").reshape(n, width).T
    j = np.arange(width + 1, dtype=np.int32)[:, None]
    prev = np.repeat(j, n, axis=1)
    for i, c in enumerate(term, 1):
        t = np.empty_like(prev)
        t[0] = i
        np.minimum(prev[1:] + 1, prev[:-1] + (b != ord(c)), out=t[1:])
        prev = np.minimum.accumulate(t - j, axis=0) + j
    return prev[lens, np.arange(n)]


def expand_fuzzy_with_distance(
    vocab: np.ndarray, q: FuzzyQuery
) -> list[tuple[str, int]]:
    """(term, distance) pairs within the edit budget, in vocabulary order
    (DirectSpellChecker needs the distances for ranking). Large
    vocabularies find their candidates with the seek-based Levenshtein-DFA
    intersect (search/automaton.py — the FuzzyQuery LevenshteinAutomata
    path; it skips the dictionary gaps a scan would visit), small ones by
    the length band; either way one ``edit_distances`` call gives the
    distances. Both paths are result-identical (tests/test_automaton.py
    pins it)."""
    cands = None
    if len(vocab) > _SEEK_MIN_VOCAB:
        from lucene_ray.search.automaton import levenshtein_dfa

        try:
            cands = levenshtein_dfa(q.term, q.max_edits).intersect(vocab)
        except OverflowError:
            pass  # enormous term/budget: fall back to the scan
    if cands is None:
        lens = np.fromiter(map(len, vocab), dtype=np.intp, count=len(vocab))
        cands = vocab[np.abs(lens - len(q.term)) <= q.max_edits].tolist()
    dist = edit_distances(q.term, cands)
    return [(t, int(d)) for t, d in zip(cands, dist) if d <= q.max_edits]


def expand_fuzzy(vocab: np.ndarray, q: FuzzyQuery) -> list[str]:
    return [t for t, _d in expand_fuzzy_with_distance(vocab, q)]


def expand_regexp(vocab: np.ndarray, q: RegexpQuery) -> list[str]:
    """The reference RegExp grammar compiled to a DFA and intersected
    with the sorted vocabulary (util/automaton/RegExp.java toAutomaton +
    AutomatonQuery — search/regexp.py + the automaton.py seekCeil
    leapfrog). Anchored whole-term match; literal prefixes, gaps between
    live prefixes, and dead suffixes are all skipped by the seek, so no
    separate prefix pre-slice is needed (round 5: this replaced the
    Python-``re`` scan — the grammar is now reference-exact: no
    lookaround/backrefs, '&' intersection, '<n-m>' intervals, '"..."'
    quoting, '@'/'#')."""
    from lucene_ray.search.regexp import regexp_dfa

    return regexp_dfa(q.pattern).intersect(vocab)


def _clause_pattern(q) -> str | None:
    if isinstance(q, PrefixQuery):
        return q.prefix
    if isinstance(q, WildcardQuery):
        return q.pattern
    if isinstance(q, TermRangeQuery):
        return f"{q.lower or ''}{q.upper or ''}"
    if isinstance(q, FuzzyQuery):
        return q.term
    if isinstance(q, RegexpQuery):
        return q.pattern
    if isinstance(q, TermInSetQuery):
        return "".join(q.terms)
    return None


def rewrite_query(
    bq: BooleanQuery, vocab: np.ndarray, field_vocab=None
) -> BooleanQuery:
    """Expand every multi-term clause; vocabulary-absent expansions vanish.

    ``vocab``: content-side terms. ``field_vocab``: the 'field:value' side —
    an array or a LAZY callable (the field vocab can dwarf the content vocab
    when paths/commits are unique per doc, so it is materialized only when a
    field-side pattern actually occurs). When None, ``vocab`` is assumed to
    hold the full dictionary and the namespace guard filters it."""

    def rewrite_clause(q):
        if isinstance(q, PhraseWildcardQuery):
            # expand each pattern slot against the vocabulary
            # (PhraseWildcardQuery.java: segment term expansion per
            # multi-term position, capped at maxMultiTermExpansions) and
            # rewrite to MultiPhraseQuery. A vocabulary-empty slot means
            # the phrase can never match: poison (must) / no-op (should).
            slots = []
            for s in q.slots:
                if "*" in s or "?" in s:
                    terms = [
                        t
                        for t in expand_wildcard(vocab, WildcardQuery(s))
                        if ":" not in t
                    ][: q.max_expansions]
                    if not terms:
                        return [TermQuery("#NOMATCH#")]
                    slots.append(tuple(terms))
                else:
                    slots.append((s,))
            return [MultiPhraseQuery(tuple(slots), boost=q.boost)]
        pattern = _clause_pattern(q)
        if pattern is None:
            return [q]
        # namespace selection: the term dict holds both analyzed tokens and
        # "field:value" keyword terms — a content-side expansion (e.g. range
        # 'k'..'m') must not sweep in 'lang:py'; a field-side pattern
        # ('lang:p*') must not match content tokens
        wants_fields = _has_unescaped(pattern, ":")
        if wants_fields and field_vocab is not None:
            v = field_vocab() if callable(field_vocab) else field_vocab
        else:
            v = vocab
        if isinstance(q, PrefixQuery):
            terms = expand_prefix(v, q)
        elif isinstance(q, WildcardQuery):
            terms = expand_wildcard(v, q)
        elif isinstance(q, TermRangeQuery):
            terms = expand_range(v, q)
        elif isinstance(q, FuzzyQuery):
            terms = expand_fuzzy(v, q)
        elif isinstance(q, RegexpQuery):
            terms = expand_regexp(v, q)
        else:  # TermInSetQuery
            terms = sorted(set(v[np.isin(v, list(q.terms))].tolist()))
        terms = [t for t in terms if (":" in t) == wants_fields]
        return [TermQuery(t, boost=q.boost) for t in terms[:MAX_EXPANSIONS]]

    out = BooleanQuery(min_should_match=bq.min_should_match)
    for occur in ("must", "should", "must_not"):
        for q in getattr(bq, occur):
            if _span_has_wrapper(q):
                getattr(out, occur).append(rewrite_span(q, vocab))
                continue
            if isinstance(q, ToParentBlockJoinQuery):
                def _one_clause(sub):
                    exp = rewrite_clause(sub)
                    if not exp:
                        return None
                    return exp[0] if len(exp) == 1 else DisjunctionSumQuery(tuple(exp))

                child = _one_clause(q.child_query)
                pfilter = _one_clause(q.parents_filter)
                if child is None or pfilter is None:
                    # the join can never match; a REQUIRED empty clause must
                    # poison the query, not silently widen it
                    if occur == "must":
                        out.must.append(TermQuery("#NOMATCH#"))
                    continue
                getattr(out, occur).append(
                    dataclasses.replace(q, child_query=child, parents_filter=pfilter)
                )
                continue
            if isinstance(q, NestedBooleanQuery):
                # rewrite the inner boolean in place, keep it one clause
                inner = rewrite_query(q.to_boolean(), vocab, field_vocab)
                getattr(out, occur).append(inner.freeze(q.boost))
                continue
            if isinstance(q, DisjunctionSumQuery):
                # parser groups may hold multi-term disjuncts; expanding in
                # place is exact (OR of expansions == expansion of the OR).
                # Deep-nested groups flatten to compound disjuncts — recurse
                # so their inner multi-term clauses rewrite too.
                def _rewrite_disjunct(d):
                    if isinstance(d, NestedBooleanQuery):
                        inner = rewrite_query(d.to_boolean(), vocab, field_vocab)
                        return [inner.freeze(d.boost)]
                    if isinstance(d, DisjunctionSumQuery):
                        subs = [
                            e for x in d.disjuncts for e in _rewrite_disjunct(x)
                        ]
                        return (
                            [DisjunctionSumQuery(tuple(subs), boost=d.boost)]
                            if subs
                            else []
                        )
                    return rewrite_clause(d)

                subs = [e for d in q.disjuncts for e in _rewrite_disjunct(d)]
                if subs:
                    getattr(out, occur).append(
                        DisjunctionSumQuery(tuple(subs), boost=q.boost)
                    )
                elif occur == "must":
                    out.must.append(TermQuery("#NOMATCH#"))
                continue
            expanded = rewrite_clause(q)
            if isinstance(
                q,
                (PrefixQuery, WildcardQuery, TermRangeQuery, FuzzyQuery,
                 RegexpQuery, TermInSetQuery),
            ):
                if occur == "must":
                    # a required multi-term clause means "at least one
                    # expansion matches AND the doc is required to have one":
                    # nest the expansions as ONE composite clause
                    # (MUST(BooleanQuery(SHOULD expansions)) in the reference,
                    # search/MultiTermQuery.java SCORING_BOOLEAN_REWRITE) so
                    # `+read* merge` still REQUIRES the prefix.
                    if expanded:
                        out.must.append(DisjunctionSumQuery(tuple(expanded), boost=q.boost))
                    else:
                        # required clause with zero expansions -> no hits:
                        # poison with an impossible term
                        # "#NOMATCH#" is outside the [a-z0-9] token alphabet
                        out.must.append(TermQuery("#NOMATCH#"))
                elif occur == "must_not":
                    out.must_not.extend(expanded)
                else:
                    if bq.min_should_match > 0 and len(expanded) != 1:
                        # minimumShouldMatch counts the whole multi-term
                        # rewrite as ONE clause (BooleanQuery.java nested-
                        # clause counting) — keep it composite
                        if expanded:
                            out.should.append(
                                DisjunctionSumQuery(tuple(expanded), boost=q.boost)
                            )
                    else:
                        # flat SHOULD expansion scores identically (sum over
                        # matching expansions) and joins the segment bound
                        out.should.extend(expanded)
            else:
                getattr(out, occur).extend(expanded)
    return out

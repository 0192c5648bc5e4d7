"""Query model + a mini classic-syntax parser.

Query types mirror the reference's relational surface (SURVEY.md §2.11):
TermQuery (search/TermQuery.java:36), BooleanQuery with MUST/SHOULD/MUST_NOT
and minimumShouldMatch (search/BooleanQuery.java, BooleanClause occurs),
PhraseQuery (search/PhraseQuery.java:69, exact only — slop=0).

Parser subset of the classic syntax (queryparser/.../classic/QueryParser.java:84):
  foo bar            -> SHOULD foo, SHOULD bar      (default OR)
  foo AND bar        -> MUST foo, MUST bar
  +foo bar -baz      -> MUST foo, SHOULD bar, MUST_NOT baz
  "foo bar"          -> PhraseQuery(foo, bar)
  \\+foo m\\*n        -> escaped specials are LITERAL text (QueryParser.jj
                        _ESCAPED_CHAR; QueryParserBase.discardEscapeChar,
                        incl. \\uXXXX unicode escapes); ``escape()`` mirrors
                        QueryParserBase.escape's reserved-char table
Query text runs through the same analyzer as indexing (Analyzer.normalize
semantics, analysis/standard/StandardAnalyzer.java:99-101); a query word that
analyzes to multiple tokens (e.g. ``fooBar``) expands to that many clauses
with the same occur.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field


@dataclass(frozen=True)
class TermQuery:
    term: str
    boost: float = 1.0


@dataclass(frozen=True)
class PhraseQuery:
    """``slop`` > 0 enables sloppy matching (search/SloppyPhraseMatcher.java):
    a doc matches iff some selection of one occurrence per term has
    max(pos_i - i) - min(pos_j - j) <= slop over the offset-adjusted
    positions (so "a b"~2 matches "b a", "a b"~1 does not). Doc SETS match
    the reference; the engine's sloppy phrase freq is the greedy
    non-overlapping valid-window count (the reference's
    1/(1+matchLength)-weighted float freq is not ported — documented)."""

    terms: tuple
    boost: float = 1.0
    slop: int = 0


@dataclass(frozen=True)
class MultiPhraseQuery:
    """Phrase with term ALTERNATIVES per position
    (search/MultiPhraseQuery.java): position i matches if ANY of
    ``slots[i]`` occurs there; the doc matches if consecutive positions
    cover every slot. Scored like a phrase with idf summed over every term
    in every slot (MultiPhraseWeight's idfExplain over all termStats)."""

    slots: tuple  # of tuple[str, ...], one alternatives-tuple per position
    boost: float = 1.0

    @property
    def terms(self) -> tuple:
        return tuple(t for slot in self.slots for t in slot)


@dataclass(frozen=True)
class PhraseWildcardQuery:
    """Phrase whose positions may hold multi-term PATTERNS
    (sandbox/search/PhraseWildcardQuery.java: a generalized PhraseQuery
    where each slot is a term or a MultiTermQuery expansion; one expanded
    term must match at that position). Slots containing ``*`` / ``?`` are
    expanded against the index vocabulary (capped at ``max_expansions``
    per slot, the maxMultiTermExpansions contract) and the query rewrites
    to a MultiPhraseQuery — vocabulary-empty slots make the phrase match
    nothing."""

    slots: tuple  # of str: literal term or wildcard pattern
    max_expansions: int = 128
    boost: float = 1.0


@dataclass(frozen=True)
class NGramPhraseQuery:
    """search/NGramPhraseQuery.java: a phrase of consecutive n-grams can
    skip every gram except those at i % n == 0 plus the LAST one, keeping
    their ORIGINAL positions (rewrite:44-72) — the remaining grams'
    overlaps pin the skipped ones, so the match set is identical with
    ~1/n of the position joins. Not optimizable (n < 2 or fewer than 3
    grams): evaluates as the plain phrase."""

    n: int
    grams: tuple  # gram terms at consecutive positions
    boost: float = 1.0

    def kept(self) -> tuple:
        """((term, position_offset), ...) actually evaluated."""
        if self.n < 2 or len(self.grams) < 3:
            return tuple((t, i) for i, t in enumerate(self.grams))
        last = len(self.grams) - 1
        return tuple(
            (t, i)
            for i, t in enumerate(self.grams)
            if i % self.n == 0 or i == last
        )

    @property
    def terms(self) -> tuple:
        """Terms feeding stats/idf — the kept grams (the reference's
        rewritten PhraseQuery holds exactly these)."""
        return tuple(t for t, _off in self.kept())


@dataclass(frozen=True)
class SpanNearQuery:
    """Proximity match over single-term sub-spans (queries/src/java/org/
    apache/lucene/queries/spans/SpanNearQuery.java; matchers
    NearSpansOrdered.java / NearSpansUnordered.java).

    ordered=True: positions p_1 < p_2 < ... < p_k (each sub-span starts
    after the previous one ends) with total gap
    p_k - p_1 - (k-1) <= slop.
    ordered=False: one occurrence per term inside a window of width
    max - min + 1 - k <= slop (order-free — distinct from sloppy
    PhraseQuery, whose offset-ADJUSTED span penalizes reordering).

    Repeated terms are rejected (the reference's repeats handling is not
    ported for spans; PhraseQuery(slop) covers that shape). Scored like a
    phrase (freq = greedy non-overlapping match count, engine-defined;
    doc SETS match the reference).

    ``terms`` entries may also be SPAN SOURCES (SpanTermQuery / SpanOr /
    SpanNot / SpanFirst / nested SpanNear) — the generalized positions
    join in search/spans.py then evaluates the composition (round 4)."""

    terms: tuple
    slop: int = 0
    ordered: bool = True
    boost: float = 1.0

    @property
    def leaf_terms(self) -> tuple:
        """All underlying index terms (for stats gathering) — recurses
        through span-source entries."""
        return tuple(t for c in self.terms for t in _span_leaf_terms(c))


def _span_leaf_terms(q) -> tuple:
    if isinstance(q, str):
        return (q,)
    return tuple(getattr(q, "terms", ()))


@dataclass(frozen=True)
class SpanTermQuery:
    """queries/spans/SpanTermQuery.java: a term's spans = its positions,
    each width 1 — the leaf of the span algebra.

    ``field``: None = the default analyzed content field; a name scopes
    the term to that analyzed field (builder ``analyzed_fields``), whose
    terms live as "field:term" in the shared term dict with REAL
    positions. Span composites require all clauses on ONE field
    (SpanNearQuery.java:141 "Clauses must have same field"); use
    FieldMaskingSpanQuery to lift that."""

    term: str
    boost: float = 1.0
    field: str | None = None

    @property
    def lookup_term(self) -> str:
        return f"{self.field}:{self.term}" if self.field else self.term

    @property
    def terms(self) -> tuple:
        return (self.lookup_term,)


@dataclass(frozen=True)
class FieldMaskingSpanQuery:
    """queries/spans/FieldMaskingSpanQuery.java:36 — lies about the wrapped
    span source's field: ``getField()`` returns ``field`` while the spans
    come from the inner query's own field, letting span composites join
    across position-aligned PARALLEL fields (the class-doc teacher/student
    example; here e.g. the "rev" derived field, which shares the content
    stream's positions exactly). Evaluation is a pass-through — only the
    field-consistency check sees the mask."""

    query: object  # span source
    field: str  # the masked-as field name ("content" = the default field)
    boost: float = 1.0

    @property
    def terms(self) -> tuple:
        return _span_leaf_terms(self.query)


@dataclass(frozen=True)
class SpanOrQuery:
    """queries/spans/SpanOrQuery.java:36 — union of sub-clauses' spans."""

    clauses: tuple  # span sources
    boost: float = 1.0

    @property
    def terms(self) -> tuple:
        return tuple(t for c in self.clauses for t in _span_leaf_terms(c))


@dataclass(frozen=True)
class SpanNotQuery:
    """queries/spans/SpanNotQuery.java — spans of ``include`` whose
    [start-pre, end+post) window overlaps NO ``exclude`` span."""

    include: object
    exclude: object
    pre: int = 0
    post: int = 0
    boost: float = 1.0

    @property
    def terms(self) -> tuple:
        # stats terms come from the INCLUDE side only (the reference's
        # SpanNotWeight extracts terms from include for scoring)
        return _span_leaf_terms(self.include)


@dataclass(frozen=True)
class SpanFirstQuery:
    """queries/spans/SpanFirstQuery.java — spans of ``match`` ending at or
    before position ``end`` (SpanPositionRangeQuery with start 0)."""

    match: object
    end: int
    boost: float = 1.0

    @property
    def terms(self) -> tuple:
        return _span_leaf_terms(self.match)


@dataclass(frozen=True)
class SpanPositionRangeQuery:
    """queries/spans/SpanPositionRangeQuery.java — spans of ``match`` lying
    entirely inside [start, end]: span.start >= start AND span.end <= end
    (the acceptPosition window; SpanFirstQuery is start=0)."""

    match: object
    start: int
    end: int
    boost: float = 1.0

    @property
    def terms(self) -> tuple:
        return _span_leaf_terms(self.match)


@dataclass(frozen=True)
class SpanContainingQuery:
    """queries/spans/SpanContainingQuery.java — spans of ``big`` that
    contain a span of ``little``; scored from big's terms (the reference's
    SpanContainingWeight)."""

    big: object
    little: object
    boost: float = 1.0

    @property
    def terms(self) -> tuple:
        return _span_leaf_terms(self.big)


@dataclass(frozen=True)
class SpanWithinQuery:
    """queries/spans/SpanWithinQuery.java — spans of ``little`` that lie
    inside a span of ``big``; scored from little's terms."""

    big: object
    little: object
    boost: float = 1.0

    @property
    def terms(self) -> tuple:
        return _span_leaf_terms(self.little)


@dataclass(frozen=True)
class SpanMultiTermWrapper:
    """queries/spans/SpanMultiTermQueryWrapper.java — lifts a multi-term
    query (Prefix/Wildcard) into the span algebra: rewrites to a SpanOr of
    every matching term's spans (done at query rewrite against the index
    vocabulary, like the reference's SpanRewriteMethod)."""

    query: object  # PrefixQuery | WildcardQuery
    boost: float = 1.0

    @property
    def terms(self) -> tuple:
        return ()  # unknown until rewrite


@dataclass(frozen=True)
class PayloadScoreQuery:
    """queries/payloads/PayloadScoreQuery.java:43 — scores each matching
    doc by an aggregate (PayloadFunction.java: min/max/avg/sum) of the
    per-occurrence payload values of its term matches. Scope (documented):
    the wrapped span source is a term / term-union (the TermSpans +
    PayloadSpanCollector case); includeSpanScore=false semantics — the
    payload aggregate IS the score, times boost."""

    terms: tuple  # term strings (SpanTerm / SpanOr-of-terms source)
    function: str = "sum"  # min | max | avg | sum
    boost: float = 1.0


@dataclass(frozen=True)
class IntervalQuery:
    """Minimal-interval algebra query (queries/.../intervals/IntervalQuery
    .java): ``source`` is an intervals-source tree built with the factory
    helpers in search/intervals.py (term/ordered/unordered/phrase/or_/
    maxgaps/maxwidth/containing/contained_by + not_ complements). Doc sets
    are oracle-checked; freq = number of minimal intervals, scored like a
    phrase (engine-defined — the reference's 1/(1+width) weight is not
    ported, same stance as SpanNearQuery)."""

    source: object
    boost: float = 1.0

    @property
    def terms(self) -> tuple:
        from lucene_ray.search.intervals import source_terms

        return source_terms(self.source)


@dataclass(frozen=True)
class SynonymQuery:
    """Multiple terms scored as ONE pseudo-term: per-doc tf = sum over
    synonyms, df = max over synonyms (search/SynonymQuery.java:50 blended
    semantics)."""

    terms: tuple
    boost: float = 1.0


@dataclass(frozen=True)
class CombinedFieldQuery:
    """BM25F: multiple analyzed fields scored as ONE synthetic combined
    field (sandbox/search/CombinedFieldQuery.java:68). All (term, field)
    postings form one disjunction scored with a single pseudo-term scorer:

    - per-doc freq  = sum of weight_f * tf(term, f, doc) over matching pairs
    - per-doc norm  = byte4(round(sum of weight_f * field_length_f)) — the
      MultiNormsLeafSimScorer.java:143 additive-norm combine
    - pseudo term stats: df = MAX over pairs, ttf = sum weight_f * ttf
      (CombinedFieldQuery.java:329-346)
    - pseudo collection stats: docCount = max, sumTotalTermFreq =
      sum weight_f * sumttf_f (mergeCollectionStatistics, :354-372)

    ``fields``: ((field, weight), ...); ""/"content" is the content stream,
    any other name an analyzed parallel field (builder ``analyzed_fields``,
    whose index terms carry the "<field>:" prefix). Weights must be >= 1
    (CombinedFieldQuery.Builder.addField contract)."""

    terms: tuple  # of analyzed token strings
    fields: tuple  # of (field_name, weight)
    boost: float = 1.0

    def __post_init__(self):
        for _f, w in self.fields:
            if w < 1:
                raise ValueError("CombinedFieldQuery field weight must be >= 1")

    @property
    def index_terms(self) -> tuple:
        """The shared-term-dict keys, (term, field)-pair order: content
        terms bare, analyzed-field terms '<field>:'-prefixed."""
        return tuple(
            t if f in ("", "content") else f"{f}:{t}"
            for t in self.terms
            for f, _w in self.fields
        )


@dataclass(frozen=True)
class DisjunctionMaxQuery:
    """score = max(sub-scores) + tie_breaker * (sum of the others)
    (search/DisjunctionMaxQuery.java)."""

    disjuncts: tuple  # of TermQuery/PhraseQuery
    tie_breaker: float = 0.0


@dataclass(frozen=True)
class DisjunctionSumQuery:
    """Nested boolean OR evaluated as ONE clause: matches docs matched by
    ANY disjunct, score = sum of the matching disjuncts' scores — the shape
    a rewritten multi-term query takes inside a MUST slot
    (search/MultiTermQuery.java SCORING_BOOLEAN_REWRITE produces
    MUST(BooleanQuery(SHOULD expansions)); BooleanQuery.java nested-clause
    counting: the whole group is one clause for minimumShouldMatch)."""

    disjuncts: tuple  # of TermQuery (multi-term expansions)
    boost: float = 1.0


@dataclass(frozen=True)
class CoveringQuery:
    """sandbox/search/CoveringQuery.java:51 — matches docs where at least
    minimumNumberMatch(doc) of the sub-queries match. The per-doc minimum
    is a LongValuesSource in the reference; here a compiled expression over
    numeric doc values (``min_match_source``, the expressions grammar —
    FunctionScoreQuery's binding rules). Values < 1 behave as 1
    (CoveringScorer.setMinMatch). Score = sum of the MATCHING clauses'
    scores (CoveringScorer.score:211-219). Divergence (documented): our
    numeric DV columns are dense, so the reference's "no value -> no
    match" branch is unreachable."""

    queries: tuple
    min_match_source: str
    boost: float = 1.0


@dataclass(frozen=True)
class MatchAllDocsQuery:
    """Every doc, constant score = boost (search/MatchAllDocsQuery.java)."""

    boost: float = 1.0


@dataclass(frozen=True)
class ConstantScoreQuery:
    """Matches of ``query`` with constant score = boost
    (search/ConstantScoreQuery.java)."""

    query: object
    boost: float = 1.0


@dataclass(frozen=True)
class TermInSetQuery:
    """Set-membership filter: matches docs containing ANY of the terms,
    constant score (search/TermInSetQuery.java — Occur.FILTER semantics)."""

    terms: tuple
    boost: float = 1.0


# ---- multi-term queries: rewritten against the term dictionary -----------
# (search/PrefixQuery.java / WildcardQuery / TermRangeQuery / FuzzyQuery —
# automaton-intersect-with-term-dict replaced by vocabulary scans; rewrite
# mode is SCORING_BOOLEAN_REWRITE: an OR of TermQuerys,
# search/MultiTermQuery.java SCORING_BOOLEAN_REWRITE)


@dataclass(frozen=True)
class PrefixQuery:
    prefix: str
    boost: float = 1.0


@dataclass(frozen=True)
class WildcardQuery:
    pattern: str  # * = any run, ? = one char
    boost: float = 1.0


@dataclass(frozen=True)
class TermRangeQuery:
    lower: str | None
    upper: str | None
    include_lower: bool = True
    include_upper: bool = False
    boost: float = 1.0


@dataclass(frozen=True)
class FuzzyQuery:
    term: str
    max_edits: int = 2
    boost: float = 1.0


@dataclass(frozen=True)
class RegexpQuery:
    """Anchored regular-expression term match (search/RegexpQuery.java):
    the pattern is the reference's OWN RegExp grammar
    (util/automaton/RegExp.java — union/concat/repeat/classes, plus '&'
    intersection, '<n-m>' numeric intervals, '"..."' quoting, '@'/'#';
    NO lookaround or backrefs), compiled to a DFA (search/regexp.py) and
    seek-intersected with the sorted vocabulary (search/automaton.py).
    Matches the WHOLE term, as in the reference."""

    pattern: str
    boost: float = 1.0


@dataclass(frozen=True)
class PointRangeQuery:
    """Numeric doc-values range filter, bounds INCLUSIVE, constant score
    (search/PointRangeQuery.java over the 1-D points table; None = open)."""

    field: str
    lower: int | None
    upper: int | None
    boost: float = 1.0


@dataclass(frozen=True)
class PointInSetQuery:
    """Numeric set membership over a 1-D point field, constant score
    (search/PointInSetQuery.java: the BKD sorted-set intersect walk becomes
    paired binary-search slices over the value-sorted points sidecar).
    ``values`` must be a sorted tuple of ints (hashable for the query
    cache). The to-side of numeric JoinUtil (join/.../JoinUtil.java:90,141
    int/long overloads) rewrites to this."""

    field: str
    values: tuple
    boost: float = 1.0


@dataclass(frozen=True)
class BlendedTermQuery:
    """search/BlendedTermQuery.java: score several terms as if they were
    one — every term is scored with BLENDED collection stats (df = max
    over the terms, ttf = sum, BlendedTermQuery.java:281-290) so a rare
    variant is not over-rewarded, then the per-term scores combine via
    DisjunctionMax (rewrite='dismax', tie_breaker, the
    DisjunctionMaxRewrite default) or a boolean sum (rewrite='boolean',
    BooleanQueryRewrite)."""

    terms: tuple
    rewrite: str = "dismax"
    tie_breaker: float = 0.01
    boost: float = 1.0


@dataclass(frozen=True)
class MultiRangeQuery:
    """Disjunction of numeric ranges over ONE point field, evaluated in a
    single pass (sandbox/search/MultiRangeQuery.java — its builder merges
    overlapping ranges; matching = value in ANY [lo, hi], both inclusive,
    None = open bound). Constant score = boost."""

    field: str
    ranges: tuple  # ((lo|None, hi|None), ...)
    boost: float = 1.0


@dataclass(frozen=True)
class FunctionRangeQuery:
    """Docs whose value source falls in [lower, upper]
    (queries/function/FunctionRangeQuery.java over ValueSourceScorer):
    the value source is a compiled expression (search/expressions.py) over
    numeric doc values / doc_len — no ``_score`` variable (there is no
    enclosing query). Constant score = boost."""

    expression: str
    lower: float | None = None
    upper: float | None = None
    include_lower: bool = True
    include_upper: bool = True
    boost: float = 1.0


@dataclass(frozen=True)
class FunctionMatchQuery:
    """Docs where a boolean-valued expression evaluates NON-ZERO
    (queries/function/FunctionMatchQuery.java — a DoublePredicate over a
    DoubleValuesSource; the predicate here is the expression itself,
    compiled through the full JavascriptCompiler grammar, so comparisons
    / ternaries / modulo express any DoublePredicate). Constant score =
    boost."""

    expression: str
    boost: float = 1.0


@dataclass(frozen=True)
class SortedNumericRangeQuery:
    """SortedNumericDocValuesField.newSlowRangeQuery
    (document/SortedNumericDocValuesField.java): a doc matches when ANY of
    its SORTED_NUMERIC values falls in [lower, upper] (inclusive, None =
    open). Constant score = boost."""

    field: str
    lower: int | None = None
    upper: int | None = None
    boost: float = 1.0


@dataclass(frozen=True)
class DocValuesTermsQuery:
    """Constant-score filter matching docs whose SORTED / SORTED_SET doc
    value for ``field`` equals ANY of ``terms`` — the doc-values execution
    of a term-set filter (search/DocValuesTermsQuery.java;
    SortedDocValuesField.newSlowSetQuery). Evaluated by mapping the query
    terms to segment ordinals and scanning the doc-ordered ord column —
    no postings touched."""

    field: str
    terms: tuple  # of value strings
    boost: float = 1.0


@dataclass(frozen=True)
class SortedSetDocValuesRangeQuery:
    """Constant-score value-range filter over SORTED / SORTED_SET doc
    values (SortedSetDocValuesField.newSlowRangeQuery;
    sandbox SortedSetDocValuesRangeQuery): matches docs with ANY value in
    the [lower, upper] byte range. None = open bound;
    include_lower/include_upper control bound closure (Lucene's
    lowerInclusive/upperInclusive). Resolved to an ORDINAL window once per
    segment, then a doc-ordered ord scan."""

    field: str
    lower: str | None
    upper: str | None
    include_lower: bool = True
    include_upper: bool = True
    boost: float = 1.0


@dataclass(frozen=True)
class IndexOrDocValuesQuery:
    """Wrapper exposing TWO execution strategies for the same doc set
    (search/IndexOrDocValuesQuery.java): an index-structure query (points/
    postings — efficient standalone) and a doc-values twin (efficient as a
    secondary filter verifying a small candidate set). The engine picks by
    the reference's cost rule — dv path when the estimated lead cost of the
    other required clauses is below the index query's cost — and both paths
    MUST produce identical doc sets (tests assert it)."""

    index_query: object
    dv_query: object
    boost: float = 1.0


@dataclass(frozen=True)
class RangeFieldQuery:
    """LongRange-field relation filter, constant score
    (document/LongRange.java:48 newIntersectsQuery / newContainsQuery /
    newWithinQuery / newCrossesQuery; RangeFieldQuery.QueryType). Bounds
    INCLUSIVE; None = open. ``relation``: intersects | within | contains |
    crosses (crosses = intersects minus within minus contains)."""

    field: str
    lower: int | None
    upper: int | None
    relation: str = "intersects"
    boost: float = 1.0


@dataclass(frozen=True)
class LatLonBoundingBoxQuery:
    """2-D bounding-box range field query
    (sandbox/document/LatLonBoundingBox.java:45-150
    newIntersects/Within/Contains/CrossesQuery): indexed boxes relate to
    the query box via per-axis 1-D ranges — INTERSECTS/WITHIN/CONTAINS
    hold iff they hold on BOTH axes; CROSSES = intersects and neither
    within nor contains (RangeFieldQuery.QueryType multi-dim algebra).
    Bounds are degrees; the sidecar stores quarter-degree fixed point
    (``{field}_lat`` / ``{field}_lon`` range fields), so query bounds
    must be quarter-multiples (int-exact both sides)."""

    field: str
    min_lat: float
    min_lon: float
    max_lat: float
    max_lon: float
    relation: str = "intersects"  # intersects | within | contains | crosses
    boost: float = 1.0

    @property
    def terms(self) -> tuple:
        return ()


@dataclass(frozen=True)
class FieldExistsQuery:
    """search/FieldExistsQuery.java: docs where ``field`` has any value.
    For the analyzed content field existence = at least one indexed token
    (the norms-existence path; divergence: the reference counts a
    supplied-but-empty text field as existing via its norm entry — our
    norms sidecar is dense, so zero-token docs are the honest 'absent'
    set, documented). NUMERIC / SORTED(_SET) / BINARY doc-values and
    keyword fields are DENSE sidecars here, so existence = every live
    doc; SORTED_NUMERIC lists may be empty per doc, so existence = a
    non-empty list; indexed shapes = docs with at least one triangle;
    unknown fields match nothing. Constant score = boost."""

    field: str
    boost: float = 1.0


@dataclass(frozen=True)
class ShapeBoxQuery:
    """Bounding-box query over INDEXED shapes (document/LatLonShape.java
    newBoxQuery -> LatLonShapeBoundingBoxQuery; relations from
    document/ShapeField.QueryRelation): a doc's tessellated triangles are
    tested per component — INTERSECTS = any triangle intersects the box,
    WITHIN = every triangle within, DISJOINT = none intersects, CONTAINS =
    the box (as a 4-vertex ring) through the WithinRelation aggregation
    over the sidecar's edge-origin flags (see ShapePolygonQuery).
    Boundary-inclusive; constant score = boost."""

    field: str
    min_lat: float
    max_lat: float
    min_lon: float
    max_lon: float
    relation: str = "intersects"  # intersects | within | disjoint | contains
    boost: float = 1.0


@dataclass(frozen=True)
class ShapePolygonQuery:
    """Polygon query over INDEXED shapes (document/LatLonShape.java:298
    newPolygonQuery -> LatLonShapeQuery; relations from
    ShapeField.QueryRelation incl. CONTAINS at :246): per-component
    triangle tests — INTERSECTS = any triangle intersects the polygon,
    WITHIN = every triangle within, DISJOINT = none intersects, CONTAINS =
    Lucene's WithinRelation aggregation over the sidecar's edge-origin
    flags (some CANDIDATE triangle holds the query's reference vertex and
    no query edge crosses a boundary-flagged triangle edge). ``shell`` /
    ``holes`` are ((lats...), (lons...)) vertex-tuple pairs (closed
    implicitly). Constant score = boost."""

    field: str
    shell: tuple  # ((lat, ...), (lon, ...))
    holes: tuple = ()
    relation: str = "intersects"  # intersects | within | disjoint | contains
    boost: float = 1.0


@dataclass(frozen=True)
class ShapePointQuery:
    """Point query over INDEXED shapes (document/LatLonShape.java
    newPointQuery -> LatLonShapePointQuery): INTERSECTS = the point lies
    in some triangle of the doc's shape (boundary-inclusive), DISJOINT =
    it lies in none. Constant score = boost."""

    field: str
    lat: float
    lon: float
    relation: str = "intersects"  # intersects | disjoint
    boost: float = 1.0


@dataclass(frozen=True)
class ShapeLineQuery:
    """Open-polyline query over INDEXED shapes (document/LatLonShape.java
    newLineQuery -> LatLonShapeLineQuery): per-triangle tests — INTERSECTS
    = any triangle touches the line (vertex-in-triangle or edge crossing),
    DISJOINT = none does, CONTAINS = the WithinRelation aggregation (the
    line runs inside the doc's shape; edge-origin flags tell boundary from
    diagonal). ``lats``/``lons`` are the polyline vertices in order.
    Constant score = boost."""

    field: str
    lats: tuple
    lons: tuple
    relation: str = "intersects"  # intersects | disjoint | contains
    boost: float = 1.0


@dataclass(frozen=True)
class LatLonBoxQuery:
    """2-D geo box filter, bounds INCLUSIVE on raw float64, constant score
    (document/LatLonPoint.java newBoxQuery over the Morton-sorted
    spatial.parquet sidecar; search/spatial.py). No antimeridian wrap."""

    field: str
    lat_lo: float
    lat_hi: float
    lon_lo: float
    lon_hi: float
    boost: float = 1.0


@dataclass(frozen=True)
class LatLonDistanceQuery:
    """Great-circle radius filter, INCLUSIVE, constant score
    (LatLonPoint.newDistanceQuery: bounding-box BKD prune + exact
    haversine; search/spatial.py)."""

    field: str
    lat: float
    lon: float
    radius_m: float
    boost: float = 1.0


@dataclass(frozen=True)
class LatLonPolygonQuery:
    """Point-in-polygon filter, constant score (LatLonPoint
    .newPolygonQuery over geo/Polygon.java: shell ring minus hole rings,
    crossing-number contains; bounding-box BKD prune + exact PNPOLY on
    raw doubles). ``shell``: (lats, lons) vertex tuples (implicitly
    closed); ``holes``: tuple of (lats, lons) rings."""

    field: str
    shell: tuple  # ((lat, ...), (lon, ...))
    holes: tuple = ()
    boost: float = 1.0


@dataclass(frozen=True)
class LongDistanceFeatureQuery:
    """LongPoint.newDistanceFeatureQuery (document/
    LongDistanceFeatureQuery.java:117): matches every doc with the field,
    score = float32(boost * pivot / (pivot + |value - origin|)) over the
    dense numeric doc values — the recency-boost primitive."""

    field: str
    origin: int
    pivot_distance: int
    boost: float = 1.0


@dataclass(frozen=True)
class GeoDistanceFeatureQuery:
    """LatLonPoint.newDistanceFeatureQuery (document/
    LatLonPointDistanceFeatureQuery.java): score = float32(boost * pivot /
    (pivot + haversine_m(doc, origin))) over the spatial sidecar
    (exact-form haversine, the documented SloppyMath divergence)."""

    field: str
    lat: float
    lon: float
    pivot_m: float
    boost: float = 1.0


@dataclass(frozen=True)
class Geo3DShapeQuery:
    """Geo3D shape filter, constant score (spatial3d/Geo3DPoint.java
    newShapeQuery -> PointInGeo3DShapeQuery): shape membership on the
    unit sphere over the spatial.parquet sidecar, BKD row-group prune by
    the shape's bounds (search/spatial3d.py shapes: GeoStandardCircle /
    GeoBBox / GeoConvexPolygon / GeoStandardPath / GeoCompositeShape)."""

    field: str
    shape: object  # a frozen spatial3d shape (hashable for the query cache)
    boost: float = 1.0


@dataclass
class BooleanQuery:
    must: list = field(default_factory=list)
    should: list = field(default_factory=list)
    must_not: list = field(default_factory=list)
    min_should_match: int = 0

    def freeze(self, boost: float = 1.0) -> "NestedBooleanQuery":
        return NestedBooleanQuery(
            tuple(self.must), tuple(self.should), tuple(self.must_not),
            self.min_should_match, boost,
        )

    def all_terms(self) -> list[str]:
        out = []
        for q in self.must + self.should + self.must_not:
            if isinstance(q, TermQuery):
                out.append(q.term)
            elif isinstance(q, PhraseQuery):
                out.extend(q.terms)
        return out


@dataclass(frozen=True)
class CommonTermsQuery:
    """queries/.../CommonTermsQuery.java:64 — partition the query terms by
    corpus document frequency at ``max_term_frequency`` (a fraction of the
    scoring doc count) and give each partition its own occur: rare terms
    gate the match (default MUST), stop-like terms only contribute score
    (default SHOULD). A term absent from the index has df=0 and lands in
    the low bucket (same as the reference's per-segment termsEnum miss).
    When no term is low-frequency the query degrades to a pure disjunction
    over the high bucket (CommonTermsQuery.buildQuery's lowFreq.clauses()
    == 0 branch)."""

    terms: tuple
    max_term_frequency: float = 0.3
    low_freq_occur: str = "must"     # "must" | "should"
    high_freq_occur: str = "should"  # "must" | "should"

    def rewrite(self, reader) -> "BooleanQuery":
        return self.rewrite_with(
            reader.global_term_stats(list(self.terms)),
            float(reader.stats_doc_count),
        )

    def rewrite_with(self, stats: dict, n: float) -> "BooleanQuery":
        """Split against pre-gathered (df, ttf) stats — the shard-stats
        path used by DistributedSearcher (one gather round trip)."""
        cutoff = self.max_term_frequency * n
        # CommonTermsQuery.java: only df > cutoff is high-frequency — a
        # boundary term (df == cutoff) stays REQUIRED (ADVICE r3)
        low = [t for t in self.terms if stats.get(t, (0, 0))[0] <= cutoff]
        high = [t for t in self.terms if t not in low]
        if not low:
            return BooleanQuery(should=[TermQuery(t) for t in high])
        bq = BooleanQuery()
        (bq.must if self.low_freq_occur == "must" else bq.should).extend(
            TermQuery(t) for t in low
        )
        (bq.must if self.high_freq_occur == "must" else bq.should).extend(
            TermQuery(t) for t in high
        )
        return bq


@dataclass(frozen=True)
class FeatureQuery:
    """Static-signal ranking clause (document/FeatureField.java +
    FeatureField.newSaturationQuery/newLogQuery): score derives from a
    per-doc NUMERIC doc value, not term statistics. function='log':
    weight * ln(1 + value); 'saturation': weight * value / (value + pivot).
    Matches every live doc whose value > 0 (FeatureField only indexes
    positive feature values). Composes with BM25 clauses as a plain
    additive SHOULD/MUST clause — the 'boost by pagerank' shape."""

    field: str
    weight: float = 1.0
    function: str = "log"
    pivot: float = 1.0  # saturation only


@dataclass(frozen=True)
class FunctionScoreQuery:
    """Formula-rescored query (queries/.../function/FunctionScoreQuery.java:44
    + expressions/.../Expression.java compile-a-formula): matches exactly the
    docs of ``query``; score = boost * expression evaluated with ``_score``
    bound to the wrapped query's score and any other identifier bound to a
    numeric doc-values field (or ``doc_len``, the norms-stored token count).
    ``expression`` is the SOURCE string (compiled+memoized in
    expressions.py) so the query object stays frozen/hashable for the
    per-reader query cache."""

    query: object
    expression: str
    boost: float = 1.0


@dataclass(frozen=True)
class ToParentBlockJoinQuery:
    """Parent-child block join (join/.../ToParentBlockJoinQuery.java):
    documents are indexed in BLOCKS — children first, their parent LAST,
    contiguous docids (IndexWriter.addDocuments). A parent matches when any
    of its children matches ``child_query``; ``parents_filter`` identifies
    parent docs (the BitSetProducer role — typically a keyword-field term).
    score_mode: 'max' | 'sum' | 'none' over the matching children's scores
    (ScoreMode.Max/Total/None)."""

    child_query: object
    parents_filter: object
    score_mode: str = "max"


@dataclass(frozen=True)
class ToChildBlockJoinQuery:
    """Inverse block join (join/.../ToChildBlockJoinQuery.java): a child
    matches when its PARENT matches ``parent_query``; each child inherits
    the parent's score (doScores) or 1.0. Block layout contract as in
    ToParentBlockJoinQuery: children first, parent LAST, contiguous
    docids, blocks never straddle a segment boundary."""

    parent_query: object
    parents_filter: object
    do_scores: bool = True


@dataclass(frozen=True)
class ParentChildrenBlockJoinQuery:
    """join/.../ParentChildrenBlockJoinQuery.java: given ONE parent docid,
    match that parent's children that also satisfy ``child_query`` (the
    'expand nested hits of this result' query)."""

    parents_filter: object
    child_query: object
    parent_docid: int


@dataclass(frozen=True)
class NestedBooleanQuery:
    """A full BooleanQuery evaluated as ONE clause of an enclosing boolean
    — the reference's nested-clause shape (BooleanQuery.java clauses may
    themselves be BooleanQuery; QueryParser.jj Clause recursion). Matching
    docs follow the inner MUST/SHOULD/MUST_NOT algebra; score = boost * sum
    of the inner matching scoring clauses; the whole group counts as one
    clause for the outer minimumShouldMatch."""

    must: tuple = ()
    should: tuple = ()
    must_not: tuple = ()
    min_should_match: int = 0
    boost: float = 1.0

    def to_boolean(self) -> BooleanQuery:
        return BooleanQuery(
            list(self.must), list(self.should), list(self.must_not),
            self.min_should_match,
        )


_NUM = r"\d+(?:\.\d+)?"
_FPFX = r"(?:[A-Za-z_][A-Za-z0-9_]*:)"
_LEX_RE = re.compile(
    r"(?P<space>\s+)"
    r"|(?P<lparen>(?P<lmod>[+-]?)(?P<lfield>" + _FPFX + r")?\()"
    r"|(?P<rparen>\)(?:\^(?P<gboost>" + _NUM + r"))?)"
    r"|(?P<phrase>(?P<pmod>[+-]?)(?P<pfield>" + _FPFX + r')?"(?P<pbody>(?:\\.|[^"\\])*)"'
    r"(?:~(?P<pslop>\d+))?(?:\^(?P<pboost>" + _NUM + r"))?)"
    r"|(?P<range>(?P<rmod>[+-]?)(?P<rfield>" + _FPFX + r")?(?P<ropen>[\[{])"
    r"(?P<rlo>(?:\\.|[^\s\\\]}])+)\s+TO\s+(?P<rhi>(?:\\.|[^\s\\\]}])+)(?P<rclose>[\]}])"
    r"(?:\^(?P<rboost>" + _NUM + r"))?)"
    r"|(?P<rgx>(?P<xmod>[+-]?)(?P<xfield>" + _FPFX + r")?"
    r"/(?P<xbody>(?:\\.|[^/\\])*)/(?:\^(?P<xboost>" + _NUM + r"))?)"
    r"|(?P<word>(?:\\.|[^\s\\()])+)"
    r"|(?P<badesc>\\)"
)
_BOOST_RE = re.compile(r"^(.*?)\^(\d+(?:\.\d+)?)$")
_FUZZY_RE = re.compile(r"^(.*?)~(\d+(?:\.\d+)?)?$")
_FIELD_RE = re.compile(r"^([a-zA-Z_]+):(.+)$")

# QueryParserBase.escape (queryparser/.../classic/QueryParserBase.java:~1000)
# reserved-character table: \ + - ! ( ) : ^ [ ] " { } ~ * ? | & /
_ESCAPABLE = set('\\+-!():^[]"{}~*?|&/')
_HEX = set("0123456789abcdefABCDEF")


def escape(s: str) -> str:
    """Backslash-escape every reserved classic-syntax character, so the
    result parses as literal text (QueryParserBase.escape's exact table)."""
    return "".join(("\\" + c) if c in _ESCAPABLE else c for c in s)


def discard_escapes(s: str) -> str:
    """Remove escape characters: ``\\x`` -> literal x, ``\\uXXXX`` -> the
    code point (QueryParserBase.discardEscapeChar). Raises ValueError on a
    trailing escape or a malformed unicode escape, as the reference does."""
    out: list[str] = []
    i, n = 0, len(s)
    while i < n:
        c = s[i]
        if c != "\\":
            out.append(c)
            i += 1
            continue
        if i + 1 >= n:
            raise ValueError("term can not end with escape character")
        nxt = s[i + 1]
        if nxt == "u":
            hexs = s[i + 2 : i + 6]
            if len(hexs) < 4 or any(ch not in _HEX for ch in hexs):
                raise ValueError("non-hex character in Unicode escape sequence")
            out.append(chr(int(hexs, 16)))
            i += 6
        else:
            out.append(nxt)
            i += 2
    return "".join(out)


def _has_unescaped(s: str, chars: str) -> bool:
    """True iff any of ``chars`` occurs outside a backslash escape."""
    esc = False
    for c in s:
        if esc:
            esc = False
        elif c == "\\":
            esc = True
        elif c in chars:
            return True
    return False


def _ends_escaped(s: str) -> bool:
    """True iff the character FOLLOWING ``s`` would be escaped (odd run of
    trailing backslashes) — used to veto ^boost / ~fuzzy suffix splits."""
    return (len(s) - len(s.rstrip("\\"))) % 2 == 1


def _queued(texts: list, s: str) -> int:
    """Queue ``s`` for analysis: ``words[k]`` is then its token list."""
    texts.append(s)
    return len(texts) - 1


def _const(*qs):
    return lambda words: list(qs)


def _token_queries(w, is_phrase, boost, slop, texts, field=None):
    """Queries for ONE parsed token: field-scoped term/wildcard, fuzzy,
    wildcard, phrase, or analyzed term(s). ``field`` is the enclosing scope
    (``field:(...)`` / ``field:"..."``); an explicit inline prefix wins.
    ``w`` arrives with backslash escapes INTACT — syntax detection is
    escape-aware (an escaped ``*``/``~`` is literal text), and escapes are
    discarded at each terminal (discardEscapeChar's call sites in
    QueryParserBase.getFieldQuery/getWildcardQuery/getFuzzyQuery).
    Wildcard patterns keep their escapes: WildcardQuery's matcher treats
    ``\\x`` as literal x (search/WildcardQuery.java:55-82).

    Queues the text(s) it analyzes; returns ``build(words) -> [queries]``."""
    from lucene_ray.config import KEYWORD_FIELDS

    def analyzed(k, prefix="", phrase=False):
        # the tokens of texts[k], scoped by prefix: one PhraseQuery when a
        # phrase analyzes to several, else one TermQuery each
        def build(words):
            toks = [prefix + t for t in words[k]]
            if phrase and len(toks) > 1:
                return [PhraseQuery(tuple(toks), boost=boost, slop=slop)]
            return [TermQuery(t, boost=boost) for t in toks]

        return build

    if is_phrase:
        if field in KEYWORD_FIELDS:
            # StringField phrase = exact unanalyzed value match
            return _const(TermQuery(f"{field}:{discard_escapes(w)}", boost=boost))
        if field is not None and field != "content":
            # analyzed-field phrase (field:"..."): analyze, then scope every
            # position-carrying term to the field's shared-dict namespace
            # (QueryParser.getFieldQuery over a non-default TextField)
            return analyzed(_queued(texts, discard_escapes(w)), f"{field}:", True)
    else:
        fm = _FIELD_RE.match(w)
        fld = val = None
        if fm:
            fld, val = fm.group(1), fm.group(2)
        elif field:
            fld, val = field, w
        if fld is not None:
            if fld in KEYWORD_FIELDS:
                # StringField semantics: the value is NOT analyzed
                # (queryparser/.../classic/QueryParser.java:84 field
                # scoping; document/StringField.java exact terms)
                if _has_unescaped(val, "*?"):
                    return _const(WildcardQuery(f"{fld}:{val}", boost=boost))
                return _const(TermQuery(f"{fld}:{discard_escapes(val)}", boost=boost))
            if fld == "content":
                w = val  # the default field — analyze normally
            else:
                # analyzed-field scope (builder analyzed_fields): analyze
                # the value, scope each token to "fld:" — real positions,
                # so wildcards/phrases work per field
                if _has_unescaped(val, "*?"):
                    return _const(WildcardQuery(f"{fld}:{val.lower()}", boost=boost))
                return analyzed(_queued(texts, discard_escapes(val)), f"{fld}:")
        m = _FUZZY_RE.match(w)
        if m and m.group(1) and not _ends_escaped(m.group(1)):
            k, sl = _queued(texts, discard_escapes(m.group(1))), m.group(2)

            def fuzzy(words):
                term = "".join(words[k])
                if not sl:
                    edits = 2  # bare ~ = defaultMaxEdits
                else:
                    # FuzzyQuery.floatToEdits verbatim (handleBareFuzzy's
                    # legacy float-similarity path): >=1 clamps to the
                    # 2-edit Levenshtein maximum, 0.0 means EXACT, a
                    # fraction scales with the term length
                    f = float(sl)
                    if f >= 1.0:
                        edits = min(int(f), 2)
                    elif f == 0.0:
                        edits = 0
                    else:
                        edits = min(int((1.0 - f) * len(term)), 2)
                return [FuzzyQuery(term, max_edits=edits, boost=boost)] if term else []

            return fuzzy
        if _has_unescaped(w, "*?"):
            return _const(WildcardQuery(w.lower(), boost=boost))
    if is_phrase and _has_unescaped(w, "*?"):
        # ComplexPhraseQueryParser semantics (queryparser/complexPhrase/
        # ComplexPhraseQueryParser.java:61): wildcards INSIDE a quoted
        # phrase make each wildcard word a multi-term slot — the phrase
        # rewrites through PhraseWildcardQuery. Slop is not supported on
        # wildcard phrases here (the reference rewrites through span
        # queries for slop; documented divergence).
        if slop:
            raise ValueError("wildcard phrases do not support slop")
        # a wildcard word is its own slot; any other word, its tokens
        slots = [
            [word.lower()] if _has_unescaped(word, "*?")
            else _queued(texts, discard_escapes(word))
            for word in w.split()
        ]

        def phrase(words):
            flat = [t for s in slots for t in (s if isinstance(s, list) else words[s])]
            if len(flat) > 1:
                return [PhraseWildcardQuery(tuple(flat), boost=boost)]
            return [WildcardQuery(t, boost=boost) for t in flat]

        return phrase
    return analyzed(_queued(texts, discard_escapes(w)), "", is_phrase)


def _range_query(field, lo_raw, hi_raw, incl_lo, incl_hi, boost, texts):
    """``field:[a TO b]`` / ``{a TO b}`` (QueryParser.jj RangeQuery
    production; TermRangeQuery.java / PointRangeQuery.java targets).
    ``*`` = open bound. Numeric doc-value fields route to PointRangeQuery
    (inclusive bounds, so exclusive brackets shift by one); keyword fields
    range over their 'field:value' namespace; the default field analyzes
    its endpoints like the classic parser does (queued on ``texts``, as in
    :func:`_token_queries`; returns ``build(words) -> [query]``)."""
    from lucene_ray.config import KEYWORD_FIELDS, NUMERIC_DV_FIELDS

    lo = None if lo_raw == "*" else discard_escapes(lo_raw)
    hi = None if hi_raw == "*" else discard_escapes(hi_raw)
    if field in NUMERIC_DV_FIELDS:
        def bound(x, adj):
            if x is None:
                return None
            try:
                return int(x) + adj
            except ValueError:
                raise ValueError(
                    f"numeric range bound {x!r} for field {field!r}"
                ) from None

        return _const(PointRangeQuery(
            field,
            bound(lo, 0 if incl_lo else 1),
            bound(hi, 0 if incl_hi else -1),
            boost=boost,
        ))
    if field in KEYWORD_FIELDS:
        # open ends stay INSIDE this field's term namespace: ';' is ':'+1,
        # so ["f:", "f;") spans exactly the f-prefixed keyword terms
        return _const(TermRangeQuery(
            f"{field}:{lo}" if lo is not None else f"{field}:",
            f"{field}:{hi}" if hi is not None else f"{field};",
            incl_lo if lo is not None else True,
            incl_hi if hi is not None else False,
            boost=boost,
        ))
    ends = [None if x is None else _queued(texts, x) for x in (lo, hi)]

    def build(words):
        # an endpoint is its first token (open when it analyzes away)
        lower, upper = (words[k][0] if k is not None and words[k] else None for k in ends)
        return [TermRangeQuery(lower, upper, incl_lo, incl_hi, boost=boost)]

    return build


def _scale_boost(q, factor: float):
    if factor == 1.0:
        return q
    import dataclasses

    if hasattr(q, "boost"):
        return dataclasses.replace(q, boost=getattr(q, "boost", 1.0) * factor)
    return q


def _group_clause(sub: BooleanQuery, boost: float) -> list:
    """The clause (none for an empty group) of a parsed parenthesized
    group (QueryParser.jj Clause -> nested BooleanQuery). A pure-SHOULD
    group stays a DisjunctionSumQuery (same semantics, pruning-friendly);
    any MUST/MUST_NOT structure becomes a NestedBooleanQuery."""
    if not (sub.must or sub.should or sub.must_not):
        return []
    if not sub.must and not sub.must_not and sub.min_should_match <= 1:
        disjuncts = tuple(_scale_boost(q, boost) for q in sub.should)
        if len(disjuncts) == 1:
            return [disjuncts[0]]
        return [DisjunctionSumQuery(disjuncts)]
    return [sub.freeze(boost)]


def parse_query(text: str, analyzer) -> BooleanQuery:
    """Recursive-descent classic-syntax parser
    (queryparser/.../classic/QueryParser.java:84 grammar subset):
    arbitrary-depth ``( ... )`` groups (with ``+``/``-``/field prefixes and
    ``^boost``), ``[a TO b]`` / ``{a TO b}`` ranges, AND/OR/&&/||/NOT with
    the reference's addClause semantics (AND promotes the PREVIOUS clause
    to required and requires the current one; default operator is OR).
    Raises ValueError on unbalanced parentheses. The descent queues the
    text of every analyzable terminal; ONE analyzer call then analyzes
    them all (``analyzer.tokenize_texts``), and only then is the query
    built."""
    toks = [m for m in _LEX_RE.finditer(text) if not m.group("space")]
    texts: list[str] = []
    build, i = _parse_bool(toks, 0, texts, None, 0)
    if i != len(toks):
        raise ValueError("unbalanced ')' in query")
    return build(analyzer.tokenize_texts(texts) if texts else [])


def _parse_bool(toks: list, i: int, texts: list, field_ctx: str | None, depth: int):
    """One boolean level; stops (without consuming) at ')' when depth>0.
    Returns (build(words) -> BooleanQuery, next token index)."""
    # (occur, AND-joined, build) per SYNTACTIC clause — kept in order so a
    # later AND can promote the previous clause (QueryParser.addClause)
    clauses: list[tuple] = []
    conj: str | None = None
    mod: str | None = None
    while i < len(toks):
        m = toks[i]
        if m.group("rparen"):
            if depth == 0:
                raise ValueError("unbalanced ')' in query")
            break  # caller consumes the ')^boost' token
        if m.group("badesc"):
            # a lone trailing backslash (QueryParserBase.discardEscapeChar:
            # "Term can not end with escape character")
            raise ValueError("term can not end with escape character")
        word = m.group("word")
        if word in ("AND", "&&"):
            conj = "and"
            i += 1
            continue
        if word in ("OR", "||"):
            conj = "or"
            i += 1
            continue
        if word == "NOT":
            mod = "-"
            i += 1
            continue

        if m.group("lparen"):
            fld = (m.group("lfield") or "").rstrip(":") or field_ctx
            sub, j = _parse_bool(toks, i + 1, texts, fld, depth + 1)
            if j >= len(toks) or not toks[j].group("rparen"):
                raise ValueError("missing ')' in query")
            qb = _group(sub, float(toks[j].group("gboost") or 1.0))
            i = j + 1
            cmod = m.group("lmod") or mod
        elif m.group("phrase"):
            fld = (m.group("pfield") or "").rstrip(":") or field_ctx
            qb = _token_queries(
                m.group("pbody"), True,
                float(m.group("pboost") or 1.0),
                int(m.group("pslop") or 0),
                texts, field=fld,
            )
            cmod = m.group("pmod") or mod
            i += 1
        elif m.group("range"):
            fld = (m.group("rfield") or "").rstrip(":") or field_ctx
            qb = _range_query(
                fld, m.group("rlo"), m.group("rhi"),
                m.group("ropen") == "[", m.group("rclose") == "]",
                float(m.group("rboost") or 1.0), texts,
            )
            cmod = m.group("rmod") or mod
            i += 1
        elif m.group("rgx"):
            # /regexp/ terms (QueryParser.jj <REGEXPTERM>;
            # QueryParserBase.getRegexpQuery). Only \/ is unescaped — the
            # rest of the body reaches RegexpQuery verbatim, as in the
            # reference (regex escapes are the regex engine's business).
            fld = (m.group("xfield") or "").rstrip(":") or field_ctx
            body = m.group("xbody").replace("\\/", "/")
            if fld is not None and fld != "content":
                # field-scoped regexp runs in the 'field:' term namespace
                # (both keyword and analyzed fields store scoped terms)
                body = f"{fld}:{body}"
            qb = _const(RegexpQuery(body, boost=float(m.group("xboost") or 1.0)))
            cmod = m.group("xmod") or mod
            i += 1
        else:
            w = word
            cmod = mod
            if w.startswith("+") and len(w) > 1:
                cmod, w = "+", w[1:]
            elif w.startswith("-") and len(w) > 1:
                cmod, w = "-", w[1:]
            boost = 1.0
            bm = _BOOST_RE.match(w)
            if bm and bm.group(1) and not _ends_escaped(bm.group(1)):
                w, boost = bm.group(1), float(bm.group(2))
            qb = _token_queries(w, False, boost, 0, texts, field=field_ctx)
            i += 1

        occur = {"-": "must_not", "+": "must"}.get(cmod, "must" if conj == "and" else "should")
        clauses.append((occur, conj == "and", qb))
        conj = None
        mod = None
    return lambda words: _assemble(clauses, words), i


def _group(sub, boost: float):
    return lambda words: _group_clause(sub(words), boost)


def _assemble(clauses: list, words: list) -> BooleanQuery:
    """One level's BooleanQuery from its analyzed clauses. A clause whose
    text analyzed away adds nothing, so an AND after it promotes the
    clause before it (addClause: AND requires the previous SHOULD)."""
    kept: list[list] = []
    for occur, anded, build in clauses:
        if anded and kept and kept[-1][0] == "should":
            kept[-1][0] = "must"
        qs = build(words)
        if qs:
            kept.append([occur, qs])
    bq = BooleanQuery()
    for occur, qs in kept:
        getattr(bq, occur).extend(qs)
    return bq


def iter_clauses(bq: BooleanQuery):
    """Every clause of ``bq`` including nested disjuncts / wrapped
    subqueries / nested-boolean members (the canonical clause walk shared
    by scorer building, term-stat collection, and rewrite detection)."""
    stack = list(bq.must + bq.should + bq.must_not)
    while stack:
        q = stack.pop()
        yield q
        if isinstance(q, (DisjunctionMaxQuery, DisjunctionSumQuery)):
            stack.extend(q.disjuncts)
        elif isinstance(q, ConstantScoreQuery):
            stack.append(q.query)
        elif isinstance(q, NestedBooleanQuery):
            stack.extend(q.must + q.should + q.must_not)
        elif isinstance(q, ToParentBlockJoinQuery):
            stack.append(q.child_query)
            stack.append(q.parents_filter)
        elif isinstance(q, ToChildBlockJoinQuery):
            stack.append(q.parent_query)
            stack.append(q.parents_filter)
        elif isinstance(q, ParentChildrenBlockJoinQuery):
            stack.append(q.child_query)
            stack.append(q.parents_filter)
        elif isinstance(q, FunctionScoreQuery):
            stack.append(q.query)
        elif isinstance(q, CoveringQuery):
            stack.extend(q.queries)


def apply_multi_synonyms(bq: BooleanQuery, rules: dict) -> BooleanQuery:
    """Query-time multi-token synonyms — the reference's recommended use of
    SynonymGraphFilter (analysis/common/.../synonym/SynonymGraphFilter.java:57
    applied at QUERY time; util/QueryBuilder.java:246 createFieldQuery ->
    analyzeGraphBoolean turns each graph path into a clause): every run of
    consecutive SHOULD TermQuery clauses matching a rule's multi-token LHS
    collapses into ONE disjunction of (the exact phrase | the synonym term)
    — "machine learning" matches docs phrasing it OR saying "ml".

    ``rules``: {(tok, tok, ...): "synonym_token"}. Only the SHOULD list is
    rewritten (the default-operator search-box case); MUST/MUST_NOT clauses
    keep user-explicit semantics. Returns a new BooleanQuery."""
    out = BooleanQuery(
        must=list(bq.must),
        must_not=list(bq.must_not),
        min_should_match=bq.min_should_match,
    )
    should = list(bq.should)
    i = 0
    max_len = max((len(k) for k in rules), default=0)
    while i < len(should):
        matched = None
        for ln in range(min(max_len, len(should) - i), 1, -1):
            window = should[i : i + ln]
            if all(isinstance(q, TermQuery) and q.boost == 1.0 for q in window):
                key = tuple(q.term for q in window)
                if key in rules:
                    matched = (ln, key)
                    break
        if matched:
            ln, key = matched
            out.should.append(
                DisjunctionSumQuery(
                    (PhraseQuery(key), TermQuery(rules[key]))
                )
            )
            i += ln
        else:
            out.should.append(should[i])
            i += 1
    return out

"""XML query parser — the CoreParser element set re-expressed over the
repo's query dataclasses (queryparser/xml/CoreParser.java and its
builders/*.java: each element name maps to a QueryBuilder; spec files
cited per element below). stdlib ElementTree (py3 default: no external
entity resolution), original implementation.

Supported elements (the CoreParser default-builder subset):
  <BooleanQuery>(Clause occurs=must|should|mustNot)* — BooleanQueryBuilder
  <UserQuery>                — UserInputQueryBuilder (classic parse_query)
  <TermQuery fieldName=>     — TermQueryBuilder (value ANALYZED, first tok)
  <TermsQuery fieldName=>    — TermsQueryBuilder (whitespace-ish split ->
                               TermInSetQuery)
  <MatchAllDocsQuery/>       — MatchAllDocsQueryBuilder
  <ConstantScoreQuery>       — ConstantScoreQueryBuilder (one child)
  <DisjunctionMaxQuery tieBreaker=> — DisjunctionMaxQueryBuilder
  <RangeQuery fieldName= lowerTerm= upperTerm= includeLower= includeUpper=>
                             — RangeQueryBuilder (keyword/content term
                               range; numeric DV fields -> PointRange)
  <PointRangeQuery fieldName= lowerTerm= upperTerm=> — PointRangeQueryBuilder
  <SpanTerm fieldName=> / <SpanNear slop= inOrder=> / <SpanOr> /
  <SpanFirst end=> / <SpanNot>  — Span*Builder family
  <BoostingTermQuery fieldName=> — BoostingTermBuilder (CorePlusQueries:
                               PayloadScoreQuery, average function)
  <FuzzyLikeThisQuery maxNumTerms= ignoreTF=><Field fieldName=
      minSimilarity= prefixLength=>text</Field>+</FuzzyLikeThisQuery>
                             — FuzzyLikeThisQueryBuilder (lazy: the
                               searcher rewrites it against the reader)
Every element honors a ``boost`` attribute where the target query carries
one (CoreParser applies boosts via BoostQuery wrapping).
"""

from __future__ import annotations

import xml.etree.ElementTree as ET

from lucene_ray.search.query import (
    BooleanQuery,
    ConstantScoreQuery,
    DisjunctionMaxQuery,
    MatchAllDocsQuery,
    PointRangeQuery,
    SpanFirstQuery,
    SpanNearQuery,
    SpanNotQuery,
    SpanOrQuery,
    SpanTermQuery,
    TermInSetQuery,
    TermQuery,
    TermRangeQuery,
    parse_query,
)


class XMLParseError(ValueError):
    pass


class CoreParser:
    """parse(xml) -> BooleanQuery ready for IndexSearcher.search."""

    def __init__(self, analyzer):
        self.analyzer = analyzer

    def parse(self, xml: str) -> BooleanQuery:
        try:
            root = ET.fromstring(xml)
        except ET.ParseError as e:
            raise XMLParseError(f"malformed query XML: {e}") from None
        q = self._query(root)
        if isinstance(q, BooleanQuery):
            return q
        return BooleanQuery(should=[q])

    # ------------------------------------------------------------ helpers

    def _boost(self, el) -> float:
        return float(el.get("boost", 1.0))

    def _field(self, el) -> str:
        f = el.get("fieldName")
        if not f:
            raise XMLParseError(f"<{el.tag}> requires fieldName")
        return f

    def _children(self, el) -> list:
        return [self._query(c) for c in el]

    def _one_child(self, el):
        kids = list(el)
        if len(kids) != 1:
            raise XMLParseError(f"<{el.tag}> needs exactly one child query")
        return self._query(kids[0])

    def _term(self, field: str, text: str) -> str:
        """TermQueryBuilder analyzes the element text and takes the first
        token; keyword fields keep the raw value in their namespace."""
        from lucene_ray.config import KEYWORD_FIELDS

        if field in KEYWORD_FIELDS:
            return f"{field}:{text}"
        toks = self.analyzer.tokenize_text(text)
        if not toks:
            raise XMLParseError(f"term text {text!r} analyzed to nothing")
        if field == "content":
            return toks[0]
        return f"{field}:{toks[0]}"

    # ------------------------------------------------------------ dispatch

    def _query(self, el):
        m = getattr(self, f"_q_{el.tag}", None)
        if m is None:
            raise XMLParseError(f"unsupported query element <{el.tag}>")
        return m(el)

    def _q_BooleanQuery(self, el):
        bq = BooleanQuery()
        msm = el.get("minimumNumberShouldMatch")
        if msm is not None:
            bq.min_should_match = int(msm)
        for clause in el:
            if clause.tag != "Clause":
                raise XMLParseError(
                    f"<BooleanQuery> children must be <Clause>, got "
                    f"<{clause.tag}>"
                )
            occurs = clause.get("occurs", "should")
            kids = list(clause)
            if len(kids) != 1:
                raise XMLParseError("<Clause> needs exactly one child query")
            sub = self._query(kids[0])
            if occurs == "must":
                bq.must.append(sub)
            elif occurs == "should":
                bq.should.append(sub)
            elif occurs in ("mustNot", "mustnot"):
                bq.must_not.append(sub)
            else:
                raise XMLParseError(f"unknown occurs={occurs!r}")
        return bq

    def _q_UserQuery(self, el):
        sub = parse_query((el.text or "").strip(), self.analyzer)
        from lucene_ray.search.query import _group_clause

        qs = _group_clause(sub, self._boost(el))
        if not qs:
            raise XMLParseError("<UserQuery> text produced no clauses")
        return qs[0]

    def _q_TermQuery(self, el):
        return TermQuery(
            self._term(self._field(el), (el.text or "").strip()),
            boost=self._boost(el),
        )

    def _q_TermsQuery(self, el):
        field = self._field(el)
        terms = []
        for w in (el.text or "").split():
            try:
                terms.append(self._term(field, w))
            except XMLParseError:
                continue  # TermsQueryBuilder skips empty analyses
        return TermInSetQuery(tuple(terms), boost=self._boost(el))

    def _q_MatchAllDocsQuery(self, _el):
        return MatchAllDocsQuery()

    def _q_ConstantScoreQuery(self, el):
        return ConstantScoreQuery(self._one_child(el), boost=self._boost(el))

    def _q_DisjunctionMaxQuery(self, el):
        return DisjunctionMaxQuery(
            tuple(self._children(el)),
            tie_breaker=float(el.get("tieBreaker", 0.0)),
        )

    def _q_RangeQuery(self, el):
        from lucene_ray.search.query import _range_query

        field = self._field(el)
        lo = el.get("lowerTerm")
        hi = el.get("upperTerm")
        incl_lo = el.get("includeLower", "true").lower() == "true"
        incl_hi = el.get("includeUpper", "true").lower() == "true"
        texts: list[str] = []
        build = _range_query(
            field, lo if lo is not None else "*", hi if hi is not None else "*",
            incl_lo, incl_hi, self._boost(el), texts,
        )
        return build(self.analyzer.tokenize_texts(texts))[0]

    def _q_PointRangeQuery(self, el):
        lo = el.get("lowerTerm")
        hi = el.get("upperTerm")
        return PointRangeQuery(
            self._field(el),
            int(lo) if lo is not None else None,
            int(hi) if hi is not None else None,
            boost=self._boost(el),
        )

    # ------------------------------------------------------------- spans

    def _span(self, el):
        q = self._query(el)
        span_types = (
            SpanTermQuery, SpanNearQuery, SpanOrQuery, SpanFirstQuery,
            SpanNotQuery,
        )
        if not isinstance(q, span_types):
            raise XMLParseError(f"<{el.tag}> is not a span query")
        return q

    def _q_SpanTerm(self, el):
        toks = self.analyzer.tokenize_text((el.text or "").strip())
        if not toks:
            raise XMLParseError("<SpanTerm> analyzed to nothing")
        return SpanTermQuery(toks[0])

    def _q_SpanNear(self, el):
        return SpanNearQuery(
            tuple(self._span(c) for c in el),
            slop=int(el.get("slop", 0)),
            ordered=el.get("inOrder", "true").lower() == "true",
        )

    def _q_SpanOr(self, el):
        return SpanOrQuery(tuple(self._span(c) for c in el))

    def _q_SpanFirst(self, el):
        kids = list(el)
        if len(kids) != 1:
            raise XMLParseError("<SpanFirst> needs exactly one child")
        return SpanFirstQuery(self._span(kids[0]), end=int(el.get("end", 1)))

    def _q_SpanNot(self, el):
        kids = list(el)
        if len(kids) != 2:
            raise XMLParseError("<SpanNot> needs include + exclude children")
        return SpanNotQuery(self._span(kids[0]), self._span(kids[1]))

    def _q_BoostingTermQuery(self, el):
        """BoostingTermBuilder (CorePlusQueries): PayloadScoreQuery over a
        SpanTerm with the average payload function."""
        from lucene_ray.search.query import PayloadScoreQuery

        field = self._field(el)
        text = (el.text or "").strip()
        if not text:
            raise XMLParseError("<BoostingTermQuery> needs term text")
        return PayloadScoreQuery(
            terms=(self._term(field, text),),
            function="avg",
            boost=self._boost(el),
        )

    def _q_LikeThisQuery(self, el):
        """LikeThisQueryBuilder (CorePlusQueries): MoreLikeThisQuery from
        the element text (lazy, rewritten by the searcher);
        percentTermsToMatch becomes minimumNumberShouldMatch. Multi-field
        fieldNames are out of scope here (the content field only)."""
        from lucene_ray.search.mlt import MoreLikeThisQuery

        text = (el.text or "").strip()
        if not text:
            raise XMLParseError("<LikeThisQuery> needs like-text")
        return MoreLikeThisQuery(
            text,
            self.analyzer,
            max_query_terms=int(el.get("maxQueryTerms", 20)),
            min_term_freq=int(el.get("minTermFrequency", 1)),
            percent_terms_to_match=float(el.get("percentTermsToMatch", 30))
            / 100.0,
            boost=self._boost(el),
        )

    def _q_FuzzyLikeThisQuery(self, el):
        """FuzzyLikeThisQueryBuilder (queryparser/xml/builders/
        FuzzyLikeThisQueryBuilder.java): maxNumTerms / ignoreTF on the
        root, one addTerms call per <Field fieldName=...>text</Field>
        child (minSimilarity default = FuzzyQuery's 2 edits, prefixLength
        default 1). Returned lazily — IndexSearcher.search rewrites it
        against the reader."""
        from lucene_ray.search.fuzzylikethis import FuzzyLikeThisQuery

        q = FuzzyLikeThisQuery(
            int(el.get("maxNumTerms", 50)),
            ignore_tf=el.get("ignoreTF", "false").lower() == "true",
        )
        fields = [c for c in el if c.tag == "Field"]
        if not fields:
            raise XMLParseError("<FuzzyLikeThisQuery> needs <Field> children")
        for f in fields:
            q.add_terms(
                (f.text or "").strip(),
                f.get("fieldName", "content"),
                float(f.get("minSimilarity", 2.0)),
                int(f.get("prefixLength", 1)),
            )
        return q

"""XML CoreParser (queryparser/xml/CoreParser.java builder set)."""

import duckdb
import pytest

from lucene_ray.analysis.analyzer import CodeAnalyzer
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
    TermInSetQuery,
    TermQuery,
    TermRangeQuery,
)
from lucene_ray.search.xmlparser import CoreParser, XMLParseError

SF = "/root/testdata/sf0.001"
P = CoreParser(CodeAnalyzer())


class TestElements:
    def test_term_query_analyzed(self):
        q = P.parse('<TermQuery fieldName="content">Merge!</TermQuery>')
        assert q.should == [TermQuery("merge")]

    def test_term_query_keyword_namespace(self):
        q = P.parse('<TermQuery fieldName="lang">en</TermQuery>')
        assert q.should == [TermQuery("lang:en")]

    def test_boolean_clauses(self):
        q = P.parse(
            '<BooleanQuery minimumNumberShouldMatch="1">'
            '<Clause occurs="must"><TermQuery fieldName="content">a1</TermQuery></Clause>'
            '<Clause occurs="should"><TermQuery fieldName="content">b2</TermQuery></Clause>'
            '<Clause occurs="mustNot"><TermQuery fieldName="content">c3</TermQuery></Clause>'
            "</BooleanQuery>"
        )
        assert len(q.must) == 1 and len(q.should) == 1 and len(q.must_not) == 1
        assert q.min_should_match == 1

    def test_user_query_embeds_classic_parser(self):
        q = P.parse("<UserQuery>mer* AND sort</UserQuery>")
        (nested,) = q.should
        assert nested.must  # classic AND semantics inside

    def test_terms_query(self):
        q = P.parse('<TermsQuery fieldName="content">a b c</TermsQuery>')
        assert q.should == [TermInSetQuery(("a", "b", "c"))]

    def test_range_routes_numeric_vs_term(self):
        q = P.parse('<RangeQuery fieldName="n_chars" lowerTerm="5" upperTerm="9"/>')
        assert q.should == [PointRangeQuery("n_chars", 5, 9)]
        q2 = P.parse(
            '<RangeQuery fieldName="lang" lowerTerm="de" upperTerm="es" '
            'includeUpper="false"/>'
        )
        assert q2.should == [
            TermRangeQuery("lang:de", "lang:es", True, False)
        ]

    def test_point_range_open_ends(self):
        q = P.parse('<PointRangeQuery fieldName="n_chars" lowerTerm="7"/>')
        assert q.should == [PointRangeQuery("n_chars", 7, None)]

    def test_dismax_and_constant_score(self):
        q = P.parse(
            '<DisjunctionMaxQuery tieBreaker="0.3">'
            '<TermQuery fieldName="content">x1</TermQuery>'
            "<MatchAllDocsQuery/>"
            "</DisjunctionMaxQuery>"
        )
        (dm,) = q.should
        assert isinstance(dm, DisjunctionMaxQuery) and dm.tie_breaker == 0.3
        assert isinstance(dm.disjuncts[1], MatchAllDocsQuery)
        q2 = P.parse(
            '<ConstantScoreQuery boost="2">'
            '<TermQuery fieldName="content">x1</TermQuery>'
            "</ConstantScoreQuery>"
        )
        assert isinstance(q2.should[0], ConstantScoreQuery)
        assert q2.should[0].boost == 2.0

    def test_span_family(self):
        q = P.parse(
            '<SpanNot>'
            '<SpanNear slop="2" inOrder="false">'
            '<SpanTerm fieldName="content">a1</SpanTerm>'
            '<SpanOr><SpanTerm fieldName="content">b2</SpanTerm></SpanOr>'
            "</SpanNear>"
            '<SpanFirst end="3"><SpanTerm fieldName="content">c3</SpanTerm></SpanFirst>'
            "</SpanNot>"
        )
        (sn,) = q.should
        assert isinstance(sn, SpanNotQuery)
        assert isinstance(sn.include, SpanNearQuery) and not sn.include.ordered
        assert isinstance(sn.include.terms[1], SpanOrQuery)
        assert isinstance(sn.exclude, SpanFirstQuery) and sn.exclude.end == 3

    def test_errors(self):
        for bad in (
            "<Nope/>",
            "<TermQuery>x</TermQuery>",
            "not xml at all",
            '<ConstantScoreQuery boost="1"/>',
            '<BooleanQuery><TermQuery fieldName="content">x</TermQuery></BooleanQuery>',
            '<SpanNot><SpanTerm fieldName="content">a</SpanTerm></SpanNot>',
        ):
            with pytest.raises(XMLParseError):
                P.parse(bad)


@pytest.mark.usefixtures("ray_session")
def test_xmlparser_gate_parity():
    from lucene_ray.ops import bm25docs
    from tests.test_ops import assert_same

    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{SF}/documents.parquet')"
    )
    assert_same(
        bm25docs.xmlparser_engine(SF), con, bm25docs.xmlparser_engine_sql()
    )


@pytest.mark.usefixtures("ray_session")
def test_fuzzylikethis_element():
    """FuzzyLikeThisQueryBuilder: lazy query, rewritten by the searcher;
    hits equal the explicit FuzzyLikeThisQuery rewrite."""
    from lucene_ray.ops.bm25docs import _engine_index
    from lucene_ray.search.engine import IndexSearcher
    from lucene_ray.search.fuzzylikethis import FuzzyLikeThisQuery
    from lucene_ray.search.reader import IndexReader

    s = IndexSearcher(_engine_index(SF))
    q = P.parse(
        '<FuzzyLikeThisQuery maxNumTerms="12">'
        '<Field fieldName="content" minSimilarity="1" prefixLength="0">'
        "merge windw</Field></FuzzyLikeThisQuery>"
    )
    td = s.search(q, 1 << 20)
    want = FuzzyLikeThisQuery(12)
    want.add_terms("merge windw", "content", 1.0, 0)
    rd = IndexReader(_engine_index(SF))
    td2 = s.search(want.rewrite(rd), 1 << 20)
    assert sorted(td.docids.tolist()) == sorted(td2.docids.tolist())
    assert len(td.docids) > 0
    # defaults + validation
    with pytest.raises(XMLParseError):
        P.parse("<FuzzyLikeThisQuery/>")


@pytest.mark.usefixtures("ray_session")
def test_boosting_term_element():
    """BoostingTermBuilder: PayloadScoreQuery(avg) over the payload index."""
    from lucene_ray.ops.bm25docs import _engine_index
    from lucene_ray.search.engine import IndexSearcher
    from lucene_ray.search.query import PayloadScoreQuery

    q = P.parse('<BoostingTermQuery fieldName="content">merge</BoostingTermQuery>')
    inner = q.should[0]
    assert isinstance(inner, PayloadScoreQuery)
    assert inner.function == "avg" and inner.terms == ("merge",)
    s = IndexSearcher(_engine_index(SF, payload_fn="term_length"))
    td = s.search(q, 10)
    assert len(td.docids) > 0
    # payload avg for 'merge' occurrences = len('merge') = 5 everywhere
    assert all(abs(x - 5.0) < 1e-6 for x in td.scores.tolist())


@pytest.mark.usefixtures("ray_session")
def test_like_this_element():
    """LikeThisQueryBuilder: lazy MLT, percentTermsToMatch ->
    minimumNumberShouldMatch at rewrite."""
    from lucene_ray.ops.bm25docs import _engine_index
    from lucene_ray.search.engine import IndexSearcher
    from lucene_ray.search.reader import IndexReader

    s = IndexSearcher(_engine_index(SF))
    q = P.parse(
        '<LikeThisQuery maxQueryTerms="8" percentTermsToMatch="50">'
        "merge the window sort batch</LikeThisQuery>"
    )
    inner = q.should[0]
    rw = inner.rewrite(IndexReader(_engine_index(SF)))
    assert rw.should and rw.min_should_match == int(len(rw.should) * 0.5)
    td = s.search(q, 1 << 20)
    td2 = s.search(rw, 1 << 20)
    assert sorted(td.docids.tolist()) == sorted(td2.docids.tolist())
    assert len(td.docids) > 0
    with pytest.raises(XMLParseError):
        P.parse("<LikeThisQuery/>")

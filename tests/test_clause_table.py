"""The clause table (search/scorer.py CLAUSE_TABLE) and the one
query-preparation path (IndexSearcher.prepare).

Every query type either has a clause-table row or is rewritten away before
scoring; a type with neither raises instead of silently matching nothing.
Reader-lazy queries (CommonTermsQuery, FuzzyLikeThisQuery,
MoreLikeThisQuery) rewrite in every boolean clause list, so search, count
and explain agree with the explicitly rewritten query."""

import dataclasses
import glob
import inspect

import pytest

from lucene_ray.index.builder import build_index
from lucene_ray.index.corpus import write_corpus
from lucene_ray.search import query as query_module
from lucene_ray.search.engine import IndexSearcher
from lucene_ray.search.fuzzylikethis import FuzzyLikeThisQuery
from lucene_ray.search.mlt import MoreLikeThisQuery
from lucene_ray.search.query import (
    BooleanQuery,
    CommonTermsQuery,
    FieldMaskingSpanQuery,
    PhraseWildcardQuery,
    SpanMultiTermWrapper,
    SpanTermQuery,
    TermQuery,
)
from lucene_ray.search.rewrite import MULTI_TERM_TYPES
from lucene_ray.search.scorer import CLAUSE_TABLE, CONST, FREQ, SCORED, TERM
from lucene_ray.search.termautomaton import TermAutomatonQuery

# removed by IndexSearcher.prepare / maybe_rewrite before any clause is built
REWRITTEN_AWAY = set(MULTI_TERM_TYPES) | {
    PhraseWildcardQuery,
    SpanMultiTermWrapper,
    CommonTermsQuery,
    FuzzyLikeThisQuery,
    MoreLikeThisQuery,
    BooleanQuery,
}


@pytest.fixture(scope="module")
def searcher(tmp_path_factory, ray_session):
    corpus = str(tmp_path_factory.mktemp("corpus"))
    write_corpus(corpus, n_docs=400, n_shards=2, seed=9, row_group_size=50)
    d = str(tmp_path_factory.mktemp("ix"))
    build_index(sorted(glob.glob(corpus + "/*.parquet")), d, target_docs=100)
    return IndexSearcher(d)


def _docs(s, q) -> set:
    return set(s.search(q, 1 << 20).docids.tolist())


def test_every_query_type_has_a_row_or_is_rewritten():
    types = [
        c
        for _name, c in inspect.getmembers(query_module, inspect.isclass)
        if dataclasses.is_dataclass(c) and c.__module__ == query_module.__name__
    ] + [TermAutomatonQuery]
    missing = [
        t.__name__ for t in types if t not in CLAUSE_TABLE and t not in REWRITTEN_AWAY
    ]
    assert not missing, f"query types with no clause-table row: {missing}"
    assert not REWRITTEN_AWAY & set(CLAUSE_TABLE)
    assert {row.kind for row in CLAUSE_TABLE.values()} == {TERM, FREQ, CONST, SCORED}


def test_unknown_clause_type_raises(searcher):
    @dataclasses.dataclass(frozen=True)
    class UnknownQuery:
        boost: float = 1.0

    for bq in (
        BooleanQuery(should=[UnknownQuery()]),
        BooleanQuery(should=[TermQuery("catch")], must_not=[UnknownQuery()]),
    ):
        with pytest.raises(TypeError, match="UnknownQuery"):
            searcher.search(bq)
        with pytest.raises(TypeError, match="UnknownQuery"):
            searcher.count(bq)


def test_top_level_field_masking_span_scores_like_its_inner_query(searcher):
    inner = SpanTermQuery("catch")
    a = searcher.search(BooleanQuery(should=[inner]), 20)
    b = searcher.search(BooleanQuery(should=[FieldMaskingSpanQuery(inner, "content")]), 20)
    assert len(a.docids)
    assert a.docids.tolist() == b.docids.tolist()
    assert a.scores.tolist() == b.scores.tolist()


def _fuzzy_double():
    q = FuzzyLikeThisQuery(10)
    q.add_terms("double", "content", 1.0, 0)
    return q


@pytest.mark.parametrize("slot", ["must_not", "must"])
@pytest.mark.parametrize(
    "lazy", [lambda: CommonTermsQuery(("double",)), _fuzzy_double],
    ids=["common_terms", "fuzzy_like_this"],
)
def test_lazy_clause_prepares_like_its_rewrite(searcher, slot, lazy):
    s = searcher
    q = lazy()
    as_lazy = BooleanQuery(should=[TermQuery("catch")], **{slot: [q]})
    rewritten = BooleanQuery(
        should=[TermQuery("catch")], **{slot: [q.rewrite(s.reader).freeze()]}
    )
    want = _docs(s, rewritten)
    assert _docs(s, as_lazy) == want
    assert s.count(as_lazy) == s.count(rewritten) == len(want)
    catch = _docs(s, BooleanQuery(should=[TermQuery("catch")]))
    double = _docs(s, BooleanQuery(should=[TermQuery("double")]))
    if isinstance(q, CommonTermsQuery):  # the rewrite is the plain term
        plain = BooleanQuery(should=[TermQuery("catch")], **{slot: [TermQuery("double")]})
        assert want == _docs(s, plain)
        assert want == (catch - double if slot == "must_not" else double)


def test_explain_top_level_lazy_query_matches_search(searcher):
    s = searcher
    q = CommonTermsQuery(("catch",))
    td = s.search(q, 5)
    assert len(td.docids)
    for d, score in zip(td.docids, td.scores):
        ex = s.explain(q, int(d))
        assert ex.is_match
        assert ex.value == float(score)

"""The benchmark's tracer (perfbench/spans.py) wraps engine functions by
replacing ``owner.__dict__[attr]`` for a fixed list of attributes. A
refactor that moves one of them (say, ``tokenize_flat`` off
``CodeAnalyzer``) breaks the tracer; entering and leaving it here makes
that fail the main test suite, not only ``python -m pytest perfbench``."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from spans import Tracer, instrumented  # noqa: E402


def test_tracer_hooks_install_and_restore():
    from lucene_ray.analysis import CodeAnalyzer, get_analyzer
    from lucene_ray.search import engine

    before = (CodeAnalyzer.__dict__["tokenize_flat"], engine.parse_query)
    tracer = Tracer()
    with instrumented(tracer):
        assert CodeAnalyzer.__dict__["tokenize_flat"] is not before[0]
        tracer.enabled = True
        with tracer.span("op.query"):
            engine.parse_query("fooBar AND baz", CodeAnalyzer())
            engine.parse_query("fooBar AND baz", get_analyzer("english"))
        tracer.enabled = False
    assert (CodeAnalyzer.__dict__["tokenize_flat"], engine.parse_query) == before
    # a parse analyzes in ONE analyzer call: the ``code`` analyzer's scalar
    # view runs no stream kernel, a subclass's chain runs it once, inside
    # the parse span
    names = {i: s[0] for i, s in enumerate(tracer.spans)}
    tokenize = [s for s in tracer.spans if s[0] == "analysis.tokenize"]
    assert len(tokenize) == 1
    assert names[tokenize[0][3]] == "search.query.parse"
    assert len([s for s in tracer.spans if s[0] == "search.query.parse"]) == 2


def test_tracer_hooks_stay_on_the_search_path(tmp_path, ray_session):
    """The scorer, codec, reader and rewrite hooks must see a plain search:
    a hook on a function the search path no longer calls reads zero."""
    import glob

    from lucene_ray.index.builder import build_index
    from lucene_ray.index.corpus import write_corpus
    from lucene_ray.search.engine import IndexSearcher, search_time_limited
    from lucene_ray.search.query import BooleanQuery, PhraseQuery, PrefixQuery, TermQuery

    corpus, ix = str(tmp_path / "corpus"), str(tmp_path / "ix")
    write_corpus(corpus, n_docs=200, n_shards=1, seed=3)
    build_index(sorted(glob.glob(corpus + "/*.parquet")), ix, target_docs=100)
    tracer = Tracer()
    with instrumented(tracer):
        s = IndexSearcher(ix)
        tracer.enabled = True
        for q in (TermQuery("merge"), PhraseQuery(("flush", "token")), PrefixQuery("mer")):
            assert len(s.search(BooleanQuery(should=[q]), 5).docids)
        # a searchAfter page, an exhaustive searcher and the time-limited
        # search score through the same hooked functions
        first = s.search("merge", 5)
        for run in (
            lambda: s.search("merge", 5, after=(float(first.scores[-1]), int(first.docids[-1]))),
            lambda: IndexSearcher(ix, pruned=False).search("merge", 5),
            lambda: search_time_limited(s, "merge", k=5, budget_s=3600.0),
        ):
            before = tracer.counts["search.scorer.calls"]
            assert len(run().docids)
            assert tracer.counts["search.scorer.calls"] > before
        tracer.enabled = False
    table = tracer.table()
    for name in ("search.scorer.score", "codec.decode", "search.rewrite"):
        assert table.get(name, {}).get("count", 0) > 0, name
    assert tracer.counts["search.reader.cursor_calls"] > 0

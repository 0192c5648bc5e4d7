"""Classic-parser escape grammar (QueryParser.jj _ESCAPED_CHAR,
QueryParserBase.escape/discardEscapeChar) + Lucene wildcard semantics
(WildcardQuery.java toAutomaton — no fnmatch character classes)."""

import json
from pathlib import Path

import duckdb
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lucene_ray.analysis.analyzer import CodeAnalyzer
from lucene_ray.pipelines.flagship import REFERENCE_QUERIES
from lucene_ray.search.query import (
    BooleanQuery,
    FuzzyQuery,
    PhraseQuery,
    TermQuery,
    WildcardQuery,
    discard_escapes,
    escape,
    parse_query,
)

SF = "/root/testdata/sf0.001"
AN = CodeAnalyzer()


class TestDiscardEscapes:
    def test_simple(self):
        assert discard_escapes(r"\+a\-b\:c") == "+a-b:c"
        assert discard_escapes("plain") == "plain"
        assert discard_escapes(r"\\") == "\\"

    def test_unicode(self):
        assert discard_escapes("m\\u0065rge") == "merge"
        assert discard_escapes("\\u0041\\u0042") == "AB"

    def test_trailing_escape_raises(self):
        with pytest.raises(ValueError):
            discard_escapes("bad\\")

    def test_bad_unicode_raises(self):
        with pytest.raises(ValueError):
            discard_escapes(r"\uZZZZ")
        with pytest.raises(ValueError):
            discard_escapes(r"\u12")  # too short

    def test_escape_roundtrip(self):
        for s in ['a+b-c:(d)*e?"f"\\', "x~2^3", "[a TO b]", "&&||!{}/"]:
            assert discard_escapes(escape(s)) == s


class TestEscapedParsing:
    def test_escaped_plus_is_literal(self):
        q = parse_query(r"\+merge sort", AN)
        assert not q.must and len(q.should) == 2

    def test_live_plus_requires(self):
        q = parse_query("+merge sort", AN)
        assert q.must == [TermQuery("merge")]

    def test_escaped_wildcard_is_term(self):
        q = parse_query(r"mer\*", AN)
        assert q.should == [TermQuery("mer")]

    def test_live_wildcard(self):
        q = parse_query("mer*", AN)
        assert q.should == [WildcardQuery("mer*")]

    def test_escaped_colon_no_field(self):
        q = parse_query(r"lang\:en", AN)
        assert {t.term for t in q.should} == {"lang", "en"}

    def test_keyword_value_unescaped(self):
        q = parse_query(r"path:doc\/5", AN)
        assert q.should == [TermQuery("path:doc/5")]

    def test_escaped_fuzzy_is_literal(self):
        q = parse_query(r"merge\~1", AN)
        assert {t.term for t in q.should} == {"merge", "1"}
        q2 = parse_query("merge~1", AN)
        assert q2.should == [FuzzyQuery("merge", max_edits=1)]

    def test_escaped_boost_is_literal(self):
        q = parse_query(r"merge\^2", AN)
        assert {t.term for t in q.should} == {"merge", "2"}
        q2 = parse_query("merge^2", AN)
        assert q2.should == [TermQuery("merge", boost=2.0)]

    def test_escaped_quote_in_phrase(self):
        q = parse_query(r'"merge \"sort\""', AN)
        assert q.should == [PhraseQuery(("merge", "sort"))]

    def test_unicode_escape_in_term(self):
        q = parse_query("m\\u0065rge", AN)
        assert q.should == [TermQuery("merge")]

    def test_double_backslash_then_operator_is_live(self):
        # '\\\\~1' = escaped backslash then LIVE fuzzy
        q = parse_query("merge\\\\~1", AN)
        assert isinstance(q.should[0], FuzzyQuery)

    def test_trailing_backslash_raises(self):
        with pytest.raises(ValueError):
            parse_query("term \\", AN)

    def test_escaped_parens_literal(self):
        q = parse_query(r"\(merge AND sort\)", AN)
        assert {t.term for t in q.must} == {"merge", "sort"}

    def test_escaped_operator_word(self):
        q = parse_query(r"\AND merge", AN)
        assert {t.term for t in q.should} == {"and", "merge"}


@given(
    st.text(
        alphabet=st.sampled_from(list('ab c()"+|-~*?:[]{}^\\12')),
        min_size=0, max_size=40,
    )
)
@settings(max_examples=300, deadline=None)
def test_escaped_input_parses_to_literals(text):
    """escape() output must ALWAYS parse (never throws) and contain no live
    operators — only plain term/clause structure from the literal text
    (the QueryParserBase.escape contract)."""
    q = parse_query(escape(text), AN)
    assert isinstance(q, BooleanQuery)
    assert not q.must and not q.must_not
    for clause in q.should:
        assert isinstance(clause, TermQuery)


class TestWildcardRegex:
    def test_no_char_classes(self):
        from lucene_ray.search.rewrite import wildcard_regex

        rx = wildcard_regex("a[bc]")
        assert rx.match("a[bc]") and not rx.match("ab")

    def test_escape_in_pattern(self):
        from lucene_ray.search.rewrite import wildcard_regex

        rx = wildcard_regex(r"m\*n*")
        assert rx.match("m*nop") and not rx.match("mxnop")

    def test_question_mark(self):
        from lucene_ray.search.rewrite import wildcard_regex

        rx = wildcard_regex("a?c")
        assert rx.match("abc") and not rx.match("ac") and not rx.match("abbc")

    def test_literal_prefix(self):
        from lucene_ray.search.rewrite import _wildcard_literal_prefix

        assert _wildcard_literal_prefix(r"ab\*c*d") == "ab*c"
        assert _wildcard_literal_prefix("*x") == ""


@pytest.mark.usefixtures("ray_session")
def test_parser_escape_gate_parity():
    from lucene_ray.ops import bm25docs
    from tests.test_ops import assert_same

    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{SF}/documents.parquet')"
    )
    assert_same(
        bm25docs.parser_escape_engine(SF), con, bm25docs.parser_escape_engine_sql()
    )


class TestRegexpSyntax:
    """/regexp/ classic-parser terms (QueryParser.jj <REGEXPTERM>)."""

    def test_bare_regexp(self):
        from lucene_ray.search.query import RegexpQuery

        q = parse_query("/mer.e/", AN)
        assert q.should == [RegexpQuery("mer.e")]

    def test_field_scoped_regexp_namespaced(self):
        from lucene_ray.search.query import RegexpQuery

        q = parse_query("lang:/e./", AN)
        assert q.should == [RegexpQuery("lang:e.")]

    def test_modifier_and_boost(self):
        from lucene_ray.search.query import RegexpQuery

        q = parse_query("+/ab+c/^3 -x", AN)
        assert q.must == [RegexpQuery("ab+c", boost=3.0)]
        assert len(q.must_not) == 1

    def test_escaped_slash_in_body(self):
        from lucene_ray.search.query import RegexpQuery

        q = parse_query(r"/a\/b/", AN)
        assert q.should == [RegexpQuery("a/b")]

    def test_escaped_slashes_are_literal_text(self):
        q = parse_query(r"\/notregex\/", AN)
        assert [t.term for t in q.should] == ["notregex"]

    def test_regexp_gate_parity(self):
        import duckdb

        from lucene_ray.ops import bm25docs
        from tests.test_ops import assert_same

        con = duckdb.connect()
        con.execute(
            f"CREATE VIEW documents AS SELECT * FROM read_parquet('{SF}/documents.parquet')"
        )
        assert_same(
            bm25docs.parser_regexp_engine(SF),
            con,
            bm25docs.parser_regexp_engine_sql(),
        )


class TestFuzzyFloat:
    """Legacy float fuzzy similarity (QueryParserBase.handleBareFuzzy ->
    FuzzyQuery.floatToEdits, mirrored verbatim incl. the 0.0-is-exact and
    clamp-at-2 branches)."""

    def _edits(self, q):
        return parse_query(q, AN).should[0].max_edits

    def test_bare_default(self):
        assert self._edits("merge~") == 2

    def test_zero_is_exact(self):
        # floatToEdits's explicit 0.0 branch: "0 means exact"
        assert self._edits("merge~0") == 0

    def test_float_to_edits(self):
        assert self._edits("merge~1") == 1
        assert self._edits("merge~2") == 2
        assert self._edits("merge~3") == 2      # clamp, not error
        assert self._edits("merge~2.5") == 2
        assert self._edits("merge~0.8") == 0    # (1-0.8)*5 = 1.0 -> int 1? no: 0.2*5=1.0 -> 1
        assert self._edits("merge~0.5") == 2    # 0.5*5 = 2.5 -> 2
        assert self._edits("ab~0.4") == 1       # 0.6*2 = 1.2 -> 1


# Parse pins: the repr of parse_query for a fixed set of strings, per
# analyzer. They hold the parser's output identical across changes to how
# it analyzes its terminals. Regenerate ONLY deliberately:
#     python -m tests.test_parser_escape   # rewrites tests/data/parse_pins.json
PIN_PATH = Path(__file__).parent / "data" / "parse_pins.json"
PIN_ANALYZERS = ("code", "english", "synonym")
PIN_QUERIES = [q for _qid, q, _k in REFERENCE_QUERIES] + [
    # escapes
    r"\+merge sort", r"foo\:bar", r"a\*b", r"m\u0065rge", r"\(merge AND sort\)",
    r'"get \"manager\""', r"\AND merge", "merge\\ sort",
    # fuzzy and boost
    "mrege~", "mrege~0.5", "mrege~0", "mrege~1.5", "readSpec~1", "...~", r"a\~2",
    "merge^2.5", "readSpec^2", '"get manager"^2', '"get manager"~3', r"merge\^2",
    # field groups, keyword and analyzed fields
    "repo:(alpha beta)", "title:(fooBar baz*)", "content:(merge flush)",
    "repo:alpha", "lang:py*", 'path:"src/Foo.py"', r"repo:a\:b", "content:readSpec",
    "title:fooBar", 'title:"get manager"', "title:get*", 'title:"x"', "title:...",
    # ranges
    "[a TO m]", "{readSpec TO zz}", "n_chars:[10 TO 20]", "n_chars:{10 TO *]",
    "repo:[a TO m}", "[* TO fooBar]", "[... TO zz]", "title:[big TO fast]",
    # wildcard phrases and regexps
    '"get* manager"', '"readSpec bu?fer"', '"get* ..."', '"a* b*"', '"x*"',
    "/mer.e/", "title:/get.*/", r"/a\/b/", "+/ab+c/^3 -x",
    # nested groups, operators, empty-analysis words
    "+(mer* flush) index", "(merge AND flush) token", "((a OR b) AND (c -d))^2",
    "-(x y) z", "a AND (b OR (c AND d))", "merge NOT flush", "merge && flush || token",
    "...", "--- merge", "merge AND ... AND flush", "... AND merge", "(...)", '"..."',
    "(merge)^2", "(readSpec OR ...)^0.5",
    # stop words, stems and synonyms
    "the running dogs", "running AND the", '"the quick fox"', "big fast scan",
    '"big data"', "fast~1", "title:big", "[big TO scan]",
    # parse errors
    "(merge", "merge)", '"get* x"~2', "n_chars:[a TO b]", "bad\\", r"m\u00zz",
]


def _pin(q: str, an) -> tuple[str, int]:
    """(repr of the parse or the error type, analyzer calls it made)."""
    calls = []
    texts = an.tokenize_texts

    def counted(*args, **kwargs):
        calls.append(1)
        return texts(*args, **kwargs)

    an.tokenize_texts = counted
    try:
        return repr(parse_query(q, an)), len(calls)
    except ValueError:
        return "ValueError", len(calls)
    finally:
        del an.tokenize_texts


def _pins() -> dict:
    from lucene_ray.analysis import get_analyzer

    out = {}
    for name in PIN_ANALYZERS:
        for q in PIN_QUERIES:
            r, calls = _pin(q, get_analyzer(name))
            out.setdefault(name, {})[q] = {"repr": r, "analyzes": calls > 0}
    return out


def test_parse_pins():
    """Every pinned parse is unchanged, and a parse analyzes all its
    terminals in ONE analyzer call (none when nothing is analyzed)."""
    from lucene_ray.analysis import get_analyzer

    pins = json.loads(PIN_PATH.read_text())
    assert len(PIN_QUERIES) == len(set(PIN_QUERIES)) >= 60
    for name in PIN_ANALYZERS:
        assert list(pins[name]) == PIN_QUERIES, name
        for q in PIN_QUERIES:
            r, calls = _pin(q, get_analyzer(name))
            assert r == pins[name][q]["repr"], (name, q)
            if r != "ValueError":
                assert calls == int(pins[name][q]["analyzes"]), (name, q, calls)


if __name__ == "__main__":
    PIN_PATH.write_text(json.dumps(_pins(), indent=1) + "\n")
    print(f"wrote {PIN_PATH}")

"""Golden tokenizer cases (TestStandardAnalyzer-style, SURVEY.md §5 item 1)
plus Python<->DuckDB parity for the SQL-mirrored CodeAnalyzer."""

import duckdb
import pyarrow as pa
import pytest

from lucene_ray.analysis import CodeAnalyzer, StandardLiteAnalyzer, get_analyzer, tokenize_sql_expr
from lucene_ray.analysis.analyzer import _REGISTRY, tokenize_re2

CODE_GOLDENS = [
    # (text, expected tokens) — WordDelimiterGraphFilter-style splitting
    ("PowerShot SD500", ["power", "shot", "sd", "500"]),
    ("camelCaseId2", ["camel", "case", "id", "2"]),
    ("XMLHttpRequest", ["xml", "http", "request"]),
    ("snake_case_id", ["snake", "case", "id"]),
    ("foo.bar(baz, 42)", ["foo", "bar", "baz", "42"]),
    ("don't", ["don", "t"]),
    ("", []),
    ("...", []),
    ("A1a", ["a", "1", "a"]),
    ("C:\\path\\file.txt", ["c", "path", "file", "txt"]),
    ("int RETURN_VALUE = getValue();", ["int", "return", "value", "get", "value"]),
]

STANDARD_GOLDENS = [
    # UAX#29-lite: keeps don't / 3.14 / SD500 whole
    ("PowerShot SD500", ["powershot", "sd500"]),
    ("don't stop", ["don't", "stop"]),
    ("pi is 3.14, e is 2.71", ["pi", "is", "3.14", "e", "is", "2.71"]),
    ("foo_bar", ["foo", "bar"]),
]


@pytest.mark.parametrize("text,expected", CODE_GOLDENS)
def test_code_analyzer_goldens(text, expected):
    assert CodeAnalyzer().tokenize_text(text) == expected


@pytest.mark.parametrize("text,expected", STANDARD_GOLDENS)
def test_standard_lite_goldens(text, expected):
    assert StandardLiteAnalyzer().tokenize_text(text) == expected


def test_max_token_length_split():
    """maxTokenLength SPLIT semantics (StandardTokenizerImpl.jflex: the
    scanner emits the buffered maxTokenLength chars and keeps going, so an
    over-long run comes out as consecutive 255-char chunks, never dropped)."""
    an = CodeAnalyzer()
    assert an.tokenize_text("x" * 255) == ["x" * 255]
    assert an.tokenize_text("x" * 256) == ["x" * 255, "x"]
    assert an.tokenize_text("ok " + "x" * 256 + " fine") == [
        "ok",
        "x" * 255,
        "x",
        "fine",
    ]
    assert an.tokenize_text("y" * 511) == ["y" * 255, "y" * 255, "y"]


def test_registry():
    assert get_analyzer("code").name == "code"
    assert get_analyzer("standard").name == "standard"


def test_duckdb_parity():
    texts = [t for t, _ in CODE_GOLDENS] + [
        "  leading and trailing  ",
        "MixedUPPERlower123abcDEF",
        "a" * 300,
        "tabs\tand\nnewlines",
    ]
    an = CodeAnalyzer()
    py = [an.tokenize_text(t) for t in texts]
    con = duckdb.connect()
    con.register("t", pa.table({"text": texts}))
    sql = [
        row[0]
        for row in con.execute(
            f"SELECT {tokenize_sql_expr('text')} FROM t"
        ).fetchall()
    ]
    assert py == sql


def test_fast_path_matches_re2():
    """tokenize_flat (byte kernel) and the scalar ``tokenize_texts`` view
    must produce exactly the RE2 pipeline's tokens on adversarial inputs +
    a corpus sample."""
    import numpy as np

    from lucene_ray.index.corpus import generate_shard

    texts = [t for t, _ in CODE_GOLDENS] + [
        "AABBcc ABcDe ABCDe aB1c A1a x2Y3z",
        "  edge  ",
        None,
        "",
        "été Ünïcode mixé ASCII123",
        "a" * 300 + " ok " + "B" * 256,
        "ends.alnum1",
        "1digitsFirst",
        "\x00weird\x7fbytes\t",
        # row seams: no lookahead or camel/digit rule reads across rows
        "AB", "cd", "xA", "Bc", "A", "Bc", "ab", "Cd", "A1", "b",
        "AB", "", None, "cD",
    ] + generate_shard(0, 30, seed=9).column("content").to_pylist()
    arr = pa.array(texts, type=pa.string())
    an = CodeAnalyzer()
    # reference: the RE2 passes, exploded
    toks = tokenize_re2(arr)
    offs = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    counts = np.diff(offs)
    want_rows = np.repeat(np.arange(len(counts)), counts)
    want_terms = toks.values.to_pylist()
    want_pos = (np.arange(int(counts.sum())) - np.repeat(offs[:-1], counts)).tolist()

    rows, terms, pos = an.tokenize_flat(arr)
    assert rows.tolist() == want_rows.tolist()
    assert terms.to_pylist() == want_terms
    assert pos.tolist() == want_pos
    # the scalar view (a null text gives [])
    assert an.tokenize_texts(texts) == [r or [] for r in toks.to_pylist()]

    # sliced array (non-zero arrow offset)
    sl = arr.slice(3, 10)
    toks2 = tokenize_re2(sl)
    rows2, terms2, _ = an.tokenize_flat(sl)
    assert terms2.to_pylist() == toks2.values.to_pylist()


# the fuzz alphabet: every ASCII class edge, separators, NUL and
# whitespace, and multi-byte characters. "İ" and the Kelvin sign lowercase
# to ASCII under Unicode rules, which the RE2 passes apply and the byte
# kernel does not (a known divergence), so they join only the
# kernel-vs-scalar comparison.
_FUZZ_CHARS = list("aAbBzZyY09_ .-/") + ["\x00", "\t", "\n", "é", "İ", "\u212a", "ß", "中"]


def _fuzz_texts(n: int, seed: int) -> list[str]:
    """``n`` short random strings over ``_FUZZ_CHARS`` plus runs of
    254-511 characters of one class, mixed case or digits, around the
    MAX_TOKEN_LEN (255) chunk edge."""
    import numpy as np

    rng = np.random.default_rng(seed)
    chars = np.array(_FUZZ_CHARS, dtype=object)
    lens = rng.integers(0, 13, size=n)
    picks = rng.integers(0, len(chars), size=int(lens.sum()))
    ends = np.cumsum(lens)
    texts = ["".join(chars[picks[e - k:e]]) for k, e in zip(lens.tolist(), ends.tolist())]
    for run in range(254, 512):
        head = rng.choice(["", "x", "Ab", "1", " ", "é"])
        texts += [
            head + "a" * run, "B" * run + "c", "7" * run + "Q",
            "".join(rng.choice(list("aAbB09"), size=run)) + head,
        ]
    return texts


def test_scalar_view_matches_kernel_fuzz():
    """The ``code`` scalar view (``tokenize_texts``) gives the byte
    kernel's tokens on 100k+ seeded random strings: case and digit
    transitions, separators (``_`` included), NUL, multi-byte characters
    and over-long runs chunked at MAX_TOKEN_LEN."""
    texts = _fuzz_texts(100_000, seed=19)
    an = CodeAnalyzer()
    want = an.tokenize_array(pa.array(texts, type=pa.string())).to_pylist()
    got = an.tokenize_texts(texts)
    bad = [(t, w, g) for t, w, g in zip(texts, want, got) if w != g]
    assert not bad, bad[:5]
    assert sum(len(w) for w in want) > 100_000


# every registry analyzer plus the four the registry loads lazily
ALL_ANALYZERS = sorted(
    set(_REGISTRY) | {"compound", "pattern", "capturegroup", "url_email"}
)

VIEW_EDGE_ROWS = [
    None,
    "",
    "x" * 300 + " tail " + "Y" * 256,
    "Crème brûlée, naïve façade: Ärger über Öl",
    "<p class='q'>big &amp; fast</p> scan&#10;done",
    "big fast scan of the data",
    "the of and a to in is it",
]


@pytest.fixture(scope="module")
def view_texts():
    from lucene_ray.index.corpus import generate_shard

    sample = generate_shard(0, 20, seed=9).column("content").to_pylist()
    return sample + VIEW_EDGE_ROWS


@pytest.mark.parametrize("name", ALL_ANALYZERS)
def test_views_agree_with_stream(name, view_texts):
    """tokenize_array, tokenize_texts and tokenize_text are views of
    tokenize_flat: the stream's terms grouped by row, in stream order; a
    null row is []. (A subclass of the ``code`` analyzer must not take its
    scalar ``tokenize_texts``: that would skip the subclass's filters.)"""
    an = get_analyzer(name)
    arr = pa.array(view_texts, type=pa.string())
    row_idx, terms, _pos = an.tokenize_flat(arr)
    by_row = [[] for _ in view_texts]
    for r, t in zip(row_idx.tolist(), terms.to_pylist()):
        by_row[r].append(t)
    assert by_row[view_texts.index(None)] == []
    assert an.tokenize_array(arr).to_pylist() == by_row
    assert an.tokenize_texts(view_texts) == by_row
    assert [an.tokenize_text(t) for t in view_texts if t is not None] == [
        row for row, t in zip(by_row, view_texts) if t is not None
    ]


def test_shingle_stream_interleaves_like_shingle_filter():
    an = get_analyzer("shingle")
    rows, terms, pos = an.tokenize_flat(pa.array(["a b c"]))
    assert terms.to_pylist() == ["a", "a b", "b", "b c", "c"]
    assert pos.tolist() == [0, 0, 1, 1, 2]
    assert an.tokenize_text("a b c") == ["a", "a b", "b", "b c", "c"]


def test_commongrams_query_stream_positions():
    """CommonGramsQueryFilter output stands at consecutive positions."""
    an = get_analyzer("commongrams_query")
    rows, terms, pos = an.tokenize_flat(
        pa.array(["the quick brown", "fox of the lazy dog"])
    )
    assert rows.tolist() == [0, 0, 0, 1, 1, 1, 1, 1]
    assert terms.to_pylist() == [
        "the_quick", "quick", "brown",
        "fox_of", "of_the", "the_lazy", "lazy", "dog",
    ]
    assert pos.tolist() == [0, 1, 2, 0, 1, 2, 3, 4]


def test_tokenize_flat_positions():
    an = CodeAnalyzer()
    row_idx, terms, pos = an.tokenize_flat(
        pa.array(["fooBar baz", "", "one two three"])
    )
    assert row_idx.tolist() == [0, 0, 0, 2, 2, 2]
    assert terms.to_pylist() == ["foo", "bar", "baz", "one", "two", "three"]
    assert pos.tolist() == [0, 1, 2, 0, 1, 2]


class TestRegistryBreadth:
    def test_whitespace_analyzer(self):
        from lucene_ray.analysis import get_analyzer

        an = get_analyzer("whitespace")
        assert an.tokenize_text("Foo  BAR\tbaz\n") == ["Foo", "BAR", "baz"]
        assert an.tokenize_text("") == []
        # no lowercasing, no splitting on punctuation
        assert an.tokenize_text("a.b-C") == ["a.b-C"]

    def test_keyword_analyzer(self):
        from lucene_ray.analysis import get_analyzer

        an = get_analyzer("keyword")
        assert an.tokenize_text("Foo Bar") == ["Foo Bar"]
        assert an.tokenize_text("") == []

    def test_synonym_analyzer_positions(self):
        # add-mode: original kept, synonym injected at the SAME position
        # (posInc=0), stream stays (doc, position)-sorted, originals first
        from lucene_ray.analysis import get_analyzer

        an = get_analyzer("synonym")
        rows, terms, pos = an.tokenize_flat(pa.array(["big scan", "no hits"]))
        assert rows.tolist() == [0, 0, 0, 0, 1, 1]
        assert terms.to_pylist() == ["big", "large", "scan", "sweep", "no", "hits"]
        assert pos.tolist() == [0, 0, 1, 1, 0, 1]
        assert an.tokenize_text("big deal") == ["big", "large", "deal"]
        assert an.tokenize_array(pa.array(["fast big"]))[0].as_py() == [
            "fast", "quick", "big", "large",
        ]

    def test_synonym_offsets_copy_original(self):
        from lucene_ray.analysis import get_analyzer

        an = get_analyzer("synonym")
        rows, terms, pos, starts, lens = an.tokenize_flat(
            pa.array(["a big cat"]), with_offsets=True
        )
        i_big = terms.to_pylist().index("big")
        i_syn = terms.to_pylist().index("large")
        assert (starts[i_big], lens[i_big]) == (starts[i_syn], lens[i_syn])

    def test_synonym_discount_overlaps_norms(self, ray_session, tmp_path):
        """discountOverlaps (BM25Similarity.java:99-101 default): injected
        posInc==0 tokens are excluded from doc_len/norms; sum_ttf counts
        every token (sumTotalTermFreq); CheckIndex stays green."""
        import pyarrow.parquet as pq

        from lucene_ray.index.builder import build_index
        from lucene_ray.index.checkindex import check_index
        from lucene_ray.index.manifest import read_manifest
        from lucene_ray.search.reader import IndexReader

        src = tmp_path / "corpus.parquet"
        pq.write_table(
            pa.table(
                {
                    "repo": ["r", "r"],
                    "path": ["a", "b"],
                    "commit": ["0" * 40] * 2,
                    "lang": ["py", "py"],
                    "content": ["big scan runs", "no synonyms here at all"],
                }
            ),
            str(src),
        )
        ix = str(tmp_path / "ix")
        build_index([str(src)], ix, analyzer_name="synonym")
        r = IndexReader(ix)
        sr = r.segment_reader(r.segments[0].name)
        # doc 0: 3 tokens + 2 injected -> doc_len 3; doc 1: 5 tokens
        assert sr.doc_len.tolist() == [3, 5]
        m = read_manifest(ix)
        # every token incl. injected: (3 + 2 overlaps) + 5
        assert m.segments[0].sum_ttf == 10
        assert m.segments[0].metrics["overlaps"] == 2
        res = check_index(ix, verify_content=False)
        assert res["ok"], res["problems"]

    def test_folding_analyzer(self):
        from lucene_ray.analysis import get_analyzer
        from lucene_ray.analysis.analyzer import fold_ascii

        an = get_analyzer("folding")
        assert an.tokenize_text("Crème brûlée café") == ["creme", "brulee", "cafe"]
        rows, terms, pos = an.tokenize_flat(pa.array(["naïve Ärger", "plain"]))
        assert terms.to_pylist() == ["naive", "arger", "plain"]
        # length-preserving fold
        assert len(fold_ascii("àéîõü")) == 5

    def test_htmlstrip_analyzer(self):
        from lucene_ray.analysis import get_analyzer
        from lucene_ray.analysis.analyzer import strip_html

        an = get_analyzer("html")
        assert an.tokenize_text("<p class='x'>fooBar</p> &amp; baz&#10;qux") == [
            "foo", "bar", "baz", "qux",
        ]
        # length-preserving blanking -> offsets point into the RAW html
        raw = "<b>cat</b> dog"
        assert len(strip_html(raw)) == len(raw)
        rows, terms, pos, starts, lens = an.tokenize_flat(
            pa.array([raw]), with_offsets=True
        )
        assert terms.to_pylist() == ["cat", "dog"]
        assert [raw[s:s + l] for s, l in zip(starts, lens)] == ["cat", "dog"]

    def test_htmlstrip_matches_duckdb_passes(self):
        # the Python filter and the SQL regex passes must tokenize
        # identically (one-space vs length-many blanking is token-neutral)
        import duckdb

        from lucene_ray.analysis import get_analyzer
        from lucene_ray.analysis.analyzer import HTML_STRIP_SQL_PASSES

        an = get_analyzer("html")
        samples = [
            "<html><body>a b</body></html>",
            "no markup here",
            "x<br/>y &lt;tag&gt; z&#65;w",
            "<a href='q'>link text</a> &amp;&amp; done",
        ]
        con = duckdb.connect()
        for s in samples:
            expr = "?"
            for pat, repl in HTML_STRIP_SQL_PASSES:
                expr = f"regexp_replace({expr}, '{pat}', '{repl}', 'g')"
            stripped = con.execute(f"SELECT {expr}", [s]).fetchone()[0]
            assert an.tokenize_text(s) == get_analyzer("code").tokenize_text(
                stripped
            ), s

    def test_fold_matches_duckdb_strip_accents(self):
        # every char in the fold table must fold identically to DuckDB's
        # strip_accents — the SQL-oracle parity constraint for folding gates
        import duckdb

        from lucene_ray.analysis.analyzer import _FOLD_PAIRS, fold_ascii

        chars = "".join(c for chars, _ in _FOLD_PAIRS for c in chars)
        chars += chars.upper()
        con = duckdb.connect()
        want = con.execute("SELECT strip_accents(?)", [chars]).fetchone()[0]
        assert fold_ascii(chars) == want


class TestUnicodeAnalyzer:
    """UAX#29-lite Unicode conformance — golden tokens mirroring the
    reference's TestStandardAnalyzer Unicode cases (single-char Han /
    Hiragana, Katakana + Hangul + full-width runs), plus RE2/SQL parity and
    index-build integration."""

    CASES = [
        # TestStandardAnalyzer.testJapanese-style: Han + Hiragana single,
        # Katakana run
        ("仮名遣い カタカナ", ["仮", "名", "遣", "い", "カタカナ"]),
        # testChinese / full-width forms: ideographs single, full-width
        # digits + letters are ALPHANUM runs, lowercased
        ("我是中国人。 １２３４ Ｔｅｓｔｓ", ["我", "是", "中", "国", "人", "１２３４", "ｔｅｓｔｓ"]),
        # accented Latin stays whole (no folding in Standard)
        ("Düsseldorf études", ["düsseldorf", "études"]),
        # Hangul syllables stay runs (HANGUL type)
        ("안녕하세요 한국어", ["안녕하세요", "한국어"]),
        # ASCII behaves like a plain standard tokenizer (no code splits)
        ("C++ is better?", ["c", "is", "better"]),
        ("", []),
        # UAX#29 MidNumLet medial punctuation (WB6/WB7, WB11/WB12): a
        # SINGLE . ' ’ between alphanumerics never breaks — the
        # reference's StandardTokenizer keeps these whole
        ("don't stop", ["don't", "stop"]),
        ("pi is 3.14", ["pi", "is", "3.14"]),
        ("visit example.com now", ["visit", "example.com", "now"]),
        ("l’avion d'été", ["l’avion", "d'été"]),
        ("a.b.c.d.e", ["a.b.c.d.e"]),  # chains survive the 2-pass protect
        ("a..b end. x", ["a", "b", "end", "x"]),  # doubles/trailers break
        ("'quoted'", ["quoted"]),  # leading/trailing never medial
        ("中文.测试", ["中", "文", "测", "试"]),  # isolation wins over medial
    ]

    def test_golden_tokens(self):
        from lucene_ray.analysis.analyzer import UnicodeAnalyzer

        an = UnicodeAnalyzer()
        for text, want in self.CASES:
            assert an.tokenize_text(text) == want, text

    def test_sql_parity(self):
        import duckdb

        from lucene_ray.analysis.analyzer import UnicodeAnalyzer

        an = UnicodeAnalyzer()
        texts = [t for t, _ in self.CASES] + [
            "mixed 中文 and english 123", "ＡＢＣ ｄｅｆ", "«quoted» —dash—",
        ]
        con = duckdb.connect()
        expr = UnicodeAnalyzer.sql_expr("t")
        rows = con.execute(
            f"SELECT {expr} FROM (SELECT unnest($1::VARCHAR[]) AS t)", [texts]
        ).fetchall()
        for text, (got_sql,) in zip(texts, rows):
            assert an.tokenize_text(text) == got_sql, text

    def test_tokenize_flat_matches_array(self):
        import numpy as np
        import pyarrow as pa

        from lucene_ray.analysis.analyzer import UnicodeAnalyzer

        an = UnicodeAnalyzer()
        texts = pa.array([t for t, _ in self.CASES], type=pa.string())
        row_idx, terms, pos = an.tokenize_flat(texts)
        per_row = [[] for _ in range(len(texts))]
        for r, t, p in zip(row_idx, terms.to_pylist(), pos):
            assert p == len(per_row[r])  # positions are row ordinals
            per_row[r].append(t)
        assert per_row == [w for _, w in self.CASES]

    def test_indexes_and_searches_cjk(self, tmp_path_factory, ray_session):
        import pyarrow as pa
        import pyarrow.parquet as pq

        from lucene_ray.index.builder import build_index
        from lucene_ray.search.engine import IndexSearcher

        src = str(tmp_path_factory.mktemp("uni_src"))
        rows = {
            "repo": ["r"] * 4,
            "path": [f"p/{i}" for i in range(4)],
            "commit": ["0" * 40] * 4,
            "lang": ["zh", "ja", "ko", "en"],
            "content": [
                "我是中国人 学习 搜索",
                "仮名遣い カタカナ 検索",
                "안녕하세요 한국어 검색",
                "plain english search text",
            ],
        }
        pq.write_table(pa.table(rows), src + "/docs.parquet")
        ix = str(tmp_path_factory.mktemp("uni_ix"))
        build_index([src + "/docs.parquet"], ix, analyzer_name="unicode")
        s = IndexSearcher(ix)
        assert s.search("中", 10).docids.tolist() == [0]
        assert s.search("カタカナ", 10).docids.tolist() == [1]
        assert s.search("한국어", 10).docids.tolist() == [2]
        assert s.search("search", 10).docids.tolist() == [3]
        # non-Latin text does NOT silently vanish: every CJK doc has terms
        assert s.search("我", 10).total_hits == 1

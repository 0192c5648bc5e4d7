"""CJK analyzer goldens — parse TestCJKAnalyzer / TestCJKWidthFilter
vectors from the reference test suite at test time (same stance as
tests/test_lang2.py), plus DuckDB SQL-mirror parity on width-fold edge
cases (the cjk_stats gate's invariant).
"""

import io
import re

import duckdb
import pyarrow as pa
import pytest

from lucene_ray.analysis import get_analyzer
from lucene_ray.analysis.analyzer import CJKAnalyzer
from lucene_ray.analysis import cjkwidth

_TEST_BASE = (
    "/root/reference/lucene/analysis/common/src/test/org/apache/lucene/"
    "analysis/cjk/"
)


def _java_str(s: str) -> str:
    return re.sub(
        r"\\u([0-9a-fA-F]{4})", lambda m: chr(int(m.group(1), 16)), s
    )


def _analyzes_to(rel, var="analyzer"):
    src = io.open(_TEST_BASE + rel, encoding="utf-8").read()
    out = []
    pat = (
        rf'assertAnalyzesTo\(\s*{var},\s*"((?:[^"\\]|\\.)*)",\s*'
        r"new String\[\]\s*\{([^}]*)\}"
    )
    for inp, arr in re.findall(pat, src, re.S):
        toks = re.findall(r'"((?:[^"\\]|\\.)*)"', arr)
        out.append((_java_str(inp), [_java_str(t) for t in toks]))
    return out


@pytest.mark.requires_reference(_TEST_BASE)
def test_cjk_analyzer_reference_vectors():
    vectors = _analyzes_to("TestCJKAnalyzer.java")
    # drop vectors from tests that shadow `analyzer` with a local one
    # wrapping a MappingCharFilter (ASCII input, CJK expectations)
    vectors = [
        (i, w)
        for i, w in vectors
        if not (i.isascii() and any(not t.isascii() for t in w))
    ]
    assert len(vectors) >= 10
    an = get_analyzer("cjk")
    for inp, want in vectors:
        got = an.tokenize_text(inp)
        assert got == want, (inp, want, got)


@pytest.mark.requires_reference(_TEST_BASE)
def test_cjk_width_reference_vectors():
    # TestCJKWidthFilter's analyzer = tokenizer + width filter only, so
    # fold_text on the single-token inputs is the comparable surface
    vectors = _analyzes_to("TestCJKWidthFilter.java")
    assert len(vectors) >= 3
    for inp, want in vectors:
        if " " in inp or len(want) != 1:
            continue
        assert cjkwidth.fold_text(inp) == want[0], (inp, want)


def test_cjk_sql_mirror_parity():
    texts = [
        "多くの学生が試験に落ちた",
        "ﾊﾟﾅｿﾆｯｸ and ＴＥＳＴ the こ",
        "한국어 hello 中文x don't 3.14 example.com",
        "ｶﾞｷﾞｸﾞｹﾞｺﾞ ｳﾞ ﾜﾞ ﾞ ﾟ ｱﾟ",  # combinable, lone, uncombinable marks
        "カタカナ・ハンカクｶﾀｶﾅ",
        "ひらがな交じりのテキストー伸ばし棒",  # 30FC prolonged mark in-run
        "",
        "plain english only",
        "ｳﾞｨｯﾂ",
    ]
    an = get_analyzer("cjk")
    con = duckdb.connect()
    con.execute("CREATE TABLE x(t VARCHAR)")
    con.executemany("INSERT INTO x VALUES (?)", [(t,) for t in texts])
    rows = con.execute(f"SELECT {CJKAnalyzer.sql_expr('t')} FROM x").fetchall()
    py = an.tokenize_array(pa.array(texts, pa.string())).to_pylist()
    for t, (sql_toks,), py_toks in zip(texts, rows, py):
        assert sql_toks == py_toks, (t, sql_toks, py_toks)


def test_cjk_bigram_semantics():
    an = get_analyzer("cjk")
    # runs bigram, lone chars unigram, separators break runs
    assert an.tokenize_text("一 二三四 十") == ["一", "二三", "三四", "十"]
    # cross-script adjacency bigrams (all four scripts share the buffer)
    assert an.tokenize_text("多くア한") == ["多く", "くア", "ア한"]
    # stopwords drop post-bigram; width fold feeds the bigrammer
    assert an.tokenize_text("the ｱｲ") == ["アイ"]
    assert not getattr(an, "has_overlaps", False)

"""Misc token filters + dictionary compound goldens — FingerprintFilter
and DictionaryCompoundWordTokenFilter vectors parsed from the reference
test suite at test time, plus the posInc-0 overlap contract through
tokenize_flat and the SQL-mirror parity the compound_stats gate relies
on."""

import io
import re

import duckdb
import numpy as np
import pyarrow as pa
import pytest

from lucene_ray.analysis import get_analyzer
from lucene_ray.analysis import filters

_TEST_BASE = (
    "/root/reference/lucene/analysis/common/src/test/org/apache/lucene/"
    "analysis/"
)


def _fp(tokens, max_size=filters.DEFAULT_MAX_OUTPUT_TOKEN_SIZE, sep=" "):
    out = filters.fingerprint_lists(
        pa.array([tokens], pa.list_(pa.string())), max_size, sep
    ).to_pylist()[0]
    return out


def test_fingerprint_reference_vectors():
    # TestFingerprintFilter.java, all four cases
    assert _fp(["B", "A", "B", "E"]) == ["A B E"]
    assert _fp(["B2", "B2"]) == ["B2"]
    assert _fp(["B2", "A1", "C3", "D4", "E5", "F6", "G7", "H1"], 4) == []
    assert _fp(["B2", "A1", "C3", "B2"], sep="_") == ["A1_B2_C3"]
    assert _fp([]) == []


def _se_vector():
    """Parse testDumbCompoundWordsSE: dictionary words, input, expected."""
    src = io.open(
        _TEST_BASE + "compound/TestCompoundWordTokenFilter.java",
        encoding="utf-8",
    ).read()
    body = src.split("public void testDumbCompoundWordsSE()")[1]
    body = body.split("public void ")[0]
    dict_part = body.split("makeDictionary(")[1].split(")")[0]
    words = [w.lower() for w in re.findall(r'"([^"]+)"', dict_part)]
    inp = re.search(
        r'whitespaceMockTokenizer\(\s*"([^"]+)"', body
    ).group(1)
    arr = body.split("new String[] {")[1].split("}")[0]
    expected = [t.lower() for t in re.findall(r'"([^"]+)"', arr)]
    return frozenset(words), inp.lower(), expected


@pytest.mark.requires_reference(_TEST_BASE)
def test_compound_reference_vector_se():
    words, inp, expected = _se_vector()
    assert len(expected) >= 40
    out = []
    for tok in inp.split():
        out.append(tok)
        out.extend(filters.decompose_term(tok, words))
    assert out == expected


def test_compound_longest_match():
    # testDumbCompoundWordsSELongestMatch: with onlyLongestMatch only the
    # longest dictionary hit PER START OFFSET survives (contained hits at
    # other offsets still emit — "fodral" inside "fiolsfodral")
    d = frozenset(
        w.lower()
        for w in ["Bil", "Dörr", "Motor", "Tak", "Borr", "Slag", "Hammar",
                  "Pelar", "Glas", "Ögon", "Fodral", "Bas", "Fiols",
                  "Makare", "Gesäll", "Sko", "Vind", "Rute", "Torkare",
                  "Blad", "Fiolsfodral"]
    )
    got = filters.decompose_term(
        "basfiolsfodralmakaregesäll", d, only_longest_match=True
    )
    assert got == ["bas", "fiolsfodral", "fodral", "makare", "gesäll"]


def test_compound_min_subword_tail():
    # testTokenEndingWithWordComponentOfMinimumLength: 2-char dictionary
    # entries at the token tail are found (the i <= len - minSubwordSize
    # loop bound)
    d = frozenset(["ab", "cd", "ef"])
    assert filters.decompose_term("abcdef", d) == ["ab", "cd", "ef"]


def test_compound_analyzer_overlap_positions():
    an = get_analyzer("compound")
    assert an.has_overlaps
    row, terms, pos = an.tokenize_flat(
        pa.array(["Rindfleischüberwachungsgesetz und Drahtschere"], pa.string())
    )
    pairs = list(zip(terms.to_pylist(), pos.tolist()))
    # subwords share the original's position (posInc == 0)
    assert pairs == [
        ("rindfleischüberwachungsgesetz", 0), ("rind", 0), ("fleisch", 0),
        ("überwachung", 0), ("gesetz", 0), ("und", 1),
        ("drahtschere", 2), ("draht", 2), ("schere", 2),
    ]
    assert (row == 0).all()


def test_compound_sql_mirror_parity():
    from lucene_ray.analysis.filters import DictionaryCompoundAnalyzer

    texts = [
        "Rindfleischüberwachungsgesetz und Drahtschere",
        "die Überwachungsaufgabe der Gesetzgebung",
        "no compounds here",
        "",
    ]
    an = get_analyzer("compound")
    con = duckdb.connect()
    con.execute("CREATE TABLE x(t VARCHAR)")
    con.executemany("INSERT INTO x VALUES (?)", [(t,) for t in texts])
    rows = con.execute(
        f"SELECT {DictionaryCompoundAnalyzer.sql_expr('t')} FROM x"
    ).fetchall()
    py = an.tokenize_array(pa.array(texts, pa.string())).to_pylist()
    for t, (sql_toks,), py_toks in zip(texts, rows, py):
        assert sql_toks == py_toks, (t, sql_toks, py_toks)


def test_simple_filters():
    toks = pa.array(
        [["the", "quick", "brown", "fox", "the"], ["a"], []],
        pa.list_(pa.string()),
    )
    assert filters.length_filter_lists(toks, 3, 4).to_pylist() == [
        ["the", "fox", "the"], [], [],
    ]
    assert filters.truncate_lists(toks, 3).to_pylist()[0] == [
        "the", "qui", "bro", "fox", "the",
    ]
    assert filters.reverse_lists(toks).to_pylist()[0] == [
        "eht", "kciuq", "nworb", "xof", "eht",
    ]
    assert filters.keep_words_lists(toks, {"fox", "a"}).to_pylist() == [
        ["fox"], ["a"], [],
    ]
    assert filters.limit_count_lists(toks, 2).to_pylist() == [
        ["the", "quick"], ["a"], [],
    ]
    # codepoint semantics (ReverseStringFilter is surrogate-safe)
    uni = pa.array([["日本語解析"]], pa.list_(pa.string()))
    assert filters.truncate_lists(uni, 2).to_pylist() == [["日本"]]
    assert filters.reverse_lists(uni).to_pylist() == [["析解語本日"]]


def test_hyphenated_words_reference_vectors():
    # TestHyphenatedWordsFilter.java, all three cases
    cases = [
        (
            "ecologi-\r\ncal devel-\r\n\r\nop compre-\thensive-hands-on and ecologi-\ncal",
            ["ecological", "develop", "comprehensive-hands-on", "and", "ecological"],
        ),
        (
            "ecologi-\r\ncal devel-\r\n\r\nop compre-\thensive-hands-on and ecology-",
            ["ecological", "develop", "comprehensive-hands-on", "and", "ecology-"],
        ),
        ("abc- def geh 1234- 5678-", ["abcdef", "geh", "12345678-"]),
    ]
    for inp, want in cases:
        got = filters.hyphenated_words_lists(
            pa.array([inp.split()], pa.list_(pa.string()))
        ).to_pylist()[0]
        assert got == want, (inp, got)


def test_serbian_fold_analyzer():
    from lucene_ray.analysis.stemmers2 import serbian_fold

    # sr/TestSerbianNormalizationFilter-style folds: Cyrillic -> bald
    # Latin with digraph expansion, Latin diacritics folded
    assert serbian_fold("ђуро") == "djuro"
    assert serbian_fold("џак") == "dzak"
    assert serbian_fold("љиљана") == "ljiljana"
    assert serbian_fold("његош") == "njegos"
    assert serbian_fold("čokolada") == "cokolada"
    assert serbian_fold("žuti") == "zuti"
    an = get_analyzer("serbian_fold")
    # Cyrillic 'и' and Latin 'je' are stopwords (pre-fold list)
    assert an.tokenize_text("Ђуро и Љиљана") == ["djuro", "ljiljana"]
    assert an.tokenize_text("čokolada je slatka") == ["cokolada", "slatka"]


def test_keyword_repeat_analyzer():
    an = get_analyzer("english_keyword_repeat")
    assert an.has_overlaps
    # original + stem at the same position; identity stems collapse
    # (KeywordRepeatFilter -> PorterStemFilter -> RemoveDuplicates)
    row, terms, pos = an.tokenize_flat(
        pa.array(["running dogs ran"], pa.string())
    )
    assert list(zip(terms.to_pylist(), pos.tolist())) == [
        ("running", 0), ("run", 0), ("dogs", 1), ("dog", 1), ("ran", 2),
    ]
    assert an.tokenize_text("the running dogs ran") == [
        "running", "run", "dogs", "dog", "ran",
    ]

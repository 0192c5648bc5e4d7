"""Arabic/Persian/Greek/Bulgarian/Czech/Indonesian/Latvian goldens —
parse the reference's own test vectors at test time (check() /
checkOneTerm() pairs; same stance as tests/test_indic.py), plus embedded
stop-list identity vs the bundled resources and analyzer chain checks.
"""

import io
import re

import pytest

from lucene_ray.analysis import get_analyzer
from lucene_ray.analysis import arabic, greek, stemmers2

_TEST_BASE = (
    "/root/reference/lucene/analysis/common/src/test/org/apache/lucene/"
    "analysis/"
)
_RES_BASE = (
    "/root/reference/lucene/analysis/common/src/resources/org/apache/"
    "lucene/analysis/"
)


def _java_str(s: str) -> str:
    return re.sub(
        r"\\u([0-9a-fA-F]{4})", lambda m: chr(int(m.group(1), 16)), s
    )


def _pairs(rel, call="check", var=""):
    """check("in", "out") or checkOneTerm(<var>, "in", "out") pairs."""
    src = io.open(_TEST_BASE + rel, encoding="utf-8").read()
    if call == "check":
        pat = r'check\(\s*"([^"]*)",\s*"([^"]*)"\)'
    elif call == "assertAnalyzesTo":
        pat = (
            rf'assertAnalyzesTo\({var},\s*"([^"]*)",\s*'
            r'new String\[\]\s*\{"([^"]*)"\}\)'
        )
    else:
        pat = rf'checkOneTerm\({var},\s*"([^"]*)",\s*"([^"]*)"\)'
    pairs = [
        # whitespace-tokenizer harnesses eat stray spaces in the literals
        (_java_str(a).strip(), _java_str(b))
        for a, b in re.findall(pat, src, re.S)
        if a  # testEmptyTerm shadows the analyzer var
    ]
    return pairs


@pytest.mark.requires_reference(_TEST_BASE)
@pytest.mark.parametrize(
    "rel,fn,minimum",
    [
        ("ar/TestArabicNormalizationFilter.java", arabic.arabic_normalize, 12),
        ("ar/TestArabicStemFilter.java", arabic.arabic_stem, 18),
        ("fa/TestPersianNormalizationFilter.java", arabic.persian_normalize, 5),
    ],
    ids=["ar_norm", "ar_stem", "fa_norm"],
)
def test_check_vectors(rel, fn, minimum):
    pairs = _pairs(rel)
    assert len(pairs) >= minimum, rel
    for inp, want in pairs:
        assert fn(inp) == want, (rel, inp, want, fn(inp))


@pytest.mark.requires_reference(_TEST_BASE)
def test_persian_stem_vectors():
    pairs = _pairs("fa/TestPersianStemFilter.java", "checkOneTerm", "a")
    assert len(pairs) >= 9
    for inp, want in pairs:
        # the reference test's MockTokenizer lowercases before the filter
        assert arabic.persian_stem(inp.lower()) == want, (inp, want)


@pytest.mark.requires_reference(_TEST_BASE)
def test_latvian_stem_vectors():
    pairs = _pairs("lv/TestLatvianStemmer.java", "checkOneTerm", "a")
    assert len(pairs) >= 150
    for inp, want in pairs:
        assert stemmers2.latvian_stem(inp) == want, (inp, want)


@pytest.mark.requires_reference(_TEST_BASE)
@pytest.mark.parametrize("var,derivational", [("a", True), ("b", False)])
def test_indonesian_stem_vectors(var, derivational):
    pairs = _pairs("id/TestIndonesianStemmer.java", "checkOneTerm", var)
    assert len(pairs) >= (50 if var == "a" else 3)
    for inp, want in pairs:
        got = stemmers2.indonesian_stem(inp, derivational)
        assert got == want, (inp, want, got)


@pytest.mark.requires_reference(_TEST_BASE)
@pytest.mark.parametrize(
    "rel,var,name,minimum,call",
    [
        ("bg/TestBulgarianStemmer.java", "a", "bulgarian", 90, "assertAnalyzesTo"),
        ("cz/TestCzechStemmer.java", "cz", "czech", 130, "assertAnalyzesTo"),
        ("el/TestGreekStemmer.java", "a", "greek", 300, "checkOneTerm"),
    ],
    ids=["bg", "cz", "el"],
)
def test_full_analyzer_vectors(rel, var, name, minimum, call):
    """These reference tests drive the FULL analyzer (lowercase/fold +
    stop + stem), so run ours end-to-end per input word."""
    an = get_analyzer(name)
    pairs = _pairs(rel, call, var)
    assert len(pairs) >= minimum, rel
    for inp, want in pairs:
        toks = an.tokenize_text(inp)
        assert toks == [want], (rel, inp, want, toks)


def test_greek_fold():
    # GreekLowerCaseFilter: final sigma + tonos/dialytika strips, incl.
    # capitals reached through standard lowercase first
    assert greek.greek_fold("ΆΝΘΡΩΠΟΣ") == "ανθρωποσ"
    assert greek.greek_fold("Μάιος") == "μαιοσ"
    assert greek.greek_fold("ΪΫΐΰ") == "ιυιυ"


def test_arabic_analyzer_chain():
    an = get_analyzer("arabic")
    # TestArabicAnalyzer: "كبير" with tashkeel diacritics folds to same
    # term; stopword "و" dropped even glued as a token
    assert an.tokenize_text("كَبِير") == an.tokenize_text("كبير") == ["كبير"]
    assert an.tokenize_text("من") == []  # ar stopword
    # definite article + plural strip: الكتابات -> كتاب
    assert an.tokenize_text("الكتابات") == ["كتاب"]


def test_persian_analyzer_chain():
    an = get_analyzer("persian")
    # ZWNJ is a SEPARATOR (PersianCharFilter): the compound splits, and
    # the می half then drops as a stopword — the fused form is NOT a
    # stopword, so getting [خورد] proves the split happened pre-stop
    assert an.tokenize_text("می‌خورد") == ["خورد"]
    # farsi yeh normalizes into arabic yeh before the stop filter
    assert an.tokenize_text("کتابهای") == ["كتاب"]


@pytest.mark.requires_reference(_RES_BASE)
def test_registry_and_stop_lists_match_resources():
    from lucene_ray.analysis import stoplists

    for name, res, attr in [
        ("arabic", "ar", "ARABIC_LUCENE_STOP"),
        ("persian", "fa", "PERSIAN_LUCENE_STOP"),
        ("greek", "el", "GREEK_LUCENE_STOP"),
        ("bulgarian", "bg", "BULGARIAN_LUCENE_STOP"),
        ("czech", "cz", "CZECH_LUCENE_STOP"),
        ("indonesian", "id", "INDONESIAN_LUCENE_STOP"),
        ("latvian", "lv", "LATVIAN_LUCENE_STOP"),
    ]:
        an = get_analyzer(name)
        assert an.name == name
        words = set()
        for line in io.open(
            f"{_RES_BASE}{res}/stopwords.txt", encoding="utf-8"
        ):
            line = line.split("#")[0].split("|")[0].strip()
            if line:
                words.update(line.split())
        assert getattr(stoplists, attr) == frozenset(words), name


@pytest.mark.requires_reference(_TEST_BASE)
def test_german_normalization_filter():
    """de/GermanNormalizationFilter FSM vectors from the reference test
    + the chain position (post-stop, pre-stem: GermanAnalyzer.java:134)."""
    from lucene_ray.analysis.lightstem import german_normalize

    src = io.open(
        _TEST_BASE + "de/TestGermanNormalizationFilter.java",
        encoding="utf-8",
    ).read()
    pairs = [
        (a, b)
        for a, b in re.findall(
            r'checkOneTerm\(\w+,\s*"([^"]*)",\s*"([^"]*)"\)', src
        )
        if a
    ]
    assert len(pairs) >= 4
    for a, b in pairs:
        assert german_normalize(a) == b, (a, b)
    an = get_analyzer("german_light")
    # ae-digraph folds before stemming ("Schaltflaechen" == umlaut form)
    assert an.tokenize_text("Schaltflächen Schaltflaechen") == [
        "schaltflach", "schaltflach",
    ]

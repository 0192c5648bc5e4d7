"""Indic analysis goldens — parse the reference's own test vectors at
test time (TestIndicNormalizer / TestHindiNormalizer / TestHindiStemmer /
TestBengaliNormalizer / TestBengaliStemmer check() pairs; same stance as
tests/test_stemmers.py reading the reference zips), plus the machine-
extracted suffix-table identity check and analyzer registry round-trips.
"""

import io
import re

import pytest

from lucene_ray.analysis import get_analyzer
from lucene_ray.analysis import indic

_TEST_BASE = (
    "/root/reference/lucene/analysis/common/src/test/org/apache/lucene/"
    "analysis/"
)
_SRC_BASE = (
    "/root/reference/lucene/analysis/common/src/java/org/apache/lucene/"
    "analysis/"
)


def _java_str(s: str) -> str:
    # decode the \\uXXXX escapes Java sources mix into literal text
    return re.sub(
        r"\\u([0-9a-fA-F]{4})", lambda m: chr(int(m.group(1), 16)), s
    )


def _check_pairs(rel):
    src = io.open(_TEST_BASE + rel, encoding="utf-8").read()
    pairs = [
        (_java_str(a), _java_str(b))
        for a, b in re.findall(r'check\("([^"]*)", "([^"]*)"\)', src)
    ]
    assert len(pairs) >= 7, rel
    return pairs


@pytest.mark.requires_reference(_TEST_BASE)
@pytest.mark.parametrize(
    "rel,fn",
    [
        ("in/TestIndicNormalizer.java", indic.indic_normalize),
        ("hi/TestHindiNormalizer.java", indic.hindi_normalize),
        ("hi/TestHindiStemmer.java", indic.hindi_stem),
        ("bn/TestBengaliNormalizer.java", indic.bengali_normalize),
        ("bn/TestBengaliStemmer.java", indic.bengali_stem),
    ],
    ids=["indic_norm", "hi_norm", "hi_stem", "bn_norm", "bn_stem"],
)
def test_reference_vectors(rel, fn):
    for inp, want in _check_pairs(rel):
        assert fn(inp) == want, (rel, inp, want, fn(inp))


@pytest.mark.requires_reference(_SRC_BASE)
@pytest.mark.parametrize(
    "rel,table",
    [
        ("hi/HindiStemmer.java", indic._HI_SUFFIXES),
        ("bn/BengaliStemmer.java", indic._BN_SUFFIXES),
    ],
    ids=["hi", "bn"],
)
def test_suffix_tables_match_reference_source(rel, table):
    """The embedded cascade tables are byte-identical to the groups in the
    reference source (guards, cut counts, suffix strings, order)."""
    src = io.open(_SRC_BASE + rel, encoding="utf-8").read()
    groups = re.findall(
        r"if \(+len > (\d+)\)?\s*&&\s*\((.*?)\)\)\s*return len - (\d+);",
        src,
        re.S,
    )
    assert len(groups) == len(table)
    for (n, body, k), (gn, gk, gs) in zip(groups, table):
        sfx = re.findall(r'endsWith\(buffer, len, "([^"]+)"\)', body)
        assert (int(n), int(k)) == (gn, gk)
        assert [_java_str(s) for s in sfx] == list(gs)


def test_decimal_digit_fold():
    # core/DecimalDigitFilter: Devanagari, Bengali, Arabic-Indic digits
    assert indic.decimal_digit_fold("१२३") == "123"
    assert indic.decimal_digit_fold("১২") == "12"
    assert indic.decimal_digit_fold("١٢") == "12"
    assert indic.decimal_digit_fold("abc123") == "abc123"


def test_hindi_analyzer_chain():
    an = get_analyzer("hindi")
    # stopword है dropped; लडकियों normalizes (ी->ि) then stems
    toks = an.tokenize_text("लडकियों है किताबें")
    assert "लडक" in toks and "किताब" in toks
    assert all("है" != t for t in toks)
    # digits fold before indexing
    assert "123" in an.tokenize_text("१२३")


def test_bengali_analyzer_chain():
    an = get_analyzer("bengali")
    toks = an.tokenize_text("মেয়েদেরকে এই বাড়ী")
    assert "মে" in toks  # TestBengaliStemmer:49 verb/plural strip
    # indic compose (da+nukta->rra) -> normalize (rra->ra, ii->i) -> stem
    assert "বার" in toks
    assert all(t != "এই" for t in toks)  # bn stopword


def test_analyzer_registry_and_overlaps():
    a1 = get_analyzer("hindi")
    assert a1.name == "hindi" and get_analyzer("bengali").name == "bengali"
    assert not getattr(a1, "has_overlaps", False)
    # combining marks stay INSIDE tokens only for the Indic analyzers;
    # the base unicode analyzer's gate-pinned pattern is untouched
    assert get_analyzer("unicode")._sep_pattern() != a1._sep_pattern()

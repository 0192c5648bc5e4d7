"""Pattern package goldens — TestPatternTokenizer's splitting table and
TestPatternCaptureGroupTokenFilter's testPatterns calls parsed from the
reference at test time, plus replace-filter behavior and the overlap
contract through the capturegroup analyzer."""

import io
import re

import pyarrow as pa
import pytest

from lucene_ray.analysis import get_analyzer
from lucene_ray.analysis import pattern as pat

_TEST_BASE = (
    "/root/reference/lucene/analysis/common/src/test/org/apache/lucene/"
    "analysis/pattern/"
)


def _java_str(s: str) -> str:
    s = re.sub(r"\\u([0-9a-fA-F]{4})", lambda m: chr(int(m.group(1), 16)), s)
    return (
        s.replace("\\\\", "\x00")
        .replace("\\'", "'")
        .replace("\\t", "\t")
        .replace("\\n", "\n")
        .replace("\x00", "\\")
    )


@pytest.mark.requires_reference(_TEST_BASE)
def test_pattern_tokenizer_splitting_table():
    src = io.open(
        _TEST_BASE + "TestPatternTokenizer.java", encoding="utf-8"
    ).read()
    body = src.split("String[][] tests = {")[1].split("};")[0]
    rows = re.findall(
        r'\{"(-?\d+)",\s*(?:qpattern|"((?:[^"\\]|\\.)*)"),\s*'
        r'"((?:[^"\\]|\\.)*)",\s*"((?:[^"\\]|\\.)*)"\}',
        body,
    )
    assert len(rows) >= 8
    for group, pattern, inp, out in rows:
        if not pattern:  # the qpattern rows
            pattern = r"'([^']+)'"
        # Java \p{Space} -> the Python/RE2 equivalent class
        rx = _java_str(pattern).replace(r"\p{Space}", r"\s")
        toks = pat.pattern_tokenize(_java_str(inp), rx, int(group))
        assert toks == _java_str(out).split(" "), (group, pattern, inp)


def _capture_calls():
    src = io.open(
        _TEST_BASE + "TestPatternCaptureGroupTokenFilter.java",
        encoding="utf-8",
    ).read()
    calls = re.findall(
        r'testPatterns\(\s*"((?:[^"\\]|\\.)*)",\s*'
        r"new String\[\] \{([^}]*)\},\s*"
        r"new String\[\] \{([^}]*)\},\s*"
        r"new int\[\] \{[^}]*\},\s*"
        r"new int\[\] \{[^}]*\},\s*"
        r"new int\[\] \{[^}]*\},\s*"
        r"(true|false)\)",
        src,
        re.S,
    )
    out = []
    for inp, pats, toks, preserve in calls:
        patterns = [
            _java_str(p) for p in re.findall(r'"((?:[^"\\]|\\.)*)"', pats)
        ]
        expected = [
            _java_str(t) for t in re.findall(r'"((?:[^"\\]|\\.)*)"', toks)
        ]
        out.append((_java_str(inp), patterns, expected, preserve == "true"))
    return out


@pytest.mark.requires_reference(_TEST_BASE)
def test_capture_group_reference_vectors():
    calls = _capture_calls()
    assert len(calls) >= 15
    for inp, patterns, expected, preserve in calls:
        got = []
        for tok in inp.split():
            got.extend(pat.capture_groups_term(tok, patterns, preserve))
        assert got == expected, (inp, patterns, preserve, got, expected)


def test_pattern_replace():
    toks = pa.array([["aaabbb", "cc", ""]], pa.list_(pa.string()))
    assert pat.pattern_replace_lists(toks, "a+", "-").to_pylist() == [
        ["-bbb", "cc", ""]
    ]
    assert pat.pattern_replace_lists(
        toks, "b", "x", all_matches=False
    ).to_pylist() == [["aaaxbb", "cc", ""]]


def test_pattern_analyzer_registry():
    an = get_analyzer("pattern")
    assert an.tokenize_text("Foo-Bar don't x9") == [
        "foo", "bar", "don't", "x9",
    ]
    cg = get_analyzer("capturegroup")
    assert cg.has_overlaps
    # captures share the original's position (posInc 0)
    row, terms, pos = cg.tokenize_flat(
        pa.array(["abc123 plain"], pa.string())
    )
    assert list(zip(terms.to_pylist(), pos.tolist())) == [
        ("abc123", 0), ("abc", 0), ("123", 0), ("plain", 1),
    ]

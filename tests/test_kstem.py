"""KStem (analysis/kstem.py — analysis/en/KStemmer.java) validated
token-for-token against the reference's OWN bundled golden set
(analysis/common/src/test/.../en/kstemTestData.zip, 12,130 pairs) plus
chain/pass-through behavior tests."""

import zipfile

import pyarrow as pa
import pytest

from lucene_ray.analysis import get_analyzer
from lucene_ray.analysis.kstem import kstem, kstem_stem_terms

_ZIP = (
    "/root/reference/lucene/analysis/common/src/test/org/apache/lucene/"
    "analysis/en/kstemTestData.zip"
)


@pytest.mark.requires_reference(_ZIP)
def test_reference_golden_pairs():
    with zipfile.ZipFile(_ZIP) as f:
        lines = f.read("kstem_examples.txt").decode("utf-8").splitlines()
    total = 0
    for ln in lines:
        parts = ln.split("\t")
        if len(parts) != 2:
            continue
        word, want = parts
        assert kstem(word) == want, (word, want, kstem(word))
        total += 1
    assert total == 12130


def test_pass_through_rules():
    # length <= 2 and >= 50, non a-z chars: unchanged (KStemmer.stem guards)
    assert kstem("ab") == "ab"
    assert kstem("a" * 50) == "a" * 50
    assert kstem("item5s") == "item5s"
    assert kstem("naïves") == "naïves"
    # dictionary exceptions map to themselves (aides -> aide via plural,
    # but "aide" itself stays)
    assert kstem("aide") == "aide"
    assert kstem("aides") == "aide"
    # direct conflations and country/nationality
    assert kstem("lying") == "lie"
    assert kstem("italians") == "italy"


def test_dictionary_validation_examples():
    # rule fires only when the candidate root is a real word
    assert kstem("backfilled") == "backfill"
    assert kstem("microcoded") == "microcode"
    assert kstem("amplification") == "amplify"
    # "definition" is itself a dictionary headword -> untouched (golden)
    assert kstem("definition") == "definition"
    # productive endings accepted outright
    assert kstem("readability") == "readable"
    assert kstem("modernizer") == "modernize"
    # a dictionary headword is NEVER stemmed (flying is a head entry, so
    # unlike Porter the -ing rule does not fire — pinned by the golden set)
    assert kstem("flying") == "flying"
    assert kstem("walked") == "walk"


def test_stem_terms_gather_matches_scalar():
    terms = pa.array(
        ["flying", "aides", "aides", "walked", "zzzqqq", "flying"]
    )
    got = kstem_stem_terms(terms).to_pylist()
    assert got == [kstem(t) for t in terms.to_pylist()]


def test_registry_chain():
    a = get_analyzer("english_kstem")
    # stop words removed, tokens kstemmed, positions compacted
    assert a.tokenize_text("the aides walked mentally") == [
        "aide", "walk", "mental",
    ]
    arr = a.tokenize_array(pa.array(["The aides walked"]))
    assert arr.to_pylist() == [["aide", "walk"]]

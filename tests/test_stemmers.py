"""Light/minimal/plural stemmers (analysis/stemmers.py) validated
token-for-token against the reference's OWN bundled vocabulary test data
(analysis/common/src/test/.../*testdata.zip — 312K golden pairs total:
the strongest available parity evidence for a no-SQL-oracle surface)."""

import zipfile

import pytest

from lucene_ray.analysis import get_analyzer
from lucene_ray.analysis import lightstem as ls
from lucene_ray.analysis import stemmers as st

_BASE = (
    "/root/reference/lucene/analysis/common/src/test/org/apache/lucene/"
    "analysis/"
)

_CASES = [
    ("de/delighttestdata.zip", "delight.txt", ls.german_light_stem),
    ("es/eslighttestdata.zip", "eslight.txt", ls.spanish_light_stem),
    ("fr/frlighttestdata.zip", "frlight.txt", ls.french_light_stem),
    ("it/itlighttestdata.zip", "itlight.txt", st.italian_light_stem),
    ("pt/ptlighttestdata.zip", "ptlight.txt", st.portuguese_light_stem),
    ("ru/rulighttestdata.zip", "rulight.txt", st.russian_light_stem),
    ("fi/filighttestdata.zip", "filight.txt", st.finnish_light_stem),
    ("hu/hulighttestdata.zip", "hulight.txt", st.hungarian_light_stem),
    ("sv/svlighttestdata.zip", "svlight.txt", st.swedish_light_stem),
    ("de/deminimaltestdata.zip", "deminimal.txt", st.german_minimal_stem),
    ("fr/frminimaltestdata.zip", "frminimal.txt", st.french_minimal_stem),
    ("es/espluraltestdata.zip", "esplural.txt", st.spanish_plural_stem),
]


@pytest.mark.requires_reference(_BASE)
@pytest.mark.parametrize("zp,name,fn", _CASES, ids=[c[1] for c in _CASES])
def test_reference_vocabulary(zp, name, fn):
    with zipfile.ZipFile(_BASE + zp) as f:
        lines = f.read(name).decode("utf-8").splitlines()
    total = 0
    for ln in lines:
        parts = ln.split("\t")
        if len(parts) != 2:
            continue
        word, want = parts
        assert fn(word) == want, (name, word, want, fn(word))
        total += 1
    assert total > 5000  # every vocabulary file is thousands of pairs


def test_registry_analyzers_tokenize():
    samples = {
        "italian_light": ("dell'articolo sulla qualità", "articol"),
        "portuguese_light": ("as quilométricas contribuições", "quilometric"),
        "russian_light": ("распространение информации", "распространен"),
        "finnish_light": ("epäselvyyksien välttämiseksi", "epaselvyyks"),
        "hungarian_light": ("babakocsijáért indult", "babakocs"),
        "swedish_light": ("jaktkarlarne undersökningen", "jaktkarl"),
        "german_minimal": ("die schönen kinder", "kind"),
        "french_minimal": ("les chevaux énormes", "cheval"),
        "spanish_plural": ("los peces voces", "pez"),
    }
    for name, (text, expect) in samples.items():
        an = get_analyzer(name)
        toks = an.tokenize_text(text)
        assert expect in toks, (name, toks)


def test_italian_elision_longest_first():
    an = get_analyzer("italian_light")
    # "dall'altra" elides the 4-char article, not the 1-char 'd'
    toks = an.tokenize_text("dall'altra parte")
    assert toks[0].startswith("altr"), toks

# ------------------------------------------------------- Norwegian goldens
# The no/ vocabularies are plain tab-separated txt (not zipped) with '#'
# comment lines: nb_* = Bokmål, nn_* = Nynorsk
# (TestNorwegianLightStemFilter.java:85-95 assertVocabulary over these).

_NO_CASES = [
    ("no/nb_light.txt", st.norwegian_light_stem, st.NO_BOKMAAL),
    ("no/nb_minimal.txt", st.norwegian_minimal_stem, st.NO_BOKMAAL),
    ("no/nn_light.txt", st.norwegian_light_stem, st.NO_NYNORSK),
    ("no/nn_minimal.txt", st.norwegian_minimal_stem, st.NO_NYNORSK),
]


@pytest.mark.requires_reference(_BASE)
@pytest.mark.parametrize(
    "path,fn,flags", _NO_CASES, ids=[c[0][3:] for c in _NO_CASES]
)
def test_norwegian_reference_vocabulary(path, fn, flags):
    total = 0
    with open(_BASE + path, encoding="utf-8") as f:
        for ln in f:
            ln = ln.strip()
            if not ln or ln.startswith("#"):
                continue
            word, want = ln.split("\t")
            assert fn(word, flags) == want, (path, word, want)
            total += 1
    assert total > 50


def test_norwegian_registry_analyzers():
    an = get_analyzer("norwegian_light")
    toks = an.tokenize_text("hemmeligheter bilenes kvaliteten")
    assert "hemmelig" in toks and "bil" in toks, toks
    an = get_analyzer("norwegian_minimal")
    toks = an.tokenize_text("guttene husene")
    assert "gutt" in toks and "hus" in toks, toks
    # stop list applied ("og", "ikke" are norwegian_stop.txt entries)
    assert an.tokenize_text("og ikke huset") == ["hus"]


# ------------------------------------------- English / Swedish minimal

def test_english_minimal_reference_examples():
    # TestEnglishMinimalStemFilter.java:51-59 (Harman S-Stemmer papers)
    pairs = [
        ("queries", "query"), ("phrases", "phrase"), ("corpus", "corpus"),
        ("stress", "stress"), ("kings", "king"), ("panels", "panel"),
        ("aerodynamics", "aerodynamic"), ("congress", "congress"),
        ("serious", "serious"),
    ]
    for w, want in pairs:
        assert st.english_minimal_stem(w) == want, (w, want)


@pytest.mark.requires_reference(_BASE)
def test_swedish_minimal_reference_vocabulary():
    total = 0
    with open(_BASE + "sv/minimal.txt", encoding="utf-8") as f:
        for ln in f:
            ln = ln.strip()
            if not ln or ln.startswith("#"):
                continue
            w, want = ln.split("\t")
            assert st.swedish_minimal_stem(w) == want, (w, want)
            total += 1
    assert total > 50


def test_english_possessive_and_chain():
    assert st.english_possessive("john's") == "john"
    assert st.english_possessive("john’S") == "john"
    assert st.english_possessive("'s") == ""
    assert st.english_possessive("his") == "his"
    an = get_analyzer("english_minimal")
    # possessive strips BEFORE stop ("the" dropped) and S-stem applies
    toks = an.tokenize_text("the king’s queries")
    assert toks == ["king", "query"], toks
    an = get_analyzer("swedish_minimal")
    assert "flask" in an.tokenize_text("och flaskorna"), "sv chain"

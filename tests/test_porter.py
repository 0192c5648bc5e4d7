"""Porter stemmer vs the 1980 paper's worked examples, plus the
EnglishAnalyzer chain (stop removal + stemming + compacted positions)."""

import numpy as np
import pyarrow as pa
import pytest

from lucene_ray.analysis.analyzer import ENGLISH_STOP_SET, get_analyzer
from lucene_ray.analysis.porter import porter_stem, stem_terms

# (input, expected) pairs taken from the steps' example columns in
# M.F. Porter 1980, "An algorithm for suffix stripping"
PAPER_EXAMPLES = [
    # step 1a
    ("caresses", "caress"), ("ponies", "poni"), ("ties", "ti"),
    ("caress", "caress"), ("cats", "cat"),
    # step 1b (+ cleanup rules)
    ("feed", "feed"), ("agreed", "agre"), ("plastered", "plaster"),
    ("bled", "bled"), ("motoring", "motor"), ("sing", "sing"),
    ("conflated", "conflat"), ("troubled", "troubl"), ("sized", "size"),
    ("hopping", "hop"), ("tanned", "tan"), ("falling", "fall"),
    ("hissing", "hiss"), ("fizzed", "fizz"), ("failing", "fail"),
    ("filing", "file"),
    # step 1c
    ("happy", "happi"), ("sky", "sky"),
    # step 2
    ("relational", "relat"), ("conditional", "condit"),
    ("rational", "ration"), ("valenci", "valenc"),
    ("digitizer", "digit"), ("radicalli", "radic"),
    ("differentli", "differ"), ("vileli", "vile"),
    ("analogousli", "analog"), ("vietnamization", "vietnam"),
    ("predication", "predic"), ("operator", "oper"),
    ("feudalism", "feudal"), ("decisiveness", "decis"),
    ("hopefulness", "hope"), ("callousness", "callous"),
    ("formaliti", "formal"), ("sensitiviti", "sensit"),
    ("sensibiliti", "sensibl"),
    # step 3
    ("triplicate", "triplic"), ("formative", "form"),
    ("formalize", "formal"), ("electriciti", "electr"),
    ("electrical", "electr"), ("hopeful", "hope"), ("goodness", "good"),
    # step 4
    ("revival", "reviv"), ("allowance", "allow"),
    ("inference", "infer"), ("airliner", "airlin"),
    ("gyroscopic", "gyroscop"), ("adjustable", "adjust"),
    ("defensible", "defens"), ("irritant", "irrit"),
    ("replacement", "replac"), ("adjustment", "adjust"),
    ("dependent", "depend"), ("adoption", "adopt"),
    ("communism", "commun"), ("activate", "activ"),
    ("angulariti", "angular"), ("effective", "effect"),
    ("bowdlerize", "bowdler"),
    # step 5
    ("probate", "probat"), ("rate", "rate"), ("cease", "ceas"),
    ("controll", "control"), ("roll", "roll"),
]


@pytest.mark.parametrize("word,expected", PAPER_EXAMPLES)
def test_paper_examples(word, expected):
    assert porter_stem(word) == expected


def test_short_words_untouched():
    for w in ("a", "is", "be", "on"):
        assert porter_stem(w) == w


def test_stem_terms_matches_scalar():
    words = [w for w, _ in PAPER_EXAMPLES] * 3
    arr = pa.array(words, type=pa.string())
    got = stem_terms(arr).to_pylist()
    assert got == [porter_stem(w) for w in words]


class TestEnglishAnalyzer:
    def test_chain(self):
        an = get_analyzer("english")
        toks = an.tokenize_text("The ponies are running and hopping happily")
        # stopwords (the, are, and) removed, remainder stemmed
        assert toks == ["poni", "run", "hop", "happili"]

    def test_flat_matches_text(self):
        an = get_analyzer("english")
        rows = [
            "The quick brown foxes were jumping over the lazy dogs",
            "Conditional formatting of relational operators",
            "",
            "the and of to",  # stopwords only
        ]
        row_idx, terms, pos = an.tokenize_flat(pa.array(rows, type=pa.string()))
        terms = terms.to_pylist()
        for r, text in enumerate(rows):
            got = [t for i, t in zip(row_idx, terms) if i == r]
            assert got == an.tokenize_text(text), text
        # positions are compacted post-filter ordinals
        for r in np.unique(row_idx):
            p = pos[row_idx == r]
            assert p.tolist() == list(range(len(p)))

    def test_stopwords_removed(self):
        an = get_analyzer("english")
        toks = set(an.tokenize_text(" ".join(sorted(ENGLISH_STOP_SET))))
        assert toks == set()

    def test_index_roundtrip(self, tmp_path, ray_session):
        import pyarrow.parquet as pq

        from lucene_ray.index.builder import build_index
        from lucene_ray.search.engine import IndexSearcher

        t = pa.table(
            {
                "repo": ["r"] * 3,
                "path": [f"p{i}" for i in range(3)],
                "commit": ["c" * 40] * 3,
                "lang": ["en"] * 3,
                "content": [
                    "the running dogs were hopping",
                    "a dog runs and jumps",
                    "cats sleeping in the sun",
                ],
            }
        )
        src = str(tmp_path / "c.parquet")
        pq.write_table(t, src)
        ix = str(tmp_path / "ix")
        build_index([src], ix, analyzer_name="english", target_docs=10)
        s = IndexSearcher(ix)
        # 'running' and 'runs' both stem to 'run' — query analyzed the same way
        assert set(s.search("running", 10).docids.tolist()) == {0, 1}
        assert set(s.search("runs", 10).docids.tolist()) == {0, 1}
        # stopword-only query matches nothing
        assert s.search("the", 10).docids.tolist() == []


_ZIP = (
    "/root/reference/lucene/analysis/common/src/test/org/apache/"
    "lucene/analysis/en/porterTestData.zip"
)


@pytest.mark.requires_reference(_ZIP)
def test_reference_porter_vocabulary():
    """The reference's own 23,531-word vocabulary (porterTestData.zip
    voc.txt -> output.txt), incl. the post-paper bli/logi revisions."""
    import zipfile

    with zipfile.ZipFile(_ZIP) as f:
        voc = f.read("voc.txt").decode("utf-8").splitlines()
        out = f.read("output.txt").decode("utf-8").splitlines()
    assert len(voc) == len(out) and len(voc) > 20000
    for w, want in zip(voc, out):
        assert porter_stem(w) == want, (w, want, porter_stem(w))

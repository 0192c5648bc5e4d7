"""Index build over the synthetic corpus: plan determinism, CheckIndex
invariants, resume, and N-vs-4N logical equality (FIXTURES.md §8)."""

import glob
import json
import os
import shutil

import numpy as np
import pyarrow.parquet as pq
import pytest

from lucene_ray.index.builder import build_index, build_one_segment, plan_segments
from lucene_ray.index.checkindex import check_index
from lucene_ray.index.corpus import generate_shard, write_corpus
from lucene_ray.index.manifest import read_manifest, segment_dir


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    d = str(tmp_path_factory.mktemp("corpus"))
    write_corpus(d, n_docs=600, n_shards=3, seed=42, row_group_size=50)
    return d


@pytest.fixture(scope="module")
def index_dir(corpus_dir, tmp_path_factory, ray_session):
    d = str(tmp_path_factory.mktemp("index"))
    build_index(sorted(glob.glob(corpus_dir + "/*.parquet")), d, target_docs=100)
    return d


def test_corpus_deterministic():
    a = generate_shard(3, 50, seed=42)
    b = generate_shard(3, 50, seed=42)
    assert a.equals(b)
    c = generate_shard(4, 50, seed=42)
    assert not a.equals(c)


def test_plan_deterministic(corpus_dir):
    paths = glob.glob(corpus_dir + "/*.parquet")
    p1 = plan_segments(sorted(paths), target_docs=100)
    p2 = plan_segments(list(reversed(sorted(paths))), target_docs=100)
    assert [(s.name, s.docid_base, s.n_docs) for s in p1] == [
        (s.name, s.docid_base, s.n_docs) for s in p2
    ]
    assert p1[0].docid_base == 0
    for a, b in zip(p1, p1[1:]):
        assert b.docid_base == a.docid_base + a.n_docs


def test_build_and_checkindex(index_dir):
    m = read_manifest(index_dir)
    assert m.doc_count == 600
    assert len(m.segments) >= 6  # 600 docs / 100 per segment
    report = check_index(index_dir, verify_content=True)
    assert report["ok"], report["problems"][:5]
    assert report["postings"] > 0


def test_manifest_metrics_lineage(index_dir):
    m = read_manifest(index_dir)
    for e in m.segments:
        assert e.metrics["docs_per_sec"] > 0
        assert e.metrics["postings"] > 0
        assert e.input["fingerprint"]
        assert os.path.exists(os.path.join(segment_dir(index_dir, e.name), "entry.json"))


def test_resume_skips_finished(corpus_dir, index_dir, ray_session, tmp_path):
    """Kill-resume: delete one segment, rebuild — only that segment is
    rebuilt, manifest is identical, generation bumps."""
    m1 = read_manifest(index_dir)
    victim = m1.segments[2]
    shutil.rmtree(segment_dir(index_dir, victim.name))
    mtimes = {
        e.name: os.path.getmtime(os.path.join(segment_dir(index_dir, e.name), "entry.json"))
        for e in m1.segments
        if e.name != victim.name
    }
    m2 = build_index(
        sorted(glob.glob(corpus_dir + "/*.parquet")), index_dir, target_docs=100
    )
    assert m2.generation == m1.generation + 1
    assert [(e.name, e.docid_base, e.sum_ttf) for e in m2.segments] == [
        (e.name, e.docid_base, e.sum_ttf) for e in m1.segments
    ]
    for name, t in mtimes.items():
        assert os.path.getmtime(
            os.path.join(segment_dir(index_dir, name), "entry.json")
        ) == t  # untouched


def test_parallelism_independence(corpus_dir, tmp_path, ray_session):
    """Same corpus built at different target segment sizes yields identical
    logical postings (the N vs 4N equivalence core): same docids globally."""
    paths = sorted(glob.glob(corpus_dir + "/*.parquet"))
    d1, d2 = str(tmp_path / "i1"), str(tmp_path / "i2")
    build_index(paths, d1, target_docs=100)
    build_index(paths, d2, target_docs=250)

    def logical_postings(ix):
        from lucene_ray.codec.postings_codec import decode_term_postings
        from lucene_ray.search.reader import IndexReader

        out = {}
        r = IndexReader(ix)
        for e in r.segments:
            sr = r.segment_reader(e.name)
            t = pq.read_table(os.path.join(segment_dir(ix, e.name), "postings.parquet"))
            for row in t.to_pylist():
                tp = decode_term_postings(row)
                pairs = out.setdefault(row["term"], [])
                pairs.extend(
                    zip((tp.docids + e.docid_base).tolist(), tp.tfs.tolist())
                )
        return {k: sorted(v) for k, v in out.items()}

    assert logical_postings(d1) == logical_postings(d2)


def test_index_options_freqs(corpus_dir, tmp_path, ray_session):
    """DOCS_AND_FREQS index: smaller, term/boolean queries fine, phrase
    raises (IndexOptions.java verbosity levels)."""
    import glob as g

    import pytest as pt

    from lucene_ray.search.engine import IndexSearcher

    paths = sorted(g.glob(corpus_dir + "/*.parquet"))
    d_pos = str(tmp_path / "pos")
    d_frq = str(tmp_path / "frq")
    build_index(paths, d_pos, target_docs=200)
    build_index(paths, d_frq, target_docs=200, index_options="freqs")
    m_pos, m_frq = read_manifest(d_pos), read_manifest(d_frq)
    assert sum(e.bytes for e in m_frq.segments) < sum(e.bytes for e in m_pos.segments)

    sp, sf_ = IndexSearcher(d_pos), IndexSearcher(d_frq)
    a, b = sp.search("merge flush", 10), sf_.search("merge flush", 10)
    assert a.docids.tolist() == b.docids.tolist()
    with pt.raises(ValueError, match="without positions"):
        sf_.search('"get manager"', 10)
    with pt.raises(ValueError, match="unsupported index_options"):
        build_index(paths, str(tmp_path / "bad"), index_options="nope")


def test_two_scale_topk_identity(corpus_dir, tmp_path, ray_session):
    """FIXTURES.md §8 scaling fixture: builds at different parallelism/
    segmentation must byte-match top-k docids AND float32 scores."""
    import glob as g

    from lucene_ray.search.engine import IndexSearcher

    paths = sorted(g.glob(corpus_dir + "/*.parquet"))
    d1, d2 = str(tmp_path / "s1"), str(tmp_path / "s2")
    build_index(paths, d1, target_docs=100, concurrency=1)
    build_index(paths, d2, target_docs=250, concurrency=4)
    s1, s2 = IndexSearcher(d1), IndexSearcher(d2)
    for q in ["merge flush index", '"get manager"', "parse AND block", "get*"]:
        a, b = s1.search(q, 10), s2.search(q, 10)
        assert a.docids.tolist() == b.docids.tolist(), q
        assert a.scores.tolist() == b.scores.tolist(), q  # bit-identical


def test_degenerate_corpus(tmp_path, ray_session):
    """Nulls, empty strings, token-free docs: build, search, match-all."""
    import pyarrow as pa

    from lucene_ray.search.engine import IndexSearcher
    from lucene_ray.search.query import BooleanQuery, MatchAllDocsQuery

    t = pa.table(
        {
            "repo": ["r"] * 4,
            "path": [f"p{i}" for i in range(4)],
            "commit": ["c" * 40] * 4,
            "lang": ["py"] * 4,
            "content": ["...", "", None, "!!!@@@"],
        }
    )
    src = str(tmp_path / "c.parquet")
    pq.write_table(t, src)
    ix = str(tmp_path / "ix")
    m = build_index([src], ix, target_docs=10)
    assert (m.doc_count, m.sum_ttf) == (4, 0)
    s = IndexSearcher(ix)
    assert s.search("anything", 5).docids.tolist() == []
    td = s.search(BooleanQuery(should=[MatchAllDocsQuery()]), 10)
    assert td.docids.tolist() == [0, 1, 2, 3]
    assert check_index(ix)["ok"]


def test_check_index_content_of_sorted_build(tmp_path, ray_session, sf_dir):
    """verify_content compares the stored hashes with the source rows in
    the build's order: an index-sorted sf0.001 build passes, and one
    tampered stored hash is still reported."""
    import pyarrow as pa

    from lucene_ray.index.corpus import documents_as_corpus

    src = str(tmp_path / "corpus.parquet")
    pq.write_table(pq.read_table(documents_as_corpus(sf_dir)), src, row_group_size=64)
    ix = str(tmp_path / "ix")
    build_index([src], ix, target_docs=64, index_sort=("n_chars", "desc"))
    report = check_index(ix, verify_content=True)
    assert report["ok"], report

    victim = read_manifest(ix).live_segments[1]
    path = os.path.join(segment_dir(ix, victim.name), "stored.parquet")
    stored = pq.read_table(path)
    col = stored.schema.get_field_index("content_sha256")
    hashes = stored.column(col).to_pylist()
    hashes[0] = "0" * 64
    pq.write_table(stored.set_column(col, "content_sha256", pa.array(hashes)), path)
    assert check_index(ix, verify_content=True)["problems"] == [
        f"{victim.name}: content sha256 mismatch vs source"
    ]


def test_plan_segments_byte_bound(tmp_path):
    """A spec closes at the COMPRESSED-byte bound even when far under the
    doc bound (the RAM-buffer flush analog) — giant docs cannot produce a
    task-heap-blowing segment; bounds derive from footers only."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from lucene_ray.index.builder import plan_segments

    big = "x" * 100_000  # ~100 KB per doc, incompressible-ish
    t = pa.table({
        "repo": ["r"] * 64, "path": [f"p{i}" for i in range(64)],
        "commit": ["0" * 40] * 64, "lang": ["en"] * 64,
        "content": [big + str(i) for i in range(64)],
    })
    f = str(tmp_path / "big.parquet")
    pq.write_table(t, f, row_group_size=8, compression="none")
    # 8 row groups x ~800 KB; a 2 MB byte budget packs 2 groups per spec
    specs = plan_segments([f], target_docs=1_000_000, target_bytes=2 << 20)
    assert len(specs) == 4
    assert [s.n_docs for s in specs] == [16, 16, 16, 16]
    # docid bases stay contiguous prefix sums regardless of the budget
    assert [s.docid_base for s in specs] == [0, 16, 32, 48]
    # one oversized row group still gets its own spec (acc == 0 override)
    specs1 = plan_segments([f], target_docs=1_000_000, target_bytes=1)
    assert len(specs1) == 8 and all(s.n_docs == 8 for s in specs1)


# (build options, variant, fingerprint of a fixed spec) for every option
# combination the gates and tests build with (url_email is rejected, see
# test_urlemail), plus the default and one build that sets every option.
# Segment names embed the fingerprint, so a change here orphans every
# cached index and every resumable build.
VARIANT_PINS = [
    ({}, "", "19ab49a684de"),
    ({"analyzer_name": "english"}, "english:positions", "381bde09affb"),
    ({"analyzer_name": "folding"}, "folding:positions", "07a7448c2b01"),
    ({"analyzer_name": "german_light"}, "german_light:positions", "0843df535b9a"),
    ({"analyzer_name": "gram3"}, "gram3:positions", "fadf49e4b629"),
    ({"analyzer_name": "html"}, "html:positions", "6114ab36ac31"),
    ({"analyzer_name": "phonetic_dmetaphone"}, "phonetic_dmetaphone:positions",
     "b797d69f2584"),
    ({"analyzer_name": "phonetic_soundex"}, "phonetic_soundex:positions",
     "4351930f79e3"),
    ({"analyzer_name": "synonym"}, "synonym:positions", "a18c706bb52b"),
    ({"analyzer_name": "unicode"}, "unicode:positions", "71fa0ecde0fc"),
    ({"analyzer_name": "ngram", "term_vectors": True}, "ngram:positions:tv",
     "ee1f89186c51"),
    ({"index_options": "freqs"}, "code:freqs", "80e46a011a6a"),
    ({"index_options": "offsets"}, "code:offsets", "95c85b31fd36"),
    ({"index_options": "offsets", "term_vectors": True}, "code:offsets:tv",
     "a83922925c52"),
    ({"term_vectors": True}, "code:positions:tv", "f985121a624c"),
    ({"index_sort": ("n_chars", "desc")}, "code:positions:sort=n_chars:desc",
     "8f42fb49fe3a"),
    ({"dv_fields": ("prio",), "index_sort": ("prio", "asc")},
     "code:positions:sort=prio:asc:dv=prio", "82b28a28848f"),
    ({"point2d_fields": ("loc",)}, "code:positions:geo=loc", "114ba4cea816"),
    ({"dv_fields": ("dscore", "fscore")}, "code:positions:dv=dscore,fscore",
     "ec2b2aeb2c23"),
    ({"dv_fields": ("dscore",)}, "code:positions:dv=dscore", "e844f0753797"),
    ({"dv_fields": ("hfscore",)}, "code:positions:dv=hfscore", "1c11cd0128c6"),
    ({"dv_fields": ("ip_hi", "ip_lo")}, "code:positions:dv=ip_hi,ip_lo",
     "e35f5440046f"),
    ({"dv_fields": ("prio",), "sorted_dv_fields": ("lang",),
      "sorted_set_dv_fields": ("labels",)},
     "code:positions:dv=prio:sdv=lang:ssdv=labels", "0f2b7c76e9d8"),
    ({"dv_fields": ("src_id",), "sorted_dv_fields": ("lang", "repo"),
      "sorted_set_dv_fields": ("labels",)},
     "code:positions:dv=src_id:sdv=lang,repo:ssdv=labels", "31deaeb0982c"),
    ({"payload_fn": "term_length"}, "code:positions:pay=term_length",
     "d18472abba47"),
    ({"payload_fn": "pos_mod16"}, "code:positions:pay=pos_mod16",
     "135ebc289f98"),
    ({"range_fields": ("span",)}, "code:positions:rng=span", "298a6e9ebac0"),
    ({"range_fields": ("bbox_lat", "bbox_lon")},
     "code:positions:rng=bbox_lat,bbox_lon", "2b615507523e"),
    ({"analyzed_fields": ("path",)}, "code:positions:af=path", "87fd0a5e9fea"),
    ({"analyzed_fields": ("rev", "path")}, "code:positions:af=rev,path",
     "033425e23337"),
    ({"analyzed_fields": ("rev", "repo")}, "code:positions:af=rev,repo",
     "5afacb5fd596"),
    ({"sorted_numeric_dv_fields": ("sig_nums",)}, "code:positions:sndv=sig_nums",
     "6f210f226314"),
    ({"binary_dv_fields": ("fsets",)}, "code:positions:bdv=fsets",
     "c48b3c25bf18"),
    ({"sorted_numeric_dv_fields": ("sig_nums",),
      "binary_dv_fields": ("content_sha",)},
     "code:positions:sndv=sig_nums:bdv=content_sha", "8e899eb8d6fc"),
    ({"shape_fields": ("rect",)}, "code:positions:shape=rect", "ede5a502d1ca"),
    # every option at once, as lists: pins the tag order and normalisation
    ({"analyzer_name": "english", "index_options": "offsets",
      "index_sort": ["n_chars", "asc"], "point2d_fields": ["loc"],
      "term_vectors": True, "dv_fields": ["prio"],
      "sorted_dv_fields": ["lang"], "sorted_set_dv_fields": ["labels"],
      "payload_fn": "term_length", "range_fields": ["span"],
      "analyzed_fields": ["rev"], "sorted_numeric_dv_fields": ["sig_nums"],
      "binary_dv_fields": ["content_sha"], "shape_fields": ["rect"]},
     "english:offsets:sort=n_chars:asc:geo=loc:tv:dv=prio:sdv=lang"
     ":ssdv=labels:pay=term_length:rng=span:af=rev:sndv=sig_nums"
     ":bdv=content_sha:shape=rect", "cc94e2935375"),
]


@pytest.mark.parametrize("opts,variant,fingerprint", VARIANT_PINS)
def test_variant_and_fingerprint_pins(opts, variant, fingerprint, monkeypatch):
    """build_index hands plan_segments the variant its options spell; the
    variant string and the fingerprint it yields never drift."""
    from lucene_ray.index import builder

    class _Planned(Exception):
        pass

    seen = []

    def capture(paths, target_docs, v, *a, **k):
        seen.append(v)
        raise _Planned

    monkeypatch.setattr(builder, "plan_segments", capture)
    with pytest.raises(_Planned):
        builder.build_index(["/data/part-00000.parquet"], "/data/ix", **opts)
    assert seen == [variant]
    spec = builder.SegmentSpec(0, "/data/part-00000.parquet", 0, 2, 100, 0, variant)
    assert spec.fingerprint == fingerprint

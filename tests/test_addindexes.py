"""IndexWriter.addIndexes (no-merge Directory copy): imported segments are
byte-identical with rebased docids; results equal a single combined index;
tombstones, doc values, and term vectors travel; analyzer mismatch rejected."""

import glob
import os
import shutil

import numpy as np
import pyarrow as pa
import pytest

from lucene_ray.index.builder import build_index
from lucene_ray.index.checkindex import check_index
from lucene_ray.index.corpus import write_corpus
from lucene_ray.index.manifest import (
    Manifest,
    read_manifest,
    segment_dir,
    write_manifest,
)
from lucene_ray.index.merge import TieredMergePolicy, force_merge, maybe_merge
from lucene_ray.index.segfiles import TERMVECTORS
from lucene_ray.index.writer import (
    add_documents,
    add_indexes,
    delete_docs,
    soft_delete_docs,
)
from lucene_ray.search.engine import IndexSearcher
from lucene_ray.search.query import BooleanQuery, TermQuery
from lucene_ray.search.reader import IndexReader

QUERIES = ["def", "return", "import", "data", "x1"]


def _doc_sets(ix: str) -> dict:
    s = IndexSearcher(ix)
    return {
        q: sorted(s.search(BooleanQuery(must=[TermQuery(q)]), 10**6).docids.tolist())
        for q in QUERIES
    }


@pytest.mark.usefixtures("ray_session")
def test_addindexes_equals_combined(tmp_path):
    corpus = str(tmp_path / "corpus")
    paths = write_corpus(corpus, n_docs=400, n_shards=2, seed=21, row_group_size=50)
    paths = sorted(glob.glob(corpus + "/*.parquet"))
    combined = str(tmp_path / "ix_all")
    build_index(paths, combined, target_docs=50)
    a = str(tmp_path / "ix_a")
    b = str(tmp_path / "ix_b")
    build_index(paths[:1], a, target_docs=50)
    build_index(paths[1:], b, target_docs=50)
    add_indexes(a, [b])
    r = IndexReader(a)
    rc = IndexReader(combined)
    assert r.doc_count == rc.doc_count == 400
    assert r.sum_ttf == rc.sum_ttf
    assert _doc_sets(a) == _doc_sets(combined)
    assert check_index(a, verify_content=False)["ok"]
    # imported segments are mergeable like native ones
    maybe_merge(a, TieredMergePolicy(), use_ray=False)
    assert _doc_sets(a) == _doc_sets(combined)
    assert check_index(a, verify_content=False)["ok"]


@pytest.mark.usefixtures("ray_session")
def test_addindexes_carries_tombstones_and_tv(tmp_path):
    corpus = str(tmp_path / "corpus")
    write_corpus(corpus, n_docs=200, n_shards=2, seed=9, row_group_size=50)
    paths = sorted(glob.glob(corpus + "/*.parquet"))
    a = str(tmp_path / "ix_a")
    b = str(tmp_path / "ix_b")
    build_index(paths[:1], a, target_docs=50, term_vectors=True)
    build_index(paths[1:], b, target_docs=50, term_vectors=True)
    dead_in_b = [0, 7]
    delete_docs(b, dead_in_b)
    n_a = IndexReader(a).doc_count
    base_sets = {**_doc_sets(a)}
    add_indexes(a, [b])
    r = IndexReader(a)
    assert r.doc_count == 200
    # tombstones rebased: the deleted docs never match
    s = IndexSearcher(a)
    for q in QUERIES:
        hits = set(s.search(BooleanQuery(must=[TermQuery(q)]), 10**6).docids.tolist())
        for d in dead_in_b:
            assert n_a + d not in hits
    # term vectors fetch across the import boundary with global ids
    tv = r.term_vectors(np.array([1, n_a + 1, n_a + 50]))
    assert set(tv.column("doc").to_pylist()) <= {1, n_a + 1, n_a + 50}
    assert tv.num_rows > 0
    assert check_index(a, verify_content=False)["ok"]


@pytest.mark.usefixtures("ray_session")
def test_addindexes_analyzer_mismatch(tmp_path):
    corpus = str(tmp_path / "corpus")
    write_corpus(corpus, n_docs=60, n_shards=1, seed=4, row_group_size=30)
    paths = sorted(glob.glob(corpus + "/*.parquet"))
    a = str(tmp_path / "ix_a")
    b = str(tmp_path / "ix_b")
    build_index(paths, a, target_docs=30)
    build_index(paths, b, target_docs=30, analyzer_name="english")
    with pytest.raises(ValueError, match="analyzer mismatch"):
        add_indexes(a, [b])


@pytest.mark.usefixtures("ray_session")
def test_addindexes_keeps_soft_deletes_and_build_options(tmp_path):
    """The imported entry is the source entry with a new name and base:
    soft-deleted docs stay hidden, and the recorded build options travel,
    so later adds build with them and a merge keeps their sidecars."""
    corpus = str(tmp_path / "corpus")
    write_corpus(corpus, n_docs=10, n_shards=1, seed=5, row_group_size=10)
    src = str(tmp_path / "src")
    build_index(sorted(glob.glob(corpus + "/*.parquet")), src, term_vectors=True)
    soft_delete_docs(src, [1, 4, 7])
    assert IndexReader(src).live_doc_count == 7
    dest = str(tmp_path / "dest")
    write_manifest(dest, Manifest(generation=0, analyzer="code", doc_count=0,
                                  sum_ttf=0, segments=[]))
    add_indexes(dest, [src])
    assert IndexReader(dest).live_doc_count == 7
    (src_e,) = read_manifest(src).live_segments
    (e,) = read_manifest(dest).live_segments
    assert (e.soft_del_gen, e.soft_del_count) == (src_e.soft_del_gen, 3)
    assert e.input["options"] == src_e.input["options"]
    assert check_index(dest, verify_content=False)["ok"]
    # the soft-delete generation is part of the import identity
    soft_delete_docs(src, [2])
    add_indexes(dest, [src])
    fps = [x.input["fingerprint"] for x in read_manifest(dest).live_segments]
    assert len(set(fps)) == 2
    # an added segment replays the imported options: the merge keeps the
    # term-vector sidecar every input now carries
    add_documents(dest, pa.table({
        "repo": ["r"], "path": ["p.py"], "commit": ["c"], "lang": ["py"],
        "content": ["def merged_later(): return 1"],
    }))
    (m,) = force_merge(dest).live_segments
    assert os.path.exists(TERMVECTORS.path(segment_dir(dest, m.name)))
    assert IndexReader(dest).live_doc_count == 7 + 6 + 1
    assert check_index(dest, verify_content=False)["ok"]

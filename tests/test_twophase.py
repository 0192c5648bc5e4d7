"""Two-phase commit over the manifest (IndexWriter.prepareCommit /
commit / rollback pendingCommit contract)."""

import copy
import json
import os

import pytest

SF = "/root/testdata/sf0.001"


@pytest.fixture()
def small_index(ray_session, tmp_path):
    from lucene_ray.index.builder import build_index
    from lucene_ray.index.corpus import documents_as_corpus

    ix = str(tmp_path / "ix")
    build_index([documents_as_corpus(SF)], ix, target_docs=4096)
    return ix


def _next_manifest(ix):
    from lucene_ray.index.manifest import read_manifest

    m = copy.deepcopy(read_manifest(ix))
    m.generation += 1
    return m


def test_prepare_then_commit_flips_atomically(small_index):
    from lucene_ray.index import manifest as mf

    ix = small_index
    g0 = mf.read_manifest(ix).generation
    staged = _next_manifest(ix)
    mf.prepare_commit(ix, staged)
    # phase 1 is invisible to readers
    assert mf.read_manifest(ix).generation == g0
    assert mf.pending_commit_generation(ix) == g0 + 1
    got = mf.commit_prepared(ix)
    assert got == g0 + 1
    assert mf.read_manifest(ix).generation == g0 + 1
    # the promoted generation is a retained commit, openable by number
    assert g0 + 1 in mf.list_commits(ix)
    assert mf.pending_commit_generation(ix) is None


def test_prepare_then_crash_recovers_to_old_commit(small_index):
    """A crash between the phases: the pending file survives on disk but
    every reader (manifest + searcher) still opens the old commit."""
    from lucene_ray.index import manifest as mf
    from lucene_ray.search.engine import IndexSearcher

    ix = small_index
    g0 = mf.read_manifest(ix).generation
    n0 = mf.read_manifest(ix).doc_count
    staged = _next_manifest(ix)
    staged.doc_count = 1  # a poisoned staged state must never leak
    mf.prepare_commit(ix, staged)
    # "crash": nothing else happens; a fresh open ignores the pending file
    m = mf.read_manifest(ix)
    assert m.generation == g0 and m.doc_count == n0
    s = IndexSearcher(ix)
    assert s.reader.manifest.doc_count == n0
    # recovery tooling can see and discard it
    assert mf.pending_commit_generation(ix) == g0 + 1
    assert mf.rollback_prepared(ix) == g0 + 1
    assert mf.pending_commit_generation(ix) is None


def test_double_prepare_raises(small_index):
    from lucene_ray.index import manifest as mf

    ix = small_index
    mf.prepare_commit(ix, _next_manifest(ix))
    with pytest.raises(RuntimeError, match="prepareCommit was already called"):
        mf.prepare_commit(ix, _next_manifest(ix))
    mf.rollback_prepared(ix)


def test_stale_generation_rejected(small_index):
    from lucene_ray.index import manifest as mf

    ix = small_index
    stale = copy.deepcopy(mf.read_manifest(ix))  # same generation
    with pytest.raises(ValueError, match="must exceed"):
        mf.prepare_commit(ix, stale)


def test_commit_without_prepare_raises(small_index):
    from lucene_ray.index import manifest as mf

    with pytest.raises(RuntimeError, match="no pending commit"):
        mf.commit_prepared(small_index)


def test_rollback_idempotent(small_index):
    from lucene_ray.index import manifest as mf

    assert mf.rollback_prepared(small_index) is None


def test_pending_file_is_durable_json(small_index):
    """The staged file is complete JSON on disk (fsynced before rename) —
    a downstream catalog can read it to coordinate its own phase 2."""
    from lucene_ray.index import manifest as mf

    ix = small_index
    p = mf.prepare_commit(ix, _next_manifest(ix))
    assert os.path.basename(p) == "pending_manifest.json"
    with open(p) as f:
        d = json.load(f)
    assert d["segments"] and "generation" in d
    mf.rollback_prepared(ix)


def test_stale_commit_prepared_never_overwrites_a_published_commit(small_index):
    """prepare(g+1), then a delete publishes g+1 itself: promoting the
    staged g+1 would silently undo the delete in the current AND the
    retained commit. commit_prepared refuses and publishes nothing."""
    from lucene_ray.index import manifest as mf
    from lucene_ray.index.writer import delete_docs

    ix = small_index
    g = mf.read_manifest(ix).generation
    mf.prepare_commit(ix, _next_manifest(ix))
    assert delete_docs(ix, [0, 1, 2]) == 3
    with pytest.raises(ValueError, match="must exceed"):
        mf.commit_prepared(ix)
    for m in (mf.read_manifest(ix), mf.read_manifest(ix, generation=g + 1)):
        assert m.generation == g + 1
        assert sum(e.del_count for e in m.segments) == 3
    # the pending commit stays until the caller discards it
    assert mf.rollback_prepared(ix) == g + 1

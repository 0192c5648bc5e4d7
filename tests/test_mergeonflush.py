"""MergeOnFlushMergePolicy (index/merge.py —
sandbox/index/MergeOnFlushMergePolicy.java): small-segment selection,
adjacency runs, commit-round execution, wrapped-policy delegation,
result identity."""

import numpy as np
import pytest

SF = "/root/testdata/sf0.001"


def _build(tmp, target_docs=64):
    import pyarrow.parquet as pq

    from lucene_ray.index.builder import build_index
    from lucene_ray.index.corpus import documents_as_corpus

    # segments plan from Parquet row groups: rewrite with 64-row groups so
    # the build really is multi-segment (the splitter-gate pattern)
    small = str(tmp / "corpus.parquet")
    pq.write_table(
        pq.read_table(documents_as_corpus(SF)), small, row_group_size=64
    )
    ix = str(tmp / "ix")
    build_index([small], ix, target_docs=target_docs)
    return ix


def test_full_flush_selects_adjacent_small_runs():
    from lucene_ray.index.merge import MergeOnFlushMergePolicy

    class E:
        def __init__(self, name, base, b):
            self.name, self.docid_base, self.bytes = name, base, b
            self.doc_count = 10  # every base below is 10 past the last
            self.deleted = False

    p = MergeOnFlushMergePolicy(small_segment_threshold_mb=1.0)
    one_mb = 1 << 20
    segs = [
        E("a", 0, 10), E("b", 10, 20),            # small run 1
        E("big", 20, 5 * one_mb),
        E("c", 30, 5), E("d", 40, 5), E("e", 50, 5),  # small run 2
        E("big2", 60, 2 * one_mb),
        E("lone", 70, 7),                          # single small: untouched
    ]
    assert p.find_full_flush_merges(segs) == [["a", "b"], ["c", "d", "e"]]
    # nothing small -> no merges
    assert p.find_full_flush_merges([E("x", 0, 9 * one_mb)]) == []


def test_commit_round_merges_and_preserves_results(ray_session, tmp_path):
    from lucene_ray.index.manifest import read_manifest
    from lucene_ray.index.merge import MergeOnFlushMergePolicy, merge_on_commit
    from lucene_ray.search.engine import IndexSearcher
    from lucene_ray.search.query import BooleanQuery, TermQuery

    ix = _build(tmp_path, target_docs=64)  # many tiny segments
    before = read_manifest(ix)
    n_before = len(before.live_segments)
    assert n_before > 4
    s = IndexSearcher(ix)
    want = s.search(BooleanQuery(must=[TermQuery("merge")]), 1 << 20)

    p = MergeOnFlushMergePolicy(small_segment_threshold_mb=100.0)
    after = merge_on_commit(ix, p, use_ray=False)
    assert after.generation == before.generation + 1
    assert len(after.live_segments) < n_before
    assert after.doc_count == before.doc_count
    # every surviving segment is either big or a merged run result
    s2 = IndexSearcher(ix)
    got = s2.search(BooleanQuery(must=[TermQuery("merge")]), 1 << 20)
    assert got.docids.tolist() == want.docids.tolist()
    assert np.allclose(got.scores, want.scores)
    # idempotent: a second commit round finds nothing (all merged already)
    again = merge_on_commit(ix, p, use_ray=False)
    assert again.generation == after.generation or len(
        again.live_segments
    ) <= len(after.live_segments)


def test_background_merges_delegate_to_wrapped(tmp_path, ray_session):
    from lucene_ray.index.manifest import read_manifest
    from lucene_ray.index.merge import (
        MergeOnFlushMergePolicy,
        TieredMergePolicy,
        maybe_merge,
    )

    ix = _build(tmp_path, target_docs=64)
    p = MergeOnFlushMergePolicy(wrapped=TieredMergePolicy())
    m1 = maybe_merge(ix, p, use_ray=False)
    # identical to what the wrapped policy alone would plan on the same
    # segment set (delegation, FilterMergePolicy contract)
    assert p.find_merges(m1.live_segments) == TieredMergePolicy().find_merges(
        m1.live_segments
    )

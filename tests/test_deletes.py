"""Deletes/updates v1: tombstone bitmaps, delete-by-term/docid, atomic
update (delete + add), merge-time postings reclaim, CheckIndex invariants,
pruned-vs-exhaustive duels on an index with deletes."""

import glob

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from lucene_ray.index.builder import build_index
from lucene_ray.index.checkindex import check_index
from lucene_ray.index.merge import force_merge
from lucene_ray.index.writer import (
    add_documents,
    delete_by_term,
    delete_docs,
    update_documents,
)
from lucene_ray.search.engine import IndexSearcher
from lucene_ray.search.reader import IndexReader


def _key(i: int) -> str:
    """Pure-alpha unique key token (the code analyzer splits letter-digit
    boundaries, so numeric suffixes would not survive tokenization)."""
    s = ""
    for _ in range(4):
        s = chr(ord("a") + i % 26) + s
        i //= 26
    return "dockey" + s


def _keyed_corpus(path: str, n: int = 120) -> None:
    """Corpus where every doc carries a unique key token."""
    rng = np.random.default_rng(77)
    words = ["merge", "flush", "index", "batch", "sort", "scan", "hash", "tree"]
    rows = {
        "repo": [f"r{i % 3}" for i in range(n)],
        "path": [f"src/f{i}.py" for i in range(n)],
        "commit": ["c0"] * n,
        "lang": ["py"] * n,
        "content": [
            f"{_key(i)} " + " ".join(rng.choice(words, size=12)) for i in range(n)
        ],
    }
    pq.write_table(pa.table(rows), path, row_group_size=32)


@pytest.fixture()
def ix(tmp_path, ray_session):
    src = str(tmp_path / "corpus.parquet")
    _keyed_corpus(src)
    d = str(tmp_path / "ix")
    build_index([src], d, target_docs=40)  # several segments
    return d


def doc_set(s, q):
    return set(s.search(q, 10_000_000).docids.tolist())


class TestDeletes:
    def test_delete_by_term(self, ix):
        s0 = IndexSearcher(ix)
        victims = doc_set(s0, _key(7))
        assert victims == {7}
        assert delete_by_term(ix, _key(7)) == 1
        s1 = IndexSearcher(ix)  # reopen to observe deletes
        assert doc_set(s1, _key(7)) == set()
        # the doc is gone from EVERY query, not just the key term
        for q in ("merge", "flush sort", "+batch -hash"):
            assert 7 not in doc_set(s1, q)
        assert check_index(ix)["ok"]

    def test_delete_docs_and_matchall(self, ix):
        from lucene_ray.search.query import BooleanQuery, MatchAllDocsQuery

        delete_docs(ix, [3, 5, 99])
        s = IndexSearcher(ix)
        got = doc_set(s, BooleanQuery(should=[MatchAllDocsQuery()]))
        assert got == set(range(120)) - {3, 5, 99}
        r = IndexReader(ix)
        assert r.live_doc_count == 117

    def test_duel_with_deletes(self, ix):
        delete_docs(ix, list(range(0, 120, 9)))
        ex = IndexSearcher(ix, pruned=False)
        pr = IndexSearcher(ix, pruned=True)
        for q in ("merge flush", "sort", "batch scan tree", "+merge -hash"):
            a, b = ex.search(q, 10), pr.search(q, 10)
            assert a.docids.tolist() == b.docids.tolist(), q
            np.testing.assert_allclose(a.scores, b.scores, rtol=1e-6)

    def test_merge_reclaims_postings(self, ix):
        delete_by_term(ix, _key(11))
        delete_by_term(ix, _key(42))
        s_pre = IndexSearcher(ix)
        pre = {q: doc_set(s_pre, q) for q in ("merge", "flush", "sort scan")}
        force_merge(ix)
        r = IndexReader(ix)
        assert len(r.segments) == 1
        # postings physically dropped: the key terms vanish from the dict
        sr = r.segment_reader(r.segments[0].name)
        assert sr.term_row(_key(11)) is None
        assert sr.term_row(_key(42)) is None
        # bitmap carried forward; doc SPACE preserved
        assert r.segments[0].del_count == 2
        assert r.segments[0].doc_count == 120
        s_post = IndexSearcher(ix)
        for q, want in pre.items():
            assert doc_set(s_post, q) == want, q
        assert check_index(ix, verify_content=False)["ok"]

    def test_update_latest_wins(self, ix):
        new = pa.table(
            {
                "repo": ["r9"],
                "path": ["src/f13_v2.py"],
                "commit": ["c1"],
                "lang": ["py"],
                "content": [_key(13) + " freshly updated contents zmarker"],
            }
        )
        update_documents(ix, _key(13), new)
        s = IndexSearcher(ix)
        hits = doc_set(s, _key(13))
        assert hits == {120}  # the NEW docid wins; old 13 tombstoned
        assert doc_set(s, "zmarker") == {120}
        assert 13 not in doc_set(s, "merge") or True  # old tokens gone iff doc 13 had them
        assert 13 not in doc_set(s, _key(13))
        assert check_index(ix)["ok"]

    def test_delete_by_term_ray_path(self, ix):
        assert delete_by_term(ix, _key(1), use_ray=True) == 1
        s = IndexSearcher(ix)
        assert doc_set(s, _key(1)) == set()


class TestDocValuesUpdates:
    """updateNumericDocValue (IndexWriter.java:1901): in-place DV updates
    via generations — sort/range-facet consumers see them after reopen,
    points keep index-time values (reference semantics), merge carries the
    latest generation forward."""

    def test_update_visible_after_reopen(self, ix):
        from lucene_ray.index.checkindex import check_index
        from lucene_ray.index.writer import update_numeric_docvalues
        from lucene_ray.search.engine import fetch_doc_values
        from lucene_ray.search.reader import IndexReader

        s0 = IndexSearcher(ix)
        victims = sorted(doc_set(s0, "merge"))
        before = fetch_doc_values(IndexReader(ix), victims, "n_chars")
        n = update_numeric_docvalues(ix, "merge", "n_chars", 99999)
        assert n == len(victims) > 0
        # snapshot semantics: the OLD reader still sees old values
        assert (
            fetch_doc_values(s0.reader, victims, "n_chars").tolist()
            == before.tolist()
        )
        r1 = IndexReader(ix)
        after = fetch_doc_values(r1, victims, "n_chars")
        assert (after == 99999).all()
        # untouched docs keep their values
        others = sorted(set(range(120)) - set(victims))[:10]
        assert (
            fetch_doc_values(r1, others, "n_chars").tolist()
            == fetch_doc_values(s0.reader, others, "n_chars").tolist()
        )
        assert check_index(ix, verify_content=False)["ok"]

    def test_update_respects_deletes_and_sorts(self, ix):
        from lucene_ray.index.writer import delete_docs, update_numeric_docvalues
        from lucene_ray.search.engine import IndexSearcher as IS
        from lucene_ray.search.engine import search_sorted

        victims = sorted(doc_set(IS(ix), "flush"))
        delete_docs(ix, victims[:2])
        n = update_numeric_docvalues(ix, "flush", "n_chars", 5)
        assert n == len(victims) - 2  # tombstoned docs not updated
        s = IS(ix)
        td = search_sorted(s, "flush", "n_chars", k=len(victims), ascending=True)
        live = [v for v in victims if v not in victims[:2]]
        # all updated docs share value 5 -> docid-asc order, ranked first
        assert td.docids.tolist()[: len(live)] == live
        assert (td.values[: len(live)] == 5).all()

    def test_merge_carries_latest_generation(self, ix):
        from lucene_ray.index.checkindex import check_index
        from lucene_ray.index.merge import force_merge
        from lucene_ray.index.writer import update_numeric_docvalues
        from lucene_ray.search.engine import fetch_doc_values
        from lucene_ray.search.reader import IndexReader

        victims = sorted(doc_set(IndexSearcher(ix), "sort"))
        update_numeric_docvalues(ix, "sort", "n_chars", 777)
        force_merge(ix)
        r = IndexReader(ix)
        assert len(r.segments) == 1
        assert getattr(r.segments[0], "dv_gen", 0) == 0  # folded into base
        assert (fetch_doc_values(r, victims, "n_chars") == 777).all()
        assert check_index(ix, verify_content=False)["ok"]


class TestReopenIfChanged:
    """DirectoryReader.openIfChanged / SearcherManager.maybeRefresh."""

    def test_reopen_sees_new_commits(self, ix):
        from lucene_ray.index.writer import delete_docs
        from lucene_ray.search.engine import reopen_if_changed

        s = IndexSearcher(ix)
        assert reopen_if_changed(s) is None  # nothing changed
        victims = sorted(doc_set(s, "merge"))[:2]
        delete_docs(ix, victims)
        s2 = reopen_if_changed(s)
        assert s2 is not None
        # old snapshot unchanged; new one observes the deletes
        assert set(victims) <= doc_set(s, "merge")
        assert not (set(victims) & doc_set(s2, "merge"))
        assert reopen_if_changed(s2) is None


class TestDVUpdateEdgeCases:
    def test_noop_update_keeps_generation(self, ix):
        from lucene_ray.index.manifest import read_manifest
        from lucene_ray.index.writer import update_numeric_docvalues
        from lucene_ray.search.engine import reopen_if_changed

        s = IndexSearcher(ix)
        g0 = read_manifest(ix).generation
        assert update_numeric_docvalues(ix, "zzzmissingterm", "n_chars", 5) == 0
        assert read_manifest(ix).generation == g0
        assert reopen_if_changed(s) is None

    def test_bogus_field_raises(self, ix):
        from lucene_ray.index.writer import update_numeric_docvalues

        with pytest.raises(KeyError):
            update_numeric_docvalues(ix, "zzzmissingterm", "bogus_field", 5)


class TestCommitsAndRollback:
    """Retained commit history: point-in-time snapshot opens
    (DirectoryReader.open(IndexCommit)) and IndexWriter.rollback."""

    def test_snapshot_open_old_generation(self, ix):
        from lucene_ray.index.manifest import list_commits, read_manifest
        from lucene_ray.index.writer import delete_docs
        from lucene_ray.search.reader import IndexReader

        g0 = read_manifest(ix).generation
        s0 = IndexSearcher(ix)
        victims = sorted(doc_set(s0, "merge"))[:3]
        delete_docs(ix, victims)
        assert g0 in list_commits(ix)
        # current commit observes the deletes; the snapshot does not
        assert not (set(victims) & doc_set(IndexSearcher(ix), "merge"))
        old = IndexReader(ix, generation=g0)
        live = old.segments
        assert all(getattr(e, "del_gen", 0) == 0 for e in live)

    def test_rollback_restores_deleted_docs(self, ix):
        from lucene_ray.index.manifest import read_manifest
        from lucene_ray.index.writer import delete_docs, rollback

        g0 = read_manifest(ix).generation
        before = doc_set(IndexSearcher(ix), "flush")
        victims = sorted(before)[:3]
        delete_docs(ix, victims)
        assert doc_set(IndexSearcher(ix), "flush") == before - set(victims)
        m = rollback(ix, g0)
        assert m.generation > g0  # append-only history
        assert doc_set(IndexSearcher(ix), "flush") == before

    def test_rollback_unknown_generation_raises(self, ix):
        from lucene_ray.index.writer import rollback

        with pytest.raises(FileNotFoundError):
            rollback(ix, 10_000)


class TestRollbackGenerationSafety:
    def test_delete_after_rollback_preserves_snapshots(self, ix):
        from lucene_ray.index.manifest import read_manifest
        from lucene_ray.index.writer import delete_docs, rollback
        from lucene_ray.search.reader import IndexReader

        g1 = read_manifest(ix).generation
        sx = IndexSearcher(ix)
        xs = sorted(doc_set(sx, "merge"))[:2]
        delete_docs(ix, xs)
        g2 = read_manifest(ix).generation  # commit with X deleted
        rollback(ix, g1)
        ys = sorted(doc_set(IndexSearcher(ix), "merge"))[-2:]
        delete_docs(ix, ys)
        # the retained commit g2 must still show exactly X's deletes
        old = IndexReader(ix, generation=g2)
        deleted_in_g2 = {
            e.docid_base + i
            for e in old.segments
            if old.segment_reader(e.name).live_mask is not None
            for i in (~old.segment_reader(e.name).live_mask).nonzero()[0]
        }
        assert deleted_in_g2 == set(xs), (deleted_in_g2, xs)
        cur = doc_set(IndexSearcher(ix), "merge")
        assert not (set(ys) & cur) and (set(xs) & cur) == set(xs)

    def test_add_after_rollback_never_reuses_segment_names(self, ix):
        from lucene_ray.index.manifest import read_manifest
        from lucene_ray.index.writer import add_documents, rollback

        import pyarrow as pa

        g1 = read_manifest(ix).generation

        def add(tag):
            add_documents(
                ix,
                pa.table(
                    {
                        "repo": pa.array(["r"]),
                        "path": pa.array([f"a/{tag}"]),
                        "commit": pa.array(["0"]),
                        "lang": pa.array(["t"]),
                        "content": pa.array([f"uniq{tag}"]),
                    }
                ),
            )

        add("one")
        names_before = {e.name for e in read_manifest(ix).segments}
        rollback(ix, g1)
        add("two")
        names_after = {e.name for e in read_manifest(ix).segments}
        # the new segment must have a FRESH name (the 'one' segment dir is
        # still referenced by a retained commit)
        assert not (names_after - {e for e in names_before if True}) & names_before
        # and the retained commit's segment still holds 'uniqone'
        s = IndexSearcher(ix)
        assert doc_set(s, "uniqtwo")
        assert not doc_set(s, "uniqone")  # not in the current timeline

    def test_noop_delete_keeps_generation(self, ix):
        from lucene_ray.index.manifest import read_manifest
        from lucene_ray.search.engine import reopen_if_changed

        s = IndexSearcher(ix)
        g0 = read_manifest(ix).generation
        assert delete_by_term(ix, "zzzmissingterm") == 0
        assert delete_docs(ix, [10**9, -4]) == 0  # out-of-range docids
        delete_docs(ix, [11])
        assert delete_docs(ix, [11]) == 0  # already tombstoned
        assert read_manifest(ix).generation == g0 + 1  # only the real delete
        assert reopen_if_changed(reopen_if_changed(s)) is None

    def test_update_documents_single_commit(self, ix):
        from lucene_ray.index.manifest import list_commits, read_manifest

        g0 = read_manifest(ix).generation
        commits0 = set(list_commits(ix))
        update_documents(
            ix,
            _key(4),
            pa.table(
                {
                    "repo": pa.array(["r"]),
                    "path": pa.array(["a/upd"]),
                    "commit": pa.array(["0"]),
                    "lang": pa.array(["t"]),
                    "content": pa.array([_key(4) + " replacement body"]),
                }
            ),
        )
        # delete + add published atomically: exactly ONE new generation, and
        # no intermediate commit where the old doc is gone without the new
        assert read_manifest(ix).generation == g0 + 1
        assert set(list_commits(ix)) - commits0 == {g0 + 1}
        s = IndexSearcher(ix)
        assert doc_set(s, "replacement") == doc_set(s, _key(4))
        assert len(doc_set(s, _key(4))) == 1


def test_lru_counts_pruning_keeps_cached_keys():
    from lucene_ray.search.reader import LRUQueryCache

    c = LRUQueryCache(max_entries=4, min_frequency=2)
    # promote two hot keys into the cache
    for _ in range(2):
        for k in ("hot1", "hot2"):
            c.get_or_compute(k, lambda: np.arange(3))
    assert "hot1" in c._data and "hot2" in c._data
    # stream enough distinct cold keys to trigger usage-tracker pruning
    for i in range(c.max_entries * 9):
        c.get_or_compute(f"cold{i}", lambda: np.arange(1))
    # cached keys keep their frequency record even after pruning
    assert c._counts.get("hot1", 0) >= 2
    assert c._counts.get("hot2", 0) >= 2
    assert len(c._counts) <= c.max_entries * 8 + 1


class TestForceMergeDeletes:
    def test_force_merge_deletes_reclaims_only_qualifying(self, ix):
        """forceMergeDeletes (TieredMergePolicy.java:94 pctAllowed=10):
        only segments whose delete pct exceeds the threshold are rewritten;
        untouched segments keep their names; results stay correct."""
        from lucene_ray.index.manifest import read_manifest
        from lucene_ray.index.merge import force_merge_deletes

        # delete 12 docs from the first segment only (>10% of it)
        delete_docs(ix, list(range(0, 12)))
        m0 = read_manifest(ix)
        seg0 = min(m0.live_segments, key=lambda e: e.docid_base)
        before = {e.name for e in m0.live_segments}
        s0 = IndexSearcher(ix)
        want = doc_set(s0, "merge")
        m = force_merge_deletes(ix, pct_allowed=10.0)
        after = {e.name for e in m.live_segments}
        assert len(after) == len(before)
        assert len(before - after) == 1  # exactly the deleted-heavy segment
        rewritten = next(e for e in m.live_segments if e.name not in before)
        # slots stay tombstoned (stable docids) but their postings are gone
        assert rewritten.doc_count == seg0.doc_count
        assert rewritten.del_count == 12 and rewritten.reclaimed == 12
        res = check_index(ix, verify_content=False)
        assert res["ok"], res["problems"]
        s1 = IndexSearcher(ix)
        assert doc_set(s1, "merge") == want
        # idempotent: a second call finds nothing left to reclaim
        g1 = read_manifest(ix).generation
        force_merge_deletes(ix, pct_allowed=10.0)
        assert read_manifest(ix).generation == g1

    def test_force_merge_deletes_noop_below_threshold(self, ix):
        from lucene_ray.index.manifest import read_manifest
        from lucene_ray.index.merge import force_merge_deletes

        delete_docs(ix, [0])  # 2.5% of segment 0 — under the threshold
        g0 = read_manifest(ix).generation
        force_merge_deletes(ix, pct_allowed=10.0)
        m = read_manifest(ix)
        assert m.generation == g0  # no-op: nothing qualified


class TestExorcise:
    def test_exorcise_drops_corrupt_segment(self, ix):
        """CheckIndex.exorciseIndex: a segment with an unreadable postings
        file is detached; the rest of the index opens and searches."""
        import glob
        import os

        from lucene_ray.index.checkindex import exorcise_index
        from lucene_ray.index.manifest import read_manifest

        from lucene_ray.index.manifest import segment_dir

        m0 = read_manifest(ix)
        victim = sorted(m0.live_segments, key=lambda e: e.docid_base)[1]
        target = os.path.join(segment_dir(ix, victim.name), "postings.parquet")
        with open(target, "wb") as f:
            f.write(b"corrupt")
        res = exorcise_index(ix)
        assert [n for n, _ in res["removed"]] == [victim.name]
        assert res["segments_left"] == len(m0.live_segments) - 1
        m1 = read_manifest(ix)
        assert m1.generation == m0.generation + 1
        assert m1.doc_count == m0.doc_count - victim.doc_count
        # the survivors open and search; the victim's docid range is a gap
        s = IndexSearcher(ix)
        got = doc_set(s, "merge")
        gap = set(range(victim.docid_base, victim.docid_base + victim.doc_count))
        assert not (got & gap)
        assert got  # still finds matches in surviving segments

    def test_exorcise_clean_index_is_noop(self, ix):
        from lucene_ray.index.checkindex import exorcise_index
        from lucene_ray.index.manifest import read_manifest

        g0 = read_manifest(ix).generation
        res = exorcise_index(ix)
        assert res["removed"] == []
        assert read_manifest(ix).generation == g0


class TestUpgrade:
    def test_upgrade_rebuilds_stale_segments(self, ix):
        """IndexUpgrader (IndexUpgrader.java:54): a segment whose recorded
        fingerprint doesn't match the current format rebuilds in place
        (same docid_base); tombstones carry over; current segments are
        untouched; results identical after reopen."""
        import json
        import os

        from lucene_ray.index.builder import upgrade_index
        from lucene_ray.index.manifest import read_manifest, segment_dir

        delete_docs(ix, [0, 1])
        s0 = IndexSearcher(ix)
        want = {q: doc_set(s0, q) for q in ("merge", "flush sort")}
        m0 = read_manifest(ix)
        stale = sorted(m0.live_segments, key=lambda e: e.docid_base)[0]
        # simulate an old-format segment: perturb its recorded fingerprint
        # in BOTH the manifest and its entry.json
        stale.input["fingerprint"] = "deadbeef0000"
        epath = os.path.join(segment_dir(ix, stale.name), "entry.json")
        ent = json.load(open(epath))
        ent["input"]["fingerprint"] = "deadbeef0000"
        json.dump(ent, open(epath, "w"))
        from lucene_ray.index.manifest import write_manifest

        write_manifest(ix, m0)

        res = upgrade_index(ix)
        assert [old for old, _new in res["upgraded"]] == [stale.name]
        assert res["skipped"] == []
        m1 = read_manifest(ix)
        assert m1.generation == m0.generation + 1
        new0 = sorted(m1.live_segments, key=lambda e: e.docid_base)[0]
        # the rebuilt entry records the CURRENT fingerprint (in a real
        # version bump the name would change too — the version is part of
        # the fingerprint; this simulation keeps inputs+format identical)
        assert new0.input["fingerprint"] != "deadbeef0000"
        assert new0.docid_base == stale.docid_base
        assert new0.del_gen == stale.del_gen and new0.del_count == 2
        s1 = IndexSearcher(ix)
        for q, w in want.items():
            assert doc_set(s1, q) == w, q
        # idempotent: everything is current now
        res2 = upgrade_index(ix)
        assert res2["upgraded"] == []
        assert len(res2["current"]) == len(m1.live_segments)

    def test_upgrade_keeps_soft_deletes(self, ix):
        """Soft deletes are a generation like tombstones and DV updates:
        the rebuilt segment carries the softdeletes file and its counts, so
        soft-deleted docs stay hidden (and restorable) after the upgrade."""
        import json
        import os

        from lucene_ray.index.builder import upgrade_index
        from lucene_ray.index.manifest import read_manifest, segment_dir, write_manifest
        from lucene_ray.index.writer import soft_delete_docs, soft_undelete_docs

        assert soft_delete_docs(ix, [0, 1, 2]) == 3
        assert IndexReader(ix).live_doc_count == 117
        m0 = read_manifest(ix)
        stale = sorted(m0.live_segments, key=lambda e: e.docid_base)[0]
        stale.input["fingerprint"] = "deadbeef0000"
        epath = os.path.join(segment_dir(ix, stale.name), "entry.json")
        ent = json.load(open(epath))
        ent["input"]["fingerprint"] = "deadbeef0000"
        json.dump(ent, open(epath, "w"))
        write_manifest(ix, m0)

        res = upgrade_index(ix)
        assert [old for old, _new in res["upgraded"]] == [stale.name]
        new0 = sorted(read_manifest(ix).live_segments, key=lambda e: e.docid_base)[0]
        assert new0.soft_del_gen == stale.soft_del_gen
        assert new0.soft_del_count == 3
        assert IndexReader(ix).live_doc_count == 117
        assert check_index(ix, verify_content=False)["ok"]
        assert soft_undelete_docs(ix, [0, 1, 2]) == 3
        assert IndexReader(ix).live_doc_count == 120

    def test_upgrade_preserves_nondefault_variant(self, tmp_path, ray_session):
        """ADVICE r3 (high): a non-default build (term_vectors sidecar)
        must be rebuilt with its RECORDED options — the sidecar survives
        the upgrade instead of silently vanishing."""
        import json
        import os

        from lucene_ray.index.builder import upgrade_index
        from lucene_ray.index.manifest import (
            read_manifest,
            segment_dir,
            write_manifest,
        )

        src = str(tmp_path / "corpus.parquet")
        _keyed_corpus(src, n=60)
        d = str(tmp_path / "ix_tv")
        build_index([src], d, target_docs=30, term_vectors=True)
        m0 = read_manifest(d)
        stale = sorted(m0.live_segments, key=lambda e: e.docid_base)[0]
        assert os.path.exists(
            os.path.join(segment_dir(d, stale.name), "termvectors.parquet")
        )
        stale.input["fingerprint"] = "deadbeef0000"
        epath = os.path.join(segment_dir(d, stale.name), "entry.json")
        ent = json.load(open(epath))
        ent["input"]["fingerprint"] = "deadbeef0000"
        json.dump(ent, open(epath, "w"))
        write_manifest(d, m0)

        res = upgrade_index(d)
        assert [old for old, _new in res["upgraded"]] == [stale.name]
        m1 = read_manifest(d)
        new0 = sorted(m1.live_segments, key=lambda e: e.docid_base)[0]
        # the rebuilt segment still carries its term-vectors sidecar and
        # records the tv variant in both fingerprint inputs and options
        assert os.path.exists(
            os.path.join(segment_dir(d, new0.name), "termvectors.parquet")
        )
        assert new0.input["options"]["term_vectors"] is True
        assert new0.input["options"]["variant"].endswith(":tv")

    def test_upgrade_skips_legacy_nondefault(self, tmp_path, ray_session):
        """A legacy entry (no recorded options) whose fingerprint cannot be
        proven default-variant is SKIPPED, never degraded to a default
        rebuild."""
        import json
        import os

        from lucene_ray.index.builder import upgrade_index
        from lucene_ray.index.manifest import (
            read_manifest,
            segment_dir,
            write_manifest,
        )

        src = str(tmp_path / "corpus.parquet")
        _keyed_corpus(src, n=60)
        d = str(tmp_path / "ix_legacy")
        build_index([src], d, target_docs=30, term_vectors=True)
        m0 = read_manifest(d)
        for e in m0.live_segments:
            # simulate a pre-options entry from an older format: drop the
            # recorded options and stale the fingerprint
            e.input.pop("options", None)
            e.input["fingerprint"] = "deadbeef0000"
            epath = os.path.join(segment_dir(d, e.name), "entry.json")
            ent = json.load(open(epath))
            ent["input"].pop("options", None)
            ent["input"]["fingerprint"] = "deadbeef0000"
            json.dump(ent, open(epath, "w"))
        write_manifest(d, m0)

        res = upgrade_index(d)
        assert res["upgraded"] == []
        assert sorted(res["skipped"]) == sorted(e.name for e in m0.live_segments)
        # sidecars untouched
        for e in m0.live_segments:
            assert os.path.exists(
                os.path.join(segment_dir(d, e.name), "termvectors.parquet")
            )


class TestSoftDeletes:
    """Soft deletes + retention (IndexWriterConfig.setSoftDeletesField,
    index/SoftDeletesRetentionMergePolicy.java:46): hidden like tombstones,
    reversible, postings retained across merges; prune hardens."""

    def test_soft_delete_hides_and_undelete_restores(self, ix):
        from lucene_ray.index.writer import soft_delete_docs, soft_undelete_docs
        from lucene_ray.search.engine import IndexSearcher

        before = doc_set(IndexSearcher(ix), "merge")
        victims = sorted(before)[:5]
        assert soft_delete_docs(ix, victims) == 5
        s1 = IndexSearcher(ix)  # snapshot semantics: reopen to observe
        assert doc_set(s1, "merge") == before - set(victims)
        assert s1.reader.live_doc_count == 120 - 5
        # idempotent: re-marking changes nothing
        assert soft_delete_docs(ix, victims) == 0
        assert soft_undelete_docs(ix, victims) == 5
        s2 = IndexSearcher(ix)
        assert doc_set(s2, "merge") == before
        assert s2.reader.live_doc_count == 120

    def test_merge_retains_soft_deleted_postings(self, ix):
        from lucene_ray.index.merge import force_merge
        from lucene_ray.index.writer import (
            delete_docs,
            soft_delete_docs,
            soft_undelete_docs,
        )
        from lucene_ray.search.engine import IndexSearcher

        before = doc_set(IndexSearcher(ix), "merge")
        soft = sorted(before)[:4]
        hard = sorted(before)[4:6]
        soft_delete_docs(ix, soft)
        delete_docs(ix, hard)
        force_merge(ix, use_ray=False)
        # hard tombstones: reclaimed for good; soft: hidden but retained
        s = IndexSearcher(ix)
        assert doc_set(s, "merge") == before - set(soft) - set(hard)
        soft_undelete_docs(ix, soft)
        s2 = IndexSearcher(ix)
        # the retention contract: soft-deleted docs SURVIVED the merge
        assert doc_set(s2, "merge") == before - set(hard)
        from lucene_ray.index.checkindex import check_index

        assert check_index(ix)["ok"]

    def test_prune_hardens_non_retained(self, ix):
        from lucene_ray.index.merge import force_merge
        from lucene_ray.index.writer import (
            prune_soft_deletes,
            soft_delete_docs,
            soft_undelete_docs,
        )
        from lucene_ray.search.engine import IndexSearcher

        s0 = IndexSearcher(ix)
        merge_docs = doc_set(s0, "merge")
        flush_docs = doc_set(s0, "flush")
        victims = sorted(merge_docs)[:6]
        soft_delete_docs(ix, victims)
        # retention query = 'flush': victims containing flush stay SOFT
        pruned = prune_soft_deletes(ix, retain_term="flush")
        expect_pruned = [d for d in victims if d not in flush_docs]
        assert pruned == len(expect_pruned)
        force_merge(ix, use_ray=False)
        soft_undelete_docs(ix, victims)
        s = IndexSearcher(ix)
        # hardened victims are gone; retained ones came back
        assert doc_set(s, "merge") == merge_docs - set(expect_pruned)

    def test_soft_on_hard_tombstone_is_noop(self, ix):
        from lucene_ray.index.writer import delete_docs, soft_delete_docs
        from lucene_ray.search.engine import IndexSearcher

        delete_docs(ix, [3])
        assert soft_delete_docs(ix, [3]) == 0
        assert IndexSearcher(ix).reader.live_doc_count == 119

    def test_remerge_after_soft_flip_new_identity(self, ix):
        from lucene_ray.index.merge import force_merge
        from lucene_ray.index.writer import soft_delete_docs
        from lucene_ray.search.engine import IndexSearcher

        m1 = force_merge(ix, use_ray=False)
        names1 = {e.name for e in m1.live_segments}
        soft_delete_docs(ix, [10, 11])
        m2 = force_merge(ix, use_ray=False)
        names2 = {e.name for e in m2.live_segments}
        # the soft flip changed the merge identity -> fresh segment, and
        # the merged segment carries the mask
        assert names1 != names2 or all(
            getattr(e, "soft_del_count", 0) for e in m2.live_segments
        )
        s = IndexSearcher(ix)
        assert 10 not in doc_set(s, "merge") | doc_set(s, "flush") | doc_set(
            s, "batch"
        ) | doc_set(s, "sort") | doc_set(s, "index")


class TestSnapshotsAndPurge:
    """SnapshotDeletionPolicy + KeepOnlyLastCommitDeletionPolicy analogs
    (index/SnapshotDeletionPolicy.java:50): pins protect retained commits
    from purge_commits; purged generations stop being openable; pinned and
    current ones always survive."""

    @pytest.fixture()
    def ix(self, tmp_path_factory, ray_session):
        import glob

        from lucene_ray.index.builder import build_index
        from lucene_ray.index.corpus import write_corpus
        from lucene_ray.index.writer import delete_docs

        corpus = str(tmp_path_factory.mktemp("corpus_snap"))
        write_corpus(corpus, n_docs=120, n_shards=1, seed=3, row_group_size=64)
        d = str(tmp_path_factory.mktemp("ix_snap"))
        build_index(sorted(glob.glob(corpus + "/*.parquet")), d, target_docs=60)
        # create several generations via successive deletes
        delete_docs(d, [1])
        delete_docs(d, [2])
        delete_docs(d, [3])
        return d

    def test_snapshot_protects_and_release_unprotects(self, ix):
        from lucene_ray.index.manifest import (
            list_commits,
            list_snapshots,
            purge_commits,
            read_manifest,
            release_snapshot,
            snapshot_commit,
        )
        from lucene_ray.search.reader import IndexReader

        gens = list_commits(ix)
        assert len(gens) >= 4
        pinned = snapshot_commit(ix, gens[0])
        assert list_snapshots(ix) == [pinned]
        purged = purge_commits(ix, keep_last=1)
        after = list_commits(ix)
        cur = read_manifest(ix).generation
        assert pinned in after and cur in after
        assert set(purged) & set(after) == set()
        # the pinned generation still opens
        r = IndexReader(ix, generation=pinned)
        assert r.manifest.generation == pinned
        # a purged one no longer does
        if purged:
            with pytest.raises(FileNotFoundError):
                IndexReader(ix, generation=purged[0])
        # release + purge removes it
        release_snapshot(ix, pinned)
        purge_commits(ix, keep_last=1)
        assert pinned not in list_commits(ix)

    def test_snapshot_default_pins_current(self, ix):
        from lucene_ray.index.manifest import read_manifest, snapshot_commit

        assert snapshot_commit(ix) == read_manifest(ix).generation

    def test_snapshot_missing_generation_raises(self, ix):
        from lucene_ray.index.manifest import release_snapshot, snapshot_commit

        with pytest.raises(FileNotFoundError):
            snapshot_commit(ix, 10_000)
        with pytest.raises(KeyError):
            release_snapshot(ix, 10_000)

    def test_rollback_to_snapshot_after_purge(self, ix):
        """The snapshot contract end-to-end: pin, purge everything else,
        then rollback to the pinned commit and observe its doc view."""
        from lucene_ray.index.manifest import list_commits, purge_commits, snapshot_commit
        from lucene_ray.index.writer import rollback
        from lucene_ray.search.reader import IndexReader

        g0 = list_commits(ix)[0]  # pre-delete commit
        snapshot_commit(ix, g0)
        purge_commits(ix, keep_last=1)
        before = IndexReader(ix).live_doc_count
        rollback(ix, g0)
        after = IndexReader(ix).live_doc_count
        assert after == before + 3  # the three tombstones are undone


@pytest.mark.parametrize("merged", [False, True])
def test_added_segments_use_index_build_options(tmp_path, ray_session, merged):
    """add_documents builds the new segment with the index's recorded build
    options (analyzed fields, term vectors, ...), not just its analyzer —
    also after a force_merge, whose entry carries its inputs' options."""
    import os

    from lucene_ray.index.manifest import read_manifest, segment_dir

    src = str(tmp_path / "corpus.parquet")
    _keyed_corpus(src, n=60)
    d = str(tmp_path / "ix_opts")
    build_index([src], d, target_docs=30, analyzed_fields=("rev",),
                term_vectors=True)
    if merged:
        force_merge(d, use_ray=False)
    before = {e.name for e in read_manifest(d).live_segments}
    add_documents(
        d,
        pa.table({
            "repo": ["r"] * 5, "path": [f"add/{i}" for i in range(5)],
            "commit": ["c1"] * 5, "lang": ["py"] * 5,
            "content": ["merge flush"] * 5,
        }),
    )
    m = read_manifest(d)
    (added,) = [e for e in m.live_segments if e.name not in before]
    assert added.input["options"]["analyzed_fields"] == ["rev"]
    assert added.input["options"]["variant"] == "code:positions:tv:af=rev"
    assert os.path.exists(
        os.path.join(segment_dir(d, added.name), "termvectors.parquet")
    )
    # the reversed parallel field covers the added docs too
    merge_docs = doc_set(IndexSearcher(d), "merge")
    assert doc_set(IndexSearcher(d), "rev:egrem") == merge_docs
    assert set(range(60, 65)) <= merge_docs
    assert check_index(d)["ok"]

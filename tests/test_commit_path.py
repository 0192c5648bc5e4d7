"""One successor rule (index/manifest.py next_manifest): every commit path
publishes generation prev + 1 with doc_count/sum_ttf equal to the live
sums and index_sort/user_data carried — checked op by op on one index —
and a source pin keeps every publish in lucene_ray/ going through it."""

import ast
import json
import os
import pathlib

import pyarrow.parquet as pq
import pytest

SF = "/root/testdata/sf0.001"
SORT = ["n_chars", "desc"]
REPO = pathlib.Path(__file__).resolve().parent.parent


def _assert_commit(ix, before, delta, user_data):
    from lucene_ray.index.checkindex import check_index
    from lucene_ray.index.manifest import list_commits, read_manifest

    m = read_manifest(ix)
    assert m.generation == before.generation + delta
    live = [e for e in m.segments if not e.deleted]
    assert m.doc_count == sum(e.doc_count for e in live)
    assert m.sum_ttf == sum(e.sum_ttf for e in live)
    assert m.index_sort == SORT
    assert m.user_data == user_data
    gens = list_commits(ix)
    assert all(a < b for a, b in zip(gens, gens[1:]))
    assert gens[-1] == m.generation
    report = check_index(ix)
    assert report["ok"], report
    return m


def _mark_stale(ix):
    """Simulate an old-format segment (a recorded fingerprint that no
    longer matches) so upgrade_index has one segment to rebuild."""
    from lucene_ray.index.manifest import (
        next_manifest,
        read_manifest,
        segment_dir,
        write_manifest,
    )

    m = read_manifest(ix)
    stale = next(e for e in m.live_segments if "file" in e.input)
    stale.input["fingerprint"] = "deadbeef0000"
    epath = os.path.join(segment_dir(ix, stale.name), "entry.json")
    with open(epath) as f:
        ent = json.load(f)
    ent["input"]["fingerprint"] = "deadbeef0000"
    with open(epath, "w") as f:
        json.dump(ent, f)
    write_manifest(ix, next_manifest(m, m.segments))


def _corrupt_one(ix):
    from lucene_ray.index.checkindex import exorcise_index
    from lucene_ray.index.manifest import read_manifest, segment_dir

    victim = read_manifest(ix).live_segments[0]
    target = os.path.join(segment_dir(ix, victim.name), "postings.parquet")
    with open(target, "wb") as f:
        f.write(b"corrupt")
    assert [n for n, _ in exorcise_index(ix)["removed"]] == [victim.name]


def _prepare_and_commit(ix):
    from lucene_ray.index import manifest as mf

    cur = mf.read_manifest(ix)
    mf.prepare_commit(ix, mf.next_manifest(cur, cur.segments))
    assert mf.read_manifest(ix).generation == cur.generation
    assert mf.commit_prepared(ix) == cur.generation + 1


def test_every_commit_path(ray_session, tmp_path):
    from lucene_ray.index.builder import build_index, upgrade_index
    from lucene_ray.index.corpus import documents_as_corpus
    from lucene_ray.index.manifest import read_manifest, set_live_commit_data
    from lucene_ray.index.merge import (
        TieredMergePolicy,
        force_merge_deletes,
        maybe_merge,
    )
    from lucene_ray.index.split import remove_segments
    from lucene_ray.index.writer import (
        add_documents,
        add_indexes,
        delete_by_term,
        delete_docs,
        prune_soft_deletes,
        rollback,
        soft_delete_docs,
        soft_undelete_docs,
        update_documents,
        update_numeric_docvalues,
    )

    corpus = pq.read_table(documents_as_corpus(SF))
    small = str(tmp_path / "corpus.parquet")
    pq.write_table(corpus, small, row_group_size=64)
    other_src = str(tmp_path / "other.parquet")
    pq.write_table(corpus.slice(0, 40), other_src)
    ix, other = str(tmp_path / "ix"), str(tmp_path / "other")
    build_index([small], ix, target_docs=64, index_sort=SORT)
    build_index([other_src], other, target_docs=64, index_sort=SORT)
    m = read_manifest(ix)
    assert m.generation == 1 and len(m.live_segments) > 4
    _assert_commit(ix, m, 0, None)
    two_rows = corpus.slice(0, 2)

    def merge_one_round():
        maybe_merge(ix, TieredMergePolicy(segs_per_tier=2), 1, use_ray=False)

    ud_a, ud_b = {"ckpt": "a"}, {"ckpt": "b"}
    ops = [  # (name, op, generation delta, user data after)
        ("set user data", lambda: set_live_commit_data(ix, ud_a), 1, ud_a),
        ("replace user data", lambda: set_live_commit_data(ix, ud_b), 1, ud_b),
        ("add", lambda: add_documents(ix, two_rows), 1, ud_b),
        ("update", lambda: update_documents(ix, "lang:fr", two_rows), 1, ud_b),
        ("delete", lambda: delete_docs(ix, [0, 1, 2]), 1, ud_b),
        ("no-op delete", lambda: delete_docs(ix, [0, 1, 2]), 0, ud_b),
        ("soft delete", lambda: soft_delete_docs(ix, [10, 11]), 1, ud_b),
        ("soft undelete", lambda: soft_undelete_docs(ix, [10]), 1, ud_b),
        ("prune soft deletes", lambda: prune_soft_deletes(ix), 1, ud_b),
        ("dv update",
         lambda: update_numeric_docvalues(ix, "lang:en", "n_chars", 7), 1, ud_b),
        ("delete by term", lambda: delete_by_term(ix, "lang:de"), 1, ud_b),
        ("mark stale", lambda: _mark_stale(ix), 1, ud_b),
        ("upgrade", lambda: upgrade_index(ix), 1, ud_b),
        ("add indexes", lambda: add_indexes(ix, [other]), 1, ud_b),
        ("force merge deletes",
         lambda: force_merge_deletes(ix, pct_allowed=0.0), 1, ud_b),
        ("maybe merge", merge_one_round, 1, ud_b),
        ("remove segments",
         lambda: remove_segments(ix, [read_manifest(ix).live_segments[-1].name]),
         1, ud_b),
        ("exorcise", lambda: _corrupt_one(ix), 1, ud_b),
        ("rollback", lambda: rollback(ix, 2), 1, ud_a),
        ("prepare/commit", lambda: _prepare_and_commit(ix), 1, ud_a),
    ]
    for name, op, delta, user_data in ops:
        before = read_manifest(ix)
        op()
        try:
            _assert_commit(ix, before, delta, user_data)
        except AssertionError as ex:
            raise AssertionError(f"after {name!r}: {ex}") from ex
    # rollback restored generation 2's segment set under a new generation
    assert [e.name for e in read_manifest(ix).segments] == [
        e.name for e in read_manifest(ix, generation=2).segments
    ]


# --- source pin -------------------------------------------------------------

_COUNTS = {"generation", "doc_count", "sum_ttf"}


def _call_name(node):
    f = node.func
    return f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)


def _pin_problems(rel, tree):
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and _call_name(node) == "Manifest":
            if rel != "search/reader.py":  # the read-only composite view
                out.append(f"{rel}:{node.lineno} Manifest(...)")
        if isinstance(node, ast.Call) and _call_name(node) == "write_manifest":
            arg = node.args[1] if len(node.args) > 1 else None
            if isinstance(arg, ast.NamedExpr):
                arg = arg.value
            if not (isinstance(arg, ast.Call) and _call_name(arg) == "next_manifest"):
                out.append(f"{rel}:{node.lineno} write_manifest without next_manifest")
        targets = (
            node.targets if isinstance(node, ast.Assign)
            else [node.target] if isinstance(node, (ast.AugAssign, ast.AnnAssign))
            else []
        )
        for t in targets:
            if (
                isinstance(t, ast.Attribute)
                and t.attr in _COUNTS
                and not (isinstance(t.value, ast.Name) and t.value.id == "self")
            ):
                out.append(f"{rel}:{node.lineno} assigns .{t.attr}")
    return out


def test_pin_one_successor_rule():
    root = REPO / "lucene_ray"
    problems = []
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        if rel == "index/manifest.py":
            continue
        problems += _pin_problems(rel, ast.parse(path.read_text()))
    assert problems == []


def test_pin_catches_each_violation():
    bad = (
        "m.generation += 1\n"
        "m.doc_count = 3\n"
        "write_manifest(ix, m)\n"
        "x = Manifest(generation=1)\n"
    )
    assert len(_pin_problems("index/x.py", ast.parse(bad))) == 4
    good = "write_manifest(ix, m := next_manifest(p, segs))\nself.doc_count = 1\n"
    assert _pin_problems("index/x.py", ast.parse(good)) == []


def test_next_manifest_rule():
    from lucene_ray.index.manifest import Manifest, SegmentEntry, next_manifest

    def seg(name, base, docs, deleted=False):
        return SegmentEntry(name, base, docs, docs * 3, 1, 1, deleted=deleted)

    first = next_manifest(None, [seg("b", 10, 5), seg("a", 0, 10)], analyzer="code")
    assert first.generation == 1
    assert [e.name for e in first.segments] == ["a", "b"]
    assert (first.doc_count, first.sum_ttf) == (15, 45)
    assert (first.index_sort, first.user_data) == (None, None)
    prev = Manifest(3, "code", 0, 0, [], index_sort=SORT, user_data={"k": "v"})
    m = next_manifest(prev, [seg("a", 0, 10), seg("b", 10, 5, deleted=True)])
    assert (m.generation, m.doc_count, m.sum_ttf) == (4, 10, 30)
    assert (m.analyzer, m.index_sort, m.user_data) == ("code", SORT, {"k": "v"})
    assert next_manifest(prev, [], user_data=None).user_data is None
    with pytest.raises(TypeError):
        next_manifest(prev, [], generation=9)

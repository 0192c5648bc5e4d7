"""Index splitting tools (index/split.py) — IndexSplitter /
MultiPassIndexSplitter / PKIndexSplitter semantics."""

import os

import numpy as np
import pyarrow as pa
import pytest

from lucene_ray.index.builder import build_index
from lucene_ray.index.split import (
    list_segments,
    multipass_split_index,
    pk_split_index,
    remove_segments,
    split_index,
)
from lucene_ray.search.engine import IndexSearcher
from lucene_ray.search.query import BooleanQuery, MatchAllDocsQuery, TermQuery


def _docset(ix):
    s = IndexSearcher(ix)
    td = s.search(BooleanQuery(should=[MatchAllDocsQuery()]), 10_000_000)
    return sorted(td.docids.tolist())


@pytest.fixture(scope="module")
def src(tmp_path_factory, ray_session):
    import pyarrow.parquet as pq

    root = tmp_path_factory.mktemp("splitsrc")
    n = 40
    tbl = pa.table(
        {
            "repo": ["r"] * n,
            "path": [f"f{i:03d}.py" for i in range(n)],
            "commit": ["c"] * n,
            "lang": ["py" if i % 2 == 0 else "go" for i in range(n)],
            "content": [
                "alpha beta doc"
                + "".join(chr(97 + int(c)) for c in str(i))
                + " gamma"
                for i in range(n)
            ],
        }
    )
    cp = str(root / "corpus.parquet")
    pq.write_table(tbl, cp, row_group_size=10)
    ix = str(root / "ix")
    build_index([cp], ix, target_docs=10)
    return ix


def test_list_and_split_segments(src, tmp_path):
    segs = list_segments(src)
    assert len(segs) == 4 and sum(s["doc_count"] for s in segs) == 40
    dest = str(tmp_path / "two")
    split_index(src, dest, [segs[1]["name"], segs[2]["name"]])
    # rebased compactly: 20 docs, ids 0..19
    assert _docset(dest) == list(range(20))
    # content is intact: term from the original docs still matches
    s = IndexSearcher(dest)
    assert len(s.search("docbf", 100).docids) == 1  # doc 15
    with pytest.raises(ValueError):
        split_index(src, str(tmp_path / "x"), ["nope"])


def test_remove_segments_keeps_gaps(src, tmp_path):
    import shutil

    work = str(tmp_path / "work")
    shutil.copytree(src, work)
    segs = list_segments(work)
    remove_segments(work, [segs[1]["name"]])
    left = _docset(work)
    # second segment's docids [10,20) gone, others KEEP their ids
    assert left == list(range(0, 10)) + list(range(20, 40))
    with pytest.raises(ValueError):
        remove_segments(work, ["nope"])


def test_multipass_seq_and_rr(src, tmp_path):
    seq = [str(tmp_path / f"s{i}") for i in range(3)]
    multipass_split_index(src, seq, seq=True)
    # partLen = 40 // 3 = 13; last part absorbs the remainder
    assert _docset(seq[0]) == list(range(13))
    assert _docset(seq[1]) == list(range(13, 26))
    assert _docset(seq[2]) == list(range(26, 40))
    rr = [str(tmp_path / f"r{i}") for i in range(3)]
    multipass_split_index(src, rr, seq=False)
    for i in range(3):
        assert _docset(rr[i]) == [d for d in range(40) if d % 3 == i]
    # parts partition the original doc space
    assert sorted(sum((_docset(p) for p in rr), [])) == list(range(40))
    with pytest.raises(ValueError):
        multipass_split_index(src, [str(tmp_path / "one")])


def test_pk_split(src, tmp_path):
    d1, d2 = str(tmp_path / "p1"), str(tmp_path / "p2")
    # midTerm 'lang:py': [*, py) -> dir1 (go), py itself -> dir2
    pk_split_index(src, d1, d2, mid_term="lang:py")
    assert _docset(d1) == [d for d in range(40) if d % 2 == 1]  # go
    assert _docset(d2) == [d for d in range(40) if d % 2 == 0]  # py
    # query form
    d3, d4 = str(tmp_path / "p3"), str(tmp_path / "p4")
    pk_split_index(src, d3, d4, query=TermQuery("doch"))  # doc 7
    assert _docset(d3) == [7]
    assert len(_docset(d4)) == 39
    with pytest.raises(ValueError):
        pk_split_index(src, d3, d4)


def test_rearrange_index(src, tmp_path):
    from lucene_ray.index.split import list_segments, rearrange_index

    dest = str(tmp_path / "rearranged")
    evens = [d for d in range(40) if d % 2 == 0]
    odds = [d for d in range(40) if d % 2 == 1]
    rearrange_index(src, dest, [evens, odds], deleted_docs=[2, 3])
    segs = list_segments(dest)
    assert len(segs) == 2  # one segment per selector, in order
    got = _docset(dest)
    # selector i's doc d lands at i*maxDoc + d; deleted_docs hidden
    want = sorted(
        [d for d in evens if d != 2] + [40 + d for d in odds if d != 3]
    )
    assert got == want
    # content survives the rearrangement (doc 15 is odd -> second segment)
    s = IndexSearcher(dest)
    assert s.search("docbf", 100).docids.tolist() == [40 + 15]
    with pytest.raises(ValueError):
        rearrange_index(src, str(tmp_path / "x"), [[1, 2], [2, 3]])


def test_split_into_an_existing_index_raises(src, tmp_path):
    """Every split tool writes a NEW index: a dest that already holds one
    (here: an earlier split) keeps its commits untouched."""
    from lucene_ray.index.manifest import list_commits, read_manifest
    from lucene_ray.index.split import rearrange_index

    segs = list_segments(src)
    dest = str(tmp_path / "dest")
    split_index(src, dest, [segs[0]["name"]])
    retained = os.path.join(dest, "commits", "manifest_g1.json")
    with open(retained) as f:
        before = f.read()
    with pytest.raises(FileExistsError):
        split_index(src, dest, [segs[1]["name"]])
    with pytest.raises(FileExistsError):
        multipass_split_index(src, [dest, str(tmp_path / "other")])
    with pytest.raises(FileExistsError):
        pk_split_index(src, dest, str(tmp_path / "p2"), mid_term="lang:py")
    with pytest.raises(FileExistsError):
        rearrange_index(src, dest, [list(range(40))])
    with open(retained) as f:
        assert f.read() == before
    assert list_commits(dest) == [1]
    assert _docset(dest) == list(range(10))
    assert read_manifest(dest).segments[0].name == segs[0]["name"]

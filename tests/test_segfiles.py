"""The segment-file table (index/segfiles.py) names every file a segment
directory holds: an index built with every sidecar option, then hard- and
soft-deleted, DV-updated, bloom-filtered and force-merged, holds no file
outside the table and passes CheckIndex; the table-wide CheckIndex checks
catch row-count and docid-range corruption in files no file-specific check
covers."""

import os
import shutil

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from lucene_ray.codec.bloom import build_bloom_filters
from lucene_ray.index import segfiles
from lucene_ray.index.builder import build_index
from lucene_ray.index.checkindex import check_index
from lucene_ray.index.diskusage import analyze_index_disk_usage
from lucene_ray.index.manifest import read_manifest, segment_dir
from lucene_ray.index.merge import force_merge
from lucene_ray.index.writer import (
    delete_docs,
    soft_delete_docs,
    update_numeric_docvalues,
)
from lucene_ray.search.reader import IndexReader

ALL_SIDECARS = dict(
    dv_fields=("src_id",),
    sorted_dv_fields=("lang",),
    sorted_set_dv_fields=("labels",),
    sorted_numeric_dv_fields=("sig_nums",),
    binary_dv_fields=("content_sha",),
    shape_fields=("rect",),
    point2d_fields=("loc",),
    range_fields=("span",),
    term_vectors=True,
    index_options="offsets",
    payload_fn="term_length",
)


def build_guard_index(tmp: str) -> str:
    """The 4-segment all-sidecar index after a hard delete, a soft delete,
    a DV update and the bloom pass, force-merged into one segment."""
    n = 120
    words = ["alpha", "beta", "gamma", "delta", "merge", "table", "file"]
    src = os.path.join(tmp, "docs.parquet")
    pq.write_table(
        pa.table(
            {
                "repo": [f"r{i % 3}" for i in range(n)],
                "path": [f"p/{i}.py" for i in range(n)],
                "commit": ["c0"] * n,
                "lang": ["py" if i % 2 else "go" for i in range(n)],
                "content": [
                    " ".join(words[(i + j) % len(words)] for j in range(3 + i % 5))
                    for i in range(n)
                ],
                "src_id": pa.array(np.arange(n) * 7, type=pa.int64()),
            }
        ),
        src,
        row_group_size=30,
    )
    ix = os.path.join(tmp, "ix")
    build_index([src], ix, target_docs=30, **ALL_SIDECARS)
    assert len(read_manifest(ix).live_segments) == 4
    delete_docs(ix, [3, 31, 95])
    soft_delete_docs(ix, [5, 64])
    update_numeric_docvalues(ix, "merge", "src_id", -1)
    build_bloom_filters(ix)
    force_merge(ix)
    return ix


@pytest.fixture(scope="module")
def guard_ix(tmp_path_factory, ray_session):
    return build_guard_index(str(tmp_path_factory.mktemp("segfiles")))


def test_every_segment_file_is_a_table_row(guard_ix):
    seg_root = os.path.join(guard_ix, "segments")
    seen = set()
    for seg in os.listdir(seg_root):
        for fname in os.listdir(os.path.join(seg_root, seg)):
            f = segfiles.file_row(fname)
            assert f is not None, f"{seg}/{fname} is not a segfiles row"
            seen.add(f)
    # every row occurs: the guard index exercises the whole table
    assert seen == set(segfiles.TABLE)
    comps = set(analyze_index_disk_usage(guard_ix).column("component").to_pylist())
    assert "other" not in comps


def test_merged_guard_index_checks_and_keeps_deletes(guard_ix):
    rep = check_index(guard_ix, verify_content=False)
    assert rep["ok"], rep["problems"]
    (e,) = read_manifest(guard_ix).live_segments
    assert e.input["merged_from"] and e.del_count == 3 and e.soft_del_count == 2
    assert IndexReader(guard_ix).live_doc_count == 120 - 5
    d = segment_dir(guard_ix, e.name)
    # the merged segment carries every mergeable sidecar
    for f in segfiles.TABLE:
        if f.merge:
            assert os.path.exists(f.path(d)), f.name


def _corrupt_copy(guard_ix, tmp_path, f, edit) -> list[str]:
    ix = str(tmp_path / "corrupt")
    shutil.copytree(guard_ix, ix)
    (e,) = read_manifest(ix).live_segments
    p = f.path(segment_dir(ix, e.name))
    pq.write_table(edit(pq.read_table(p)), p)
    assert check_index(guard_ix, verify_content=False)["ok"]
    return check_index(ix, verify_content=False)["problems"]


def test_sorted_dv_row_count_mismatch_is_caught(guard_ix, tmp_path):
    probs = _corrupt_copy(
        guard_ix, tmp_path, segfiles.DOCVALUES_SORTED, lambda t: t.slice(1)
    )
    assert any("docvalues_sorted.parquet rows 119 != doc_count 120" in p
               for p in probs), probs


@pytest.mark.parametrize("f", [segfiles.RANGES, segfiles.SPATIAL], ids=lambda f: f.name)
def test_docid_out_of_range_is_caught(guard_ix, tmp_path, f):
    def shift(t):
        docs = t.column("docid").to_numpy(zero_copy_only=False).copy()
        docs[-1] = 10_000
        i = t.schema.get_field_index("docid")
        return t.set_column(i, "docid", pa.array(docs, type=pa.int64()))

    probs = _corrupt_copy(guard_ix, tmp_path, f, shift)
    assert any(f"{f.name} docid out of range" in p for p in probs), probs

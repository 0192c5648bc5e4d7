"""Index splitting tools — the misc-module index surgery family
(misc/src/java/org/apache/lucene/misc/index/):

  list_segments / split_index / remove_segments
      IndexSplitter.java — file-level segment copy into a fresh index
      (segment files address docs by LOCAL ids here, so the copy is
      byte-verbatim and only the manifest entry rebases), listing, and
      in-place segment removal (a removed segment stays as a detached
      entry and remaining docid_bases keep their gaps — the repo's
      docids-never-renumber invariant, same as exorcise).
  multipass_split_index
      MultiPassIndexSplitter.java:70-110 — N parts over the ORIGINAL
      global docid space: seq = [i*partLen, (i+1)*partLen) with the last
      part absorbing the rounding remainder (partLen = maxDoc // n);
      round-robin = docid % n == i. Each part is a full file-level copy
      with the out-of-part docs tombstoned (the FakeDeleteIndexReader
      role; this engine's tombstones never renumber, so part docids equal
      the source global docids — a documented divergence from the
      reference's addIndexes compaction, and the property the oracle
      checks).
  pk_split_index
      PKIndexSplitter.java:44-112 — docs matching a query go to dir1,
      the rest to dir2; the midTerm form sends [*, mid) to dir1 (mid
      itself lands in dir2).
"""

from __future__ import annotations

import dataclasses
import os
import shutil

from lucene_ray.index.manifest import (
    Manifest,
    next_manifest,
    read_manifest,
    segment_dir,
    write_entry,
    write_manifest,
)
from lucene_ray.index.writer import add_indexes, delete_docs


def list_segments(index_dir: str) -> list[dict]:
    """IndexSplitter -l: (name, doc_count, del_count, bytes) per live
    segment."""
    m = read_manifest(index_dir)
    if m is None:
        raise FileNotFoundError(f"no manifest under {index_dir}")
    return [
        {
            "name": e.name,
            "doc_count": e.doc_count,
            "del_count": e.del_count,
            "bytes": e.bytes,
        }
        for e in m.live_segments
    ]


def _require_new(dest_dir: str) -> None:
    # a split writes a NEW index; IndexSplitter fails on an existing
    # segments_N too (publishing here would overwrite dest's history)
    if os.path.exists(os.path.join(dest_dir, "manifest.json")):
        raise FileExistsError(f"{dest_dir} already holds an index")
    os.makedirs(os.path.join(dest_dir, "segments"), exist_ok=True)


def _first_commit(dest_dir: str, sm: Manifest, segments) -> Manifest:
    # IndexSplitter copies SegmentInfos verbatim — analyzer, sort and
    # commit user data travel with it
    write_manifest(dest_dir, m := next_manifest(
        None, segments, analyzer=sm.analyzer, index_sort=sm.index_sort,
        user_data=sm.user_data,
    ))
    return m


def split_index(src_dir: str, dest_dir: str, segment_names: list[str]) -> Manifest:
    """IndexSplitter <src> <dest> <segments>+: copy the named segments
    into a NEW index at dest (docid_bases rebased compactly in source
    docid order)."""
    sm = read_manifest(src_dir)
    if sm is None:
        raise FileNotFoundError(f"no manifest under {src_dir}")
    by_name = {e.name: e for e in sm.live_segments}
    missing = [n for n in segment_names if n not in by_name]
    if missing:
        raise ValueError(f"segments not in source index: {missing}")
    _require_new(dest_dir)
    segments, base = [], 0
    for e in sorted(
        (by_name[n] for n in segment_names), key=lambda x: x.docid_base
    ):
        sd_dst = segment_dir(dest_dir, e.name)
        if os.path.exists(sd_dst):
            shutil.rmtree(sd_dst)
        shutil.copytree(segment_dir(src_dir, e.name), sd_dst)
        ne = dataclasses.replace(e, docid_base=base)
        write_entry(dest_dir, ne)
        segments.append(ne)
        base += e.doc_count
    return _first_commit(dest_dir, sm, segments)


def remove_segments(index_dir: str, segment_names: list[str]) -> Manifest:
    """IndexSplitter -d: detach the named segments. Each stays in the
    manifest as a ``deleted=True`` entry holding its docid range, as
    ``exorcise_index`` leaves one (files remain for retained commits;
    remaining docid_bases keep their gaps and later appends never reuse
    the range — docids never renumber)."""
    m = read_manifest(index_dir)
    if m is None:
        raise FileNotFoundError(f"no manifest under {index_dir}")
    names = set(segment_names)
    have = {e.name for e in m.live_segments}
    missing = names - have
    if missing:
        raise ValueError(f"segments not in index: {sorted(missing)}")
    for e in m.segments:
        if e.name in names:
            e.deleted = True
    write_manifest(index_dir, m2 := next_manifest(m, m.segments))
    return m2


def _copy_full(src_dir: str, dest_dir: str) -> None:
    _require_new(dest_dir)
    _first_commit(dest_dir, read_manifest(src_dir), [])
    add_indexes(dest_dir, [src_dir])


def multipass_split_index(
    src_dir: str, dest_dirs: list[str], seq: bool = False
) -> None:
    """MultiPassIndexSplitter.split: each output gets a full copy with
    the out-of-part docs tombstoned. Part membership is computed over
    the source's ORIGINAL global docid space (live docs only end up
    anywhere; already-deleted docs stay deleted in every part)."""
    if len(dest_dirs) < 2:
        raise ValueError("invalid number of outputs")
    sm = read_manifest(src_dir)
    if sm is None:
        raise FileNotFoundError(f"no manifest under {src_dir}")
    max_doc = max(
        (e.docid_base + e.doc_count for e in sm.live_segments), default=0
    )
    if max_doc < 2:
        raise ValueError("not enough documents for splitting")
    n = len(dest_dirs)
    part_len = max_doc // n
    for i, dest in enumerate(dest_dirs):
        _copy_full(src_dir, dest)
        if seq:
            lo = part_len * i
            hi = lo + part_len if i < n - 1 else max_doc
            drop = [d for d in range(max_doc) if d < lo or d >= hi]
        else:
            drop = [d for d in range(max_doc) if d % n != i]
        delete_docs(dest, drop)


def rearrange_index(
    src_dir: str,
    dest_dir: str,
    segment_selectors: list,
    deleted_docs=None,
    use_ray: bool = False,
) -> None:
    """IndexRearranger (misc/index/IndexRearranger.java:40-90): copy the
    index into ``dest`` with ONE OUTPUT SEGMENT PER SELECTOR, segments in
    selector order; ``deleted_docs`` (original global docids) are then
    marked deleted in the rearranged index but not merged away.

    Per selector: full file-level copy -> tombstone the out-of-part docs
    -> ForceMerge(1), which drops the tombstoned postings while KEEPING
    the docid span (this engine's gaps-never-renumber invariant), then
    addIndexes assembles the parts. Dest docid of original doc d from
    selector i = i * maxDoc + d — deterministic, which is what the gate's
    oracle checks. A selector that matches nothing still yields its
    (empty) segment span; the reference discards all-deleted segments —
    divergence documented here (spans are part of this engine's docid
    contract)."""
    import shutil
    import tempfile

    from lucene_ray.index.merge import force_merge

    sm = read_manifest(src_dir)
    if sm is None:
        raise FileNotFoundError(f"no manifest under {src_dir}")
    max_doc = max(
        (e.docid_base + e.doc_count for e in sm.live_segments), default=0
    )
    sel_sets = [set(int(d) for d in sel) for sel in segment_selectors]
    seen: set[int] = set()
    for s in sel_sets:
        if s & seen:
            raise ValueError("segment selectors must be disjoint")
        seen |= s
    _require_new(dest_dir)
    _first_commit(dest_dir, sm, [])
    tmp_root = tempfile.mkdtemp(prefix="rearrange_", dir="/tmp")
    try:
        for i, want in enumerate(sel_sets):
            part = os.path.join(tmp_root, f"part{i}")
            _copy_full(src_dir, part)
            delete_docs(part, [d for d in range(max_doc) if d not in want])
            force_merge(part, use_ray=use_ray)
            add_indexes(dest_dir, [part])
    finally:
        shutil.rmtree(tmp_root, ignore_errors=True)
    if deleted_docs:
        dm = read_manifest(dest_dir)
        bases = sorted(e.docid_base for e in dm.live_segments)
        dels = []
        for i, want in enumerate(sel_sets):
            for d in deleted_docs:
                if int(d) in want:
                    dels.append(bases[i] + int(d))
        if dels:
            delete_docs(dest_dir, dels)


def pk_split_index(
    src_dir: str,
    dir1: str,
    dir2: str,
    query=None,
    mid_term: str | None = None,
) -> None:
    """PKIndexSplitter: docs matching ``query`` -> dir1, rest -> dir2.
    ``mid_term`` (a 'field:value' keyword term) builds the reference's
    midTerm form: dir1 = [*, mid), mid itself goes to dir2."""
    from lucene_ray.search.engine import IndexSearcher
    from lucene_ray.search.query import TermRangeQuery

    if (query is None) == (mid_term is None):
        raise ValueError("exactly one of query / mid_term required")
    if mid_term is not None:
        fld = mid_term.split(":", 1)[0]
        query = TermRangeQuery(
            f"{fld}:", mid_term, include_lower=True, include_upper=False
        )
    sm = read_manifest(src_dir)
    max_doc = max(
        (e.docid_base + e.doc_count for e in sm.live_segments), default=0
    )
    # scale note: like the reference tool, membership is resolved on the
    # driver (O(maxDoc) docid lists) — this is index SURGERY, not a query
    # path; shard-scale splitting goes through split_index per segment
    matched = set(IndexSearcher(src_dir).matching_docs(query).tolist())
    _copy_full(src_dir, dir1)
    delete_docs(dir1, [d for d in range(max_doc) if d not in matched])
    _copy_full(src_dir, dir2)
    delete_docs(dir2, sorted(matched))

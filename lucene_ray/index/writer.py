"""Deletes / updates v1: tombstone live-docs bitmaps + delete-by-term /
delete-by-docid + atomic update (delete + add), the IndexWriter mutation
surface (index/IndexWriter.java:1834 updateDocument = delete-by-term + add;
codecs/lucene90/Lucene90LiveDocsFormat.java live bitsets with generations).

Design (documented divergence from the reference): global docids are stable
engine output here (rank-identity / N-vs-4N golden equality), so deleted
docs are TOMBSTONED — their postings stop matching immediately (live filter
in the scorer) and are physically dropped at merge — but the docid space is
never renumbered; norms/stored rows remain as tombstones. The reference
renumbers docids at merge (index/DocIDMerger.java) because its ids are
ephemeral.

Commit protocol: livedocs_g<gen>.parquet written first (new generation file,
never in-place), entry.json second, manifest.json last (atomic rename) —
a crash between steps leaves the previous generation fully consistent.

Scale shape: per-segment delete application is embarrassingly parallel
(ray.data.from_items over segments -> map_batches tasks); only updated
manifest entries flow back to the driver.
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from lucene_ray.index import segfiles
from lucene_ray.index.builder import (
    STORED_COLUMNS,
    BuildOptions,
    SegmentSpec,
    build_one_segment,
)
from lucene_ray.index.manifest import (
    Manifest,
    SegmentEntry,
    read_manifest,
    segment_dir,
    write_entry,
    write_manifest,
)


def _load_mask(f: segfiles.SegFile, seg_d: str, entry: SegmentEntry) -> np.ndarray:
    """The entry's current hard (LIVEDOCS) or soft (SOFTDELETES) mask."""
    return segfiles.read_mask(f, seg_d, f.gen(entry), entry.doc_count)


def _apply_segment_deletes(
    index_dir: str, entry: SegmentEntry, local_docids: np.ndarray
) -> SegmentEntry:
    """Clear bits for ``local_docids`` in one segment; returns the updated
    entry (unchanged object if nothing newly deleted)."""
    seg_d = segment_dir(index_dir, entry.name)
    live = _load_mask(segfiles.LIVEDOCS, seg_d, entry)
    hit = local_docids[(local_docids >= 0) & (local_docids < entry.doc_count)]
    newly = live[hit].sum()
    if newly == 0:
        return entry
    live[hit] = False
    entry.del_gen = getattr(entry, "del_gen", 0) + 1
    entry.del_count = int((~live).sum())
    segfiles.write_mask(segfiles.LIVEDOCS, seg_d, entry.del_gen, live)
    write_entry(index_dir, entry)
    return entry


def delete_docs(index_dir: str, global_docids) -> int:
    """Tombstone specific global docids. Returns newly-deleted count."""
    manifest = read_manifest(index_dir)
    g = np.unique(np.asarray(global_docids, dtype=np.int64))
    live_entries = sorted(manifest.live_segments, key=lambda e: e.docid_base)
    bases = np.array([e.docid_base for e in live_entries], dtype=np.int64)
    seg_idx = np.searchsorted(bases, g, side="right") - 1
    before = sum(getattr(e, "del_count", 0) for e in live_entries)
    for si in np.unique(seg_idx):
        if si < 0:
            continue
        e = live_entries[int(si)]
        local = g[seg_idx == si] - e.docid_base
        _apply_segment_deletes(index_dir, e, local)
    after = sum(getattr(e, "del_count", 0) for e in live_entries)
    if after - before:
        # only a real tombstone advances the generation — openIfChanged
        # stays None for no-op deletes (mirrors update_numeric_docvalues)
        manifest.generation += 1
        write_manifest(index_dir, manifest)
    return int(after - before)


def _apply_soft(index_dir: str, global_docids, value: bool) -> int:
    """Set/clear soft-delete bits for global docids; returns changed count.
    Mirrors delete_docs' flow but writes the soft sidecar (the
    __soft_deletes doc-values field analog) — postings are untouched."""
    manifest = read_manifest(index_dir)
    g = np.unique(np.asarray(global_docids, dtype=np.int64))
    live_entries = sorted(manifest.live_segments, key=lambda e: e.docid_base)
    bases = np.array([e.docid_base for e in live_entries], dtype=np.int64)
    seg_idx = np.searchsorted(bases, g, side="right") - 1
    changed = 0
    for si in np.unique(seg_idx):
        if si < 0:
            continue
        e = live_entries[int(si)]
        seg_d = segment_dir(index_dir, e.name)
        local = g[seg_idx == si] - e.docid_base
        local = local[(local >= 0) & (local < e.doc_count)]
        if value and getattr(e, "del_gen", 0) > 0:
            # never soft-mark a hard tombstone (keeps del_count +
            # soft_del_count disjoint for live_doc_count)
            live = _load_mask(segfiles.LIVEDOCS, seg_d, e)
            local = local[live[local]]
        soft = _load_mask(segfiles.SOFTDELETES, seg_d, e)
        newly = int((soft[local] != value).sum())
        if newly == 0:
            continue
        soft[local] = value
        e.soft_del_gen = getattr(e, "soft_del_gen", 0) + 1
        e.soft_del_count = int(soft.sum())
        segfiles.write_mask(segfiles.SOFTDELETES, seg_d, e.soft_del_gen, soft)
        write_entry(index_dir, e)
        changed += newly
    if changed:
        manifest.generation += 1
        write_manifest(index_dir, manifest)
    return changed


def soft_delete_docs(index_dir: str, global_docids) -> int:
    """Soft-delete global docids (IndexWriter.softUpdateDocument's delete
    half): readers hide them, merges keep their postings, soft_undelete_docs
    restores them. Returns newly-soft-deleted count."""
    return _apply_soft(index_dir, global_docids, True)


def soft_undelete_docs(index_dir: str, global_docids) -> int:
    """Clear soft-delete bits — the reversibility soft deletes exist for.
    Returns newly-restored count."""
    return _apply_soft(index_dir, global_docids, False)


def prune_soft_deletes(index_dir: str, retain_term: str | None = None) -> int:
    """SoftDeletesRetentionMergePolicy analog
    (index/SoftDeletesRetentionMergePolicy.java:46): soft-deleted docs NOT
    matching ``retain_term`` (a content or 'field:value' keyword term; None
    = retain nothing) become HARD tombstones — the next merge reclaims
    their postings; retained docs stay soft (still hidden, still
    restorable). Returns the pruned count."""
    from lucene_ray.search.reader import IndexReader

    manifest = read_manifest(index_dir)
    reader = IndexReader(index_dir)
    pruned = 0
    for e in sorted(manifest.live_segments, key=lambda x: x.docid_base):
        if getattr(e, "soft_del_gen", 0) <= 0:
            continue
        seg_d = segment_dir(index_dir, e.name)
        soft = _load_mask(segfiles.SOFTDELETES, seg_d, e)
        cand = np.nonzero(soft)[0]
        if len(cand) == 0:
            continue
        if retain_term is not None:
            tp = reader.segment_reader(e.name).postings(retain_term)
            retained = tp.docids if tp is not None else np.array([], dtype=np.int64)
            cand = np.setdiff1d(cand, retained)
        if len(cand) == 0:
            continue
        soft[cand] = False
        e.soft_del_gen = getattr(e, "soft_del_gen", 0) + 1
        e.soft_del_count = int(soft.sum())
        segfiles.write_mask(segfiles.SOFTDELETES, seg_d, e.soft_del_gen, soft)
        write_entry(index_dir, e)  # _apply_segment_deletes rewrites it too
        _apply_segment_deletes(index_dir, e, cand)
        pruned += len(cand)
    if pruned:
        # the mutated entry objects ARE the manifest's (delete_docs flow)
        manifest.generation += 1
        write_manifest(index_dir, manifest)
    return pruned


def delete_by_term(index_dir: str, term: str, use_ray: bool = False) -> int:
    """Tombstone every doc whose content contains ``term`` (deleteDocuments
    (Term), IndexWriter.java:1550). Per-segment postings lookup -> bitmap
    clear; segments are independent (task-parallel under Ray when asked)."""
    manifest = read_manifest(index_dir)
    total = _tombstone_by_term(index_dir, manifest, term, use_ray=use_ray)
    if total:
        # only a real tombstone advances the generation (no-op guard, as in
        # update_numeric_docvalues)
        manifest.generation += 1
        write_manifest(index_dir, manifest)
    return int(total)


def _tombstone_by_term(
    index_dir: str, manifest: Manifest, term: str, use_ray: bool = False
) -> int:
    """Segment-level tombstoning for ``term`` against an in-memory manifest.
    Writes livedocs generations + entry.json but does NOT publish the
    manifest — the caller owns the commit (single-publish atomicity for
    update_documents)."""
    from lucene_ray.search.reader import SegmentReader

    live_entries = sorted(manifest.live_segments, key=lambda e: e.docid_base)

    def one(entry: SegmentEntry) -> tuple[str, int, int, int]:
        sr = SegmentReader(
            segment_dir(index_dir, entry.name),
            entry.docid_base,
            entry.doc_count,
            del_gen=getattr(entry, "del_gen", 0),
        )
        tp = sr.postings(term)
        if tp is None:
            return entry.name, getattr(entry, "del_gen", 0), getattr(entry, "del_count", 0), 0
        before = getattr(entry, "del_count", 0)
        e2 = _apply_segment_deletes(index_dir, entry, tp.docids)
        return entry.name, e2.del_gen, e2.del_count, e2.del_count - before

    total = 0
    if use_ray and len(live_entries) > 1:
        import json as _json

        import ray.data

        by_name = {e.name: e for e in live_entries}

        def run(batch: dict) -> dict:
            out = []
            for name in batch["name"]:
                r = one(by_name[str(name)])
                out.append(_json.dumps(r))
            return {"r": np.array(out)}

        ds = ray.data.from_items([{"name": e.name} for e in live_entries])
        for b in ds.map_batches(run, batch_size=None).iter_batches(batch_format="pyarrow"):
            for rj in b.column("r").to_pylist():
                name, gen, cnt, newly = _json.loads(rj)
                by_name[name].del_gen = gen
                by_name[name].del_count = cnt
                total += newly
    else:
        for e in live_entries:
            _, _, _, newly = one(e)
            total += newly
    return int(total)


def _next_seg_idx(manifest: Manifest, index_dir: str | None = None) -> int:
    """Next free segment index — scans the segments DIRECTORY too, not just
    the current manifest: after a rollback, segments created on the
    abandoned timeline are absent from the manifest but still on disk (and
    referenced by retained commits), so their names must never be reused."""
    mx = -1
    names = [e.name for e in manifest.segments]
    if index_dir is not None:
        seg_root = os.path.join(index_dir, "segments")
        if os.path.isdir(seg_root):
            names += os.listdir(seg_root)
    for name in names:
        try:
            mx = max(mx, int(name.split("_")[1].rstrip("m")))
        except (IndexError, ValueError):
            pass
    return mx + 1


def add_indexes(dest_dir: str, src_dirs: list[str]) -> Manifest:
    """IndexWriter.addIndexes(Directory...) (index/IndexWriter.java:3191
    no-merge copy variant): import every LIVE segment of each source index
    into ``dest`` by verbatim file copy + docid rebase.

    Segment files address docs by SEGMENT-LOCAL ids (index/segfiles.py), so
    the copy is byte-identical — only the manifest entry's name and
    docid_base change. Every generation (tombstones, soft deletes, DV
    updates) and the recorded build options travel with the copied files.
    Sources must share the dest's analyzer: the shared term dict is
    analyzer-defined here (the reference leaves codec/analyzer agreement
    to the caller). Imported segments keep their sorted_runs
    only when the source's index_sort equals the dest's.

    Published atomically in ONE write_manifest: a crash mid-copy leaves
    only unreferenced segment dirs, which readers ignore and whose names
    are never reused (_next_seg_idx scans the directory)."""
    import dataclasses
    import hashlib
    import shutil

    manifest = read_manifest(dest_dir)
    if manifest is None:
        raise FileNotFoundError(f"no manifest under {dest_dir}")
    base = max(
        (e.docid_base + e.doc_count for e in manifest.segments), default=0
    )
    for src in src_dirs:
        sm = read_manifest(src)
        if sm is None:
            raise FileNotFoundError(f"no manifest under {src}")
        if sm.analyzer != manifest.analyzer:
            raise ValueError(
                f"addIndexes analyzer mismatch: dest={manifest.analyzer!r} "
                f"src={sm.analyzer!r} ({src})"
            )
        same_sort = sm.index_sort == manifest.index_sort
        for e in sorted(sm.live_segments, key=lambda x: x.docid_base):
            idx = _next_seg_idx(manifest, dest_dir)
            fp = hashlib.sha1(
                f"{src}:{e.name}:{e.del_gen}:{e.dv_gen}:{e.soft_del_gen}".encode()
            ).hexdigest()[:12]
            new_name = f"seg_{idx:06d}_{fp}"
            sd_dst = segment_dir(dest_dir, new_name)
            if os.path.exists(sd_dst):
                shutil.rmtree(sd_dst)
            shutil.copytree(segment_dir(src, e.name), sd_dst)
            # every other field (generations, counts, reclaimed, metrics)
            # carries over as-is: the copied files are the same files
            ne = dataclasses.replace(
                e,
                name=new_name,
                docid_base=base,
                input={
                    "imported_from": src,
                    "src_name": e.name,
                    "fingerprint": fp,
                    "options": e.input.get("options"),
                },
                metrics=dict(e.metrics),
                sorted_runs=(
                    [list(r) for r in e.sorted_runs]
                    if (same_sort and e.sorted_runs)
                    else None
                ),
            )
            write_entry(dest_dir, ne)
            manifest.segments.append(ne)
            base += e.doc_count
    manifest.segments.sort(key=lambda x: x.docid_base)
    manifest.generation += 1
    manifest.doc_count = sum(e.doc_count for e in manifest.segments)
    manifest.sum_ttf = sum(e.sum_ttf for e in manifest.segments)
    write_manifest(dest_dir, manifest)
    return manifest


def add_documents(index_dir: str, table: pa.Table) -> Manifest:
    """Append new docs as fresh segment(s). ``table`` needs the corpus
    schema (repo, path, commit, lang, content); docids continue after the
    current docid space (addDocument, IndexWriter.java:1384)."""
    manifest = read_manifest(index_dir)
    return _append_documents(index_dir, manifest, table)


def _append_documents(
    index_dir: str, manifest: Manifest, table: pa.Table
) -> Manifest:
    """Build the new segment and PUBLISH the in-memory manifest (+1
    generation) in a single write_manifest — callers that staged earlier
    mutations on the same manifest (update_documents' tombstones) get them
    committed atomically with the add."""
    for c in STORED_COLUMNS + ["content"]:
        if c not in table.column_names:
            raise ValueError(f"add_documents table missing column {c!r}")
    # the index's build options, from the newest live entry that records
    # them (merged entries carry their inputs'); legacy indexes recorded
    # only the analyzer
    recorded = next(
        (e.input["options"] for e in reversed(manifest.live_segments)
         if e.input.get("options")),
        None,
    )
    options = (
        BuildOptions.from_entry(recorded)
        if recorded
        else BuildOptions(analyzer_name=manifest.analyzer or "code")
    )
    base = max(
        (e.docid_base + e.doc_count for e in manifest.segments), default=0
    )
    adds_dir = os.path.join(index_dir, "adds")
    os.makedirs(adds_dir, exist_ok=True)
    fname = os.path.join(adds_dir, f"add_g{manifest.generation:05d}.parquet")
    pq.write_table(table, fname)
    spec = SegmentSpec(
        seg_idx=_next_seg_idx(manifest, index_dir),
        file=fname,
        rg_start=0,
        rg_end=pq.read_metadata(fname).num_row_groups,
        n_docs=table.num_rows,
        docid_base=base,
        variant=options.variant,
    )
    entry = build_one_segment(spec, index_dir, options)
    manifest.segments.append(entry)
    manifest.segments.sort(key=lambda e: e.docid_base)
    manifest.generation += 1
    manifest.doc_count = sum(e.doc_count for e in manifest.segments)
    manifest.sum_ttf = sum(e.sum_ttf for e in manifest.segments)
    write_manifest(index_dir, manifest)
    return manifest


def update_documents(index_dir: str, key_term: str, table: pa.Table) -> Manifest:
    """Atomic update: tombstone every doc containing ``key_term`` and append
    the replacements, published as ONE manifest commit (updateDocument
    (term, doc), IndexWriter.java:1834). The tombstone generations and the
    new segment become visible together — a crash before the publish leaves
    the previous commit fully intact (old docs still live, no replacements),
    never a half state with the old docs gone."""
    manifest = read_manifest(index_dir)
    _tombstone_by_term(index_dir, manifest, key_term)
    return _append_documents(index_dir, manifest, table)


def update_numeric_docvalues(
    index_dir: str, term: str, field: str, value: int
) -> int:
    """In-place numeric doc-values update for every LIVE doc whose content
    contains ``term`` (IndexWriter.updateNumericDocValue,
    index/IndexWriter.java:1901; Lucene90DocValuesFormat update
    generations). Writes a new full doc-ordered ``docvalues_g<gen>.parquet``
    per touched segment and bumps ``entry.dv_gen`` — the base file and
    prior generations are never modified (crash-safe like livedocs).
    Points are NOT rewritten at update time (reference semantics: DV
    updates never touch the points index; PointRangeQuery keeps seeing
    index-time values) — the next MERGE folds the latest DV generation
    into its rebuilt points, like postings reclaim. Readers are snapshots:
    reopen to observe. Returns docs updated."""
    from lucene_ray.search.reader import SegmentReader

    manifest = read_manifest(index_dir)
    live_entries = sorted(manifest.live_segments, key=lambda e: e.docid_base)
    # validate the field up front so a no-match term still errors loudly
    for entry in live_entries[:1]:
        schema_path = segfiles.DOCVALUES.path(segment_dir(index_dir, entry.name))
        if not os.path.exists(schema_path) or field not in pq.read_schema(
            schema_path
        ).names:
            raise KeyError(f"no numeric doc values for field {field!r}")
    total = 0
    for entry in live_entries:
        seg_d = segment_dir(index_dir, entry.name)
        sr = SegmentReader(
            seg_d, entry.docid_base, entry.doc_count,
            del_gen=getattr(entry, "del_gen", 0),
            dv_gen=getattr(entry, "dv_gen", 0),
        )
        tp = sr.postings(term)
        if tp is None:
            continue
        docs = tp.docids
        live = _load_mask(segfiles.LIVEDOCS, seg_d, entry)
        docs = docs[live[docs]]
        if len(docs) == 0:
            continue
        dv = pq.read_table(segfiles.DOCVALUES.latest(seg_d, entry))
        cols = {}
        for name in dv.schema.names:
            arr = dv.column(name).to_numpy(zero_copy_only=False).copy()
            if name == field:
                arr[docs] = value
            cols[name] = arr
        gen = getattr(entry, "dv_gen", 0) + 1
        segfiles.DOCVALUES.write(seg_d, pa.table(cols), gen)
        entry.dv_gen = gen
        write_entry(index_dir, entry)
        total += int(len(docs))
    if total:
        # only a real change advances the generation — openIfChanged must
        # stay None for no-op updates
        manifest.generation += 1
        write_manifest(index_dir, manifest)
    return total


def rollback(index_dir: str, generation: int) -> "Manifest":
    """Restore a retained commit as the CURRENT one
    (IndexWriter.rollback / restoring from an IndexCommit,
    index/IndexWriter.java:236). The restored state is republished as a
    NEW generation (monotonic — retained history is append-only), with the
    old commit's segment set and its livedocs, soft-delete and DV
    generations.
    Segment files are never deleted, so any listed commit is restorable.

    Docid-space note: global docids are PER-COMMIT coordinates. After a
    rollback, subsequent adds reuse the docid range of the abandoned
    timeline (the restored commit's doc-space end), exactly as the
    reference's ephemeral doc coordinates do across commits; retained
    snapshots of the abandoned timeline keep reading their own segments."""
    from lucene_ray.index.manifest import list_commits

    old = read_manifest(index_dir, generation=generation)
    if old is None:
        raise FileNotFoundError(
            f"no retained commit for generation {generation} "
            f"(have {list_commits(index_dir)})"
        )
    from lucene_ray.index.manifest import read_entry

    cur = read_manifest(index_dir)
    old.generation = max(cur.generation, max(list_commits(index_dir))) + 1
    # Per-segment generation counters must stay monotonic across timelines:
    # if a restored generation (hard/soft deletes, DV) differs from the
    # segment's LATEST on-disk one, re-publish the restored state under a
    # FRESH generation number — otherwise a later delete would regenerate
    # an already-used livedocs_g<N>.parquet and silently corrupt retained
    # commits (and collide with the merge identity hash).
    for e in old.segments:
        disk = read_entry(index_dir, e.name)
        seg_d = segment_dir(index_dir, e.name)
        for f in segfiles.GEN_FILES if disk is not None else ():
            g, disk_g = f.gen(e), f.gen(disk)
            if g == disk_g:
                continue
            new_gen = max(g, disk_g) + 1
            if f.name:
                f.write(seg_d, pq.read_table(f.latest(seg_d, e)), new_gen)
            else:  # a delete mask (generation 0 has no file)
                segfiles.write_mask(f, seg_d, new_gen, _load_mask(f, seg_d, e))
            setattr(e, f.gen_attr, new_gen)
        write_entry(index_dir, e)
    write_manifest(index_dir, old)
    return old

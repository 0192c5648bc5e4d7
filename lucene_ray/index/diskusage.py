"""Index disk-usage breakdown — IndexDiskUsageAnalyzer
(misc/src/java/org/apache/lucene/misc/index/IndexDiskUsageAnalyzer.java):
report how much disk each index COMPONENT consumes per segment, so "why
is my index big" is answerable without guessing. The reference replays
codec reads and attributes bytes per field/format; here every component
IS its own Parquet sidecar, so attribution is exact by construction —
one os.stat per file, no decode.

Components mirror the reference's categories and come from the
segment-file table (index/segfiles.py, one component per file row):
postings (terms dict + docs/freqs/positions/payload lanes in one table,
plus the bloom sidecar), norms, stored fields, points (+ ranges), doc
values (base + update generations + sorted/sortednumeric/binary
sidecars), term vectors, spatial/shapes, live docs + soft deletes (the
deletes overhead), and metadata (the segment entry). Manifest + retained
commit history are reported once under segment='<index>'.
"""

from __future__ import annotations

import os

import pyarrow as pa

from lucene_ray.index import segfiles


def analyze_index_disk_usage(index_dir: str) -> pa.Table:
    """(segment, component, bytes) rows, sorted — every file under the
    index accounted exactly once (tests pin sum(bytes) == sum of file
    sizes). The per-segment rows cover the segment dirs; manifest and
    commit history land under segment='<index>'."""
    rows: list[tuple[str, str, int]] = []
    seg_root = os.path.join(index_dir, "segments")
    if os.path.isdir(seg_root):
        for seg in sorted(os.listdir(seg_root)):
            d = os.path.join(seg_root, seg)
            if not os.path.isdir(d):
                continue
            for f in sorted(os.listdir(d)):
                row = segfiles.file_row(f)
                comp = row.component if row is not None else "other"
                rows.append((seg, comp, os.path.getsize(os.path.join(d, f))))
    for f in sorted(os.listdir(index_dir)):
        p = os.path.join(index_dir, f)
        if os.path.isfile(p):
            rows.append(("<index>", "metadata", os.path.getsize(p)))
    commits = os.path.join(index_dir, "commits")
    if os.path.isdir(commits):
        for f in sorted(os.listdir(commits)):
            rows.append(
                ("<index>", "commit_history",
                 os.path.getsize(os.path.join(commits, f)))
            )
    agg: dict[tuple[str, str], int] = {}
    for seg, comp, n in rows:
        agg[(seg, comp)] = agg.get((seg, comp), 0) + n
    keys = sorted(agg)
    return pa.table(
        {
            "segment": pa.array([k[0] for k in keys], type=pa.string()),
            "component": pa.array([k[1] for k in keys], type=pa.string()),
            "bytes": pa.array([agg[k] for k in keys], type=pa.int64()),
        }
    )

"""Index replication — NRT segment shipping between directories.

Re-expresses lucene/replicator's primary/replica protocol
(replicator/.../IndexReplicationHandler.java + IndexRevision.java): a
REVISION is the current manifest generation plus the segment files it
references; a replica syncs by copying the files it is missing (segment
files are IMMUTABLE — deletes/DV updates/soft deletes create NEW
generation-suffixed files, never rewrite old ones), then atomically
publishing the manifest LAST. A reader opened on the replica after
``replicate`` returns is therefore always a consistent commit point —
either the old one or the new one, never a torn state.

Scale shape: the copy set is computed from manifests only (no directory
scans of segment data); each segment's file copies are independent, so a
multi-node deployment runs one copy task per segment (``use_ray=True``).
Re-running after a crash copies only what is still missing (file-size
compare on immutable files).
"""

from __future__ import annotations

import os
import shutil

from lucene_ray.index.manifest import read_manifest, segment_dir
from lucene_ray.index.segfiles import ENTRY


def _sync_file(src: str, dst: str, force: bool = False) -> int:
    """Copy ``src`` -> ``dst`` unless an identical-size copy exists
    (segment DATA files are immutable, so size equality == identity).
    ``force=True`` for the two mutable file kinds — manifest.json and
    entry.json — which are rewritten in place at the source. Returns bytes
    copied (0 = skipped)."""
    if (
        not force
        and os.path.exists(dst)
        and os.path.getsize(dst) == os.path.getsize(src)
    ):
        return 0
    tmp = dst + ".sync"
    shutil.copyfile(src, tmp)
    os.replace(tmp, dst)
    return os.path.getsize(dst)


def _sync_segment(src_seg: str, dst_seg: str) -> tuple[int, int]:
    os.makedirs(dst_seg, exist_ok=True)
    files = copied = 0
    for f in sorted(os.listdir(src_seg)):
        if f.endswith(".tmp") or f.endswith(".sync"):
            continue
        b = _sync_file(
            os.path.join(src_seg, f),
            os.path.join(dst_seg, f),
            force=(f == ENTRY.name),
        )
        files += 1
        copied += b
    return files, copied


def replicate(src_dir: str, dst_dir: str, use_ray: bool = False) -> dict:
    """One replication round: ship the src's CURRENT revision to dst.

    Copies every file of every manifest-referenced segment that the replica
    is missing (new segments, and new livedocs/softdeletes/docvalues
    generations inside existing segments), the retained commit history,
    and finally the manifest — the atomic publish that flips the replica
    to the new revision (IndexReplicationHandler.revisionReady's
    "copy files, sync, then rename segments_N" order).

    Returns {"generation", "segments", "files", "bytes", "changed"}.
    """
    m = read_manifest(src_dir)
    if m is None:
        raise FileNotFoundError(f"no manifest at {src_dir}")
    prev = read_manifest(dst_dir)
    if prev is not None and prev.generation == m.generation:
        return {
            "generation": m.generation,
            "segments": 0,
            "files": 0,
            "bytes": 0,
            "changed": False,
        }
    os.makedirs(dst_dir, exist_ok=True)
    names = [e.name for e in m.segments]
    pairs = [
        (segment_dir(src_dir, n), segment_dir(dst_dir, n)) for n in names
    ]
    if use_ray and pairs:
        import ray

        sync_task = ray.remote(num_cpus=0.5)(_sync_segment)
        results = ray.get([sync_task.remote(s, d) for s, d in pairs])
    else:
        results = [_sync_segment(s, d) for s, d in pairs]
    files = sum(r[0] for r in results)
    copied = sum(r[1] for r in results)
    # retained commit history (snapshot opens on the replica)
    src_commits = os.path.join(src_dir, "commits")
    if os.path.isdir(src_commits):
        dst_commits = os.path.join(dst_dir, "commits")
        os.makedirs(dst_commits, exist_ok=True)
        for f in sorted(os.listdir(src_commits)):
            _sync_file(
                os.path.join(src_commits, f), os.path.join(dst_commits, f)
            )
    # the publish: manifest LAST, atomically, always (it is the one file
    # whose content changes under a constant name)
    _sync_file(
        os.path.join(src_dir, "manifest.json"),
        os.path.join(dst_dir, "manifest.json"),
        force=True,
    )
    return {
        "generation": m.generation,
        "segments": len(names),
        "files": files,
        "bytes": copied,
        "changed": True,
    }

"""Index manifest: the commit-point / checkpoint / lineage record.

The analog of Lucene's ``segments_N`` + generation (index/SegmentInfos.java:
55-134) re-expressed as JSON over partitioned Parquet segments:

  - each completed segment writes ``<index>/segments/<name>/entry.json``
    ATOMICALLY (tmp + rename) after its data files — the per-partition
    lineage + metrics row the north rule requires
  - ``<index>/manifest.json`` lists all segments with a monotonically
    increasing generation; written atomically by the driver (the two-phase
    commit analog, IndexWriter.java:4080)
  - ``next_manifest`` is the one successor rule: every commit publishes
    ``write_manifest(index_dir, next_manifest(prev, segments, ...))``, so
    what changes between two generations is defined here only — the
    generation is prev + 1 (1 for a new index), segments are ordered by
    docid_base, doc_count/sum_ttf are the LIVE sums (BM25's N and avgdl)
    and analyzer/index_sort/user_data carry over unless replaced. It does
    no I/O; the caller already holds ``prev``.
  - resume = skip segment specs whose entry.json exists with a matching
    input fingerprint (IndexFileDeleter keeps-last-commit semantics are
    replaced by overwrite-by-name idempotency)
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from lucene_ray.index.segfiles import ENTRY


@dataclass
class SegmentEntry:
    name: str
    docid_base: int
    doc_count: int
    sum_ttf: int
    unique_terms: int
    bytes: int
    input: dict = field(default_factory=dict)   # file, row_group span, fingerprint
    metrics: dict = field(default_factory=dict)  # build_secs, docs_per_sec, ...
    deleted: bool = False
    # live-docs generation (Lucene90LiveDocsFormat's _N_<gen>.liv analog):
    # 0 = no deletes; >0 = livedocs_g<gen>.parquet holds the live bitmap.
    # Deleted docids are tombstoned, never reclaimed — global docids stay
    # stable (the engine's rank-identity invariant); merge drops the
    # tombstoned docs' POSTINGS and carries the bitmap forward.
    del_gen: int = 0
    del_count: int = 0
    # doc-values generation (in-place numeric DV updates,
    # IndexWriter.updateNumericDocValue / Lucene90DocValuesFormat dvd/dvm
    # generations): 0 = base docvalues.parquet; >0 = docvalues_g<gen>.parquet
    # holds the full updated doc-ordered table. Points are rewritten only
    # at the next merge (which folds the latest DV generation in).
    dv_gen: int = 0
    # soft-deletes generation (IndexWriterConfig.setSoftDeletesField /
    # index/SoftDeletesRetentionMergePolicy.java:46): 0 = none; >0 =
    # softdeletes_g<gen>.parquet holds a per-doc bool 'deleted' mask.
    # Readers hide soft-deleted docs exactly like tombstones, but merges
    # RETAIN their postings (the retention contract) so soft_undelete can
    # bring them back; prune_soft_deletes converts non-retained soft
    # deletes into hard tombstones for the next merge to reclaim.
    soft_del_gen: int = 0
    soft_del_count: int = 0
    # docs whose POSTINGS were physically dropped by a merge (tombstones
    # reclaimed). Scoring stats follow the reference's merge semantics:
    # pre-merge deletes still count in df/N/ttf (Lucene scores ignore
    # deletes until merge); after reclaim, N_for_scoring = doc_count -
    # reclaimed and sum_ttf was recomputed from the kept postings, so the
    # stats equal a fresh index of the live docs.
    reclaimed: int = 0
    # index-time sorting (IndexWriterConfig.setIndexSort /
    # index/IndexSorter.java): [start, end) LOCAL docid ranges each sorted
    # by the manifest's index_sort field. A fresh build = one run; adjacent
    # merges CONCATENATE runs instead of re-sorting (stable-docid
    # divergence from Lucene's merge-time re-sort, documented in
    # builder.py) — the early-terminating collector scans per run. None =
    # unsorted segment.
    sorted_runs: list | None = None


@dataclass
class Manifest:
    generation: int
    analyzer: str
    doc_count: int
    sum_ttf: int
    segments: list  # list[SegmentEntry]
    # [field, "asc"|"desc"] when built with index_sort (IndexWriterConfig
    # .setIndexSort); None = docids follow corpus order
    index_sort: list | None = None
    # opaque commit user data (IndexWriter.setLiveCommitData /
    # IndexCommit.getUserData — e.g. sequence checkpoints); carried
    # forward by merges/deletes, replaced by set_live_commit_data
    user_data: dict | None = None

    @property
    def live_segments(self) -> list:
        return [s for s in self.segments if not s.deleted]


_CARRIED = ("analyzer", "index_sort", "user_data")


def next_manifest(prev: Manifest | None, segments, **changes) -> Manifest:
    """The successor of ``prev`` (None = a new index) listing ``segments``:
    generation prev + 1 (or 1), segments ordered by docid_base,
    doc_count/sum_ttf summed over the non-deleted entries, and
    analyzer/index_sort/user_data carried from ``prev`` unless ``changes``
    gives them (IndexWriter.commit's SegmentInfos, whose counts come from
    its segment list). An unknown key raises TypeError. No I/O."""
    unknown = sorted(set(changes) - set(_CARRIED))
    if unknown:
        raise TypeError(f"next_manifest got unexpected keyword(s) {unknown}")
    carried = {k: getattr(prev, k) for k in _CARRIED} if prev is not None else {}
    carried.update(changes)
    segments = sorted(segments, key=lambda e: e.docid_base)
    live = [e for e in segments if not e.deleted]
    return Manifest(
        generation=prev.generation + 1 if prev is not None else 1,
        doc_count=sum(e.doc_count for e in live),
        sum_ttf=sum(e.sum_ttf for e in live),
        segments=segments,
        **carried,
    )


def segment_groups(entries: list, global_docids):
    """The one global-to-segment grouping: yields (entry, positions, local
    docids) for each of ``entries`` (ascending by docid_base) holding any
    of ``global_docids``. ``positions`` index ``global_docids`` in input
    order; docids below the first base belong to no entry and are
    skipped."""
    g = np.asarray(global_docids, dtype=np.int64)
    bases = np.array([e.docid_base for e in entries], dtype=np.int64)
    seg_idx = np.searchsorted(bases, g, side="right") - 1
    for si in np.unique(seg_idx):
        if si < 0:
            continue
        e = entries[int(si)]
        pos = np.flatnonzero(seg_idx == si)
        yield e, pos, g[pos] - e.docid_base


def segment_dir(index_dir: str, name: str) -> str:
    return os.path.join(index_dir, "segments", name)


def write_entry(index_dir: str, entry: SegmentEntry) -> None:
    d = segment_dir(index_dir, entry.name)
    os.makedirs(d, exist_ok=True)
    path = ENTRY.path(d)
    with open(path + ".tmp", "w") as f:
        json.dump(asdict(entry), f)
    os.replace(path + ".tmp", path)


def read_entry(index_dir: str, name: str) -> SegmentEntry | None:
    p = ENTRY.path(segment_dir(index_dir, name))
    if not os.path.exists(p):
        return None
    with open(p) as f:
        return SegmentEntry(**json.load(f))


def write_manifest(index_dir: str, manifest: Manifest) -> None:
    """Atomic publish + retained commit history: every generation is also
    written to commits/manifest_g<N>.json (the retained segments_N files of
    a snapshot-everything IndexDeletionPolicy — segment dirs are never
    deleted here, so every retained commit stays openable)."""
    os.makedirs(index_dir, exist_ok=True)
    d = asdict(manifest)
    commits = os.path.join(index_dir, "commits")
    os.makedirs(commits, exist_ok=True)
    ctmp = os.path.join(commits, f"manifest_g{manifest.generation}.json.tmp")
    with open(ctmp, "w") as f:
        json.dump(d, f, indent=1)
    os.replace(ctmp, os.path.join(commits, f"manifest_g{manifest.generation}.json"))
    tmp = os.path.join(index_dir, "manifest.json.tmp")
    with open(tmp, "w") as f:
        json.dump(d, f, indent=1)
    os.replace(tmp, os.path.join(index_dir, "manifest.json"))


def set_live_commit_data(index_dir: str, data: dict | None) -> Manifest:
    """IndexWriter.setLiveCommitData + commit (IndexWriter.java:4023):
    publish a new commit generation whose opaque user data is ``data``.
    The data then travels on every subsequent commit (merges, deletes,
    splits carry it forward) until replaced."""
    m = read_manifest(index_dir)
    if m is None:
        raise FileNotFoundError(f"no index at {index_dir}")
    data = dict(data) if data is not None else None
    write_manifest(index_dir, m2 := next_manifest(m, m.segments, user_data=data))
    return m2


def get_live_commit_data(
    index_dir: str, generation: int | None = None
) -> dict | None:
    """IndexCommit.getUserData for the current (or a retained) commit."""
    m = read_manifest(index_dir, generation)
    return None if m is None else m.user_data


def _pending_path(index_dir: str) -> str:
    return os.path.join(index_dir, "pending_manifest.json")


def prepare_commit(index_dir: str, manifest: Manifest) -> str:
    """First phase of a two-phase commit (IndexWriter.prepareCommit,
    index/IndexWriter.java pendingCommit contract): stage the next commit
    DURABLY without publishing it — the staged state is fsync-complete on
    disk, but readers (read_manifest) still open the previous generation.
    A crash between prepare and commit leaves only the pending file, which
    recovery ignores. Exactly one pending commit may exist at a time
    (prepareCommit while one is pending throws, as in the reference).
    Returns the pending file path."""
    p = _pending_path(index_dir)
    if os.path.exists(p):
        raise RuntimeError(
            "prepareCommit was already called with no corresponding call "
            "to commit or rollback"
        )
    _require_newer(index_dir, manifest.generation)
    os.makedirs(index_dir, exist_ok=True)
    tmp = p + ".tmp"
    with open(tmp, "w") as f:
        json.dump(asdict(manifest), f, indent=1)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, p)
    return p


def _require_newer(index_dir: str, generation: int) -> None:
    cur = read_manifest(index_dir)
    if cur is not None and generation <= cur.generation:
        raise ValueError(
            f"pending generation {generation} must exceed the current "
            f"commit {cur.generation}"
        )


def commit_prepared(index_dir: str) -> int:
    """Second phase (IndexWriter.commit after prepareCommit /
    finishCommit): atomically promote the pending manifest to the current
    commit — one rename flips what readers see; the retained-history copy
    is written first so the generation stays openable by number. Raises if
    nothing is pending, and raises ValueError (publishing nothing, the
    pending commit left for rollback_prepared) when a commit made since
    prepare_commit already reached the pending generation — promoting it
    would overwrite that published commit. Returns the committed
    generation."""
    p = _pending_path(index_dir)
    if not os.path.exists(p):
        raise RuntimeError("commit_prepared called with no pending commit")
    m = _load(p)
    _require_newer(index_dir, m.generation)
    write_manifest(index_dir, m)  # retained copy + atomic manifest.json flip
    os.remove(p)
    return m.generation


def rollback_prepared(index_dir: str) -> int | None:
    """Discard a pending commit (IndexWriter.rollback's pendingCommit
    cleanup): the staged manifest is deleted, the published state is
    untouched. Returns the discarded generation, or None if nothing was
    pending (rollback is idempotent, as in the reference)."""
    gen = pending_commit_generation(index_dir)
    if gen is not None:
        os.remove(_pending_path(index_dir))
    return gen


def pending_commit_generation(index_dir: str) -> int | None:
    """Generation staged by prepare_commit, or None (observability for
    recovery tooling; readers never consult this)."""
    p = _pending_path(index_dir)
    if not os.path.exists(p):
        return None
    with open(p) as f:
        return json.load(f)["generation"]


def list_commits(index_dir: str) -> list[int]:
    """Generations with a retained commit (IndexReader.listCommits role)."""
    commits = os.path.join(index_dir, "commits")
    if not os.path.isdir(commits):
        return []
    out = []
    for n in os.listdir(commits):
        if n.startswith("manifest_g") and n.endswith(".json"):
            out.append(int(n[len("manifest_g"):-len(".json")]))
    return sorted(out)


def _snapshots_path(index_dir: str) -> str:
    return os.path.join(index_dir, "commits", "snapshots.json")


def list_snapshots(index_dir: str) -> list[int]:
    """Pinned commit generations (SnapshotDeletionPolicy.getSnapshots)."""
    p = _snapshots_path(index_dir)
    if not os.path.exists(p):
        return []
    with open(p) as f:
        return sorted(json.load(f))


def _write_snapshots(index_dir: str, gens: list[int]) -> None:
    p = _snapshots_path(index_dir)
    os.makedirs(os.path.dirname(p), exist_ok=True)
    tmp = p + ".tmp"
    with open(tmp, "w") as f:
        json.dump(sorted(set(gens)), f)
    os.replace(tmp, p)


def snapshot_commit(index_dir: str, generation: int | None = None) -> int:
    """Pin a retained commit so purge_commits never deletes it
    (index/SnapshotDeletionPolicy.java:50 snapshot(): returns the commit
    it protects; default = the CURRENT generation). Idempotent."""
    if generation is None:
        m = read_manifest(index_dir)
        if m is None:
            raise FileNotFoundError(f"no manifest under {index_dir}")
        generation = m.generation
    if generation not in list_commits(index_dir):
        raise FileNotFoundError(
            f"no retained commit for generation {generation}"
        )
    _write_snapshots(index_dir, list_snapshots(index_dir) + [generation])
    return generation


def release_snapshot(index_dir: str, generation: int) -> None:
    """Unpin (SnapshotDeletionPolicy.release). Missing pin raises."""
    gens = list_snapshots(index_dir)
    if generation not in gens:
        raise KeyError(f"generation {generation} is not snapshotted")
    _write_snapshots(index_dir, [g for g in gens if g != generation])


def purge_commits(index_dir: str, keep_last: int = 1) -> list[int]:
    """Delete retained commit MANIFESTS beyond the newest ``keep_last``,
    except snapshotted generations and the current one — the
    KeepOnlyLastCommitDeletionPolicy / SnapshotDeletionPolicy composition
    (index/KeepOnlyLastCommitDeletionPolicy.java). Segment data files are
    NEVER touched: a purged generation just stops being openable by
    number. Returns the purged generations."""
    if keep_last < 1:
        raise ValueError("keep_last must be >= 1")
    cur = read_manifest(index_dir)
    protect = set(list_snapshots(index_dir))
    if cur is not None:
        protect.add(cur.generation)
    gens = list_commits(index_dir)
    protect.update(gens[-keep_last:])
    purged = []
    for g in gens:
        if g in protect:
            continue
        os.remove(os.path.join(index_dir, "commits", f"manifest_g{g}.json"))
        purged.append(g)
    return purged


def read_manifest(index_dir: str, generation: int | None = None) -> Manifest | None:
    """Read the CURRENT commit, or a specific retained ``generation``
    (DirectoryReader.open(IndexCommit) — point-in-time snapshot open)."""
    if generation is None:
        p = os.path.join(index_dir, "manifest.json")
    else:
        p = os.path.join(index_dir, "commits", f"manifest_g{generation}.json")
    return _load(p) if os.path.exists(p) else None


def _load(path: str) -> Manifest:
    with open(path) as f:
        d = json.load(f)
    d["segments"] = [SegmentEntry(**s) for s in d["segments"]]
    return Manifest(**d)

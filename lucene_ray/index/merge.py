"""Segment merging: TieredMergePolicy math over the manifest + Ray merge
workers (the compaction stage).

Policy parity (index/TieredMergePolicy.java):
  - allowedSegCount from geometric tier levels: floor 2 MB, segsPerTier 10,
    mergeFactor = min(maxMergeAtOnce, segsPerTier)      [:394-411 budget loop]
  - candidate windows of <= mergeFactor segments, <= 5 GB after-merge bytes,
    with the "hitTooLarge keeps packing smaller segments" rule   [:512-552]
  - skip merges whose result is < 1.5x the biggest input (anti O(N^2)),
    and singleton no-delete merges                               [:558-578]
  - score = skew * totalBytes^0.05 * nonDelRatio^2 (lower wins), where skew =
    floored(largest)/flooredTotal, or 1/mergeFactor when hitTooLarge [:654-702]
  - at most one over-size merge per cycle                        [:621-651]

Deliberate divergence, documented: Lucene merges ARBITRARY segments and
renumbers docids (index/DocIDMerger.java) because its ids are ephemeral.
Our global docids are stable engine output (rank-identity + N-vs-4N golden
equality), so candidate windows slide over the DOCID-ORDERED segment list and
only *adjacent* runs merge (LogMergePolicy's contiguity rule,
index/LogMergePolicy.java) — the merged segment inherits the first input's
docid_base and locals shift by input offsets; global ids never change.
With an append-only corpus delCount == 0, so the delete terms vanish.

Execution: one ``tasks.fan_out`` task per merge spec; each task streams
the input postings tables term-by-term (k-way by sorted term in bounded
chunks — `_iter_term_chunks`), decodes ONLY the current chunk,
rebases docids, re-encodes blocks and impacts EXACTLY as at build, and
appends the chunk as a Parquet row group. Peak decoded state is
O(chunk_pairs), independent of segment size — the SegmentMerger
mergeTerms streaming analog (index/SegmentMerger.java:109-165).
"""

from __future__ import annotations

import functools
import hashlib
import os
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from lucene_ray.config import (
    MERGE_FLOOR_SEGMENT_BYTES,
    MERGE_MAX_MERGE_AT_ONCE,
    MERGE_MAX_MERGED_SEGMENT_BYTES,
    MERGE_SEGS_PER_TIER,
)
from lucene_ray.index import segfiles
from lucene_ray.index.manifest import (
    Manifest,
    SegmentEntry,
    next_manifest,
    read_manifest,
    segment_dir,
    write_entry,
    write_manifest,
)
from lucene_ray.index.tasks import fan_out


def _adjacent(a: SegmentEntry, b: SegmentEntry) -> bool:
    """``b`` starts where ``a`` ends in the docid space. Only such
    neighbours may share a merge: an exorcised segment leaves a docid gap
    between its live neighbours, and a gap ends every merge window."""
    return b.docid_base == a.docid_base + a.doc_count


def _adjacent_runs(
    live: list, keep=lambda e: True, max_len: int | None = None
) -> list[list[str]]:
    """Names of the maximal runs of docid-adjacent entries of ``live``
    (docid order) that pass ``keep``; a run also ends after ``max_len``
    entries. The windows of force_merge, force_merge_deletes and the
    full-flush merges."""
    runs: list[list[SegmentEntry]] = []
    run: list[SegmentEntry] = []
    for e in live:
        if run and (not keep(e) or not _adjacent(run[-1], e) or len(run) == max_len):
            runs.append(run)
            run = []
        if keep(e):
            run.append(e)
    if run:
        runs.append(run)
    return [[e.name for e in r] for r in runs]


class TieredMergePolicy:
    def __init__(
        self,
        floor_segment_bytes: int = MERGE_FLOOR_SEGMENT_BYTES,
        max_merged_segment_bytes: int = MERGE_MAX_MERGED_SEGMENT_BYTES,
        segs_per_tier: float = MERGE_SEGS_PER_TIER,
        max_merge_at_once: int = MERGE_MAX_MERGE_AT_ONCE,
    ):
        self.floor_segment_bytes = floor_segment_bytes
        self.max_merged_segment_bytes = max_merged_segment_bytes
        self.segs_per_tier = segs_per_tier
        self.max_merge_at_once = max_merge_at_once

    def _floor_size(self, b: int) -> int:
        return max(b, self.floor_segment_bytes)

    def allowed_seg_count(self, sizes: list[int]) -> float:
        """Budget loop, TieredMergePolicy.java:394-411."""
        tot = sum(sizes)
        min_size = min(sizes) if sizes else 0
        merge_factor = int(min(self.max_merge_at_once, self.segs_per_tier))
        level_size = self._floor_size(min_size)
        bytes_left = tot
        allowed = 0.0
        while True:
            level_count = bytes_left / level_size
            if level_count < self.segs_per_tier or level_size == self.max_merged_segment_bytes:
                allowed += np.ceil(level_count)
                break
            allowed += self.segs_per_tier
            bytes_left -= int(self.segs_per_tier * level_size)
            level_size = min(self.max_merged_segment_bytes, level_size * merge_factor)
        return max(allowed, self.segs_per_tier)

    def score(
        self, cand_sizes: list[int], hit_too_large: bool, non_del_ratio: float = 1.0
    ) -> float:
        """TieredMergePolicy.score, :654-702. Lower wins; candidates with
        more deletes score lower (reclaim priority, nonDelRatio^2 term)."""
        tot = sum(cand_sizes)
        tot_floored = sum(self._floor_size(b) for b in cand_sizes)
        merge_factor = int(min(self.max_merge_at_once, self.segs_per_tier))
        if hit_too_large:
            skew = 1.0 / merge_factor
        else:
            largest = max(cand_sizes)
            skew = self._floor_size(largest) / tot_floored
        return skew * (tot ** 0.05) * (non_del_ratio ** 2)

    def find_merges(self, segments: list[SegmentEntry]) -> list[list[str]]:
        """Return merge specs (lists of segment names, docid-adjacent runs).
        doFindMerges structure (:436-651) with the adjacency divergence
        documented in the module docstring."""
        if len(segments) < 2:
            return []
        ordered = sorted(segments, key=lambda e: e.docid_base)
        sizes = {e.name: e.bytes for e in ordered}
        # exclude too-big segments from eligibility (> max/2, :383-388)
        eligible = [
            e for e in ordered if e.bytes <= self.max_merged_segment_bytes / 2
        ]
        if not eligible:
            return []
        allowed = self.allowed_seg_count([sizes[e.name] for e in eligible])
        merge_factor = int(min(self.max_merge_at_once, self.segs_per_tier))

        specs: list[list[str]] = []
        taken: set[str] = set()
        have_one_large = False
        while True:
            pool = [e for e in eligible if e.name not in taken]
            if len(pool) <= allowed or len(pool) < 2:
                return specs
            best, best_score, best_too_large = None, None, False
            # windows over ADJACENT docid runs (contiguity constraint)
            for start in range(len(pool)):
                cand: list[SegmentEntry] = []
                tot = 0
                hit_too_large = False
                idx = start
                while (
                    idx < len(pool)
                    and len(cand) < merge_factor
                    and tot < self.max_merged_segment_bytes
                ):
                    e = pool[idx]
                    # adjacency: stop the window at a docid gap
                    if cand and not _adjacent(cand[-1], e):
                        break
                    if tot + e.bytes > self.max_merged_segment_bytes:
                        hit_too_large = True
                        if not cand:
                            cand.append(e)
                        idx += 1
                        continue  # keep packing smaller segments (:545-548)
                    cand.append(e)
                    tot += e.bytes
                    idx += 1
                if len(cand) < 2:
                    continue
                largest = max(c.bytes for c in cand)
                if not hit_too_large and tot < largest * 1.5:
                    continue  # anti O(N^2) rule (:558-573)
                if best_score is not None and not hit_too_large and len(cand) < merge_factor:
                    break  # tail of the list, only smaller merges left (:585-589)
                n_docs = sum(c.doc_count for c in cand)
                n_del = sum(c.del_count for c in cand)
                s = self.score(
                    [c.bytes for c in cand],
                    hit_too_large,
                    non_del_ratio=1.0 - (n_del / n_docs if n_docs else 0.0),
                )
                if (best_score is None or s < best_score) and (
                    not hit_too_large or not have_one_large
                ):
                    best, best_score, best_too_large = cand, s, hit_too_large
            if best is None:
                return specs
            if best_too_large:
                have_one_large = True  # one over-size merge per cycle (:621-628)
            for e in best:
                taken.add(e.name)
            specs.append([e.name for e in best])


class _PostingsStream:
    """Sequential cursor over one segment's term-sorted postings.parquet
    with a bounded row buffer — the per-reader terms enum a SegmentMerger
    k-way merge advances (index/SegmentMerger.java mergeTerms cursors).
    Terms are unique per segment table (one row per term), so every
    buffered row with term < the buffer's last term is COMPLETE: it cannot
    recur in a later batch."""

    def __init__(self, path: str, batch_rows: int):
        self._pf = pq.ParquetFile(path)
        self._it = self._pf.iter_batches(batch_size=batch_rows)
        from lucene_ray.codec.postings_codec import POSTINGS_SCHEMA

        self._buf: pa.Table = POSTINGS_SCHEMA.empty_table()
        self._terms = np.array([], dtype=object)
        self._df = np.array([], dtype=np.int64)
        self.exhausted = False
        self.refill()

    def refill(self) -> bool:
        """Pull one more batch into the buffer; False once at EOF."""
        if self.exhausted:
            return False
        try:
            b = next(self._it)
        except StopIteration:
            self.exhausted = True
            return False
        t = pa.Table.from_batches([b])
        self._buf = (
            pa.concat_tables([self._buf, t]) if self._buf.num_rows else t
        )
        new_terms = np.asarray(t.column("term").to_pylist(), dtype=object)
        new_df = t.column("df").to_numpy(zero_copy_only=False).astype(np.int64)
        self._terms = np.concatenate([self._terms, new_terms])
        self._df = np.concatenate([self._df, new_df])
        return True

    @property
    def last_term(self):
        return self._terms[-1] if len(self._terms) else None

    def num_buffered(self) -> int:
        return len(self._terms)

    def _cut(self, term) -> int:
        if term is None:
            return len(self._terms)
        return int(np.searchsorted(self._terms, term, side="left"))

    def peek_below(self, term) -> tuple[np.ndarray, np.ndarray]:
        """(terms, df) of buffered rows with term < ``term`` (all if None)."""
        c = self._cut(term)
        return self._terms[:c], self._df[:c]

    def split_below(self, term) -> pa.Table:
        """Remove and return buffered rows with term < ``term``."""
        c = self._cut(term)
        out = self._buf.slice(0, c)
        self._buf = self._buf.slice(c)
        self._terms = self._terms[c:]
        self._df = self._df[c:]
        return out


def _iter_term_chunks(
    paths: list[str], batch_rows: int = 65536, max_chunk_pairs: int = 4_000_000
):
    """Yield aligned per-input postings-table slices covering disjoint,
    ascending term ranges; every term appears in exactly one chunk (whole —
    a term's row never splits). Chunk size is capped by total df so the
    decoded intermediate stays O(max_chunk_pairs) regardless of segment
    size; a single term bigger than the cap becomes its own chunk (the
    per-term floor — its postings must encode in one piece)."""
    streams = [_PostingsStream(p, batch_rows) for p in paths]
    while True:
        active = [s for s in streams if not s.exhausted]
        if not active and all(s.num_buffered() == 0 for s in streams):
            return
        boundary = min((s.last_term for s in active), default=None) if active else None
        cand = [s.peek_below(boundary) for s in streams]
        total_rows = sum(len(t) for t, _ in cand)
        if total_rows == 0:
            # every buffered row is >= boundary: advance the boundary streams
            for s in active:
                if s.last_term == boundary:
                    s.refill()  # unique sorted terms => last_term grows or EOF
            continue
        all_t = np.concatenate([t for t, _ in cand])
        all_d = np.concatenate([d for _, d in cand])
        o = np.argsort(all_t, kind="stable")
        cum = np.cumsum(all_d[o])
        if cum[-1] > max_chunk_pairs:
            k = int(np.searchsorted(cum, max_chunk_pairs, side="left"))
            cutoff = all_t[o][min(k, len(o) - 1)]
            first = all_t[o][0]
            if cutoff == first:  # always advance past >= one distinct term
                later = all_t[o][all_t[o] > first]
                cutoff = later[0] if len(later) else boundary
            yield [s.split_below(cutoff) for s in streams]
            continue
        yield [s.split_below(boundary) for s in streams]


def _merge_chunk(
    parts: list[pa.Table],
    offsets: list[int],
    norms: np.ndarray,
    live_merged: np.ndarray | None,
    with_positions: bool,
    with_offsets: bool = False,
    with_payloads: bool = False,
) -> tuple[pa.Table, int, int] | None:
    """Decode + k-way combine one term-range chunk; returns (encoded table,
    kept pair count, content-only ttf) or None if deletes emptied it."""
    from lucene_ray.codec.postings_codec import (
        decode_segment_pairs,
        postings_table_from_pairs,
    )

    decoded = []
    for i, t in enumerate(parts):
        if t.num_rows:
            decoded.append(
                (
                    i,
                    *decode_segment_pairs(
                        t, with_positions, with_offsets, with_payloads
                    ),
                )
            )
    if not decoded:
        return None
    all_terms = np.unique(np.concatenate([d[1] for d in decoded]))
    # per-occurrence streams travel together (positions + offset starts +
    # offset lengths + payloads all have one entry per occurrence, per-doc
    # self-contained deltas / raw values -> merged streams are plain gathers)
    n_occ = (3 if with_offsets else 1) + (1 if with_payloads else 0)
    pair_rank_parts, pair_doc_parts, tf_parts = [], [], []
    occ_parts: list[list[np.ndarray]] = [[] for _ in range(n_occ)]
    for tup in decoded:
        i, terms_i, df_i, doc_i, tf_i = tup[:5]
        ranks_i = np.searchsorted(all_terms, terms_i)
        pair_rank_parts.append(np.repeat(ranks_i, df_i))
        pair_doc_parts.append(doc_i + offsets[i])
        tf_parts.append(tf_i)
        for s in range(n_occ):
            occ_parts[s].append(tup[5 + s])
    pair_rank = np.concatenate(pair_rank_parts)
    pair_doc = np.concatenate(pair_doc_parts)
    tfs = np.concatenate(tf_parts)
    occ = [np.concatenate(p).astype(np.uint32) for p in occ_parts]

    # apply deletes: drop tombstoned docs' postings (the merge-time reclaim,
    # index/SegmentMerger.java liveDocs path); docid SPACE is preserved
    if live_merged is not None:
        keep = live_merged[pair_doc]
        if not keep.all():
            occ_keep = np.repeat(keep, tfs)
            occ = [s[occ_keep] if len(s) else s for s in occ]
            pair_rank, pair_doc, tfs = pair_rank[keep], pair_doc[keep], tfs[keep]
            if len(pair_rank) == 0:
                return None

    # final pair order: (term rank, docid) — inputs were concatenated in
    # docid_base order, so a stable sort by rank suffices
    order = np.argsort(pair_rank, kind="stable")
    pair_rank_s = pair_rank[order]
    pair_doc_s = pair_doc[order]
    tfs_s = tfs[order]
    if with_positions or with_offsets or with_payloads:
        # pair-wise gather reordering the occurrence streams to pair order
        seg_starts = np.concatenate(([0], np.cumsum(tfs)[:-1]))
        lens_o = tfs[order]
        starts_o = seg_starts[order]
        within = np.arange(int(lens_o.sum())) - np.repeat(
            np.concatenate(([0], np.cumsum(lens_o)[:-1])), lens_o
        )
        gather = np.repeat(starts_o, lens_o) + within
        occ = [s[gather] if len(s) else s for s in occ]
    pos_sorted = occ[0] if with_positions else np.array([], dtype=np.uint32)

    table = postings_table_from_pairs(
        all_terms, pair_rank_s, pair_doc_s, tfs_s, pos_sorted, norms,
        with_positions=with_positions,
        off_delta=occ[1] if with_offsets else None,
        off_len=occ[2] if with_offsets else None,
        pay=occ[-1] if with_payloads else None,
    )
    # content-only ttf (field "f:v" postings excluded — avgdl invariant);
    # vectorized via Arrow, never a python loop over the vocab
    import pyarrow.compute as pc

    is_field = pc.match_substring(table.column("term"), ":").to_numpy(
        zero_copy_only=False
    )
    ttf_col = table.column("ttf").to_numpy(zero_copy_only=False)
    content_ttf = int(ttf_col[~is_field].sum())
    return table, len(pair_rank_s), content_ttf


def _rebase(t: pa.Table, col: str, offset: int) -> tuple[pa.Table, np.ndarray]:
    """Shift a LOCAL docid column by the input's offset in the merged
    segment; returns (table, rebased docids)."""
    docs = t.column(col).to_numpy(zero_copy_only=False) + offset
    i = t.schema.get_field_index(col)
    return t.set_column(i, col, pa.array(docs, type=pa.int64())), docs


def _fold_doc_values(pts: pa.Table, dv: pa.Table) -> pa.Table:
    """Points take their values from the merged doc values (the latest DV
    generation), like postings reclaim: range queries see DV updates from
    the merge on."""
    f_dict = pts.column("field").combine_chunks().dictionary_encode()
    f_codes = f_dict.indices.to_numpy(zero_copy_only=False)
    d_np = pts.column("docid").to_numpy(zero_copy_only=False)
    v_np = pts.column("value").to_numpy(zero_copy_only=False).copy()
    for code, fname in enumerate(f_dict.dictionary.to_pylist()):
        if fname in dv.schema.names:
            fm = f_codes == code
            v_np[fm] = dv.column(fname).to_numpy(zero_copy_only=False)[d_np[fm]]
    i = pts.schema.get_field_index("value")
    return pts.set_column(i, "value", pa.array(v_np, type=pa.int64()))


def _merge_file(
    f: segfiles.SegFile,
    paths: list[str],
    out_dir: str,
    offsets: list[int],
    live: np.ndarray | None,
    dv: pa.Table | None = None,
) -> pa.Table | None:
    """Merge one table row's input files into ``out_dir`` by the row's rule
    (segfiles module docstring); returns the merged table (None when
    streamed). Inputs are docid-adjacent, so concatenation keeps doc order
    and the row-group pruning granularity."""
    if f.merge == segfiles.STREAM:
        # batch by batch: stored/term-vector rows are wide, never
        # materialize every input at once
        writer = None
        try:
            batch = f.row_group or 16384
            for off, p in zip(offsets, paths):
                for b in pq.ParquetFile(p).iter_batches(batch_size=batch):
                    t = pa.Table.from_batches([b])
                    if f.docid:
                        t, docs = _rebase(t, f.docid, off)
                        if f.reclaim and live is not None:
                            t = t.filter(pa.array(live[docs]))
                    if writer is None:
                        writer = pq.ParquetWriter(f.path(out_dir), t.schema)
                    writer.write_table(t, row_group_size=f.row_group)
        finally:
            if writer is not None:
                writer.close()
        return None
    parts = [pq.read_table(p) for p in paths]
    if f.docid:
        parts = [_rebase(t, f.docid, off)[0] for t, off in zip(parts, offsets)]
    t = pa.concat_tables(parts, promote_options="default")
    if f is segfiles.POINTS and dv is not None:
        t = _fold_doc_values(t, dv)
    if f.sort_key:
        # sort on integer dictionary codes, not object strings (lexsort over
        # an object column falls back to python comparisons). Code order is
        # arbitrary — readers mask per field and only need the within-field
        # (key, docid) order, which the lexsort guarantees.
        f_dict = t.column("field").combine_chunks().dictionary_encode()
        f_codes = f_dict.indices.to_numpy(zero_copy_only=False).astype(np.int64)
        d_np = t.column(f.docid).to_numpy(zero_copy_only=False)
        k_np = t.column(f.sort_key).to_numpy(zero_copy_only=False)
        o = np.lexsort((d_np, k_np, f_codes))
        if f.reclaim and live is not None:
            o = o[live[d_np][o]]  # tombstoned docs' rows go with their postings
        t = t.take(pa.array(o))
    f.write(out_dir, t)
    return t


def merge_segments(
    index_dir: str,
    names: list[str],
    batch_rows: int = 65536,
    max_chunk_pairs: int = 4_000_000,
) -> SegmentEntry:
    """Execute one merge: streaming k-way term merge with docid rebase;
    idempotent. Peak memory is O(max_chunk_pairs) decoded postings plus the
    doc-scale norms/livedocs arrays — never whole-segment decoded state.
    Every other file merges by its segfiles row; a sidecar is carried only
    when every input has it."""
    from lucene_ray.index.manifest import read_entry

    t0 = time.perf_counter()
    c0 = time.process_time()
    manifest = read_manifest(index_dir)
    entries = sorted(
        (e for e in manifest.segments if e.name in names),
        key=lambda e: e.docid_base,
    )
    assert len(entries) == len(names), "merge input missing from manifest"
    for a, b in zip(entries, entries[1:]):
        assert _adjacent(a, b), "non-adjacent merge"
    new_base = entries[0].docid_base
    # every generation (del_gen, dv_gen, soft_del_gen) is part of the
    # identity: the same inputs re-merged after new deletes / DV updates /
    # soft-delete flips must produce a NEW segment, not hit the idempotency
    # cache
    fp = hashlib.sha1(
        "+".join(
            e.name + "".join(f":{f.gen(e)}" for f in segfiles.GEN_FILES)
            for e in entries
        ).encode()
    ).hexdigest()[:12]
    name = f"seg_{entries[0].name.split('_')[1]}m_{fp}"
    existing = read_entry(index_dir, name)
    if existing is not None:
        return existing

    seg_dirs = [segment_dir(index_dir, e.name) for e in entries]
    offsets = [e.docid_base - new_base for e in entries]

    # concatenated norms for impact recomputation (doc-scale, bounded).
    # ALL norm columns ride along: per-analyzed-field norm_<f>/doc_len_<f>
    # pairs (format v8, MultiNormsLeafSimScorer backing) concat in the same
    # doc order as the content norm — build options are index-wide, so
    # every segment of one index carries the identical norms schema.
    norm_tbls = [pq.read_table(segfiles.NORMS.path(sd)) for sd in seg_dirs]
    norm_cols = {
        name: np.concatenate(
            [t.column(name).to_numpy(zero_copy_only=False) for t in norm_tbls]
        )
        for name in norm_tbls[0].column_names
    }
    norms = norm_cols["norm"].astype(np.uint8)
    doc_lens = norm_cols["doc_len"]

    # delete masks (doc-scale), concatenated in doc order. The docid SPACE
    # is preserved (stable global ids): the live bitmap is carried forward
    # so MatchAllDocs / norms stay consistent, and only tombstoned docs'
    # postings are reclaimed. Soft deletes follow the RETENTION contract
    # (SoftDeletesRetentionMergePolicy): their postings are kept and the
    # mask carries over, so soft_undelete keeps working on the merged
    # segment.
    masks = {
        f: np.concatenate(
            [segfiles.read_mask(f, sd, f.gen(e), e.doc_count)
             for sd, e in zip(seg_dirs, entries)]
        )
        for f in (segfiles.LIVEDOCS, segfiles.SOFTDELETES)
        if any(f.gen(e) > 0 for e in entries)
    }
    live_merged = masks.get(segfiles.LIVEDOCS)

    # positions on/off is uniform across a segment: probe the footer-level
    # schema stats cheaply by decoding nothing — any non-empty pos_blob in
    # the first buffered batch means the index carries positions
    post_paths = [segfiles.POSTINGS.path(sd) for sd in seg_dirs]
    with_positions = with_offsets = with_payloads = False
    for p in post_paths:
        pf = pq.ParquetFile(p)
        if pf.metadata.num_rows == 0:
            continue
        probe_cols = ["pos_blob", "off_blob"]
        has_pay_col = "pay_blob" in pf.schema_arrow.names
        if has_pay_col:
            probe_cols.append("pay_blob")
        first = next(pf.iter_batches(batch_size=1, columns=probe_cols))
        with_positions = len(first.column("pos_blob")[0].as_py() or b"") > 0
        with_offsets = len(first.column("off_blob")[0].as_py() or b"") > 0
        if has_pay_col:
            with_payloads = len(first.column("pay_blob")[0].as_py() or b"") > 0
        break

    # ---- streaming k-way merge: decode/re-encode one term-range chunk at
    # a time, appending row groups; sum_ttf is recomputed from the KEPT
    # pairs, content-only — with ``reclaimed`` below this makes post-merge
    # stats identical to a fresh index of the live docs (reference merge
    # semantics: df/N/ttf drop together when deletes are reclaimed) -------
    from lucene_ray.codec.postings_codec import POSTINGS_SCHEMA

    d = segment_dir(index_dir, name)
    os.makedirs(d, exist_ok=True)
    sum_ttf = 0
    unique_terms = 0
    kept_postings = 0
    writer = pq.ParquetWriter(segfiles.POSTINGS.path(d), POSTINGS_SCHEMA)
    try:
        for parts in _iter_term_chunks(post_paths, batch_rows, max_chunk_pairs):
            out = _merge_chunk(
                parts, offsets, norms, live_merged, with_positions,
                with_offsets, with_payloads,
            )
            if out is None:
                continue
            chunk_table, n_pairs, content_ttf = out
            writer.write_table(chunk_table)
            sum_ttf += content_ttf
            unique_terms += chunk_table.num_rows
            kept_postings += n_pairs
    finally:
        writer.close()

    segfiles.NORMS.write(
        d,
        pa.table(
            {
                "norm": pa.array(norms, type=pa.uint8()),
                "doc_len": pa.array(doc_lens, type=pa.int64()),
                **{
                    name: pa.array(
                        arr,
                        type=pa.uint8() if name.startswith("norm_") else pa.int64(),
                    )
                    for name, arr in norm_cols.items()
                    if name not in ("norm", "doc_len")
                },
            }
        ),
    )
    # every other file by its table row (doc values before points: the
    # points re-sort folds the merged doc values in)
    dv = None
    for f in segfiles.TABLE:
        if not f.merge:
            continue
        paths = [f.latest(sd, e) for sd, e in zip(seg_dirs, entries)]
        if all(os.path.exists(p) for p in paths):
            merged = _merge_file(f, paths, d, offsets, live_merged, dv)
            if f is segfiles.DOCVALUES:
                dv = merged

    del_gen, del_count, reclaimed = 0, 0, 0
    if live_merged is not None:
        del_count = int((~live_merged).sum())
        del_gen, reclaimed = 1, del_count  # every tombstone's postings dropped
    soft_del_gen, soft_del_count = 0, 0
    if segfiles.SOFTDELETES in masks:
        soft_del_gen = 1
        soft_del_count = int(masks[segfiles.SOFTDELETES].sum())
    for f, mask in masks.items():
        segfiles.write_mask(f, d, 1, mask)

    secs = time.perf_counter() - t0
    doc_count = sum(e.doc_count for e in entries)
    # index sorting: adjacent merges CONCATENATE the inputs' sorted runs
    # (stable docids forbid the reference's merge-time re-sort,
    # index/IndexSorter.java — builder.py documents the divergence). A DV
    # update may have broken an input's sort invariant: drop the runs.
    sorted_runs = None
    if all(e.sorted_runs for e in entries) and not any(e.dv_gen for e in entries):
        sorted_runs = [
            [off + r[0], off + r[1]]
            for e, off in zip(entries, offsets)
            for r in e.sorted_runs
        ]
    entry = SegmentEntry(
        name=name,
        docid_base=new_base,
        doc_count=doc_count,
        sorted_runs=sorted_runs,
        sum_ttf=sum_ttf,
        unique_terms=unique_terms,
        bytes=segfiles.segment_bytes(d),
        del_gen=del_gen,
        del_count=del_count,
        soft_del_gen=soft_del_gen,
        soft_del_count=soft_del_count,
        reclaimed=reclaimed,
        input={
            "merged_from": [e.name for e in entries],
            "fingerprint": fp,
            # the inputs' build options, so later adds replay them
            "options": next(
                (e.input["options"] for e in entries if e.input.get("options")),
                None,
            ),
        },
        metrics={
            "build_secs": round(secs, 4),
            "build_cpu_secs": round(time.process_time() - c0, 4),
            "docs_per_sec": round(doc_count / secs, 1),
            "postings": kept_postings,
            "merge_inputs": len(entries),
            # exact when nothing was reclaimed; an upper bound otherwise
            # (CheckIndex uses it only as a bound in the reclaimed branch)
            "overlaps": sum(
                int(e.metrics.get("overlaps", 0) or 0) for e in entries
            ),
        },
    )
    write_entry(index_dir, entry)
    return entry


def maybe_merge(
    index_dir: str,
    policy: TieredMergePolicy | None = None,
    max_rounds: int = 10,
    use_ray: bool = True,
) -> Manifest:
    """Run merge rounds until the policy is satisfied (IndexWriter.maybeMerge
    cascade, index/IndexWriter.java:701). Each round's merges execute in
    parallel, one Ray task per spec (tasks.fan_out); the manifest swap is
    a single atomic write per round."""
    policy = policy or TieredMergePolicy()
    manifest = read_manifest(index_dir)
    for _ in range(max_rounds):
        specs = policy.find_merges(manifest.live_segments)
        if not specs:
            return manifest
        manifest = _apply_merges(index_dir, manifest, manifest.segments, specs, use_ray)
    return manifest


class MergeOnFlushMergePolicy:
    """sandbox/index/MergeOnFlushMergePolicy.java — a FilterMergePolicy:
    background merges delegate to the wrapped policy; on COMMIT
    (findFullFlushMerges) every segment smaller than the threshold
    (default 100 MB, the reference's smallSegmentThresholdBytes) is merged
    away so a commit never publishes a dust cloud of tiny segments.
    Divergence, documented: the reference merges all small segments into
    ONE merge regardless of position; here each maximal run of ADJACENT
    small segments becomes one merge — the repo's stable-docid adjacency
    constraint (same stance as TieredMergePolicy's windows)."""

    def __init__(self, wrapped=None, small_segment_threshold_mb: float = 100.0):
        self.wrapped = wrapped or TieredMergePolicy()
        self.small_segment_threshold_bytes = int(
            small_segment_threshold_mb * 1024 * 1024
        )

    def find_merges(self, segments: list) -> list[list[str]]:
        return self.wrapped.find_merges(segments)

    def find_full_flush_merges(self, segments: list) -> list[list[str]]:
        live = sorted(
            (e for e in segments if not e.deleted), key=lambda e: e.docid_base
        )
        runs = _adjacent_runs(
            live, lambda e: e.bytes < self.small_segment_threshold_bytes
        )
        return [r for r in runs if len(r) > 1]


def merge_on_commit(
    index_dir: str, policy: "MergeOnFlushMergePolicy", use_ray: bool = False
) -> Manifest:
    """The IndexWriter.commit-time findFullFlushMerges round
    (index/IndexWriter.java prepareCommitInternal's MergeTrigger
    .COMMIT path): execute the policy's full-flush merges once and
    publish one new manifest generation."""
    manifest = read_manifest(index_dir)
    specs = policy.find_full_flush_merges(manifest.live_segments)
    if not specs:
        return manifest
    return _apply_merges(index_dir, manifest, manifest.segments, specs, use_ray)


def force_merge(index_dir: str, use_ray: bool = False) -> Manifest:
    """ForceMerge(1): one final global merge round
    (index/IndexWriter.java:2098)."""
    manifest = read_manifest(index_dir)
    live = sorted(manifest.live_segments, key=lambda e: e.docid_base)
    while len(live) > 1:
        # merge in windows of max_merge_at_once until one segment remains
        # per docid-contiguous run
        specs = [
            r
            for r in _adjacent_runs(live, max_len=MERGE_MAX_MERGE_AT_ONCE)
            if len(r) > 1
        ]
        if not specs:
            break
        manifest = _apply_merges(
            index_dir, manifest, manifest.segments, specs, use_ray
        )
        live = sorted(manifest.live_segments, key=lambda e: e.docid_base)
    return manifest


def _apply_merges(
    index_dir: str,
    manifest: Manifest,
    segments: list[SegmentEntry],
    specs: list[list[str]],
    use_ray: bool,
) -> Manifest:
    """Run one round of merges and publish ``segments`` with each spec's
    inputs replaced by its merged segment as the next manifest generation
    (one atomic write per round)."""
    new_entries = _execute_merges(index_dir, specs, use_ray)
    merged_away = {n for spec in specs for n in spec}
    keep = [e for e in segments if e.name not in merged_away] + new_entries
    write_manifest(index_dir, m := next_manifest(manifest, keep))
    return m


def _execute_merges(index_dir: str, specs: list[list[str]], use_ray: bool) -> list[SegmentEntry]:
    run = functools.partial(merge_segments, index_dir)
    if not use_ray or len(specs) == 1:
        return [run(spec) for spec in specs]
    return fan_out(run, specs)


def force_merge_deletes(
    index_dir: str, pct_allowed: float = 10.0, use_ray: bool = False
) -> Manifest:
    """forceMergeDeletes (index/IndexWriter.java forceMergeDeletes ->
    TieredMergePolicy.findForcedDeletesMerges, TieredMergePolicy.java:94
    forceMergeDeletesPctAllowed=10.0 default): rewrite every live segment
    whose delete percentage EXCEEDS ``pct_allowed``, reclaiming its
    tombstoned docs' postings/norms/stored rows. Each qualifying segment is
    rewritten alone (adjacent-window constraint keeps docids stable); pairs
    of adjacent qualifying segments merge together like a normal round."""
    manifest = read_manifest(index_dir)
    live = sorted(manifest.live_segments, key=lambda e: e.docid_base)

    def qualifies(e: SegmentEntry) -> bool:
        # only deletes whose postings are still in the segment qualify —
        # a previous reclaiming merge keeps the tombstoned SLOTS (stable
        # docids) but already dropped their postings, so re-rewriting it
        # would be wasted work (idempotency)
        dels = e.del_count - e.reclaimed
        return bool(e.doc_count) and 100.0 * dels / e.doc_count > pct_allowed

    specs = _adjacent_runs(live, qualifies, MERGE_MAX_MERGE_AT_ONCE)
    if not specs:
        return manifest
    return _apply_merges(index_dir, manifest, manifest.segments, specs, use_ray)

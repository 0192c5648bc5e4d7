"""CheckIndex: whole-index invariant verification (index/CheckIndex.java:
101,526,1054-1079 re-expressed over the Parquet segment format).

Checks per segment:
  - terms sorted strictly ascending (term dict order)
  - docids strictly increasing within each posting list; df == len(postings)
  - ttf == sum(tf); segment sum_ttf == manifest entry
  - every per-block pareto impact is a true (tf, norm) upper-bound set
  - norm == intToByte4(doc_len)
  - from the segment-file table (index/segfiles.py): every doc-ordered file
    has doc_count rows, every local docid column lies in [0, doc_count),
    every generation the entry names exists; delete-mask counts match
  - file-specific invariants: points == doc values, term-vector freq ==
    len(positions), sorted-numeric values ascending, shape edge flags
  - stored-fields sha256 matches the source Parquet rows (content invariant)
Index-level:
  - docid_base prefix-sum consistency, doc_count totals
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pyarrow.parquet as pq

from lucene_ray.codec.postings_codec import decode_term_postings
from lucene_ray.config import BLOCK_SIZE
from lucene_ray.index import segfiles
from lucene_ray.index.manifest import segment_dir
from lucene_ray.search.reader import IndexReader
from lucene_ray.util.smallfloat import int_to_byte4


def check_index(index_dir: str, verify_content: bool = True) -> dict:
    reader = IndexReader(index_dir)
    problems: list[str] = []
    n_terms = n_postings = 0

    expected_base = 0
    for entry in reader.segments:
        if entry.docid_base != expected_base:
            problems.append(
                f"{entry.name}: docid_base {entry.docid_base} != prefix sum {expected_base}"
            )
        expected_base += entry.doc_count

        sr = reader.segment_reader(entry.name)
        d = segment_dir(index_dir, entry.name)
        postings = pq.read_table(segfiles.POSTINGS.path(d))
        terms = postings.column("term").to_pylist()
        if terms != sorted(terms):
            problems.append(f"{entry.name}: terms not sorted")
        if len(set(terms)) != len(terms):
            problems.append(f"{entry.name}: duplicate terms")

        seg_ttf = 0
        for row in postings.to_pylist():
            tp = decode_term_postings(row)
            n_terms += 1
            n_postings += len(tp.docids)
            if len(tp.docids) != row["df"]:
                problems.append(f"{entry.name}/{row['term']}: df mismatch")
            if np.any(np.diff(tp.docids) <= 0):
                problems.append(f"{entry.name}/{row['term']}: docids not increasing")
            if tp.docids[-1] >= entry.doc_count or tp.docids[0] < 0:
                problems.append(f"{entry.name}/{row['term']}: docid out of range")
            if int(tp.tfs.sum()) != row["ttf"]:
                problems.append(f"{entry.name}/{row['term']}: ttf mismatch")
            if np.any(tp.tfs <= 0):
                problems.append(f"{entry.name}/{row['term']}: nonpositive tf")
            if ":" not in row["term"]:
                # keyword-field postings are excluded from sum_ttf (it is
                # the content-only avgdl numerator)
                seg_ttf += int(tp.tfs.sum())
            # impacts: true upper bounds per block
            for b, packed in enumerate(row["impacts"]):
                sl = slice(b * BLOCK_SIZE, min((b + 1) * BLOCK_SIZE, len(tp.docids)))
                tfs = tp.tfs[sl]
                nms = sr.norm_bytes[tp.docids[sl]]
                pairs = [((p >> 8), p & 0xFF) for p in packed]
                for tf, nm in zip(tfs, nms):
                    if not any(ptf >= tf and pnm <= nm for ptf, pnm in pairs):
                        problems.append(
                            f"{entry.name}/{row['term']}: impact not an upper bound in block {b}"
                        )
                        break
        # entry.sum_ttf always equals the postings-side content ttf (at
        # build it is the full doc_len sum; after a delete-reclaiming merge
        # it was recomputed from the kept pairs). The doc_len sum bounds it
        # from above, with equality iff nothing was reclaimed.
        if seg_ttf != entry.sum_ttf:
            problems.append(
                f"{entry.name}: postings ttf {seg_ttf} != manifest {entry.sum_ttf}"
            )
        dl_all = int(sr.doc_len.sum())
        reclaimed = getattr(entry, "reclaimed", 0)
        # discountOverlaps: norms exclude posInc==0 tokens, sum_ttf counts
        # them (BM25Similarity.java:99-101 / sumTotalTermFreq semantics) —
        # the invariant is sum_ttf == doc_len sum + overlaps (exact at
        # build and overlap-free merges; bound after reclaiming merges)
        overlaps = int((entry.metrics or {}).get("overlaps", 0) or 0)
        if reclaimed == 0 and entry.sum_ttf != dl_all + overlaps:
            problems.append(
                f"{entry.name}: sum_ttf {entry.sum_ttf} != doc_len sum"
                f" {dl_all} + overlaps {overlaps}"
            )
        if reclaimed > 0 and entry.sum_ttf > dl_all + overlaps:
            problems.append(
                f"{entry.name}: sum_ttf {entry.sum_ttf} exceeds doc_len sum"
                f" {dl_all} + overlaps {overlaps}"
            )
        if reclaimed > getattr(entry, "del_count", 0):
            problems.append(f"{entry.name}: reclaimed > del_count")

        if not np.array_equal(int_to_byte4(sr.doc_len), sr.norm_bytes):
            problems.append(f"{entry.name}: norm != intToByte4(doc_len)")

        # table-wide addressing checks (segfiles rows): every doc-ordered
        # file has one row per doc, every local docid column is in range;
        # a generation the entry names must exist
        n_docs = entry.doc_count
        for f in segfiles.TABLE:
            if not (f.doc_ordered or f.docid):
                continue
            gen = f.gen(entry)
            if gen > 0 and not os.path.exists(f.path(d, gen)):
                problems.append(f"{entry.name}: {f.gen_attr} {gen} file missing")
            for p in {f.path(d, g) for g in {0, gen} if g or f.name}:
                if not os.path.exists(p):
                    continue
                where = f"{entry.name}: {os.path.basename(p)}"
                if f.doc_ordered:
                    rows = pq.ParquetFile(p).metadata.num_rows
                    if rows != n_docs:
                        problems.append(f"{where} rows {rows} != doc_count {n_docs}")
                else:
                    docs = pq.read_table(p, columns=[f.docid]).column(f.docid)
                    docs = docs.to_numpy(zero_copy_only=False)
                    if len(docs) and (docs.min() < 0 or docs.max() >= n_docs):
                        problems.append(f"{where} docid out of range")

        # delete-mask counts (Lucene90LiveDocsFormat checks)
        for f in (segfiles.LIVEDOCS, segfiles.SOFTDELETES):
            gen, count = f.gen(entry), getattr(entry, f.count_attr)
            if gen <= 0 and count:
                problems.append(f"{entry.name}: {f.count_attr} without {f.gen_attr}")
            elif gen > 0 and os.path.exists(f.path(d, gen)):
                mask = segfiles.read_mask(f, d, gen, n_docs)
                n = int((~mask).sum() if f is segfiles.LIVEDOCS else mask.sum())
                if n != count:
                    problems.append(f"{entry.name}: {f.count_attr} {count} != mask {n}")

        # doc-values / points cross-checks (Lucene90DocValuesFormat /
        # points checkIntegrity role): the value-sorted points table is a
        # permutation of the dv pairs. DV update generations keep the base
        # schema (points stay index-time — their consistency check runs
        # against the BASE generation)
        dv_path = segfiles.DOCVALUES.path(d)
        g_path = segfiles.DOCVALUES.path(d, entry.dv_gen)
        if entry.dv_gen > 0 and os.path.exists(g_path):
            base = pq.read_schema(dv_path).names if os.path.exists(dv_path) else []
            if sorted(pq.read_schema(g_path).names) != sorted(base):
                problems.append(f"{entry.name}: dv gen schema != base schema")
        pt_path = segfiles.POINTS.path(d)
        if os.path.exists(dv_path) and os.path.exists(pt_path):
            dv = pq.read_table(dv_path)
            pt = pq.read_table(pt_path)
            fields = np.asarray(pt.column("field").to_pylist(), dtype=object)
            pvals = pt.column("value").to_numpy(zero_copy_only=False)
            pdocs = pt.column("docid").to_numpy(zero_copy_only=False)
            for f in np.unique(fields):
                m = fields == f
                if np.any(np.diff(pvals[m]) < 0):
                    problems.append(f"{entry.name}: points[{f}] not value-sorted")
                if str(f) in dv.schema.names:
                    # every point agrees with the doc-ordered dv value;
                    # merges reclaim deleted docs' points (like postings),
                    # so full-permutation equality holds only delete-free
                    dvv = dv.column(str(f)).to_numpy(zero_copy_only=False)
                    if np.any(dvv[pdocs[m]] != pvals[m]):
                        problems.append(
                            f"{entry.name}: points[{f}] value != docvalues"
                        )
                    n_missing = entry.doc_count - int(m.sum())
                    n_gone = entry.del_count
                    if n_missing > n_gone:
                        problems.append(
                            f"{entry.name}: points[{f}] missing {n_missing} "
                            f"docs with only {n_gone} deleted"
                        )

        # term-vectors sidecar (TermVectorsReader checkIntegrity role):
        # doc-major sorted, freq == len(positions) with
        # strictly-increasing positions, and per-doc freq sums equal the
        # CONTENT doc_len (TV is content-only, like norms) — tombstoned
        # docs' rows are reclaimed at merge, so the equality is asserted
        # for live docs and bounded for the rest
        tv_path = segfiles.TERMVECTORS.path(d)
        if os.path.exists(tv_path):
            tv = pq.read_table(tv_path)
            tdocs = tv.column("doc").to_numpy(zero_copy_only=False)
            tfreq = tv.column("freq").to_numpy(zero_copy_only=False).astype(np.int64)
            if np.any(np.diff(tdocs) < 0):
                problems.append(f"{entry.name}: termvectors not doc-sorted")
            plens = tv.column("positions").combine_chunks()
            import pyarrow.compute as pc

            if not np.array_equal(
                pc.list_value_length(plens).to_numpy(zero_copy_only=False),
                tfreq,
            ):
                problems.append(f"{entry.name}: termvectors freq != len(positions)")
            flat = pc.list_flatten(plens).to_numpy(zero_copy_only=False)
            starts = np.r_[0, np.cumsum(tfreq)[:-1]]
            # overlap analyzers (ngram/shingle/synonym) legitimately emit
            # the same term twice at ONE position (posInc==0), so with
            # overlaps the invariant relaxes to non-decreasing — the
            # reference CheckIndex allows pos == lastPos (ADVICE r3)
            bad = np.diff(flat) < 0 if overlaps > 0 else np.diff(flat) <= 0
            if len(flat) > 1:
                # boundaries between rows may legitimately decrease
                bad[starts[1:] - 1] = False
                if bad.any():
                    problems.append(
                        f"{entry.name}: termvectors positions not increasing"
                    )
            per_doc = np.bincount(tdocs, weights=tfreq, minlength=entry.doc_count)
            live = sr.live_mask if sr.live_mask is not None else np.ones(
                entry.doc_count, bool
            )
            # TV freqs count every token; doc_len may be overlap-discounted
            # (posInc==0 synonyms) — equality only for overlap-free segments
            if getattr(entry, "reclaimed", 0) == 0 and overlaps == 0:
                mismatch = per_doc != sr.doc_len
            else:
                mismatch = live & (per_doc < sr.doc_len)
            if mismatch.any():
                problems.append(
                    f"{entry.name}: termvectors freq sums != doc_len for "
                    f"{int(mismatch.sum())} docs"
                )

        # SORTED_NUMERIC sidecar: values ASC per doc
        # (SortedNumericDocValuesField write contract)
        snd_path = segfiles.DOCVALUES_SORTEDNUMERIC.path(d)
        if os.path.exists(snd_path):
            snd = pq.read_table(snd_path)
            for col in snd.schema.names:
                c = snd.column(col).combine_chunks()
                flat = c.values.to_numpy(zero_copy_only=False)
                offs = c.offsets.to_numpy(zero_copy_only=False)
                if len(flat) > 1:
                    bad = np.diff(flat) < 0
                    # row boundaries may drop; EMPTY docs make boundary
                    # offsets hit 0 (leading — the -1 would wrap to the
                    # LAST diff and mask a real violation) or len(flat)
                    # (trailing — one past the diff array), so clamp to
                    # the valid diff-index range (ADVICE r4)
                    b = offs[1:-1] - 1
                    bad[b[(b >= 0) & (b < len(bad))]] = False
                    if bad.any():
                        problems.append(
                            f"{entry.name}: sortednumeric {col} values not "
                            "ascending within a doc"
                        )

        # shapes sidecar: v9 edge-origin flags, when present, must be
        # complete (all three bool columns, no nulls) and every triangle
        # must keep >= 1 boundary edge (a tessellation component with
        # all-internal edges is impossible)
        sh_path = segfiles.SHAPES.path(d)
        if os.path.exists(sh_path):
            sh_schema = pq.read_schema(sh_path)
            flag_cols = [c for c in ("fab", "fbc", "fca") if c in sh_schema.names]
            if flag_cols and len(flag_cols) != 3:
                problems.append(
                    f"{entry.name}: shapes edge flags incomplete ({flag_cols})"
                )
            elif flag_cols:
                sh = pq.read_table(sh_path, columns=flag_cols)
                fl = [sh.column(c).to_numpy(zero_copy_only=False) for c in flag_cols]
                if not bool((fl[0] | fl[1] | fl[2]).all()):
                    problems.append(
                        f"{entry.name}: shapes triangle with no "
                        "boundary-flagged edge"
                    )

        if verify_content and "file" in entry.input:
            # merged segments carry "merged_from" lineage instead; their
            # stored sha256 column was concatenated from verified inputs
            stored = pq.read_table(segfiles.STORED.path(d))
            src = pq.ParquetFile(entry.input["file"]).read_row_groups(
                list(range(entry.input["rg_start"], entry.input["rg_end"])),
                columns=["content"],
            )
            expect = [
                hashlib.sha256(t.encode()).hexdigest() if t is not None else None
                for t in src.column("content").to_pylist()
            ]
            got = stored.column("content_sha256").to_pylist()
            if expect != got:
                problems.append(f"{entry.name}: content sha256 mismatch vs source")

    if reader.doc_count != expected_base:
        problems.append(f"manifest doc_count {reader.doc_count} != sum {expected_base}")
    return {
        "ok": not problems,
        "problems": problems,
        "segments": len(reader.segments),
        "terms": n_terms,
        "postings": n_postings,
    }


def exorcise_index(index_dir: str) -> dict:
    """CheckIndex.exorciseIndex (index/CheckIndex.java:3975): detach every
    segment whose files are unreadable or inconsistent from the manifest so
    the rest of the index opens cleanly — the lose-those-docs repair of
    last resort (the reference prints the same warning: back up first).

    Surviving segments keep their global docid bases; a removed segment is
    a GAP in the docid space (ids are never renumbered), marked
    ``deleted=True`` in a new manifest generation so retained history still
    references the dropped files."""
    import os

    from lucene_ray.index.manifest import (
        Manifest,
        read_manifest,
        write_manifest,
    )

    manifest = read_manifest(index_dir)
    removed: list[tuple[str, str]] = []
    for e in manifest.live_segments:
        d = segment_dir(index_dir, e.name)
        try:
            post_pf = pq.ParquetFile(segfiles.POSTINGS.path(d))
            post_pf.read_row_group(0) if post_pf.metadata.num_row_groups else None
            pq.read_table(segfiles.NORMS.path(d))
            for f in (segfiles.NORMS, segfiles.STORED):
                rows = pq.ParquetFile(f.path(d)).metadata.num_rows
                if rows != e.doc_count:
                    raise ValueError(f"{f.name} rows {rows} != doc_count {e.doc_count}")
        except Exception as ex:  # any unreadable/corrupt file condemns it
            removed.append((e.name, repr(ex)))
    if removed:
        bad = {n for n, _ in removed}
        for e in manifest.segments:
            if e.name in bad:
                e.deleted = True
        live = manifest.live_segments
        manifest = Manifest(
            generation=manifest.generation + 1,
            analyzer=manifest.analyzer,
            index_sort=getattr(manifest, "index_sort", None),
            user_data=getattr(manifest, "user_data", None),
            doc_count=sum(e.doc_count for e in live),
            sum_ttf=sum(e.sum_ttf for e in live),
            segments=manifest.segments,
        )
        write_manifest(index_dir, manifest)
    return {
        "removed": removed,
        "segments_left": len(manifest.live_segments),
    }

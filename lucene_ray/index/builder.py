"""Ray-Data-native index build: Parquet corpus -> postings segments.

Pipeline shape (SURVEY.md §7.1 steps 2-6, replacing IndexWriter's DWPT +
flush machinery, index/DocumentsWriter.java:409-460):

  plan (driver, Parquet footers only)
      -> tasks.fan_out(build_one_segment, specs)           # one task per spec
      -> build_index folds the returned entries into manifest.json

Design notes for 100 TB scale:
  - **Deterministic docids under any parallelism** (north rule N vs 4N
    equivalence): the plan is derived only from the *sorted* input file list
    and their footer row counts; docid_base = prefix sum over the plan. No
    dependence on execution order (the DWPT-private-ids + docBase remap
    analog, index/DocIDMerger.java:27-43).
  - **One segment per spec, built inside one task**: tokenize + postings
    group-by-term happen vectorized, in-memory, on <= TARGET_DOCS_PER_SEGMENT
    docs (the 16 MB-RAM-buffer flush analog, IndexWriterConfig.java:83 — our
    "RAM buffer" is the segment spec size). There is NO global shuffle in the
    build: postings only need term-grouping *within* a docid range, which is
    a local sort — the all-to-all groupby("term") exists only in the optional
    global-stats pipeline (`global_term_stats`) and is salted there.
  - **Checkpoint/resume**: finished segments are skipped at planning time by
    their entry.json fingerprint; a killed build re-runs only missing specs.
  - **Streaming**: segment tables are written from inside tasks; only
    O(#segments) manifest rows flow back to the driver.
  - The corpus 'content' column is read per-task with row-group + column
    pruning (never the whole table anywhere).
"""

from __future__ import annotations

import functools
import hashlib
import os
import time
from dataclasses import dataclass, fields

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from lucene_ray.analysis import get_analyzer
from lucene_ray.codec.postings_codec import build_segment_postings
from lucene_ray.config import KEYWORD_FIELDS, TARGET_DOCS_PER_SEGMENT
from lucene_ray.index import segfiles
from lucene_ray.index.manifest import (
    Manifest,
    SegmentEntry,
    next_manifest,
    read_entry,
    read_manifest,
    segment_dir,
    write_entry,
    write_manifest,
)
from lucene_ray.index.tasks import fan_out

STORED_COLUMNS = ["repo", "path", "commit", "lang"]

# SORTED_SET doc-value derivers: multi-valued fields computed from source
# columns at build time (the FacetField(dim, components...) document-side
# analog). A sorted_set_dv_fields name not present as a list<string> source
# column resolves here.
def _derive_labels(table):
    # per-doc label set {lang, repo} — two single-valued keywords exposed
    # through ONE SortedSetDocValues field (SortedSetDocValuesFacetField);
    # vectorized: interleave the two string columns into one list column
    import pyarrow.compute as pc

    n = table.num_rows
    lang = pc.fill_null(table.column("lang").combine_chunks().cast(pa.string()), "")
    repo = pc.fill_null(table.column("repo").combine_chunks().cast(pa.string()), "")
    flat = pa.concat_arrays([lang, repo]).take(
        np.arange(2 * n, dtype=np.int64).reshape(2, n).T.ravel()
    )
    offsets = pa.array(np.arange(0, 2 * n + 1, 2, dtype=np.int32))
    return pa.ListArray.from_arrays(offsets, flat)


SORTED_SET_DERIVERS = {"labels": _derive_labels}


# SORTED_NUMERIC doc-value derivers (index/DocValuesType.java:38
# SORTED_NUMERIC — multi-valued int64 per doc, stored ASCENDING as
# SortedNumericDocValuesField does). A sorted_numeric_dv_fields name not
# present as a list<int> source column resolves here.
def _derive_sig_nums(table):
    # three deterministic residues of the content length — SQL-derivable
    # (length(text) % {7,10,13}), the clean oracle for range queries and
    # min/max selector sorts over multi-valued numerics
    import pyarrow.compute as pc

    ln = pc.fill_null(
        pc.utf8_length(table.column("content").combine_chunks()), 0
    ).to_numpy(zero_copy_only=False).astype(np.int64)
    vals = np.stack([ln % 7, ln % 10, ln % 13], axis=1)
    vals.sort(axis=1)
    n = len(ln)
    offsets = pa.array(np.arange(0, 3 * n + 1, 3, dtype=np.int32))
    return pa.ListArray.from_arrays(
        offsets, pa.array(vals.ravel(), type=pa.int64())
    )


SORTED_NUMERIC_DERIVERS = {"sig_nums": _derive_sig_nums}


# BINARY doc-value derivers (DocValuesType.java:29 BINARY — opaque bytes
# per doc, BinaryDocValuesField).
def _derive_content_sha_bytes(table):
    content = table.column("content").combine_chunks()
    return pa.array(
        [
            hashlib.sha256(t.encode()).digest() if t is not None else b""
            for t in content.to_pylist()
        ],
        type=pa.binary(),
    )


def _derive_fsets(table):
    from lucene_ray.search.facetset import derive_fsets

    return derive_fsets(table)


BINARY_DV_DERIVERS = {
    "content_sha": _derive_content_sha_bytes,
    # packed facet-set tuples (facet/facetset FacetSetsField —
    # search/facetset.py)
    "fsets": _derive_fsets,
}


def _synth_span(table: pa.Table, global_docids: np.ndarray):
    # synthetic 1-D long range as a pure function of the global docid so
    # SQL oracles can mirror it (same stance as spatial's synth "loc")
    g = np.asarray(global_docids, dtype=np.int64)
    lo = (g * 13) % 997
    return lo, lo + (g % 53)


def _synth_bbox_lat(table: pa.Table, global_docids: np.ndarray):
    # LatLonBoundingBox lat axis in 1e-4-degree fixed point, derived in
    # PURE INTEGER arithmetic (synth_rect's lattice scaled by QUANT — no
    # float round-trip, so the SQL mirror is trivially exact;
    # sandbox/document/LatLonBoundingBox.java encodes each axis as a
    # 1-D range and the 2-D relations compose per axis)
    from lucene_ray.search.spatial import _LAT_MULT, LAT_SPAN, QUANT

    d = np.asarray(global_docids, np.int64)
    lo = (d * _LAT_MULT) % LAT_SPAN - 90 * QUANT
    h = (QUANT // 4) + (d % 4) * (QUANT // 4)  # 0.25 + (d%4)*0.25 degrees
    return lo, lo + h


def _synth_bbox_lon(table: pa.Table, global_docids: np.ndarray):
    from lucene_ray.search.spatial import _LON_MULT, LON_SPAN, QUANT

    d = np.asarray(global_docids, np.int64)
    lo = (d * _LON_MULT) % LON_SPAN - 180 * QUANT
    w = (QUANT // 4) + (d % 3) * (QUANT // 2)  # 0.25 + (d%3)*0.5 degrees
    return lo, lo + w


# LongRange-field derivers (document/LongRange.java:48): field name ->
# (table, global_docids) -> (lo, hi) int64 arrays. Real corpora register
# derivers reading table columns. The bbox_lat/bbox_lon pair backs the
# LatLonBoundingBox 2-D field (one 1-D range per axis).
RANGE_DERIVERS = {
    "span": _synth_span,
    "bbox_lat": _synth_bbox_lat,
    "bbox_lon": _synth_bbox_lon,
}


# NUMERIC doc-value/point derivers: a dv_fields name not present as a
# source column resolves here as fn(table, global_docids) -> int64 array.
# The ip_hi/ip_lo limb pair backs the 128-bit point family
# (InetAddressPoint / BigIntegerPoint — search/bigpoint.py).
def _numeric_dv_derivers():
    from lucene_ray.search.bigpoint import synth_ip_hi, synth_ip_lo
    from lucene_ray.search.floatpoint import (
        _synth_dscore,
        _synth_fscore,
        _synth_hfscore,
    )

    return {
        "ip_hi": synth_ip_hi,
        "ip_lo": synth_ip_lo,
        # DoublePoint / FloatPoint / HalfFloatPoint demo fields
        # (sortable-encoded floats — search/floatpoint.py)
        "dscore": _synth_dscore,
        "fscore": _synth_fscore,
        "hfscore": _synth_hfscore,
    }


NUMERIC_DV_DERIVED = ("ip_hi", "ip_lo", "dscore", "fscore", "hfscore")


def _payload_term_length(terms: pa.Array, positions: np.ndarray) -> np.ndarray:
    import pyarrow.compute as pc

    return (
        pc.utf8_length(terms).to_numpy(zero_copy_only=False).astype(np.uint32)
    )


# per-occurrence payload derivers (the DelimitedPayloadTokenFilter /
# PayloadAttribute role, applied vectorized at flush): token stream ->
# one uint32 per content occurrence. Keyword-field occurrences carry
# payload 0 (StringFields have no payloads).
def _payload_pos_mod16(terms: pa.Array, positions: np.ndarray) -> np.ndarray:
    # per-occurrence POSITION payload (pos % 16): varies across a term's
    # occurrences, so SpanPayloadCheckQuery's accept/reject is exercised
    # for real (term_length is constant per term); SQL mirror = (pos % 16)
    return (positions.astype(np.int64) % 16).astype(np.uint32)


PAYLOAD_DERIVERS = {
    # analyzed-term character length — SQL-derivable (length(term)), the
    # clean oracle for PayloadScoreQuery
    "term_length": _payload_term_length,
    "pos_mod16": _payload_pos_mod16,
}


def _derive_rev_terms(terms: pa.Array) -> pa.Array:
    # position-preserving reversed-token parallel field (the
    # ReverseStringFilter analog, analysis/reverse/ReverseStringFilter.java:
    # same positions, reversed text) — SQL-derivable via reverse(term)
    import pyarrow.compute as pc

    return pc.utf8_reverse(terms)


# analyzed-field DERIVERS: field name -> fn(content terms) -> parallel term
# array of the SAME length. A derived analyzed field shares the content
# stream's (doc, position, offset) layout exactly — the position-aligned
# parallel field FieldMaskingSpanQuery joins across
# (queries/spans/FieldMaskingSpanQuery.java:36 "parallel fields" contract).
# An analyzed_fields name NOT in this registry is read as a string source
# column and tokenized independently (its own position space).
ANALYZED_FIELD_DERIVERS = {"rev": _derive_rev_terms}


# (BuildOptions field, variant tag) in variant order. A set option appends
# ":<tag>" (a flag) or ":<tag>=<values>"; declaring a build option means
# one BuildOptions field plus one row here.
_VARIANT_TAGS = (
    ("index_sort", "sort"),
    ("point2d_fields", "geo"),
    ("term_vectors", "tv"),
    ("dv_fields", "dv"),
    ("sorted_dv_fields", "sdv"),
    ("sorted_set_dv_fields", "ssdv"),
    ("payload_fn", "pay"),
    ("range_fields", "rng"),
    ("analyzed_fields", "af"),
    ("sorted_numeric_dv_fields", "sndv"),
    ("binary_dv_fields", "bdv"),
    ("shape_fields", "shape"),
)


@dataclass(frozen=True)
class BuildOptions:
    """The index-time schema, declared once per index (the FieldInfos
    analog, index/FieldInfos.java): every segment of a build, every added
    segment and every upgrade rebuild uses the same value. Options are
    normalised and validated here, in the calling process, before any Ray
    task runs.

    ``index_options``: "positions" (default, DOCS_AND_FREQS_AND_POSITIONS),
    "freqs" (DOCS_AND_FREQS — smaller index, phrase queries raise) or
    "offsets" (DOCS_AND_FREQS_AND_POSITIONS_AND_OFFSETS — per-occurrence
    byte offsets for the postings-based highlighter;
    index/IndexOptions.java:27-48 verbosity levels).

    ``point2d_fields``: 2-D geo point fields (LatLonPoint.java analog)
    resolved through search.spatial.POINT2D_DERIVERS; each writes a
    Morton-sorted ``spatial.parquet`` sidecar with BKD-leaf-sized row
    groups (search/spatial.py layout).

    ``index_sort`` = (numeric_dv_field, "asc"|"desc"): permute the
    segment's rows by the field BEFORE docid assignment
    (IndexWriterConfig.setIndexSort + index/IndexSorter.java sort-at-flush)
    — within the segment, docid order IS sort order, enabling the
    early-terminating sorted collector (engine.search_sorted). Divergence
    from the reference, documented: MERGES concatenate sorted runs instead
    of re-sorting (Lucene renumbers docids at merge; ours are stable
    engine output), so a merged segment carries multiple sorted_runs.

    Schema-driven doc values (index/DocValuesType.java:23-51):
    ``dv_fields`` — extra NUMERIC source columns (cast to int64, null→0)
    stored beside the derived ``n_chars``, each also getting a 1-D points
    view for range filters; ``sorted_dv_fields`` — SORTED (single-valued
    keyword) source columns; ``sorted_set_dv_fields`` — SORTED_SET
    multi-valued fields resolved through SORTED_SET_DERIVERS (or a
    list<string> source column). SORTED(_SET) live in a doc-ordered
    ``docvalues_sorted.parquet`` sidecar; per-segment term-sorted ordinals
    are derived at read time (search/reader.py sorted_doc_values).

    Keyword fields are not an option: they are config.KEYWORD_FIELDS."""

    analyzer_name: str = "code"
    index_options: str = "positions"
    index_sort: tuple | None = None
    point2d_fields: tuple = ()
    term_vectors: bool = False
    dv_fields: tuple = ()
    sorted_dv_fields: tuple = ()
    sorted_set_dv_fields: tuple = ()
    payload_fn: str | None = None
    range_fields: tuple = ()
    analyzed_fields: tuple = ()
    sorted_numeric_dv_fields: tuple = ()
    binary_dv_fields: tuple = ()
    shape_fields: tuple = ()

    def __post_init__(self):
        for f in fields(self):
            if f.default == ():
                v = tuple(map(str, getattr(self, f.name) or ()))
                object.__setattr__(self, f.name, v)
        object.__setattr__(self, "term_vectors", bool(self.term_vectors))
        object.__setattr__(self, "payload_fn", self.payload_fn or None)
        if self.index_sort is not None:
            fld, direction = map(str, self.index_sort)
            object.__setattr__(self, "index_sort", (fld, direction))
            if fld not in ("n_chars", *self.dv_fields) or direction not in (
                "asc", "desc"
            ):
                raise ValueError(f"unsupported index_sort: {self.index_sort}")
        if self.index_options not in ("positions", "freqs", "offsets"):
            raise ValueError(f"unsupported index_options: {self.index_options}")
        if self.payload_fn not in (None, *PAYLOAD_DERIVERS):
            raise ValueError(f"unknown payload_fn: {self.payload_fn!r}")
        for f in self.analyzed_fields:
            if ":" in f:
                raise ValueError(
                    f"analyzed field name may not contain ':': {f!r}"
                )
        analyzer = get_analyzer(self.analyzer_name)
        if not getattr(analyzer, "supports_indexing", True):
            raise ValueError(
                f"analyzer {self.analyzer_name!r} is a query/analysis-surface "
                "analyzer (tokens may contain ':', which the "
                "shared term dict reserves for keyword fields) — index with "
                "'code' or 'english'"
            )

    @property
    def variant(self) -> str:
        """Part of every segment fingerprint, so a resume with different
        options never reuses a stale segment ("" = the default build)."""
        parts = [f"{self.analyzer_name}:{self.index_options}"]
        for name, tag in _VARIANT_TAGS:
            v = getattr(self, name)
            if v is True:
                parts.append(tag)
            elif isinstance(v, str):
                parts.append(f"{tag}={v}")
            elif v:
                # index_sort is a (field, direction) pair, not a field list
                sep = ":" if name == "index_sort" else ","
                parts.append(f"{tag}={sep.join(v)}")
        return "" if parts == ["code:positions"] else ":".join(parts)

    def to_entry(self) -> dict:
        """The ``input["options"]`` record of a segment entry: lists for
        field tuples, None when unset."""
        out = {
            "analyzer": self.analyzer_name,
            "index_options": self.index_options,
            "keyword_fields": list(KEYWORD_FIELDS),
        }
        for f in fields(self)[2:]:
            v = getattr(self, f.name)
            out[f.name] = (list(v) or None) if isinstance(v, tuple) else v
        out["variant"] = self.variant
        return out

    @classmethod
    def from_entry(cls, opts: dict | None) -> BuildOptions:
        """Inverse of ``to_entry``; a legacy entry without options is the
        default build."""
        if not opts:
            return cls()
        return cls(
            analyzer_name=opts.get("analyzer") or "code",
            **{
                f.name: opts[f.name]
                for f in fields(cls)[1:]
                if opts.get(f.name) is not None
            },
        )


@dataclass
class SegmentSpec:
    seg_idx: int
    file: str
    rg_start: int  # first row group (inclusive)
    rg_end: int    # last row group (exclusive)
    n_docs: int
    docid_base: int
    variant: str = ""  # BuildOptions.variant

    @property
    def fingerprint(self) -> str:
        from lucene_ray.codec.postings_codec import FORMAT_VERSION

        base = os.path.basename(self.file)
        v = f":{self.variant}" if self.variant else ""
        return hashlib.sha1(
            f"v{FORMAT_VERSION}:{base}:{self.rg_start}:{self.rg_end}:{self.n_docs}{v}".encode()
        ).hexdigest()[:12]

    @property
    def name(self) -> str:
        return f"seg_{self.seg_idx:06d}_{self.fingerprint}"


def plan_segments(
    input_paths: list[str],
    target_docs: int = TARGET_DOCS_PER_SEGMENT,
    variant: str = "",
    target_bytes: int | None = None,
) -> list[SegmentSpec]:
    """Split inputs into docid-contiguous segment specs at row-group
    granularity, from Parquet footers only (no data read). A spec closes
    at EITHER bound: ``target_docs`` rows or ``target_bytes`` of
    compressed input (config.SEGMENT_TARGET_INPUT_BYTES — the
    IndexWriter RAM-buffer flush analog), so per-task memory stays
    bounded for any document size. Both bounds derive from footers only,
    keeping the plan — and therefore every docid — independent of
    parallelism."""
    from lucene_ray.config import SEGMENT_TARGET_INPUT_BYTES

    if target_bytes is None:
        target_bytes = SEGMENT_TARGET_INPUT_BYTES
    specs: list[SegmentSpec] = []
    base = 0
    seg_idx = 0
    for path in sorted(input_paths):
        meta = pq.read_metadata(path)
        rg_rows = [meta.row_group(i).num_rows for i in range(meta.num_row_groups)]
        rg_bytes = [
            meta.row_group(i).total_byte_size
            for i in range(meta.num_row_groups)
        ]
        start = 0
        while start < len(rg_rows):
            end, acc, accb = start, 0, 0
            while end < len(rg_rows) and (
                acc == 0
                or (
                    acc + rg_rows[end] <= target_docs
                    and accb + rg_bytes[end] <= target_bytes
                )
            ):
                acc += rg_rows[end]
                accb += rg_bytes[end]
                end += 1
            specs.append(SegmentSpec(seg_idx, path, start, end, acc, base, variant))
            base += acc
            seg_idx += 1
            start = end
    return specs


def _sha256_column(texts: pa.Array) -> pa.Array:
    """Per-row sha256(content) hex — the content-integrity invariant vs the
    source Parquet (the CRC32-footer analog, codecs/CodecUtil.java).

    NOTE: this to_pylist + hashlib loop is the build's ONLY per-row Python
    (no vectorized sha256 exists in pyarrow/numpy); it is ~3% of segment
    build time and runs inside the distributed build task, not the driver."""
    return pa.array(
        [hashlib.sha256(t.encode()).hexdigest() if t is not None else None
         for t in texts.to_pylist()],
        type=pa.string(),
    )


def build_term_vectors(
    row_idx: np.ndarray,
    terms: pa.Array,
    positions: np.ndarray,
    tok_starts: np.ndarray | None = None,
    tok_lens: np.ndarray | None = None,
) -> pa.Table:
    """Per-document mini inverted index — the TermVectorsFormat analog
    (codecs/lucene90/Lucene90CompressingTermVectorsWriter.java stores, per
    doc+field, the term list with freq/positions/offsets). One row per
    (doc, term): LOCAL docid, term, freq, doc-local position list (+
    per-occurrence start/length lists when the index carries offsets),
    sorted doc-major then term-lexicographic. Content field only
    (keyword/StringFields carry no term vectors, as in the reference
    default)."""
    empty_cols: dict = {
        "doc": pa.array([], type=pa.int64()),
        "term": pa.array([], type=pa.string()),
        "freq": pa.array([], type=pa.int32()),
        "positions": pa.array([], type=pa.list_(pa.int32())),
    }
    if tok_starts is not None:
        empty_cols["starts"] = pa.array([], type=pa.list_(pa.int32()))
        empty_cols["lens"] = pa.array([], type=pa.list_(pa.int32()))
    if len(row_idx) == 0:
        return pa.table(empty_cols)
    if isinstance(terms, pa.ChunkedArray):
        terms = terms.combine_chunks()
    d = (
        terms
        if isinstance(terms, pa.DictionaryArray)
        else terms.dictionary_encode()
    )
    codes = d.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    vocab = d.dictionary
    # lexicographic rank per code so within-doc rows come out term-sorted
    vorder = pa.compute.sort_indices(vocab).to_numpy(zero_copy_only=False)
    rank = np.empty(len(vocab), dtype=np.int64)
    rank[vorder] = np.arange(len(vocab))
    r = rank[codes]
    order = np.lexsort((positions, r, row_idx))
    comp = row_idx.astype(np.int64) * len(vocab) + r
    comp_sorted = comp[order]
    bound = np.flatnonzero(np.r_[True, comp_sorted[1:] != comp_sorted[:-1]])
    counts = np.diff(np.r_[bound, len(comp_sorted)])
    group_doc = row_idx[order][bound].astype(np.int64)
    group_code = codes[order][bound]
    offs = pa.array(np.r_[0, np.cumsum(counts)].astype(np.int32))

    def _gather_list(vals: np.ndarray) -> pa.ListArray:
        return pa.ListArray.from_arrays(
            offs, pa.array(vals[order].astype(np.int32), type=pa.int32())
        )

    cols = {
        "doc": pa.array(group_doc, type=pa.int64()),
        "term": vocab.take(pa.array(group_code)),
        "freq": pa.array(counts.astype(np.int32), type=pa.int32()),
        "positions": _gather_list(positions),
    }
    if tok_starts is not None:
        cols["starts"] = _gather_list(tok_starts)
        cols["lens"] = _gather_list(tok_lens)
    return pa.table(cols)


def numeric_dv(table: pa.Table, fld: str, docid_base: int) -> pa.Array:
    """The int64 NUMERIC doc value ``fld`` of every row of a segment's
    ``table`` (its first row is global docid ``docid_base``): ``n_chars``
    (content length), a derived field, or the source column; null -> 0."""
    import pyarrow.compute as pc

    if fld == "n_chars":
        return pc.fill_null(
            pc.utf8_length(table.column("content").combine_chunks()).cast(
                pa.int64()
            ),
            0,
        )
    if fld in NUMERIC_DV_DERIVED:
        gdoc = docid_base + np.arange(table.num_rows, dtype=np.int64)
        return pa.array(
            _numeric_dv_derivers()[fld](table, gdoc), type=pa.int64()
        )
    return pc.fill_null(
        table.column(fld).combine_chunks().cast(pa.int64()), 0
    )


def index_sort_permutation(table: pa.Table, index_sort: tuple, docid_base: int) -> np.ndarray:
    """The row order of a segment built with ``index_sort`` = (field,
    "asc"|"desc"), over its source rows in corpus order: stable by source
    row, so within equal keys docids keep corpus order (and global
    docid-asc tie-breaks equal doc_id-asc in the oracle)."""
    fld, direction = index_sort
    key = numeric_dv(table, fld, docid_base).to_numpy(zero_copy_only=False)
    if direction == "desc":
        key = -key
    return np.lexsort((np.arange(len(key)), key))


def build_one_segment(
    spec: SegmentSpec, index_dir: str, options: BuildOptions = BuildOptions()
) -> SegmentEntry:
    """Build one segment from its input row groups under ``options`` (see
    BuildOptions for what each option writes). Pure + idempotent (writes
    only under its own segment dir; atomic entry.json last)."""
    existing = read_entry(index_dir, spec.name)
    if existing is not None and existing.input.get("fingerprint") == spec.fingerprint:
        return existing

    t0 = time.perf_counter()
    c0 = time.process_time()
    pf = pq.ParquetFile(spec.file)
    extra_cols = [
        f
        for f in options.dv_fields + options.sorted_dv_fields
        if f not in STORED_COLUMNS and f != "content"
        and f not in NUMERIC_DV_DERIVED
    ]
    avail = set(pf.schema_arrow.names)
    extra_cols += [
        f for f in options.sorted_set_dv_fields
        if f in avail and f not in STORED_COLUMNS and f not in extra_cols
    ]
    # user-supplied SORTED_NUMERIC / BINARY source columns must survive the
    # pruned read, else the deriver silently replaces them (ADVICE r4 —
    # empty per-doc lists are only representable via the verbatim path)
    extra_cols += [
        f for f in options.sorted_numeric_dv_fields + options.binary_dv_fields
        if f in avail and f not in STORED_COLUMNS and f not in extra_cols
    ]
    extra_cols += [
        f for f in options.analyzed_fields
        if f not in ANALYZED_FIELD_DERIVERS
        and f not in STORED_COLUMNS and f != "content" and f not in extra_cols
    ]
    table = pf.read_row_groups(
        list(range(spec.rg_start, spec.rg_end)),
        columns=STORED_COLUMNS + ["content"] + extra_cols,
    )
    n = table.num_rows
    assert n == spec.n_docs, f"footer said {spec.n_docs} rows, read {n}"

    import pyarrow.compute as pc

    numeric_dv_schema = ("n_chars",) + options.dv_fields

    sorted_runs = None
    if options.index_sort is not None:
        table = table.take(index_sort_permutation(table, options.index_sort, spec.docid_base))
        sorted_runs = [[0, n]]

    content = table.column("content").combine_chunks()

    analyzer = get_analyzer(options.analyzer_name)
    with_off = options.index_options == "offsets"
    tok_starts = tok_lens = None
    if with_off:
        row_idx, terms, positions, tok_starts, tok_lens = analyzer.tokenize_flat(
            content, with_offsets=True
        )
    else:
        row_idx, terms, positions = analyzer.tokenize_flat(content)

    from lucene_ray.util.smallfloat import int_to_byte4

    # norms/doc_len are CONTENT-ONLY (per-field norms: keyword fields are
    # StringFields, which carry no norms — document/StringField.java)
    doc_len = np.bincount(row_idx, minlength=n).astype(np.int64)
    overlaps = 0
    if getattr(analyzer, "has_overlaps", False) and len(row_idx):
        # discountOverlaps (BM25Similarity.java:99-101, default true):
        # tokens injected at an existing position (posInc==0 synonyms) do
        # NOT count toward the length norm — length = distinct positions
        # per doc. sum_ttf (the avgdl numerator) still counts EVERY token,
        # exactly like Lucene's sumTotalTermFreq.
        key = row_idx.astype(np.int64) * (int(positions.max()) + 1) + positions
        _, uniq_idx = np.unique(key, return_index=True)
        discounted = np.bincount(row_idx[uniq_idx], minlength=n).astype(np.int64)
        overlaps = int(doc_len.sum() - discounted.sum())
        doc_len = discounted
    norm_bytes = int_to_byte4(doc_len)

    # term vectors come from the CONTENT stream only, captured before the
    # keyword-term append below (StringFields carry no term vectors)
    tv_table = (
        build_term_vectors(row_idx, terms, positions, tok_starts, tok_lens)
        if options.term_vectors
        else None
    )

    # analyzed-field streams captured from the PRE-append content stream
    # (derived parallel fields share its exact (doc, position, offset)
    # layout; source-column fields tokenize independently). Terms get the
    # "<field>:" prefix — same shared-term-dict namespace as keyword
    # fields, but with REAL positions (an analyzed TextField per field,
    # document/TextField.java), so span/phrase queries work per field.
    # Norms/sum_ttf stay CONTENT-only, like keyword fields (':'-terms are
    # skipped by CheckIndex/merge ttf sums).
    af_streams = []
    af_norm_cols: dict = {}
    for fld in options.analyzed_fields:
        if fld in ANALYZED_FIELD_DERIVERS:
            af_streams.append(
                (fld, row_idx, ANALYZED_FIELD_DERIVERS[fld](terms),
                 positions, tok_starts, tok_lens)
            )
        else:
            col = pc.fill_null(table.column(fld).combine_chunks().cast(pa.string()), "")
            if with_off:
                a_row, a_terms, a_pos, a_st, a_ln = analyzer.tokenize_flat(
                    col, with_offsets=True
                )
            else:
                a_row, a_terms, a_pos = analyzer.tokenize_flat(col)
                a_st = a_ln = None
            af_streams.append((fld, a_row, a_terms, a_pos, a_st, a_ln))

    # per-field norms for analyzed parallel fields (CombinedFieldQuery /
    # MultiNormsLeafSimScorer.java need a stored length norm per field;
    # same discountOverlaps rule as the content norm above). Written as
    # norm_<field>/doc_len_<field> columns beside the content norm.
    for fld, a_row, _t, a_pos, _s, _l in af_streams:
        a_row = np.asarray(a_row, dtype=np.int64)
        af_len = np.bincount(a_row, minlength=n).astype(np.int64)
        if getattr(analyzer, "has_overlaps", False) and len(a_row):
            a_pos_arr = np.asarray(a_pos, dtype=np.int64)
            key = a_row * (int(a_pos_arr.max()) + 1) + a_pos_arr
            _, uniq_idx = np.unique(key, return_index=True)
            af_len = np.bincount(a_row[uniq_idx], minlength=n).astype(np.int64)
        af_norm_cols[f"norm_{fld}"] = pa.array(int_to_byte4(af_len), type=pa.uint8())
        af_norm_cols[f"doc_len_{fld}"] = pa.array(af_len, type=pa.int64())

    # per-occurrence payloads computed over the CONTENT stream before the
    # keyword append (StringFields carry payload 0, mirroring the offsets
    # zero-fill below)
    payloads = (
        PAYLOAD_DERIVERS[options.payload_fn](terms, positions)
        if options.payload_fn is not None
        else None
    )
    # keyword-field postings: one "<field>:<value>" token per doc per field,
    # appended after the content stream. Prefixed terms never collide with
    # analyzed tokens (':' is outside the token alphabet), so the per-term
    # (doc, position) ordering invariant of build_segment_postings holds.
    kw_row, kw_terms = [], []
    for f in KEYWORD_FIELDS:
        vals = (
            pc.fill_null(table.column(f).cast(pa.string()), "")
            .to_numpy(zero_copy_only=False)
        )
        kw_terms.append(np.char.add(f + ":", vals.astype(str)))
        kw_row.append(np.arange(n, dtype=row_idx.dtype))
    if kw_terms:
        row_idx = np.concatenate([row_idx] + kw_row)
        terms = pa.concat_arrays(
            [terms] + [pa.array(t, type=pa.string()) for t in kw_terms]
        )
        positions = np.concatenate(
            [positions, np.zeros(n * len(KEYWORD_FIELDS), dtype=positions.dtype)]
        )
        if with_off:
            # StringFields carry no real offsets (document/StringField.java
            # has no OffsetAttribute): zero-filled entries keep the
            # occurrence streams aligned with positions
            zeros = np.zeros(n * len(KEYWORD_FIELDS), dtype=tok_starts.dtype)
            tok_starts = np.concatenate([tok_starts, zeros])
            tok_lens = np.concatenate([tok_lens, zeros])
        if payloads is not None:
            payloads = np.concatenate(
                [payloads, np.zeros(n * len(KEYWORD_FIELDS), dtype=np.uint32)]
            )

    for fld, a_row, a_terms, a_pos, a_st, a_ln in af_streams:
        # within each prefixed term, occurrences stay (doc asc, pos asc):
        # every stream is doc-major/position-minor and prefixed terms
        # come only from their own stream
        m = len(a_terms)
        prefixed = pc.binary_join_element_wise(
            pa.scalar(fld + ":"), a_terms, pa.scalar("")
        )
        row_idx = np.concatenate([row_idx, np.asarray(a_row, dtype=row_idx.dtype)])
        terms = pa.concat_arrays([terms.combine_chunks() if isinstance(terms, pa.ChunkedArray) else terms, prefixed])
        positions = np.concatenate(
            [positions, np.asarray(a_pos, dtype=positions.dtype)]
        )
        if with_off:
            tok_starts = np.concatenate(
                [tok_starts,
                 np.asarray(a_st, dtype=tok_starts.dtype)
                 if a_st is not None else np.zeros(m, dtype=tok_starts.dtype)]
            )
            tok_lens = np.concatenate(
                [tok_lens,
                 np.asarray(a_ln, dtype=tok_lens.dtype)
                 if a_ln is not None else np.zeros(m, dtype=tok_lens.dtype)]
            )
        if payloads is not None:
            # ':'-term occurrences carry payload 0 (keyword convention)
            payloads = np.concatenate([payloads, np.zeros(m, dtype=np.uint32)])

    postings, stats = build_segment_postings(
        row_idx, terms, positions, n, norm_bytes,
        with_positions=(options.index_options in ("positions", "offsets")),
        tok_starts=tok_starts, tok_lens=tok_lens, payloads=payloads,
    )
    # manifest sum_ttf stays content-only (it feeds avgdl in BM25 stats)
    # and counts EVERY content token incl. posInc==0 overlaps — Lucene's
    # sumTotalTermFreq semantics (norms above may be overlap-discounted)
    stats["sum_ttf"] = int(doc_len.sum()) + overlaps

    d = segment_dir(index_dir, spec.name)
    os.makedirs(d, exist_ok=True)
    segfiles.POSTINGS.write(d, postings)
    if tv_table is not None:
        segfiles.TERMVECTORS.write(d, tv_table)
    norms_table = pa.table(
        {
            "norm": pa.array(norm_bytes, type=pa.uint8()),
            "doc_len": pa.array(doc_len, type=pa.int64()),
            **af_norm_cols,
        }
    )
    segfiles.NORMS.write(d, norms_table)

    # numeric doc values + 1-D points (value-sorted view for range filters);
    # null content counts as 0 chars (missing-value doc-values convention)
    dv_cols = {f: numeric_dv(table, f, spec.docid_base) for f in numeric_dv_schema}
    segfiles.DOCVALUES.write(d, pa.table({f: dv_cols[f] for f in numeric_dv_schema}))
    # SORTED / SORTED_SET sidecar: doc-ordered values; parquet dictionary-
    # encodes the strings, the reader derives term-sorted ordinals
    if options.sorted_dv_fields or options.sorted_set_dv_fields:
        sdv_cols: dict[str, pa.Array] = {}
        for f in options.sorted_dv_fields:
            sdv_cols[f] = pc.fill_null(
                table.column(f).combine_chunks().cast(pa.string()), ""
            )
        for f in options.sorted_set_dv_fields:
            if f in table.schema.names:
                col = table.column(f).combine_chunks()
            else:
                col = SORTED_SET_DERIVERS[f](table)
            sdv_cols[f] = col.cast(pa.list_(pa.string()))
        segfiles.DOCVALUES_SORTED.write(d, pa.table(sdv_cols))
    # SORTED_NUMERIC sidecar: doc-ordered list<int64>, values ASC per doc
    if options.sorted_numeric_dv_fields:
        snd_cols: dict[str, pa.Array] = {}
        for f in options.sorted_numeric_dv_fields:
            if f in table.schema.names:
                col = table.column(f).combine_chunks().cast(pa.list_(pa.int64()))
            else:
                col = SORTED_NUMERIC_DERIVERS[f](table)
            snd_cols[f] = col
        segfiles.DOCVALUES_SORTEDNUMERIC.write(d, pa.table(snd_cols))
    # indexed-shape sidecar: one row per tessellated triangle
    # (document/LatLonShape.java + geo/Tessellator.java; see
    # search/spatial.py shape section). LOCAL docids, doc-major order.
    if options.shape_fields:
        from lucene_ray.search.spatial import SHAPE_DERIVERS

        shape_parts = []
        gdoc = np.arange(n, dtype=np.int64) + spec.docid_base
        for f in options.shape_fields:
            dd, axx, ayy, bxx, byy, cxx, cyy, fab, fbc, fca = (
                SHAPE_DERIVERS[f](gdoc)
            )
            local = np.asarray(dd, dtype=np.int64) - spec.docid_base
            o = np.argsort(local, kind="stable")
            shape_parts.append(
                pa.table(
                    {
                        "field": pa.array([f] * len(local), type=pa.string()),
                        "docid": pa.array(local[o], type=pa.int64()),
                        "ax": pa.array(np.asarray(axx)[o], type=pa.float64()),
                        "ay": pa.array(np.asarray(ayy)[o], type=pa.float64()),
                        "bx": pa.array(np.asarray(bxx)[o], type=pa.float64()),
                        "by": pa.array(np.asarray(byy)[o], type=pa.float64()),
                        "cx": pa.array(np.asarray(cxx)[o], type=pa.float64()),
                        "cy": pa.array(np.asarray(cyy)[o], type=pa.float64()),
                        # edge-origin bits (ShapeField.encodeTriangle ab/bc/ca):
                        # True = original shape boundary, False = diagonal
                        "fab": pa.array(np.asarray(fab)[o], type=pa.bool_()),
                        "fbc": pa.array(np.asarray(fbc)[o], type=pa.bool_()),
                        "fca": pa.array(np.asarray(fca)[o], type=pa.bool_()),
                    }
                )
            )
        segfiles.SHAPES.write(d, pa.concat_tables(shape_parts))
    # BINARY sidecar: doc-ordered opaque bytes
    if options.binary_dv_fields:
        bdv_cols: dict[str, pa.Array] = {}
        for f in options.binary_dv_fields:
            if f in table.schema.names:
                bdv_cols[f] = table.column(f).combine_chunks().cast(pa.binary())
            else:
                bdv_cols[f] = BINARY_DV_DERIVERS[f](table)
        segfiles.DOCVALUES_BINARY.write(d, pa.table(bdv_cols))
    pt_parts = []
    for f in numeric_dv_schema:
        v = dv_cols[f].to_numpy(zero_copy_only=False)
        o = np.lexsort((np.arange(n), v))
        pt_parts.append(
            pa.table(
                {
                    "field": pa.array([f] * n, type=pa.string()),
                    "value": pa.array(v[o], type=pa.int64()),
                    "docid": pa.array(o.astype(np.int64), type=pa.int64()),
                }
            )
        )
    segfiles.POINTS.write(d, pa.concat_tables(pt_parts))
    if options.point2d_fields:
        from lucene_ray.search.spatial import POINT2D_DERIVERS, build_spatial_table

        gdoc = spec.docid_base + np.arange(n, dtype=np.int64)
        local = np.arange(n, dtype=np.int64)
        sp_fields = {}
        for f in options.point2d_fields:
            lat, lon = POINT2D_DERIVERS[f](table, gdoc)
            sp_fields[f] = (lat, lon, local)
        segfiles.SPATIAL.write(d, build_spatial_table(sp_fields))
    if options.range_fields:
        # LongRange sidecar (document/LongRange.java:48; BKD with 2 values
        # per dim becomes a (lo, hi) pair table sorted by (field, lo) —
        # relation filters are vectorized masks, searchsorted prunes on lo)
        gdoc = spec.docid_base + np.arange(n, dtype=np.int64)
        rg_parts = []
        for f in options.range_fields:
            lo, hi = RANGE_DERIVERS[f](table, gdoc)
            lo = np.asarray(lo, dtype=np.int64)
            hi = np.asarray(hi, dtype=np.int64)
            if (hi < lo).any():
                raise ValueError(f"range field {f!r}: hi < lo")
            o = np.lexsort((np.arange(n), lo))
            rg_parts.append(
                pa.table(
                    {
                        "field": pa.array([f] * n, type=pa.string()),
                        "lo": pa.array(lo[o], type=pa.int64()),
                        "hi": pa.array(hi[o], type=pa.int64()),
                        "docid": pa.array(o.astype(np.int64), type=pa.int64()),
                    }
                )
            )
        segfiles.RANGES.write(d, pa.concat_tables(rg_parts))
    stored = table.select(STORED_COLUMNS).append_column(
        "content_sha256", _sha256_column(content)
    )
    segfiles.STORED.write(d, stored)

    secs = time.perf_counter() - t0
    postings_pairs = int(pa.compute.sum(postings.column("df")).as_py() or 0)
    entry = SegmentEntry(
        name=spec.name,
        docid_base=spec.docid_base,
        doc_count=n,
        sum_ttf=stats["sum_ttf"],
        unique_terms=stats["unique_terms"],
        bytes=segfiles.segment_bytes(d),
        input={
            "file": spec.file,
            "rg_start": spec.rg_start,
            "rg_end": spec.rg_end,
            "fingerprint": spec.fingerprint,
            # full build options, recorded so upgrade_index can rebuild
            # THIS variant (not a default-variant guess) — ADVICE r3
            "options": options.to_entry(),
        },
        metrics={
            "build_secs": round(secs, 4),
            # posInc==0 tokens excluded from norms (discountOverlaps);
            # sum_ttf = doc_len.sum() + overlaps (CheckIndex invariant)
            "overlaps": overlaps,
            # wall / cpu "dilation" labels host starvation per task: ~1 when
            # the task owned its core, >>1 when the VM withheld cpu mid-task
            # (BASELINE.md round-3 protocol — endpoint probes miss this)
            "build_cpu_secs": round(time.process_time() - c0, 4),
            "docs_per_sec": round(n / secs, 1),
            "postings": postings_pairs,
            "postings_per_sec": round(postings_pairs / secs, 1),
            "tokens": int(stats["sum_ttf"]),
        },
        sorted_runs=sorted_runs,
    )
    write_entry(index_dir, entry)
    return entry


def build_index(
    input_paths: list[str],
    index_dir: str,
    target_docs: int = TARGET_DOCS_PER_SEGMENT,
    concurrency: int | None = None,
    **options,
) -> Manifest:
    """Build (or resume) the whole index with Ray tasks.

    Each segment spec still to build is one task of ``tasks.fan_out``
    (tasks, not actors — tokenization is pure; SURVEY.md §7.2);
    ``concurrency`` caps the concurrent tasks. Ray must already be
    initialised by the caller.

    ``options`` are the BuildOptions fields (analyzer_name, index_options,
    doc-value/point/shape/analyzed fields, ...); a build option is declared
    once, as a BuildOptions field plus one variant tag, and validated
    before any Ray task starts. An unknown keyword raises TypeError.
    """
    options = BuildOptions(**options)
    specs = plan_segments(input_paths, target_docs, options.variant)
    todo = []
    done: list[SegmentEntry] = []
    for s in specs:
        e = read_entry(index_dir, s.name)
        if e is not None and e.input.get("fingerprint") == s.fingerprint:
            done.append(e)
        else:
            todo.append(s)

    # one task per spec, even for one spec (tasks.fan_out)
    done += fan_out(
        functools.partial(build_one_segment, index_dir=index_dir, options=options),
        todo,
        concurrency,
    )
    # a (re)build resets the commit user data, as Lucene's CREATE mode does
    sort = list(options.index_sort) if options.index_sort else None
    write_manifest(index_dir, m := next_manifest(
        read_manifest(index_dir), done, analyzer=options.analyzer_name,
        index_sort=sort, user_data=None,
    ))
    return m


def upgrade_index(index_dir: str) -> dict:
    """IndexUpgrader (index/IndexUpgrader.java:54): rewrite every live
    segment whose fingerprint does not match the CURRENT format version,
    by re-running its recorded build spec (entry.input keeps the source
    file + row-group range; docid_base is preserved, so global ids never
    change). Every generation file of the segment-file table (hard and
    soft delete masks, DV updates) carries over to the rebuilt segment
    verbatim — tombstones, soft deletes and updated doc values survive
    the upgrade.

    Variant fidelity: segments record their FULL build options in
    entry.input["options"] (BuildOptions.to_entry — a build option is
    declared once, as a BuildOptions field plus one variant tag) and are
    rebuilt with exactly those options (BuildOptions.from_entry) —
    sidecars, offsets and sort permutations survive the upgrade.
    Legacy entries without recorded options are rebuilt only when the
    default code:positions variant is provably what they hold; any
    non-default evidence (manifest.index_sort, non-code analyzer, a
    spatial/termvectors sidecar, an offsets stream) makes them ``skipped``
    rather than silently degraded (ADVICE r3 high).

    Merged segments are reported as ``skipped`` (their inputs are gone —
    re-merge them with force_merge after upgrading the rest, or rebuild
    from source). Returns {upgraded, current, skipped}."""
    import re as _re
    import shutil as _shutil

    manifest = read_manifest(index_dir)
    analyzer_name = manifest.analyzer or "code"
    upgraded, current, skipped = [], [], []
    new_segments = list(manifest.segments)
    for i, e in enumerate(manifest.segments):
        if e.deleted:
            continue
        inp = e.input or {}
        if "file" not in inp:
            skipped.append(e.name)  # merged segment: inputs are gone
            continue
        if inp.get("options") is None:
            # legacy entry (pre-options format): rebuild ONLY when it is
            # provably a default code:positions build — its recorded
            # fingerprint must equal the empty-variant formula under SOME
            # historical format version (the variant is baked into the
            # fingerprint, so a keyword/offsets/sort/geo/tv build can
            # never match). Anything else is skipped, never degraded.
            from lucene_ray.codec.postings_codec import FORMAT_VERSION as _FV

            base = os.path.basename(inp["file"])
            legacy_fps = {
                hashlib.sha1(
                    f"v{v}:{base}:{inp['rg_start']}:{inp['rg_end']}:{e.doc_count}".encode()
                ).hexdigest()[:12]
                for v in range(1, _FV + 1)
            }
            if (
                inp.get("fingerprint") not in legacy_fps
                or manifest.index_sort
                or analyzer_name != "code"
            ):
                skipped.append(e.name)
                continue
        options = BuildOptions.from_entry(inp.get("options"))
        m = _re.match(r"seg_(\d+)_", e.name)
        seg_idx = int(m.group(1)) if m else i
        spec = SegmentSpec(
            seg_idx=seg_idx,
            file=inp["file"],
            rg_start=int(inp["rg_start"]),
            rg_end=int(inp["rg_end"]),
            n_docs=e.doc_count,
            docid_base=e.docid_base,
            variant=options.variant,
        )
        if inp.get("fingerprint") == spec.fingerprint:
            current.append(e.name)
            continue
        new_entry = build_one_segment(spec, index_dir, options)
        old_d = segment_dir(index_dir, e.name)
        new_d = segment_dir(index_dir, new_entry.name)
        # carry every generation file (hard/soft delete masks, DV updates)
        # verbatim: file contents are docid-addressed, and docids did not
        # change. When only the RECORDED fingerprint was stale (same inputs,
        # same format) the rebuilt name collides with the old one and the
        # files are already in place.
        for f in segfiles.GEN_FILES:
            g = f.gen(e)
            if g:
                if old_d != new_d:
                    _shutil.copy2(f.path(old_d, g), f.path(new_d, g))
                setattr(new_entry, f.gen_attr, g)
                if f.count_attr:
                    setattr(new_entry, f.count_attr, getattr(e, f.count_attr))
        write_entry(index_dir, new_entry)
        new_segments[i] = new_entry
        upgraded.append((e.name, new_entry.name))
    if upgraded:
        write_manifest(index_dir, next_manifest(manifest, new_segments))
    return {"upgraded": upgraded, "current": current, "skipped": skipped}

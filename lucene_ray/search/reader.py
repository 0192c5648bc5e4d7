"""Index/segment readers — the searcher-side state loaded once per actor.

Analog of DirectoryReader/SegmentReader (index/DirectoryReader.java:59,
index/SegmentReader.java): a SegmentReader memory-maps its postings Parquet
once and reads it in place, like Lucene90BlockTreeTermsReader over its
mmapped terms file. The sorted term column is the term dictionary: a term
lookup binary-searches the column's UTF-8 bytes (the FST prefix index is
replaced by the sorted column, batch by batch — SURVEY.md §1.4), and the
term's row is a set of zero-copy views (ints, memoryview blob slices,
numpy list slices) over the same buffers — nothing is boxed per column or
copied per row. Norms are cached as numpy arrays.

Scale note: readers live inside scorer-pool actors (`__init__` loads,
`__call__` scores batches of queries — SURVEY.md §2.3 searcher-state row).
Postings blobs stay in the Arrow table (memory-mapped when the filesystem
allows zero-copy) and are only decoded per query term, block-selectively.
"""

from __future__ import annotations

import bisect
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from lucene_ray.codec.postings_codec import (
    BatchReaders,
    TermPostings,
    TermRow,
    _binary_col,
    decode_term_postings,
)
from lucene_ray.index import segfiles
from lucene_ray.index.manifest import (
    Manifest, read_manifest, segment_dir, segment_groups,
)

_MISSING = object()  # field_norms cache sentinel (None is a valid entry)


class LRUQueryCache:
    """search/LRUQueryCache.java + UsageTrackingQueryCachingPolicy: cache
    the materialized doc-set payload of COMPOUND clauses (phrase / span /
    synonym / constant-score / disjunction-sum / point-range — never plain
    term queries, which are cheap) once a query has been seen
    ``min_frequency`` times; LRU-evict beyond ``max_entries``. Keyed by the
    frozen query dataclass. Lives on the SegmentReader, so reopening after
    deletes drops it — the reference's per-reader CacheKey invalidation."""

    __slots__ = ("_data", "_counts", "max_entries", "min_frequency",
                 "hit_count", "miss_count")

    def __init__(self, max_entries: int = 256, min_frequency: int = 2):
        from collections import OrderedDict

        self._data: "OrderedDict" = OrderedDict()
        self._counts: dict = {}
        self.max_entries = max_entries
        self.min_frequency = min_frequency
        self.hit_count = 0
        self.miss_count = 0

    def get_or_compute(self, key, compute):
        if key in self._data:
            self.hit_count += 1
            self._data.move_to_end(key)
            return self._data[key]
        self.miss_count += 1
        val = compute()
        n = self._counts.get(key, 0) + 1
        self._counts[key] = n
        # bound the usage tracker too (the reference uses a fixed-size ring
        # buffer of recent query hashes): drop the oldest half when full, so
        # a long-lived actor streaming distinct queries can't grow it forever.
        # Keys currently CACHED keep their frequency record — a hot query
        # must not have to re-earn min_frequency after an LRU eviction.
        if len(self._counts) > self.max_entries * 8:
            dropped = 0
            for old in list(self._counts):
                if dropped >= self.max_entries * 4:
                    break
                if old in self._data:
                    continue
                del self._counts[old]
                dropped += 1
        if n >= self.min_frequency:
            for part in val if isinstance(val, tuple) else (val,):
                if isinstance(part, np.ndarray):
                    part.flags.writeable = False  # guard accidental mutation
            self._data[key] = val
            if len(self._data) > self.max_entries:
                self._data.popitem(last=False)
        return val


class SegmentReader:
    def __init__(
        self, seg_dir: str, docid_base: int, doc_count: int, del_gen: int = 0,
        dv_gen: int = 0,
        soft_del_gen: int = 0,
    ):
        self.seg_dir = seg_dir
        self.docid_base = docid_base
        self.doc_count = doc_count
        self.dv_gen = dv_gen
        self.query_cache = LRUQueryCache()
        # live-docs bitmap (None = no deletes). Readers are snapshot views:
        # reopen the IndexReader after deletes to observe them (Lucene
        # DirectoryReader.openIfChanged semantics). Soft deletes
        # (softdeletes_g<gen>.parquet, SoftDeletesDirectoryReaderWrapper
        # semantics) fold into the same mask — every downstream consumer
        # hides them like tombstones; only the MERGE treats them
        # differently (postings retained).
        self.live_mask: np.ndarray | None = None
        if del_gen > 0:
            self.live_mask = segfiles.read_mask(
                segfiles.LIVEDOCS, seg_dir, del_gen, doc_count
            )
        if soft_del_gen > 0:
            soft = segfiles.read_mask(
                segfiles.SOFTDELETES, seg_dir, soft_del_gen, doc_count
            )
            self.live_mask = ~soft if self.live_mask is None else self.live_mask & ~soft
        self._postings = pq.read_table(segfiles.POSTINGS.path(seg_dir), memory_map=True)
        # term dictionary + term rows: zero-copy views over the table's
        # record batches (one per row group), in O(batches) — per batch its
        # first global row, its last term's UTF-8 bytes (batch choice), its
        # term column's offsets/data and its lazily-built column readers
        self._terms_arr = self._postings.column("term")
        self._batch_starts: list[int] = []
        self._batch_last: list[bytes] = []
        self._batch_terms: list[tuple[memoryview, memoryview]] = []
        self._batch_rows: list[BatchReaders] = []
        start = 0
        for batch in self._postings.to_batches():
            n = batch.num_rows
            if not n:
                continue
            data, offs = _binary_col(batch.column("term"))
            offs, data = memoryview(offs), memoryview(data)
            self._batch_starts.append(start)
            self._batch_last.append(bytes(data[offs[n - 1] : offs[n]]))
            self._batch_terms.append((offs, data))
            self._batch_rows.append(BatchReaders(batch))
            start += n
        norms = pq.read_table(segfiles.NORMS.path(seg_dir), memory_map=True)
        self.norm_bytes = norms.column("norm").to_numpy(zero_copy_only=False)
        self.doc_len = norms.column("doc_len").to_numpy(zero_copy_only=False)
        self._norms_table = norms  # per-analyzed-field norm_<f>/doc_len_<f>
        self._field_norms: dict[str, tuple | None] = {}
        # term-row cache: term_stats, term_cursor and postings share one
        # dictionary lookup per term (absent terms cache None)
        self._row_cache: dict[str, TermRow | None] = {}
        self._row_cache_cap = 4096
        # decoded-cursor cache: hot query terms keep their decoded postings
        # (docids/tfs arrays) resident across queries — the page-cache/
        # hot-data-structure role Lucene gets from mmap + JIT'd enums.
        # Size-capped by decoded postings count (a cursor's memoized
        # float32 scores count a quarter posting each), evicted wholesale
        # (cheap, and the working set of query terms is small).
        self._cursor_cache: dict = {}
        self._cursor_cache_postings = 0
        self._cursor_cache_max_postings = 2_000_000  # ~32 MB of arrays

    def field_norms(self, field: str) -> tuple | None:
        """(norm_bytes uint8, doc_len int64) for an analyzed parallel field
        (builder ``analyzed_fields``), or None when the field carries no
        norms column. ``""``/``"content"`` return the content norm. Backing
        for MultiNormsLeafSimScorer.java (CombinedFieldQuery sums weighted
        per-field lengths decoded from these byte4 norms)."""
        if field in ("", "content"):
            return self.norm_bytes, self.doc_len
        cached = self._field_norms.get(field, _MISSING)
        if cached is _MISSING:
            names = self._norms_table.column_names
            if f"norm_{field}" in names:
                cached = (
                    self._norms_table.column(f"norm_{field}").to_numpy(
                        zero_copy_only=False
                    ),
                    self._norms_table.column(f"doc_len_{field}").to_numpy(
                        zero_copy_only=False
                    ),
                )
            else:
                cached = None
            self._field_norms[field] = cached
        return cached

    @property
    def has_offsets(self) -> bool:
        """True when postings carry per-occurrence byte offsets
        (IndexOptions ..._AND_OFFSETS) — probed from the offsets-buffer
        lengths only (no blob decode)."""
        cached = getattr(self, "_has_offsets", None)
        if cached is None:
            import pyarrow.compute as pc

            if "off_blob" not in self._postings.column_names:
                cached = False
            else:
                mx = pc.max(pc.binary_length(self._postings.column("off_blob")))
                cached = bool(mx.as_py() or 0)
            self._has_offsets = cached
        return cached

    def _terms_split(self, fields: bool) -> np.ndarray:
        """Content-side or field-side ('f:v') slice of the term dict as a
        python-object array. Cached separately: content vocab is tiny and
        hot (multi-term rewrites); field vocab can be huge (unique paths /
        commits) and is materialized only when a field pattern asks."""
        attr = "_field_terms_np" if fields else "_content_terms_np"
        cached = getattr(self, attr, None)
        if cached is None:
            import pyarrow.compute as pc

            mask = pc.match_substring(self._terms_arr, ":")
            if not fields:
                mask = pc.invert(mask)
            cached = np.asarray(
                self._terms_arr.filter(mask).to_pylist(), dtype=object
            )
            setattr(self, attr, cached)
        return cached

    def term_index(self, term: str) -> int:
        """Row of ``term`` in the sorted term dictionary, -1 if absent: a
        bisect over the batches' last terms, then a binary search of one
        batch's term column comparing UTF-8 bytes (byte order == str
        codepoint order) — O(log n) small byte slices, no Arrow scalars.
        When the segment carries a bloom sidecar (codec/bloom.py, the
        BloomFilteringPostingsFormat analog built by build_bloom_filters),
        a definite miss returns -1 without touching the dictionary."""
        bloom = self._bloom_filter()
        if bloom is not None:
            from lucene_ray.codec.bloom import may_contain

            if not may_contain(bloom, term):
                return -1
        key = term.encode("utf-8", "surrogatepass")
        b = bisect.bisect_left(self._batch_last, key)
        if b == len(self._batch_last):
            return -1
        offs, data = self._batch_terms[b]
        lo, hi = 0, len(offs) - 1
        while lo < hi:
            mid = (lo + hi) >> 1
            if bytes(data[offs[mid] : offs[mid + 1]]) < key:
                lo = mid + 1
            else:
                hi = mid
        if bytes(data[offs[lo] : offs[lo + 1]]) == key:
            return self._batch_starts[b] + lo
        return -1

    def _bloom_filter(self):
        """Lazily-loaded bloom sidecar bits (None when absent — the
        delegate-only path)."""
        if not hasattr(self, "_bloom_bits"):
            from lucene_ray.codec.bloom import load_filter

            self._bloom_bits = load_filter(self.seg_dir)
        return self._bloom_bits

    def term_row(self, term: str) -> TermRow | None:
        """The postings row of ``term`` (None if absent), one dictionary
        lookup per term while the row cache holds it. The row reads its
        values in place from the mmapped table: ints for counts, memoryview
        blobs, read-only numpy slices for list<int64> columns and a
        BlockLists for ``impacts`` — never mutate them."""
        if term in self._row_cache:
            return self._row_cache[term]
        i = self.term_index(term)
        row = None
        if i >= 0:
            b = bisect.bisect_right(self._batch_starts, i) - 1
            row = TermRow(self._batch_rows[b], i - self._batch_starts[b])
        if len(self._row_cache) >= self._row_cache_cap:
            self._row_cache.clear()
        self._row_cache[term] = row
        return row

    def term_stats(self, term: str) -> tuple[int, int]:
        """(df, ttf) in this segment — the per-leaf TermStatistics
        (search/TermStatistics.java); shares term_row's lookup."""
        row = self.term_row(term)
        if row is None:
            return 0, 0
        return row["df"], row["ttf"]

    def term_cursor(self, term: str):
        """Cached SegmentTermCursor (decode state and scoring memo persist
        across queries)."""
        from lucene_ray.search.scorer import SegmentTermCursor

        cur = self._cursor_cache.get(term)
        if cur is None:
            row = self.term_row(term)
            if row is None:
                return None
            cur = SegmentTermCursor(row)
            # charged for its decoded postings (int64 docid + tf, 16 B
            # each) and for its memo's float32 scores (4 B each)
            n = cur.df + (cur.df + 3) // 4
            if self._cursor_cache_postings + n > self._cursor_cache_max_postings:
                self._cursor_cache.clear()
                self._cursor_cache_postings = 0
            self._cursor_cache[term] = cur
            self._cursor_cache_postings += n
        return cur

    def postings(self, term: str) -> TermPostings | None:
        """Fully-decoded postings, cached alongside cursors (phrase terms
        reuse their decoded positions across queries)."""
        key = ("p", term)
        tp = self._cursor_cache.get(key)
        if tp is None:
            row = self.term_row(term)
            if row is None:
                return None
            tp = decode_term_postings(row)
            if self._cursor_cache_postings + len(tp.docids) > self._cursor_cache_max_postings:
                self._cursor_cache.clear()
                self._cursor_cache_postings = 0
            self._cursor_cache[key] = tp
            self._cursor_cache_postings += len(tp.docids)
        return tp

    def _field_names(self, f: segfiles.SegFile, gen: int = 0) -> list[str]:
        """Column names of a sidecar, [] when the segment has none
        (footer-only read — never materializes the table)."""
        path = f.path(self.seg_dir, gen)
        if not os.path.exists(path):
            return []
        return [n for n in pq.read_schema(path).names if n != "docid"]

    def doc_values(self, field: str) -> np.ndarray:
        """Doc-ordered numeric doc values (index/DocValues.java NUMERIC),
        from the latest update generation (dvd/dvm generation analog)."""
        if not hasattr(self, "_dv"):
            self._dv = pq.read_table(
                segfiles.DOCVALUES.path(self.seg_dir, self.dv_gen), memory_map=True
            )
        return self._dv.column(field).to_numpy(zero_copy_only=False)

    def doc_values_schema(self) -> list[str]:
        """Field names with NUMERIC doc values in this segment."""
        return self._field_names(segfiles.DOCVALUES, self.dv_gen)

    def _sdv_table(self) -> pa.Table | None:
        if not hasattr(self, "_sdv"):
            path = segfiles.DOCVALUES_SORTED.path(self.seg_dir)
            self._sdv = (
                pq.read_table(path, memory_map=True)
                if os.path.exists(path)
                else None
            )
        return self._sdv

    def sorted_dv_schema(self) -> list[str]:
        """Field names with SORTED / SORTED_SET doc values."""
        return self._field_names(segfiles.DOCVALUES_SORTED)

    def sorted_numeric_dv_schema(self) -> list[str]:
        """Field names with SORTED_NUMERIC doc values."""
        return self._field_names(segfiles.DOCVALUES_SORTEDNUMERIC)

    def binary_dv_schema(self) -> list[str]:
        """Field names with BINARY doc values."""
        return self._field_names(segfiles.DOCVALUES_BINARY)

    def shape_fields(self) -> list[str]:
        """Field names with indexed shapes in this segment. Reads only the
        dictionary-encodable ``field`` column of the sidecar, cached."""
        if not hasattr(self, "_shape_fields"):
            path = segfiles.SHAPES.path(self.seg_dir)
            if not os.path.exists(path):
                self._shape_fields = []
            else:
                t = pq.read_table(path, columns=["field"], memory_map=True)
                self._shape_fields = sorted(
                    set(t.column("field").to_pylist())
                )
        return self._shape_fields

    def sorted_dv_is_set(self, field: str) -> bool:
        """True when ``field`` carries SORTED_SET (multi-valued, list
        column) doc values, False for single-valued SORTED — footer-only
        type probe (DocValuesType discrimination for the DV query family)."""
        if field not in self.sorted_dv_schema():
            raise KeyError(f"no SORTED(_SET) doc values for field {field!r}")
        schema = pq.read_schema(segfiles.DOCVALUES_SORTED.path(self.seg_dir))
        return pa.types.is_list(schema.field(field).type)

    def sorted_doc_values(self, field: str) -> tuple[np.ndarray, np.ndarray]:
        """SORTED doc values (index/SortedDocValues.java): per-doc ordinal
        into the segment's term-sorted value dictionary. Returns
        (ords[int64 per doc], terms[str, ascending]) — ords/terms derived
        once per reader from the doc-ordered sidecar column and cached."""
        cache = getattr(self, "_sdv_ord_cache", None)
        if cache is None:
            cache = self._sdv_ord_cache = {}
        if field not in cache:
            tbl = self._sdv_table()
            if tbl is None or field not in tbl.schema.names:
                raise KeyError(f"no SORTED doc values for field {field!r}")
            vals = np.asarray(
                tbl.column(field).combine_chunks().to_pylist(), dtype=object
            )
            terms, ords = np.unique(vals, return_inverse=True)
            cache[field] = (ords.astype(np.int64), terms)
        return cache[field]

    def sorted_set_doc_values(
        self, field: str
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """SORTED_SET doc values (index/SortedSetDocValues.java): per-doc
        ascending, de-duplicated ordinal runs. Returns (offsets[n+1],
        flat_ords, terms) where doc d's ords are flat_ords[offsets[d]:
        offsets[d+1]]."""
        cache = getattr(self, "_ssdv_cache", None)
        if cache is None:
            cache = self._ssdv_cache = {}
        if field not in cache:
            tbl = self._sdv_table()
            if tbl is None or field not in tbl.schema.names:
                raise KeyError(f"no SORTED_SET doc values for field {field!r}")
            col = tbl.column(field).combine_chunks()
            raw_off = col.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
            flat = np.asarray(col.values.to_pylist(), dtype=object)
            terms, flat_ords = np.unique(flat, return_inverse=True)
            n = len(col)
            doc_idx = np.repeat(np.arange(n, dtype=np.int64), np.diff(raw_off))
            # Lucene contract: ords ascending per doc, no duplicates
            order = np.lexsort((flat_ords, doc_idx))
            di, fo = doc_idx[order], flat_ords[order]
            if len(di):
                keep = np.ones(len(di), dtype=bool)
                keep[1:] = (di[1:] != di[:-1]) | (fo[1:] != fo[:-1])
                di, fo = di[keep], fo[keep]
            counts = np.bincount(di, minlength=n)
            offsets = np.zeros(n + 1, dtype=np.int64)
            np.cumsum(counts, out=offsets[1:])
            cache[field] = (offsets, fo.astype(np.int64), terms)
        return cache[field]

    def sorted_numeric_doc_values(
        self, field: str
    ) -> tuple[np.ndarray, np.ndarray]:
        """SORTED_NUMERIC doc values (index/SortedNumericDocValues.java):
        multi-valued int64 per doc, values ASCENDING within a doc (the
        SortedNumericDocValuesField write contract). Returns
        (offsets[n+1], flat_values) where doc d's values are
        flat_values[offsets[d]:offsets[d+1]]."""
        cache = getattr(self, "_sndv_cache", None)
        if cache is None:
            cache = self._sndv_cache = {}
        if field not in cache:
            path = segfiles.DOCVALUES_SORTEDNUMERIC.path(self.seg_dir)
            if not os.path.exists(path):
                raise KeyError(f"no SORTED_NUMERIC doc values for field {field!r}")
            tbl = pq.read_table(path, columns=[field], memory_map=True)
            col = tbl.column(field).combine_chunks()
            offsets = col.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
            flat = col.values.to_numpy(zero_copy_only=False).astype(np.int64)
            cache[field] = (offsets, flat)
        return cache[field]

    def binary_doc_values(self, field: str) -> list:
        """BINARY doc values (index/BinaryDocValues.java): doc-ordered
        opaque bytes."""
        cache = getattr(self, "_bdv_cache", None)
        if cache is None:
            cache = self._bdv_cache = {}
        if field not in cache:
            path = segfiles.DOCVALUES_BINARY.path(self.seg_dir)
            if not os.path.exists(path):
                raise KeyError(f"no BINARY doc values for field {field!r}")
            tbl = pq.read_table(path, columns=[field], memory_map=True)
            cache[field] = tbl.column(field).combine_chunks().to_pylist()
        return cache[field]

    def shape_triangles(self, field: str):
        """Tessellated triangles of an indexed shape field
        (document/LatLonShape.java sidecar, see search/spatial.py):
        (docid_local, ax, ay, bx, by, cx, cy) float64 arrays."""
        cache = getattr(self, "_shape_cache", None)
        if cache is None:
            cache = self._shape_cache = {}
        if field not in cache:
            path = segfiles.SHAPES.path(self.seg_dir)
            if not os.path.exists(path):
                raise KeyError(f"no indexed shapes for field {field!r}")
            t = pq.read_table(path, memory_map=True)
            import pyarrow.compute as pc

            t = t.filter(pc.equal(t.column("field"), field))
            cache[field] = tuple(
                t.column(c).to_numpy(zero_copy_only=False)
                for c in ("docid", "ax", "ay", "bx", "by", "cx", "cy")
            )
            # per-edge origin flags (format v9; pre-v9 sidecars default to
            # all-boundary, which only degrades CONTAINS, never box/poly)
            if "fab" in t.schema.names:
                self._shape_flag_cache = getattr(
                    self, "_shape_flag_cache", {}
                )
                self._shape_flag_cache[field] = tuple(
                    t.column(c).to_numpy(zero_copy_only=False)
                    for c in ("fab", "fbc", "fca")
                )
        return cache[field]

    def shape_edge_flags(self, field: str):
        """(fab, fbc, fca) boolean arrays aligned with shape_triangles —
        True = the edge lies on the original shape's boundary
        (document/ShapeField.java encodeTriangle bits)."""
        self.shape_triangles(field)  # populate caches
        flags = getattr(self, "_shape_flag_cache", {}).get(field)
        if flags is None:
            n = len(self.shape_triangles(field)[0])
            ones = np.ones(n, dtype=bool)
            flags = (ones, ones.copy(), ones.copy())
        return flags

    @property
    def has_term_vectors(self) -> bool:
        return os.path.exists(segfiles.TERMVECTORS.path(self.seg_dir))

    def term_vectors_local(self, docids: np.ndarray) -> pa.Table:
        """(doc, term, freq, positions[, starts, lens]) rows for the given
        LOCAL docids — the TermVectorsReader.get(doc) analog. The sidecar
        is doc-major sorted with small row groups, so the fetch prunes to
        the row groups whose doc min/max stats intersect the request
        (footer-only planning; never scans the whole sidecar)."""
        path = segfiles.TERMVECTORS.path(self.seg_dir)
        if not os.path.exists(path):
            raise FileNotFoundError(
                "index was built without term_vectors=True: " + path
            )
        import pyarrow.compute as pc

        pf = getattr(self, "_tv_pf", None)
        if pf is None:
            pf = self._tv_pf = pq.ParquetFile(path)
        docids = np.unique(np.asarray(docids, dtype=np.int64))
        md = pf.metadata
        # doc column is index 0 in the sidecar schema
        col = pf.schema_arrow.names.index("doc")
        groups = []
        for g in range(md.num_row_groups):
            st = md.row_group(g).column(col).statistics
            lo, hi = st.min, st.max
            i = int(np.searchsorted(docids, lo, side="left"))
            if i < len(docids) and docids[i] <= hi:
                groups.append(g)
        if not groups:
            return pf.schema_arrow.empty_table()
        t = pf.read_row_groups(groups)
        mask = pc.is_in(t.column("doc"), value_set=pa.array(docids))
        return t.filter(mask)

    def _points_table(self) -> dict:
        if not hasattr(self, "_points"):
            t = pq.read_table(segfiles.POINTS.path(self.seg_dir), memory_map=True)
            self._points = {}
            fields = np.asarray(t.column("field").to_pylist(), dtype=object)
            vals = t.column("value").to_numpy(zero_copy_only=False)
            docs = t.column("docid").to_numpy(zero_copy_only=False)
            for f in np.unique(fields):
                m = fields == f
                self._points[str(f)] = (vals[m], docs[m])
        return self._points

    def point_range(self, field: str, lower, upper) -> np.ndarray:
        """Sorted local docids with lower <= value <= upper (inclusive both,
        PointRangeQuery semantics) — two binary searches over the
        value-sorted points table (the 1-D BKD walk analog)."""
        pts = self._points_table()
        if field not in pts:
            return np.array([], dtype=np.int64)
        vals, docs = pts[field]
        lo = 0 if lower is None else int(np.searchsorted(vals, lower, side="left"))
        hi = len(vals) if upper is None else int(np.searchsorted(vals, upper, side="right"))
        return np.sort(docs[lo:hi]).astype(np.int64)

    def point_in_set(self, field: str, values) -> np.ndarray:
        """Sorted local docids whose point value is IN ``values``
        (search/PointInSetQuery.java — the sorted-set merge walk becomes
        paired searchsorted slices over the value-sorted points column)."""
        pts = self._points_table()
        if field not in pts:
            return np.array([], dtype=np.int64)
        vals, docs = pts[field]
        v = np.unique(np.asarray(list(values), dtype=np.int64))
        lo = np.searchsorted(vals, v, side="left")
        hi = np.searchsorted(vals, v, side="right")
        runs = [np.arange(a, b) for a, b in zip(lo, hi) if b > a]
        if not runs:
            return np.array([], dtype=np.int64)
        return np.sort(docs[np.concatenate(runs)]).astype(np.int64)

    def _spatial_file(self):
        """Lazy footer-only open of the 2-D points sidecar: per-row-group
        (morton min/max, field min/max) statistics are the BKD inner-node
        bounds the box/distance walks prune with."""
        if not hasattr(self, "_spatial_pf"):
            path = segfiles.SPATIAL.path(self.seg_dir)
            if not os.path.exists(path):
                self._spatial_pf, self._spatial_rg = None, []
            else:
                self._spatial_pf = pq.ParquetFile(path)
                md = self._spatial_pf.metadata
                names = [md.schema.column(i).name for i in range(md.num_columns)]
                mi, fi = names.index("morton"), names.index("field")
                self._spatial_rg = []
                for g in range(md.num_row_groups):
                    ms = md.row_group(g).column(mi).statistics
                    fs = md.row_group(g).column(fi).statistics
                    self._spatial_rg.append((ms.min, ms.max, fs.min, fs.max))
        return self._spatial_pf

    def _spatial_candidates(
        self, field: str, lat_lo, lat_hi, lon_lo, lon_hi
    ) -> "pq.Table | None":
        """Row-group-pruned read of the sidecar rows that might fall in the
        quantized box (LatLonPoint.newBoxQuery's BKD intersect): only
        groups whose morton stats overlap a covering Z-order range leave
        disk. Exact (raw-double) filtering is the caller's job."""
        from lucene_ray.search.spatial import box_morton_ranges, prune_row_groups

        pf = self._spatial_file()
        if pf is None:
            return None
        ranges = box_morton_ranges(lat_lo, lat_hi, lon_lo, lon_hi)
        groups = prune_row_groups(self._spatial_rg, field, ranges)
        if not groups:
            return None
        t = pf.read_row_groups(groups, columns=["field", "lat", "lon", "docid"])
        import pyarrow.compute as pc

        return t.filter(pc.equal(t.column("field"), field))

    def range_field_docs(
        self, field: str, q_lo: int | None, q_hi: int | None, relation: str
    ) -> np.ndarray:
        """Sorted local docids whose LongRange value relates to the query
        range (document/LongRange.java:48 newIntersects/Contains/Within/
        CrossesQuery; RangeFieldQuery.QueryType). The sidecar is sorted by
        (field, lo): a searchsorted cut bounds the lo <= q_hi scan for the
        INTERSECTS/WITHIN prefix; relation masks are vectorized.

        CROSSES is INTERSECTS minus WITHIN minus CONTAINS (overlaps the
        query without being inside it or swallowing it)."""
        cache = getattr(self, "_range_cache", None)
        if cache is None:
            cache = self._range_cache = {}
        if field not in cache:
            path = segfiles.RANGES.path(self.seg_dir)
            if not os.path.exists(path):
                raise FileNotFoundError(
                    "index was built without range_fields: " + path
                )
            t = pq.read_table(path, memory_map=True)
            import pyarrow.compute as pc

            t = t.filter(pc.equal(t.column("field"), field))
            cache[field] = (
                t.column("lo").to_numpy(zero_copy_only=False),
                t.column("hi").to_numpy(zero_copy_only=False),
                t.column("docid").to_numpy(zero_copy_only=False),
            )
        lo, hi, docid = cache[field]
        ql = np.iinfo(np.int64).min if q_lo is None else int(q_lo)
        qh = np.iinfo(np.int64).max if q_hi is None else int(q_hi)
        if relation in ("intersects", "within", "crosses"):
            # every match has lo <= q_hi: cut on the sorted lo column
            cut = int(np.searchsorted(lo, qh, side="right"))
            lo_c, hi_c, d_c = lo[:cut], hi[:cut], docid[:cut]
        else:
            lo_c, hi_c, d_c = lo, hi, docid
        inter = hi_c >= ql  # lo <= qh already holds on the cut slice
        if relation == "intersects":
            mask = inter
        elif relation == "within":
            mask = (lo_c >= ql) & (hi_c <= qh)
        elif relation == "contains":
            mask = (lo_c <= ql) & (hi_c >= qh)
        elif relation == "crosses":
            within = (lo_c >= ql) & (hi_c <= qh)
            contains = (lo_c <= ql) & (hi_c >= qh)
            mask = inter & ~within & ~contains
        else:
            raise ValueError(f"unknown range relation: {relation!r}")
        return np.sort(d_c[mask])

    def spatial_box(
        self, field: str, lat_lo: float, lat_hi: float, lon_lo: float, lon_hi: float
    ) -> np.ndarray:
        """Sorted local docids with lat/lon inside the box, bounds
        INCLUSIVE on raw float64 (LatLonPoint.newBoxQuery semantics; no
        antimeridian wrap — callers split wrapping boxes)."""
        t = self._spatial_candidates(field, lat_lo, lat_hi, lon_lo, lon_hi)
        if t is None:
            return np.array([], dtype=np.int64)
        lat = t.column("lat").to_numpy(zero_copy_only=False)
        lon = t.column("lon").to_numpy(zero_copy_only=False)
        m = (lat >= lat_lo) & (lat <= lat_hi) & (lon >= lon_lo) & (lon <= lon_hi)
        return np.sort(
            t.column("docid").to_numpy(zero_copy_only=False)[m]
        ).astype(np.int64)

    def spatial_distance(
        self, field: str, lat: float, lon: float, radius_m: float
    ) -> np.ndarray:
        """Sorted local docids within radius_m metres (haversine, INCLUSIVE
        — LatLonPoint.newDistanceQuery): bounding-box BKD prune, exact
        great-circle filter on raw doubles."""
        from lucene_ray.search.spatial import distance_box, haversine_m

        box = distance_box(lat, lon, radius_m)
        t = self._spatial_candidates(field, *box)
        if t is None:
            return np.array([], dtype=np.int64)
        dlat = t.column("lat").to_numpy(zero_copy_only=False)
        dlon = t.column("lon").to_numpy(zero_copy_only=False)
        m = haversine_m(dlat, dlon, lat, lon) <= radius_m
        return np.sort(
            t.column("docid").to_numpy(zero_copy_only=False)[m]
        ).astype(np.int64)

    def spatial_polygon(
        self, field: str, shell: tuple, holes: tuple = ()
    ) -> np.ndarray:
        """Sorted local docids inside the polygon (LatLonPoint
        .newPolygonQuery; geo/Polygon2D.java crossing-number contains):
        BKD prune by the shell's bounding box, exact PNPOLY on raw
        doubles (shell minus holes)."""
        from lucene_ray.search.spatial import point_in_polygon

        sh_lats, sh_lons = shell
        t = self._spatial_candidates(
            field,
            min(sh_lats), max(sh_lats), min(sh_lons), max(sh_lons),
        )
        if t is None:
            return np.array([], dtype=np.int64)
        lat = t.column("lat").to_numpy(zero_copy_only=False)
        lon = t.column("lon").to_numpy(zero_copy_only=False)
        m = point_in_polygon(lat, lon, shell, holes)
        return np.sort(
            t.column("docid").to_numpy(zero_copy_only=False)[m]
        ).astype(np.int64)

    def spatial_shape3d(self, field: str, shape) -> np.ndarray:
        """Sorted local docids whose point lies within a Geo3D shape
        (spatial3d/PointInGeo3DShapeQuery: BKD prune by the shape's
        bounds, exact unit-sphere membership on the raw doubles —
        search/spatial3d.py)."""
        t = self._spatial_candidates(field, *shape.bounds())
        if t is None:
            return np.array([], dtype=np.int64)
        lat = t.column("lat").to_numpy(zero_copy_only=False)
        lon = t.column("lon").to_numpy(zero_copy_only=False)
        m = shape.is_within(lat, lon)
        return np.sort(
            t.column("docid").to_numpy(zero_copy_only=False)[m]
        ).astype(np.int64)

    def stored_fields(self) -> "pq.Table":
        return pq.read_table(segfiles.STORED.path(self.seg_dir))

    def stored_rows(self, local_docids: np.ndarray) -> "pq.Table":
        """Stored fields for specific local docids (display-time fetch,
        the SearchFiles.java:207-214 stored-field lookup analog)."""
        return self.stored_fields().take(
            np.asarray(local_docids, dtype=np.int64)
        )


class IndexReader:
    """Open a committed index: manifest + per-segment readers (lazy)."""

    def __init__(self, index_dir: str, generation: int | None = None):
        """``generation``: open a specific retained commit instead of the
        current one (DirectoryReader.open(IndexCommit) point-in-time
        snapshot — segment files are never deleted, so any retained
        generation stays consistent)."""
        self.index_dir = index_dir
        m = read_manifest(index_dir, generation=generation)
        if m is None:
            raise FileNotFoundError(
                f"no manifest for generation {generation} under {index_dir}"
                if generation is not None
                else f"no manifest.json under {index_dir}"
            )
        self.manifest: Manifest = m
        self.doc_count = m.doc_count
        self.sum_ttf = m.sum_ttf
        self._readers: dict[str, SegmentReader] = {}

    @property
    def segments(self) -> list:
        return self.manifest.live_segments

    def segment_reader(self, name: str) -> SegmentReader:
        if name not in self._readers:
            entry = next(s for s in self.segments if s.name == name)
            self._readers[name] = SegmentReader(
                segment_dir(self.index_dir, entry.name),
                entry.docid_base,
                entry.doc_count,
                del_gen=getattr(entry, "del_gen", 0),
                dv_gen=getattr(entry, "dv_gen", 0),
                soft_del_gen=getattr(entry, "soft_del_gen", 0),
            )
        return self._readers[name]

    @property
    def live_doc_count(self) -> int:
        # numDocs semantics: soft-deleted docs are hidden like tombstones
        # (a doc can be both — hard del_count and soft_del_count can
        # overlap only via prune_soft_deletes, which clears the soft bit
        # when hardening, so the sum never double-counts)
        return self.doc_count - sum(
            getattr(e, "del_count", 0) + getattr(e, "soft_del_count", 0)
            for e in self.segments
        )

    @property
    def stats_doc_count(self) -> int:
        """N for scoring: total docids minus RECLAIMED docs (whose postings
        a merge dropped). Unreclaimed tombstones still count, matching the
        reference's scores-ignore-deletes-until-merge semantics."""
        return self.doc_count - sum(getattr(e, "reclaimed", 0) for e in self.segments)

    def all_readers(self) -> list[SegmentReader]:
        return [self.segment_reader(s.name) for s in self.segments]

    def field_sum_ttf(self, field: str) -> int:
        """Global sumTotalTermFreq of an analyzed parallel field: the sum
        of its doc_len_<field> norm column across segments (content fields
        use the manifest sum_ttf). Feeds CombinedFieldQuery's pseudo
        collection stats (CombinedFieldQuery.java:354-372). With overlap
        analyzers this is the overlap-DISCOUNTED total (the af sidecar
        stores discounted lengths only) — documented divergence."""
        if field in ("", "content"):
            return self.sum_ttf
        total = 0
        for r in self.all_readers():
            fn = r.field_norms(field)
            if fn is None:
                raise KeyError(f"no per-field norms for analyzed field {field!r}")
            total += int(fn[1].sum())
        return total

    @property
    def has_offsets(self) -> bool:
        """True when the index was built with index_options='offsets'
        (uniform across segments; probed from the first non-empty one)."""
        for e in self.segments:
            if e.doc_count:
                return self.segment_reader(e.name).has_offsets
        return False

    def locate(self, global_docid: int) -> tuple[SegmentReader, int]:
        """(owning SegmentReader, segment-local docid) for a global docid."""
        for e in self.segments:
            if e.docid_base <= global_docid < e.docid_base + e.doc_count:
                return self.segment_reader(e.name), global_docid - e.docid_base
        raise IndexError(f"docid {global_docid} outside every segment")

    @property
    def has_term_vectors(self) -> bool:
        for e in self.segments:
            if e.doc_count:
                return self.segment_reader(e.name).has_term_vectors
        return False

    def term_vectors(self, docids) -> pa.Table:
        """Term-vector rows for GLOBAL docids (doc column rebased to global
        ids), the IndexReader.termVectors().get(doc) analog. Deleted docs
        are silently skipped — readers are live snapshots. Per-segment
        fetches prune parquet row groups by docid stats."""
        parts = []
        for e, _pos, local in segment_groups(self.segments, np.unique(docids)):
            sr = self.segment_reader(e.name)
            local = local[local < e.doc_count]
            if sr.live_mask is not None:
                local = local[sr.live_mask[local]]
            if not len(local):
                continue
            t = sr.term_vectors_local(local)
            gdoc = pa.array(
                t.column("doc").to_numpy(zero_copy_only=False) + e.docid_base,
                type=pa.int64(),
            )
            parts.append(t.set_column(0, "doc", gdoc))
        if not parts:
            return pa.table(
                {
                    "doc": pa.array([], type=pa.int64()),
                    "term": pa.array([], type=pa.string()),
                    "freq": pa.array([], type=pa.int32()),
                    "positions": pa.array([], type=pa.list_(pa.int32())),
                }
            )
        return pa.concat_tables(parts)

    def vocabulary(self, include_fields: bool = False) -> np.ndarray:
        """Sorted union of segment terms (the multi-term rewrite target;
        cached — the FST term-dict walk analog). Default = CONTENT terms
        only; ``include_fields=True`` returns the 'field:value' side, which
        is materialized lazily (it can dwarf the content vocab when paths /
        commits are unique per doc)."""
        attr = "_vocab_fields" if include_fields else "_vocab_content"
        cached = getattr(self, attr, None)
        if cached is None:
            parts = [r._terms_split(include_fields) for r in self.all_readers()]
            cached = (
                np.unique(np.concatenate(parts)) if parts else np.array([], dtype=object)
            )
            setattr(self, attr, cached)
        return cached

    def global_term_stats(self, terms: list[str]) -> dict[str, tuple[int, int]]:
        """Sum per-segment (df, ttf) for the given terms — the stats
        broadcast gathered before scoring so every segment scores against
        identical idf/avgdl (IndexSearcher semantics, SURVEY.md §3.3 step 2).
        Duplicate input terms are summed ONCE (the dict keys, not the list,
        drive the accumulation)."""
        out = {t: [0, 0] for t in terms}
        for r in self.all_readers():
            for t in out:
                df, ttf = r.term_stats(t)
                out[t][0] += df
                out[t][1] += ttf
        return {t: (v[0], v[1]) for t, v in out.items()}


class MultiReader(IndexReader):
    """Read-only composite over several committed indexes — core/index/
    MultiReader.java (a CompositeReader whose subs keep their own
    segment structure; docids are rebased by each sub's cumulative
    maxDoc, MultiReader's BaseCompositeReader contract). No files are
    copied or written (addIndexes is the copying cousin); the view is a
    SNAPSHOT of each sub at open time. Analyzers must match across subs
    (the addIndexes equality contract). Segment names are content-hashed
    and must be distinct — composing an index with itself is refused
    (use add_indexes, which re-keys)."""

    def __init__(self, index_dirs: list[str]):
        import dataclasses

        from lucene_ray.index.manifest import Manifest

        if not index_dirs:
            raise ValueError("MultiReader needs at least one index")
        self.subs = [IndexReader(d) for d in index_dirs]
        analyzers = {s.manifest.analyzer for s in self.subs}
        if len(analyzers) > 1:
            raise ValueError(f"analyzer mismatch across subs: {analyzers}")
        segs, self._dir_of = [], {}
        base = 0
        for sub in self.subs:
            for e in sub.segments:
                if e.name in self._dir_of:
                    raise ValueError(
                        f"duplicate segment {e.name}: composing an index "
                        "with itself is unsupported (use add_indexes)"
                    )
                self._dir_of[e.name] = sub.index_dir
                segs.append(
                    dataclasses.replace(
                        e, docid_base=base + e.docid_base
                    )
                )
            base += sub.doc_count
        self.index_dir = index_dirs[0]  # cache keys only; reads use _dir_of
        self.manifest = Manifest(
            generation=-1,  # composite views are not committable
            analyzer=self.subs[0].manifest.analyzer,
            doc_count=base,
            sum_ttf=sum(s.sum_ttf for s in self.subs),
            segments=segs,
        )
        self.doc_count = base
        self.sum_ttf = self.manifest.sum_ttf
        self._readers = {}

    def segment_reader(self, name: str) -> SegmentReader:
        if name not in self._readers:
            entry = next(s for s in self.segments if s.name == name)
            self._readers[name] = SegmentReader(
                segment_dir(self._dir_of[name], entry.name),
                entry.docid_base,
                entry.doc_count,
                del_gen=getattr(entry, "del_gen", 0),
                dv_gen=getattr(entry, "dv_gen", 0),
                soft_del_gen=getattr(entry, "soft_del_gen", 0),
            )
        return self._readers[name]


class ParallelSegmentReader:
    """One logical segment whose FIELDS come from several aligned segment
    readers (index/ParallelLeafReader.java): the first sub is PRIMARY
    (content postings, norms, doc lengths, live docs, stored fields);
    keyword `field:value` terms, doc values and points route to the FIRST
    sub carrying the field/term — the reference's first-reader-wins field
    mapping. Subs must cover the SAME docids (doc_count equality is
    enforced by ParallelCompositeReader)."""

    def __init__(self, subs: list):
        self.subs = subs
        self.primary = subs[0]

    def __getattr__(self, name):
        # norms/doc_len/live_mask/stored/seg_dir/docid_base/... -> primary
        return getattr(self.primary, name)

    # ---- term surface: bare terms are content (primary); ':'-terms route
    def _route_term(self, term: str):
        if ":" not in term:
            return self.primary
        for s in self.subs:
            if s.term_row(term) is not None:
                return s
        return self.primary

    def term_index(self, term: str) -> int:
        return self._route_term(term).term_index(term)

    def term_row(self, term: str):
        return self._route_term(term).term_row(term)

    def term_cursor(self, term: str):
        return self._route_term(term).term_cursor(term)

    def postings(self, term: str):
        return self._route_term(term).postings(term)

    def term_stats(self, term: str):
        return self._route_term(term).term_stats(term)

    # ---- field-routed sidecars
    def _route_field(self, field: str, schema_fn: str):
        for s in self.subs:
            if field in getattr(s, schema_fn)():
                return s
        return self.primary

    def doc_values_schema(self) -> list[str]:
        out: list[str] = []
        for s in self.subs:
            out.extend(f for f in s.doc_values_schema() if f not in out)
        return out

    def doc_values(self, field: str):
        return self._route_field(field, "doc_values_schema").doc_values(field)

    def sorted_dv_schema(self) -> list[str]:
        out: list[str] = []
        for s in self.subs:
            out.extend(f for f in s.sorted_dv_schema() if f not in out)
        return out

    def sorted_doc_values(self, field: str):
        return self._route_field(field, "sorted_dv_schema").sorted_doc_values(field)

    def point_range(self, field: str, lower, upper):
        for s in self.subs:
            if field in s._points_table():
                return s.point_range(field, lower, upper)
        return self.primary.point_range(field, lower, upper)

    def point_in_set(self, field: str, values):
        for s in self.subs:
            if field in s._points_table():
                return s.point_in_set(field, values)
        return self.primary.point_in_set(field, values)


class ParallelCompositeReader(IndexReader):
    """core/index/ParallelCompositeReader.java: ONE logical index whose
    fields are contributed by several indexes over the SAME document set
    — the add-a-field-without-reindexing pattern. Requires aligned
    segment plans (same doc_count per ordinal segment — the byte-bounded
    planner is deterministic for same-shape inputs; enforced loudly).
    The first index is primary (content + norms + deletes + stored);
    parallel indexes contribute keyword fields / doc values / points.
    Content-term statistics come from the primary alone, so parallel
    indexes should hold EMPTY content (doc_len 0) — also enforced."""

    def __init__(self, index_dirs: list[str]):
        if len(index_dirs) < 1:
            raise ValueError("ParallelCompositeReader needs >= 1 index")
        self.parts = [IndexReader(d) for d in index_dirs]
        prim = self.parts[0]
        for other in self.parts[1:]:
            if other.doc_count != prim.doc_count:
                raise ValueError(
                    "parallel indexes must cover the same docids: "
                    f"{other.doc_count} != {prim.doc_count}"
                )
            if len(other.segments) != len(prim.segments):
                raise ValueError("parallel indexes must share the segment plan")
            for a, b in zip(prim.segments, other.segments):
                if (a.docid_base, a.doc_count) != (b.docid_base, b.doc_count):
                    raise ValueError(
                        "parallel segment plans diverge: "
                        f"{(a.docid_base, a.doc_count)} != "
                        f"{(b.docid_base, b.doc_count)}"
                    )
            if other.sum_ttf != 0:
                raise ValueError(
                    "parallel (non-primary) indexes must hold empty content "
                    "(content stats come from the primary alone)"
                )
        self.index_dir = prim.index_dir
        self.manifest = prim.manifest
        self.doc_count = prim.doc_count
        self.sum_ttf = prim.sum_ttf
        self._readers = {}

    def segment_reader(self, name: str) -> "ParallelSegmentReader":
        if name not in self._readers:
            idx = next(
                i for i, s in enumerate(self.parts[0].segments)
                if s.name == name
            )
            subs = [
                p.segment_reader(p.segments[idx].name) for p in self.parts
            ]
            self._readers[name] = ParallelSegmentReader(subs)
        return self._readers[name]

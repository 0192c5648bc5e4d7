"""The per-segment file table: every file a segment directory holds is ONE
row here; builder, merge, upgrade, addIndexes, CheckIndex, disk usage and
the readers read the table instead of spelling file names.

A row gives the file ``name`` (for generation files also ``gen_name``, a
``{gen}`` pattern, and the SegmentEntry attributes of the generation and,
for the delete masks, of its count; a mask has no generation-0 file), its
addressing (``doc_ordered``: row i = local doc i, or ``docid``: the column
of local docids), its disk-usage ``component``, its ``row_group`` size
(None = the writer's default) and its ``merge`` rule:
  CONCAT  read every input whole, concat in doc order;
  STREAM  append the inputs batch by batch (wide rows: bounded RSS);
  REBASE  shift the docid column by the input's doc offset, then drop
          tombstoned docs' rows if ``reclaim`` and re-sort by (field,
          ``sort_key``, docid) if a key is given;
  ""      not merged by the table loop: merge_segments rebuilds postings,
          norms and the masks itself; bloom and entry are derived.
Lucene analog: each codec format owns its files and its merge step, and
SegmentMerger walks the formats (index/SegmentMerger.java:109).
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

CONCAT, STREAM, REBASE = "concat", "stream", "rebase"


@dataclass(frozen=True)
class SegFile:
    name: str
    component: str
    gen_name: str = ""
    gen_attr: str = ""
    count_attr: str = ""
    doc_ordered: bool = False
    docid: str = ""
    merge: str = ""
    reclaim: bool = False
    sort_key: str = ""
    row_group: int | None = None

    def path(self, seg_dir: str, gen: int = 0) -> str:
        """The file at generation ``gen`` (0 = the base file)."""
        name = self.gen_name.format(gen=gen) if gen else self.name
        return os.path.join(seg_dir, name)

    def gen(self, entry) -> int:
        """The entry's current generation of this file (0 for plain files)."""
        return getattr(entry, self.gen_attr) if self.gen_attr else 0

    def latest(self, seg_dir: str, entry) -> str:
        return self.path(seg_dir, self.gen(entry))

    def matches(self, fname: str) -> bool:
        pattern = re.escape(self.gen_name).replace(r"\{gen\}", r"\d+")
        gen_match = self.gen_name and re.fullmatch(pattern, fname)
        return fname == self.name or bool(gen_match)

    def write(self, seg_dir: str, table: pa.Table, gen: int = 0) -> None:
        pq.write_table(table, self.path(seg_dir, gen), row_group_size=self.row_group)


# row-group size for the term-vectors sidecar: (doc, term) pair rows,
# doc-major sorted, so parquet doc min/max stats give O(1) row-group
# pruning for a single-doc fetch
TV_ROW_GROUP = 65536
SPATIAL_ROW_GROUP = 512  # BKD leaf analog: the 2-D sidecar's pruning granularity

POSTINGS = SegFile("postings.parquet", "postings")
NORMS = SegFile("norms.parquet", "norms", doc_ordered=True)
STORED = SegFile("stored.parquet", "stored_fields", doc_ordered=True, merge=STREAM)
DOCVALUES = SegFile(
    "docvalues.parquet", "doc_values", gen_name="docvalues_g{gen}.parquet",
    gen_attr="dv_gen", doc_ordered=True, merge=CONCAT,
)
DOCVALUES_SORTED = SegFile(
    "docvalues_sorted.parquet", "doc_values", doc_ordered=True, merge=CONCAT
)
# tombstoned docs keep their triangles (no reclaim): live filtering happens
# at query time
SHAPES = SegFile("shapes.parquet", "spatial", docid="docid", merge=REBASE)
DOCVALUES_SORTEDNUMERIC = SegFile(
    "docvalues_sortednumeric.parquet", "doc_values", doc_ordered=True,
    merge=CONCAT,
)
DOCVALUES_BINARY = SegFile(
    "docvalues_binary.parquet", "doc_values", doc_ordered=True, merge=CONCAT
)
# merge_segments folds the latest DV generation into the points values
# before the re-sort (the one special case of the table loop)
POINTS = SegFile(
    "points.parquet", "points", docid="docid", merge=REBASE, reclaim=True,
    sort_key="value",
)
SPATIAL = SegFile(
    "spatial.parquet", "spatial", docid="docid", merge=REBASE, reclaim=True,
    sort_key="morton", row_group=SPATIAL_ROW_GROUP,
)
RANGES = SegFile(
    "ranges.parquet", "points", docid="docid", merge=REBASE, reclaim=True,
    sort_key="lo",
)
TERMVECTORS = SegFile(
    "termvectors.parquet", "term_vectors", docid="doc", merge=STREAM,
    reclaim=True, row_group=TV_ROW_GROUP,
)
LIVEDOCS = SegFile(
    "", "live_docs", gen_name="livedocs_g{gen}.parquet", gen_attr="del_gen",
    count_attr="del_count", doc_ordered=True,
)
SOFTDELETES = SegFile(
    "", "live_docs", gen_name="softdeletes_g{gen}.parquet",
    gen_attr="soft_del_gen", count_attr="soft_del_count", doc_ordered=True,
)
BLOOM = SegFile("bloom_terms.npy", "postings")  # derived from the term column
ENTRY = SegFile("entry.json", "metadata")

# merge_segments walks this order (doc values before points); GEN_FILES
# keeps it too, as the (del_gen, dv_gen, soft_del_gen) order of the merge
# identity hash
TABLE = (
    POSTINGS, NORMS, STORED, LIVEDOCS, DOCVALUES, DOCVALUES_SORTED, SHAPES,
    DOCVALUES_SORTEDNUMERIC, DOCVALUES_BINARY, POINTS, SPATIAL, RANGES,
    TERMVECTORS, SOFTDELETES, BLOOM, ENTRY,
)
GEN_FILES = tuple(f for f in TABLE if f.gen_attr)


def file_row(fname: str) -> SegFile | None:
    """The table row a segment-dir file name belongs to (None: unknown)."""
    return next((f for f in TABLE if f.matches(fname)), None)


def segment_bytes(seg_dir: str) -> int:
    """The entry's ``bytes``: postings + norms + stored (what merge policy
    sizes segments by)."""
    return sum(os.path.getsize(f.path(seg_dir)) for f in (POSTINGS, NORMS, STORED))


def read_mask(f: SegFile, seg_dir: str, gen: int, doc_count: int) -> np.ndarray:
    """A delete mask (LIVEDOCS: True = live; SOFTDELETES: True = soft-deleted)
    at generation ``gen``; generation 0 is the no-deletes mask."""
    live = f is LIVEDOCS
    if gen <= 0:
        return np.full(doc_count, live, dtype=bool)
    t = pq.read_table(f.path(seg_dir, gen))
    col = "live" if live else "deleted"
    return t.column(col).to_numpy(zero_copy_only=False).astype(bool)


def write_mask(f: SegFile, seg_dir: str, gen: int, mask: np.ndarray) -> None:
    col = "live" if f is LIVEDOCS else "deleted"
    f.write(seg_dir, pa.table({col: pa.array(mask, type=pa.bool_())}), gen)

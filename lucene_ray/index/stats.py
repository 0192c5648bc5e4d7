"""Global index statistics + global posting lists via the salted
groupby("term") shuffle — the explicit wide-exchange path of the engine.

The per-segment build deliberately avoids any global shuffle (term grouping
is segment-local). These pipelines produce the INDEX-WIDE artifacts:

- ``global_term_stats``: (term, df, ttf) across all segments. Input = the
  segments' postings tables (term, df, ttf columns only — column pruning at
  the read); each segment row is already a partial aggregate, so the
  groupby moves one row per (term, segment): the combiner pattern bounds
  both volume and per-key skew at #segments rows.

- ``build_global_postings``: one GLOBAL posting list per term, built with
  the north-star shuffle: explode per-segment postings to
  (term, salt, docids...) rows where ``salt = docid_base // salt_range``,
  groupby([term, salt]) -> merge rows within a salt bucket -> concatenate
  buckets per term (buckets are docid-range DISJOINT and ordered by salt,
  so concatenation needs no re-sort — SURVEY.md §4 skew row: salted keys
  split a hot term's postings into docid-range subgroups whose sub-lists
  concatenate cheaply). Hot terms (df-heavy, the ``the``/``int``/``return``
  of code) therefore never funnel through a single reducer.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

import ray.data
from ray.data.aggregate import Sum

from lucene_ray.index import segfiles
from lucene_ray.search.reader import IndexReader


def _postings_paths(index_dir: str) -> list[str]:
    r = IndexReader(index_dir)
    from lucene_ray.index.manifest import segment_dir

    return [segfiles.POSTINGS.path(segment_dir(index_dir, e.name)) for e in r.segments]


def global_term_stats(index_dir: str) -> "ray.data.Dataset":
    """(term, df, ttf) summed across segments (CollectionStatistics /
    TermStatistics materialized as a table — the broadcast side for scoring
    at 100 TB scale, SURVEY.md §2.4 stats-broadcast row)."""
    ds = ray.data.read_parquet(_postings_paths(index_dir), columns=["term", "df", "ttf"])
    return ds.groupby("term").aggregate(
        Sum("df", alias_name="df"), Sum("ttf", alias_name="ttf")
    )


def build_global_postings(
    index_dir: str, salt_range: int = 1 << 20
) -> "ray.data.Dataset":
    """Global per-term posting lists through the salted groupby shuffle.

    Returns a Dataset of (term, salt, docids list<int64>, tfs list<int64>)
    — one row per (term, salt bucket); a term's full list is the
    concatenation of its buckets in salt order.
    """
    reader = IndexReader(index_dir)
    seg_meta = [(e.name, e.docid_base) for e in reader.segments]
    from lucene_ray.index.manifest import segment_dir

    items = [
        {
            "path": segfiles.POSTINGS.path(segment_dir(index_dir, name)),
            "docid_base": base,
        }
        for name, base in seg_meta
    ]

    def explode(batch: pa.Table) -> pa.Table:
        import pyarrow.parquet as pq

        from lucene_ray.codec.postings_codec import decode_segment_pairs

        parts = []
        for path, base in zip(
            batch.column("path").to_pylist(), batch.column("docid_base").to_pylist()
        ):
            t = pq.read_table(path)
            # whole-segment batched decode (the merge path's kernel) + Arrow
            # list columns straight from the (offsets, values) pair — no
            # per-term python loops, no pylist round-trips
            terms, df, pair_doc, pair_tf, _ = decode_segment_pairs(
                t, with_positions=False
            )
            offsets = np.concatenate(([0], np.cumsum(df))).astype(np.int32)
            parts.append(
                pa.table(
                    {
                        "term": pa.array(terms, type=pa.string()),
                        "salt": pa.array(
                            np.full(len(terms), int(base) // salt_range), type=pa.int64()
                        ),
                        "docids": pa.ListArray.from_arrays(
                            pa.array(offsets), pa.array(pair_doc + base, type=pa.int64())
                        ),
                        "tfs": pa.ListArray.from_arrays(
                            pa.array(offsets), pa.array(pair_tf, type=pa.int64())
                        ),
                    }
                )
            )
        return pa.concat_tables(parts)

    exploded = ray.data.from_items(items).map_batches(
        explode, batch_format="pyarrow", batch_size=1
    )

    def merge_bucket(g: pa.Table) -> pa.Table:
        # map_groups delivers ONE (term, salt) group per call: concatenate
        # the per-segment postings lists and re-sort by docid, all as flat
        # Arrow/numpy arrays (no per-row tolist round-trip)
        docs = g.column("docids").combine_chunks().flatten().to_numpy(
            zero_copy_only=False
        )
        tfs = g.column("tfs").combine_chunks().flatten().to_numpy(
            zero_copy_only=False
        )
        order = np.argsort(docs, kind="stable")
        offsets = pa.array([0, len(docs)], type=pa.int32())
        return pa.table(
            {
                "term": g.column("term").slice(0, 1),
                "salt": g.column("salt").slice(0, 1),
                "docids": pa.ListArray.from_arrays(
                    offsets, pa.array(docs[order], type=pa.int64())
                ),
                "tfs": pa.ListArray.from_arrays(
                    offsets, pa.array(tfs[order], type=pa.int64())
                ),
            }
        )

    return exploded.groupby(["term", "salt"]).map_groups(
        merge_bucket, batch_format="pyarrow"
    )


def assemble_term(global_postings_pdf, term: str) -> tuple[np.ndarray, np.ndarray]:
    """Concatenate a term's salt buckets (driver-side helper for tests)."""
    rows = global_postings_pdf[global_postings_pdf.term == term].sort_values("salt")
    if len(rows) == 0:
        return np.array([], dtype=np.int64), np.array([], dtype=np.int64)
    docs = np.concatenate([np.asarray(x) for x in rows.docids])
    tfs = np.concatenate([np.asarray(x) for x in rows.tfs])
    return docs, tfs

"""Decode-layer timings of one index, printed as one JSON object.

``decode_stream``: every stream of every live segment (the doc, tf, pos,
off, offlen and pay blobs of each term row; empty blobs are skipped) is
decoded ``--reps`` times, each from a memoryview slice of its Arrow column
as the query path reads it, and its best time is summed into the bucket of
its value count: <=128, 129-1,024, 1,025-8,192, >8,192.

``decode_segment_pairs``: the best of ``--reps`` whole-segment decodes
(with the positions, offsets and payloads the segment has) of the live
segment with the most postings, the merge's input.

Usage: python tools/decode_bench.py INDEX_DIR [--reps 5]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

# (stream blob column, column of its value count)
STREAMS = (
    ("doc_blob", "df"), ("tf_blob", "df"), ("pos_blob", "ttf"),
    ("off_blob", "ttf"), ("offlen_blob", "ttf"), ("pay_blob", "ttf"),
)
BUCKETS = ((128, "le_128"), (1024, "129_1024"), (8192, "1025_8192"), (float("inf"), "gt_8192"))


def best_ms(fn, reps: int) -> float:
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best * 1000


def live_tables(index_dir: str) -> list:
    """(segment name, postings table) of every live segment."""
    import pyarrow.parquet as pq

    from lucene_ray.index import segfiles
    from lucene_ray.index.manifest import read_manifest, segment_dir

    return [
        (e.name, pq.read_table(segfiles.POSTINGS.path(segment_dir(index_dir, e.name))))
        for e in read_manifest(index_dir).live_segments
    ]


def stream_table(tables: list, reps: int) -> dict:
    from lucene_ray.codec.forutil import decode_stream
    from lucene_ray.codec.postings_codec import column_reader

    out = {name: {"streams": 0, "values": 0, "ms": 0.0} for _, name in BUCKETS}
    for _seg, table in tables:
        for blob_col, count_col in STREAMS:
            if blob_col not in table.column_names:
                continue
            blob = column_reader(table.column(blob_col).combine_chunks())
            counts = table.column(count_col).to_numpy()
            for j, n in enumerate(counts.tolist()):
                b = blob(j)
                if not len(b):
                    continue
                row = out[next(name for top, name in BUCKETS if n <= top)]
                row["streams"] += 1
                row["values"] += n
                row["ms"] += best_ms(lambda: decode_stream(b, n), reps)
    for row in out.values():
        row["ms"] = round(row["ms"], 3)
    return out


def pairs_table(tables: list, reps: int) -> dict:
    """``decode_segment_pairs`` of the live segment with the most postings."""
    import pyarrow.compute as pc

    from lucene_ray.codec.postings_codec import decode_segment_pairs

    seg, table = max(tables, key=lambda st: pc.sum(st[1].column("ttf")).as_py() or 0)
    table = table.combine_chunks()
    has = lambda c: c in table.column_names and pc.sum(  # noqa: E731
        pc.binary_length(table.column(c))).as_py()
    args = (table, bool(has("pos_blob")), bool(has("off_blob")), bool(has("pay_blob")))
    return {
        "segment": seg,
        "terms": table.num_rows,
        "postings": int(pc.sum(table.column("df")).as_py()),
        "positions": int(pc.sum(table.column("ttf")).as_py()),
        "ms": round(best_ms(lambda: decode_segment_pairs(*args), reps), 3),
    }


def main(argv=None) -> dict:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("index_dir")
    ap.add_argument("--reps", type=int, default=5)
    args = ap.parse_args(argv)
    tables = live_tables(args.index_dir)
    streams = stream_table(tables, args.reps)
    out = {
        "index": args.index_dir,
        "segments": len(tables),
        "reps": args.reps,
        "decode_stream": streams,
        "decode_stream_total_ms": round(sum(r["ms"] for r in streams.values()), 3),
        "decode_segment_pairs": pairs_table(tables, args.reps),
    }
    print(json.dumps(out, indent=1))
    return out


if __name__ == "__main__":
    main()

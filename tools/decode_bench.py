"""Codec-layer timings of one index, printed as one JSON object.

``decode_stream``: every stream of every live segment (the doc, tf, pos,
off, offlen and pay blobs of each term row; empty blobs are skipped) is
decoded ``--reps`` times, each from a memoryview slice of its Arrow column
as the query path reads it, and its best time is summed into the bucket of
its value count: <=128, 129-1,024, 1,025-8,192, >8,192.

``encode_stream``: each of those streams, decoded, is re-encoded with
``encode_blocks_batched`` (the build's and the merge's encoder) ``--reps``
times, its best time summed into the same buckets.

``decode_segment_pairs``: the best of ``--reps`` whole-segment decodes
(with the positions, offsets and payloads the segment has) of the live
segment with the most postings, the merge's input.

``encode_segment``: every stream of that segment re-encoded in one
``encode_blocks_batched`` call, as a merge encodes its output.

``--against PATH`` loads PATH's ``lucene_ray/codec/forutil.py`` (another
checkout) into the same process and times its kernels on the same streams,
alternating the two modules per stream (per repetition for the segment
rows), so that host drift falls on both alike; each timed row then also
carries ``against_ms``, and ``encode_stream`` counts the streams whose
bytes differ (``differ``).

Usage: python tools/decode_bench.py INDEX_DIR [--reps 5] [--against PATH]
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import sys
import time

import numpy as np

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


def load_forutil(checkout: str):
    """``lucene_ray/codec/forutil.py`` of another checkout, as a module."""
    path = os.path.join(checkout, "lucene_ray", "codec", "forutil.py")
    spec = importlib.util.spec_from_file_location("against_forutil", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def live_tables(index_dir: str) -> list:
    """(segment name, postings table) of every live segment."""
    import pyarrow.parquet as pq

    from lucene_ray.index import segfiles
    from lucene_ray.index.manifest import read_manifest, segment_dir

    return [
        (e.name, pq.read_table(segfiles.POSTINGS.path(segment_dir(index_dir, e.name))))
        for e in read_manifest(index_dir).live_segments
    ]


def block_lens(n: int) -> np.ndarray:
    from lucene_ray.config import BLOCK_SIZE

    return np.minimum(n - np.arange(0, n, BLOCK_SIZE), BLOCK_SIZE)


def segment_streams(table):
    """(blob, value count) of every non-empty stream of a postings table."""
    from lucene_ray.codec.postings_codec import column_reader

    for blob_col, count_col in STREAMS:
        if blob_col not in table.column_names:
            continue
        blob = column_reader(table.column(blob_col).combine_chunks())
        for j, n in enumerate(table.column(count_col).to_numpy().tolist()):
            b = blob(j)
            if len(b):
                yield b, n


def stream_tables(tables: list, reps: int, mods: list) -> tuple[dict, dict]:
    """The ``decode_stream`` and ``encode_stream`` buckets; ``mods`` is
    this checkout's forutil, then optionally the other one."""
    names = ["ms", "against_ms"][: len(mods)]

    def buckets(extra=()):
        return {name: dict.fromkeys(("streams", "values", *names, *extra), 0)
                for _, name in BUCKETS}

    dec, enc = buckets(), buckets(("differ",) if len(mods) > 1 else ())
    for _seg, table in tables:
        for b, n in segment_streams(table):
            bucket = next(name for top, name in BUCKETS if n <= top)
            values, lens = mods[0].decode_stream(b, n), block_lens(n)
            blobs = []
            for m, key in zip(mods, names):
                dec[bucket][key] += best_ms(lambda: m.decode_stream(b, n), reps)
                enc[bucket][key] += best_ms(lambda: m.encode_blocks_batched(values, lens), reps)
                blobs.append(m.encode_blocks_batched(values, lens)[0])
            for row in (dec[bucket], enc[bucket]):
                row["streams"] += 1
                row["values"] += n
            if len(mods) > 1:
                enc[bucket]["differ"] += blobs[0] != blobs[1]
    for row in (*dec.values(), *enc.values()):
        for key in names:
            row[key] = round(row[key], 3)
    return dec, enc


def largest(tables: list):
    import pyarrow.compute as pc

    seg, table = max(tables, key=lambda st: pc.sum(st[1].column("ttf")).as_py() or 0)
    return seg, table.combine_chunks()


def pairs_table(tables: list, reps: int) -> dict:
    """``decode_segment_pairs`` of the live segment with the most postings."""
    import pyarrow.compute as pc

    from lucene_ray.codec.postings_codec import decode_segment_pairs

    seg, table = largest(tables)
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


def segment_encode(tables: list, reps: int, mods: list) -> dict:
    """Every stream of the segment with the most postings, encoded in one
    ``encode_blocks_batched`` call per module."""
    seg, table = largest(tables)
    values, lens = [], []
    for b, n in segment_streams(table):
        values.append(mods[0].decode_stream(b, n))
        lens.append(block_lens(n))
    values, lens = np.concatenate(values), np.concatenate(lens)
    out = {"segment": seg, "blocks": len(lens), "values": len(values)}
    best = [float("inf")] * len(mods)
    for _ in range(reps):  # alternate the modules per repetition
        for i, m in enumerate(mods):
            best[i] = min(best[i], best_ms(lambda: m.encode_blocks_batched(values, lens), 1))
    for key, ms in zip(("ms", "against_ms"), best):
        out[key] = round(ms, 3)
    return out


def main(argv=None) -> dict:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("index_dir")
    ap.add_argument("--reps", type=int, default=5)
    ap.add_argument("--against", help="another checkout whose forutil kernels are timed alongside")
    args = ap.parse_args(argv)
    from lucene_ray.codec import forutil

    mods = [forutil] + ([load_forutil(args.against)] if args.against else [])
    tables = live_tables(args.index_dir)
    dec, enc = stream_tables(tables, args.reps, mods)
    out = {
        "index": args.index_dir,
        "segments": len(tables),
        "reps": args.reps,
        "against": args.against,
        "decode_stream": dec,
        "decode_stream_total_ms": round(sum(r["ms"] for r in dec.values()), 3),
        "encode_stream": enc,
        "encode_stream_total_ms": round(sum(r["ms"] for r in enc.values()), 3),
        "decode_segment_pairs": pairs_table(tables, args.reps),
        "encode_segment": segment_encode(tables, args.reps, mods),
    }
    print(json.dumps(out, indent=1))
    return out


if __name__ == "__main__":
    main()

"""The reference-query table: every ``REFERENCE_QUERIES`` entry timed on
the pruned and on the exhaustive top-k path of an in-process
IndexSearcher, with a check that both paths return the same hits.

The index is built once and cached under ``--cache``:
``write_corpus(--docs docs, --shards shards, --seed)``, then
``build_index(target_docs=--target-docs)``, then
``maybe_merge(TieredMergePolicy())``. The defaults give the 200K-doc,
15-segment reference index (about 90 s of build and merge on one core).

Prints one JSON object. Per entry: the best process CPU time (ms) over
``--reps`` searches of each path, after one warm search, the two paths
taking turns to go first; ``total_hits``
and ``relation`` of both paths; whether the pruned docids and float32
score bytes equal the exhaustive path's; ``prepare_ms``, the best process
CPU time over the same reps of ``searcher.prepare(q)`` alone (parse,
lazy rewrite and multi-term expansion: the query layer before scoring).
``pruned_sum_ms``, ``exhaustive_sum_ms`` and ``prepare_sum_ms`` add the
entries up.

Usage: python tools/ref_queries.py [--docs 200000] [--seed 42]
       [--shards 32] [--target-docs 5000] [--reps 5]
       [--cache /tmp/lucene_ray_cache]
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def reference_index(cache: str, docs: int, seed: int, shards: int, target_docs: int) -> str:
    """The cached reference index directory, built first if absent (in a
    Ray session of its own unless one is running)."""
    import ray

    from lucene_ray.index.builder import build_index
    from lucene_ray.index.corpus import write_corpus
    from lucene_ray.index.merge import TieredMergePolicy, maybe_merge

    name = f"ref_n{docs}_s{shards}_seed{seed}_t{target_docs}"
    index_dir = os.path.join(cache, name, "index")
    done = os.path.join(cache, name, "index.done")
    if os.path.exists(done):
        return index_dir
    started = not ray.is_initialized()
    if started:
        ray.init(address="local", num_cpus=os.cpu_count(), include_dashboard=False,
                 logging_level="ERROR")
    try:
        paths = write_corpus(
            os.path.join(cache, name, "corpus"), n_docs=docs, n_shards=shards, seed=seed
        )
        shutil.rmtree(index_dir, ignore_errors=True)
        build_index(paths, index_dir, target_docs=target_docs)
        maybe_merge(index_dir, TieredMergePolicy())
    finally:
        if started:
            ray.shutdown()
    open(done, "w").close()
    return index_dir


def query_table(index_dir: str, reps: int = 5) -> dict:
    """Time and compare every REFERENCE_QUERIES entry on both paths."""
    import numpy as np

    from lucene_ray.pipelines.flagship import REFERENCE_QUERIES
    from lucene_ray.search.engine import IndexSearcher

    paths = {
        "pruned": IndexSearcher(index_dir, pruned=True),
        "exhaustive": IndexSearcher(index_dir, pruned=False),
    }
    best = {p: [float("inf")] * len(REFERENCE_QUERIES) for p in (*paths, "prepare")}
    hits = {p: [s.search(q, k) for _qid, q, k in REFERENCE_QUERIES] for p, s in paths.items()}
    for rep in range(reps):
        for i, (_qid, q, k) in enumerate(REFERENCE_QUERIES):
            # alternate which path goes first: the first one pays for the
            # caches the previous entry's searches left behind
            for p, s in list(paths.items())[:: 1 if rep % 2 == 0 else -1]:
                t0 = time.process_time()
                s.search(q, k)
                best[p][i] = min(best[p][i], (time.process_time() - t0) * 1000)
            t0 = time.process_time()
            paths["pruned"].prepare(q)
            best["prepare"][i] = min(best["prepare"][i], (time.process_time() - t0) * 1000)

    rows = []
    for i, (qid, q, k) in enumerate(REFERENCE_QUERIES):
        a, b = hits["pruned"][i], hits["exhaustive"][i]
        rows.append({
            "qid": qid,
            "query": q,
            "k": k,
            "pruned_ms": round(best["pruned"][i], 3),
            "exhaustive_ms": round(best["exhaustive"][i], 3),
            "prepare_ms": round(best["prepare"][i], 3),
            "total_hits": int(a.total_hits),
            "relation": a.relation,
            "exhaustive_total_hits": int(b.total_hits),
            "equal": a.docids.tolist() == b.docids.tolist()
            and np.asarray(a.scores, np.float32).tobytes()
            == np.asarray(b.scores, np.float32).tobytes(),
        })
    return {
        "index": index_dir,
        "segments": len(paths["pruned"].reader.segments),
        "docs": int(paths["pruned"].reader.doc_count),
        "reps": reps,
        "pruned_sum_ms": round(sum(r["pruned_ms"] for r in rows), 3),
        "exhaustive_sum_ms": round(sum(r["exhaustive_ms"] for r in rows), 3),
        "prepare_sum_ms": round(sum(r["prepare_ms"] for r in rows), 3),
        "all_equal": all(r["equal"] for r in rows),
        "queries": rows,
    }


def main(argv=None) -> dict:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--docs", type=int, default=200_000)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--shards", type=int, default=32)
    ap.add_argument("--target-docs", type=int, default=5000)
    ap.add_argument("--reps", type=int, default=5)
    ap.add_argument("--cache", default="/tmp/lucene_ray_cache")
    args = ap.parse_args(argv)
    index_dir = reference_index(args.cache, args.docs, args.seed, args.shards, args.target_docs)
    out = query_table(index_dir, args.reps)
    print(json.dumps(out, indent=1))
    return out


if __name__ == "__main__":
    main()

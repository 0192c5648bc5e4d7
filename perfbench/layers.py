"""Per-layer metrics of a traced run.

``LAYERS`` lists each metric with the end-to-end metric it should move and
on which workload. Self-time metrics (``*_s`` named in ``SELF_TIME``) come
from the spans; the rest from counters kept by the same wrappers or from
the manifest entries the engine writes. Layers that are not exercised by a
workload report 0. The end-to-end metrics named as what a layer should move
include the operation figures at the end of ``LAYERS``.
"""

from __future__ import annotations

import statistics

import numpy as np

# span name -> per-layer self-time metric
SELF_TIME = {
    "analysis.tokenize": "analysis.tokenize_s",
    "codec.encode": "codec.encode_s",
    "codec.decode": "codec.decode_s",
    "index.builder.build_index": "index.builder.build_index_s",
    "index.builder.segment": "index.builder.self_s",
    "index.builder.io": "index.builder.io_s",
    "index.merge.maybe_merge": "index.merge.maybe_merge_s",
    "index.merge.policy": "index.merge.policy_s",
    "index.merge.merge": "index.merge.merge_s",
    "index.writer.add": "index.writer.add_s",
    "index.manifest.publish": "index.manifest.publish_s",
    "search.reader.open": "search.reader.open_s",
    "search.query.parse": "search.query.parse_s",
    "search.rewrite": "search.rewrite.rewrite_s",
    "search.scorer.score": "search.scorer.score_s",
    "search.engine.search": "search.engine.search_s",
    "search.engine.reopen": "search.engine.reopen_s",
    "search.engine.stage_init": "search.engine.stage_init_s",
    "search.engine.stage_call": "search.engine.stage_convert_s",
}

# name: (unit, better, "end-to-end metric -> workload it should move")
LAYERS = {
    "analysis.tokenize_s": ("s", "lower", "build_docs_per_cpu_s -> batch_pipeline; refresh_cpu_p50_ms -> nrt_mixed"),
    "analysis.tokens_per_s": ("1/s", "higher", "build_docs_per_cpu_s -> batch_pipeline; refresh_cpu_p50_ms -> nrt_mixed"),
    "codec.encode_s": ("s", "lower", "build_docs_per_cpu_s, merge_cpu_s -> batch_pipeline"),
    "codec.decode_s": ("s", "lower", "query_cpu_p50_ms, query_cpu_tail_ms -> nrt_mixed; ~0 on query_warm"),
    "codec.postings_decoded": ("count", "lower", "query_cpu_p50_ms, query_cpu_tail_ms -> nrt_mixed; ~0 on query_warm"),
    "codec.bytes_per_posting": ("B", "lower", "index_bytes_per_doc -> batch_pipeline"),
    "codec.postings_per_doc": ("count", "lower", "index_bytes_per_doc -> batch_pipeline"),
    "index.builder.segment_s_p50": ("s", "lower", "build_docs_per_cpu_s -> batch_pipeline"),
    "index.builder.straggler_ratio": ("ratio", "lower", "build_docs_per_cpu_s -> batch_pipeline"),
    "index.builder.cpu_wall_ratio": ("ratio", "higher", "build_docs_per_cpu_s -> batch_pipeline"),
    "index.builder.segments": ("count", "lower", "build_docs_per_cpu_s -> batch_pipeline"),
    "index.builder.io_s": ("s", "lower", "build_docs_per_cpu_s -> batch_pipeline"),
    "index.builder.self_s": ("s", "lower", "build_docs_per_cpu_s -> batch_pipeline"),
    "index.builder.dispatch_s": ("s", "lower", "build_docs_per_cpu_s -> batch_pipeline"),
    "index.builder.build_index_s": ("s", "lower", "build_docs_per_cpu_s -> batch_pipeline"),
    "index.merge.policy_s": ("s", "lower", "merge_cpu_s -> batch_pipeline"),
    "index.merge.rounds": ("count", "lower", "merge_cpu_s -> batch_pipeline"),
    "index.merge.merges": ("count", "lower", "merge_cpu_s -> batch_pipeline"),
    "index.merge.task_s_max": ("s", "lower", "merge_cpu_s -> batch_pipeline"),
    "index.merge.merge_s": ("s", "lower", "merge_cpu_s -> batch_pipeline"),
    "index.merge.maybe_merge_s": ("s", "lower", "merge_cpu_s -> batch_pipeline"),
    "index.merge.bytes_rewritten": ("B", "lower", "merge_cpu_s -> batch_pipeline; refresh_cpu_tail_ms -> nrt_mixed"),
    "index.merge.write_amplification": ("ratio", "lower", "merge_cpu_s -> batch_pipeline; refresh_cpu_tail_ms -> nrt_mixed"),
    "index.merge.stall_s": ("s", "lower", "refresh_cpu_tail_ms -> nrt_mixed"),
    "index.writer.add_s": ("s", "lower", "refresh_cpu_p50_ms -> nrt_mixed"),
    "index.manifest.publish_s": ("s", "lower", "refresh_cpu_p50_ms -> nrt_mixed"),
    "index.writer.live_segments": ("count", "lower", "query_cpu_p50_ms -> nrt_mixed"),
    "search.reader.open_s": ("s", "lower", "refresh_cpu_p50_ms -> nrt_mixed; pool_first_result_cpu_s (per layer) -> batch_pipeline"),
    "search.reader.segment_opens": ("count", "lower", "refresh_cpu_p50_ms -> nrt_mixed; pool_first_result_cpu_s (per layer) -> batch_pipeline"),
    "search.reader.term_lookups": ("count", "lower", "query_cpu_p50_ms -> query_warm vs nrt_mixed"),
    "search.reader.cursor_cache_hit_ratio": ("ratio", "higher", "query_cpu_p50_ms -> query_warm (~1) vs nrt_mixed"),
    "search.query.parse_s": ("s", "lower", "query_cpu_p50_ms -> query_warm"),
    "search.rewrite.rewrite_s": ("s", "lower", "query_cpu_tail_ms -> query_warm"),
    "search.rewrite.expanded_terms": ("count", "lower", "query_cpu_tail_ms -> query_warm"),
    "search.scorer.score_s": ("s", "lower", "query_cpu_p50_ms, queries_per_cpu_s -> query_warm"),
    "search.scorer.candidates_per_hit": ("ratio", "lower", "query_cpu_p50_ms -> query_warm"),
    "search.scorer.pruned_ratio": ("ratio", "higher", "query_cpu_p50_ms -> query_warm"),
    "search.scorer.exhaustive_ratio": ("ratio", "lower", "query_cpu_p50_ms -> query_warm"),
    "search.engine.search_s": ("s", "lower", "query_cpu_p50_ms -> query_warm"),
    "search.engine.reopen_s": ("s", "lower", "refresh_cpu_p50_ms -> nrt_mixed"),
    "search.engine.stage_init_s": ("s", "lower", "pool_first_result_cpu_s -> batch_pipeline"),
    "search.engine.stage_convert_s": ("s", "lower", "pool_steady_qps -> batch_pipeline"),
    "search.engine.pool_overhead_s": ("s", "lower", "pool_first_result_cpu_s, pool_steady_qps -> batch_pipeline"),
    # end-to-end figures that spread too widely from run to run to hold a
    # bound on a shared host, where a whole run can be slow: whole
    # operations of 50 ms and more, and the query tail and throughput. They
    # are reported here from the samples a traced run takes before tracing
    # begins
    "build_docs_per_cpu_s": ("1/s", "higher", "docs over build_index CPU seconds; pipeline_cpu_s -> batch_pipeline"),
    "merge_cpu_s": ("s", "lower", "maybe_merge CPU seconds; pipeline_cpu_s -> batch_pipeline"),
    "pool_first_result_cpu_s": ("s", "lower", "pipeline_cpu_s -> batch_pipeline"),
    "pipeline_cpu_s": ("s", "lower", "the offline job: build + merge + pool CPU seconds -> batch_pipeline"),
    "pool_steady_qps": ("1/s", "higher", "pipeline_cpu_s -> batch_pipeline"),
    "query_cpu_tail_ms": ("ms", "lower", "query CPU tail (uncalibrated, one pass) -> query_warm, nrt_mixed"),
    "queries_per_cpu_s": ("1/s", "higher", "queries per CPU second (uncalibrated, one pass) -> query_warm"),
    "refresh_cpu_p50_ms": ("ms", "lower", "add_documents until the doc is visible after reopen -> nrt_mixed"),
    "refresh_cpu_tail_ms": ("ms", "lower", "p75 of the same -> nrt_mixed"),
    "trace.wall_s": ("s", "lower", "traced wall time: the window plus the in-process replays"),
    "trace.remainder_s": ("s", "lower", "wall time no layer span covers (client loop, Ray scheduling and waits)"),
    "trace.overhead_s": ("s", "lower", "traced minus untraced wall time of the same window"),
    "trace.spans": ("count", "lower", "spans recorded"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _new_entries(before, after, merged: bool) -> list:
    old = {e.name for e in before.live_segments} if before is not None else set()
    return [
        e for e in after.live_segments
        if e.name not in old and ("merged_from" in (e.input or {})) == merged
    ]


def compute(ctx) -> dict[str, float]:
    """Every metric of ``LAYERS`` for the traced run in ``ctx``."""
    tr = ctx.tracer
    out = {name: 0.0 for name in LAYERS}
    table = tr.table()
    for span, metric in SELF_TIME.items():
        out[metric] = table.get(span, {}).get("self_s", 0.0)
    c = tr.counts

    # the remainder is the self time of the benchmark's own root spans
    # (op.*, replay.*) plus the window's time between roots
    replay_wall = sum(
        (s[2] - s[1]) / 1e9 for s in tr.spans if s[3] is None and s[0].startswith("replay.")
    )
    window, untraced = ctx.window
    out["trace.wall_s"] = window + replay_wall
    out["trace.remainder_s"] = out["trace.wall_s"] - sum(out[m] for m in SELF_TIME.values())
    out["trace.overhead_s"] = window - untraced
    out["trace.spans"] = float(len(tr.spans))

    tok = table.get("analysis.tokenize", {})
    out["analysis.tokens_per_s"] = _ratio(c["analysis.tokens"], tok.get("total_s", 0.0))
    out["codec.postings_decoded"] = float(c["codec.postings_decoded"])

    # builder: the segments built inside the window, from their entries
    built = []
    for build_s, m, _merged in ctx.builds:
        built.extend(m.live_segments)
        busy = sum(e.metrics.get("build_secs", 0.0) for e in m.live_segments)
        out["index.builder.dispatch_s"] += build_s - busy / ctx.cores
    for added, _merged in ctx.commits:
        built.append(max(added.live_segments, key=lambda e: e.docid_base))
    if built:
        secs = sorted(e.metrics.get("build_secs", 0.0) for e in built)
        p50 = statistics.median(secs)
        out["index.builder.segment_s_p50"] = p50
        out["index.builder.straggler_ratio"] = _ratio(secs[-1], p50)
        out["index.builder.cpu_wall_ratio"] = _ratio(
            sum(e.metrics.get("build_cpu_secs", 0.0) for e in built), sum(secs)
        )
        out["index.builder.segments"] = float(len(built))

    # merges: entries the window's maybe_merge calls wrote
    merged_entries = []
    for _s, m, after in ctx.builds:
        merged_entries += _new_entries(m, after, merged=True)
    for added, after in ctx.commits:
        merged_entries += _new_entries(added, after, merged=True)
    out["index.merge.rounds"] = float(c["index.merge.rounds"])
    out["index.merge.merges"] = float(c["index.merge.merges"])
    out["index.merge.task_s_max"] = max(
        (e.metrics.get("build_secs", 0.0) for e in merged_entries), default=0.0
    )
    rewritten = float(sum(e.bytes for e in merged_entries))
    flushed = float(sum(e.bytes for e in built))
    out["index.merge.bytes_rewritten"] = rewritten
    out["index.merge.write_amplification"] = _ratio(flushed + rewritten, flushed)
    out["index.merge.stall_s"] = sum(
        (s[2] - s[1]) / 1e9 for i, s in enumerate(tr.spans)
        if s[0] == "index.merge.maybe_merge" and tr.spans[tr.root_of(i)][0] == "op.refresh"
    )

    live = tr.samples.get("live_segments", [])
    out["index.writer.live_segments"] = statistics.fmean(live) if live else 0.0

    final = None
    if ctx.commits:
        final = ctx.commits[-1][1]
    elif ctx.builds:
        final = ctx.builds[-1][2]
    if final is not None and final.doc_count:
        postings = sum(e.metrics.get("postings", 0) for e in final.live_segments)
        out["codec.bytes_per_posting"] = _ratio(sum(e.bytes for e in final.live_segments), postings)
        out["codec.postings_per_doc"] = postings / final.doc_count

    out["search.reader.segment_opens"] = float(c["search.reader.segment_opens"])
    out["search.reader.term_lookups"] = float(c["search.reader.term_lookups"])
    present = c["search.reader.cursor_calls"] - c["search.reader.absent_lookups"]
    out["search.reader.cursor_cache_hit_ratio"] = _ratio(
        present - c["search.reader.cache_misses"], present
    )
    out["search.rewrite.expanded_terms"] = float(c["search.rewrite.expanded_terms"])
    calls = c["search.scorer.calls"]
    out["search.scorer.candidates_per_hit"] = _ratio(
        c["search.scorer.candidates"], c["search.scorer.hits"]
    )
    out["search.scorer.pruned_ratio"] = _ratio(c["search.scorer.inexact"], calls)
    out["search.scorer.exhaustive_ratio"] = _ratio(c["search.scorer.exhaustive"], calls)

    stage = (table.get("search.engine.stage_init", {}).get("total_s", 0.0)
             + table.get("search.engine.stage_call", {}).get("total_s", 0.0))
    if ctx.pool_wall_s:
        out["search.engine.pool_overhead_s"] = ctx.pool_wall_s - stage / ctx.cores
    s = ctx.samples

    def untraced(name: str) -> list[float]:
        return getattr(s, name)[: ctx.untraced.get(name, 0)]

    med = statistics.median
    if untraced("build_s"):
        out["build_docs_per_cpu_s"] = s.build_docs / med(untraced("build_s"))
        out["merge_cpu_s"] = med(untraced("merge_s"))
    if untraced("pipeline_s"):
        out["pool_first_result_cpu_s"] = med(untraced("pool_first_s"))
        out["pipeline_cpu_s"] = med(untraced("pipeline_s"))
        out["pool_steady_qps"] = med(untraced("pool_steady_qps"))
    if untraced("query_ms"):
        q = untraced("query_ms")
        out["query_cpu_tail_ms"] = float(np.percentile(q, ctx.shape.query_pct))
        out["queries_per_cpu_s"] = len(q) / (sum(q) / 1000)
    if untraced("refresh_ms"):
        out["refresh_cpu_p50_ms"] = float(np.percentile(untraced("refresh_ms"), 50))
        out["refresh_cpu_tail_ms"] = float(np.percentile(untraced("refresh_ms"), ctx.shape.refresh_pct))
    return out

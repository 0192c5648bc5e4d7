"""In-memory span recorder and the wrappers that attach it to the engine's
public functions.

A span is (name, start, end, parent, request): ``parent`` is the index of
the enclosing span, ``request`` the id shared by every span of one query,
commit or pipeline step. Spans are recorded only on the thread that
created the tracer; a span's self time is its duration minus the time its
direct children cover, so the self times of one tree sum to its root.
"""

from __future__ import annotations

import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, request]
        self.counts: Counter = Counter()
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.enabled = False
        self._stack: list[int] = []
        self._next_request = 0
        self._thread = threading.get_ident()

    def recording(self) -> bool:
        return self.enabled and threading.get_ident() == self._thread

    def open_names(self) -> list[str]:
        return [self.spans[i][0] for i in self._stack]

    @contextmanager
    def span(self, name: str):
        if not self.recording():
            yield
            return
        parent = self._stack[-1] if self._stack else None
        if parent is None:
            request = self._next_request
            self._next_request += 1
        else:
            request = self.spans[parent][4]
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter_ns(), None, parent, request])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter_ns()

    def self_times(self) -> list[float]:
        """Seconds per span, children excluded."""
        own = [(s[2] - s[1]) for s in self.spans]
        for s in self.spans:
            if s[3] is not None:
                own[s[3]] -= s[2] - s[1]
        return [ns / 1e9 for ns in own]

    def table(self) -> dict[str, dict]:
        """Per span name: count, total seconds, self seconds."""
        out: dict[str, dict] = {}
        for s, own in zip(self.spans, self.self_times()):
            row = out.setdefault(s[0], {"count": 0, "total_s": 0.0, "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += (s[2] - s[1]) / 1e9
            row["self_s"] += own
        return out

    def root_of(self, idx: int) -> int:
        while self.spans[idx][3] is not None:
            idx = self.spans[idx][3]
        return idx

    def dump(self) -> list[list]:
        return [list(s) for s in self.spans]


class Patches:
    """Replaces module or class attributes and puts the originals back."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()


def spanned(tracer: Tracer, name: str, fn, after=None, when=None):
    """``fn`` wrapped in a span. ``after(args, kwargs, result)`` records
    counts; ``when()`` false skips the span (the call still runs)."""

    def wrapper(*args, **kwargs):
        if not tracer.recording() or (when is not None and not when()):
            return fn(*args, **kwargs)
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if after is not None:
            after(args, kwargs, result)
        return result

    wrapper.__wrapped__ = fn
    wrapper.__name__ = getattr(fn, "__name__", name)
    return wrapper


def counted(tracer: Tracer, key: str, fn, after=None):
    """``fn`` with a call counter and no span (for calls too frequent to
    span cheaply)."""

    def wrapper(*args, **kwargs):
        result = fn(*args, **kwargs)
        if tracer.recording():
            tracer.counts[key] += 1
            if after is not None:
                after(args, kwargs, result)
        return result

    wrapper.__wrapped__ = fn
    return wrapper


@contextmanager
def instrumented(tracer: Tracer):
    """Install every layer wrapper for the duration of the block.

    Each wrapper replaces the attribute its caller resolves at call time,
    e.g. ``lucene_ray.search.engine.score_segment_pruned`` (looked up in
    the engine module's globals by ``IndexSearcher.search``)."""
    import pyarrow.parquet as pq

    from lucene_ray.analysis import get_analyzer
    from lucene_ray.codec import postings_codec
    from lucene_ray.index import builder, merge, writer
    from lucene_ray.search import engine, reader, scorer

    t, p = tracer, Patches()
    in_segment = lambda: "index.builder.segment" in t.open_names()  # noqa: E731

    def tokens(_a, _k, result):
        t.counts["analysis.tokens"] += len(result[1])

    def decoded(_a, _k, result):
        if isinstance(result, list):
            t.counts["codec.postings_decoded"] += sum(len(x) for x in result)
        elif hasattr(result, "docids"):
            t.counts["codec.postings_decoded"] += len(result.docids)
            t.counts["search.reader.cache_misses"] += 1
        else:
            t.counts["codec.postings_decoded"] += len(result)

    def policy(_a, _k, specs):
        if specs:
            t.counts["index.merge.rounds"] += 1
            t.counts["index.merge.merges"] += len(specs)

    def rewritten(args, _k, result):
        if result is not args[0]:
            t.counts["search.rewrite.expanded_terms"] += max(
                0, len(engine.query_terms(result)) - len(engine.query_terms(args[0]))
            )

    def scored(_a, _k, result):
        docs, _scores, total, exact = result
        t.counts["search.scorer.calls"] += 1
        t.counts["search.scorer.hits"] += len(docs)
        t.counts["search.scorer.candidates"] += int(total)
        t.counts["search.scorer.inexact"] += int(not exact)

    def fallback(_a, _k, _r):
        # the pruned path hands shapes it cannot prune to this function
        if "search.scorer.score" in t.open_names():
            t.counts["search.scorer.exhaustive"] += 1

    def searched(args, _k, _r):
        t.samples["live_segments"].append(len(args[0].reader.segments))

    def cursor(_a, _k, result):
        if result is None:
            t.counts["search.reader.absent_lookups"] += 1

    class CountingCursor(scorer.SegmentTermCursor):
        __slots__ = ()

        def __init__(self, row):
            super().__init__(row)
            if t.recording():
                t.counts["search.reader.cache_misses"] += 1

    analyzer_cls = type(get_analyzer("code"))
    span_attrs = [
        (analyzer_cls, "tokenize_flat", "analysis.tokenize", tokens, None),
        (builder, "build_segment_postings", "codec.encode", None, None),
        (postings_codec, "postings_table_from_pairs", "codec.encode", None, None),
        (scorer, "decode_stream", "codec.decode", decoded, None),
        (scorer, "decode_stream_blocks", "codec.decode", decoded, None),
        (reader, "decode_term_postings", "codec.decode", decoded, None),
        (builder, "build_index", "index.builder.build_index", None, None),
        # builder.build_one_segment stays unwrapped: build_index's task
        # closure refers to it and would ship the wrapper to Ray workers
        (writer, "build_one_segment", "index.builder.segment", None, None),
        (pq.ParquetFile, "read_row_groups", "index.builder.io", None, in_segment),
        (pq, "write_table", "index.builder.io", None, in_segment),
        (merge, "maybe_merge", "index.merge.maybe_merge", None, None),
        (merge.TieredMergePolicy, "find_merges", "index.merge.policy", policy, None),
        (merge, "merge_segments", "index.merge.merge", None, None),
        (writer, "add_documents", "index.writer.add", None, None),
        (builder, "write_manifest", "index.manifest.publish", None, None),
        (writer, "write_manifest", "index.manifest.publish", None, None),
        (merge, "write_manifest", "index.manifest.publish", None, None),
        (reader.IndexReader, "__init__", "search.reader.open", None, None),
        (engine, "parse_query", "search.query.parse", None, None),
        (engine, "maybe_rewrite", "search.rewrite", rewritten, None),
        (engine, "score_segment_pruned", "search.scorer.score", scored, None),
        (engine, "score_segment_exhaustive", "search.scorer.score", scored, None),
        (engine.IndexSearcher, "search", "search.engine.search", searched, None),
        (engine, "reopen_if_changed", "search.engine.reopen", None, None),
        (engine.QueryScorerStage, "__init__", "search.engine.stage_init", None, None),
        (engine.QueryScorerStage, "__call__", "search.engine.stage_call", None, None),
    ]
    for owner, attr, name, after, when in span_attrs:
        p.set(owner, attr, spanned(t, name, owner.__dict__[attr], after, when))
    opens = lambda _a, _k, _r: t.counts.update(["search.reader.segment_opens"])  # noqa: E731
    p.set(reader.SegmentReader, "__init__", spanned(
        t, "search.reader.open", reader.SegmentReader.__dict__["__init__"], opens))
    p.set(scorer, "score_segment_exhaustive",
          counted(t, "search.scorer.exhaustive_any", scorer.score_segment_exhaustive, fallback))
    p.set(reader.SegmentReader, "term_index",
          counted(t, "search.reader.term_lookups", reader.SegmentReader.term_index))
    p.set(reader.SegmentReader, "term_cursor",
          counted(t, "search.reader.cursor_calls", reader.SegmentReader.term_cursor, cursor))
    p.set(reader.SegmentReader, "postings",
          counted(t, "search.reader.cursor_calls", reader.SegmentReader.postings, cursor))
    p.set(scorer, "SegmentTermCursor", CountingCursor)
    try:
        yield t
    finally:
        p.restore()

"""The three workloads, driven only through the engine's public functions.

Every workload builds an index and queries it, so every end-to-end metric
is measured on every workload; the workloads differ in the state the timed
queries meet:

- ``batch_pipeline`` runs the offline job once (build, tiered merge, actor
  pool query set), then times the job's first queries on fresh searchers;
- ``query_warm`` times in-process top-k queries over a warm static index;
- ``nrt_mixed`` times commit cycles (add, merge, reopen, visibility
  lookup) and the few queries after each commit, on cold readers.

All load comes from this one process; every call waits for its reply
(closed loop, one client).

Every timing is taken on two clocks: wall time, kept in the run record, and
CPU time without the hypervisor's steal (``clocks.py``), which the printed
metrics use. Even CPU time moves with the host: the speed of a fixed loop
varies by up to 1.7x over seconds on a shared host, and a whole run can be
slow. Operations of a few milliseconds still find moments when the host
lends the full core; operations of 50 ms and more do not. So the bounded
timing is the median query latency: each query is repeated on identical
state (the same query on a warm searcher, the same cold query on a fresh
searcher, the same query after the same commit on a copy of the same index),
each query counts at its best repetition, and a calibration probe timed
between the queries scales out how fast the host let the run go at that
speed. Builds, merges, pool runs, commits and the query tail are timed too,
for the run record and the per-layer metrics.
"""

from __future__ import annotations

import gc
import math
import os
import shutil
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from clocks import Watch, calibration, proc_cpu
from inputs import QueryGenerator, Vocabulary, distinct, doc_batch, write_seeded_corpus
from spans import Tracer, instrumented, spanned

TARGET_DOCS = 5_000  # build_index(target_docs=...) for every build
CURSOR_CACHE_CAP = 2_000_000  # decoded postings per segment reader (search/reader.py)
SETUP_REPEATS = 3
MIN_COLD_PASSES = 5  # batch_pipeline: passes over the cold queries, each on a fresh searcher
MIN_SEQUENCES = 3  # nrt_mixed: sequences of commit cycles, each on a copy of the base
CYCLES = 20  # commit cycles per sequence
QUERY_REPS = 4  # nrt_mixed: times the queries after a commit run, each on a freshly opened reader
POOL_QUERIES = 240
PROBE_EVERY = 25  # timed queries between two calibration probes
# the calibration's 5th-percentile time on an idle core of the 4-vCPU VM the
# bounds were set on; query metrics are scaled to a host where it is this.
# A query counts at its best of some 15-25 repetitions, about its own 5th
# percentile, so the probe is read at the same percentile
CALIBRATION_MS = 0.8
CALIBRATION_PCT = 5.0
POOL_PER_TEMPLATE = 32  # distinct queries per REFERENCE_QUERIES template
STREAM_LENGTH = 4096
ADD_DOCS = 20  # documents per commit
QUERIES_PER_CYCLE = 5


@dataclass(frozen=True)
class Shape:
    n_docs: int
    n_shards: int  # one segment per shard: 11+ shards make maybe_merge merge
    query_pct: float  # tail percentile of query latency
    refresh_pct: float = 75.0


SHAPES = {
    "batch_pipeline": Shape(n_docs=3_000, n_shards=20, query_pct=95.0),
    "query_warm": Shape(n_docs=1_100, n_shards=11, query_pct=99.0),
    "nrt_mixed": Shape(n_docs=1_100, n_shards=11, query_pct=90.0),
}


def min_samples(pct: float) -> int:
    """Samples needed for at least ten beyond the ``pct`` percentile."""
    return math.ceil(10 / (1 - pct / 100) - 1e-9)


class Tally:
    """Operations and checks attempted, and those that raised or were wrong."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 50:
                self.failures.append(what)
        return ok

    def run(self, what: str, fn, *args, **kwargs):
        """Call ``fn``; an exception counts as a failed operation and gives
        None."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as e:  # noqa: BLE001 - counted, reported, run goes on
            self.failed += 1
            if len(self.failures) < 50:
                self.failures.append(f"{what}: {type(e).__name__}: {e}")
            return None


def same_topk(got, want, tol: float = 1e-6) -> bool:
    """Identical docids, scores within ``tol``. Both are (docids, scores)."""
    gd, gs = np.asarray(got[0], dtype=np.int64), np.asarray(got[1], dtype=np.float64)
    wd, ws = np.asarray(want[0], dtype=np.int64), np.asarray(want[1], dtype=np.float64)
    return gd.shape == wd.shape and bool(np.array_equal(gd, wd)) and bool(
        np.all(np.abs(gs - ws) <= tol)
    )


def percentile(values: list[float], pct: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), pct))


def probe(ctx: "Context") -> None:
    """One calibration run, timed like a query, between timed queries."""
    with Watch(proc_cpu) as w:
        calibration()
    ctx.samples.add("probe_ms", w, 1000)


def best_of(values: list[float], keys: list) -> list[float]:
    """Each sample replaced by the smallest sample of its key: every
    occurrence of an operation costs its best repetition."""
    best: dict = {}
    for k, v in zip(keys, values):
        best[k] = min(v, best.get(k, v))
    return [best[k] for k in keys]


def index_bytes_per_doc(manifest) -> float:
    return sum(e.bytes for e in manifest.live_segments) / manifest.doc_count


@dataclass
class Samples:
    """Raw measurements of one run, reduced to metrics by ``metrics``. The
    timings are CPU time; ``wall`` holds the wall time of the same samples
    under the same names."""

    setup_s: list[float] = field(default_factory=list)
    build_s: list[float] = field(default_factory=list)
    build_docs: int = 0
    merge_s: list[float] = field(default_factory=list)
    pool_first_s: list[float] = field(default_factory=list)
    pool_steady_qps: list[float] = field(default_factory=list)
    pipeline_s: list[float] = field(default_factory=list)
    query_ms: list[float] = field(default_factory=list)
    probe_ms: list[float] = field(default_factory=list)
    refresh_ms: list[float] = field(default_factory=list)
    bytes_per_doc: float = 0.0
    info: dict = field(default_factory=dict)
    wall: dict = field(default_factory=dict)
    keys: dict = field(default_factory=dict)  # name -> the operation of each sample

    def add(self, name: str, w: Watch, scale: float = 1.0, key=None) -> None:
        """Append the CPU and wall time of ``w`` to the samples ``name``;
        samples of one ``key`` repeat one operation on identical state."""
        getattr(self, name).append(w.cpu * scale)
        self.wall.setdefault(name, []).append(w.wall * scale)
        self.keys.setdefault(name, []).append(key)


class Context:
    def __init__(self, workload: str, seed: int, seconds: float, work: str, cores: int,
                 traced: bool = False):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.work, self.cores, self.traced = work, cores, traced
        self.shape = SHAPES[workload]
        self.tally = Tally()
        self.tracer = Tracer()
        self.samples = Samples()
        # manifests the layer metrics read: (build wall, built, merged) per
        # build_index, (after add, after merge) per commit
        self.builds: list[tuple] = []
        self.commits: list[tuple] = []
        self.window: tuple[float, float] = (0.0, 0.0)  # traced, untraced wall
        self.untraced: dict[str, int] = {}  # samples taken before tracing began
        self.pool_wall_s = 0.0
        self.phases: dict[str, float] = {}

    def start_tracing(self) -> None:
        """Enable the tracer; samples taken so far are the untraced ones."""
        self.untraced = {k: len(v) for k, v in vars(self.samples).items() if isinstance(v, list)}
        self.tracer.enabled = True

    def path(self, *parts: str) -> str:
        return os.path.join(self.work, *parts)

    @contextmanager
    def phase(self, name: str):
        """Wall time of a part of the run, kept in the run record. Garbage
        left by earlier parts is collected first, outside the timing."""
        gc.collect()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.phases[name] = self.phases.get(name, 0.0) + time.perf_counter() - t0


# ---------------------------------------------------------------- operations


def build_and_merge(ctx: Context, paths: list[str], ix: str):
    """build_index then maybe_merge, with their samples recorded; returns
    (built, merged), or None when either raised."""
    from lucene_ray.index.builder import build_index
    from lucene_ray.index.merge import TieredMergePolicy, maybe_merge

    tr, run, s = ctx.tracer, ctx.tally.run, ctx.samples
    gc.collect()  # the client's own garbage is not charged to the build
    with tr.span("op.build"), Watch() as build:
        built = run("build_index", build_index, paths, ix, target_docs=TARGET_DOCS)
    if built is None:
        return None
    gc.collect()
    with tr.span("op.merge"), Watch() as merge:
        merged = run("maybe_merge", maybe_merge, ix, TieredMergePolicy())
    if merged is None:
        return None
    s.add("build_s", build)
    s.add("merge_s", merge)
    s.build_docs = built.doc_count
    s.bytes_per_doc = index_bytes_per_doc(merged)
    s.info.update(segments_planned=len(built.live_segments),
                  segments_merged=len(merged.live_segments))
    ctx.builds.append((build.wall, built, merged))
    return built, merged


def release_cores(ctx: Context, timeout_s: float = 60.0) -> None:
    """Wait until Ray has every core free again. The actor pool of a
    finished Dataset holds its core until the Dataset is collected, and
    the next build's tasks would wait for it."""
    import ray

    gc.collect()
    t0 = time.perf_counter()
    while ray.available_resources().get("CPU", 0) < ctx.cores:
        if time.perf_counter() - t0 > timeout_s:
            raise RuntimeError(f"Ray cores still busy {timeout_s:.0f} s after the pool ended")
        time.sleep(0.02)
    ctx.phases["release_cores"] = ctx.phases.get("release_cores", 0.0) + time.perf_counter() - t0


def run_pool(ctx: Context, ix: str, queries: list[tuple[str, int]]) -> dict | None:
    """The actor-pool query step, with its samples recorded: wall to the
    first output batch, queries per second after it, and the output rows
    per qid. None when it raised."""
    import ray.data

    from lucene_ray.search.engine import search_queries_dataset

    rows = [{"qid": i, "query": q, "k": k} for i, (q, k) in enumerate(queries)]

    def pool() -> dict:
        by_qid: dict[int, list] = {}
        first, first_qids = None, 0
        with ctx.tracer.span("op.pool"), Watch() as whole:
            ds = search_queries_dataset(ray.data.from_items(rows), ix, concurrency=ctx.cores)
            for batch in ds.iter_batches(batch_format="pyarrow", batch_size=None):
                cols = batch.to_pydict()
                for qid, rank, d, s in zip(cols["qid"], cols["rank"], cols["docid"], cols["score"]):
                    by_qid.setdefault(qid, []).append((rank, d, s))
                if first is None:  # qids run in order; the first batch holds a prefix
                    first = Watch()
                    first.wall, first.cpu = whole.lap()
                    first_qids = max(cols["qid"], default=-1) + 1
        after_first = whole.wall - (first.wall if first else whole.wall)
        return {
            "first": first or whole,
            "whole": whole,
            "steady_qps": (len(rows) - first_qids) / after_first if after_first > 0 else 0.0,
            "rows": by_qid,
            "stats": ds.stats(),
        }

    out = ctx.tally.run("search_queries_dataset", pool)
    release_cores(ctx)
    if out is not None:
        s = ctx.samples
        s.add("pool_first_s", out["first"])
        s.pool_steady_qps.append(out["steady_qps"])
        s.info["pool_stats"] = out["stats"]
        ctx.pool_wall_s = out["whole"].wall
    return out


def cold_queries(ctx: Context, ix: str, queries) -> int:
    """Latency of ``queries`` in order on a freshly opened searcher: the
    first queries a user sends after the batch job. Passes, each on a new
    searcher so the i-th query meets the same caches each time, at least
    MIN_COLD_PASSES and until --seconds is spent. Returns the passes."""
    from lucene_ray.search.engine import IndexSearcher

    n, t0 = 0, time.perf_counter()
    while n < MIN_COLD_PASSES or time.perf_counter() - t0 < ctx.seconds:
        searcher = IndexSearcher(ix, pruned=True)
        for i, (q, k) in enumerate(queries):
            with Watch(proc_cpu) as w:
                td = ctx.tally.run(f"query {q!r}", searcher.search, q, k)
            if td is not None:
                ctx.samples.add("query_ms", w, 1000, key=i)
            if i % PROBE_EVERY == 0:
                probe(ctx)
        n += 1
    return n


def check_pool(ctx: Context, ix: str, queries, pool: dict) -> None:
    """Pool rows must equal the in-process top-k for every qid."""
    from lucene_ray.search.engine import IndexSearcher

    searcher = IndexSearcher(ix, pruned=True)
    for qid, (q, k) in enumerate(queries):
        td = ctx.tally.run(f"query {q!r}", searcher.search, q, k)
        if td is None:
            continue
        got = sorted(pool["rows"].get(qid, []))
        ctx.tally.check(
            same_topk(([d for _r, d, _s in got], [s for _r, _d, s in got]),
                      (td.docids, td.scores)),
            f"pool rows differ from in-process top-k for qid {qid} {q!r} k={k}",
        )


def check_pruned(ctx: Context, searcher, queries) -> None:
    """Pruned top-k equals exhaustive top-k, over the same reader."""
    from lucene_ray.search.engine import IndexSearcher

    oracle = IndexSearcher(searcher.reader, pruned=False)
    for q, k in queries:
        got = ctx.tally.run(f"pruned {q!r}", searcher.search, q, k)
        want = ctx.tally.run(f"exhaustive {q!r}", oracle.search, q, k)
        if got is not None and want is not None:
            ctx.tally.check(
                same_topk((got.docids, got.scores), (want.docids, want.scores)),
                f"pruned != exhaustive for {q!r} k={k}",
            )


def lookup(path: str):
    from lucene_ray.search.query import BooleanQuery, TermQuery

    return BooleanQuery(should=[TermQuery("path:" + path)])


def refresh_cycle(ctx: Context, ix: str, searcher, index: int):
    """add_documents -> maybe_merge -> reopen_if_changed -> look up the
    added doc's unique path. Returns (searcher, the cycle's Watch, the
    path); the Watch is None when a step raised, and the rest of the cycle
    is skipped. A commit's merge has one spec, so it runs in this process
    and the process's CPU clock holds the whole cycle."""
    from lucene_ray.index.merge import TieredMergePolicy, maybe_merge
    from lucene_ray.index.writer import add_documents
    from lucene_ray.search.engine import reopen_if_changed

    run = ctx.tally.run
    batch = doc_batch(ctx.seed, index, ADD_DOCS)
    path = batch.column("path")[0].as_py()
    hit = None
    with ctx.tracer.span("op.refresh"), Watch(proc_cpu) as w:
        added = run("add_documents", add_documents, ix, batch)
        merged = None if added is None else run("maybe_merge", maybe_merge, ix, TieredMergePolicy())
        fresh = None if merged is None else run(
            "reopen_if_changed", lambda: reopen_if_changed(searcher) or searcher)
        if fresh is not None:
            searcher = fresh
            hit = run("lookup", searcher.search, lookup(path), 1)
    if hit is None:
        return searcher, None, path
    expect = added.doc_count - ADD_DOCS  # first added doc's global docid
    ctx.tally.check(
        list(hit.docids) == [expect],
        f"added doc {path} not visible after reopen (got {list(hit.docids)})",
    )
    ctx.commits.append((added, merged))
    return searcher, w, path


def passes(ctx: Context, ix: str, n: int, more):
    """Directories for ``n`` or more passes that each start from ``ix`` as
    it is now: copies, then ``ix`` itself for the last pass (while ``more()``
    asks for another pass, another copy). ``ctx.commits`` holds the commits
    of the current pass only, so the final index can be checked."""
    p = 0
    while p < n - 1 or more():
        d = ctx.path(f"pass{p}")
        shutil.copytree(ix, d)
        ctx.commits.clear()
        yield d
        shutil.rmtree(d, ignore_errors=True)
        p += 1
    ctx.commits.clear()
    yield ix


def check_final_index(ctx: Context, ix: str, base_docs: int) -> None:
    from lucene_ray.index.checkindex import check_index
    from lucene_ray.index.manifest import read_manifest

    expected = base_docs + ADD_DOCS * len(ctx.commits)
    m = read_manifest(ix)
    ctx.tally.check(m.doc_count == expected,
                    f"doc count {m.doc_count} != rows generated {expected}")
    with ctx.phase("check_index"):
        report = ctx.tally.run("check_index", check_index, ix)
    if report is not None:
        ctx.tally.check(bool(report.get("ok")), f"check_index: {report.get('problems')}")


def postings_in_cache(searcher, queries) -> int:
    """Largest per-segment postings total of the distinct queries' terms
    after rewrite, to compare with the decoded-cursor cache cap."""
    from lucene_ray.search.engine import query_terms
    from lucene_ray.search.rewrite import maybe_rewrite

    reader = searcher.reader
    terms: set[str] = set()
    for q, _k in set(queries):
        bq = maybe_rewrite(searcher.parse(q), reader.vocabulary,
                           lambda: reader.vocabulary(include_fields=True))
        terms.update(query_terms(bq))
    return max(
        (sum(sr.term_stats(t)[0] for t in terms) for sr in reader.all_readers()),
        default=0,
    )


def warm_up(ctx: Context) -> None:
    """Untimed: build one shard of the workload's size, so the build worker
    has started, imported the engine and grown its heap to a segment build
    before any build or set-up is measured."""
    from lucene_ray.index.builder import build_index

    sh, d = ctx.shape, ctx.path("warm")
    with ctx.phase("warm_up"):
        paths = write_seeded_corpus(os.path.join(d, "corpus"), sh.n_docs // sh.n_shards, 1, ctx.seed)
        if ctx.tally.run("build_index", build_index, paths, os.path.join(d, "ix"),
                         target_docs=TARGET_DOCS) is None:
            raise RuntimeError(f"warm-up build failed: {ctx.tally.failures}")
    shutil.rmtree(d, ignore_errors=True)


def setup_loop(ctx: Context, once) -> object:
    """After ``warm_up``, run ``once(rep)`` SETUP_REPEATS times (once when
    traced), each into fresh directories; ``once`` returns (state, a Watch
    of the part to exclude, or None). Keeps the last state."""
    warm_up(ctx)
    state = None
    for rep in range(1 if ctx.traced else SETUP_REPEATS):
        if state is not None:
            shutil.rmtree(ctx.path(f"setup{rep - 1}"), ignore_errors=True)
        with ctx.phase("setup"), Watch() as w:
            state, excluded = once(rep)
        if excluded is not None:
            w.wall, w.cpu = w.wall - excluded.wall, w.cpu - excluded.cpu
        ctx.samples.add("setup_s", w)
    return state


def corpus_queries(ctx: Context, paths: list[str]):
    """The seed's distinct queries and query stream."""
    gen = QueryGenerator(Vocabulary.from_corpus(paths), ctx.seed)
    pool = gen.pool(POOL_PER_TEMPLATE)
    return distinct(pool), gen.stream(pool, STREAM_LENGTH)


def index_setup(ctx: Context, rep: int, gen: dict):
    """Set-up of the workloads that serve a prebuilt index: corpus, build,
    merge, and (first time only) the seed's queries into ``gen``. Returns
    (index dir, a Watch of what to exclude: the benchmark's own query
    generation)."""
    sh = ctx.shape
    d = ctx.path(f"setup{rep}")
    paths = write_seeded_corpus(os.path.join(d, "corpus"), sh.n_docs, sh.n_shards, ctx.seed)
    ix = os.path.join(d, "ix")
    if build_and_merge(ctx, paths, ix) is None:
        raise RuntimeError(f"set-up build failed: {ctx.tally.failures}")
    with Watch(proc_cpu) as w:
        if not gen:
            gen["pool"], gen["stream"] = corpus_queries(ctx, paths)
    return ix, w


# ----------------------------------------------------------------- workloads


def batch_pipeline(ctx: Context) -> None:
    from lucene_ray.search.engine import IndexSearcher

    sh = ctx.shape

    def once(rep: int):
        return write_seeded_corpus(ctx.path(f"setup{rep}", "corpus"), sh.n_docs, sh.n_shards, ctx.seed), None

    paths = setup_loop(ctx, once)
    _distinct, stream = corpus_queries(ctx, paths)
    queries = stream[:POOL_QUERIES]

    def pipeline(i: int):
        """One offline job into a fresh directory: (index dir, pool), or
        None when a step raised."""
        ix, s = ctx.path(f"pipe{i}"), ctx.samples
        if build_and_merge(ctx, paths, ix) is None:
            return None
        pool = run_pool(ctx, ix, queries)
        if pool is None:
            return None
        whole = Watch()
        whole.cpu = s.build_s[-1] + s.merge_s[-1] + pool["whole"].cpu
        whole.wall = s.wall["build_s"][-1] + s.wall["merge_s"][-1] + pool["whole"].wall
        s.add("pipeline_s", whole)
        return ix, pool

    if ctx.traced:
        t0 = time.perf_counter()
        pipeline(0)
        untraced = time.perf_counter() - t0
        ctx.builds.clear()
        with instrumented(ctx.tracer):
            ctx.start_tracing()
            t0 = time.perf_counter()
            done = pipeline(1)
            ctx.window = (time.perf_counter() - t0, untraced)
            if done is not None:
                replay(ctx, paths, done[0], queries)
            ctx.tracer.enabled = False
    else:
        with ctx.phase("pipeline"):
            done = pipeline(0)
    if done is None:
        return
    ix, pool = done
    with ctx.phase("check_pool"):
        check_pool(ctx, ix, queries, pool)
        check_pruned(ctx, IndexSearcher(ix, pruned=True), sorted(set(queries)))
    if not ctx.traced:
        # the timed part: the job's first queries, pass after pass
        with ctx.phase("timed"):
            ctx.samples.info["cold_passes"] = cold_queries(ctx, ix, queries)
    check_final_index(ctx, ix, sh.n_docs)
    ctx.samples.info.update(docs=sh.n_docs, queries=len(queries))


def replay(ctx: Context, paths: list[str], ix: str, queries) -> None:
    """Layers that ran inside Ray workers, replayed in-process under the
    tracer: every planned segment build, and the scorer stage's init and
    calls on the pool's batches."""
    import pyarrow as pa

    from lucene_ray.index import builder
    from lucene_ray.search import engine

    tr = ctx.tracer
    out = ctx.path("replay")
    build_one_segment = spanned(tr, "index.builder.segment", builder.build_one_segment)
    with tr.span("replay.build"):
        for spec in builder.plan_segments(paths, TARGET_DOCS):
            build_one_segment(spec, out)
    with tr.span("replay.pool"):
        stage = engine.QueryScorerStage(ix)
        for i in range(0, len(queries), 8):  # search_queries_dataset batch_size
            part = queries[i : i + 8]
            stage(pa.table({
                "qid": pa.array(range(i, i + len(part)), pa.int64()),
                "query": [q for q, _k in part],
                "k": pa.array([k for _q, k in part], pa.int64()),
            }))


def query_warm(ctx: Context) -> None:
    from lucene_ray.search.engine import IndexSearcher

    sh = ctx.shape
    gen: dict = {}

    def once(rep: int):
        ix, excluded = index_setup(ctx, rep, gen)
        searcher = IndexSearcher(ix, pruned=True)
        expected = {}
        for q, k in gen["pool"]:  # warm-up: every distinct query once
            td = searcher.search(q, k)
            expected[(q, k)] = (td.docids, td.scores)
        return (ix, searcher, expected), excluded

    ix, searcher, expected = setup_loop(ctx, once)
    stream = gen["stream"]
    biggest = postings_in_cache(searcher, gen["pool"])
    ctx.samples.info.update(max_segment_query_postings=biggest,
                            cursor_cache_cap=CURSOR_CACHE_CAP, distinct_queries=len(gen["pool"]))
    ctx.tally.check(biggest < CURSOR_CACHE_CAP,
                    f"distinct query postings {biggest} exceed the cursor cache cap")

    def queries(n: int | None):
        i, t0 = 0, time.perf_counter()
        need = min_samples(sh.query_pct)
        while (i < n) if n is not None else (
            i < need or time.perf_counter() - t0 < ctx.seconds
        ):
            q, k = stream[i % len(stream)]
            with ctx.tracer.span("op.query"), Watch(proc_cpu) as w:
                td = ctx.tally.run(f"query {q!r}", searcher.search, q, k)
            i += 1
            if i % PROBE_EVERY == 0 and not ctx.traced:
                probe(ctx)
            if td is not None:
                ctx.samples.add("query_ms", w, 1000, key=(q, k))
                ctx.tally.check(same_topk((td.docids, td.scores), expected[(q, k)]),
                                f"warm result changed for {q!r} k={k}")
        return i

    if ctx.traced:
        n = 600
        t0 = time.perf_counter()
        queries(n)
        untraced = time.perf_counter() - t0
        with instrumented(ctx.tracer):
            ctx.start_tracing()
            t0 = time.perf_counter()
            queries(n)
            ctx.window = (time.perf_counter() - t0, untraced)
            ctx.tracer.enabled = False
        check_pruned(ctx, searcher, gen["pool"])
    else:
        with ctx.phase("timed"):
            ctx.samples.info["queries"] = queries(None)
        check_pruned(ctx, searcher, gen["pool"])
    ctx.samples.info["docs"] = sh.n_docs


def nrt_mixed(ctx: Context) -> None:
    from lucene_ray.search.engine import IndexSearcher

    sh = ctx.shape
    gen: dict = {}
    base = setup_loop(ctx, lambda rep: index_setup(ctx, rep, gen))
    stream = gen["stream"]

    def cycles(ix: str, n: int) -> int:
        """``n`` commit cycles on ``ix``; the c-th cycle of every sequence
        commits the same docs and sends the same queries. A reopen builds
        a new reader with empty caches, so untraced runs send the queries
        again on readers opened afresh after the same lookup."""
        searcher = IndexSearcher(ix, pruned=True)
        for c in range(n):
            searcher, w, path = refresh_cycle(ctx, ix, searcher, c)
            if w is None:
                continue
            ctx.samples.add("refresh_ms", w, 1000, key=c)
            batch = [stream[(c * QUERIES_PER_CYCLE + j) % len(stream)] for j in range(QUERIES_PER_CYCLE)]
            for r in range(1 if ctx.traced else QUERY_REPS):
                fresh = searcher
                if r:
                    fresh = IndexSearcher(ix, pruned=True)
                    if ctx.tally.run("lookup", fresh.search, lookup(path), 1) is None:
                        continue
                for j, (q, k) in enumerate(batch):
                    with ctx.tracer.span("op.query"), Watch(proc_cpu) as w:
                        td = ctx.tally.run(f"query {q!r}", fresh.search, q, k)
                    if td is not None:
                        ctx.samples.add("query_ms", w, 1000, key=(c, j))
                if not ctx.traced:
                    probe(ctx)
            if not ctx.traced:  # one query a cycle; the templates rotate
                check_pruned(ctx, searcher, batch[:1])
        return n

    if ctx.traced:
        n = 30
        for name in ("untraced", "traced"):
            shutil.copytree(base, ctx.path(name))
        t0 = time.perf_counter()
        cycles(ctx.path("untraced"), n)
        untraced = time.perf_counter() - t0
        ctx.commits.clear()
        with instrumented(ctx.tracer):
            ctx.start_tracing()
            t0 = time.perf_counter()
            cycles(ctx.path("traced"), n)
            ctx.window = (time.perf_counter() - t0, untraced)
            ctx.tracer.enabled = False
        ix = ctx.path("traced")
    else:
        # the timed part: sequences of commit cycles, each from the base
        # index as set-up left it, until --seconds is spent
        ix, t0, done = base, time.perf_counter(), 0
        with ctx.phase("timed"):
            for ix in passes(ctx, base, MIN_SEQUENCES,
                             lambda: time.perf_counter() - t0 < ctx.seconds):
                done += cycles(ix, CYCLES)
        ctx.samples.info["commits"] = done
    check_final_index(ctx, ix, sh.n_docs)
    ctx.samples.info["docs"] = sh.n_docs


WORKLOADS = {"batch_pipeline": batch_pipeline, "query_warm": query_warm, "nrt_mixed": nrt_mixed}


# ------------------------------------------------------------------ metrics


def query_figures(ctx: Context, wall: bool = False, calibrated: bool = True) -> dict[str, float]:
    """Query latency of an untraced run, each query at its best repetition
    (``best_of``): p50, the tail percentile and queries per second. CPU time
    scaled by CALIBRATION_MS over the run's calibration time at
    CALIBRATION_PCT, unless ``calibrated`` is false; with ``wall``, wall time
    (the names keep ``cpu``)."""
    s = ctx.samples
    scale = CALIBRATION_MS / percentile(s.probe_ms, CALIBRATION_PCT) if calibrated else 1.0
    query_ms = [v * scale for v in best_of(s.wall["query_ms"] if wall else s.query_ms, s.keys["query_ms"])]
    return {
        "query_cpu_p50_ms": percentile(query_ms, 50),
        "query_cpu_tail_ms": percentile(query_ms, ctx.shape.query_pct),
        "queries_per_cpu_s": len(query_ms) / (sum(query_ms) / 1000),
    }


def metrics(ctx: Context) -> dict[str, float]:
    """End-to-end metrics of an untraced run; peak RSS is added by the
    caller. Set-up is the median of its repetitions. The query tail and
    throughput spread too widely from run to run to hold a bound, even
    calibrated; the run record keeps them (``query_figures``)."""
    s = ctx.samples
    return {
        "setup_s": statistics.median(s.setup_s),
        "index_bytes_per_doc": s.bytes_per_doc,
        "query_cpu_p50_ms": query_figures(ctx)["query_cpu_p50_ms"],
    }

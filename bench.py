#!/usr/bin/env python
"""Benchmark harness: headline = inverted-index build + merge + BM25 query
over the synthetic source-code corpus (BASELINE.json input_hint shape), plus
the training-data ops over $GRAFT_SF_DIR tables.

Prints ONE JSON line:
  {"metric": ..., "value": <headline secs>, "unit": "sec",
   "queries": {...per-phase/per-op secs...}, "sf": ..., "num_cpus": N,
   "host_cpus", "cpus_exceed_host", "ray"/"pyarrow"/"numpy" versions,
   "git_sha" (or "source_sha256" without a .git),
   "build": {docs, docs_per_sec, postings, postings_per_sec, bytes,
             postings_bytes_per_posting}, "query": {p50_ms, p99_ms}}

--scaling: runs the headline twice in FRESH processes (num_cpus=8 then 32)
on the same input and reports both throughputs + scaling efficiency — the
sandbox substitute for the N vs 4N cluster run (BASELINE.md scaling row).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time

# allocator tuning must be in the env BEFORE ray.init so every worker
# process inherits it from birth (lucene_ray._tune_allocator documents the
# measured fresh-page-read penalty this avoids; mallopt-at-import inside
# workers covers the rest)
os.environ.setdefault("MALLOC_MMAP_THRESHOLD_", str(256 * 1024 * 1024))
os.environ.setdefault("MALLOC_TRIM_THRESHOLD_", str(1024 * 1024 * 1024))
os.environ.setdefault("ARROW_DEFAULT_MEMORY_POOL", "system")

SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
SF = float(os.path.basename(SF_DIR.rstrip("/")).replace("sf", "") or 0.1)

# corpus sizing: ~200K docs at sf0.1 (FIXTURES.md 'bench' scale)
N_DOCS = max(2000, int(2_000_000 * SF))


def provenance(num_cpus: int) -> dict:
    """Where a result came from, recorded next to ``num_cpus``: the host's
    real core count (and whether ``num_cpus`` exceeds it — RAY_GRAFT_CPUS
    defaults to 32 even on a 1-core host), the Ray/pyarrow/numpy versions,
    and the git sha, or a sha256 of the sources when there is no .git."""
    import hashlib

    import numpy
    import pyarrow
    import ray

    root = os.path.dirname(os.path.abspath(__file__))
    sha = source = None
    if os.path.exists(os.path.join(root, ".git")):
        out = subprocess.run(
            ["git", "-C", root, "rev-parse", "HEAD"], capture_output=True, text=True
        )
        sha = out.stdout.strip() or None
    if sha is None:
        digest = hashlib.sha256()
        pkg = os.path.join(root, "lucene_ray")
        files = [os.path.join(d, f) for d, _, fs in os.walk(pkg) for f in fs]
        for path in sorted(f for f in files if f.endswith(".py")) + [__file__]:
            digest.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
        source = digest.hexdigest()
    host = os.cpu_count()
    return {
        "host_cpus": host,
        "cpus_exceed_host": host is not None and num_cpus > host,
        "ray": ray.__version__,
        "pyarrow": pyarrow.__version__,
        "numpy": numpy.__version__,
        "git_sha": sha,
        "source_sha256": source,
    }


def vm_state_control() -> float:
    """Host-state probe: seconds for a fixed 2M-element integer cumsum.

    This VM oscillates between fast and pathologically slow memory states
    (measured 0.007s fast vs ~2s slow for THIS probe — up to 300x on
    serial-dependent integer scans, BASELINE.md protocol). Recording the
    probe next to each trial makes a slow-state bench run distinguishable
    from a code regression."""
    import numpy as np

    a = np.arange(2_000_000, dtype=np.int64)
    t0 = time.perf_counter()
    np.cumsum(a)
    np.add.accumulate(a)
    return round(time.perf_counter() - t0, 4)


def vm_state_control_small() -> float:
    """1/10-size probe for IN-TRIAL sampling (ProbeSampler): ~1.5ms fast,
    ~0.2s degraded — small enough that scheduling contention with the
    running workload can't inflate it into the degraded band."""
    import numpy as np

    a = np.arange(200_000, dtype=np.int64)
    t0 = time.perf_counter()
    np.cumsum(a)
    np.add.accumulate(a)
    return round(time.perf_counter() - t0, 4)


# a task that owned its cpu has wall/cpu ~1 (pyarrow's threaded reads can
# push it slightly below); starved-VM tasks measure 5-50x
DILATION_CLEAN = 1.6


def _converged(trials: list[float]) -> bool:
    """Stop when the last THREE trials agree within 35% — the warm-arena
    plateau. Fresh-page-penalty windows (BASELINE.md round-3b) make early
    trials arbitrarily slow while warming worker arenas; trials converge to
    the true warm number by round 2-3 (measured merge: 337.7 -> 104.7 ->
    17.0 s with the host degraded throughout). Three-way agreement (was
    two) because a degraded window can produce two consecutive
    similar-but-still-cold trials — the r4 local run stopped at merge
    trials [77.6, 35.3, 35.7] when the warm number was ~6 s (a same-state
    CPU-time A/B vs the previous commit showed no engine change)."""
    if len(trials) < 3:
        return False
    window = trials[-3:]
    return max(window) <= 1.35 * min(window)


def vm_state_control_fresh(mb: int = 16) -> tuple[float, float]:
    """(first_read_s, second_read_s) of a freshly-mmapped buffer — the
    direct probe for the fresh-page-read penalty (round-3b): ratio ~1 warm,
    up to ~85x in a degraded window. Advisory label only: the kernel often
    hands back recently-freed (already-warm) physical pages, so a fast
    probe does not guarantee a cold multi-GB workload runs fast."""
    import mmap

    import numpy as np

    m = mmap.mmap(-1, mb << 20)
    a = np.frombuffer(m, dtype=np.int64)
    a[:] = 1
    t0 = time.perf_counter()
    np.cumsum(a)
    r1 = time.perf_counter() - t0
    t0 = time.perf_counter()
    np.cumsum(a)
    r2 = time.perf_counter() - t0
    del a
    m.close()
    return round(r1, 4), round(r2, 4)


def _dilation_p50(entries) -> float:
    """p50 of per-task wall/cpu over segment entries carrying the
    build_cpu_secs metric — the in-task host-starvation label."""
    ds = sorted(
        e.metrics["build_secs"]
        / max(e.metrics.get("build_cpu_secs") or e.metrics["build_secs"], 1e-9)
        for e in entries
        if e.metrics.get("build_secs")
    )
    return round(ds[len(ds) // 2], 2) if ds else 0.0


class ProbeSampler:
    """Background host-state sampler: vm_state_control every ~5s while a
    trial runs, recording the max (worst) probe seen IN-TRIAL. Endpoint
    probes alone mislabel long trials — the host state flips on a seconds
    scale, so a trial can be bracketed by fast probes yet spend most of its
    wall time degraded (observed: clean-bracketed build trial at 75s vs
    2.7s solo fast-state per-segment control)."""

    def __init__(self, period: float = 5.0):
        self.period = period
        self.samples: list[float] = []
        self._stop = None

    def __enter__(self):
        import threading

        self._stop = threading.Event()

        def loop():
            while not self._stop.wait(self.period):
                self.samples.append(vm_state_control_small())

        self._t = threading.Thread(target=loop, daemon=True)
        self._t.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._t.join(timeout=10)
        return False

    @property
    def worst(self) -> float:
        return round(max(self.samples), 3) if self.samples else 0.0


def wait_for_fast_state(
    threshold: float = 0.08, max_wait: float = 120.0
) -> list[float]:
    """Poll vm_state_control until the host leaves a degraded memory state
    (probe < threshold; fast ~0.014s, degraded 0.4-3.9s) or ``max_wait``
    elapses. Returns the probe history — recorded in the bench JSON so a
    run that never saw a fast window is self-labelling. Keeps a
    driver-scheduled bench from silently measuring the host instead of the
    engine (BASELINE.md round-3 protocol)."""
    history = [vm_state_control()]
    deadline = time.perf_counter() + max_wait
    while history[-1] >= threshold and time.perf_counter() < deadline:
        time.sleep(5)
        history.append(vm_state_control())
    return history
N_SHARDS = 32


def run_bench() -> dict:
    import ray

    ray.init(
        address="local",
        num_cpus=NUM_CPUS,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    import ray.data

    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False

    from lucene_ray.index.builder import build_index
    from lucene_ray.index.corpus import write_corpus
    from lucene_ray.index.merge import TieredMergePolicy, maybe_merge
    from lucene_ray.pipelines.flagship import REFERENCE_QUERIES
    from lucene_ray.search.engine import IndexSearcher, search_queries_dataset

    timings: dict[str, float] = {}

    # ---- corpus (cached input data; generation excluded from the timing) --
    corpus_dir = f"/tmp/lucene_ray_bench/corpus_n{N_DOCS}"
    t0 = time.perf_counter()
    paths = write_corpus(corpus_dir, n_docs=N_DOCS, n_shards=N_SHARDS, seed=42)
    timings["corpus_gen"] = round(time.perf_counter() - t0, 3)
    # warm the page cache so build measures compute, not first-touch disk
    for p in paths:
        with open(p, "rb") as f:
            while f.read(1 << 22):
                pass

    # ---- index build (fresh dir every trial — resume must not help).
    # Trial labeling (BASELINE.md round-3/r3b protocol): the authoritative
    # host-starvation signal is per-task wall/cpu DILATION measured INSIDE
    # each build task (metrics.build_cpu_secs) — a starved VM stretches wall
    # while cpu stays flat, and it does so invisibly to driver-side probes
    # (measured: 50s trial at 4% steal, 0.1% user, fast probes before and
    # after). Retry up to 5x until a trial's p50 dilation is ~1. -----------
    index_dir = f"/tmp/lucene_ray_bench/index_n{N_DOCS}_c{NUM_CPUS}"
    # untimed warmup: spins the worker pool AND warms each worker's malloc
    # arena (first fresh-page pass per process is the one unavoidable cost
    # of the host's fresh-page-read penalty — see lucene_ray._tune_allocator)
    warm_dir = f"/tmp/lucene_ray_bench/warm_ix_c{NUM_CPUS}"
    shutil.rmtree(warm_dir, ignore_errors=True)
    build_index(paths, warm_dir, target_docs=5_000)
    shutil.rmtree(warm_dir, ignore_errors=True)
    build_trials = []
    build_probe_pairs = []
    build_dilations = []
    wait_hist = wait_for_fast_state()
    timings["vm_state_wait"] = wait_hist
    probes = [wait_hist[-1]]
    build_fresh_probes = []
    for _trial in range(6):
        pre = wait_for_fast_state(max_wait=45.0)[-1] if _trial else probes[0]
        build_fresh_probes.append(list(vm_state_control_fresh()))
        shutil.rmtree(index_dir, ignore_errors=True)
        t0 = time.perf_counter()
        with ProbeSampler() as ps:
            manifest = build_index(paths, index_dir, target_docs=5_000)
        build_trials.append(time.perf_counter() - t0)
        build_probe_pairs.append([round(pre, 3), ps.worst])
        build_dilations.append(_dilation_p50(manifest.live_segments))
        if _converged(build_trials):
            break
    build_entries = list(manifest.live_segments)  # pre-merge (the build tasks)
    t_build = min(build_trials)
    timings["index_build_fresh_probes"] = build_fresh_probes
    timings["index_build"] = round(t_build, 3)
    timings["index_build_trials"] = [round(t, 3) for t in build_trials]
    timings["index_build_probe_pairs"] = build_probe_pairs
    timings["index_build_dilation_p50"] = build_dilations

    # ---- merge: >= 2 trials from the SAME pre-merge snapshot (restore cost
    # excluded from the timing) so a slow-VM state can't masquerade as a
    # merge regression (BASELINE.md min-of-interleaved-trials protocol) -----
    snap_dir = index_dir + "_premerge"
    shutil.rmtree(snap_dir, ignore_errors=True)
    shutil.copytree(index_dir, snap_dir)
    merge_trials = []
    merge_dilations = []
    merge_probe_pairs = []
    probes.append(wait_for_fast_state(max_wait=60.0)[-1])
    merge_fresh_probes = []
    for _trial in range(6):
        pre = (
            wait_for_fast_state(max_wait=45.0)[-1] if _trial else probes[-1]
        )
        merge_fresh_probes.append(list(vm_state_control_fresh()))
        shutil.rmtree(index_dir, ignore_errors=True)
        shutil.copytree(snap_dir, index_dir)
        t0 = time.perf_counter()
        with ProbeSampler() as ps:
            manifest = maybe_merge(index_dir, TieredMergePolicy())
        merge_trials.append(time.perf_counter() - t0)
        merge_probe_pairs.append([round(pre, 3), ps.worst])
        merged_entries = [
            e for e in manifest.live_segments if "merged_from" in e.input
        ]
        merge_dilations.append(_dilation_p50(merged_entries))
        if _converged(merge_trials):
            break
    shutil.rmtree(snap_dir, ignore_errors=True)
    timings["merge"] = round(min(merge_trials), 3)
    timings["merge_fresh_probes"] = merge_fresh_probes
    timings["merge_trials"] = [round(t, 3) for t in merge_trials]
    timings["merge_probe_pairs"] = merge_probe_pairs
    timings["merge_dilation_p50"] = merge_dilations

    postings = sum(e.metrics.get("postings", 0) for e in manifest.live_segments)
    seg_bytes = sum(e.bytes for e in manifest.live_segments)
    # per-task evidence: separates engine scaling from host noise — if the
    # per-task build time is flat across CPU levels, wall-clock ratios are
    # pure parallelism; if it inflates, the host is the limiter (dilation
    # rows above tell which; BASELINE.md protocol). task_secs are the BUILD
    # tasks' (pre-merge manifest), not the merged segments'.
    task_secs = sorted(
        e.metrics.get("build_secs", 0.0) for e in build_entries
    )
    build_stats = {
        "docs": manifest.doc_count,
        "docs_per_sec": round(manifest.doc_count / t_build, 1),
        "postings": postings,
        "postings_per_sec": round(postings / t_build, 1),
        "tokens": manifest.sum_ttf,
        "tokens_per_sec": round(manifest.sum_ttf / t_build, 1),
        "index_bytes": seg_bytes,
        "segments": len(manifest.live_segments),
        "task_secs_p50": round(task_secs[len(task_secs) // 2], 3) if task_secs else 0,
        "task_secs_max": round(task_secs[-1], 3) if task_secs else 0,
    }

    # ---- query latency (sequential, in-process: p50/p99 per query) -------
    searcher = IndexSearcher(index_dir, pruned=True)
    searcher.reader.all_readers()  # open/mmap segments once (warm, as a
    # long-lived scorer actor would be); latency measures scoring
    for _qid, q, k in REFERENCE_QUERIES:
        searcher.search(q, k)
    # per-query MIN over interleaved reps (the BASELINE.md protocol): the
    # distribution of interest is across QUERIES — a host flip mid-section
    # must not masquerade as a tail-latency regression
    per_q = [float("inf")] * len(REFERENCE_QUERIES)
    for _rep in range(5):
        for qi, (_qid, q, k) in enumerate(REFERENCE_QUERIES):
            t0 = time.perf_counter()
            searcher.search(q, k)
            per_q[qi] = min(per_q[qi], (time.perf_counter() - t0) * 1000)
    lat_ms = sorted(per_q)
    query_stats = {
        "n": len(lat_ms),
        "p50_ms": round(lat_ms[len(lat_ms) // 2], 2),
        "p99_ms": round(lat_ms[min(len(lat_ms) - 1, int(len(lat_ms) * 0.99))], 2),
    }

    # ---- query throughput through the scorer actor pool (trials to
    # convergence, min; each trial pays actor startup — fresh actor
    # processes start with cold arenas, so early degraded-window trials
    # overpay and later ones converge like build/merge do) -----------------
    qds = ray.data.from_items(
        [
            {"qid": i * 100 + qid, "query": q, "k": k}
            for i in range(10)
            for qid, q, k in REFERENCE_QUERIES
        ]
    )
    n_q = qds.count()
    pool_trials = []
    probes.append(vm_state_control())
    for _trial in range(4):
        t0 = time.perf_counter()
        search_queries_dataset(
            qds, index_dir, concurrency=max(2, NUM_CPUS // 4)
        ).materialize()
        pool_trials.append(time.perf_counter() - t0)
        if _converged(pool_trials):
            break
    t_pool = min(pool_trials)
    timings["query_pool"] = round(t_pool, 3)
    timings["query_pool_trials"] = [round(t, 3) for t in pool_trials]
    query_stats["pool_queries_per_sec"] = round(n_q / t_pool, 1)

    # ---- training-data ops over the sf tables ----------------------------
    from lucene_ray.ops import dedup, knn, relational, text

    ops = {
        "term_stats": lambda: text.term_stats(SF_DIR).materialize(),
        "dedup_minhash": lambda: dedup.minhash_lsh_pairs(SF_DIR),
        "knn_bruteforce": lambda: knn.knn_bruteforce(SF_DIR),
        "q1_pricing": lambda: relational.q1_pricing(SF_DIR).materialize(),
        "events_tumbling": lambda: relational.events_tumbling(SF_DIR).materialize(),
        # round-2 additions (timings only; the headline metric is unchanged)
        "contamination_check": lambda: dedup.contamination_check(SF_DIR),
        "events_hopping": lambda: relational.events_hopping(SF_DIR).materialize(),
    }
    # interleaved trials (trial loop OUTER): min-per-op is robust to the
    # VM's minutes-scale fast/slow states. Every trial carries the same
    # labels as the build/merge sections — pre-probe + in-trial worst probe
    # (ProbeSampler) — so a slow op number can be attributed to host state
    # instead of condemned as an engine regression (VERDICT r3 item 8).
    op_trials: dict[str, list[float]] = {name: [] for name in ops}
    op_probe_pairs: dict[str, list[list[float]]] = {name: [] for name in ops}
    for _trial in range(2):
        probes.append(vm_state_control())
        for name, fn in ops.items():
            pre = vm_state_control_small()
            with ProbeSampler() as ps:
                t0 = time.perf_counter()
                fn()
                dt = time.perf_counter() - t0
            op_trials[name].append(dt)
            op_probe_pairs[name].append([round(pre, 4), ps.worst])
    for name, ts in op_trials.items():
        timings[name] = round(min(ts), 3)
        timings[name + "_trials"] = [round(t, 3) for t in ts]
        timings[name + "_probe_pairs"] = op_probe_pairs[name]
    # host-state probes taken before build/merge/pool/op sections
    # (~0.007s fast state, ~2s slow state; see vm_state_control)
    timings["vm_state_probes"] = probes

    headline = timings["index_build"] + timings["merge"] + timings["query_pool"]
    result = {
        "metric": "index build + merge + BM25 query (sec); see build/query for rates",
        "value": round(headline, 3),
        "unit": "sec",
        "queries": timings,
        "sf": SF,
        "num_cpus": NUM_CPUS,
        **provenance(NUM_CPUS),
        "n_docs": N_DOCS,
        "build": build_stats,
        "query": query_stats,
    }
    ray.shutdown()
    return result


def run_build_bench(trials: int = 2) -> dict:
    """Build-only measurement for --scaling subprocesses: corpus warm,
    one UNTIMED warmup build (spins the worker pool + imports — a real
    cluster's workers are long-lived; cold python spawn is host overhead,
    not engine throughput), then ``trials`` timed fresh builds."""
    import ray

    ray.init(
        address="local",
        num_cpus=NUM_CPUS,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False
    from lucene_ray.index.builder import build_index
    from lucene_ray.index.corpus import write_corpus

    corpus_dir = f"/tmp/lucene_ray_bench/corpus_n{N_DOCS}"
    paths = write_corpus(corpus_dir, n_docs=N_DOCS, n_shards=N_SHARDS, seed=42)
    for p in paths:
        with open(p, "rb") as f:
            while f.read(1 << 22):
                pass
    warm_dir = f"/tmp/lucene_ray_bench/warm_ix_c{NUM_CPUS}"
    shutil.rmtree(warm_dir, ignore_errors=True)
    # enough specs (2/file) to cycle every pool worker once: worker spawn +
    # imports AND the per-process malloc-arena warmup (fresh-page penalty,
    # lucene_ray._tune_allocator) are host overhead a long-lived cluster
    # worker never re-pays per job
    build_index(paths[:8], warm_dir, target_docs=5_000)

    index_dir = f"/tmp/lucene_ray_bench/index_n{N_DOCS}_c{NUM_CPUS}"
    build_trials = []
    probes = []
    dilations = []
    # trials run to the warm-arena convergence plateau (same rule as the
    # headline bench — fresh-page-penalty windows make early trials slow
    # while warming workers; see _converged / BASELINE.md round-3b)
    while len(build_trials) < max(trials, 2) + 3:
        probes.append(vm_state_control())
        shutil.rmtree(index_dir, ignore_errors=True)
        t0 = time.perf_counter()
        manifest = build_index(paths, index_dir, target_docs=5_000)
        build_trials.append(time.perf_counter() - t0)
        dilations.append(_dilation_p50(manifest.live_segments))
        if len(build_trials) >= max(trials, 2) and _converged(build_trials):
            break
    t_build = min(build_trials)
    task_secs = sorted(
        e.metrics.get("build_secs", 0.0) for e in manifest.live_segments
    )
    out = {
        "num_cpus": NUM_CPUS,
        **provenance(NUM_CPUS),
        "n_docs": N_DOCS,
        "sf": SF,
        "build": {
            "docs_per_sec": round(manifest.doc_count / t_build, 1),
            "trials_sec": [round(t, 3) for t in build_trials],
            "dilation_p50": dilations,
            "task_secs_p50": round(task_secs[len(task_secs) // 2], 3),
            "task_secs_max": round(task_secs[-1], 3),
            "vm_state_probes": probes,
        },
    }
    ray.shutdown()
    return out


def run_scaling(trials: int = 2) -> dict:
    """Same input + same code at N vs 4N parallelism, in fresh processes —
    the sandbox substitute for the north rule's two-cluster-size run.

    The bench VM shows up to 4x run-to-run variance (virtualized, noisy
    neighbors) and a memory-subsystem plateau near ~10 concurrent heavy
    workers (BASELINE.md), so: each level runs ``trials`` times in
    ALTERNATING order, best-per-level is compared, and the primary N->4N
    pair is 1->4 (both levels below the plateau; 4->16 is reported and
    shows the host ceiling). Per-task p50 across levels separates engine
    scaling from host contention: flat p50 = pure parallelism."""

    def run(ncpu: int) -> dict:
        env = dict(
            os.environ, RAY_GRAFT_CPUS=str(ncpu), GRAFT_BENCH_MODE="build"
        )
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__)],
            env=env,
            capture_output=True,
            text=True,
            check=True,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        ).stdout
        return json.loads(out.strip().splitlines()[-1])

    levels = [1, 4, 16]
    runs: dict[int, list[dict]] = {c: [] for c in levels}
    for _ in range(trials):
        for c in levels:
            runs[c].append(run(c))
    best_run = {
        c: max(runs[c], key=lambda r: r["build"]["docs_per_sec"]) for c in levels
    }
    best = {c: best_run[c]["build"]["docs_per_sec"] for c in levels}

    def eff(lo: int, hi: int) -> float:
        return round((best[hi] / best[lo]) / (hi / lo), 3)

    return {
        "metric": "scaling efficiency (index-build docs/sec, N -> 4N cpus)",
        "value": eff(1, 4),
        "unit": "efficiency",
        "pairs": {"1->4": eff(1, 4), "4->16": eff(4, 16)},
        "cpus": levels,
        **provenance(max(levels)),
        "docs_per_sec": [best[c] for c in levels],
        "docs_per_sec_all_trials": {
            str(c): [r["build"]["docs_per_sec"] for r in runs[c]] for c in levels
        },
        # flat per-task p50 across levels = pure-parallelism scaling;
        # inflation = host memory ceiling, not engine coordination
        "task_secs_p50": {
            str(c): best_run[c]["build"].get("task_secs_p50") for c in levels
        },
        "n_docs": runs[levels[0]][0]["n_docs"],
        "sf": runs[levels[0]][0]["sf"],
    }


def run_stats() -> None:
    """Print ray.data per-stage stats for two representative pipelines —
    the ds.stats() feedback loop used while tuning (read before believing
    wall numbers on this noisy VM)."""
    import ray

    ray.init(
        address="local",
        num_cpus=NUM_CPUS,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
    )
    import ray.data

    ray.data.DataContext.get_current().enable_progress_bars = False
    from lucene_ray.ops import relational, text

    for name, make in [
        ("term_stats", lambda: text.term_stats(SF_DIR)),
        ("q1_pricing", lambda: relational.q1_pricing(SF_DIR)),
    ]:
        ds = make().materialize()
        print(f"===== {name} =====")
        print(ds.stats())
    ray.shutdown()


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        print(json.dumps(run_scaling()))
    elif "--stats" in sys.argv:
        run_stats()
    elif os.environ.get("GRAFT_BENCH_MODE") == "build":
        print(json.dumps(run_build_bench()))
    else:
        print(json.dumps(run_bench()))

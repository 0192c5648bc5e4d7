"""Self-tests of the benchmark: seeded inputs, failure accounting, span
accounting and the metric contract with BENCHMARK.json.

    python -m pytest perfbench -q

The last test runs the benchmark itself (Ray, about a minute).
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT)]

import layers  # noqa: E402
import run  # noqa: E402
from clocks import Watch, machine_cpu, proc_cpu  # noqa: E402
from inputs import (  # noqa: E402
    TEMPLATES, QueryGenerator, Vocabulary, distinct, doc_batch, write_seeded_corpus,
)
from spans import Tracer, instrumented  # noqa: E402
from workloads import (  # noqa: E402
    Context, Samples, Tally, best_of, check_pool, metrics, query_figures, same_topk,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _files(paths):
    return [Path(p).read_bytes() for p in paths]


def _queries(paths, seed):
    gen = QueryGenerator(Vocabulary.from_corpus(paths), seed)
    pool = gen.pool(4)
    return distinct(pool), gen.stream(pool, 200)


def test_same_seed_same_inputs_other_seed_other_inputs(tmp_path):
    a = write_seeded_corpus(str(tmp_path / "a"), 300, 3, seed=5)
    b = write_seeded_corpus(str(tmp_path / "b"), 300, 3, seed=5)
    c = write_seeded_corpus(str(tmp_path / "c"), 300, 3, seed=6)
    assert _files(a) == _files(b)
    assert _files(a) != _files(c)
    assert _queries(a, 5) == _queries(b, 5)
    assert _queries(a, 5) != _queries(c, 6)
    assert doc_batch(5, 3, 20).equals(doc_batch(5, 3, 20))
    assert not doc_batch(5, 3, 20).equals(doc_batch(6, 3, 20))
    _distinct, stream = _queries(a, 5)
    assert len(set(stream)) < len(stream)  # popular queries repeat


def test_query_mix_follows_the_reference_queries():
    from lucene_ray.pipelines.flagship import REFERENCE_QUERIES

    assert [k for _shape, k in TEMPLATES] == [k for _qid, _q, k in REFERENCE_QUERIES]


def test_each_operation_costs_its_best_repetition():
    assert best_of([3.0, 5.0, 2.0, 4.0, 9.0], ["a", "b", "a", "b", "c"]) == [2.0, 4.0, 2.0, 4.0, 9.0]


def test_calibration_cancels_a_uniformly_slower_host():
    ctx = Context("query_warm", 1, 1, ".", 1)
    out = []
    for slower in (1.0, 1.4):
        ctx.samples = Samples(
            setup_s=[1.0], query_ms=[slower * v for v in (1.0, 2.0, 3.0, 1.5)],
            probe_ms=[slower * v for v in (0.9, 0.8)], keys={"query_ms": [0, 1, 2, 0]},
        )
        out.append(query_figures(ctx))
    for name in ("query_cpu_p50_ms", "query_cpu_tail_ms", "queries_per_cpu_s"):
        assert out[0][name] == pytest.approx(out[1][name])
    assert query_figures(ctx, calibrated=False)["query_cpu_p50_ms"] == pytest.approx(1.4 * 1.5)


def test_raised_operation_counts_as_failure():
    tally = Tally()
    assert tally.run("ok", lambda: 1) == 1
    assert tally.run("boom", lambda: 1 / 0) is None
    assert (tally.attempted, tally.failed) == (2, 1)
    assert tally.failures[0].startswith("boom: ZeroDivisionError")


def _tiny_index(tmp_path):
    """A real index built in-process (no Ray): one segment per shard."""
    from lucene_ray.index.builder import build_one_segment, plan_segments
    from lucene_ray.index.manifest import Manifest, write_manifest

    paths = write_seeded_corpus(str(tmp_path / "corpus"), 300, 3, seed=1)
    ix = str(tmp_path / "ix")
    entries = [build_one_segment(s, ix) for s in plan_segments(paths, 5_000)]
    write_manifest(ix, Manifest(
        generation=1, analyzer="code", doc_count=sum(e.doc_count for e in entries),
        sum_ttf=sum(e.sum_ttf for e in entries), segments=entries,
    ))
    return paths, ix


def _pool_rows(ix, queries, swap_qid=None):
    from lucene_ray.search.engine import IndexSearcher

    searcher = IndexSearcher(ix)
    rows = {}
    for qid, (q, k) in enumerate(queries):
        td = searcher.search(q, k)
        docids = list(td.docids)
        if qid == swap_qid:
            docids[0], docids[1] = docids[1], docids[0]
        rows[qid] = [(r, d, s) for r, (d, s) in enumerate(zip(docids, td.scores))]
    return {"rows": rows}


def test_wrong_topk_counts_as_failure(tmp_path):
    paths, ix = _tiny_index(tmp_path)
    queries = [("get", 10), ("index merge", 10), ("read*", 10)]
    ok = Context("batch_pipeline", 1, 1, str(tmp_path), 1)
    check_pool(ok, ix, queries, _pool_rows(ix, queries))
    assert ok.tally.failed == 0 and ok.tally.attempted > 0

    bad = Context("batch_pipeline", 1, 1, str(tmp_path), 1)
    check_pool(bad, ix, queries, _pool_rows(ix, queries, swap_qid=1))
    assert bad.tally.failed == 1
    assert "qid 1" in bad.tally.failures[0]
    assert not same_topk(([2, 1], [3.0, 3.0]), ([1, 2], [3.0, 3.0]))
    assert not same_topk(([1, 2], [3.0, 2.0]), ([1, 2], [3.0, 2.1]))


def test_spans_nest_and_self_times_sum_to_roots(tmp_path):
    from lucene_ray.search.engine import IndexSearcher

    paths, ix = _tiny_index(tmp_path)
    pool, _stream = _queries(paths, 1)
    ctx = Context("query_warm", 1, 1, str(tmp_path), 1, traced=True)
    tr = ctx.tracer
    with instrumented(tr):
        tr.enabled = True
        t0 = time.perf_counter()
        searcher = IndexSearcher(ix)
        for q, k in pool[:40]:
            with tr.span("op.query"):
                searcher.search(q, k)
        wall = time.perf_counter() - t0
        tr.enabled = False
    ctx.window = (wall, wall)
    spans, own = tr.spans, tr.self_times()
    assert {s[0] for s in spans} >= {"op.query", "search.engine.search", "search.scorer.score"}
    for s in spans:
        if s[3] is not None:
            p = spans[s[3]]
            assert p[1] <= s[1] <= s[2] <= p[2]
            assert s[4] == p[4]  # one request id per query
    assert len({s[4] for s in spans if s[0] == "op.query"}) == 40
    for i, s in enumerate(spans):
        if s[3] is None:
            tree = [j for j in range(len(spans)) if tr.root_of(j) == i]
            assert abs(sum(own[j] for j in tree) - (s[2] - s[1]) / 1e9) < 1e-9
    out = layers.compute(ctx)
    covered = sum(out[m] for m in layers.SELF_TIME.values()) + out["trace.remainder_s"]
    assert abs(covered - out["trace.wall_s"]) < 1e-9
    assert out["search.reader.cursor_cache_hit_ratio"] > 0


def test_cpu_clocks_count_work_not_waiting():
    with Watch(proc_cpu) as idle:
        time.sleep(0.3)
    assert idle.wall >= 0.3 and idle.cpu < 0.05
    # a child process that has already ended still counts on machine_cpu
    with Watch(machine_cpu) as child:
        subprocess.run([sys.executable, "-c",
                        "import time\nt = time.process_time()\n"
                        "while time.process_time() - t < 0.5: pass"], check=True)
    assert child.cpu >= 0.45


def test_tracer_records_nothing_when_disabled():
    tr = Tracer()
    with tr.span("op.query"):
        pass
    assert tr.spans == []


def test_declared_metrics_match_the_code():
    e2e = {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]}
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]}
    assert per_layer == {n: (u, b) for n, (u, b, _why) in layers.LAYERS.items()}
    ctx = Context("query_warm", 1, 1, ".", 1)
    ctx.samples = Samples(
        setup_s=[1.0], build_s=[1.0], build_docs=10, merge_s=[1.0], pool_first_s=[1.0],
        pool_steady_qps=[1.0], pipeline_s=[1.0], query_ms=list(np.arange(1, 2000.0)),
        refresh_ms=list(np.arange(1, 50.0)), bytes_per_doc=1.0,
        probe_ms=[0.75], keys={"query_ms": list(range(1999)), "refresh_ms": list(range(49))},
    )
    values = metrics(ctx) | {"peak_rss_mb": 1.0}
    assert set(values) == set(e2e)
    line = run.result_line(SPEC, False, values, ctx.tally)
    assert {n: m["unit"] for n, m in line["metrics"].items()} == {n: u for n, (u, _b) in e2e.items()}
    with pytest.raises(ValueError):
        run.result_line(SPEC, False, {k: v for k, v in values.items() if k != "setup_s"}, ctx.tally)
    with pytest.raises(ValueError):
        run.result_line(SPEC, False, values | {"extra": 1.0}, ctx.tally)


def test_fails_without_the_engine(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "query_warm", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_are_the_declared_ones(trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "query_warm", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == want

"""One fan-out for per-segment Ray work.

``index.tasks.fan_out(fn, items)`` is the only dispatcher of per-segment
Ray tasks (build, merge, delete-by-term, replicate, the HNSW shard build):
  - results come back in input order, each item from its own Ray task;
  - ``concurrency`` caps the tasks in flight;
  - an exception raised by ``fn`` reaches the caller as its own type;
  - ``fan_out([])`` touches no Ray API;
  - results are the pickled objects themselves, not JSON round-trips: a
    built ``SegmentEntry`` equals the in-process one;
  - under ``lucene_ray/index/`` nothing else submits Ray tasks or builds
    a control Dataset, nothing repartitions, and only tasks.py reads the
    concurrency cap.
"""

import dataclasses
import functools
import pathlib

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

import lucene_ray
from lucene_ray.index.builder import BuildOptions, build_one_segment, plan_segments
from lucene_ray.index.manifest import SegmentEntry, read_entry
from lucene_ray.index.tasks import fan_out

ROOT = pathlib.Path(lucene_ray.__file__).parent


# Ray workers cannot import this test module, so every function shipped
# to a task is defined inside its test (pickled by value)


def test_input_order_one_task_per_item(ray_session):
    def doubled_with_task(x):
        import ray

        return 2 * x, ray.get_runtime_context().get_task_id()

    out = fan_out(doubled_with_task, range(7))
    assert [v for v, _ in out] == [2 * i for i in range(7)]
    tasks = [t for _, t in out]
    assert None not in tasks  # ran in a Ray task, not in this process
    assert len(set(tasks)) == 7


def test_concurrency_caps_tasks_in_flight(ray_session):
    def span(x):
        import time

        t0 = time.time()
        time.sleep(0.2)
        return t0, time.time()

    spans = fan_out(span, range(6), concurrency=2)
    # no instant lies inside more than two task spans
    for t0, _ in spans:
        assert sum(a <= t0 < b for a, b in spans) <= 2


def test_exception_reaches_caller(ray_session):
    def fail_on_two(x):
        if x == 2:
            raise KeyError(f"item {x}")
        return x

    with pytest.raises(KeyError, match="item 2"):
        fan_out(fail_on_two, range(4))


def test_empty_starts_nothing(monkeypatch):
    import ray

    def untouchable(*_a, **_k):
        raise AssertionError("fan_out([]) reached Ray")

    for name in ("remote", "put", "wait", "get", "cluster_resources"):
        monkeypatch.setattr(ray, name, untouchable)
    assert fan_out(untouchable, []) == []
    assert fan_out(untouchable, iter(())) == []


def test_objects_survive_the_round_trip(ray_session, tmp_path):
    # a JSON round-trip turns the tuple into a list and the int key into
    # a string; pickled bytes keep both
    e = SegmentEntry(
        name="seg_00000", docid_base=0, doc_count=3, sum_ttf=9,
        unique_terms=4, bytes=100, input={"span": (0, 2)}, metrics={1: 0.5},
        sorted_runs=[(0, 3)],
    )
    assert fan_out(dataclasses.replace, [e]) == [e]

    n = 60
    src = str(tmp_path / "c.parquet")
    pq.write_table(
        pa.table({
            "repo": ["r"] * n, "path": [f"p{i}" for i in range(n)],
            "commit": ["c"] * n, "lang": ["py"] * n,
            "content": [f"merge flush k{i}" for i in range(n)],
        }),
        src, row_group_size=20,
    )
    d = str(tmp_path / "ix")
    specs = plan_segments([src], 20, BuildOptions().variant)
    built = fan_out(
        functools.partial(build_one_segment, index_dir=d, options=BuildOptions()),
        specs,
    )
    assert len(built) == 3
    assert [e.docid_base for e in built] == [0, 20, 40]
    # the in-process view of each segment: what the task wrote to disk
    assert built == [read_entry(d, s.name) for s in specs]


def test_one_fan_out_under_index():
    index = sorted((ROOT / "index").glob("*.py"))
    assert any(p.name == "tasks.py" for p in index)
    for p in index:
        src = p.read_text()
        assert ".repartition(" not in src, p.name
        # stats.py's from_items feeds a groupby shuffle (a Dataset, not a
        # list of per-item results) and corpus.py's task writes synthetic
        # corpus shards, not segments: neither is a fan-out
        if p.name != "stats.py":
            assert "ray.data.from_items" not in src, p.name
        if p.name not in ("tasks.py", "corpus.py"):
            assert "ray.remote" not in src, p.name
    readers = {
        p.relative_to(ROOT).as_posix()
        for p in ROOT.rglob("*.py")
        if "PER_NODE_HEAVY_WORKERS" in p.read_text()
    }
    assert readers == {"config.py", "index/tasks.py"}

"""One fan-out for per-segment Ray work (SURVEY.md §7.2).

``fan_out(fn, items)`` is ``[fn(x) for x in items]`` with each item in its
own Ray task: results in input order, the objects themselves, and an
exception raised by ``fn`` reaching the caller as an instance of its own
type (Ray's ``RayTaskError`` subclasses it). Plain tasks, not a Ray Data
``map_batches``: a Dataset pays its executor start on every call (replicate
of 10 segments on 1 CPU: 0.26 s through a Dataset, 0.10 s as tasks) and
needs its own row encoding for items, results and errors.

Callers keep their own in-process guard; ``fan_out`` always dispatches,
and ``ray.get`` waits for every task, so nothing outlives the call.
"""

from __future__ import annotations

from lucene_ray.config import PER_NODE_HEAVY_WORKERS


def _concurrency(n_items: int, requested: int | None = None) -> int:
    """Concurrent tasks for ``n_items`` allocation-heavy items (segment
    builds; merges, ConcurrentMergeScheduler's maxMergeCount role):
    ``requested``, else every core up to 8 cores, else 3/4 of them capped
    at PER_NODE_HEAVY_WORKERS; never more than ``n_items``. Above ~10 heavy
    workers a node hits a memory-subsystem cliff (BASELINE.md: a 200K-doc
    build runs 9.1 s at 10-way vs 17.5 s at 24-way); the cap is per node,
    not an engine limit. Up to 8 cores every core is used, which keeps the
    N -> 4N worker ratio the scaling criterion measures."""
    if requested is None:
        import ray

        avail = int(ray.cluster_resources().get("CPU", 8))
        requested = (
            avail if avail <= 8 else min((avail * 3 + 2) // 4, PER_NODE_HEAVY_WORKERS)
        )
    return max(1, min(n_items, requested))


def fan_out(fn, items, concurrency: int | None = None) -> list:
    """``[fn(x) for x in items]``, each item in its own Ray task.

    ``concurrency`` caps the concurrent tasks. The default is the
    :func:`_concurrency` rule for allocation-heavy work; replication,
    delete-by-term and HNSW shards pass ``len(items)`` (CPU slots only).
    ``fan_out([])`` returns ``[]`` without touching Ray."""
    items = list(items)
    if not items:
        return []
    import ray

    task, fn_ref = ray.remote(_call), ray.put(fn)
    cap = _concurrency(len(items), concurrency)
    refs: list = []
    for x in items:
        if len(refs) >= cap:
            # keep at most ``cap`` tasks in flight
            ray.wait(refs, num_returns=len(refs) - cap + 1)
        refs.append(task.remote(fn_ref, x))
    return ray.get(refs)


def _call(fn, x):
    return fn(x)

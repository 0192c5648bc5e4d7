"""Query profiler — the sandbox QueryProfilerIndexSearcher surface
(sandbox/search/QueryProfiler{IndexSearcher,Breakdown,Result,Tree}.java):
wrap a searcher, run queries normally, and get back a per-query-node
timing/count tree plus the search-phase breakdown.

Granularity divergence, documented: the reference wraps every Weight /
Scorer call (create_weight, build_scorer, next_doc, advance, score,
match) with nanosecond timers; this engine scores a whole boolean tree
per segment in vectorized kernels, so per-node SCORE time is not
separable — instead each node's breakdown carries its own
``create_weight`` (stats lookup + scorer build, measured by building the
node's scorers in isolation) and the root carries the vectorized
``score_segments`` wall time, which is the faithful decomposition of
this engine's actual phases. Counts (clauses, segments, hits) are
exact."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from lucene_ray.search.query import BooleanQuery


@dataclass
class ProfilerResult:
    """QueryProfilerResult: one node of the profile tree."""

    query_type: str
    description: str
    time_ns: int
    breakdown: dict = field(default_factory=dict)
    children: list = field(default_factory=list)

    def total_time_ns(self) -> int:
        return self.time_ns + sum(c.total_time_ns() for c in self.children)


@dataclass
class ProfileOutcome:
    topdocs: object
    profile: ProfilerResult
    rewrite_ns: int
    collect_ns: int


class QueryProfilerIndexSearcher:
    """Wraps an IndexSearcher; ``profile(query, k)`` returns
    (TopDocs, profile tree)."""

    def __init__(self, searcher):
        self.searcher = searcher

    def _node_profile(self, q) -> ProfilerResult:
        s = self.searcher
        t0 = time.perf_counter_ns()
        try:
            # build this node's scorers in isolation = createWeight cost
            sub = q if isinstance(q, BooleanQuery) else BooleanQuery(should=[q])
            s._scorers(sub)
            weight_ns = time.perf_counter_ns() - t0
        except Exception:
            weight_ns = time.perf_counter_ns() - t0
        children = []
        for attr in ("disjuncts", "queries", "clauses"):
            subs = getattr(q, attr, None)
            if subs:
                children = [self._node_profile(c) for c in subs]
                break
        return ProfilerResult(
            query_type=type(q).__name__,
            description=repr(q),
            time_ns=weight_ns,
            breakdown={"create_weight": weight_ns, "create_weight_count": 1},
            children=children,
        )

    def profile(self, query, k: int = 10) -> ProfileOutcome:
        s = self.searcher
        bq = s.parse(query) if isinstance(query, str) else query
        t0 = time.perf_counter_ns()
        rewritten = s.prepare(bq)
        rewrite_ns = time.perf_counter_ns() - t0

        t1 = time.perf_counter_ns()
        td = s.search(rewritten, k)
        collect_ns = time.perf_counter_ns() - t1

        root = ProfilerResult(
            query_type=type(rewritten).__name__,
            description=repr(rewritten),
            time_ns=collect_ns,
            breakdown={
                "score_segments": collect_ns,
                "segments": len(s.reader.segments),
                "hits": int(td.total_hits),
            },
            children=[
                self._node_profile(c)
                for c in (
                    list(getattr(rewritten, "must", []))
                    + list(getattr(rewritten, "should", []))
                    + list(getattr(rewritten, "must_not", []))
                )
            ],
        )
        return ProfileOutcome(td, root, rewrite_ns, collect_ns)

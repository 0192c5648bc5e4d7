"""Percolator / reverse search — the monitor module re-expressed Ray-native.

Spec: `lucene/monitor/src/java/org/apache/lucene/monitor/Monitor.java:44`
(register MonitorQuery objects, ``match(docs)`` returns which queries match
each incoming document) and `TermFilteredPresearcher.java:62` (index the
queries by their terms so only queries sharing a term with the document are
evaluated — the anti "run every query on every doc" optimization).

Ray-Data shape: the registered query set is small state loaded ONCE per
actor (``PercolatorStage`` below — queries parse in ``__init__``); incoming
documents stream through ``map_batches``. Per batch, the document text
tokenizes once (the shared flat kernel), every query TERM becomes one
vectorized membership bitvector over the batch's docs (dictionary-code
``np.isin`` — no per-doc python loop), and boolean structure combines
bitvectors; only phrase verification touches individual candidate docs.
The presearcher prefilter skips whole queries whose anchor terms don't
appear anywhere in the batch.

Supported query surface (the classic-parser subset the engine's matcher
shares): TermQuery, PhraseQuery (exact + slop), required / prohibited /
optional clauses with minimumShouldMatch. Registered queries are strings
parsed with the same analyzer as the documents.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from lucene_ray.search.query import (
    BooleanQuery,
    PhraseQuery,
    TermQuery,
    parse_query,
)


def _clause_vec(
    q, codes_by_term: dict, n_docs: int, doc_term_rows: dict
) -> np.ndarray:
    """Boolean membership vector over the batch's docs for one clause."""
    if isinstance(q, TermQuery):
        return codes_by_term.get(q.term, np.zeros(n_docs, dtype=bool))
    if isinstance(q, PhraseQuery):
        # candidates must contain every phrase term; positions verified
        # per candidate doc only
        cand = np.ones(n_docs, dtype=bool)
        for t in q.terms:
            cand &= codes_by_term.get(t, np.zeros(n_docs, dtype=bool))
        out = np.zeros(n_docs, dtype=bool)
        for d in np.nonzero(cand)[0]:
            pos_lists = [doc_term_rows[(int(d), t)] for t in q.terms]
            if _phrase_in_doc(pos_lists, q.slop):
                out[d] = True
        return out
    raise TypeError(f"unsupported percolator clause: {type(q).__name__}")


def _phrase_in_doc(pos_lists: list[np.ndarray], slop: int) -> bool:
    """Exact (slop=0): consecutive positions; sloppy: adjusted-position
    span <= slop (the engine's SloppyPhraseMatcher semantics)."""
    if slop == 0:
        base = pos_lists[0]
        hit = np.ones(len(base), dtype=bool)
        for j, pl in enumerate(pos_lists[1:], start=1):
            hit &= np.isin(base + j, pl)
            if not hit.any():
                return False
        return bool(hit.any())
    # sloppy: any alignment whose adjusted positions span within slop
    from itertools import product

    small = [pl.tolist() for pl in pos_lists]
    for combo in product(*small):
        adj = [p - i for i, p in enumerate(combo)]
        if max(adj) - min(adj) <= slop:
            return True
    return False


class Percolator:
    """In-process monitor: register string queries once, match document
    batches. ``match_batch`` is the vectorized kernel PercolatorStage wraps
    for the actor-pool path."""

    def __init__(self, queries: dict[int, str], analyzer=None):
        from lucene_ray.analysis import get_analyzer

        analyzer = analyzer or get_analyzer("code")
        self._register(
            {qid: parse_query(q, analyzer) for qid, q in queries.items()},
            analyzer,
        )

    @classmethod
    def from_parsed(
        cls, queries: dict[int, BooleanQuery], analyzer
    ) -> Percolator:
        """A percolator over already-parsed queries (DecomposingPercolator
        registers its decomposed parts this way)."""
        perc = cls.__new__(cls)
        perc._register(queries, analyzer)
        return perc

    def _register(self, queries: dict[int, BooleanQuery], analyzer) -> None:
        self.analyzer = analyzer
        self.queries = queries
        # TermFilteredPresearcher.java:62 — anchor terms per query: a doc
        # batch containing NONE of them cannot match, so the query is
        # skipped outright. Required clauses anchor on any one term; a
        # pure disjunction anchors on all its terms.
        self.anchors: dict[int, set] = {}
        for qid, bq in queries.items():
            terms: set = set()
            for q in bq.must or bq.should:
                if isinstance(q, TermQuery):
                    terms.add(q.term)
                elif isinstance(q, PhraseQuery):
                    terms.update(q.terms)
            self.anchors[qid] = terms

    def match_batch(self, batch: pa.Table) -> pa.Table:
        doc_ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        n = batch.num_rows
        row_idx, terms, positions = self.analyzer.tokenize_flat(
            batch.column("text").combine_chunks()
        )
        # one membership bitvector per distinct term present in ANY query
        needed: set = set()
        phrase_terms: set = set()
        for bq in self.queries.values():
            for q in list(bq.must) + list(bq.should) + list(bq.must_not):
                if isinstance(q, TermQuery):
                    needed.add(q.term)
                elif isinstance(q, PhraseQuery):
                    needed.update(q.terms)
                    phrase_terms.update(q.terms)
        codes_by_term: dict = {}
        doc_term_rows: dict = {}
        if len(row_idx):
            d_arr = (
                terms
                if isinstance(terms, pa.DictionaryArray)
                else terms.dictionary_encode()
            )
            vocab = d_arr.dictionary.to_pylist()
            code_of = {t: c for c, t in enumerate(vocab)}
            codes = d_arr.indices.to_numpy(zero_copy_only=False)
            for t in needed:
                c = code_of.get(t)
                if c is None:
                    continue
                mask = codes == c
                vec = np.zeros(n, dtype=bool)
                vec[row_idx[mask]] = True
                codes_by_term[t] = vec
                if t in phrase_terms:
                    for d in np.unique(row_idx[mask]):
                        doc_term_rows[(int(d), t)] = positions[
                            mask & (row_idx == d)
                        ]
        present = set(codes_by_term)
        out_doc, out_q = [], []
        for qid, bq in self.queries.items():
            if not bq.must and not bq.should:
                # pure-negative boolean (e.g. '-slow'): IndexSearcher's
                # empty-positive-clause guard matches NOTHING — mirror it
                # (ADVICE r3; reference: pure MUST_NOT queries match no docs)
                continue
            if self.anchors[qid] and not (self.anchors[qid] & present):
                continue  # presearcher skip
            ok = np.ones(n, dtype=bool)
            for q in bq.must:
                ok &= _clause_vec(q, codes_by_term, n, doc_term_rows)
            if bq.should:
                votes = np.zeros(n, dtype=np.int64)
                for q in bq.should:
                    votes += _clause_vec(q, codes_by_term, n, doc_term_rows)
                need = max(bq.min_should_match, 0 if bq.must else 1)
                ok &= votes >= need
            for q in bq.must_not:
                ok &= ~_clause_vec(q, codes_by_term, n, doc_term_rows)
            hits = np.nonzero(ok)[0]
            out_doc.extend(int(doc_ids[d]) for d in hits)
            out_q.extend([qid] * len(hits))
        return pa.table(
            {
                "doc_id": pa.array(out_doc, type=pa.int64()),
                "query_id": pa.array(out_q, type=pa.int64()),
            }
        )


class PercolatorStage:
    """Actor-pool stage: ``map_batches(PercolatorStage,
    fn_constructor_kwargs=dict(queries=...), concurrency=N)`` — queries
    parse once per actor (Monitor.java registration), documents stream."""

    def __init__(self, queries: dict[int, str]):
        self.perc = Percolator(queries)

    def __call__(self, batch: pa.Table) -> pa.Table:
        return self.perc.match_batch(batch)


def percolate_dataset(ds, queries: dict[int, str], concurrency: int = 2):
    """(doc_id, query_id) matches of every registered query over a
    documents Dataset — Monitor.match as a streaming stage."""
    return ds.map_batches(
        PercolatorStage,
        fn_constructor_kwargs={"queries": queries},
        batch_format="pyarrow",
        batch_size=4096,
        concurrency=concurrency,
    )


def decompose_query(q) -> list:
    """QueryDecomposer.decompose (monitor/QueryDecomposer.java:42-118):
    split a disjunction into parts that can be registered and matched
    separately. A BooleanQuery decomposes when minimumShouldMatch <= 1 and
    it has no mandatory clause alongside disjuncts: SHOULD clauses
    decompose recursively; a single MUST clause with no SHOULDs decomposes
    in its place; >1 MUST (or MUST+SHOULD mix) is atomic; MUST_NOT
    exclusions are re-attached to every decomposed part. Leaves are
    atomic (boosts live on our leaf dataclasses, so the BoostQuery
    distribution step is a no-op here).

    Returns parts in a DETERMINISTIC order (sorted by their repr — the
    reference returns a Set; monitoring semantics are order-free)."""
    parts = _decompose(q)
    uniq = {repr(p): p for p in parts}
    return [uniq[k] for k in sorted(uniq)]


def _decompose(q) -> list:
    if not isinstance(q, BooleanQuery):
        return [q]
    if q.min_should_match > 1:
        return [q]
    mandatory = list(q.must)
    exclusions = list(q.must_not)
    subs: list = []
    for s in q.should:
        subs.extend(_decompose(s))
    if len(mandatory) > 1 or (len(mandatory) == 1 and subs):
        return [q]
    if len(mandatory) == 1:
        subs = _decompose(mandatory[0])
    if not exclusions:
        return subs
    return [
        BooleanQuery(must=[s], must_not=list(exclusions)) for s in subs
    ]


def _as_bq(q) -> BooleanQuery:
    return q if isinstance(q, BooleanQuery) else BooleanQuery(should=[q])


class DecomposingPercolator:
    """Monitor registration through QueryDecomposer (Monitor.java's
    default MonitorQuery path): each registered query is decomposed and
    its parts matched independently; a parent query matches a doc when
    ANY part does (the reference runs parts as separate cache entries
    under the same query id). ``match_batch`` reports
    (doc_id, query_id, part) triples — part = the decomposed index in
    decompose_query order; dedup over parts gives Monitor semantics."""

    def __init__(self, queries: dict[int, str], analyzer=None):
        from lucene_ray.analysis import get_analyzer

        self.analyzer = analyzer or get_analyzer("code")
        self.parts: dict[int, BooleanQuery] = {}
        self.parents: dict[int, tuple[int, int]] = {}
        key = 0
        for qid in sorted(queries):
            bq = parse_query(queries[qid], self.analyzer)
            for i, part in enumerate(decompose_query(bq)):
                self.parts[key] = _as_bq(part)
                self.parents[key] = (qid, i)
                key += 1
        self._perc = Percolator.from_parsed(self.parts, self.analyzer)

    def match_batch(self, batch: pa.Table) -> pa.Table:
        """(doc_id, query_id, part) — one row per matching decomposed
        part."""
        raw = self._perc.match_batch(batch)
        qk = raw.column("query_id").to_pylist()
        return pa.table(
            {
                "doc_id": raw.column("doc_id"),
                "query_id": pa.array(
                    [self.parents[k][0] for k in qk], type=pa.int64()
                ),
                "part": pa.array(
                    [self.parents[k][1] for k in qk], type=pa.int64()
                ),
            }
        )


def highlights_match_batch(
    percolator: Percolator, batch: pa.Table
) -> pa.Table:
    """HighlightsMatch (monitor/HighlightsMatch.java): for every matching
    (query, doc), the term hits WITNESSING the match — one row per
    occurrence of each positive TermQuery term and per exact-phrase
    occurrence of each PhraseQuery (sloppy phrases report each in-slop
    alignment's span). Columns: (query_id, doc_id, start_pos, end_pos,
    start_off, end_off) — positions are token positions, offsets byte
    offsets into the raw text (Hit fields, HighlightsMatch.java:184-199).
    MUST_NOT clauses contribute no hits; SHOULD terms absent from the doc
    contribute none (the reference extracts hits from Matches iterators,
    which only surface present terms)."""
    matches = percolator.match_batch(batch)
    if matches.num_rows == 0:
        return pa.table(
            {
                "query_id": pa.array([], type=pa.int64()),
                "doc_id": pa.array([], type=pa.int64()),
                "start_pos": pa.array([], type=pa.int64()),
                "end_pos": pa.array([], type=pa.int64()),
                "start_off": pa.array([], type=pa.int64()),
                "end_off": pa.array([], type=pa.int64()),
            }
        )
    doc_ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
    row_of = {int(d): i for i, d in enumerate(doc_ids)}
    row_idx, terms, positions, starts, lengths = (
        percolator.analyzer.tokenize_flat(
            batch.column("text").combine_chunks(), with_offsets=True
        )
    )
    # per (row, term): positions + offsets, gathered once
    occ: dict = {}
    tl = terms.to_pylist()
    for i in range(len(tl)):
        occ.setdefault((int(row_idx[i]), tl[i]), []).append(
            (int(positions[i]), int(starts[i]), int(lengths[i]))
        )
    out = {k: [] for k in (
        "query_id", "doc_id", "start_pos", "end_pos", "start_off", "end_off"
    )}

    def emit(qid, did, sp, ep, so, eo):
        out["query_id"].append(qid)
        out["doc_id"].append(did)
        out["start_pos"].append(sp)
        out["end_pos"].append(ep)
        out["start_off"].append(so)
        out["end_off"].append(eo)

    for did, qid in zip(
        matches.column("doc_id").to_pylist(),
        matches.column("query_id").to_pylist(),
    ):
        r = row_of[int(did)]
        bq = percolator.queries[qid]
        seen = set()
        for clause in list(bq.must) + list(bq.should):
            if isinstance(clause, TermQuery):
                for p, s, ln in occ.get((r, clause.term), ()):
                    key = (p, p)
                    if key not in seen:
                        seen.add(key)
                        emit(qid, int(did), p, p, s, s + ln)
            elif isinstance(clause, PhraseQuery):
                rows = [occ.get((r, t)) for t in clause.terms]
                if any(x is None for x in rows):
                    continue
                first = rows[0]
                for p0, s0, _l0 in first:
                    # exact: term j at p0 + j; sloppy: any alignment whose
                    # adjusted-position span fits the slop
                    if clause.slop == 0:
                        span = []
                        ok = True
                        for j in range(1, len(rows)):
                            hit = next(
                                (e for e in rows[j] if e[0] == p0 + j), None
                            )
                            if hit is None:
                                ok = False
                                break
                            span.append(hit)
                        if ok:
                            last = span[-1] if span else (p0, s0, _l0)
                            key = (p0, p0 + len(rows) - 1)
                            if key not in seen:
                                seen.add(key)
                                emit(
                                    qid, int(did), p0, p0 + len(rows) - 1,
                                    s0, last[1] + last[2],
                                )
                    else:
                        for combo in _slop_alignments(rows, p0, clause.slop):
                            ps = [e[0] for e in combo]
                            key = (min(ps), max(ps))
                            if key not in seen:
                                seen.add(key)
                                lastoff = max(e[1] + e[2] for e in combo)
                                emit(
                                    qid, int(did), min(ps), max(ps),
                                    min(e[1] for e in combo), lastoff,
                                )
    return pa.table(
        {k: pa.array(v, type=pa.int64()) for k, v in out.items()}
    )


def _slop_alignments(rows, p0, slop):
    """Alignments of one occurrence per term starting from the first
    term's occurrence at p0 whose adjusted-position span <= slop."""
    first = next(e for e in rows[0] if e[0] == p0)
    combos = [[first]]
    for j in range(1, len(rows)):
        nxt = []
        for c in combos:
            for e in rows[j]:
                adj = [c[i][0] - i for i in range(len(c))] + [e[0] - j]
                if max(adj) - min(adj) <= slop:
                    nxt.append(c + [e])
        combos = nxt
    return combos

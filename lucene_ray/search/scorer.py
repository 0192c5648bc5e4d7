"""Per-segment query execution: the clause table, an exhaustive TAAT oracle
and a bulk top-k scorer, sharing one contribution model so scores are
bit-identical.

Clause table (the rewrite -> Weight -> per-segment Scorer step, SURVEY.md
§2.11): every query type is ONE row of ``CLAUSE_TABLE``, keyed by its
class — the row's kind and its match function. ``build_clauses`` looks the
row up, runs the match (through the segment's LRUQueryCache unless the row
says otherwise), drops an empty result and wraps the rest in a ``_Clause``.
A type without a row raises TypeError: multi-term, span-wrapper,
phrase-wildcard and reader-lazy queries are rewritten away before scoring.
The four kinds:
  - TERM: a TermQuery's SegmentTermCursor — lazy, block-selective decode
    and per-block max scores (TermScorer + ImpactsDISI).
  - FREQ: (docids, freqs) scored by the clause's similarity, max score over
    the matches — phrase, sloppy/n-gram/multi-phrase, interval, span-near,
    span algebra, synonym (the PhraseWeight/SpanWeight shape).
  - CONST: docids, each scoring ``q.boost`` (ConstantScoreWeight /
    ConstantScoreScorer) — points, range fields, doc values,
    index-or-doc-values, exists, shapes, lat/lon, geo3d, multi-range,
    function match/range, match-all, constant-score.
  - SCORED: (docids, float32 scores) the match function computes —
    combined field, blended, nested boolean, block joins, term automaton,
    feature, payload, distance features, function score, covering and the
    disjunctions.

Reference machinery being re-expressed (SURVEY.md §2.11):
  - TermScorer + ImpactsDISI (search/TermScorer.java:29-95,
    search/ImpactsDISI.java:28-70): per-128-doc blocks are decoded
    *selectively* through stored block offsets, and pareto (tf, norm)
    impact metadata gives per-block max scores (MaxScoreCache.java:34-79
    analog) without decoding postings.
  - Min-competitive floor (TopScoreDocCollector.java:283-320,
    MaxScoreAccumulator): θ, the kth-best score collected so far, skips a
    whole segment whose summed clause maxima cannot beat it.
  - Bulk scoring (search/BooleanScorer.java, "score all" over a doc
    window): the window is the whole segment — every scoring clause is
    added into one dense float32 accumulator in canonical clause order,
    for every boolean shape; MUST, MUST_NOT and minimum-should-match
    filter the candidates through the dense match masks.
  - Exhaustive TAAT (``evaluate_boolean``): the oracle — the same match
    set, each candidate rescored clause by clause (``_canonical_scores``).
  - Tie-breaks: score desc, then docID asc (search/HitQueue.java:78-84).

Vectorization stance: no per-doc Python loops — per-clause numpy kernels
and per-BLOCK selective decode. Every path adds a candidate's clause
scores in canonical clause order (an unmatched clause adds +0.0f, which
changes no sum), so the top-k path equals the oracle bit for bit (the
CheckHits duel contract, test-framework/.../CheckHits.java:691-712).
"""

from __future__ import annotations

import functools
import math
from typing import Callable, NamedTuple

import numpy as np

from lucene_ray.codec.forutil import decode_stream, decode_stream_blocks
from lucene_ray.config import BLOCK_SIZE
from lucene_ray.search.intervals import interval_postings
from lucene_ray.search.query import (
    BooleanQuery,
    CombinedFieldQuery,
    ConstantScoreQuery,
    DisjunctionMaxQuery,
    DocValuesTermsQuery,
    IndexOrDocValuesQuery,
    SortedSetDocValuesRangeQuery,
    CoveringQuery,
    DisjunctionSumQuery,
    FieldMaskingSpanQuery,
    MatchAllDocsQuery,
    MultiPhraseQuery,
    NestedBooleanQuery,
    PayloadScoreQuery,
    PhraseQuery,
    PointInSetQuery,
    PointRangeQuery,
    RangeFieldQuery,
    LatLonBoundingBoxQuery,
    Geo3DShapeQuery,
    GeoDistanceFeatureQuery,
    LatLonBoxQuery,
    LatLonDistanceQuery,
    LatLonPolygonQuery,
    IntervalQuery,
    SpanNearQuery,
    SpanContainingQuery,
    SpanFirstQuery,
    SpanNotQuery,
    SpanOrQuery,
    SpanPositionRangeQuery,
    SpanTermQuery,
    SpanWithinQuery,
    FeatureQuery,
    FunctionScoreQuery,
    LongDistanceFeatureQuery,
    BlendedTermQuery,
    FunctionMatchQuery,
    FunctionRangeQuery,
    MultiRangeQuery,
    NGramPhraseQuery,
    FieldExistsQuery,
    ShapeBoxQuery,
    ShapeLineQuery,
    ShapePointQuery,
    ShapePolygonQuery,
    SortedNumericRangeQuery,
    SynonymQuery,
    TermQuery,
    ParentChildrenBlockJoinQuery,
    ToChildBlockJoinQuery,
    ToParentBlockJoinQuery,
)
from lucene_ray.search.similarity import BM25Scorer
from lucene_ray.search.termautomaton import TermAutomatonQuery, automaton_docids

# span-algebra types evaluated through search/spans.py (SpanNearQuery keeps
# its dedicated fast path for all-term clauses)
SPAN_QUERY_TYPES = (
    SpanTermQuery,
    SpanOrQuery,
    SpanNotQuery,
    SpanFirstQuery,
    SpanPositionRangeQuery,
    SpanContainingQuery,
    SpanWithinQuery,
    FieldMaskingSpanQuery,
)

# clause kinds (one per CLAUSE_TABLE row; see the module docstring)
TERM, FREQ, CONST, SCORED = "term", "freq", "const", "scored"

# below this many hits a plain lexsort beats partition + lexsort in _topk
_PARTITION_MIN = 512

# a term clause with more than this many postings per candidate is looked
# up at the candidates instead of scored whole
_LOOKUP_RATIO = 8

# relative safety margin applied to float upper bounds before pruning
# (absorbs float32 summation-order differences; ImpactsDISI uses exact
# float32 arithmetic instead — our bounds are float64 with a margin)
_BOUND_MARGIN = 1e-5


@functools.cache
def _slot_names(cls) -> tuple | None:
    """Every slot name of ``cls`` and its bases, or None when an instance
    can hold state outside slots (a class without ``__slots__``)."""
    bases = cls.__mro__[:-1]
    if not all("__slots__" in vars(c) for c in bases):
        return None
    return tuple(n for c in bases for n in c.__slots__)


def _same_scorer(a, b) -> bool:
    """Whether scorers ``a`` and ``b`` give the same floats. Every scorer
    in search/similarity.py is a pure function of its ``__slots__``, so
    that is: the same slotted class, with equal slot values (numpy tables
    compared by identity, signed zeros told apart)."""
    if a is b:
        return True
    names = _slot_names(type(a))
    if names is None or type(b) is not type(a):
        return False
    for n in names:
        x, y = getattr(a, n), getattr(b, n)
        if x is y:
            continue
        if isinstance(x, np.ndarray) or type(x) is not type(y) or x != y:
            return False
        if x == 0 and math.copysign(1.0, x) != math.copysign(1.0, y):
            return False  # 0.0 == -0.0, but they can score differently
    return True


class SegmentTermCursor:
    """One term's postings in one segment, with lazy/selective block decode.
    Cursors are CACHED per segment reader, so decode work amortizes across
    queries (reader.term_cursor).

    The cursor also keeps its scoring state (MaxScoreCache's role): the
    segment bound ``max_score`` returns and the float32 scores of its
    decoded postings, in one memo slot keyed by the scorer that filled it
    (``_same_scorer``), never by query. A warm term repeated with the same
    idf, boost and norm table is neither re-bounded nor rescored."""

    __slots__ = (
        "row", "df", "_full", "_block_last", "_impacts_flat", "_tfs",
        "_memo_scorer", "_bound", "_scores",
    )

    def __init__(self, row):
        self.row = row
        self.df = int(row["df"])
        self._full = None
        self._block_last = np.asarray(row["block_last_docid"], dtype=np.int64)
        self._impacts_flat = None
        self._tfs = None
        self._memo_scorer = self._bound = self._scores = None

    def _tf_full(self) -> np.ndarray:
        if self._tfs is None:
            self._tfs = decode_stream(self.row["tf_blob"], self.df).astype(np.int64)
        return self._tfs

    def _impacts(self):
        """Flattened impact pairs (tfs, norms, per-block reduceat offsets),
        from the row's flat impacts slice and its block offsets."""
        if self._impacts_flat is None:
            imp = self.row["impacts"]
            offs = imp.offsets
            flat = imp.values[offs[0] : offs[-1]]
            self._impacts_flat = (flat >> 8, flat & 0xFF, offs[:-1] - offs[0])
        return self._impacts_flat

    def decode_all(self) -> tuple[np.ndarray, np.ndarray]:
        if self._full is None:
            if self.df == 1:
                self._full = (
                    np.array([self.row["singleton_docid"]], dtype=np.int64),
                    np.array([self.row["singleton_tf"]], dtype=np.int64),
                )
            else:
                deltas = decode_stream(self.row["doc_blob"], self.df)
                docids = np.cumsum(deltas.astype(np.int64))
                self._full = (docids, self._tf_full())
        return self._full

    def _memo(self, scorer) -> None:
        """Point the memo at ``scorer``: kept when the scorer that filled
        it gives the same floats, emptied otherwise. The memo holds the
        scorer (the tables are the same objects either way), so no table
        identity is reused while the memo is, and the next call with this
        scorer is one identity test."""
        if not _same_scorer(self._memo_scorer, scorer):
            self._bound = self._scores = None
        self._memo_scorer = scorer

    def max_score(self, scorer: BM25Scorer) -> float:
        """The term's max score in this segment, floored at 0: the max over
        its blocks' impact pairs, so no postings are decoded. Memoized."""
        self._memo(scorer)
        if self._bound is None:
            tfs, norms, _offsets = self._impacts()
            self._bound = 0.0 if len(tfs) == 0 else max(
                0.0, float(scorer.max_score_blocks(tfs, norms, np.zeros(1, np.intp))[0])
            )
        return self._bound

    def scored(self, scorer: BM25Scorer, norm_bytes: np.ndarray):
        """(docids, float32 scores) of every posting, both read-only; the
        scores are memoized with the ``norm_bytes`` array they came from."""
        self._memo(scorer)
        docids, tfs = self.decode_all()
        if self._scores is None or self._scores[0] is not norm_bytes:
            s = scorer.score(tfs.astype(np.float32), norm_bytes[docids])
            s.flags.writeable = False
            self._scores = norm_bytes, s
        return docids, self._scores[1]

    def blocks_for(self, docids: np.ndarray) -> np.ndarray:
        """Block index that would contain each docid (searchsorted on the
        per-block last-docid column — the skip-list replacement)."""
        return np.searchsorted(self._block_last, docids, side="left")

    def lookup(self, cand: np.ndarray) -> np.ndarray:
        """tf for each candidate docid (0 where absent). ``cand`` sorted.
        Decodes only the blocks that could contain a candidate."""
        if self.df == 1:
            tf = np.zeros(len(cand), dtype=np.int64)
            hit = cand == self.row["singleton_docid"]
            tf[hit] = self.row["singleton_tf"]
            return tf
        full = self._full is not None
        if not full:
            blocks = np.unique(self.blocks_for(cand))
            blocks = blocks[blocks < len(self._block_last)]
            full = len(blocks) * 4 >= len(self._block_last)
        if full:
            # cursor cached across queries: when candidates touch a sizable
            # share of the blocks, one full decode now is cheaper than
            # repeated selective decodes (skip-selective path kept for
            # sparse candidate sets — the WAND skip story)
            docids, tfs = self.decode_all()
        else:
            if len(blocks) == 0:
                return np.zeros(len(cand), dtype=np.int64)
            offsets = np.asarray(self.row["doc_block_offsets"], dtype=np.int64)
            deltas = decode_stream_blocks(
                self.row["doc_blob"], self.df, offsets, blocks
            ).astype(np.int64)
            # docids are delta-coded across block boundaries: block b's
            # first delta is relative to block b-1's last docid, in
            # block_last; one segmented cumsum rebases every block
            lens = np.minimum(self.df - blocks * BLOCK_SIZE, BLOCK_SIZE)
            starts = np.cumsum(lens) - lens
            base = np.where(blocks > 0, self._block_last[blocks - 1], 0)
            c = np.cumsum(deltas)
            docids = c + np.repeat(base - c[starts] + deltas[starts], lens)
            # tf blocks share doc-block boundaries but only doc offsets are
            # stored; decode the tf stream fully ONCE per cursor (cached —
            # cursors persist across queries)
            at = np.repeat(blocks * BLOCK_SIZE - starts, lens) + np.arange(len(deltas))
            tfs = self._tf_full()[at]
        idx = np.searchsorted(docids, cand)
        idx = np.minimum(idx, len(docids) - 1)
        hit = docids[idx] == cand
        out = np.zeros(len(cand), dtype=np.int64)
        out[hit] = tfs[idx[hit]]
        return out


class _Clause:
    """One query's matches in one segment, shaped by its row's ``kind``:
    TERM keeps a cursor for lazy/selective work, FREQ holds (sorted docids,
    freqs) + scorer, CONST and SCORED hold pre-scored (sorted docids,
    float32 scores)."""

    __slots__ = ("kind", "key", "cursor", "scorer", "_eval", "_scored")

    def __init__(self, kind, key, cursor, scorer, evaluated=None, scored=None):
        self.kind = kind
        self.key = key
        self.cursor = cursor
        self.scorer = scorer
        self._eval = evaluated
        self._scored = scored

    def evaluate(self) -> tuple[np.ndarray, np.ndarray]:
        if self._eval is None:
            if self._scored is not None:
                return self._scored[0], np.ones(len(self._scored[0]), dtype=np.int64)
            self._eval = self.cursor.decode_all()
        return self._eval

    def contrib(self, cand: np.ndarray, norm_bytes: np.ndarray):
        """(float32 contribution, matched mask) per candidate."""
        if self._scored is not None:
            docids, scores = self._scored
            out = np.zeros(len(cand), dtype=np.float32)
            m = np.zeros(len(cand), dtype=bool)
            if len(docids):
                idx = np.searchsorted(docids, cand)
                idx = np.minimum(idx, len(docids) - 1)
                m = docids[idx] == cand
                out[m] = scores[idx[m]]
            return out, m
        tfs = self.lookup(cand)
        m = tfs > 0
        s = self.scorer.score(tfs.astype(np.float32), norm_bytes[cand])
        return np.where(m, s, np.float32(0.0)), m

    def eval_scores(self, norm_bytes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(docids, float32 scores) of every match (pruned-path full eval)."""
        if self._scored is not None:
            return self._scored
        d, tfs = self.evaluate()
        return d, self.scorer.score(tfs.astype(np.float32), norm_bytes[d])

    def lookup(self, cand: np.ndarray) -> np.ndarray:
        if self._eval is not None or self._scored is not None:
            # composite (_scored) clauses have no tf; membership counts as 1
            docids, tfs = (
                self._eval
                if self._eval is not None
                else (self._scored[0], np.ones(len(self._scored[0]), dtype=np.int64))
            )
            idx = np.searchsorted(docids, cand)
            idx = np.minimum(idx, max(len(docids) - 1, 0))
            out = np.zeros(len(cand), dtype=np.int64)
            if len(docids):
                hit = docids[idx] == cand
                out[hit] = tfs[idx[hit]]
            return out
        return self.cursor.lookup(cand)


_POS_SPAN = np.int64(1) << np.int64(22)  # > max in-doc position we index


def _positional_postings(reader, term: str, what: str = "phrase"):
    """``reader.postings(term)``, refusing an index built without positions."""
    p = reader.postings(term)
    if p is not None and p._ttf > 0 and len(p._pos_blob) == 0:
        raise ValueError(
            f"{what} query on an index built without positions "
            "(index_options='freqs'); rebuild with 'positions'"
        )
    return p


def _multi_phrase_postings(
    reader, slots: tuple, offsets: tuple | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Exact phrase match over position slots: (docids, phrase_freq), fully
    vectorized. ``slots`` holds each position's alternative terms (one term
    per slot for a plain phrase); ``offsets`` each slot's position offset
    (default: the slot index).

    ExactPhraseMatcher semantics (search/ExactPhraseMatcher.java:38) via
    int64 (docid, position) keys: a phrase starts at (d, p) iff
    (d*SPAN + p + off_i) is a posting key of some alternative of slot i for
    every i — so the match set is the running ``intersect1d`` of shifted
    key arrays, each slot's keys the UNION of its alternatives'
    (MultiPhraseQuery.java via UnionPostingsEnum). Positions beyond SPAN
    (~4M tokens into one doc) are not matchable (documented cap, the
    maxTokenLength-style bound for phrase spans)."""
    empty = np.array([], dtype=np.int64)
    keys = None
    for i, alts in enumerate(slots):
        off = i if offsets is None else int(offsets[i])
        slot_keys = []
        for t in alts:
            p = _positional_postings(reader, t)
            if p is None:
                continue
            d_rep, abs_pos = p.flat_positions()
            slot_keys.append(d_rep * _POS_SPAN + abs_pos - off)
        if not slot_keys:
            return empty, empty
        k = (
            slot_keys[0]
            if len(slot_keys) == 1
            else np.unique(np.concatenate(slot_keys))
        )
        keys = k if keys is None else np.intersect1d(keys, k, assume_unique=True)
        if len(keys) == 0:
            return empty, empty
    docids_out, freqs_out = np.unique(keys // _POS_SPAN, return_counts=True)
    return docids_out.astype(np.int64), freqs_out.astype(np.int64)


def _gapped_phrase_postings(
    reader, pairs: tuple
) -> tuple[np.ndarray, np.ndarray]:
    """Phrase with EXPLICIT position offsets per term (NGramPhraseQuery's
    rewritten form, search/NGramPhraseQuery.java:66-71 builder.add(term,
    i)): a match starts at (d, p) iff term_j occurs at p + off_j for every
    kept (term_j, off_j)."""
    return _multi_phrase_postings(
        reader, tuple((t,) for t, _off in pairs), tuple(off for _t, off in pairs)
    )


def _positions_conjunction(reader, terms: tuple, what: str, adjust: bool):
    """(per-term (docids, positions), docs holding every term), or None when
    a term is absent or no doc holds them all. ``adjust`` subtracts each
    term's slot index (offset-adjusted phrase positions)."""
    per_term = []
    cand: np.ndarray | None = None
    for i, t in enumerate(terms):
        p = _positional_postings(reader, t, what)
        if p is None:
            return None
        d_rep, abs_pos = p.flat_positions()
        pos = abs_pos.astype(np.int64)
        per_term.append((d_rep, pos - i if adjust else pos))
        cand = p.docids if cand is None else np.intersect1d(cand, p.docids, assume_unique=True)
        if len(cand) == 0:
            return None
    return per_term, cand


def _sloppy_phrase_postings(
    reader, terms: tuple, slop: int
) -> tuple[np.ndarray, np.ndarray]:
    """Sloppy phrase match (search/SloppyPhraseMatcher.java semantics at the
    DOC-SET level): doc matches iff some selection of one occurrence per
    term has span(max(pos_i - i) - min(pos_j - j)) <= slop over
    offset-adjusted positions. freq = greedy count of non-overlapping valid
    windows (engine-defined; the reference's 1/(1+matchLength) float freq
    is not ported — doc sets are reference-identical, scores engine-owned).

    Repeated terms take a dedicated path: a selection must use DISTINCT
    source positions (SloppyPhraseMatcher's repeats handling), checked by
    brute force over the (tiny) per-doc occurrence lists.

    Vectorized gather per term; the window sweep runs only over docs
    containing ALL terms (the conjunction pre-filter), each a tiny
    merged-positions two-pointer pass."""
    got = _positions_conjunction(reader, terms, "phrase", adjust=True)
    if got is None:
        empty = np.array([], dtype=np.int64)
        return empty, empty
    per_term, cand = got
    if len(set(terms)) < len(terms):
        return _sloppy_repeats(per_term, cand, len(terms), slop)
    return _covering_window_sweep(per_term, cand, len(terms), slop)


def _covering_window_sweep(per_term, cand: np.ndarray, k: int, width: int):
    """Shared matcher core: docs where some window of the merged per-term
    position streams covers all k terms with max(pos) - min(pos) <= width;
    freq = greedy non-overlapping window count. Used with offset-ADJUSTED
    positions + width=slop by the sloppy phrase matcher, and with RAW
    positions + width=slop+k-1 by unordered span-near."""
    empty = np.array([], dtype=np.int64)
    # merged (doc, pos, term_idx) restricted to candidate docs
    d_all = np.concatenate([d for d, _ in per_term])
    a_all = np.concatenate([a for _, a in per_term])
    t_all = np.concatenate(
        [np.full(len(a), i, dtype=np.int64) for i, (_, a) in enumerate(per_term)]
    )
    keep = np.isin(d_all, cand, assume_unique=False)
    d_all, a_all, t_all = d_all[keep], a_all[keep], t_all[keep]
    order = np.lexsort((a_all, d_all))
    d_all, a_all, t_all = d_all[order], a_all[order], t_all[order]
    bounds = np.searchsorted(d_all, cand, side="left")
    bounds_hi = np.searchsorted(d_all, cand, side="right")

    out_docs, out_freqs = [], []
    counts = np.zeros(k, dtype=np.int64)
    for ci, doc in enumerate(cand):
        lo, hi = int(bounds[ci]), int(bounds_hi[ci])
        apos = a_all[lo:hi]
        tidx = t_all[lo:hi]
        counts[:] = 0
        covered = 0
        left = 0
        freq = 0
        for right in range(len(apos)):
            tr = tidx[right]
            counts[tr] += 1
            if counts[tr] == 1:
                covered += 1
            if covered < k:
                continue
            # shrink from the left while the window still covers all terms
            while counts[tidx[left]] > 1:
                counts[tidx[left]] -= 1
                left += 1
            if apos[right] - apos[left] <= width:
                freq += 1
                # greedy non-overlap: consume the whole window
                for j in range(left, right + 1):
                    counts[tidx[j]] -= 1
                covered = int((counts > 0).sum())
                left = right + 1
        if freq:
            out_docs.append(doc)
            out_freqs.append(freq)
    if not out_docs:
        return empty, empty
    return (
        np.array(out_docs, dtype=np.int64),
        np.array(out_freqs, dtype=np.int64),
    )


def _sloppy_repeats(per_term, cand: np.ndarray, k: int, slop: int):
    """Sloppy matching for phrases with REPEATED terms: a valid selection
    assigns each slot one occurrence with all chosen SOURCE positions
    distinct (SloppyPhraseMatcher repeats semantics). Brute force over the
    per-doc occurrence lists (tiny; combination count capped)."""
    import itertools

    empty = np.array([], dtype=np.int64)
    out_docs, out_freqs = [], []
    for doc in cand:
        lists = []
        for i, (d_rep, adj) in enumerate(per_term):
            lo = int(np.searchsorted(d_rep, doc, side="left"))
            hi = int(np.searchsorted(d_rep, doc, side="right"))
            # recover source positions (adj = pos - slot index)
            lists.append([(int(a) + i, int(a)) for a in adj[lo:hi]])
        n_combo = 1
        for L in lists:
            n_combo *= len(L)
        if n_combo > 100_000:  # pathological doc guard: approximate by
            # the non-distinct window criterion rather than O(combos) work
            lists = None
        freq = 0
        if lists is not None:
            for sel in itertools.product(*lists):
                src = [p for p, _ in sel]
                if len(set(src)) < len(src):
                    continue
                adjs = [a for _, a in sel]
                if max(adjs) - min(adjs) <= slop:
                    freq += 1
        if freq:
            out_docs.append(int(doc))
            out_freqs.append(freq)
    if not out_docs:
        return empty, empty
    return np.array(out_docs, dtype=np.int64), np.array(out_freqs, dtype=np.int64)


def _span_near_postings(
    reader, terms: tuple, slop: int, ordered: bool
) -> tuple[np.ndarray, np.ndarray]:
    """SpanNearQuery doc sets + engine-defined freqs (see query.py
    SpanNearQuery docstring for the ordered/unordered criteria and the
    reference files they mirror).

    Unordered reuses the covering-window sweep over RAW positions with
    width slop + k - 1 (max - min + 1 - k <= slop). Ordered runs a greedy
    minimal chain per start occurrence: from each position of term 0 take
    the smallest strictly-increasing positions of terms 1..k-1; the chain
    minimizes the end position, so it finds a valid selection iff one
    exists (NearSpansOrdered's stretch-to-match argument); freq counts
    non-overlapping matches greedily."""
    if len(set(terms)) < len(terms):
        raise ValueError("SpanNearQuery with repeated terms is not supported")
    got = _positions_conjunction(reader, terms, "span", adjust=False)
    if got is None:
        empty = np.array([], dtype=np.int64)
        return empty, empty
    per_term, cand = got
    k = len(terms)
    if not ordered:
        return _covering_window_sweep(per_term, cand, k, slop + k - 1)

    out_docs, out_freqs = [], []
    for doc in cand:
        pos = []
        for d_rep, ap in per_term:
            lo = int(np.searchsorted(d_rep, doc, side="left"))
            hi = int(np.searchsorted(d_rep, doc, side="right"))
            pos.append(ap[lo:hi])  # ascending (positions encoded in order)
        freq = 0
        min_start = -1
        for p0 in pos[0]:
            if p0 <= min_start:
                continue  # greedy non-overlap with the previous match
            p = int(p0)
            ok = True
            for i in range(1, k):
                j = int(np.searchsorted(pos[i], p, side="right"))
                if j == len(pos[i]):
                    ok = False
                    break
                p = int(pos[i][j])
            if ok and (p - int(p0) - (k - 1)) <= slop:
                freq += 1
                min_start = p
        if freq:
            out_docs.append(int(doc))
            out_freqs.append(freq)
    if not out_docs:
        return empty, empty
    return np.array(out_docs, dtype=np.int64), np.array(out_freqs, dtype=np.int64)


def _union_sum_tfs(parts: list[tuple[np.ndarray, np.ndarray]]):
    """Union doc sets summing tfs (SynonymQuery blended postings)."""
    if not parts:
        return np.array([], dtype=np.int64), np.array([], dtype=np.int64)
    d, t, starts = _group_by_doc(
        np.concatenate([p[0] for p in parts]), np.concatenate([p[1] for p in parts])
    )
    return d[starts], np.add.reduceat(t, starts)


def _run_starts(keys: np.ndarray) -> np.ndarray:
    """Start index of every run of equal values in sorted, non-empty
    ``keys`` — the segment offsets the np.*.reduceat reducers take."""
    change = np.empty(len(keys), dtype=bool)
    change[0] = True
    change[1:] = keys[1:] != keys[:-1]
    return np.nonzero(change)[0]


def _group_by_doc(keys: np.ndarray, vals: np.ndarray):
    """Stable-sort (keys, vals) by key: (sorted keys, vals in that order,
    run starts) — the one group-by-doc step before a reduceat."""
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    return keys, vals[order], _run_starts(keys)


def _parent_docs(reader, q, scorers: dict) -> np.ndarray:
    """Sorted docids of ``q.parents_filter`` in this segment (the block
    joins' BitSetProducer)."""
    c = build_clauses(reader, [q.parents_filter], scorers)
    return np.sort(c[0].evaluate()[0]) if c else _no_docs()


def _sub_matches(reader, sub, scorers: dict) -> tuple[np.ndarray, np.ndarray]:
    """(docids, float32 scores) of one wrapped query in this segment."""
    c = build_clauses(reader, [sub], scorers)
    return c[0].eval_scores(reader.norm_bytes) if c else _no_scored()


def _block_join(reader, q, scorers: dict, siblings) -> tuple[np.ndarray, np.ndarray]:
    """ToParentBlockJoinQuery evaluation (join/.../ToParentBlockJoinQuery
    .java BlockJoinScorer): children precede their parent, so a matching
    child's parent is the FIRST parents-filter doc with a larger docid.
    Returns (parent docids, aggregated child scores per score_mode)."""
    empty = _no_scored()
    # parents stay UNFILTERED by live docs: a tombstoned parent still
    # delimits its block (children must not leak into the next block);
    # it can't be RETURNED because the top-level candidate live filter
    # drops it (Lucene: the BitSetProducer ignores deletions too)
    parents = _parent_docs(reader, q, scorers)
    if len(parents) == 0:
        return empty
    cd, cs = _sub_matches(reader, q.child_query, scorers)
    live = getattr(reader, "live_mask", None)
    if live is not None:
        # tombstoned CHILDREN never match nor contribute score
        m = live[cd]
        cd, cs = cd[m], cs[m]
    # a parent doc never matches as its own child
    is_parent = np.isin(cd, parents, assume_unique=True)
    cd, cs = cd[~is_parent], cs[~is_parent]
    if len(cd) == 0:
        return empty
    pidx = np.searchsorted(parents, cd, side="right")
    ok = pidx < len(parents)  # orphans after the last parent never match
    cd, cs, pidx = cd[ok], cs[ok], pidx[ok]
    if len(cd) == 0:
        return empty
    pidx_s, cs_s, starts = _group_by_doc(pidx, cs)
    if q.score_mode == "sum":
        agg = np.add.reduceat(cs_s.astype(np.float32), starts)
    elif q.score_mode == "none":
        agg = np.ones(len(starts), dtype=np.float32)
    else:  # max
        agg = np.maximum.reduceat(cs_s, starts)
    return parents[pidx_s[starts]], agg.astype(np.float32)


def _child_block_join(
    reader, q, scorers: dict, siblings
) -> tuple[np.ndarray, np.ndarray]:
    """ToChildBlockJoinQuery evaluation (join/.../ToChildBlockJoinQuery
    .java ToChildBlockJoinScorer): for each parent matching parent_query,
    every live child in its block matches; child score = parent score
    (doScores) or 1.0. Block start = previous parent docid + 1 — exact
    because the build contract puts a parent LAST in every block and
    blocks never straddle segments (the prior segment always ends with a
    parent), mirroring the reference's prevParentDoc bitset walk."""
    empty = _no_scored()
    parents = _parent_docs(reader, q, scorers)
    if len(parents) == 0:
        return empty
    pd, ps = _sub_matches(reader, q.parent_query, scorers)
    # the reference throws if the parent query matches a non-parent doc
    # (ToChildBlockJoinScorer.validateParentDoc); restrict to parents and
    # keep the contract observable through the query's own semantics
    idx = np.searchsorted(parents, pd)
    is_parent = (idx < len(parents)) & (parents[np.minimum(idx, len(parents) - 1)] == pd)
    if not np.all(is_parent):
        raise ValueError(
            "ToChildBlockJoinQuery: parent_query matched a non-parent doc"
        )
    if len(pd) == 0:
        return empty
    starts = np.where(idx > 0, parents[np.maximum(idx - 1, 0)] + 1, 0)
    lengths = pd - starts  # children per block (parent itself excluded)
    keep = lengths > 0
    pd, ps, starts, lengths = pd[keep], ps[keep], starts[keep], lengths[keep]
    if len(pd) == 0:
        return empty
    total = int(lengths.sum())
    cum = np.cumsum(lengths)
    children = (
        np.arange(total, dtype=np.int64)
        - np.repeat(cum - lengths, lengths)
        + np.repeat(starts, lengths)
    )
    if q.do_scores:
        scores = np.repeat(ps, lengths).astype(np.float32)
    else:
        scores = np.ones(total, dtype=np.float32)
    live = getattr(reader, "live_mask", None)
    if live is not None:
        m = live[children]
        children, scores = children[m], scores[m]
    return children, scores


def _parent_children_join(
    reader, q, scorers: dict, siblings
) -> tuple[np.ndarray, np.ndarray]:
    """ParentChildrenBlockJoinQuery evaluation: intersect ONE parent's
    child block with the child query's matches (scores kept)."""
    empty = _no_scored()
    # the query names a GLOBAL parent docid; this scorer runs per segment
    # over LOCAL docids — resolve, and bail out in every other segment
    local_parent = q.parent_docid - reader.docid_base
    if not (0 <= local_parent < reader.doc_count):
        return empty
    parents = _parent_docs(reader, q, scorers)
    if len(parents) == 0:
        return empty
    i = int(np.searchsorted(parents, local_parent))
    if i >= len(parents) or parents[i] != local_parent:
        raise ValueError(
            f"ParentChildrenBlockJoinQuery: docid {q.parent_docid} is not a parent"
        )
    lo = int(parents[i - 1]) + 1 if i > 0 else 0
    hi = int(local_parent)  # exclusive: the parent itself is not a child
    cd, cs = _sub_matches(reader, q.child_query, scorers)
    m = (cd >= lo) & (cd < hi)
    cd, cs = cd[m], cs[m]
    live = getattr(reader, "live_mask", None)
    if live is not None and len(cd):
        keep = live[cd]
        cd, cs = cd[keep], cs[keep]
    return cd, cs.astype(np.float32)


def _dv_filter_docids(reader, q) -> np.ndarray:
    """Doc set of a SORTED / SORTED_SET doc-values filter: resolve the
    query's values to segment ORDINALS once, then scan the doc-ordered ord
    column (DocValuesTermsQuery.java; SortedSetDocValuesField
    .newSlowRangeQuery → SortedSetDocValuesRangeQuery)."""
    is_set = reader.sorted_dv_is_set(q.field)
    if is_set:
        offsets, flat_ords, terms = reader.sorted_set_doc_values(q.field)
    else:
        ords, terms = reader.sorted_doc_values(q.field)
    if isinstance(q, DocValuesTermsQuery):
        want = []
        for t in q.terms:
            i = int(np.searchsorted(terms, t))
            if i < len(terms) and terms[i] == t:
                want.append(i)
        if not want:
            return np.array([], dtype=np.int64)
        want = np.asarray(want, dtype=np.int64)
        if is_set:
            hit = np.isin(flat_ords, want)
        else:
            hit = np.isin(ords, want)
    else:  # SortedSetDocValuesRangeQuery: ordinal window
        lo = (
            0
            if q.lower is None
            else int(
                np.searchsorted(
                    terms, q.lower, side="left" if q.include_lower else "right"
                )
            )
        )
        hi = (
            len(terms)
            if q.upper is None
            else int(
                np.searchsorted(
                    terms, q.upper, side="right" if q.include_upper else "left"
                )
            )
        )
        if lo >= hi:
            return np.array([], dtype=np.int64)
        src = flat_ords if is_set else ords
        hit = (src >= lo) & (src < hi)
    if is_set:
        doc_idx = np.repeat(
            np.arange(len(offsets) - 1, dtype=np.int64), np.diff(offsets)
        )
        return np.unique(doc_idx[hit])
    return np.nonzero(hit)[0].astype(np.int64)


def _index_or_dv_docids(reader, q, use_dv: bool) -> np.ndarray:
    """Evaluate the chosen side of an IndexOrDocValuesQuery. Supported
    shapes: index side TermQuery (postings) or PointRangeQuery (points
    table); dv side DocValuesTermsQuery / SortedSetDocValuesRangeQuery
    (ord scan) or PointRangeQuery (NUMERIC doc-values column scan — the
    'slow' newSlowRangeQuery execution)."""
    sub = q.dv_query if use_dv else q.index_query
    if isinstance(sub, TermQuery):
        cur = reader.term_cursor(sub.term)
        if cur is None:
            return np.array([], dtype=np.int64)
        return cur.decode_all()[0]
    if isinstance(sub, (DocValuesTermsQuery, SortedSetDocValuesRangeQuery)):
        return _dv_filter_docids(reader, sub)
    if isinstance(sub, PointRangeQuery):
        if use_dv:
            vals = reader.doc_values(sub.field)
            m = np.ones(len(vals), dtype=bool)
            if sub.lower is not None:
                m &= vals >= sub.lower
            if sub.upper is not None:
                m &= vals <= sub.upper
            return np.nonzero(m)[0].astype(np.int64)
        return reader.point_range(sub.field, sub.lower, sub.upper)
    raise TypeError(f"unsupported IndexOrDocValuesQuery side: {type(sub)}")


def _qcache(reader, q, compute):
    """Route a clause's match through the segment's LRUQueryCache
    (UsageTrackingQueryCachingPolicy: cached from the second use on)."""
    cache = getattr(reader, "query_cache", None)
    if cache is None:
        return compute()
    return cache.get_or_compute(q, compute)


def _no_docs() -> np.ndarray:
    return np.array([], dtype=np.int64)


def _no_scored() -> tuple[np.ndarray, np.ndarray]:
    return np.array([], dtype=np.int64), np.array([], dtype=np.float32)


def _eval_expression(reader, source: str, docs=None, score=None, owner=""):
    """Evaluate an expression (search/expressions.py) over ``docs`` (every
    doc of the segment when None): ``_score`` binds to ``score``, ``doc_len``
    to the norms-stored token count, any other identifier to the numeric
    doc-values field of that name. A constant formula broadcasts."""
    from lucene_ray.search.expressions import compile_expression

    expr = compile_expression(source)
    pick = (lambda a: a) if docs is None else (lambda a: a[docs])
    bindings = {}
    for v in expr.variables:
        if v == "_score":
            if score is None:
                raise ValueError(
                    f"{owner} has no _score variable (no enclosing query)"
                )
            bindings[v] = score.astype(np.float64)
        elif v == "doc_len":
            bindings[v] = pick(reader.doc_len).astype(np.float64)
        else:
            bindings[v] = pick(reader.doc_values(v)).astype(np.float64)
    vals = np.asarray(expr.evaluate(bindings), dtype=np.float64)
    if vals.ndim == 0:
        vals = np.full(reader.doc_count if docs is None else len(docs), float(vals))
    return vals


# --- match functions: (reader, q, scorers, siblings) -> the row kind's payload
# (TERM: cursor or None; FREQ: (docids, freqs); CONST: docids; SCORED:
# (docids, float32 scores)). ``siblings`` is the clause list ``q`` came in.


def _term_match(reader, q, scorers, siblings):
    return reader.term_cursor(q.term)


def _phrase_match(reader, q, scorers, siblings):
    if getattr(q, "slop", 0) > 0:
        return _sloppy_phrase_postings(reader, q.terms, q.slop)
    return _gapped_phrase_postings(
        reader, tuple((t, i) for i, t in enumerate(q.terms))
    )


def _span_match(reader, q, scorers, siblings):
    from lucene_ray.search.spans import span_postings

    return span_postings(reader, q)


def _span_near_match(reader, q, scorers, siblings):
    if all(isinstance(t, str) for t in q.terms):
        return _span_near_postings(reader, q.terms, q.slop, q.ordered)
    # span-source composition (SpanOr/Not/First sub-clauses)
    return _span_match(reader, q, scorers, siblings)


def _synonym_match(reader, q, scorers, siblings):
    parts = []
    for t in q.terms:
        p = reader.postings(t)
        if p is not None:
            parts.append((p.docids, p.tfs))
    return _union_sum_tfs(parts)


def _combined_field_union(reader, q):
    """Disjunction over all (term, field) postings with weighted float
    freqs (CombinedFieldScorer.freq(): sum of weight * tf over matching
    iterators)."""
    parts = []
    for t in q.terms:
        for f, w in q.fields:
            it = t if f in ("", "content") else f"{f}:{t}"
            p = reader.postings(it)
            if p is not None:
                parts.append((p.docids, np.float64(w) * p.tfs))
    if not parts:
        return np.array([], dtype=np.int64), np.array([], dtype=np.float64)
    alld = np.concatenate([x[0] for x in parts])
    allf = np.concatenate([x[1] for x in parts])
    docids = np.unique(alld)
    freqs = np.zeros(len(docids), dtype=np.float64)
    np.add.at(freqs, np.searchsorted(docids, alld), allf)
    return docids, freqs


def _combined_field_match(reader, q, scorers, siblings):
    sc = scorers.get(q)
    if sc is None:
        return _no_scored()  # df == 0 for every (term, field) pair
    # only the union is cached: scores depend on the global stats
    docids, freqs = _qcache(reader, q, lambda: _combined_field_union(reader, q))
    if len(docids) == 0:
        return _no_scored()
    # combined norm per matched doc: byte4(round(Σ w * len_f)) decoded
    # from the per-field byte4 norms — the additive-norm combine of
    # MultiNormsLeafSimScorer.java:143-153
    from lucene_ray.util.smallfloat import byte4_to_int, int_to_byte4

    lens = np.zeros(len(docids), dtype=np.float32)
    for f, w in q.fields:
        fn = reader.field_norms(f)
        if fn is None:
            raise KeyError(f"CombinedFieldQuery field {f!r} has no norms column")
        lens += np.float32(w) * byte4_to_int(fn[0][docids]).astype(np.float32)
    combined_norms = int_to_byte4(np.floor(lens + np.float32(0.5)).astype(np.int64))
    return docids, sc.score(freqs.astype(np.float32), combined_norms).astype(np.float32)


def _blended_match(reader, q, scorers, siblings):
    """Per-term postings scored with BLENDED stats (scorers keyed
    (q, term)), combined dismax/boolean (BlendedTermQuery.java
    RewriteMethod variants)."""
    per_term = []
    for t in q.terms:
        sc = scorers.get((q, t))
        if sc is None:
            continue
        cur = reader.term_cursor(t)
        if cur is None:
            continue
        d, tfs = cur.decode_all()
        if len(d) == 0:
            continue
        per_term.append((d, sc.score(tfs.astype(np.float32), reader.norm_bytes[d])))
    if not per_term:
        return _no_scored()
    all_d = np.unique(np.concatenate([d for d, _s in per_term]))
    smax = np.zeros(len(all_d), dtype=np.float32)
    ssum = np.zeros(len(all_d), dtype=np.float32)
    for d, s in per_term:
        idx = np.searchsorted(all_d, d)
        np.maximum.at(smax, idx, s)
        np.add.at(ssum, idx, s)
    if q.rewrite == "boolean":
        score = ssum
    else:  # dismax: max + tie * (sum of the others)
        score = smax + np.float32(q.tie_breaker) * (ssum - smax)
    return all_d, score.astype(np.float32)


def _exists_match(reader, q, scorers, siblings):
    from lucene_ray.config import KEYWORD_FIELDS

    if q.field == "content":
        return np.nonzero(reader.doc_len > 0)[0].astype(np.int64)
    dense = (
        q.field in KEYWORD_FIELDS
        or q.field in reader.doc_values_schema()
        or q.field in reader.sorted_dv_schema()
        or q.field in reader.binary_dv_schema()
    )
    if dense:
        return np.arange(reader.doc_count, dtype=np.int64)
    # SORTED_NUMERIC lists are per-doc and may be EMPTY (the sidecar stores
    # a list row per doc verbatim), so existence = non-empty list, not the
    # dense all-docs set. (ADVICE r4)
    if q.field in reader.sorted_numeric_dv_schema():
        offsets, _flat = reader.sorted_numeric_doc_values(q.field)
        return np.nonzero(np.diff(offsets) > 0)[0].astype(np.int64)
    # indexed shapes: docs present in the shapes sidecar
    if q.field in reader.shape_fields():
        return np.unique(reader.shape_triangles(q.field)[0]).astype(np.int64)
    return _no_docs()


def _check_relation(q, allowed: tuple, what: str, note: str = "") -> None:
    if q.relation not in allowed:
        raise ValueError(f"unsupported {what} relation: {q.relation!r}{note}")


def _shape_docids(reader, q, relate, contains=None) -> np.ndarray:
    """Per-doc reduction of a per-triangle shape test over the doc-major
    triangle rows of ``q.field``. ``relate(tris)`` -> (intersects,
    within-or-None) per triangle; ``contains(tris, edge_flags)`` ->
    (candidate, not-within) per triangle for the CONTAINS relation
    (format-v9 edge flags). A doc intersects if any triangle does, is
    within if all are, is disjoint if it has a shape and none intersects,
    contains if some triangle is a candidate and none is not-within."""
    dd, *tris = reader.shape_triangles(q.field)
    if len(dd) == 0:
        return _no_docs()
    tris = tuple(tris)
    starts = _run_starts(dd)

    def any_(x):
        return np.add.reduceat(x.astype(np.int64), starts) > 0

    if q.relation == "contains":
        cand, notw = contains(tris, reader.shape_edge_flags(q.field))
        keep = any_(cand) & ~any_(notw)
    else:
        inter, within = relate(tris)
        if q.relation == "intersects":
            keep = any_(inter)
        elif q.relation == "within":
            keep = np.add.reduceat(within.astype(np.int64), starts) == np.diff(
                np.append(starts, len(dd))
            )
        else:  # disjoint: the doc HAS a shape and nothing intersects
            keep = ~any_(inter)
    return dd[starts][keep].astype(np.int64)


def _shape_box_match(reader, q, scorers, siblings):
    from lucene_ray.search.spatial import tri_box_relation, tri_polygon_contains

    _check_relation(q, ("intersects", "within", "disjoint", "contains"), "shape")
    # CONTAINS: the box as a 4-vertex ring through the polygon CONTAINS
    # machinery (LatLonShapeBoundingBoxQuery's CONTAINS path)
    shell = (
        (q.min_lat, q.min_lat, q.max_lat, q.max_lat),
        (q.min_lon, q.max_lon, q.max_lon, q.min_lon),
    )
    return _shape_docids(
        reader, q,
        lambda tris: tri_box_relation(tris, q.min_lat, q.max_lat, q.min_lon, q.max_lon),
        lambda tris, flags: tri_polygon_contains(tris, flags, shell),
    )


def _shape_polygon_match(reader, q, scorers, siblings):
    from lucene_ray.search.spatial import tri_polygon_contains, tri_polygon_relation

    _check_relation(q, ("intersects", "within", "disjoint", "contains"), "shape")
    return _shape_docids(
        reader, q,
        lambda tris: tri_polygon_relation(tris, q.shell, q.holes),
        lambda tris, flags: tri_polygon_contains(tris, flags, q.shell, q.holes),
    )


def _shape_point_match(reader, q, scorers, siblings):
    from lucene_ray.search.spatial import _point_in_tri

    _check_relation(q, ("intersects", "disjoint"), "point")
    return _shape_docids(
        reader, q,
        lambda tris: (_point_in_tri(float(q.lon), float(q.lat), *tris), None),
    )


def _shape_line_match(reader, q, scorers, siblings):
    from lucene_ray.search.spatial import tri_line_contains, tri_line_relation

    _check_relation(
        q, ("intersects", "disjoint", "contains"), "line",
        " (a 2-D shape is never WITHIN a line)",
    )
    return _shape_docids(
        reader, q,
        lambda tris: (tri_line_relation(tris, q.lats, q.lons), None),
        lambda tris, flags: tri_line_contains(tris, flags, q.lats, q.lons),
    )


def _sorted_numeric_range_match(reader, q, scorers, siblings):
    offsets, flat = reader.sorted_numeric_doc_values(q.field)
    hit = np.ones(len(flat), dtype=bool)
    if q.lower is not None:
        hit &= flat >= q.lower
    if q.upper is not None:
        hit &= flat <= q.upper
    # ANY value in range: per-doc hit counts via a cumulative sum — empty
    # per-doc lists (offsets[d] == offsets[d+1], incl. a trailing empty doc
    # whose offset == len(flat)) yield 0 naturally, where reduceat would
    # raise. (ADVICE r4)
    cum = np.zeros(len(flat) + 1, dtype=np.int64)
    np.cumsum(hit, out=cum[1:])
    per_doc = cum[offsets[1:]] - cum[offsets[:-1]]
    return np.nonzero(per_doc > 0)[0].astype(np.int64)


def _multi_range_match(reader, q, scorers, siblings):
    parts = [reader.point_range(q.field, lo, hi) for lo, hi in q.ranges]
    parts = [p for p in parts if len(p)]
    if not parts:
        return _no_docs()
    return np.unique(np.concatenate(parts))


def _function_match(reader, q, scorers, siblings):
    vals = _eval_expression(reader, q.expression, owner="FunctionMatchQuery")
    return np.nonzero(vals != 0.0)[0].astype(np.int64)


def _function_range_match(reader, q, scorers, siblings):
    vals = _eval_expression(reader, q.expression, owner="FunctionRangeQuery")
    keep = np.ones(reader.doc_count, dtype=bool)
    if q.lower is not None:
        keep &= vals >= q.lower if q.include_lower else vals > q.lower
    if q.upper is not None:
        keep &= vals <= q.upper if q.include_upper else vals < q.upper
    return np.nonzero(keep)[0].astype(np.int64)


def _index_or_dv_match(reader, q, scorers, siblings):
    # cost rule (IndexOrDocValuesQuery.java scorerSupplier: dv path when
    # the lead cost of the OTHER required clauses is below the index
    # query's own cost): estimate lead from sibling TermQuery dfs, index
    # cost from the wrapped query's df / doc_count
    lead = min(
        (
            reader.term_stats(o.term)[0]
            for o in siblings
            if o is not q and isinstance(o, TermQuery)
        ),
        default=None,
    )
    index_cost = (
        reader.term_stats(q.index_query.term)[0]
        if isinstance(q.index_query, TermQuery)
        else reader.doc_count
    )
    use_dv = lead is not None and lead < index_cost
    # cached per chosen side
    return _qcache(reader, (q, use_dv), lambda: _index_or_dv_docids(reader, q, use_dv))


def _bbox_match(reader, q, scorers, siblings):
    # 1e-4-degree fixed point on both axes (builder _synth_bbox_*
    # encoding); per-axis relation intersect, CROSSES as whole-box
    # intersects - within - contains (LatLonBoundingBox.java
    # newCrossesQuery semantics)
    from lucene_ray.search.spatial import QUANT

    ql = [int(round(q.min_lat * QUANT)), int(round(q.min_lon * QUANT))]
    qh = [int(round(q.max_lat * QUANT)), int(round(q.max_lon * QUANT))]
    axes = (f"{q.field}_lat", f"{q.field}_lon")

    def both(rel):
        a = reader.range_field_docs(axes[0], ql[0], qh[0], rel)
        b = reader.range_field_docs(axes[1], ql[1], qh[1], rel)
        return np.intersect1d(a, b, assume_unique=True)

    if q.relation in ("intersects", "within", "contains"):
        return both(q.relation)
    if q.relation == "crosses":
        inter = both("intersects")
        rest = np.union1d(both("within"), both("contains"))
        return np.setdiff1d(inter, rest, assume_unique=True)
    raise ValueError(f"unknown bbox relation: {q.relation!r}")


def _constant_score_match(reader, q, scorers, siblings):
    sub = build_clauses(reader, [q.query], scorers)
    if not sub:
        return _no_docs()
    return np.unique(np.concatenate([c.evaluate()[0] for c in sub]))


def _nested_boolean_match(reader, q, scorers, siblings):
    # parenthesized group with MUST/MUST_NOT structure: evaluate the inner
    # boolean densely, surface it as ONE scored clause
    d, s = evaluate_boolean(reader, q.to_boolean(), scorers)
    if q.boost != 1.0:
        s = (s * np.float32(q.boost)).astype(np.float32)
    return d, s


def _automaton_match(reader, q, scorers, siblings):
    d = automaton_docids(reader, q)
    return d, np.full(len(d), np.float32(q.boost), dtype=np.float32)


def _feature_match(reader, q, scorers, siblings):
    vals = reader.doc_values(q.field).astype(np.float32)
    docids = np.nonzero(vals > 0)[0].astype(np.int64)
    v = vals[docids]
    if q.function == "saturation":
        s = np.float32(q.weight) * (v / (v + np.float32(q.pivot)))
    else:  # log
        s = np.float32(q.weight) * np.log1p(v)
    return docids, s.astype(np.float32)


def _payload_match(reader, q, scorers, siblings):
    # composable clause form (the standalone float64 twin lives in
    # engine.payload_score_search; this is the scorer-tree path the XML
    # BoostingTermQuery element uses)
    seg_d, seg_v = [], []
    for term in q.terms:
        tp = reader.postings(term)
        if tp is None:
            continue
        if not tp.has_payloads:
            raise ValueError("index was built without payloads (build_index payload_fn)")
        d, v = tp.flat_payloads()
        seg_d.append(d)
        seg_v.append(v)
    if not seg_d:
        return _no_scored()
    d_s, v_s, starts = _group_by_doc(
        np.concatenate(seg_d), np.concatenate(seg_v).astype(np.float64)
    )
    if q.function == "sum":
        sc = np.add.reduceat(v_s, starts)
    elif q.function == "min":
        sc = np.minimum.reduceat(v_s, starts)
    elif q.function == "max":
        sc = np.maximum.reduceat(v_s, starts)
    elif q.function == "avg":
        cnt = np.diff(np.append(starts, len(d_s))).astype(np.float64)
        sc = np.add.reduceat(v_s, starts) / cnt
    else:
        raise ValueError(f"unknown payload function: {q.function}")
    return d_s[starts].astype(np.int64), (sc * float(q.boost)).astype(np.float32)


def _long_distance_feature_match(reader, q, scorers, siblings):
    vals = reader.doc_values(q.field).astype(np.int64)
    docids = np.arange(len(vals), dtype=np.int64)
    # Math.max - Math.min (overflow-safe order of operations)
    dist = np.abs(vals - np.int64(q.origin)).astype(np.float64)
    piv = np.float64(q.pivot_distance)
    return docids, (np.float64(q.boost) * (piv / (piv + dist))).astype(np.float32)


def _geo_distance_feature_match(reader, q, scorers, siblings):
    from lucene_ray.search.spatial import haversine_m

    t = reader._spatial_candidates(q.field, -90.0, 90.0, -180.0, 180.0)
    if t is None:
        return _no_scored()
    docids = t.column("docid").to_numpy(zero_copy_only=False).astype(np.int64)
    dist = haversine_m(
        t.column("lat").to_numpy(zero_copy_only=False),
        t.column("lon").to_numpy(zero_copy_only=False),
        q.lat, q.lon,
    )
    piv = np.float64(q.pivot_m)
    s = (np.float64(q.boost) * (piv / (piv + dist))).astype(np.float32)
    order = np.argsort(docids, kind="stable")
    return docids[order], s[order]


def _function_score_match(reader, q, scorers, siblings):
    # FunctionScoreQuery.java:44 — match set of the wrapped query, score
    # from the compiled formula over (_score, doc values)
    d, s = _sub_matches(reader, q.query, scorers)
    if len(d) == 0:
        return _no_scored()
    vals = _eval_expression(reader, q.expression, docs=d, score=s)
    return d, (np.float64(q.boost) * vals).astype(np.float32)


def _sub_scores(reader, queries, scorers):
    """Every match of every sub-query, grouped by doc: (stable-sorted
    docids, float32 scores, run starts), or None when no sub-query
    matches in this segment."""
    subs = build_clauses(reader, list(queries), scorers)
    if not subs:
        return None
    parts = [c.eval_scores(reader.norm_bytes) for c in subs]
    d = np.concatenate([d for d, _s in parts])
    if len(d) == 0:
        return None
    return _group_by_doc(d, np.concatenate([s for _d, s in parts]).astype(np.float32))


def _covering_match(reader, q, scorers, siblings):
    # sandbox/search/CoveringQuery.java:51 / CoveringScorer.java — doc
    # matches iff #matching sub-queries >= max(1, minMatch(doc)); score =
    # sum of the matching clauses' scores
    grouped = _sub_scores(reader, q.queries, scorers)
    if grouped is None:
        return _no_scored()
    d, s, starts = grouped
    uniq = d[starts]
    counts = np.diff(np.append(starts, len(d)))
    summed = np.add.reduceat(s, starts)
    need = _eval_expression(reader, q.min_match_source, docs=uniq, owner="CoveringQuery")
    keep = counts >= np.maximum(need, 1.0)
    return uniq[keep], (np.float32(q.boost) * summed[keep]).astype(np.float32)


def _disjunction_sum_match(reader, q, scorers, siblings):
    grouped = _sub_scores(reader, q.disjuncts, scorers)
    if grouped is None:
        return _no_scored()
    d, s, starts = grouped
    return d[starts], np.add.reduceat(s, starts).astype(np.float32)


def _disjunction_max_match(reader, q, scorers, siblings):
    grouped = _sub_scores(reader, q.disjuncts, scorers)
    if grouped is None:
        return _no_scored()
    d, s, starts = grouped
    mx = np.maximum.reduceat(s, starts)
    sm = np.add.reduceat(s, starts)
    final = mx + np.float32(q.tie_breaker) * (sm - mx)
    return d[starts], final.astype(np.float32)


class _Row(NamedTuple):
    """One query type's clause-table row: its kind and match function.
    ``cached``: build_clauses routes the match through the segment's query
    cache keyed by the query (rows that cache a part themselves, or not
    at all, say False)."""

    kind: str
    match: Callable
    cached: bool = True


CLAUSE_TABLE: dict[type, _Row] = {
    TermQuery: _Row(TERM, _term_match, cached=False),
    # FREQ: (docids, freqs)
    PhraseQuery: _Row(FREQ, _phrase_match),
    NGramPhraseQuery: _Row(
        FREQ, lambda reader, q, _s, _q: _gapped_phrase_postings(reader, q.kept())
    ),
    MultiPhraseQuery: _Row(
        FREQ, lambda reader, q, _s, _q: _multi_phrase_postings(reader, q.slots)
    ),
    IntervalQuery: _Row(
        FREQ, lambda reader, q, _s, _q: interval_postings(reader, q.source)
    ),
    SpanNearQuery: _Row(FREQ, _span_near_match),
    **{t: _Row(FREQ, _span_match) for t in SPAN_QUERY_TYPES},
    SynonymQuery: _Row(FREQ, _synonym_match),
    # CONST: docids, each scoring q.boost
    MatchAllDocsQuery: _Row(
        CONST, lambda reader, q, _s, _q: np.arange(reader.doc_count, dtype=np.int64),
        cached=False,
    ),
    ConstantScoreQuery: _Row(CONST, _constant_score_match),
    PointRangeQuery: _Row(
        CONST, lambda reader, q, _s, _q: reader.point_range(q.field, q.lower, q.upper)
    ),
    PointInSetQuery: _Row(
        CONST, lambda reader, q, _s, _q: reader.point_in_set(q.field, q.values)
    ),
    MultiRangeQuery: _Row(CONST, _multi_range_match),
    RangeFieldQuery: _Row(
        CONST,
        lambda reader, q, _s, _q: reader.range_field_docs(
            q.field, q.lower, q.upper, q.relation
        ),
    ),
    DocValuesTermsQuery: _Row(CONST, lambda reader, q, _s, _q: _dv_filter_docids(reader, q)),
    SortedSetDocValuesRangeQuery: _Row(
        CONST, lambda reader, q, _s, _q: _dv_filter_docids(reader, q)
    ),
    SortedNumericRangeQuery: _Row(CONST, _sorted_numeric_range_match),
    IndexOrDocValuesQuery: _Row(CONST, _index_or_dv_match, cached=False),
    FieldExistsQuery: _Row(CONST, _exists_match),
    FunctionMatchQuery: _Row(CONST, _function_match),
    FunctionRangeQuery: _Row(CONST, _function_range_match),
    ShapeBoxQuery: _Row(CONST, _shape_box_match),
    ShapePolygonQuery: _Row(CONST, _shape_polygon_match),
    ShapePointQuery: _Row(CONST, _shape_point_match),
    ShapeLineQuery: _Row(CONST, _shape_line_match),
    LatLonBoundingBoxQuery: _Row(CONST, _bbox_match),
    LatLonBoxQuery: _Row(
        CONST,
        lambda reader, q, _s, _q: reader.spatial_box(
            q.field, q.lat_lo, q.lat_hi, q.lon_lo, q.lon_hi
        ),
    ),
    LatLonDistanceQuery: _Row(
        CONST,
        lambda reader, q, _s, _q: reader.spatial_distance(
            q.field, q.lat, q.lon, q.radius_m
        ),
    ),
    LatLonPolygonQuery: _Row(
        CONST, lambda reader, q, _s, _q: reader.spatial_polygon(q.field, q.shell, q.holes)
    ),
    Geo3DShapeQuery: _Row(
        CONST, lambda reader, q, _s, _q: reader.spatial_shape3d(q.field, q.shape)
    ),
    # SCORED: (docids, float32 scores)
    CombinedFieldQuery: _Row(SCORED, _combined_field_match, cached=False),
    BlendedTermQuery: _Row(SCORED, _blended_match),
    NestedBooleanQuery: _Row(SCORED, _nested_boolean_match),
    ToParentBlockJoinQuery: _Row(SCORED, _block_join),
    ToChildBlockJoinQuery: _Row(SCORED, _child_block_join),
    ParentChildrenBlockJoinQuery: _Row(SCORED, _parent_children_join),
    TermAutomatonQuery: _Row(SCORED, _automaton_match),
    FeatureQuery: _Row(SCORED, _feature_match),
    PayloadScoreQuery: _Row(SCORED, _payload_match),
    LongDistanceFeatureQuery: _Row(SCORED, _long_distance_feature_match),
    GeoDistanceFeatureQuery: _Row(SCORED, _geo_distance_feature_match),
    FunctionScoreQuery: _Row(SCORED, _function_score_match),
    CoveringQuery: _Row(SCORED, _covering_match),
    DisjunctionSumQuery: _Row(SCORED, _disjunction_sum_match, cached=False),
    DisjunctionMaxQuery: _Row(SCORED, _disjunction_max_match, cached=False),
}


def build_clauses(reader, queries: list, scorers: dict) -> list[_Clause]:
    """Materialize the clause list for one segment: one CLAUSE_TABLE lookup
    per query; a query with no match in this segment drops out."""
    out = []
    for q in queries:
        row = CLAUSE_TABLE.get(type(q))
        if row is None:
            raise TypeError(
                f"{type(q).__name__} has no clause-table row; rewrite it "
                "before scoring or add a row to scorer.CLAUSE_TABLE"
            )
        if row.cached:
            res = _qcache(reader, q, lambda: row.match(reader, q, scorers, queries))
        else:
            res = row.match(reader, q, scorers, queries)
        kind = row.kind
        if kind == TERM:
            if res is not None:
                out.append(_Clause(TERM, q, res, scorers[q]))
            continue
        docids = res if kind == CONST else res[0]
        if len(docids) == 0:
            continue
        if kind == FREQ:
            out.append(_Clause(FREQ, q, None, scorers[q], res))
        elif kind == CONST:
            scores = np.full(len(docids), np.float32(q.boost), dtype=np.float32)
            out.append(_Clause(CONST, q, None, None, scored=(docids, scores)))
        else:
            out.append(_Clause(SCORED, q, None, None, scored=res))
    return out


def _topk(docids: np.ndarray, scores: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """top-k by (score desc, docid asc) — HitQueue.java:78-84 tie-break.
    Past _PARTITION_MIN hits a partition first keeps every hit scoring at
    least the kth score (ties included), so only those go to the lexsort."""
    if len(docids) == 0:
        return docids[:0], scores[:0].astype(np.float32)
    neg = -scores.astype(np.float64)
    if len(neg) > max(k, _PARTITION_MIN):
        kth = np.partition(neg, k - 1)[k - 1]
        if kth == kth:  # a NaN kth (NaN sorts last) means fewer than k numbers
            keep = np.flatnonzero(neg <= kth)
            docids, scores, neg = docids[keep], scores[keep], neg[keep]
    order = np.lexsort((docids, neg))[:k]
    return docids[order], scores[order].astype(np.float32)


def _canonical_scores(
    clauses: list[_Clause], cand: np.ndarray, norm_bytes: np.ndarray
) -> np.ndarray:
    """Exact float32 scores summed in canonical clause order (bit-identical
    between the oracle and the pruned path)."""
    total = np.zeros(len(cand), dtype=np.float32)
    for c in clauses:
        # adding exact 0.0f for non-matches never perturbs the sum
        total = total + c.contrib(cand, norm_bytes)[0]
    return total


def _segment_clauses(reader, bq: BooleanQuery, scorers: dict):
    """(must, should, must_not) clause lists of ``bq`` in one segment, or
    None when no doc of the segment can match."""
    must = build_clauses(reader, bq.must, scorers)
    if bq.must and len(must) < len(bq.must):
        # a required clause is absent from this segment -> no hits
        return None
    should = build_clauses(reader, bq.should, scorers)
    must_not = build_clauses(reader, bq.must_not, scorers)
    if not (must or should):
        return None
    return must, should, must_not


def _match(reader, bq: BooleanQuery, must, should, must_not) -> np.ndarray:
    """Ascending local docids matching ``bq``, from its built clauses."""
    # dense per-segment masks: a hit count per doc for required clauses,
    # an OR of the optional clauses' docids otherwise
    if bq.must:
        hits = np.zeros(reader.doc_count, dtype=np.int32)
        for c in must:
            hits[c.evaluate()[0]] += 1
        keep = hits == len(must)
    else:
        keep = np.zeros(reader.doc_count, dtype=bool)
        for c in should:
            keep[c.evaluate()[0]] = True
    live = getattr(reader, "live_mask", None)
    if live is not None:
        keep &= live  # tombstoned docs never match (LiveDocs)
    for c in must_not:
        keep[c.evaluate()[0]] = False
    cand = np.flatnonzero(keep)
    # minimumShouldMatch: without MUST every candidate already matched one
    # optional clause, so only msm > 1 needs the per-doc membership count.
    # Counted over the declared optional clauses: one absent from this
    # segment matches no doc here (explain applies the same rule).
    msm = bq.min_should_match
    if bq.should and msm > 0 and (bq.must or msm > 1) and len(cand):
        sm = np.zeros(len(cand), dtype=np.int32)
        for c in should:
            sm += (c.lookup(cand) > 0).astype(np.int32)
        cand = cand[sm >= msm]
    return cand


def match_segment(reader, bq: BooleanQuery, scorers: dict):
    """The one per-segment match function (BooleanWeight candidate
    computation, ScoreMode.COMPLETE_NO_SCORES): the boolean doc-set algebra
    with live-doc and MUST_NOT filtering, then the minimum-should-match
    filter. Returns (ascending local docids of the full boolean, must
    clauses, should clauses); nothing is scored."""
    parts = _segment_clauses(reader, bq, scorers)
    if parts is None:
        return _no_docs(), [], []
    return _match(reader, bq, *parts), parts[0], parts[1]


def evaluate_boolean(
    reader, bq: BooleanQuery, scorers: dict
) -> tuple[np.ndarray, np.ndarray]:
    """(matching local docids, float32 scores) of the FULL boolean — the
    shared dense evaluation behind the exhaustive scorer and nested-group
    clauses (a nested BooleanQuery scores as the sum of its matching
    scoring clauses, BooleanWeight.java): match_segment's docids, scored
    in canonical clause order."""
    cand, must, should = match_segment(reader, bq, scorers)
    if len(cand) == 0:
        return cand, np.array([], dtype=np.float32)
    return cand, _canonical_scores(must + should, cand, reader.norm_bytes)


def score_docs(reader, bq: BooleanQuery, scorers: dict, docids: np.ndarray) -> np.ndarray:
    """float32 scores of matching ascending local ``docids``, each the
    sum ``evaluate_boolean`` computes for it — a sort-by-field search
    scores only the docs it returns this way."""
    clauses = build_clauses(reader, bq.must, scorers) + build_clauses(
        reader, bq.should, scorers
    )
    return _canonical_scores(clauses, docids, reader.norm_bytes)


def score_segment_exhaustive(
    reader, bq: BooleanQuery, scorers: dict, k: int, after=None
) -> tuple[np.ndarray, np.ndarray, int, bool]:
    """Oracle: dense TAAT over the segment (no pruning). Returns
    (local docids, float32 scores, total_hits, exact) — exact is always
    True here (TotalHits.Relation.EQUAL_TO).

    ``after``: searchAfter keyset ``(score, local_docid)`` — keep only hits
    strictly worse (PagingTopScoreDocCollector semantics,
    search/TopScoreDocCollector.java:104-160)."""
    cand, total = evaluate_boolean(reader, bq, scorers)
    if after is not None:
        a_s, a_d = after
        keep = (total < np.float32(a_s)) | (
            (total == np.float32(a_s)) & (cand > a_d)
        )
        cand, total = cand[keep], total[keep]
    d, s = _topk(cand, total, k)
    return d, s, len(cand), True


def _bound_beats(theta: float, clauses: list, scored: list) -> bool:
    """Whether the sum of the clauses' segment maxima can beat ``theta``;
    stops adding maxima as soon as it can."""
    bound = 0.0
    for c, ds in zip(clauses, scored):
        bound += c.cursor.max_score(c.scorer) if ds is None else float(ds[1].max(initial=0.0))
        if bound * (1 + _BOUND_MARGIN) > theta:
            return True
    return False


def score_segment_pruned(
    reader, bq: BooleanQuery, scorers: dict, k: int, theta: float = 0.0
) -> tuple[np.ndarray, np.ndarray, int, bool]:
    """Bulk scorer for one segment (BooleanScorer's score-all shape), for
    every boolean shape.

    The segment bound sums each scoring clause's maximum: a term's
    ``max_score`` from its block impacts (no postings decode), any other
    clause's one ``eval_scores`` pass. A segment whose bound cannot beat
    ``theta`` (the min-competitive floor carried across segments,
    MaxScoreAccumulator) is skipped whole. Otherwise the match set comes from the dense masks
    (``_match``) and every scoring clause is added into one
    ``float32[doc_count]`` accumulator in canonical clause order, so each
    candidate gets ``evaluate_boolean``'s additions bit for bit; a term
    clause much larger than the match set is looked up per candidate
    instead of scored whole. A term's bound and whole-postings scores come
    from its cursor's memo (``SegmentTermCursor.scored``), which the
    exhaustive path never reads.

    Returns (docids, scores, total_hits, exact): ``exact`` is False only
    for a skipped segment, whose uncounted hits make total_hits a lower
    bound (TotalHits.Relation.GREATER_THAN_OR_EQUAL_TO).
    """
    parts = _segment_clauses(reader, bq, scorers)
    if parts is None:
        return *_no_scored(), 0, True
    clauses = parts[0] + parts[1]
    norm_bytes = reader.norm_bytes
    scored = [None if c.kind == TERM else c.eval_scores(norm_bytes) for c in clauses]
    if theta > 0 and not _bound_beats(theta, clauses, scored):
        return *_no_scored(), 0, False

    cand = _match(reader, bq, *parts)
    acc = np.zeros(reader.doc_count, dtype=np.float32)
    for c, ds in zip(clauses, scored):
        # docids are unique, so += is one float32 addition per doc; a doc
        # the clause misses gets nothing here and +0.0f in the oracle
        if ds is None and len(cand) * _LOOKUP_RATIO < c.cursor.df:
            acc[cand] += c.contrib(cand, norm_bytes)[0]
        else:
            d, s = c.cursor.scored(c.scorer, norm_bytes) if ds is None else ds
            acc[d] += s
    d, s = _topk(cand, acc[cand], k)
    return d, s, len(cand), True

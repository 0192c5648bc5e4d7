"""Spell-check term suggester — the suggest module's core
(suggest/.../spell/DirectSpellChecker.java): candidate terms within a
Levenshtein budget of the input, ranked by (edit distance asc, doc freq
desc, term asc). The Levenshtein-automaton-vs-FST intersection becomes
FuzzyQuery's own expansion over the (content) vocabulary — vocab-sized
work, never postings-sized.
"""

from __future__ import annotations

from lucene_ray.search.query import FuzzyQuery


def suggest_terms(
    reader,
    term: str,
    k: int = 5,
    max_edits: int = 2,
    include_exact: bool = False,
) -> list[tuple[str, int, int]]:
    """Top-k (term, distance, df) suggestions for ``term`` from the index
    vocabulary. ``include_exact=False`` drops the input itself when it is a
    dictionary word (DirectSpellChecker's suggestMode semantics)."""
    from lucene_ray.search.rewrite import expand_fuzzy_with_distance

    vocab = reader.vocabulary()
    pairs = expand_fuzzy_with_distance(vocab, FuzzyQuery(term, max_edits=max_edits))
    if not include_exact:
        pairs = [(t, d) for t, d in pairs if t != term]
    if not pairs:
        return []
    stats = reader.global_term_stats([t for t, _d in pairs])
    scored = sorted((d, -stats[t][0], t) for t, d in pairs)
    return [(t, d, -neg_df) for d, neg_df, t in scored[:k]]


def complete_terms(reader, prefix: str, k: int = 10) -> list[tuple[str, int]]:
    """Top-k (term, df) prefix completions from the term dictionary — the
    suggest module's Lookup role (suggest/Lookup.java:192 lookup(key, n);
    the FST prefix traversal of suggest/analyzing/AnalyzingSuggester
    becomes the sorted-vocab binary-search window PrefixQuery rewriting
    uses), ranked by (docFreq desc, term asc)."""
    from lucene_ray.search.query import PrefixQuery
    from lucene_ray.search.rewrite import expand_prefix

    cands = expand_prefix(reader.vocabulary(), PrefixQuery(prefix))
    if not cands:
        return []
    stats = reader.global_term_stats(cands)
    scored = sorted((-stats[t][0], t) for t in cands)
    return [(t, -neg_df) for neg_df, t in scored[:k]]


def infix_terms(reader, fragment: str, k: int = 10) -> list[tuple[str, int]]:
    """Top-k (term, df) suggestions CONTAINING ``fragment`` anywhere — the
    infix Lookup (suggest/.../analyzing/AnalyzingInfixSuggester.java:97:
    its internal per-suggestion index with prefix+infix matching becomes a
    substring scan over the sorted vocabulary — vocab-sized work, never
    postings-sized), ranked (docFreq desc, term asc) like complete_terms."""
    import numpy as np

    vocab = reader.vocabulary()
    if len(vocab) == 0:
        return []
    hit = np.char.find(vocab.astype(str), fragment) >= 0
    cands = [str(t) for t in vocab[hit]]
    if not cands:
        return []
    stats = reader.global_term_stats(cands)
    scored = sorted((-stats[t][0], t) for t in cands)
    return [(t, -neg_df) for neg_df, t in scored[:k]]


def word_breaks(reader, term: str, k: int = 10) -> list[tuple[str, str, int]]:
    """Top-k (left, right, df_sum) two-word breaks of an out-of-vocabulary
    token — WordBreakSpellChecker.suggestWordBreaks
    (suggest/.../spell/WordBreakSpellChecker.java:50): every split point
    whose halves BOTH exist in the term dictionary, ranked by combined
    docFreq desc then (left, right) asc (the reference ranks by change
    count then freq; with one split the change count is constant —
    documented)."""
    vocab = set(map(str, reader.vocabulary()))
    cands = [
        (term[:i], term[i:])
        for i in range(1, len(term))
        if term[:i] in vocab and term[i:] in vocab
    ]
    if not cands:
        return []
    stats = reader.global_term_stats(sorted({t for p in cands for t in p}))
    scored = sorted(
        (-(stats[a][0] + stats[b][0]), a, b) for a, b in cands
    )
    return [(a, b, -neg) for neg, a, b in scored[:k]]


class AnalyzingSuggester:
    """Analyzed-form completion lookup
    (suggest/.../analyzing/AnalyzingSuggester.java): each suggestion's
    SURFACE form is analyzed at build into a key (tokens joined by a single
    separator); lookup analyzes the input the same way and prefix-matches
    against the key space, returning surface forms ranked weight desc. The
    reference's byte-level FST becomes a SORTED KEY TABLE with a
    searchsorted prefix window (the same FST-to-sorted-table stance as the
    terms dict, SURVEY.md §8). exactFirst=True (the reference default):
    entries whose whole analyzed key equals the analyzed input rank first.

    Build is dictionary-sized (one row per suggestion), not corpus-sized:
    at scale the entry extraction is a map_batches over the corpus and the
    suggester itself is a broadcast small side."""

    SEP = " "

    def __init__(self, analyzer=None, exact_first: bool = True):
        from lucene_ray.analysis import CodeAnalyzer

        self.analyzer = analyzer or CodeAnalyzer()
        self.exact_first = exact_first
        self._keys = self._surfaces = self._weights = None

    def _analyze(self, text: str) -> str:
        return self.SEP.join(self.analyzer.tokenize_text(text))

    def build(self, surfaces: list[str], weights: list[int]) -> "AnalyzingSuggester":
        """Index (surface, weight) suggestion entries: duplicate surfaces
        keep their max weight (one output per surface, like the reference's
        dedup of equal surface+analyzed pairs)."""
        import numpy as np
        import pyarrow as pa

        best: dict[str, int] = {}
        for s, w in zip(surfaces, weights):
            w = int(w)
            if s not in best or w > best[s]:
                best[s] = w
        surf = np.asarray(sorted(best), dtype=object)
        lists = self.analyzer.tokenize_array(pa.array(surf.tolist(), type=pa.string()))
        keys = np.asarray(
            [self.SEP.join(row) for row in lists.to_pylist()], dtype=object
        )
        wts = np.asarray([best[s] for s in surf], dtype=np.int64)
        order = np.argsort(keys, kind="stable")
        self._keys, self._surfaces, self._weights = keys[order], surf[order], wts[order]
        return self

    def lookup(self, text: str, n: int = 5) -> list[tuple[str, int]]:
        """Top-n (surface, weight) whose analyzed key starts with the
        analyzed input; exact analyzed matches first (exactFirst), then
        weight desc, surface asc — Lookup.lookup(key, n) contract."""
        import numpy as np

        if self._keys is None:
            raise ValueError("lookup before build()")
        key = self._analyze(text)
        lo, hi = _prefix_window(self._keys, key)
        if lo == hi:
            return []
        k_w, k_s, k_k = (
            self._weights[lo:hi], self._surfaces[lo:hi], self._keys[lo:hi]
        )
        exact = (k_k == key) if self.exact_first else np.zeros(hi - lo, dtype=bool)
        order = sorted(
            range(hi - lo), key=lambda i: (~exact[i], -int(k_w[i]), str(k_s[i]))
        )
        return [(str(k_s[i]), int(k_w[i])) for i in order[:n]]


class FuzzySuggester(AnalyzingSuggester):
    """suggest/.../analyzing/FuzzySuggester.java: like AnalyzingSuggester
    but the analyzed input may differ from the key PREFIX by up to
    ``max_edits`` Levenshtein edits (the reference intersects the FST with
    a Levenshtein automaton; here it becomes FuzzyQuery's own expansion,
    run over the DISTINCT key prefixes — dictionary-sized work). Ranking:
    min distance asc, then weight desc, surface asc."""

    def __init__(self, analyzer=None, max_edits: int = 1):
        super().__init__(analyzer, exact_first=False)
        self.max_edits = int(max_edits)

    def lookup(self, text: str, n: int = 5) -> list[tuple[str, int]]:
        import numpy as np

        from lucene_ray.search.query import FuzzyQuery
        from lucene_ray.search.rewrite import expand_fuzzy_with_distance

        if self._keys is None:
            raise ValueError("lookup before build()")
        key = self._analyze(text)
        # distance is computed against each key's prefix TRUNCATED to the
        # input's length (left(akey, len(key)) — mirrored verbatim by the
        # DuckDB oracle's levenshtein(left(akey, n), key))
        prefixes = np.asarray([k[: len(key)] for k in self._keys], dtype=object)
        uniq = np.unique(prefixes)
        pairs = expand_fuzzy_with_distance(
            uniq, FuzzyQuery(key, max_edits=self.max_edits)
        )
        if not pairs:
            return []
        dist = {p: d for p, d in pairs}
        rows = [
            (dist[p], -int(w), str(s))
            for p, w, s in zip(prefixes, self._weights, self._surfaces)
            if p in dist
        ]
        rows.sort()
        return [(s, -negw) for _d, negw, s in rows[:n]]


def blended_infix_lookup(
    entries: list[tuple[str, int, str]],
    fragment: str,
    k: int = 10,
    blender: str = "linear",
    linear_coef: float = 0.10,
) -> list[tuple[str, float]]:
    """BlendedInfixSuggester lookup (suggest/.../analyzing/
    BlendedInfixSuggester.java): suggestions whose analyzed key contains a
    token STARTING WITH ``fragment``, scored weight * coefficient of the
    FIRST matching token position — POSITION_LINEAR: (1 - linear_coef *
    position); POSITION_RECIPROCAL: 1 / (position + 1). ``entries`` are
    (surface, weight, akey) rows (the persisted suggester dictionary);
    returns top-k (surface, score), score desc then surface asc.
    Coefficient arithmetic is plain float64 in a fixed order so the
    DuckDB twin reproduces scores bit-for-bit."""
    if blender not in ("linear", "reciprocal"):
        raise ValueError("blender must be linear/reciprocal")
    out = []
    for surface, weight, akey in entries:
        pos = -1
        for i, tok in enumerate(akey.split(" ")):
            if tok.startswith(fragment):
                pos = i
                break
        if pos < 0:
            continue
        if blender == "linear":
            coef = 1.0 - linear_coef * pos
        else:
            coef = 1.0 / (pos + 1.0)
        out.append((surface, float(weight) * coef))
    out.sort(key=lambda sw: (-sw[1], sw[0]))
    return out[:k]


def _prefix_successor(prefix: str) -> str | None:
    """The least string above every string that starts with ``prefix`` —
    its last codepoint below U+10FFFF incremented — or None when no bound
    exists. A fixed sentinel character (e.g. U+FFFF) would cut off
    completions continuing with a supplementary-plane codepoint."""
    p = prefix.rstrip(chr(0x10FFFF))
    return p[:-1] + chr(ord(p[-1]) + 1) if p else None


def _prefix_window(keys, prefix: str) -> tuple[int, int]:
    """[lo, hi) of the sorted array ``keys`` whose entries start with
    ``prefix`` (a binary-search slice; the one prefix-window rule)."""
    import numpy as np

    lo = int(np.searchsorted(keys, prefix, side="left"))
    succ = _prefix_successor(prefix)
    hi = len(keys) if succ is None else int(np.searchsorted(keys, succ, side="left"))
    return lo, hi


class FSTCompletionLookup:
    """suggest/fst/FSTCompletionLookup.java + FSTCompletion.java: weights
    are DISCRETIZED into ``buckets`` classes — inputs sorted by (weight
    asc, surface asc), line i gets bucket i*buckets//n, and a run of
    EQUAL weights shares the bucket of its first line (:209-229);
    completions return in (bucket desc, surface asc) order with an
    optional exact-match promotion (exactMatchFirst). Large weight
    differences inside a bucket are deliberately lost — the class
    distinction is what survives (the reference's documented contract).
    The automaton is a sorted array + bisect window here (the repo's
    FST-analog stance, suggest module docstring)."""

    DEFAULT_BUCKETS = 10

    def __init__(self, buckets: int = DEFAULT_BUCKETS, exact_match_first: bool = True):
        if buckets < 1 or buckets > 255:
            raise ValueError("buckets must be in [1, 255]")
        self.buckets = buckets
        self.exact_match_first = exact_match_first
        self._keys: list[str] = []
        self._bucket: dict[str, int] = {}

    def build(self, surfaces: list[str], weights: list[int]) -> "FSTCompletionLookup":
        import bisect

        n = len(surfaces)
        order = sorted(range(n), key=lambda i: (weights[i], surfaces[i]))
        prev_score: int | None = None
        prev_bucket = 0
        for line, i in enumerate(order):
            score = weights[i]
            if line > 0 and score == prev_score:
                bucket = prev_bucket
            else:
                bucket = line * self.buckets // n
            prev_score, prev_bucket = score, bucket
            self._bucket[surfaces[i]] = bucket
        self._keys = sorted(self._bucket)
        self._bisect = bisect
        return self

    def get_bucket(self, key: str) -> int | None:
        return self._bucket.get(key)

    def lookup(self, prefix: str, n: int = 5) -> list[tuple[str, int]]:
        """[(surface, bucket)] — (bucket desc, surface asc), exact match
        first when enabled."""
        import bisect

        lo = bisect.bisect_left(self._keys, prefix)
        succ = _prefix_successor(prefix)
        hi = len(self._keys) if succ is None else bisect.bisect_left(self._keys, succ)
        cand = self._keys[lo:hi]
        exact = prefix if (self.exact_match_first and prefix in self._bucket) else None

        def key(s: str):
            return (0 if s == exact else 1, -self._bucket[s], s)

        return [(s, self._bucket[s]) for s in sorted(cand, key=key)[:n]]

"""Seek-based automaton intersection with the sorted term dictionary.

The reference intersects a compiled automaton with the FST terms index
(search/AutomatonQuery.java -> the block-tree reader's intersect;
util/automaton/*.java). The Ray/Arrow term dictionary here is a SORTED
Arrow string column, so the FST walk becomes the AutomatonTermsEnum
leapfrog (util/automaton/CompiledAutomaton.java + index/
AutomatonTermsEnum.java nextString/seekCeil):

    seek = dfa.next_live_ge(lower)          # smallest live prefix >= lower
    i    = searchsorted(vocab, seek)        # the dictionary seekCeil
    t    = vocab[i]; accept/emit; repeat with next_live_ge(successor(t))

"Live prefix" = a string the DFA can consume ending in a state from which
an accept state is reachable. Every iteration either emits a term or skips
a whole dictionary gap with one binary search, so a pattern like
``zz*foo`` costs O(matches * log V) instead of a vocabulary scan. Scan
fallbacks remain for tiny vocabularies (slicing beats seeking) and for
Python-``re`` regexps (no next-string API); tests pin scan == seek.

DFAs are built by subset construction over code-point ranges from two NFA
families: Lucene wildcard patterns (WildcardQuery.java:55-82 toAutomaton)
and the Levenshtein NFA (FuzzyQuery's LevenshteinAutomata, plain edits —
the ``rewrite.edit_distances`` semantics, which it must mirror exactly).
"""

from __future__ import annotations

from bisect import bisect_right

MAX_CP = 0x10FFFF
_STATE_CAP = 20_000  # subset-construction safety valve -> caller falls back


class CharDFA:
    """Deterministic automaton over code points. ``trans[s]`` is a sorted
    tuple of (lo, hi, dst) ranges; ``accept``/``live`` are per-state."""

    def __init__(self, trans, accept, live):
        self.trans = trans
        self.accept = accept
        self.live = live
        # per-state list of range-lower-bounds for bisect
        self._los = [[r[0] for r in t] for t in trans]

    def step(self, s: int, cp: int) -> int | None:
        t = self.trans[s]
        j = bisect_right(self._los[s], cp) - 1
        if j >= 0 and t[j][0] <= cp <= t[j][1]:
            return t[j][2]
        return None

    def accepts(self, term: str) -> bool:
        s = 0
        for ch in term:
            s = self.step(s, ord(ch))
            if s is None:
                return False
        return self.accept[s]

    def _min_live_char_ge(self, s: int, c: int) -> int | None:
        """Smallest code point >= c with a transition from s into a live
        state (the nextString backtracking probe)."""
        for lo, hi, dst in self.trans[s]:
            if hi < c or not self.live[dst]:
                continue
            return max(lo, c)
        return None

    def next_live(self, t: str, strict: bool = False) -> str | None:
        """Smallest live prefix >= t (or > t when ``strict``) —
        AutomatonTermsEnum.nextString: walk t through live states; if the
        whole walk survives, t itself (non-strict) or its minimal live
        extension (strict; any live term > t without prefix t is larger
        than every prefix-t string, so the extension is minimal); else
        backtrack, incrementing the deepest position that still has a
        larger live transition."""
        if not self.live[0]:
            return None
        path = [0]
        s, i = 0, 0
        n = len(t)
        while i < n:
            nxt = self.step(s, ord(t[i]))
            if nxt is None or not self.live[nxt]:
                break
            path.append(nxt)
            s = nxt
            i += 1
        if i == n:
            if not strict:
                return t
            m = self._min_live_char_ge(s, 0)
            if m is not None:
                return t + chr(m)
        for pos in range(i if i < n else n - 1, -1, -1):
            m = self._min_live_char_ge(path[pos], ord(t[pos]) + 1)
            if m is not None:
                return t[:pos] + chr(m)
        return None

    def intersect(self, vocab, lower: str = "") -> list[str]:
        """All vocabulary terms accepted by the DFA; ``vocab`` is a sorted
        numpy str array. The seekCeil leapfrog of AutomatonTermsEnum:
        accepted terms advance the cursor by one; a rejected term seeks to
        the next live prefix with one binary search. ``max(seek, i + 1)``
        also absorbs numpy's trailing-NUL padding (a seek string ending in
        chr(0) compares equal to its stem)."""
        import numpy as np

        out: list[str] = []
        n = len(vocab)
        seek = self.next_live(lower)
        if seek is None:
            return out
        i = int(np.searchsorted(vocab, seek, side="left"))
        while i < n:
            t = str(vocab[i])
            if self.accepts(t):
                out.append(t)
                i += 1
                continue
            nxt = self.next_live(t, strict=True)
            if nxt is None:
                break
            i = max(int(np.searchsorted(vocab, nxt, side="left")), i + 1)
        return out


# ------------------------------------------------------- subset construction


def _determinize(n_states: int, eps, ranges, nfa_accept) -> CharDFA:
    """Subset construction over code-point ranges. ``eps[s]`` = epsilon
    targets, ``ranges[s]`` = [(lo, hi, dst)], ``nfa_accept`` = accept set."""

    def closure(states: frozenset) -> frozenset:
        stack, seen = list(states), set(states)
        while stack:
            s = stack.pop()
            for e in eps[s]:
                if e not in seen:
                    seen.add(e)
                    stack.append(e)
        return frozenset(seen)

    start = closure(frozenset([0]))
    ids = {start: 0}
    order = [start]
    trans: list[list[tuple]] = [[]]
    work = [start]
    while work:
        cur = work.pop()
        cid = ids[cur]
        # atomic interval split over all outgoing ranges
        cuts = set()
        rs = [r for s in cur for r in ranges[s]]
        for lo, hi, _ in rs:
            cuts.add(lo)
            cuts.add(hi + 1)
        cuts = sorted(c for c in cuts if 0 <= c <= MAX_CP + 1)
        out = []
        for k in range(len(cuts)):
            lo = cuts[k]
            hi = (cuts[k + 1] - 1) if k + 1 < len(cuts) else MAX_CP
            if lo > MAX_CP:
                continue
            # cuts make [lo, hi] atomic: membership at lo == whole interval
            dst = frozenset(d for rlo, rhi, d in rs if rlo <= lo <= rhi)
            if not dst:
                continue
            dst = closure(dst)
            if dst not in ids:
                if len(ids) >= _STATE_CAP:
                    raise OverflowError("automaton too large")
                ids[dst] = len(order)
                order.append(dst)
                trans.append([])
                work.append(dst)
            out.append((lo, hi, ids[dst]))
        # merge adjacent ranges to the same destination
        out.sort()
        merged: list[tuple] = []
        for lo, hi, d in out:
            if merged and merged[-1][2] == d and merged[-1][1] + 1 == lo:
                merged[-1] = (merged[-1][0], hi, d)
            else:
                merged.append((lo, hi, d))
        trans[cid] = [tuple(m) for m in merged]
    accept = [any(s in nfa_accept for s in subset) for subset in order]
    # liveness: reverse reachability from accepting DFA states
    rev: list[set] = [set() for _ in order]
    for s, t in enumerate(trans):
        for _, _, d in t:
            rev[d].add(s)
    live = list(accept)
    stack = [i for i, a in enumerate(accept) if a]
    while stack:
        s = stack.pop()
        for p in rev[s]:
            if not live[p]:
                live[p] = True
                stack.append(p)
    return CharDFA([tuple(t) for t in trans], accept, live)


def wildcard_dfa(pattern: str) -> CharDFA:
    """WildcardQuery.toAutomaton: ``*`` any run, ``?`` one char, ``\\x``
    literal; no character classes."""
    # NFA states = positions in the token list; '*' adds a self-loop
    toks: list[tuple] = []  # ("lit", cp) | ("any",) | ("star",)
    i = 0
    while i < len(pattern):
        c = pattern[i]
        if c == "*":
            toks.append(("star",))
        elif c == "?":
            toks.append(("any",))
        elif c == "\\" and i + 1 < len(pattern):
            i += 1
            toks.append(("lit", ord(pattern[i])))
        else:
            toks.append(("lit", ord(c)))
        i += 1
    n = len(toks) + 1
    eps: list[list[int]] = [[] for _ in range(n)]
    ranges: list[list[tuple]] = [[] for _ in range(n)]
    for k, tok in enumerate(toks):
        if tok[0] == "lit":
            ranges[k].append((tok[1], tok[1], k + 1))
        elif tok[0] == "any":
            ranges[k].append((0, MAX_CP, k + 1))
        else:  # star: skip or loop
            eps[k].append(k + 1)
            ranges[k].append((0, MAX_CP, k))
    return _determinize(n, eps, ranges, {n - 1})


def levenshtein_dfa(term: str, k: int) -> CharDFA:
    """Levenshtein NFA (states (i, e) = matched i chars with e edits;
    insert/substitute/delete, NO transpositions — mirrors
    rewrite.edit_distances) determinized over code-point ranges."""
    m = len(term)

    def sid(i: int, e: int) -> int:
        return i * (k + 1) + e

    n = (m + 1) * (k + 1)
    eps: list[list[int]] = [[] for _ in range(n)]
    ranges: list[list[tuple]] = [[] for _ in range(n)]
    accept = set()
    for i in range(m + 1):
        for e in range(k + 1):
            s = sid(i, e)
            if m - i <= k - e:
                accept.add(s)  # spend the rest of the budget on deletes
            if i < m:
                cp = ord(term[i])
                ranges[s].append((cp, cp, sid(i + 1, e)))
            if e < k:
                # insertion: consume any char, stay at i
                ranges[s].append((0, MAX_CP, sid(i, e + 1)))
                if i < m:
                    # substitution: consume any char, advance i
                    ranges[s].append((0, MAX_CP, sid(i + 1, e + 1)))
                    # deletion: advance i for free
                    eps[s].append(sid(i + 1, e + 1))
    return _determinize(n, eps, ranges, accept)

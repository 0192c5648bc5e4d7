"""Seek-based automaton intersect (search/automaton.py — the
AutomatonTermsEnum/CompiledAutomaton analog over the sorted term column):
scan == seek equivalence, nextString properties, rewrite integration."""

import random
import string

import numpy as np
import pytest


def _vocab(n=20000, seed=7, alpha=string.ascii_lowercase, lmax=10):
    rng = random.Random(seed)
    return np.array(
        sorted({
            "".join(rng.choice(alpha) for _ in range(rng.randint(1, lmax)))
            for _ in range(n)
        })
    )


VOCAB = _vocab()


def _scan_wildcard(vocab, pattern):
    from lucene_ray.search.rewrite import wildcard_regex

    rx = wildcard_regex(pattern)
    return [t for t in vocab.tolist() if rx.match(t)]


def ref_levenshtein(a: str, b: str, k: int) -> int | None:
    """Reference banded edit distance (insert, delete, substitute; no
    transpositions), one scalar DP per pair: the exact value when <= k,
    else None. rewrite.edit_distances and levenshtein_dfa must match it."""
    if abs(len(a) - len(b)) > k:
        return None
    big = k + 1
    prev = [min(j, big) for j in range(len(b) + 1)]
    for i, ca in enumerate(a, 1):
        cur = [big] * (len(b) + 1)  # cells outside the band are "infinity"
        if i <= k:
            cur[0] = i
        lo, hi = max(1, i - k), min(len(b), i + k)
        for j in range(lo, hi + 1):
            cur[j] = min(
                prev[j] + 1,
                cur[j - 1] + 1,
                prev[j - 1] + (ca != b[j - 1]),
                big,
            )
        prev = cur
        if min(prev) > k:
            return None
    d = prev[len(b)]
    return d if d <= k else None


def _scan_fuzzy(vocab, term, k):
    return [t for t in vocab.tolist() if ref_levenshtein(term, t, k) is not None]


def test_wildcard_seek_equals_scan():
    from lucene_ray.search.automaton import wildcard_dfa

    pats = [
        "ab*", "*ing", "a?c*d", "zz*foo", "m*e?e", "*", "q", "abc",
        "a*b*c", "??", "\\*x*", "x\\?y", "", "?bcq*", "*a*b*c*", "????????",
    ]
    for p in pats:
        assert wildcard_dfa(p).intersect(VOCAB) == _scan_wildcard(VOCAB, p), p


def test_wildcard_seek_equals_scan_random():
    from lucene_ray.search.automaton import wildcard_dfa

    rng = random.Random(11)
    syms = list(string.ascii_lowercase[:6]) + ["*", "?"]
    for _ in range(60):
        p = "".join(rng.choice(syms) for _ in range(rng.randint(1, 7)))
        assert wildcard_dfa(p).intersect(VOCAB) == _scan_wildcard(VOCAB, p), p


def test_fuzzy_seek_equals_scan():
    from lucene_ray.search.automaton import levenshtein_dfa

    for term in ["merge", "windw", "a", "tokenstream", "qx", ""]:
        for k in (0, 1, 2):
            assert levenshtein_dfa(term, k).intersect(VOCAB) == _scan_fuzzy(
                VOCAB, term, k
            ), (term, k)


def test_unicode_vocab():
    from lucene_ray.search.automaton import levenshtein_dfa, wildcard_dfa

    vocab = np.array(sorted({
        "café", "cafe", "naïve", "naive", "日本語", "日本", "日本人",
        "ünïcode", "unicode", "αβγ", "αβ", "zzz",
    }))
    assert wildcard_dfa("日本*").intersect(vocab) == ["日本", "日本人", "日本語"]
    assert wildcard_dfa("caf?").intersect(vocab) == ["cafe", "café"]
    got = levenshtein_dfa("naive", 1).intersect(vocab)
    assert got == ["naive", "naïve"]


def test_next_live_properties():
    """next_live(t) >= t, strict > t, and the result really is a live
    prefix (walking it lands in a live state)."""
    from lucene_ray.search.automaton import wildcard_dfa

    dfa = wildcard_dfa("a?c*q")
    rng = random.Random(13)
    for _ in range(300):
        t = "".join(rng.choice("abcdq") for _ in range(rng.randint(0, 6)))
        for strict in (False, True):
            nxt = dfa.next_live(t, strict=strict)
            if nxt is None:
                continue
            assert nxt > t if strict else nxt >= t
            s = 0
            for ch in nxt:
                s = dfa.step(s, ord(ch))
                assert s is not None
            assert dfa.live[s]


def test_state_cap_falls_back(monkeypatch):
    """A pattern that blows the subset-construction cap must fall back to
    the scan inside expand_wildcard, not crash."""
    import lucene_ray.search.automaton as am
    from lucene_ray.search.query import WildcardQuery
    from lucene_ray.search.rewrite import expand_wildcard

    monkeypatch.setattr(am, "_STATE_CAP", 2)
    got = expand_wildcard(VOCAB, WildcardQuery("?b*"))
    assert got == _scan_wildcard(VOCAB, "?b*")


def test_rewrite_paths_use_seek_and_match():
    """expand_wildcard (no literal prefix, big vocab; through the DFA) and
    expand_fuzzy (below _SEEK_MIN_VOCAB: the length-band scan) equal the
    reference scan."""
    from lucene_ray.search.query import FuzzyQuery, WildcardQuery
    from lucene_ray.search.rewrite import expand_fuzzy, expand_wildcard

    assert expand_wildcard(VOCAB, WildcardQuery("?bcq*")) == _scan_wildcard(
        VOCAB, "?bcq*"
    )
    for term in ("merge", "tokn"):
        got = expand_fuzzy(VOCAB, FuzzyQuery(term, max_edits=2))
        assert sorted(got) == _scan_fuzzy(VOCAB, term, 2)


def test_fuzzy_distances_survive_seek_path(monkeypatch):
    """The DFA path and the length-band scan return order-identical
    (term, distance) lists, equal to the reference DP's."""
    import lucene_ray.search.rewrite as rw
    from lucene_ray.search.query import FuzzyQuery

    for term in ("merge", "tokn", "a", ""):
        for k in (0, 1, 2):
            q = FuzzyQuery(term, max_edits=k)
            monkeypatch.setattr(rw, "_SEEK_MIN_VOCAB", len(VOCAB))
            scan = rw.expand_fuzzy_with_distance(VOCAB, q)
            monkeypatch.setattr(rw, "_SEEK_MIN_VOCAB", 0)
            seek = rw.expand_fuzzy_with_distance(VOCAB, q)
            want = [(t, ref_levenshtein(term, t, k)) for t in _scan_fuzzy(VOCAB, term, k)]
            assert scan == seek == want, (term, k)
            if term == "merge" and k == 2:
                assert want, "expected fuzzy matches in the synthetic vocab"


def test_fuzzy_paths_agree_across_seek_threshold(monkeypatch):
    """On vocabularies just below and just above ``_SEEK_MIN_VOCAB`` the
    rewrite takes the scan and the DFA path respectively, and forcing the
    other path gives the same (term, distance) list."""
    import lucene_ray.search.automaton as am
    import lucene_ray.search.rewrite as rw
    from lucene_ray.search.query import FuzzyQuery

    n0 = rw._SEEK_MIN_VOCAB
    seeks = []
    real_dfa = am.levenshtein_dfa
    monkeypatch.setattr(am, "levenshtein_dfa", lambda *a: seeks.append(a) or real_dfa(*a))
    big = _vocab(n=n0 * 3 // 2, seed=11)
    assert len(big) > n0
    for vocab, seeks_natural in ((big[: n0 - 50], False), (big, True)):
        rng = random.Random(len(vocab))
        for term in [vocab[rng.randrange(len(vocab))] for _ in range(3)] + ["zzqx"]:
            q = FuzzyQuery(term, max_edits=2)
            seeks.clear()
            natural = rw.expand_fuzzy_with_distance(vocab, q)
            assert bool(seeks) == seeks_natural, (len(vocab), term)
            monkeypatch.setattr(rw, "_SEEK_MIN_VOCAB", 0 if not seeks_natural else len(vocab))
            forced = rw.expand_fuzzy_with_distance(vocab, q)
            monkeypatch.setattr(rw, "_SEEK_MIN_VOCAB", n0)
            assert natural == forced, (len(vocab), term)
            assert natural or term == "zzqx", term


def test_edit_distances_match_reference():
    """Seeded fuzz: edit_distances equals the reference DP for every
    budget, over empty strings, 'é', an astral code point and NUL (numpy
    str arrays drop trailing NULs, so lengths must come from len)."""
    from lucene_ray.search.rewrite import edit_distances

    assert edit_distances("ab", []).tolist() == []
    rng = random.Random(29)
    alpha = "abcé\U0001F600\x00"

    def word():
        return "".join(rng.choice(alpha) for _ in range(rng.randint(0, 6)))

    for _ in range(300):
        term = word()
        cands = [word() for _ in range(rng.randint(0, 12))] + [""]
        got = edit_distances(term, cands).tolist()
        for k in (0, 1, 2, 12):
            assert [d if d <= k else None for d in got] == [
                ref_levenshtein(term, c, k) for c in cands
            ], (term, cands, k)

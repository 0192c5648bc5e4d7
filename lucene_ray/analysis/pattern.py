"""Pattern-driven analysis — the reference's pattern package
re-expressed over list arrays:

  pattern/PatternTokenizer.java:40-95         pattern_tokenize (group -1
      = split mode, zero-length segments skipped; group >= 0 = match
      mode emitting that capture group, empty captures skipped)
  pattern/PatternReplaceFilter.java:30-60     pattern_replace_lists
      (per-token replaceAll / replaceFirst)
  pattern/PatternCaptureGroupTokenFilter.java:40-150
      capture_groups_term / PatternCaptureGroupAnalyzer (each capture
      group of each match emitted at the ORIGINAL token's position —
      posInc 0; preserve_original keeps the token itself; a capture
      equal to the whole token is skipped when preserving; a token with
      no captures passes through unchanged)

Python ``re`` on this side; the pattern_stats gate restricts itself to
RE2-compatible patterns so the DuckDB mirror (string_split_regex /
regexp_replace / regexp_extract_all with a group index) is exact.
"""

from __future__ import annotations

import re

import pyarrow as pa

__all__ = [
    "pattern_tokenize",
    "pattern_replace_lists",
    "capture_groups_term",
    "PatternTokenizerAnalyzer",
    "PatternCaptureGroupAnalyzer",
]


def pattern_tokenize(text: str, pattern: str, group: int = -1) -> list[str]:
    rx = re.compile(pattern)
    if group >= 0:
        out = []
        for m in rx.finditer(text):
            s = m.group(group)
            if s:
                out.append(s)
        return out
    return [seg for seg in rx.split(text) if seg]


def pattern_replace_lists(
    toks: pa.ListArray, pattern: str, replacement: str, all_matches: bool = True
) -> pa.ListArray:
    rx = re.compile(pattern)
    count = 0 if all_matches else 1
    vals = [
        rx.sub(replacement, t, count=count) for t in toks.values.to_pylist()
    ]
    return pa.ListArray.from_arrays(
        toks.offsets, pa.array(vals, type=pa.string())
    )


def capture_groups_term(
    term: str, patterns, preserve_original: bool = False
) -> list[str]:
    """The nextCapture walk: per matcher, per find(), groups in index
    order; candidates ordered by capture start offset across matchers.
    Skips empty captures and (when preserving) a capture equal to the
    whole token. No captures at all -> the token passes through."""
    if isinstance(patterns, (str, re.Pattern)):
        patterns = [patterns]
    rxs = [re.compile(p) if isinstance(p, str) else p for p in patterns]
    n = len(term)
    iters = [rx.finditer(term) for rx in rxs]
    # per matcher: [current match | None, current group index]
    cur = [[next(it, None), 1] for it in iters]

    def _settle(i):
        """Advance matcher i to its next valid (match, group) candidate."""
        rx = rxs[i]
        while cur[i][0] is not None:
            m, g = cur[i]
            if g > (rx.groups or 0):
                cur[i] = [next(iters[i], None), 1]
                continue
            if m.start(g) == m.end(g) or (
                preserve_original and m.start(g) == 0 and m.end(g) == n
            ):
                cur[i][1] = g + 1
                continue
            return True
        return False

    caps = []
    while True:
        best_i, best_start = -1, None
        for i in range(len(rxs)):
            if not _settle(i):
                continue
            st = cur[i][0].start(cur[i][1])
            if best_start is None or st < best_start:
                best_i, best_start = i, st
        if best_i == -1:
            break
        m, g = cur[best_i]
        caps.append(m.group(g))
        cur[best_i][1] = g + 1
    if not caps:
        return [term]
    if preserve_original:
        return [term] + caps
    return caps


from lucene_ray.analysis.analyzer import (  # noqa: E402
    UnicodeAnalyzer,
    _gather,
    _ListAnalyzer,
    _per_vocab,
)


class PatternTokenizerAnalyzer(_ListAnalyzer):
    """PatternTokenizer as an analyzer: split or group-match mode, with
    the PatternAnalyzer-style optional lowercase. Instantiate with a
    custom pattern; the "pattern" registry entry is a demo instance
    (split on non-alphanumeric-or-apostrophe, lowercased)."""

    name = "pattern"  # not an indexing analyzer: tokens may contain ':'

    def __init__(
        self, pattern: str = r"[^a-zA-Z0-9']+", group: int = -1,
        lowercase: bool = True,
    ):
        self.pattern = pattern
        self.group = group
        self.lowercase = lowercase
        self._rx = re.compile(pattern)

    def _tokens(self, text: str) -> list[str]:
        if self.lowercase:
            text = text.lower()
        return pattern_tokenize(text, self.pattern, self.group)


class PatternCaptureGroupAnalyzer(UnicodeAnalyzer):
    """Unicode tokenizer + PatternCaptureGroupTokenFilter. Captures are
    injected at the original's position (posInc 0; the compound/synonym
    overlap contract). Demo instance splits snake_case-joined runs the
    unicode tokenizer keeps whole is not needed — default pattern pulls
    letter runs and digit runs out of mixed tokens."""

    name = "capturegroup"
    has_overlaps = True
    supports_indexing = True
    patterns = (r"([a-z]+)", r"([0-9]+)")
    preserve_original = True

    def _expand(self, vocab: list) -> list:
        return [
            capture_groups_term(t, self.patterns, self.preserve_original)
            for t in vocab
        ]

    def tokenize_flat(self, texts, with_offsets: bool = False):
        # the first emitted token replaces the original (itself when
        # preserving it), the rest follow at its position
        stream = super().tokenize_flat(texts, with_offsets)
        return _gather(stream, *_per_vocab(stream[1], self._expand))

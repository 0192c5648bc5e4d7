"""Snippet highlighting — two strategies over the same passage builder:

1. **Re-analysis** (the classic Highlighter,
   highlighter/.../highlight/Highlighter.java + QueryTermExtractor):
   re-tokenize the stored text at display time and recover offsets. Works on
   any index; O(doc length) per hit.
2. **Postings offsets** (UnifiedHighlighter OFFSETS_FROM_POSTINGS strategy,
   highlighter/.../uhighlight/UnifiedHighlighter.java:95 +
   FieldHighlighter.java): when the index was built with
   ``index_options="offsets"``, read each query term's (start, length)
   occurrence stream for the hit doc straight from the postings — no
   re-tokenization, O(matched occurrences) per hit.

Both feed identical (term, start, end) spans into ``_assemble_fragments``,
so their output is byte-identical on the same doc (pinned by
tests/test_highlight.py::test_offsets_path_matches_reanalysis).

``passage_weights`` supplies UnifiedHighlighter PassageScorer-style
BM25-idf term weights (uhighlight/PassageScorer.java:40-78) for ranking
fragments by information content instead of raw match count.

Display-path only: runs per returned hit, never per corpus row.

Offset recovery (strategy 1) relies on the analyzer-kernel invariant
(analyzer.py): the split passes only INSERT boundaries, never change
characters — so every token is a sub-run of an ``[A-Za-z0-9]+`` run of the
original text, split at case/digit transitions, lowercased. ``token_spans``
re-derives (term, start, end) per doc with plain python (one doc at a time,
display path).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

_RUN_RE = re.compile(r"[A-Za-z0-9]+")
# case/digit boundaries, same rules as the index kernel (r1, r2, r3, r4)
_BOUNDARY_RE = re.compile(
    r"(?<=[a-z])(?=[A-Z])|(?<=[A-Z])(?=[A-Z][a-z])|(?<=[A-Za-z])(?=[0-9])|(?<=[0-9])(?=[A-Za-z])"
)


def token_spans(text: str, max_token_len: int = 255) -> list[tuple[str, int, int]]:
    """(lowercased token, char start, char end) for every analyzed token of
    ``text``, in order — byte-kernel-equivalent offsets (incl. maxTokenLength
    SPLIT: over-long runs emit consecutive max_token_len-sized chunks, each
    with its own offsets, like the jflex scanner)."""
    out = []

    def emit(piece: str, start: int) -> None:
        for i in range(0, len(piece), max_token_len):
            chunk = piece[i : i + max_token_len]
            out.append((chunk.lower(), start + i, start + i + len(chunk)))

    for m in _RUN_RE.finditer(text):
        run = m.group(0)
        base = m.start()
        prev = 0
        for b in _BOUNDARY_RE.finditer(run):
            if b.start() > prev:
                emit(run[prev : b.start()], base + prev)
            prev = b.start()
        if len(run) > prev:
            emit(run[prev:], base + prev)
    return out


@dataclass
class Fragment:
    text: str
    score: float  # sum of matched-term weights (1.0 each unweighted)
    start: int


def _assemble_fragments(
    text: str,
    spans: list[tuple[str, int, int]],
    pre_tag: str,
    post_tag: str,
    fragment_chars: int,
    max_fragments: int,
    weights: dict[str, float] | None = None,
) -> list[str]:
    """Shared passage builder: windows of ~fragment_chars centred on match
    spans (already filtered to query terms, ascending by start), ranked by
    match weight then position, non-overlapping."""
    if not spans:
        return []
    frags: list[Fragment] = []
    used: list[tuple[int, int]] = []
    covered_upto = -1
    for _, s, _e in spans:
        if s <= covered_upto:
            continue  # this occurrence already sits inside a fragment
        w0 = max(0, s - fragment_chars // 2)
        # don't overlap earlier fragments: clamp the window start forward
        # instead of dropping the match (a hit just past a fragment edge
        # must still get its own fragment)
        for a, b in used:
            if w0 < b and s >= b:
                w0 = b
        w1 = min(len(text), w0 + fragment_chars)
        if any(not (w1 <= a or w0 >= b) for a, b in used):
            continue
        inside = [(t, ts, te) for t, ts, te in spans if w0 <= ts and te <= w1]
        if not inside:
            continue
        # build the marked-up fragment
        parts = []
        cur = w0
        for _t, ts, te in inside:
            parts.append(text[cur:ts])
            parts.append(pre_tag + text[ts:te] + post_tag)
            cur = te
        score = (
            float(len(inside))
            if weights is None
            else sum(weights.get(t, 1.0) for t, _ts, _te in inside)
        )
        frags.append(Fragment("".join(parts), score, w0))
        used.append((w0, w1))
        covered_upto = max(covered_upto, w1 - 1)

    frags.sort(key=lambda f: (-f.score, f.start))
    return [f.text for f in frags[:max_fragments]]


def highlight(
    text: str,
    query_terms,
    pre_tag: str = "<b>",
    post_tag: str = "</b>",
    fragment_chars: int = 100,
    max_fragments: int = 3,
    weights: dict[str, float] | None = None,
) -> list[str]:
    """Best-scoring highlighted fragments of ``text`` for the (analyzed)
    ``query_terms`` — re-analysis strategy."""
    terms = set(query_terms)
    spans = [(t, s, e) for t, s, e in token_spans(text) if t in terms]
    return _assemble_fragments(
        text, spans, pre_tag, post_tag, fragment_chars, max_fragments, weights
    )


def index_token_spans(reader, global_docid: int, terms) -> list[tuple[str, int, int]]:
    """(term, start BYTE, end BYTE) spans of the query terms in one doc,
    read from the postings offset streams (no re-analysis). Requires an
    index built with ``index_options="offsets"``; spans sorted by start."""
    sr, local = reader.locate(int(global_docid))
    spans: list[tuple[str, int, int]] = []
    for t in set(terms):
        tp = sr.postings(t)
        if tp is None or not tp.has_offsets:
            continue
        starts, lens = tp.doc_offsets(local)
        spans.extend((t, int(s), int(s + L)) for s, L in zip(starts, lens))
    spans.sort(key=lambda x: (x[1], x[2]))
    return spans


def _byte_spans_to_char(text: str, spans):
    """Convert UTF-8 byte spans to character spans (identity for ASCII)."""
    b = text.encode("utf-8")
    if len(b) == len(text):
        return spans
    arr = np.frombuffer(b, dtype=np.uint8)
    char_of_byte = np.cumsum((arr & 0xC0) != 0x80) - 1

    def conv(i: int) -> int:
        return len(text) if i >= len(b) else int(char_of_byte[i])

    return [(t, conv(s), conv(e)) for t, s, e in spans]


def highlight_by_offsets(
    reader,
    global_docid: int,
    text: str,
    query_terms,
    pre_tag: str = "<b>",
    post_tag: str = "</b>",
    fragment_chars: int = 100,
    max_fragments: int = 3,
    weights: dict[str, float] | None = None,
) -> list[str]:
    """Postings-offsets strategy: identical output to :func:`highlight` on
    the same doc, without re-tokenizing ``text``."""
    spans = index_token_spans(reader, global_docid, query_terms)
    spans = _byte_spans_to_char(text, spans)
    return _assemble_fragments(
        text, spans, pre_tag, post_tag, fragment_chars, max_fragments, weights
    )


def tv_token_spans(reader, global_docid: int, terms) -> list[tuple[str, int, int]]:
    """(term, start BYTE, end BYTE) spans of the query terms in one doc,
    read from the TERM VECTORS sidecar (the FastVectorHighlighter source:
    vectorhighlight/FieldTermStack.java:60-120 builds its term stack from
    term-vector offsets). Requires ``build_index(term_vectors=True,
    index_options="offsets")``; spans sorted by start."""
    import numpy as np

    sr, local = reader.locate(int(global_docid))
    tv = sr.term_vectors_local(np.asarray([local], dtype=np.int64))
    if "starts" not in tv.column_names:
        raise ValueError(
            "term vectors were built without offsets "
            "(build_index index_options='offsets')"
        )
    want = set(terms)
    spans: list[tuple[str, int, int]] = []
    for row in tv.to_pylist():
        t = row["term"]
        if t not in want:
            continue
        spans.extend(
            (t, int(s), int(s + L))
            for s, L in zip(row["starts"], row["lens"])
        )
    spans.sort(key=lambda x: (x[1], x[2]))
    return spans


def highlight_by_term_vectors(
    reader,
    global_docid: int,
    text: str,
    query_terms,
    pre_tag: str = "<b>",
    post_tag: str = "</b>",
    fragment_chars: int = 100,
    max_fragments: int = 3,
    weights: dict[str, float] | None = None,
) -> list[str]:
    """FastVectorHighlighter strategy (vectorhighlight/
    FastVectorHighlighter.java): fragments from term-vector offsets —
    identical output to :func:`highlight` and :func:`highlight_by_offsets`
    on the same doc, reading only the doc's own TV row group (no postings
    walk, no re-analysis; the right choice when highlighting few docs of a
    huge index)."""
    spans = tv_token_spans(reader, global_docid, query_terms)
    spans = _byte_spans_to_char(text, spans)
    return _assemble_fragments(
        text, spans, pre_tag, post_tag, fragment_chars, max_fragments, weights
    )


def passage_weights(reader, terms) -> dict[str, float]:
    """UnifiedHighlighter PassageScorer term weights
    (uhighlight/PassageScorer.java:40-78): BM25 idf,
    log(1 + (N - df + 0.5) / (df + 0.5)) — rarer query terms make a passage
    score higher than common ones."""
    n = reader.stats_doc_count
    stats = reader.global_term_stats(sorted(set(terms)))
    return {
        t: math.log(1.0 + (n - df + 0.5) / (df + 0.5))
        for t, (df, _ttf) in stats.items()
    }


def highlight_hits(
    searcher,
    query: str,
    k: int = 10,
    content_lookup=None,
    use_weights: bool = False,
    **kwargs,
) -> list[dict]:
    """Search + fetch stored fields + highlight — the SearchFiles demo loop
    (demo/.../SearchFiles.java) with snippets.

    ``content_lookup``: optional callable mapping a list of global docids to
    their text (the corpus stores content by reference; stored.parquet keeps
    only metadata + sha). Falls back to a stored 'content' column if present.
    Uses the postings-offsets strategy automatically when the index carries
    offsets; re-analysis otherwise. ``use_weights=True`` ranks fragments by
    PassageScorer idf weights instead of match count."""
    from lucene_ray.search.engine import fetch_stored, query_terms

    bq = searcher.prepare(query)
    terms = query_terms(bq)
    td = searcher.search(bq, k)
    if len(td.docids) == 0:
        return []
    stored = fetch_stored(searcher.reader, td.docids)
    if content_lookup is not None:
        contents = list(content_lookup([int(d) for d in td.docids]))
    elif "content" in stored.column_names:
        contents = stored.column("content").to_pylist()
    else:
        contents = [None] * len(td.docids)
    weights = passage_weights(searcher.reader, terms) if use_weights else None
    offsets_path = searcher.reader.has_offsets
    out = []
    for i, (d, s) in enumerate(zip(td.docids, td.scores)):
        row = {"docid": int(d), "score": float(s)}
        if contents[i] is not None:
            if offsets_path:
                row["fragments"] = highlight_by_offsets(
                    searcher.reader, int(d), contents[i], terms,
                    weights=weights, **kwargs,
                )
            else:
                row["fragments"] = highlight(
                    contents[i], terms, weights=weights, **kwargs
                )
        out.append(row)
    return out

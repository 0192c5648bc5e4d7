"""Analyzers: vectorized tokenization over Arrow string arrays.

The reference's analysis chain (SURVEY.md §2.2) is CharFilter* -> Tokenizer ->
TokenFilter* pulled token-at-a-time (lucene/core/.../analysis/TokenStream.java).
Here an analyzer writes its whole chain ONCE, as a *vectorized batch
function* over a pyarrow StringArray: ``tokenize_flat`` returns the token
stream (row_idx, term, position[, start, length]) and every token filter is
a function of that stream (the helpers below: ``_add_twins`` injects tokens
at their source's position, ``_drop`` removes tokens and renumbers
positions). ``tokenize_array`` (one token list per row of an Arrow
array) and the list views ``tokenize_texts`` (a few Python strings, one
stream call) and ``tokenize_text`` (one string) are views over the stream
defined once on :class:`Analyzer`, so the index builder, the query parser
and every op run the same chain. ``code`` has the one scalar view:
``CodeAnalyzer.tokenize_texts`` scans short query texts with one bytes
regex instead of the bulk kernel, and is held to the kernel and the RE2
passes by tests.

``CodeAnalyzer`` (default for the index — the north star's
"StandardAnalyzer-equivalent with code-aware splitting"):
  1. split case transitions  ``fooBar -> foo Bar``, ``XMLHttp -> XML Http``
     (WordDelimiterGraphFilter SPLIT_ON_CASE_CHANGE semantics,
     lucene/analysis/common/.../miscellaneous/WordDelimiterGraphFilter.java:95-146)
  2. split letter<->digit transitions ``SD500 -> SD 500``
     (SPLIT_ON_NUMERICS semantics, same file)
  3. lowercase (analysis/LowerCaseFilter.java:23)
  4. split on non-alphanumeric runs ``[^a-z0-9]+`` (snake_case splits here;
     StandardTokenizer-like word-break reduced to the ASCII ALPHANUM/NUM rules
     that fire on source code — SURVEY.md §7.4 item 2)
  5. drop empty tokens; SPLIT tokens longer than 255 chars into 255-char
     chunks (maxTokenLength scanner semantics: the jflex scanner emits the
     buffered maxTokenLength chars and keeps scanning —
     StandardTokenizerImpl.jflex, analysis/standard/StandardAnalyzer.java:37)
  The specification of these steps is the RE2 pass list ``_SPLIT_PASSES``
  (``pyarrow.compute`` and DuckDB both use RE2): :func:`tokenize_sql_expr`
  runs it in the oracle SQL and :func:`tokenize_re2` in pyarrow, and the
  engine's byte kernel must match both.

``UnicodeAnalyzer`` and its language chains tokenize with RE2 passes that
produce one token list per row; ``StandardLiteAnalyzer`` and the
whitespace/keyword/pattern analyzers split each text in Python. Both kinds
feed their lists into the same stream (``_ListAnalyzer``).

Scale notes: tokenization is a pure stateless ``map_batches`` stage —
zero-copy Arrow in, no Python-per-row work in the CodeAnalyzer path.
Regexes are module-level constants (no per-batch compile).
"""

from __future__ import annotations

import functools
import re

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from lucene_ray.config import MAX_TOKEN_LEN

# (pattern, replacement) passes, applied in order. RE2-safe: no lookaround,
# backrefs \1 \2 valid in both pyarrow and DuckDB regexp_replace.
_SPLIT_PASSES: list[tuple[str, str]] = [
    (r"([a-z])([A-Z])", r"\1 \2"),        # camelCase
    (r"([A-Z])([A-Z][a-z])", r"\1 \2"),   # ACRONYMTail -> ACRONYM Tail
    (r"([A-Za-z])([0-9])", r"\1 \2"),     # letter->digit
    (r"([0-9])([A-Za-z])", r"\1 \2"),     # digit->letter
]

_SEP_PATTERN = r"[^a-z0-9]+"


def _filter_list_array(tokens: pa.ListArray, keep: np.ndarray) -> pa.ListArray:
    """Rebuild a list<string> array keeping only flattened elements where
    ``keep`` is True (preserving per-list order)."""
    offsets = tokens.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    # kept count per list via prefix sums of the keep mask
    csum = np.concatenate(([0], np.cumsum(keep.astype(np.int64))))
    new_offsets = csum[offsets]
    values = tokens.values.filter(pa.array(keep))
    return pa.ListArray.from_arrays(pa.array(new_offsets, type=pa.int32()), values)


def _split_overlong(tokens: list[str]) -> list[str]:
    """maxTokenLength SPLIT semantics (StandardTokenizerImpl.jflex: when a
    run exceeds maxTokenLength the scanner emits the buffered
    maxTokenLength chars as a token and keeps going — over-long runs come
    out as consecutive maxTokenLength-sized chunks, never dropped).
    Python-side fixup for the list-producing tokenizers (RE2 passes and
    per-text splitters); the byte kernel and the SQL mirror implement the
    same chunking vectorized."""
    if all(len(t) <= MAX_TOKEN_LEN for t in tokens):
        return [t for t in tokens if t]
    out: list[str] = []
    for t in tokens:
        if not t:
            continue
        if len(t) <= MAX_TOKEN_LEN:
            out.append(t)
        else:
            out.extend(
                t[i : i + MAX_TOKEN_LEN]
                for i in range(0, len(t), MAX_TOKEN_LEN)
            )
    return out


def _trim_lists(toks: pa.ListArray, keep: np.ndarray | None = None) -> pa.ListArray:
    """The tail of every RE2 list tokenizer: drop the empty split
    artifacts (and the tokens where ``keep`` is False), then chunk any
    over-long token (``_split_overlong``)."""
    lengths = pc.utf8_length(toks.values).to_numpy(zero_copy_only=False)
    keep = lengths > 0 if keep is None else keep & (lengths > 0)
    if not bool(keep.all()):
        toks = _filter_list_array(toks, keep)
        lengths = lengths[keep]
    if bool((lengths > MAX_TOKEN_LEN).any()):
        toks = pa.array(
            [_split_overlong(r or []) for r in toks.to_pylist()],
            type=pa.list_(pa.string()),
        )
    return toks


# --- the token stream -------------------------------------------------------
# A stream is the tuple (row_idx int64, term utf8, position int32) plus,
# when offsets were asked for, (start int32, length int32): tokens in
# (row, position) order, a token's twins right behind it.


def _row_ordinals(row_idx: np.ndarray) -> np.ndarray:
    """int32 0-based ordinal of every token within its row (``row_idx``
    sorted) — the position of a stream without gaps or overlaps."""
    n = len(row_idx)
    row_change = np.empty(n, dtype=bool)
    row_change[:1] = True
    np.not_equal(row_idx[1:], row_idx[:-1], out=row_change[1:])
    first_of_row = np.maximum.accumulate(
        np.where(row_change, np.arange(n), 0)
    )
    return (np.arange(n) - first_of_row).astype(np.int32)


def _gather(stream: tuple, src: np.ndarray, terms: pa.Array, spans=None) -> tuple:
    """The stream whose token j is ``terms[j]`` at the row and position of
    source token ``src[j]`` (``src`` non-decreasing), with the source's
    offsets unless ``spans`` = (starts, lengths) gives its own."""
    if spans is None:
        spans = tuple(a[src] for a in stream[3:])
    return (stream[0][src], terms, stream[2][src]) + tuple(spans)


def _add_twins(
    stream: tuple, src: np.ndarray, twins: pa.Array,
    twins_first: bool = False, spans=None,
) -> tuple:
    """Inject ``twins[j]`` at the position of source token ``src[j]``
    (posInc 0: the synonym/phonetic inject mode). ``src`` is
    non-decreasing; a token's twins keep their given order and follow the
    token, or precede it when ``twins_first``. Twins copy their source's
    offsets unless ``spans`` = (starts, lengths) gives their own."""
    if len(src) == 0:
        return stream
    n = len(stream[0])
    if spans is None:
        spans = tuple(a[src] for a in stream[3:])
    parts = [(np.arange(n), stream[1], stream[3:]), (src, twins, spans)]
    if twins_first:
        parts.reverse()
    by_src = np.concatenate([p[0] for p in parts])
    o = np.argsort(by_src, kind="stable")
    terms = pa.concat_arrays([p[1] for p in parts]).take(pa.array(o))
    spans = tuple(
        np.concatenate(cols)[o] for cols in zip(parts[0][2], parts[1][2])
    )
    return _gather(stream, by_src[o], terms, spans)


@functools.lru_cache(maxsize=None)
def _value_set(words: frozenset) -> pa.Array:
    """One Arrow value set per word set, built on first use."""
    return pa.array(sorted(words), type=pa.string())


def _drop(
    stream: tuple, keep: np.ndarray | None = None, stop: frozenset = frozenset()
) -> tuple:
    """The stream without the tokens where ``keep`` is False and, given a
    ``stop`` word set, without those terms (StopFilter). Positions are
    renumbered to row ordinals: the compaction divergence documented on
    EnglishAnalyzer (Lucene leaves gaps via posIncAttribute)."""
    if keep is None:
        keep = np.ones(len(stream[0]), dtype=bool)
    if stop:
        keep = keep & ~pc.is_in(
            stream[1], value_set=_value_set(stop)
        ).to_numpy(zero_copy_only=False)
    row_idx = stream[0][keep]
    tail = tuple(a[keep] for a in stream[3:])
    return (row_idx, stream[1].filter(pa.array(keep)), _row_ordinals(row_idx)) + tail


def _per_vocab(terms: pa.Array, expand) -> tuple[np.ndarray, pa.Array]:
    """(src, out) of a filter defined per distinct term: ``expand`` maps
    the batch vocabulary to one list of output terms per entry, and each
    token's list is gathered from its entry (no per-token Python loop)."""
    d = terms.dictionary_encode()
    lists = pa.array(
        expand(d.dictionary.to_pylist()), type=pa.list_(pa.string())
    ).take(d.indices)
    counts = pc.list_value_length(lists).to_numpy(zero_copy_only=False)
    return np.repeat(np.arange(len(terms), dtype=np.int64), counts), lists.flatten()


class Analyzer:
    """An analysis chain as ONE token stream. A subclass writes its chain
    once, in ``tokenize_flat``; the list and single-text views below are
    derived from that stream and never re-implement a filter."""

    def tokenize_flat(self, texts, with_offsets: bool = False) -> tuple:
        raise NotImplementedError

    def tokenize_array(self, texts: pa.Array | pa.ChunkedArray) -> pa.ListArray:
        """StringArray -> ListArray<string>: the stream's terms grouped by
        row, in stream order (a null row gives [])."""
        row_idx, terms = self.tokenize_flat(texts)[:2]
        counts = np.bincount(row_idx, minlength=len(texts))
        offsets = np.concatenate(([0], np.cumsum(counts)))
        return pa.ListArray.from_arrays(pa.array(offsets, type=pa.int32()), terms)

    def tokenize_texts(self, texts: list[str]) -> list[list[str]]:
        """List view for a few Python strings (query parsing): the token
        list of every text, from ONE ``tokenize_flat`` call whose
        ``row_idx`` maps each token back to its text (a None text gives
        [])."""
        words: list[list[str]] = [[] for _ in texts]
        if texts:
            row_idx, terms = self.tokenize_flat(pa.array(texts, type=pa.string()))[:2]
            for r, t in zip(row_idx.tolist(), terms.to_pylist()):
                words[r].append(t)
        return words

    def tokenize_text(self, text: str) -> list[str]:
        """Single-string view (query helpers, tests)."""
        return self.tokenize_texts([text])[0]


class _ListAnalyzer(Analyzer):
    """A tokenizer that natively produces one token list per row (RE2
    passes, or ``_tokens`` per text in Python): its lists enter the
    stream here, and its filters are written on the stream like any
    other. Its passes rewrite the text, so it reports no offsets."""

    supports_indexing = False

    def _tokens(self, text: str) -> list[str]:
        raise NotImplementedError

    def _token_lists(self, texts: pa.Array) -> pa.ListArray:
        return pa.array(
            [self._tokens(t or "") for t in texts.to_pylist()],
            type=pa.list_(pa.string()),
        )

    def tokenize_flat(self, texts, with_offsets: bool = False) -> tuple:
        if with_offsets:
            raise ValueError(
                f"{self.name} analyzer does not support the offsets option "
                "(its tokenizer rewrites the text before splitting)"
            )
        if isinstance(texts, pa.ChunkedArray):
            texts = texts.combine_chunks()
        lists = self._token_lists(texts)
        counts = np.diff(lists.offsets.to_numpy(zero_copy_only=False))
        row_idx = np.repeat(np.arange(len(lists), dtype=np.int64), counts)
        return row_idx, lists.flatten(), _row_ordinals(row_idx)


#: byte -> class: 0 other, 1 lower, 2 UPPER, 3 digit (ASCII only)
_CLASS = np.zeros(256, dtype=np.uint8)
_CLASS[ord("a") : ord("z") + 1] = 1
_CLASS[ord("A") : ord("Z") + 1] = 2
_CLASS[ord("0") : ord("9") + 1] = 3
#: (previous, current, next) class, as prev*16 + cur*4 + next -> does the
#: current byte start a token? (the split rules of the CodeAnalyzer docstring)
_P, _C, _N = np.indices((4, 4, 4)).reshape(3, 64)
_STARTS = (_C > 0) & (
    (_P == 0)                                # after a separator
    | ((_P == 1) & (_C == 2))                # lower -> UPPER
    | ((_P == 2) & (_C == 2) & (_N == 1))    # UPPER -> UPPER lower
    | ((_P > 0) & ((_P == 3) != (_C == 3)))  # letter <-> digit
)
#: The _STARTS rules as one scan of a text's UTF-8 bytes, for
#: ``CodeAnalyzer.tokenize_texts``: an UPPER run up to the last UPPER
#: before a lower, an optional UPPER and its lower run, the rest of an
#: UPPER run, a digit run. Every other byte (non-ASCII too) separates.
_TOKEN_RE = re.compile(rb"[A-Z]+(?=[A-Z][a-z])|[A-Z]?[a-z]+|[A-Z]+|[0-9]+")
_INT32_MAX = np.iinfo(np.int32).max
#: byte -> lowercased byte for A-Z, identity otherwise
_LUT_TOLOWER = (np.arange(256) + 32 * (_CLASS == 2)).astype(np.uint8)


class CodeAnalyzer(Analyzer):
    """The default analyzer (module docstring, steps 1-5) as one byte-level
    numpy kernel over the Arrow string buffers: no per-row Python, no regex.

    Each byte gets a class from ``_CLASS`` (other, lower, UPPER, digit) and
    starts a token iff ``_STARTS`` holds for its (previous, current, next)
    classes: an alphanumeric byte after a separator, lower->UPPER,
    UPPER->UPPER followed by lower, or letter<->digit. The rules read the
    original bytes, which equals the sequential RE2 passes (inserting a
    space changes no character, and no two rule sites overlap). At a row
    seam the previous and next class read as "other": the lookahead never
    crosses a row, and every row's first alphanumeric byte starts a token.
    A token is the alphanumeric bytes from its start to the next start,
    lowercased; its offset in the term buffer is one ``cumsum`` of the
    alphanumeric mask, read at the starts. The RE2 passes stay the
    specification (:func:`tokenize_re2`; :func:`tokenize_sql_expr` in the
    oracle), and tests/test_analyzer.py::test_fast_path_matches_re2 holds
    the kernel to them.
    """

    name = "code"

    def tokenize_texts(self, texts: list[str]) -> list[list[str]]:
        """Scalar list view for the few short texts of a query parse:
        ``_TOKEN_RE`` matches, lowercased, over-long ones cut into
        MAX_TOKEN_LEN chunks (``_split_overlong``), without the kernel's
        fixed cost of some 25 numpy/Arrow calls. Only the bare kernel
        takes it: a subclass that adds filters in its own ``tokenize_flat``
        keeps the stream view. tests/test_analyzer.py holds this view, the
        kernel and the RE2 passes to each other."""
        if type(self).tokenize_flat is not CodeAnalyzer.tokenize_flat:
            return super().tokenize_texts(texts)
        return [
            _split_overlong([
                m.lower().decode("ascii")
                for m in _TOKEN_RE.findall((t or "").encode("utf-8"))
            ])
            for t in texts
        ]

    def tokenize_flat(
        self, texts: pa.Array | pa.ChunkedArray, with_offsets: bool = False
    ) -> tuple:
        """StringArray -> (row_index int64, term string, position int32).

        ``position`` is the 0-based token ordinal within its row (post-filter;
        no stopwords in the default chain, so position increments are all 1 —
        StandardAnalyzer's default stop set is empty,
        analysis/standard/StandardAnalyzer.java:34-38).

        ``with_offsets=True`` appends (start int32, length int32) per token:
        the token's BYTE offset within its row's UTF-8 text and its byte
        length (OffsetAttribute for IndexOptions ..._AND_OFFSETS; the
        reference reports UTF-16 code-unit offsets — this engine's offsets
        are UTF-8 bytes, identical for ASCII text, documented divergence).
        Tokens are byte-sub-runs of the original text (split passes only
        insert boundaries), so offsets slice the stored text exactly.
        """
        if texts.null_count:  # a null row may still span bytes
            texts = pc.fill_null(texts, "")
        data, row_off = _term_buffer(texts)
        n, n_rows = len(data), len(row_off) - 1
        if n == 0:
            return _empty_stream(with_offsets)
        ctx = np.zeros(n + 2, dtype=np.uint8)  # classes, "other" at both ends
        ctx[1:-1] = _CLASS[data]
        code = ctx[:-2] * 16 + ctx[1:-1] * 4 + ctx[2:]  # _STARTS index
        if n_rows > 1:  # row seams: no previous / next class across them
            seams = row_off[1:-1]
            seams = seams[(seams > 0) & (seams < n)]
            code[seams] &= 15
            code[seams - 1] &= 60
        bounds = np.append(np.flatnonzero(_STARTS[code]), n)  # token starts, end
        # a token's bytes are the alnum bytes from its start to the next
        # bound, so its offset in the term buffer is the count of alnum
        # bytes before its start (ctx[i] is the class of byte i - 1)
        alnum = ctx.astype(bool)
        out_off = alnum.cumsum()[bounds]
        starts = bounds[:-1]
        if out_off[-1] > MAX_TOKEN_LEN and np.diff(out_off).max() > MAX_TOKEN_LEN:
            # maxTokenLength SPLIT (jflex scanner semantics, see
            # _split_overlong): each over-long token becomes consecutive
            # MAX_TOKEN_LEN-sized chunks. The chunks cover the token's bytes
            # contiguously in order, so the term buffer is STILL exactly
            # the alnum bytes in order — only starts and offsets re-shape.
            n_chunks = (np.diff(out_off) + MAX_TOKEN_LEN - 1) // MAX_TOKEN_LEN
            rep = np.repeat(np.arange(len(starts)), n_chunks)
            shift = _row_ordinals(rep) * MAX_TOKEN_LEN  # chunk ordinal in its token
            starts = starts[rep] + shift
            out_off = np.append(out_off[rep] + shift, out_off[-1])
        if out_off[-1] > _INT32_MAX:
            # pa.utf8 carries int32 offsets: >2 GiB of token bytes in one
            # batch would silently wrap and corrupt the term array
            raise ValueError(
                f"token byte volume {int(out_off[-1])} exceeds int32 utf8 "
                "offsets; lower the batch size for this stage"
            )
        terms = pa.Array.from_buffers(pa.utf8(), len(starts), [
            None, pa.py_buffer(out_off.astype(np.int32)),
            pa.py_buffer(_LUT_TOLOWER[data[alnum[1:-1]]]),
        ])
        row_idx = np.searchsorted(row_off[1:-1], starts, side="right")
        first = np.searchsorted(starts, row_off[:-1])  # each row's first token
        out = (row_idx, terms, (np.arange(len(starts)) - first[row_idx]).astype(np.int32))
        if with_offsets:
            out += ((starts - row_off[row_idx]).astype(np.int32), np.diff(out_off).astype(np.int32))
        return out


def _empty_stream(with_offsets: bool) -> tuple:
    empty = np.array([], dtype=np.int32)
    out = (np.array([], dtype=np.int64), pa.array([], type=pa.string()), empty)
    return out + (empty, empty) if with_offsets else out


def tokenize_sql_expr(col: str) -> str:
    """DuckDB SQL expression producing exactly CodeAnalyzer's token list.

    Used to build oracle_sql() strings that are tokenization-identical to the
    Ray engine (both sides run RE2).
    """
    expr = col
    for pat, repl in _SPLIT_PASSES:
        expr = f"regexp_replace({expr}, '{pat}', '{repl}', 'g')"
    expr = f"lower({expr})"
    expr = f"string_split_regex({expr}, '{_SEP_PATTERN}')"
    # maxTokenLength SPLIT: regexp_extract_all('.{1,N}') chunks each token
    # into N-char pieces left-to-right (greedy {1,N}) and yields [] for the
    # empty-string artifacts of split, so flatten() also drops empties —
    # exactly the engine kernel's chunking
    expr = (
        f"flatten(list_transform({expr}, "
        f"t -> regexp_extract_all(t, '.{{1,{MAX_TOKEN_LEN}}}')))"
    )
    return expr


def tokenize_re2(texts: pa.Array | pa.ChunkedArray) -> pa.ListArray:
    """CodeAnalyzer's tokens per row, computed by running ``_SPLIT_PASSES``
    in pyarrow (RE2) — the passes :func:`tokenize_sql_expr` emits for
    DuckDB. The reference the byte kernel is tested against; no engine
    path calls it."""
    if isinstance(texts, pa.ChunkedArray):
        texts = texts.combine_chunks()
    s = texts
    for pat, repl in _SPLIT_PASSES:
        s = pc.replace_substring_regex(s, pattern=pat, replacement=repl)
    return _trim_lists(pc.split_pattern_regex(pc.utf8_lower(s), pattern=_SEP_PATTERN))


def tok_cte(toks: str | None = None) -> str:
    """The ``WITH tok AS (...)`` opening of an oracle query: one
    (doc_id, term) row per token of the SQL list expression ``toks`` over
    ``documents`` (default: CodeAnalyzer's tokens of ``text``)."""
    if toks is None:
        toks = tokenize_sql_expr("text")
    return f"WITH tok AS (\n  SELECT doc_id, unnest({toks}) AS term FROM documents\n)"


# UAX#29-lite token pattern: ALPHANUM runs with medial apostrophe between
# letters and medial [.,] between digits (StandardTokenizerImpl.jflex:23-92
# ALPHANUM/NUM rules, ASCII subset).
_STD_TOKEN_RE = re.compile(
    r"[A-Za-z0-9]+(?:'[A-Za-z]+|[.,][0-9]+)*"
)


class StandardLiteAnalyzer(_ListAnalyzer):
    """UAX#29-lite analyzer (keeps ``don't``/``3.14``/``SD500`` whole),
    lowercased. Python-regex based; used for conformance tests only."""

    name = "standard"

    def _tokens(self, text: str) -> list[str]:
        return _split_overlong(
            [t.lower() for t in _STD_TOKEN_RE.findall(text)]
        )


# Unicode word-break passes (UAX#29-lite beyond ASCII,
# analysis/standard/StandardTokenizerImpl.jflex:23-92): Han ideographs and
# Hiragana emit as SINGLE-character tokens (the IDEOGRAPHIC / HIRAGANA token
# types); Katakana and Hangul stay runs (KATAKANA / HANGUL types); every
# other \p{L}\p{N} codepoint joins ALPHANUM runs. RE2 script classes —
# identical in pyarrow.compute and DuckDB regexp_* (both RE2).
_UNI_ISOLATE_PATTERN = r"([\p{Han}\p{Hiragana}])"
_UNI_SEP_PATTERN = r"[^\p{L}\p{N}\x01-\x03]+"
# UAX#29 MidNumLet medial joiners (WB6/WB7, WB11/WB12 via MidNumLet):
# a SINGLE . ' ’ between two alphanumerics never breaks ("don't", "3.14",
# "example.com"). RE2 has no lookaround, so joiners are PROTECTED by
# rewriting alnum J alnum -> alnum <placeholder> alnum; a replace pass
# consumes its right-context char, so alternating joiners in a chain
# (a.b.c) survive pass 1 — pass 2 (whose left-context class includes the
# placeholders) catches every remaining joiner, since after pass 1 no two
# unprotected joiners are context-adjacent.
_UNI_MEDIAL = (("\\.", "\x01"), ("'", "\x02"), ("’", "\x03"))
_UNI_MEDIAL_CTX = r"[\p{L}\p{N}\x01-\x03]"


def _uni_split(s: pa.Array, sep: str) -> pa.ListArray:
    """Split lowercased text on ``sep`` with the UAX#29 medial joiners
    protected (two passes: see the _UNI_MEDIAL comment) and restored."""
    for _ in range(2):
        for joiner, ph in _UNI_MEDIAL:
            s = pc.replace_substring_regex(
                s,
                pattern=f"({_UNI_MEDIAL_CTX}){joiner}([\\p{{L}}\\p{{N}}])",
                replacement=f"\\1{ph}\\2",
            )
    toks = pc.split_pattern_regex(s, pattern=sep)
    vals = toks.values
    for joiner, ph in _UNI_MEDIAL:
        vals = pc.replace_substring(
            vals, pattern=ph, replacement=joiner.lstrip("\\")
        )
    return pa.ListArray.from_arrays(toks.offsets, vals)


def _uni_split_sql(expr: str, sep: str) -> tuple[str, str]:
    """DuckDB twin of :func:`_uni_split`: (the split list expression, the
    per-token expression over ``t`` that restores the joiners)."""
    for _ in range(2):
        for i, (joiner, _ph) in enumerate(_UNI_MEDIAL, start=1):
            pat = f"({_UNI_MEDIAL_CTX}){joiner}([\\p{{L}}\\p{{N}}])"
            pat_sql = pat.replace("'", "''")
            expr = (
                f"regexp_replace({expr}, '{pat_sql}', "
                f"'\\1' || chr({i}) || '\\2', 'g')"
            )
    restore = "t"
    for i, (joiner, _ph) in enumerate(_UNI_MEDIAL, start=1):
        lit = joiner.lstrip("\\").replace("'", "''")
        restore = f"replace({restore}, chr({i}), '{lit}')"
    return f"string_split_regex({expr}, '{sep}')", restore


class UnicodeAnalyzer(_ListAnalyzer):
    """Unicode StandardAnalyzer (UAX#29-lite): full \\p{L}\\p{N} ALPHANUM
    runs + single-char ideographic/Hiragana tokens + UAX#29 MidNumLet
    medial punctuation (don't / 3.14 / example.com stay whole),
    Unicode-lowercased.

    Divergences, documented: MidNum ','/';' (3,000) and MidLetter '·' are
    not joiners here (MidNumLet only); emoji/symbols are separators (the
    reference's 9.x emoji rule is out of scope); no offsets option (the
    isolation pass shifts byte positions). Pure RE2 pipeline — no byte-LUT
    fast path; non-ASCII corpora are not the bench hot path."""

    name = "unicode"
    supports_indexing = True
    # UAX#29 Extend chars a subclass keeps INSIDE tokens (the Indic
    # analyzers add \p{M} + ZWJ/ZWNJ so matras don't split words —
    # StandardTokenizerImpl treats them as Extend/Format). Empty here:
    # the "unicode" gate's SQL mirror is pinned to the base pattern.
    word_extend: str = ""

    def _sep_pattern(self) -> str:
        if self.word_extend:
            return rf"[^\p{{L}}\p{{N}}\x01-\x03{self.word_extend}]+"
        return _UNI_SEP_PATTERN

    def _token_lists(self, texts: pa.Array) -> pa.ListArray:
        s = pc.replace_substring_regex(
            texts, pattern=_UNI_ISOLATE_PATTERN, replacement=r" \1 "
        )
        return _trim_lists(_uni_split(pc.utf8_lower(s), self._sep_pattern()))

    @staticmethod
    def sql_expr(col: str) -> str:
        """DuckDB expression producing exactly ``tokenize_array``'s tokens
        (RE2 on both sides; lower() is utf8-aware in both engines)."""
        expr = (
            f"regexp_replace({col}, '{_UNI_ISOLATE_PATTERN}', ' \\1 ', 'g')"
        )
        expr = f"lower({expr})"
        expr, restore = _uni_split_sql(expr, _UNI_SEP_PATTERN)
        # maxTokenLength SPLIT, codepoint-counted on both sides ('.' = one
        # codepoint in RE2, len() = codepoints in the python fixup)
        return (
            f"flatten(list_transform({expr}, "
            f"t -> regexp_extract_all({restore}, '.{{1,{MAX_TOKEN_LEN}}}')))"
        )


# EnglishAnalyzer's default stop set (analysis/common/.../en/EnglishAnalyzer.java
# :48-58 — the classic 33-word list)
ENGLISH_STOP_SET = frozenset(
    "a an and are as at be but by for if in into is it no not of on or such "
    "that the their then there these they this to was will with".split()
)


class EnglishAnalyzer(CodeAnalyzer):
    """EnglishAnalyzer chain (analysis/common/.../en/EnglishAnalyzer.java:37):
    tokenizer + lowercase (inherited CodeAnalyzer kernel) -> stop-word
    removal (default English stop set) -> Porter stemming
    (PorterStemFilter). Positions keep the POST-FILTER ordinal (divergence:
    Lucene leaves position gaps at stopwords via posIncAttribute; we
    compact them — phrase slop across a removed stopword differs, noted).
    Stemming is dictionary-encoded: unique-term work only.
    No SQL oracle: DuckDB's stem() lives in the fts extension (offline
    unavailable) — gated by paper-example + property pytest instead."""

    name = "english"
    stop_set = ENGLISH_STOP_SET

    @staticmethod
    def _stem_terms(terms):
        from lucene_ray.analysis.porter import stem_terms

        return stem_terms(terms)

    def tokenize_flat(self, texts, with_offsets: bool = False):
        stream = _drop(super().tokenize_flat(texts, with_offsets), stop=self.stop_set)
        return self._stem_stream(stream)

    def _stem_stream(self, stream: tuple) -> tuple:
        # offsets stay those of the ORIGINAL (pre-stem) token — the
        # reference's stemmers never touch OffsetAttribute
        return (stream[0], self._stem_terms(stream[1])) + stream[2:]


class EnglishSnowballAnalyzer(EnglishAnalyzer):
    """The SnowballPorterFilter(English) chain: tokenizer + lowercase ->
    snowball English stop list (analysis/common/.../snowball/
    english_stop.txt, 174 words — bundled verbatim in
    analysis/stoplists.py) -> Porter2 stemming
    (analysis/common/.../snowball/SnowballPorterFilterFactory.java with
    the tartarus EnglishStemmer; analysis/porter2.py implements the
    published snowballstem.org algorithm). Same position-compaction
    divergence as EnglishAnalyzer; golden tests only (no offline DuckDB
    stem())."""

    name = "english_snowball"

    @property
    def stop_set(self):
        from lucene_ray.analysis.stoplists import ENGLISH_SNOWBALL_STOP

        return ENGLISH_SNOWBALL_STOP

    @staticmethod
    def _stem_terms(terms):
        from lucene_ray.analysis.porter2 import porter2_stem_terms

        return porter2_stem_terms(terms)


class EnglishKStemAnalyzer(EnglishAnalyzer):
    """The KStemFilter chain (analysis/common/.../en/KStemFilter.java:
    tokenizer + lowercase -> classic English stop set -> KStem, Bob
    Krovetz' dictionary-validated stemmer — analysis/kstem.py, word lists
    in kstem_data.py). Pinned token-for-token by the reference's own
    12,130-pair kstem_examples.txt golden set (tests/test_kstem.py);
    same position-compaction divergence as EnglishAnalyzer; no offline
    DuckDB stem(), golden tests only."""

    name = "english_kstem"

    @staticmethod
    def _stem_terms(terms):
        from lucene_ray.analysis.kstem import kstem_stem_terms

        return kstem_stem_terms(terms)


class PhoneticAnalyzer(CodeAnalyzer):
    """CodeAnalyzer chain + PhoneticFilter inject mode
    (analysis/phonetic/.../PhoneticFilter.java:57-99 — analysis/phonetic.py
    soundex/metaphone): every token whose encoding differs gains the
    PHONETIC form FIRST at its position and keeps the original as a
    posInc==0 twin (the reference emits the phonetic, then restores the
    saved original at increment 0). ``has_overlaps`` discounts the twins
    from norms, as with synonyms."""

    name = "phonetic_metaphone"
    encoder = "metaphone"
    has_overlaps = True

    def tokenize_flat(self, texts, with_offsets: bool = False):
        from lucene_ray.analysis.phonetic import encode_terms

        stream = super().tokenize_flat(texts, with_offsets)
        codes = encode_terms(stream[1], self.encoder)
        hit = np.nonzero(pc.utf8_length(codes).to_numpy(zero_copy_only=False))[0]
        return _add_twins(stream, hit, codes.take(pa.array(hit)), twins_first=True)


class SoundexAnalyzer(PhoneticAnalyzer):
    name = "phonetic_soundex"
    encoder = "soundex"


class Caverphone2Analyzer(PhoneticAnalyzer):
    name = "phonetic_caverphone2"
    encoder = "caverphone2"


class NysiisAnalyzer(PhoneticAnalyzer):
    name = "phonetic_nysiis"
    encoder = "nysiis"


class MultiPhoneticAnalyzer(CodeAnalyzer):
    """CodeAnalyzer chain + a MULTI-code phonetic filter in inject mode.
    Unlike PhoneticFilter (phonetic first), DoubleMetaphoneFilter
    (DoubleMetaphoneFilter.java:50-100) and DaitchMokotoffSoundexFilter
    (DaitchMokotoffSoundexFilter.java:63-90) emit the ORIGINAL token
    first, then every code as a posInc==0 twin in encoder order (primary
    then alternate; D-M branch order). Tokens with no codes pass through
    unchanged (the filters' 12345-style behavior). ``has_overlaps``
    discounts the twins from norms."""

    name = "phonetic_dmetaphone"
    multi_encoder = "double_metaphone"
    has_overlaps = True

    def tokenize_flat(self, texts, with_offsets: bool = False):
        from lucene_ray.analysis.phonetic import encode_multi_vocab

        stream = super().tokenize_flat(texts, with_offsets)
        return _add_twins(stream, *_per_vocab(
            stream[1], lambda vocab: encode_multi_vocab(vocab, self.multi_encoder)
        ))


class DaitchMokotoffAnalyzer(MultiPhoneticAnalyzer):
    name = "phonetic_dmsoundex"
    multi_encoder = "dm_soundex"


class WhitespaceAnalyzer(_ListAnalyzer):
    """analysis/core/WhitespaceAnalyzer.java: split on whitespace runs,
    NO lowercasing, no filters. ASCII whitespace class [\\t\\n\\f\\r ] on BOTH
    sides so the RE2/DuckDB '\\s' mirror stays byte-identical (CLAUDE.md
    RE2-expressibility rule; Python's \\s would also split on \\x0b/\\xa0
    etc. that RE2 does not). Query/analysis surface only — not a valid
    INDEXING analyzer (tokens may contain ':')."""

    name = "whitespace"
    _WS = re.compile(r"[\t\n\f\r ]+")

    def _tokens(self, text: str) -> list[str]:
        return _split_overlong(self._WS.split(text))

    @staticmethod
    def sql_expr(col: str) -> str:
        """DuckDB expression producing the same token list (empty-string
        artifacts of leading/trailing whitespace vanish through the
        maxTokenLength chunking flatten — extract_all('') = [])."""
        return (
            f"flatten(list_transform(regexp_split_to_array({col}, '\\s+'), "
            f"x -> regexp_extract_all(x, '.{{1,{MAX_TOKEN_LEN}}}')))"
        )


class KeywordAnalyzer(_ListAnalyzer):
    """analysis/core/KeywordAnalyzer.java: the whole input is ONE token,
    untouched. Query/analysis surface only — not a valid INDEXING analyzer
    (tokens may contain ':')."""

    name = "keyword"

    def _tokens(self, text: str) -> list[str]:
        return [text] if text else []


# Demo synonym rules over the benchmark-vocabulary corpus (the single-token
# equivalent-synonym subset of analysis/common/.../synonym/SynonymGraphFilter
# .java:57 add-mode: the original token is KEPT and the synonym is injected
# at the SAME position, posInc=0 — so phrase queries match through either
# variant). Multi-token rules (graph paths) are out of scope, documented.
SYNONYM_MAP = {
    "big": "large",
    "fast": "quick",
    "scan": "sweep",
}


class SynonymAnalyzer(CodeAnalyzer):
    """CodeAnalyzer chain + index-time synonym injection (SynonymGraphFilter
    add-mode, single-token rules). Injected tokens copy the original's
    position and offsets (the filter never touches OffsetAttribute).
    ``has_overlaps`` makes the builder discount posInc==0 tokens from the
    length norm (BM25Similarity.java:99-101 discountOverlaps=true default)
    while sum_ttf keeps counting every token (sumTotalTermFreq semantics)."""

    name = "synonym"
    has_overlaps = True

    def tokenize_flat(self, texts, with_offsets: bool = False):
        stream = super().tokenize_flat(texts, with_offsets)
        return _add_twins(stream, *_per_vocab(
            stream[1],
            lambda vocab: [[SYNONYM_MAP[t]] if t in SYNONYM_MAP else [] for t in vocab],
        ))


# 1:1 accent-folding table (the Latin-1/Latin-Extended-A subset of
# analysis/common/.../miscellaneous/ASCIIFoldingFilter.java:57 whose fold is
# a SINGLE character AND that DuckDB strip_accents also folds (stroked
# letters like ø/đ/ł are kept, as strip_accents keeps them — the SQL-oracle
# parity constraint); the mapping is length-preserving so offsets stay exact; applied as a CHAR
# filter before tokenization, MappingCharFilter-style, because the byte
# tokenizer's alphabet is ASCII).
_FOLD_PAIRS = (
    ("àáâãäåāăą", "a"), ("çćĉċč", "c"), ("ď", "d"), ("èéêëēĕėęě", "e"),
    ("ĝğġģ", "g"), ("ĥ", "h"), ("ìíîïĩīĭį", "i"), ("ĵ", "j"), ("ķ", "k"),
    ("ĺļľ", "l"), ("ñńņň", "n"), ("òóôõöōŏő", "o"), ("ŕŗř", "r"),
    ("śŝşš", "s"), ("ţť", "t"), ("ùúûüũūŭůűų", "u"), ("ŵ", "w"),
    ("ýÿŷ", "y"), ("źżž", "z"),
)
_FOLD_TABLE = str.maketrans(
    {c: r for chars, r in _FOLD_PAIRS for c in chars}
    | {c.upper(): r.upper() for chars, r in _FOLD_PAIRS for c in chars}
)


def fold_ascii(text: str) -> str:
    return text.translate(_FOLD_TABLE)


class FoldingAnalyzer(CodeAnalyzer):
    """Accent folding as a char filter, then the CodeAnalyzer chain. DuckDB
    twin: tokenize_sql_expr over strip_accents(text) (parity pinned in
    tests/test_analyzer.py for the 1:1 table)."""

    name = "folding"

    def tokenize_flat(self, texts, with_offsets: bool = False):
        if isinstance(texts, pa.ChunkedArray):
            texts = texts.combine_chunks()
        folded = pa.array(
            [fold_ascii(t) if t is not None else None for t in texts.to_pylist()],
            type=pa.string(),
        )
        return super().tokenize_flat(folded, with_offsets=with_offsets)


# HTMLStripCharFilter-lite (analysis/common/.../charfilter/
# HTMLStripCharFilter.java:30 — the jflex grammar handles scripts/comments/
# CDATA; this subset strips tags and character entities). Stripped spans are
# BLANKED with spaces instead of removed, so the filter is length-preserving
# and token offsets point into the RAW html — the effect of the reference's
# offset-correction machinery (CharFilter.correctOffset) without the
# bookkeeping. Both patterns are RE2-expressible (the DuckDB-oracle parity
# constraint; see HTML_STRIP_SQL_PASSES).
_HTML_TAG_RE = re.compile(r"<[^>]*>")
_HTML_ENT_RE = re.compile(r"&[a-zA-Z]+;|&#[0-9]+;")

# (pattern, replacement) passes for the SQL twin: tokens are unaffected by
# blanking with ONE space instead of length-many (offsets are engine-only)
HTML_STRIP_SQL_PASSES = (("<[^>]*>", " "), ("&[a-zA-Z]+;|&#[0-9]+;", " "))


def strip_html(text: str) -> str:
    text = _HTML_TAG_RE.sub(lambda m: " " * len(m.group()), text)
    return _HTML_ENT_RE.sub(lambda m: " " * len(m.group()), text)


class HTMLStripAnalyzer(CodeAnalyzer):
    """HTML-strip char filter, then the CodeAnalyzer chain. Decoded
    punctuation entities (&amp; &lt; ...) would be token separators anyway,
    so blanking them is token-identical to decoding; documented
    divergence: entities that decode to ALPHANUMERIC text (&#65; -> 'A')
    are dropped rather than decoded."""

    name = "html"

    def tokenize_flat(self, texts, with_offsets: bool = False):
        if isinstance(texts, pa.ChunkedArray):
            texts = texts.combine_chunks()
        stripped = pa.array(
            [strip_html(t) if t is not None else None for t in texts.to_pylist()],
            type=pa.string(),
        )
        return super().tokenize_flat(stripped, with_offsets=with_offsets)


def _term_buffer(terms: pa.Array) -> tuple[np.ndarray, np.ndarray]:
    """(uint8 data, int64 offsets rebased to 0) of a utf8 array —
    zero-copy access for the byte kernel and the gram expanders."""
    if isinstance(terms, pa.ChunkedArray):
        terms = terms.combine_chunks()
    if len(terms) == 0:
        return np.zeros(0, dtype=np.uint8), np.zeros(1, dtype=np.int64)
    bufs = terms.buffers()
    odt = np.int64 if terms.type == pa.large_string() else np.int32
    offs = np.frombuffer(
        bufs[1], dtype=odt, count=len(terms) + 1,
        offset=terms.offset * np.dtype(odt).itemsize,
    ).astype(np.int64)
    base = int(offs[0])  # sliced arrays start mid-buffer
    data = np.frombuffer(bufs[2] or b"", dtype=np.uint8, count=int(offs[-1]) - base, offset=base)
    return data, offs - base


def _expand_char_grams(
    terms: pa.Array, gmin: int, gmax: int, edge: bool = False
) -> tuple[np.ndarray, pa.Array, np.ndarray]:
    """(src_idx, grams, within_offset): every [gmin..gmax]-char gram of
    every term (prefixes only when ``edge``), fully vectorized over the
    flat utf8 buffer — no per-token Python loop. ``within_offset`` is the
    gram's byte offset inside its source token (for exact raw-text
    offsets). Output is grouped by gram length; callers re-sort by src."""
    data, offs = _term_buffer(terms)
    lengths = np.diff(offs)
    srcs, vals, within_all, glens = [], [], [], []
    for g in range(gmin, gmax + 1):
        cnt = (
            (lengths >= g).astype(np.int64)
            if edge
            else np.maximum(lengths - g + 1, 0)
        )
        total = int(cnt.sum())
        if total == 0:
            continue
        src = np.repeat(np.arange(len(lengths), dtype=np.int64), cnt)
        cum = np.concatenate(([0], np.cumsum(cnt)))
        within = np.arange(total, dtype=np.int64) - cum[src]
        starts = offs[:-1][src] + within
        gather = (starts[:, None] + np.arange(g)[None, :]).ravel()
        srcs.append(src)
        vals.append(data[gather])
        within_all.append(within)
        glens.append(np.full(total, g, dtype=np.int64))
    if not srcs:
        return (
            np.array([], dtype=np.int64),
            pa.array([], type=pa.string()),
            np.array([], dtype=np.int64),
        )
    src = np.concatenate(srcs)
    within = np.concatenate(within_all)
    gl = np.concatenate(glens)
    # one stable order: by source token, then gram length, then position
    o = np.lexsort((within, gl, src))
    # assemble the utf8 array piecewise (per-g fixed-width), then reorder
    parts = []
    for v, g in zip(vals, (int(x[0]) for x in glens)):
        n = len(v) // g
        off = (np.arange(n + 1, dtype=np.int32) * g)
        parts.append(
            pa.Array.from_buffers(
                pa.utf8(), n,
                [None, pa.py_buffer(off.tobytes()), pa.py_buffer(v.tobytes())],
            )
        )
    grams = pa.concat_arrays(parts).take(pa.array(o))
    return src[o], grams, within[o]


class _GramAnalyzer(CodeAnalyzer):
    """Shared shape of the character-gram token filters: every gram keeps
    its source token's POSITION (posInc 0 after the first —
    analysis/common/.../ngram/NGramTokenFilter.java:36), so the builder
    discounts them from norms like any overlap."""

    has_overlaps = True
    gmin = 1
    gmax = 2
    edge = False

    def tokenize_flat(self, texts, with_offsets: bool = False):
        stream = super().tokenize_flat(texts, with_offsets)
        src, grams, within = _expand_char_grams(
            stream[1], self.gmin, self.gmax, edge=self.edge
        )
        spans = None
        if with_offsets:
            glen = np.diff(_term_buffer(grams)[1]).astype(np.int32)
            spans = (stream[3][src] + within.astype(np.int32), glen)
        return _gather(stream, src, grams, spans)


class NGramAnalyzer(_GramAnalyzer):
    """All [1..2]-char grams of every token — NGramTokenFilter defaults
    (analysis/common/.../ngram/NGramTokenFilter.java:36
    DEFAULT_MIN/MAX_NGRAM_SIZE = 1/2)."""

    name = "ngram"
    gmin, gmax, edge = 1, 2, False


class EdgeNGramAnalyzer(_GramAnalyzer):
    """[1..3]-char PREFIX grams per token — EdgeNGramTokenFilter
    (analysis/common/.../ngram/EdgeNGramTokenFilter.java:33), the
    search-as-you-type building block."""

    name = "edgengram"
    gmin, gmax, edge = 1, 3, True


def _pair_twins(stream: tuple, idx: np.ndarray, sep: str) -> tuple:
    """Twin ``term[i] + sep + term[i+1]`` for every i in ``idx``, at token
    i's position and spanning both tokens' offsets (ShingleFilter /
    CommonGramsFilter)."""
    terms = stream[1]
    grams = pc.binary_join_element_wise(
        terms.take(pa.array(idx)), terms.take(pa.array(idx + 1)), sep
    )
    spans = None
    if len(stream) > 3:
        st, ln = stream[3], stream[4]
        spans = (st[idx], (st[idx + 1] + ln[idx + 1]) - st[idx])
    return _add_twins(stream, idx, grams, spans=spans)


class ShingleAnalyzer(CodeAnalyzer):
    """Word 2-shingles + unigrams (ShingleFilter.java:71 defaults:
    min/max shingle size 2, separator ' ', outputUnigrams=true). The
    shingle is emitted right after its FIRST token, at that position
    (posInc 0 — an overlap for norms purposes): ``a b c`` -> a, a b, b,
    b c, c. Shingle terms contain ' ', which never collides with analyzed
    tokens or 'field:value' keyword terms."""

    name = "shingle"
    has_overlaps = True

    def tokenize_flat(self, texts, with_offsets: bool = False):
        stream = super().tokenize_flat(texts, with_offsets)
        row_idx = stream[0]
        return _pair_twins(stream, np.nonzero(row_idx[1:] == row_idx[:-1])[0], " ")


class CommonGramsAnalyzer(CodeAnalyzer):
    """Index-side CommonGramsFilter (commongrams/CommonGramsFilter.java:
    unigrams at their positions PLUS a '_'-joined bigram at the FIRST
    word's position — posInc 0, an overlap for norms — for every adjacent
    pair where either word is a common word; pinned by the reference's
    TestCommonGramsFilter vectors). Common set = the bundled snowball
    English stop list (the factory's usual word file;
    test common-snowball.txt is the same list)."""

    name = "commongrams"
    has_overlaps = True

    def __init__(self):
        from lucene_ray.analysis.stoplists import ENGLISH_SNOWBALL_STOP

        self.common_words = ENGLISH_SNOWBALL_STOP

    def tokenize_flat(self, texts, with_offsets: bool = False):
        stream = super().tokenize_flat(texts, with_offsets)
        row_idx = stream[0]
        common = pc.is_in(
            stream[1], value_set=_value_set(self.common_words)
        ).to_numpy(zero_copy_only=False)
        pair = (row_idx[1:] == row_idx[:-1]) & (common[:-1] | common[1:])
        return _pair_twins(stream, np.nonzero(pair)[0], "_")

    @staticmethod
    def sql_expr(col: str) -> str:
        raise NotImplementedError(
            "commongrams positions interleave grams; the stats gate "
            "mirrors the stream in relational form instead"
        )


class CommonGramsQueryAnalyzer(CommonGramsAnalyzer):
    """Query-side CommonGramsQueryFilter (commongrams/
    CommonGramsQueryFilter.java, pinned by testCommonGramsQueryFilter):
    a unigram followed by a gram is replaced by the gram; the FINAL
    unigram is dropped when a gram ends on it; grams stand at consecutive
    positions (posInc reset to 1), so phrases of grams align with the
    index-side posInc-0 gram positions. Query-side only (tiny inputs) —
    not an indexing analyzer."""

    name = "commongrams_query"
    supports_indexing = False

    def tokenize_flat(self, texts, with_offsets: bool = False):
        stream = super().tokenize_flat(texts, with_offsets)
        row_idx, pos = stream[0], stream[2]
        # the index stream puts each gram right behind the unigram it
        # starts at, and a row always ends on a unigram
        gram = np.zeros(len(row_idx), dtype=bool)
        gram[1:] = (row_idx[1:] == row_idx[:-1]) & (pos[1:] == pos[:-1])
        starts_gram = np.append(gram[1:], False)
        after_gram = np.insert(gram[:-1], 0, False)
        last = np.append(row_idx[1:] != row_idx[:-1], True)
        return _drop(stream, gram | ~(starts_gram | (last & after_gram)))


class Gram3Analyzer(CodeAnalyzer):
    """Fixed 3-gram stream at CONSECUTIVE positions — the NGramTokenizer
    shape NGramPhraseQuery optimizes over (analysis/common/.../ngram/
    NGramTokenizer.java emits positions incrementing per gram; contrast
    NGramAnalyzer above, whose [1..2] filter grams overlap positions).
    Each token yields max(len-2, 1) grams: substr(t, i, 3) in offset
    order; tokens shorter than 3 pass through whole."""

    name = "gram3"

    def tokenize_flat(self, texts, with_offsets: bool = False):
        if with_offsets:
            raise ValueError("gram3 analyzer does not support offsets")
        row_idx, terms, _pos = super().tokenize_flat(texts)
        src, grams, _within = _expand_char_grams(terms, 3, 3)
        short = np.nonzero(np.diff(_term_buffer(terms)[1]) < 3)[0]
        by_src = np.concatenate([short, src])
        o = np.argsort(by_src, kind="stable")
        row_idx = row_idx[by_src[o]]
        terms = pa.concat_arrays([terms.take(pa.array(short)), grams]).take(pa.array(o))
        return row_idx, terms, _row_ordinals(row_idx)


# --- emoji-lite (UnicodeEmojiAnalyzer) pattern data -------------------------
# Extended_Pictographic-lite: the major emoji blocks (documented subset of
# UTS#51 Extended_Pictographic; StandardTokenizerImpl.jflex:23-92 is the
# full-property reference grammar)
_EMO_EP = (
    r"\x{2600}-\x{27BF}\x{2B00}-\x{2BFF}\x{1F000}-\x{1F0FF}"
    r"\x{1F300}-\x{1F5FF}\x{1F600}-\x{1F64F}\x{1F680}-\x{1F6FF}"
    r"\x{1F900}-\x{1F9FF}\x{1FA70}-\x{1FAFF}"
)
_EMO_RI = r"\x{1F1E6}-\x{1F1FF}"  # regional indicators (flag pairs)
_EMO_MOD = r"\x{1F3FB}-\x{1F3FF}"  # skin-tone modifiers
# Extend/Format-class combiners: ZWJ, variation selectors, keycap, tags
_EMO_EXT = r"\x{200D}\x{FE0E}\x{FE0F}\x{20E3}\x{E0020}-\x{E007F}"
_EMO_UNIT = f"[{_EMO_EP}](?:[\\x{{FE0F}}{_EMO_MOD}])*"
_EMO_SEQ = (
    f"([{_EMO_RI}][{_EMO_RI}]"
    f"|{_EMO_UNIT}(?:\\x{{200D}}{_EMO_UNIT})*"
    f"(?:[\\x{{E0020}}-\\x{{E007E}}]+\\x{{E007F}})?)"
)
# keycap sequences: '#'/'*' become \x04/\x05 placeholders (they are
# separators everywhere else), digits stay
_EMO_KEYCAPS = (
    (r"#(\x{FE0F}?\x{20E3})", " \x04\\1 ", "\x04", "#"),
    (r"\*(\x{FE0F}?\x{20E3})", " \x05\\1 ", "\x05", "*"),
    (r"([0-9])(\x{FE0F}?\x{20E3})", " \\1\\2 ", None, None),
)
_EMO_SEP = (
    r"[^\p{L}\p{N}\x01-\x05" + _EMO_EP + _EMO_RI + _EMO_MOD + _EMO_EXT + "]+"
)
# a token of nothing but combiners/modifiers is breakage residue, dropped
_EMO_JUNK = f"^[{_EMO_MOD}{_EMO_EXT}]+$"


class UnicodeEmojiAnalyzer(UnicodeAnalyzer):
    """UnicodeAnalyzer + UAX#29 9.x emoji word-break (lite): emoji
    sequences become single tokens — Extended_Pictographic(-lite) runs
    with VS16/skin-tone modifiers and ZWJ joins, regional-indicator
    (flag) pairs, tag sequences, and '#'/'*'/digit keycaps. Extend-class
    chars glue to alphanumeric tokens as in UAX#29 ("3\\uFE0E" stays one
    token); a stranded combiner run is dropped. Pinned by
    TestStandardAnalyzer's emoji vectors (tests/test_emoji.py).
    Divergence, documented: the Extended_Pictographic set here is the
    major emoji BLOCKS, not the full property (legacy pictographs in
    2190-25FF and the full 1F1xx enclosed range are separators)."""

    name = "unicode_emoji"

    def _token_lists(self, texts: pa.Array) -> pa.ListArray:
        s = texts
        for pat, rep, _ph, _lit in _EMO_KEYCAPS:
            s = pc.replace_substring_regex(s, pattern=pat, replacement=rep)
        s = pc.replace_substring_regex(s, pattern=_EMO_SEQ, replacement=r" \1 ")
        s = pc.replace_substring_regex(
            s, pattern=_UNI_ISOLATE_PATTERN, replacement=r" \1 "
        )
        toks = _uni_split(pc.utf8_lower(s), _EMO_SEP)
        vals = toks.values
        for _pat, _rep, ph, lit in _EMO_KEYCAPS:
            if ph is not None:
                vals = pc.replace_substring(vals, pattern=ph, replacement=lit)
        junk = pc.match_substring_regex(vals, _EMO_JUNK).to_numpy(
            zero_copy_only=False
        )
        return _trim_lists(pa.ListArray.from_arrays(toks.offsets, vals), ~junk)

    @staticmethod
    def sql_expr(col: str) -> str:
        expr = col
        for pat, rep, _ph, _lit in _EMO_KEYCAPS:
            pat_sql = pat.replace("'", "''")
            rep_sql = rep.replace("\x04", "' || chr(4) || '").replace(
                "\x05", "' || chr(5) || '"
            )
            expr = f"regexp_replace({expr}, '{pat_sql}', '{rep_sql}', 'g')"
        expr = f"regexp_replace({expr}, '{_EMO_SEQ}', ' \\1 ', 'g')"
        expr = (
            f"regexp_replace({expr}, '{_UNI_ISOLATE_PATTERN}', ' \\1 ', 'g')"
        )
        expr = f"lower({expr})"
        expr, restore = _uni_split_sql(expr, _EMO_SEP)
        restore = f"replace({restore}, chr(4), '#')"
        restore = f"replace({restore}, chr(5), '*')"
        junk_sql = _EMO_JUNK.replace("'", "''")
        return (
            f"flatten(list_transform(list_filter({expr}, "
            f"t -> NOT regexp_matches(t, '{junk_sql}')), "
            f"t -> regexp_extract_all({restore}, '.{{1,{MAX_TOKEN_LEN}}}')))"
        )


class ICUNormalizeAnalyzer(UnicodeAnalyzer):
    """Unicode tokenizer + ICUNormalizer2Filter(nfkc_cf) — the icu
    module's default chain (analysis/icu/.../ICUNormalizer2Filter.java;
    analysis/icu.py nfkc_cf implemented from the Unicode definition,
    pinned by the reference's own TestICUNormalizer2Filter vectors).
    Tokens normalized to empty (pure default-ignorable runs) are dropped;
    positions compact (the EnglishAnalyzer divergence). No SQL mirror
    (DuckDB has NFC only) — golden tests."""

    name = "icu_normalize"

    def tokenize_flat(self, texts, with_offsets: bool = False):
        from lucene_ray.analysis.icu import nfkc_cf_terms

        stream = super().tokenize_flat(texts, with_offsets)
        terms = nfkc_cf_terms(stream[1])
        keep = pc.utf8_length(terms).to_numpy(zero_copy_only=False) > 0
        return _drop((stream[0], terms) + stream[2:], keep)

    @staticmethod
    def sql_expr(col: str) -> str:
        raise NotImplementedError(
            "icu_normalize has no DuckDB mirror (no NFKC_CF offline)"
        )


class _LightStemAnalyzer(UnicodeAnalyzer):
    """Language analyzer = Unicode tokenizer + snowball stop list + Savoy
    light stemmer (analysis/lightstem.py; spec files
    de/GermanLightStemmer.java, fr/FrenchLightStemmer.java,
    es/SpanishLightStemmer.java; the de/fr/es chains in the reference run
    tokenizer -> lowercase -> STOP -> stem, GermanAnalyzer.java
    createComponents). Stop sets are the reference's bundled snowball
    lists (analysis/stoplists.py). Positions compact across removed
    stopwords (same documented divergence as EnglishAnalyzer). No SQL
    oracle (DuckDB has no stemmer offline) — golden tests only."""

    language: str = ""
    stop_set: frozenset = frozenset()
    # ElisionFilter articles (analysis/util/ElisionFilter.java; French's
    # DEFAULT_ARTICLES, fr/FrenchAnalyzer.java:56): "l'avion" -> "avion"
    # BEFORE stop/stem, now that the UAX#29 tokenizer keeps medial
    # apostrophes. Empty = no elision (German/Spanish chains have none).
    elision_articles: tuple = ()
    # a _STEMMERS key applied BEFORE the stop filter (Sorani's chain runs
    # SoraniNormalizationFilter ahead of StopFilter —
    # ckb/SoraniAnalyzer.java:113-120); None = no pre-stop pass
    pre_stop_language: str | None = None

    def tokenize_flat(self, texts, with_offsets: bool = False):
        from lucene_ray.analysis.lightstem import light_stem_terms

        stream = super().tokenize_flat(texts, with_offsets)
        terms = stream[1]
        if self.elision_articles:
            alt = "|".join(self.elision_articles)
            terms = pc.replace_substring_regex(
                terms, pattern=f"^(?:{alt})['’]", replacement=""
            )
        if self.pre_stop_language:
            terms = light_stem_terms(terms, self.pre_stop_language)
        # drop stopwords AND tokens emptied by elision in one pass
        keep = pc.utf8_length(terms).to_numpy(zero_copy_only=False) > 0
        stream = _drop((stream[0], terms) + stream[2:], keep, stop=self.stop_set)
        return (stream[0], light_stem_terms(stream[1], self.language)) + stream[2:]

    @staticmethod
    def sql_expr(col: str) -> str:
        raise NotImplementedError(
            "light-stem analyzers have no DuckDB mirror (no stem() offline)"
        )


def _snowball_stops(lang: str) -> frozenset:
    from lucene_ray.analysis import stoplists

    return getattr(stoplists, f"{lang.upper()}_SNOWBALL_STOP")


class GermanLightAnalyzer(_LightStemAnalyzer):
    # the reference chain (GermanAnalyzer.java:131-136) runs
    # GermanNormalizationFilter between stop and stem — the composed
    # "german_light_chain" stemmer key mirrors that; the raw
    # "german_light" key stays the zip-golden stemmer-only surface
    name = "german_light"
    language = "german_light_chain"
    stop_set = _snowball_stops("german")


class FrenchLightAnalyzer(_LightStemAnalyzer):
    name = "french_light"
    language = "french_light"
    stop_set = _snowball_stops("french")
    elision_articles = (
        "jusqu", "quoiqu", "lorsqu", "puisqu",  # longest-first for the regex
        "qu", "l", "m", "t", "n", "s", "j", "d", "c",
    )


class SpanishLightAnalyzer(_LightStemAnalyzer):
    name = "spanish_light"
    language = "spanish_light"
    stop_set = _snowball_stops("spanish")


class ItalianLightAnalyzer(_LightStemAnalyzer):
    """it/ItalianAnalyzer.java:48,125 chain: elision(DEFAULT_ARTICLES) ->
    lowercase -> snowball stop -> ItalianLightStemFilter."""

    name = "italian_light"
    language = "italian_light"
    stop_set = _snowball_stops("italian")
    elision_articles = (
        "dall", "dell", "nell", "sull", "coll", "pell",
        "dagl", "degl", "negl", "sugl", "agl", "all", "gl", "un",
        "c", "l", "m", "t", "s", "v", "d",
    )


class PortugueseLightAnalyzer(_LightStemAnalyzer):
    """pt/PortugueseAnalyzer.java chain (stop -> PortugueseLightStemFilter)."""

    name = "portuguese_light"
    language = "portuguese_light"
    stop_set = _snowball_stops("portuguese")


class RussianLightAnalyzer(_LightStemAnalyzer):
    """ru/RussianLightStemFilter over the RussianAnalyzer snowball stop
    set (the light alternative the reference ships beside Snowball)."""

    name = "russian_light"
    language = "russian_light"
    stop_set = _snowball_stops("russian")


class FinnishLightAnalyzer(_LightStemAnalyzer):
    name = "finnish_light"
    language = "finnish_light"
    stop_set = _snowball_stops("finnish")


class HungarianLightAnalyzer(_LightStemAnalyzer):
    name = "hungarian_light"
    language = "hungarian_light"
    stop_set = _snowball_stops("hungarian")


class SwedishLightAnalyzer(_LightStemAnalyzer):
    name = "swedish_light"
    language = "swedish_light"
    stop_set = _snowball_stops("swedish")


class GermanMinimalAnalyzer(_LightStemAnalyzer):
    """de/GermanMinimalStemFilter chain (plural reduction only)."""

    name = "german_minimal"
    language = "german_minimal"
    stop_set = _snowball_stops("german")


class FrenchMinimalAnalyzer(_LightStemAnalyzer):
    """fr/FrenchMinimalStemFilter chain (same elision as french_light)."""

    name = "french_minimal"
    language = "french_minimal"
    stop_set = _snowball_stops("french")
    elision_articles = FrenchLightAnalyzer.elision_articles


class SpanishPluralAnalyzer(_LightStemAnalyzer):
    """es/SpanishPluralStemFilter chain (number reduction only)."""

    name = "spanish_plural"
    language = "spanish_plural"
    stop_set = _snowball_stops("spanish")


class EnglishMinimalAnalyzer(_LightStemAnalyzer):
    """en/EnglishMinimalStemFilter chain: EnglishPossessiveFilter
    (pre-stop, en/EnglishAnalyzer.java:106 order) -> English stop ->
    Harman S-Stemmer."""

    name = "english_minimal"
    language = "english_minimal"
    stop_set = ENGLISH_STOP_SET
    pre_stop_language = "english_possessive"


class SwedishMinimalAnalyzer(_LightStemAnalyzer):
    """sv/SwedishMinimalStemFilter chain (noun plurals only)."""

    name = "swedish_minimal"
    language = "swedish_minimal"
    stop_set = _snowball_stops("swedish")


class ScandinavianNormalizationAnalyzer(_LightStemAnalyzer):
    """miscellaneous/ScandinavianNormalizationFilter chain: interchange
    normalization (ä->æ, digraphs to å/æ/ø) with no stop set
    (analysis/scandinavian.py — golden tests, no SQL oracle)."""

    name = "scandinavian_normalization"
    language = "scandinavian_normalization"


class ScandinavianFoldingAnalyzer(_LightStemAnalyzer):
    """miscellaneous/ScandinavianFoldingFilter chain: destructive fold to
    plain a/o incl. double-vowel discrimination."""

    name = "scandinavian_folding"
    language = "scandinavian_folding"


class NorwegianLightAnalyzer(_LightStemAnalyzer):
    """no/NorwegianAnalyzer chain with the light stemmer: no stopwords
    (snowball norwegian_stop.txt) -> NorwegianLightStemFilter(BOKMAAL)
    (no/NorwegianAnalyzer.java:106-117 uses Snowball; the light chain is
    NorwegianLightStemFilterFactory's)."""

    name = "norwegian_light"
    language = "norwegian_light"
    stop_set = _snowball_stops("norwegian")


class NorwegianMinimalAnalyzer(_LightStemAnalyzer):
    """no/NorwegianMinimalStemFilter chain (known noun plurals +
    genitive -s only)."""

    name = "norwegian_minimal"
    language = "norwegian_minimal"
    stop_set = _snowball_stops("norwegian")


class PortugueseRSLPAnalyzer(_LightStemAnalyzer):
    """pt/PortugueseStemFilter chain — the FULL RSLP flow
    (analysis/rslp.py portuguese_stem)."""

    name = "portuguese_rslp"
    language = "portuguese_rslp"
    stop_set = _snowball_stops("portuguese")


class PortugueseMinimalAnalyzer(_LightStemAnalyzer):
    """pt/PortugueseMinimalStemFilter chain (RSLP Plural step only)."""

    name = "portuguese_minimal"
    language = "portuguese_minimal"
    stop_set = _snowball_stops("portuguese")


class GalicianAnalyzer(_LightStemAnalyzer):
    """gl/GalicianAnalyzer chain: gl stopwords -> GalicianStemFilter
    (full Galician RSLP flow)."""

    name = "galician"
    language = "galician"

    @property
    def stop_set(self):  # type: ignore[override]
        from lucene_ray.analysis.stoplists import GALICIAN_STOP

        return GALICIAN_STOP


class GalicianMinimalAnalyzer(_LightStemAnalyzer):
    """gl/GalicianMinimalStemFilter chain (RSLP Plural step only)."""

    name = "galician_minimal"
    language = "galician_minimal"

    @property
    def stop_set(self):  # type: ignore[override]
        from lucene_ray.analysis.stoplists import GALICIAN_STOP

        return GALICIAN_STOP


class SoraniAnalyzer(_LightStemAnalyzer):
    """ckb/SoraniAnalyzer.java:113-120 chain: tokenize -> Sorani
    normalization (BEFORE the stop filter) -> ckb stopwords -> Sorani
    stemmer. Vocab pinned by the reference's ckbtestdata.zip."""

    name = "sorani"
    language = "sorani"
    pre_stop_language = "sorani_norm"

    @property
    def stop_set(self):  # type: ignore[override]
        from lucene_ray.analysis.stoplists import SORANI_STOP

        return SORANI_STOP


class HindiAnalyzer(_LightStemAnalyzer):
    """hi/HindiAnalyzer.java:121-130 chain: tokenize -> lowercase ->
    DecimalDigitFilter -> IndicNormalizationFilter ->
    HindiNormalizationFilter (all BEFORE the stop filter, like Sorani) ->
    hi stopwords -> HindiStemFilter. Vocab pinned by the reference's
    TestHindi*/TestIndicNormalizer vectors (tests/test_indic.py)."""

    name = "hindi"
    language = "hindi"
    pre_stop_language = "hindi_norm"
    word_extend = r"\p{M}\x{200C}\x{200D}"

    @property
    def stop_set(self):  # type: ignore[override]
        from lucene_ray.analysis.stoplists import HINDI_LUCENE_STOP

        return HINDI_LUCENE_STOP


class BengaliAnalyzer(_LightStemAnalyzer):
    """bn/BengaliAnalyzer.java:119-131 chain (same shape as Hindi)."""

    name = "bengali"
    language = "bengali"
    pre_stop_language = "bengali_norm"
    word_extend = r"\p{M}\x{200C}\x{200D}"

    @property
    def stop_set(self):  # type: ignore[override]
        from lucene_ray.analysis.stoplists import BENGALI_LUCENE_STOP

        return BENGALI_LUCENE_STOP


# cjk/CJKBigramFilter.java script set: Han/Hiragana/Katakana/Hangul all
# bigram together (default flags), plus U+30FC prolonged-sound mark which
# is category Lm / WB Katakana (script Common, so \p{Katakana} misses it)
_CJK_CLASS = r"\p{Han}\p{Hiragana}\p{Katakana}\p{Hangul}\x{30FC}"
_CJK_RUN_ISOLATE = rf"([{_CJK_CLASS}]+)"
_CJK_TOKEN_RE = rf"^[{_CJK_CLASS}]"


class CJKAnalyzer(UnicodeAnalyzer):
    """cjk/CJKAnalyzer.java:92-99 chain: StandardTokenizer ->
    CJKWidthFilter (BEFORE bigramming — "it sometimes combines
    characters") -> LowerCase -> CJKBigramFilter (Han|Hiragana|Katakana|
    Hangul, offset-contiguous runs emit codepoint bigrams, a lone CJK
    char emits as a unigram) -> StopFilter (the 35-word English list,
    post-bigram). Non-CJK text follows the base UnicodeAnalyzer rules.

    Divergences, documented: a CJK run longer than maxTokenLength is
    bigrammed whole (bigrams are 2 chars, never overlong) where the
    reference tokenizer would chunk Katakana/Hangul runs at 255 and lose
    one bigram per seam; a dangling combining voice mark (U+3099/309A
    with no combinable kana) splits the run. Both are degenerate inputs.
    RE2 + numpy throughout; SQL mirror is exact (cjk_stats gate)."""

    name = "cjk"
    supports_indexing = True
    has_overlaps = False  # default flags: bigrams advance positions
    # combining marks + ZWNJ/ZWJ are UAX#29 Extend: kept in-token (the
    # reference vectors include Arabic text with tashkeel)
    word_extend = r"\p{M}\x{200C}\x{200D}"

    @property
    def stop_set(self):
        from lucene_ray.analysis.stoplists import CJK_LUCENE_STOP

        return CJK_LUCENE_STOP

    def _token_lists(self, texts: pa.Array) -> pa.ListArray:
        from lucene_ray.analysis import cjkwidth

        s = pc.replace_substring_regex(
            cjkwidth.fold_array(texts), pattern=_CJK_RUN_ISOLATE, replacement=r" \1 "
        )
        toks = _uni_split(pc.utf8_lower(s), self._sep_pattern())
        return _trim_lists(_cjk_bigram_expand(toks))

    def tokenize_flat(self, texts, with_offsets: bool = False):
        # StopFilter after bigramming, as the reference chain orders it
        return _drop(super().tokenize_flat(texts, with_offsets), stop=self.stop_set)

    @classmethod
    def sql_expr(cls, col: str) -> str:
        from lucene_ray.analysis import cjkwidth
        from lucene_ray.analysis.stoplists import CJK_LUCENE_STOP

        expr = cjkwidth.sql_fold(col)
        expr = f"regexp_replace({expr}, '{_CJK_RUN_ISOLATE}', ' \\1 ', 'g')"
        expr = f"lower({expr})"
        sep = rf"[^\p{{L}}\p{{N}}\x01-\x03{cls.word_extend}]+"
        expr, restore = _uni_split_sql(expr, sep)
        bigrams = (
            f"CASE WHEN length(t) > 1 "
            f"THEN list_transform(range(1, length(t)), i -> substr(t, i::INT, 2)) "
            f"ELSE [t] END"
        )
        expr = (
            f"flatten(list_transform({expr}, t -> "
            f"CASE WHEN regexp_matches(t, '{_CJK_TOKEN_RE}') THEN {bigrams} "
            f"ELSE regexp_extract_all({restore}, '.{{1,{MAX_TOKEN_LEN}}}') "
            f"END))"
        )
        stops = ", ".join(f"'{w}'" for w in sorted(CJK_LUCENE_STOP))
        return f"list_filter({expr}, t -> t NOT IN ({stops}))"


def _cjk_bigram_expand(toks: pa.ListArray) -> pa.ListArray:
    """Expand CJK-run tokens into codepoint bigrams (lone CJK chars stay
    unigrams); all other tokens pass through. Vectorized: one regex scan
    to flag CJK tokens, numpy object-concat for the bigram strings."""
    vals = toks.values
    if len(vals) == 0:
        return toks
    is_cjk = pc.match_substring_regex(vals, _CJK_TOKEN_RE).to_numpy(
        zero_copy_only=False
    )
    nchar = pc.utf8_length(vals).to_numpy(zero_copy_only=False).astype(np.int64)
    multi = is_cjk & (nchar > 1)
    if not bool(multi.any()):
        return toks
    vals_np = np.asarray(vals.to_pylist(), dtype=object)
    out_counts = np.where(multi, nchar - 1, 1)
    # explode the multi-CJK tokens to chars and pair adjacents
    runs = vals_np[multi]
    run_lens = nchar[multi]
    chars = np.array(list("".join(runs.tolist())), dtype=object)
    pairs = chars[:-1] + chars[1:]
    # drop pairs straddling a run boundary
    starts = np.cumsum(run_lens)[:-1]
    pair_keep = np.ones(len(chars) - 1, dtype=bool)
    pair_keep[starts - 1] = False
    bigram_flat = pairs[pair_keep]
    # assemble output values in original token order
    total = int(out_counts.sum())
    token_of = np.repeat(np.arange(len(vals_np)), out_counts)
    out_vals = np.empty(total, dtype=object)
    is_multi_out = multi[token_of]
    out_vals[~is_multi_out] = vals_np[token_of[~is_multi_out]]
    out_vals[is_multi_out] = bigram_flat
    cum = np.concatenate(([0], np.cumsum(out_counts)))
    offs = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
    return pa.ListArray.from_arrays(
        pa.array(cum[offs], type=pa.int32()),
        pa.array(out_vals.tolist(), type=pa.string()),
    )


class SerbianFoldAnalyzer(_LightStemAnalyzer):
    """sr/SerbianAnalyzer.java:113-119 chain MINUS the Snowball stemmer
    (declared partial): tokenize -> lowercase -> STOP (Latin+Cyrillic
    list) -> SerbianNormalizationFilter (Cyrillic -> bald Latin,
    digraph expansion). Fully SQL-mirrorable, so this chain carries an
    oracle gate (srfold_stats) unlike the stemmed chains."""

    name = "serbian_fold"
    language = "serbian_fold"

    @property
    def stop_set(self):  # type: ignore[override]
        from lucene_ray.analysis.stoplists import SERBIAN_LUCENE_STOP

        return SERBIAN_LUCENE_STOP


class EnglishKeywordRepeatAnalyzer(EnglishAnalyzer):
    """miscellaneous/KeywordRepeatFilter.java + PorterStemFilter +
    miscellaneous/RemoveDuplicatesTokenFilter.java: every token emits its
    ORIGINAL form followed by its stem at the SAME position (posInc 0),
    and the duplicate collapses when stemming is identity — the standard
    exact-plus-stemmed recall/precision chain."""

    name = "english_keyword_repeat"
    has_overlaps = True

    def _stem_stream(self, stream: tuple) -> tuple:
        stemmed = self._stem_terms(stream[1])
        differs = pc.not_equal(stemmed, stream[1]).to_numpy(zero_copy_only=False)
        src = np.nonzero(differs)[0]
        return _add_twins(stream, src, stemmed.take(pa.array(src)))


class ArabicAnalyzer(_LightStemAnalyzer):
    """ar/ArabicAnalyzer.java:131-142 chain: tokenize -> lowercase ->
    DecimalDigitFilter -> STOP (the list is UNnormalized — reference
    comment at :135) -> ArabicNormalization -> ArabicStem. Tashkeel
    diacritics and ZWNJ/ZWJ are UAX#29 Extend, kept in-token (the
    normalizer deletes the diacritics)."""

    name = "arabic"
    language = "arabic"
    pre_stop_language = "arabic_pre"  # DecimalDigitFilter only
    word_extend = r"\p{M}\x{200C}\x{200D}"

    @property
    def stop_set(self):  # type: ignore[override]
        from lucene_ray.analysis.stoplists import ARABIC_LUCENE_STOP

        return ARABIC_LUCENE_STOP


class PersianAnalyzer(_LightStemAnalyzer):
    """fa/PersianAnalyzer.java:128-143 chain: PersianCharFilter (ZWNJ ->
    separator; NOT in word_extend), tokenize -> lowercase -> decimal ->
    ArabicNormalization -> PersianNormalization -> STOP (list is in
    normalized form — reference comment at :136) -> PersianStem."""

    name = "persian"
    language = "persian"
    pre_stop_language = "persian_norm"
    word_extend = r"\p{M}\x{200D}"

    @property
    def stop_set(self):  # type: ignore[override]
        from lucene_ray.analysis.stoplists import PERSIAN_LUCENE_STOP

        return PERSIAN_LUCENE_STOP


class GreekAnalyzer(_LightStemAnalyzer):
    """el/GreekAnalyzer.java:102-108 chain: tokenize ->
    GreekLowerCaseFilter (final sigma + tonos/dialytika fold, BEFORE the
    stop filter — the bundled list is in folded form) -> STOP ->
    GreekStem."""

    name = "greek"
    language = "greek"
    pre_stop_language = "greek_norm"

    @property
    def stop_set(self):  # type: ignore[override]
        from lucene_ray.analysis.stoplists import GREEK_LUCENE_STOP

        return GREEK_LUCENE_STOP


class BulgarianAnalyzer(_LightStemAnalyzer):
    """bg/BulgarianAnalyzer.java:116-124: tokenize -> lowercase -> STOP
    -> BulgarianStem."""

    name = "bulgarian"
    language = "bulgarian"

    @property
    def stop_set(self):  # type: ignore[override]
        from lucene_ray.analysis.stoplists import BULGARIAN_LUCENE_STOP

        return BULGARIAN_LUCENE_STOP


class CzechAnalyzer(_LightStemAnalyzer):
    """cz/CzechAnalyzer.java:113-120: tokenize -> lowercase -> STOP ->
    CzechStem."""

    name = "czech"
    language = "czech"

    @property
    def stop_set(self):  # type: ignore[override]
        from lucene_ray.analysis.stoplists import CZECH_LUCENE_STOP

        return CZECH_LUCENE_STOP


class IndonesianAnalyzer(_LightStemAnalyzer):
    """id/IndonesianAnalyzer.java:112-119: tokenize -> lowercase -> STOP
    -> IndonesianStem (full derivational stemming)."""

    name = "indonesian"
    language = "indonesian"

    @property
    def stop_set(self):  # type: ignore[override]
        from lucene_ray.analysis.stoplists import INDONESIAN_LUCENE_STOP

        return INDONESIAN_LUCENE_STOP


class LatvianAnalyzer(_LightStemAnalyzer):
    """lv/LatvianAnalyzer.java:111-117: tokenize -> lowercase -> STOP ->
    LatvianStem."""

    name = "latvian"
    language = "latvian"

    @property
    def stop_set(self):  # type: ignore[override]
        from lucene_ray.analysis.stoplists import LATVIAN_LUCENE_STOP

        return LATVIAN_LUCENE_STOP


_REGISTRY = {
    "code": CodeAnalyzer,
    "standard": StandardLiteAnalyzer,
    "unicode": UnicodeAnalyzer,
    "unicode_emoji": UnicodeEmojiAnalyzer,
    "icu_normalize": ICUNormalizeAnalyzer,
    "phonetic_metaphone": PhoneticAnalyzer,
    "phonetic_soundex": SoundexAnalyzer,
    "phonetic_caverphone2": Caverphone2Analyzer,
    "phonetic_nysiis": NysiisAnalyzer,
    "phonetic_dmetaphone": MultiPhoneticAnalyzer,
    "phonetic_dmsoundex": DaitchMokotoffAnalyzer,
    "english": EnglishAnalyzer,
    "english_snowball": EnglishSnowballAnalyzer,
    "english_kstem": EnglishKStemAnalyzer,
    "whitespace": WhitespaceAnalyzer,
    "keyword": KeywordAnalyzer,
    "synonym": SynonymAnalyzer,
    "folding": FoldingAnalyzer,
    "html": HTMLStripAnalyzer,
    "ngram": NGramAnalyzer,
    "edgengram": EdgeNGramAnalyzer,
    "shingle": ShingleAnalyzer,
    "commongrams": CommonGramsAnalyzer,
    "commongrams_query": CommonGramsQueryAnalyzer,
    "gram3": Gram3Analyzer,
    "german_light": GermanLightAnalyzer,
    "french_light": FrenchLightAnalyzer,
    "spanish_light": SpanishLightAnalyzer,
    "italian_light": ItalianLightAnalyzer,
    "portuguese_light": PortugueseLightAnalyzer,
    "russian_light": RussianLightAnalyzer,
    "finnish_light": FinnishLightAnalyzer,
    "hungarian_light": HungarianLightAnalyzer,
    "swedish_light": SwedishLightAnalyzer,
    "german_minimal": GermanMinimalAnalyzer,
    "french_minimal": FrenchMinimalAnalyzer,
    "spanish_plural": SpanishPluralAnalyzer,
    "scandinavian_normalization": ScandinavianNormalizationAnalyzer,
    "scandinavian_folding": ScandinavianFoldingAnalyzer,
    "norwegian_light": NorwegianLightAnalyzer,
    "norwegian_minimal": NorwegianMinimalAnalyzer,
    "english_minimal": EnglishMinimalAnalyzer,
    "swedish_minimal": SwedishMinimalAnalyzer,
    "portuguese_rslp": PortugueseRSLPAnalyzer,
    "portuguese_minimal": PortugueseMinimalAnalyzer,
    "galician": GalicianAnalyzer,
    "galician_minimal": GalicianMinimalAnalyzer,
    "sorani": SoraniAnalyzer,
    "hindi": HindiAnalyzer,
    "bengali": BengaliAnalyzer,
    "arabic": ArabicAnalyzer,
    "persian": PersianAnalyzer,
    "greek": GreekAnalyzer,
    "bulgarian": BulgarianAnalyzer,
    "czech": CzechAnalyzer,
    "indonesian": IndonesianAnalyzer,
    "latvian": LatvianAnalyzer,
    "cjk": CJKAnalyzer,
    "serbian_fold": SerbianFoldAnalyzer,
    "english_keyword_repeat": EnglishKeywordRepeatAnalyzer,
}


def get_analyzer(name: str = "code"):
    """Analyzer registry — the extension surface mirroring Lucene's
    TokenizerFactory SPI (analysis/TokenizerFactory.java)."""
    if name not in _REGISTRY and name in (
        "compound", "pattern", "capturegroup", "url_email",
    ):
        # lazy: these modules import UnicodeAnalyzer from this module
        from lucene_ray.analysis.filters import DictionaryCompoundAnalyzer
        from lucene_ray.analysis.pattern import (
            PatternCaptureGroupAnalyzer,
            PatternTokenizerAnalyzer,
        )
        from lucene_ray.analysis.urlemail import UrlEmailAnalyzer

        _REGISTRY["compound"] = DictionaryCompoundAnalyzer
        _REGISTRY["pattern"] = PatternTokenizerAnalyzer
        _REGISTRY["capturegroup"] = PatternCaptureGroupAnalyzer
        _REGISTRY["url_email"] = UrlEmailAnalyzer
    return _REGISTRY[name]()

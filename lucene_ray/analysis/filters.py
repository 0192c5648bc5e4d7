"""Miscellaneous token filters + dictionary compound decomposition —
re-expressed from the reference sources as spec:

  miscellaneous/FingerprintFilter.java:40-130   fingerprint_lists (unique
      terms, input-order size budget, sorted join; whole output discarded
      when the budget is exceeded)
  miscellaneous/LengthFilter.java               length_filter_lists
  miscellaneous/TruncateTokenFilter.java        truncate_lists
  miscellaneous/KeepWordFilter.java             keep_words_lists
  miscellaneous/LimitTokenCountFilter.java      limit_count_lists
  analysis/reverse/ReverseStringFilter.java     reverse_lists (codepoint
      reversal — the reference is surrogate-safe, i.e. codepoints)
  compound/DictionaryCompoundWordTokenFilterBase.java:60-150 +
  compound/DictionaryCompoundWordTokenFilter.java:70-105
      decompose_term / DictionaryCompoundAnalyzer (original token always
      kept; every dictionary subword at every offset is injected at the
      SAME position — posInc 0 overlaps, discountOverlaps applies)

All list-level functions are vectorized over a pa.ListArray of tokens
(pyarrow kernels; fingerprint is per-row numpy over sorted uniques).
Divergence, documented: FingerprintFilter sorts by UTF-16 char order in
Java; here (and in DuckDB's binary collation) by codepoint — they differ
only when non-BMP and U+E000-U+FFFF terms mix.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

__all__ = [
    "fingerprint_lists",
    "length_filter_lists",
    "truncate_lists",
    "keep_words_lists",
    "limit_count_lists",
    "reverse_lists",
    "hyphenated_words_lists",
    "decompose_term",
    "DictionaryCompoundAnalyzer",
]

DEFAULT_MAX_OUTPUT_TOKEN_SIZE = 1024


def _offsets(toks: pa.ListArray) -> np.ndarray:
    return toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)


def _refilter(toks: pa.ListArray, keep: np.ndarray) -> pa.ListArray:
    offs = _offsets(toks)
    kept_cum = np.concatenate(([0], np.cumsum(keep.astype(np.int64))))
    return pa.ListArray.from_arrays(
        pa.array(kept_cum[offs], type=pa.int32()),
        toks.values.filter(pa.array(keep)),
    )


def fingerprint_lists(
    toks: pa.ListArray,
    max_output_token_size: int = DEFAULT_MAX_OUTPUT_TOKEN_SIZE,
    separator: str = " ",
) -> pa.ListArray:
    """One fingerprint token per row: unique terms sorted and joined.
    The Java size budget accumulates over unique terms in INPUT order and
    the whole output is discarded once it exceeds max (the running total
    only ever grows, so this reduces to: emit iff the full joined length
    fits). Zero input tokens -> zero output tokens."""
    out = []
    for row in toks.to_pylist():
        if not row:
            out.append([])
            continue
        uniq = sorted(set(row))
        total = sum(len(t) for t in uniq) + len(uniq) - 1
        if total > max_output_token_size:
            out.append([])
        else:
            out.append([separator.join(uniq)])
    return pa.array(out, type=pa.list_(pa.string()))


def length_filter_lists(
    toks: pa.ListArray, min_len: int, max_len: int
) -> pa.ListArray:
    n = pc.utf8_length(toks.values).to_numpy(zero_copy_only=False)
    keep = (n >= min_len) & (n <= max_len)
    if bool(keep.all()):
        return toks
    return _refilter(toks, keep)


def truncate_lists(toks: pa.ListArray, length: int) -> pa.ListArray:
    if length < 1:
        raise ValueError("length parameter must be a positive number")
    return pa.ListArray.from_arrays(
        toks.offsets, pc.utf8_slice_codeunits(toks.values, 0, length)
    )


def keep_words_lists(toks: pa.ListArray, words) -> pa.ListArray:
    keep = pc.is_in(
        toks.values, value_set=pa.array(sorted(set(words)))
    ).to_numpy(zero_copy_only=False)
    if bool(keep.all()):
        return toks
    return _refilter(toks, keep)


def limit_count_lists(toks: pa.ListArray, max_count: int) -> pa.ListArray:
    offs = _offsets(toks)
    counts = np.diff(offs)
    if bool((counts <= max_count).all()):
        return toks
    pos = np.arange(int(offs[-1])) - np.repeat(offs[:-1], counts)
    return _refilter(toks, pos < max_count)


def reverse_lists(toks: pa.ListArray) -> pa.ListArray:
    return pa.ListArray.from_arrays(
        toks.offsets, pc.utf8_reverse(toks.values)
    )


# ------------------------------------------------------------- compound

DEFAULT_MIN_WORD_SIZE = 5
DEFAULT_MIN_SUBWORD_SIZE = 2
DEFAULT_MAX_SUBWORD_SIZE = 15


def decompose_term(
    term: str,
    dictionary,
    min_word_size: int = DEFAULT_MIN_WORD_SIZE,
    min_subword_size: int = DEFAULT_MIN_SUBWORD_SIZE,
    max_subword_size: int = DEFAULT_MAX_SUBWORD_SIZE,
    only_longest_match: bool = False,
) -> list[str]:
    """DictionaryCompoundWordTokenFilter.decompose: every dictionary
    subword at every start offset (ascending start, ascending length), or
    only the longest per start; tokens shorter than min_word_size never
    decompose (the base filter's guard)."""
    n = len(term)
    if n < min_word_size:
        return []
    out = []
    for i in range(0, n - min_subword_size + 1):
        longest = None
        for j in range(min_subword_size, max_subword_size + 1):
            if i + j > n:
                break
            if term[i : i + j] in dictionary:
                if only_longest_match:
                    if longest is None or len(longest) < j:
                        longest = term[i : i + j]
                else:
                    out.append(term[i : i + j])
        if only_longest_match and longest is not None:
            out.append(longest)
    return out


from lucene_ray.analysis.analyzer import (  # noqa: E402
    UnicodeAnalyzer,
    _add_twins,
    _per_vocab,
)


class DictionaryCompoundAnalyzer(UnicodeAnalyzer):
    """Unicode tokenizer + DictionaryCompoundWordTokenFilter: the
    original token is always kept and every dictionary subword is
    injected at the SAME position (posInc 0 — ``has_overlaps`` makes the
    builder discount them from length norms, the SynonymAnalyzer
    contract). Subclass or instantiate with a custom ``dictionary``; the
    "compound" registry entry is a demo instance with the reference
    test's German dictionary (TestCompoundWordTokenFilter)."""

    name = "compound"
    has_overlaps = True
    supports_indexing = True
    # lowercase: tokens arrive through utf8_lower
    dictionary = frozenset(
        ["rind", "fleisch", "draht", "schere", "gesetz", "aufgabe",
         "überwachung", "übertragung"]
    )
    min_word_size = DEFAULT_MIN_WORD_SIZE
    min_subword_size = DEFAULT_MIN_SUBWORD_SIZE
    max_subword_size = DEFAULT_MAX_SUBWORD_SIZE
    only_longest_match = False

    def _subwords(self, vocab: list) -> list:
        return [
            decompose_term(
                t,
                self.dictionary,
                self.min_word_size,
                self.min_subword_size,
                self.max_subword_size,
                self.only_longest_match,
            )
            for t in vocab
        ]

    def tokenize_flat(self, texts, with_offsets: bool = False):
        stream = super().tokenize_flat(texts, with_offsets)
        return _add_twins(stream, *_per_vocab(stream[1], self._subwords))

    @classmethod
    def sql_expr(cls, col: str) -> str:
        """DuckDB mirror: the base unicode stream, each token followed by
        its dictionary subwords (nested range scan, ascending start then
        ascending length — the decompose() order)."""
        base = UnicodeAnalyzer.sql_expr(col)
        words = ", ".join(f"'{w}'" for w in sorted(cls.dictionary))
        lo, hi = cls.min_subword_size, cls.max_subword_size
        subs = (
            f"CASE WHEN length(t) >= {cls.min_word_size} THEN "
            f"flatten(list_transform(range(0, length(t) - {lo} + 1), i -> "
            f"list_filter(list_transform(range({lo}, {hi} + 1), "
            f"j -> CASE WHEN i + j <= length(t) "
            f"THEN substr(t, (i + 1)::INT, j::INT) END), "
            f"s -> s IS NOT NULL AND s IN ({words})))) "
            f"ELSE [] END"
        )
        return (
            f"flatten(list_transform({base}, "
            f"t -> list_concat([t], {subs})))"
        )


def hyphenated_words_lists(toks: pa.ListArray) -> pa.ListArray:
    """miscellaneous/HyphenatedWordsFilter.java:30-90 — consecutive
    hyphen-ending tokens accumulate (each trailing '-' stripped); the
    next plain token closes and joins; a pending accumulation at stream
    end re-emits with a single trailing '-'. Stream == one row here."""
    out = []
    for row in toks.to_pylist():
        o: list = []
        acc = None
        for t in row:
            if t and t[-1] == "-":
                acc = (acc or "") + t[:-1]
            elif acc is None:
                o.append(t)
            else:
                o.append(acc + t)
                acc = None
        if acc is not None:
            o.append(acc + "-")
        out.append(o)
    return pa.array(out, type=pa.list_(pa.string()))

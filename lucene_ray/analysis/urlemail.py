"""URL + email tokenization — UAX29URLEmailTokenizer-LITE, re-expressed
from email/UAX29URLEmailTokenizer.java (the jflex grammar is the spec
for WHAT counts as a <URL>/<EMAIL> token; this is a declared subset):

A whitespace-delimited span that fully matches the email pattern or a
scheme/www URL is kept WHOLE as one lowercased token; every other span
tokenizes through the UnicodeAnalyzer rules (which already keep dotted
hostnames like example.com intact via MidNumLet). Out of scope,
documented: URLs/emails butted against other text without whitespace
(the reference's scanner carves them mid-span), mailto: scheme bodies
(the reference itself carries TODOs there), IP-literal hosts, and
trailing punctuation stripping.

Pure RE2 on both sides — the urlemail_stats gate's DuckDB mirror nests
the UnicodeAnalyzer expression inside a per-span CASE.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from lucene_ray.analysis.analyzer import UnicodeAnalyzer

__all__ = ["UrlEmailAnalyzer", "URL_EMAIL_RE"]

# full-span match: email | scheme URL | www. URL (RE2-safe, anchored)
URL_EMAIL_RE = (
    r"^(?:"
    r"[A-Za-z0-9._%+\-]+@[A-Za-z0-9\-]+(?:\.[A-Za-z0-9\-]+)*\.[A-Za-z]{2,}"
    r"|(?:[Hh][Tt][Tt][Pp][Ss]?|[Ff][Tt][Pp])://[^\s]+"
    r"|[Ww][Ww][Ww]\.[^\s]+\.[^\s]+"
    r")$"
)
_WS = r"\s+"


class UrlEmailAnalyzer(UnicodeAnalyzer):
    name = "url_email"
    # scheme URLs carry ':' which the SHARED term dict reserves for
    # keyword fields (CheckIndex/merge skip ':'-terms when summing ttf)
    # — analysis/ops surface only, the builder rejects it
    supports_indexing = False

    def _token_lists(self, texts: pa.Array) -> pa.ListArray:
        spans = pc.split_pattern_regex(texts, pattern=_WS)
        if isinstance(spans, pa.ChunkedArray):
            spans = spans.combine_chunks()
        frags = spans.values
        n_frag = len(frags)
        if n_frag == 0:
            return pa.ListArray.from_arrays(spans.offsets, frags.cast(pa.string()))
        special = pc.match_substring_regex(frags, URL_EMAIL_RE).to_numpy(
            zero_copy_only=False
        )
        # unicode-tokenize every span in one vectorized pass; special
        # spans override with their single lowered token
        sub = UnicodeAnalyzer._token_lists(self, frags)
        sub_offs = sub.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        sub_counts = np.diff(sub_offs)
        counts = np.where(special, 1, sub_counts)
        total = int(counts.sum())
        out = np.empty(total, dtype=object)
        starts = np.concatenate(([0], np.cumsum(counts)))[:-1]
        # specials: one lowered token each
        lowered = pc.utf8_lower(frags.filter(pa.array(special))).to_pylist()
        out[starts[special]] = np.asarray(lowered, dtype=object)
        # non-specials: their unicode tokens, in order
        ns = ~special
        if bool(ns.any()):
            sub_vals = np.asarray(sub.values.to_pylist(), dtype=object)
            frag_of_tok = np.repeat(np.arange(n_frag), sub_counts)
            keep_tok = ns[frag_of_tok]
            slot = np.repeat(starts[ns], sub_counts[ns]) + (
                np.arange(int(sub_counts[ns].sum()))
                - np.repeat(
                    np.concatenate(([0], np.cumsum(sub_counts[ns])))[:-1],
                    sub_counts[ns],
                )
            )
            out[slot] = sub_vals[keep_tok]
        offs = spans.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        cum = np.concatenate(([0], np.cumsum(counts)))
        return pa.ListArray.from_arrays(
            pa.array(cum[offs], type=pa.int32()),
            pa.array(out.tolist(), type=pa.string()),
        )

    @classmethod
    def sql_expr(cls, col: str) -> str:
        """DuckDB mirror: whitespace spans, full-span URL/email kept
        whole (lowered), else the UnicodeAnalyzer expression applied to
        the span (inner lambdas rebind t; the outer var is u)."""
        inner = UnicodeAnalyzer.sql_expr("u")
        pat = URL_EMAIL_RE.replace("'", "''")
        return (
            f"flatten(list_transform(string_split_regex({col}, '{_WS}'), "
            f"u -> CASE WHEN regexp_matches(u, '{pat}') THEN [lower(u)] "
            f"ELSE {inner} END))"
        )

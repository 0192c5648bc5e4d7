"""Text-analysis pipelines over the ``documents`` table — Ray Data stages
with exact DuckDB SQL mirrors (tokenization via the shared RE2 pipeline, so
both sides tokenize identically; see lucene_ray.analysis.tokenize_sql_expr).

Scale design: every pipeline is map_batches-vectorized with per-batch
PARTIAL aggregation before any groupby — the combiner pattern bounds shuffle
volume to O(#batches x vocab) rows and caps per-key skew at #batches rows
(SURVEY.md §4 skew row; ray_guide 'Aggregation at scale').
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

import ray.data
from ray.data.aggregate import Sum

from lucene_ray.analysis import CodeAnalyzer, tok_cte, tokenize_sql_expr

# shared language stopword sets (python and SQL literals generated from the
# SAME constants — keep them tiny, ASCII, lowercase)
LANG_STOPWORDS: dict[str, tuple[str, ...]] = {
    "de": ("der", "die", "das", "und", "ist", "nicht", "mit", "ein"),
    "en": ("the", "and", "of", "to", "is", "in", "that", "it"),
    "es": ("el", "la", "los", "de", "que", "y", "en", "es"),
    "fr": ("le", "la", "les", "et", "de", "que", "est", "en"),
}
_STOP_ALL = tuple(sorted({w for ws in LANG_STOPWORDS.values() for w in ws}))


def _docs(sf_dir: str) -> "ray.data.Dataset":
    return ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )


def _tokenize_batch(batch: pa.Table) -> tuple[np.ndarray, np.ndarray, pa.Array]:
    an = CodeAnalyzer()
    row_idx, terms, _pos = an.tokenize_flat(batch.column("text").combine_chunks())
    doc_ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
    return doc_ids, row_idx, terms


def term_stats(sf_dir: str) -> "ray.data.Dataset":
    """(term, df, ttf) over all documents.

    Stage 1 (map_batches): tokenize + per-batch partial (term, df, ttf).
    Stage 2: groupby("term") over partials only.
    """

    def partial(batch: pa.Table) -> pa.Table:
        _doc_ids, row_idx, terms = _tokenize_batch(batch)
        return _partial_term_stats(row_idx, terms)

    partials = _docs(sf_dir).map_batches(
        partial, batch_format="pyarrow", batch_size=4096
    )
    return partials.groupby("term").aggregate(
        Sum("df", alias_name="df"), Sum("ttf", alias_name="ttf")
    )


def _partial_term_stats(row_idx: np.ndarray, terms) -> pa.Table:
    """Per-batch (term, df, ttf) partial from flat (row, term) pairs —
    the combiner half shared by every analyzer's stats pipeline."""
    tids = terms.dictionary_encode()
    ids = tids.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    order = np.lexsort((row_idx, ids))
    ids_s, rows_s = ids[order], row_idx[order]
    pair_change = np.empty(len(ids_s), dtype=bool)
    if len(ids_s):
        pair_change[0] = True
        np.logical_or(
            ids_s[1:] != ids_s[:-1], rows_s[1:] != rows_s[:-1], out=pair_change[1:]
        )
    starts = np.nonzero(pair_change)[0]
    tfs = np.diff(np.append(starts, len(ids_s)))
    pair_ids = ids_s[starts]
    uniq, first = np.unique(pair_ids, return_index=True)
    df = np.diff(np.append(first, len(pair_ids)))
    ttf = np.add.reduceat(tfs, first) if len(first) else np.array([], dtype=np.int64)
    vocab = tids.dictionary.to_numpy(zero_copy_only=False)
    return pa.table(
        {
            "term": pa.array(vocab[uniq].tolist(), type=pa.string()),
            "df": pa.array(df, type=pa.int64()),
            "ttf": pa.array(ttf, type=pa.int64()),
        }
    )


def whitespace_stats(sf_dir: str) -> "ray.data.Dataset":
    """(term, df, ttf) under the WhitespaceAnalyzer (no lowercasing, no
    filters — analysis/core/WhitespaceAnalyzer.java): the analyzer-registry
    breadth gate, mirrored in SQL by regexp_split_to_array."""
    from lucene_ray.analysis.analyzer import WhitespaceAnalyzer

    def partial(batch: pa.Table) -> pa.Table:
        an = WhitespaceAnalyzer()
        lists = an.tokenize_array(batch.column("text").combine_chunks())
        offs = lists.offsets.to_numpy(zero_copy_only=False)
        row_idx = np.repeat(
            np.arange(batch.num_rows, dtype=np.int64), np.diff(offs)
        )
        return _partial_term_stats(row_idx, lists.flatten())

    partials = _docs(sf_dir).map_batches(
        partial, batch_format="pyarrow", batch_size=4096
    )
    return partials.groupby("term").aggregate(
        Sum("df", alias_name="df"), Sum("ttf", alias_name="ttf")
    )


def whitespace_stats_sql() -> str:
    from lucene_ray.analysis.analyzer import WhitespaceAnalyzer

    toks = WhitespaceAnalyzer.sql_expr("text")
    return f"""
{tok_cte(toks)}, per_doc AS (
  SELECT doc_id, term, count(*) AS tf FROM tok GROUP BY doc_id, term
)
SELECT term, count(*)::BIGINT AS df, sum(tf)::BIGINT AS ttf
FROM per_doc GROUP BY term
"""


def term_stats_sql() -> str:
    return f"""
{tok_cte()}, per_doc AS (
  SELECT doc_id, term, count(*) AS tf FROM tok GROUP BY doc_id, term
)
SELECT term, count(*)::BIGINT AS df, sum(tf)::BIGINT AS ttf
FROM per_doc GROUP BY term
"""


def doc_token_stats(sf_dir: str) -> "ray.data.Dataset":
    """(doc_id, n_tokens, n_unique) per document — pure map_batches, no
    shuffle at any scale."""

    def stats(batch: pa.Table) -> pa.Table:
        doc_ids, row_idx, terms = _tokenize_batch(batch)
        n = batch.num_rows
        counts = np.bincount(row_idx, minlength=n).astype(np.int64)
        ids = terms.dictionary_encode().indices.to_numpy(zero_copy_only=False)
        order = np.lexsort((ids, row_idx))
        rows_s, ids_s = row_idx[order], ids[order]
        is_new = np.empty(len(ids_s), dtype=bool)
        if len(ids_s):
            is_new[0] = True
            np.logical_or(
                rows_s[1:] != rows_s[:-1], ids_s[1:] != ids_s[:-1], out=is_new[1:]
            )
        uniq = np.bincount(rows_s[is_new], minlength=n).astype(np.int64) if len(ids_s) else np.zeros(n, dtype=np.int64)
        return pa.table(
            {
                "doc_id": pa.array(doc_ids, type=pa.int64()),
                "n_tokens": pa.array(counts, type=pa.int64()),
                "n_unique": pa.array(uniq, type=pa.int64()),
            }
        )

    return _docs(sf_dir).map_batches(stats, batch_format="pyarrow", batch_size=4096)


def doc_token_stats_sql() -> str:
    return f"""
{tok_cte()}, agg AS (
  SELECT doc_id, count(*)::BIGINT AS n_tokens,
         count(DISTINCT term)::BIGINT AS n_unique
  FROM tok GROUP BY doc_id
)
SELECT d.doc_id, coalesce(a.n_tokens, 0) AS n_tokens,
       coalesce(a.n_unique, 0) AS n_unique
FROM documents d LEFT JOIN agg a USING (doc_id)
"""


# Gopher quality-filter rules (Rae et al. 2021, "Scaling Language Models:
# Methods, Analysis & Insights from Training Gopher", §A1.1 text-quality
# filtering) in exact-integer form so the oracle hashes bit-for-bit:
# word count in [GOPHER_MIN_WORDS, GOPHER_MAX_WORDS], mean word length in
# [3, 10] (as 3n <= sum_len <= 10n), symbol-to-word ratio <= 0.1 (as
# 10 * (#'#' + #'...') <= n_words), and >= 2 distinct required stopwords.
GOPHER_MIN_WORDS = 50
GOPHER_MAX_WORDS = 100_000
GOPHER_STOPS = ("the", "be", "to", "of", "and", "that", "have", "with")


def gopher_quality(sf_dir: str) -> "ray.data.Dataset":
    """(doc_id, n_words, sum_word_len, n_stop, n_symbols, keep): the
    Gopher quality-filter signals per document plus the composite keep
    flag — the standard LLM-corpus quality gate, expressed over the
    analyzer's token stream so the DuckDB twin is exact (all comparisons
    integer; '#'/'...' counts are non-overlapping on both sides). Pure
    map_batches, no shuffle at any scale."""
    import pyarrow.compute as pc

    def signals(batch: pa.Table) -> pa.Table:
        an = CodeAnalyzer()
        txt = batch.column("text").combine_chunks()
        doc_ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        n = batch.num_rows
        row_idx, terms, _ = an.tokenize_flat(txt)
        n_words = np.bincount(row_idx, minlength=n).astype(np.int64)
        tlen = pc.utf8_length(terms).to_numpy(zero_copy_only=False)
        sum_len = np.bincount(
            row_idx, weights=tlen.astype(np.float64), minlength=n
        ).astype(np.int64)
        n_stop = np.zeros(n, dtype=np.int64)
        for w in GOPHER_STOPS:
            hit = pc.equal(terms, w).to_numpy(zero_copy_only=False)
            n_stop += np.bincount(row_idx[hit], minlength=n) > 0
        n_sym = (
            pc.count_substring(txt, "#").to_numpy(zero_copy_only=False)
            + pc.count_substring(txt, "...").to_numpy(zero_copy_only=False)
        ).astype(np.int64)
        keep = (
            (n_words >= GOPHER_MIN_WORDS)
            & (n_words <= GOPHER_MAX_WORDS)
            & (3 * n_words <= sum_len)
            & (sum_len <= 10 * n_words)
            & (10 * n_sym <= n_words)
            & (n_stop >= 2)
        )
        return pa.table(
            {
                "doc_id": pa.array(doc_ids, type=pa.int64()),
                "n_words": pa.array(n_words, type=pa.int64()),
                "sum_word_len": pa.array(sum_len, type=pa.int64()),
                "n_stop": pa.array(n_stop, type=pa.int64()),
                "n_symbols": pa.array(n_sym, type=pa.int64()),
                "keep": pa.array(keep.astype(np.int64), type=pa.int64()),
            }
        )

    return _docs(sf_dir).map_batches(signals, batch_format="pyarrow", batch_size=4096)


def gopher_quality_sql() -> str:
    stops = ", ".join(f"'{w}'" for w in GOPHER_STOPS)
    return f"""
{tok_cte()}, agg AS (
  SELECT doc_id, count(*)::BIGINT AS n_words,
         sum(length(term))::BIGINT AS sum_word_len,
         count(DISTINCT CASE WHEN term IN ({stops}) THEN term END)::BIGINT
           AS n_stop
  FROM tok GROUP BY doc_id
), sym AS (
  SELECT doc_id,
         ((length(text) - length(replace(text, '#', '')))
          + (length(text) - length(replace(text, '...', ''))) // 3)::BIGINT
           AS n_symbols
  FROM documents
)
SELECT d.doc_id,
       coalesce(a.n_words, 0) AS n_words,
       coalesce(a.sum_word_len, 0) AS sum_word_len,
       coalesce(a.n_stop, 0) AS n_stop,
       s.n_symbols,
       CASE WHEN coalesce(a.n_words, 0) >= {GOPHER_MIN_WORDS}
             AND coalesce(a.n_words, 0) <= {GOPHER_MAX_WORDS}
             AND 3 * coalesce(a.n_words, 0) <= coalesce(a.sum_word_len, 0)
             AND coalesce(a.sum_word_len, 0) <= 10 * coalesce(a.n_words, 0)
             AND 10 * s.n_symbols <= coalesce(a.n_words, 0)
             AND coalesce(a.n_stop, 0) >= 2
        THEN 1 ELSE 0 END AS keep
FROM documents d
LEFT JOIN agg a USING (doc_id)
JOIN sym s USING (doc_id)
"""


def snowball_doclen(sf_dir: str) -> "ray.data.Dataset":
    """(doc_id, n_tokens) per document through the english_snowball
    analyzer chain (snowball stop list -> Porter2 stem,
    analysis/analyzer.py EnglishSnowballAnalyzer). This is the
    ORACLE-checkable half of the chain: n_tokens = tokens surviving the
    174-word snowball stop list — stemming is 1:1 so the count is
    stem-independent, and the stop filter + RE2 tokenizer have an exact
    SQL mirror (the stemmer itself is golden-tested in
    tests/test_porter2.py; DuckDB has no stem() offline). Pure
    map_batches, no shuffle."""
    from lucene_ray.analysis.analyzer import EnglishSnowballAnalyzer

    def stats(batch: pa.Table) -> pa.Table:
        an = EnglishSnowballAnalyzer()
        doc_ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        row_idx, _terms, _pos = an.tokenize_flat(
            batch.column("text").combine_chunks()
        )
        n = batch.num_rows
        counts = np.bincount(row_idx, minlength=n).astype(np.int64)
        return pa.table(
            {
                "doc_id": pa.array(doc_ids, type=pa.int64()),
                "n_tokens": pa.array(counts, type=pa.int64()),
            }
        )

    return _docs(sf_dir).map_batches(stats, batch_format="pyarrow", batch_size=4096)


def snowball_doclen_sql() -> str:
    from lucene_ray.analysis.stoplists import ENGLISH_SNOWBALL_STOP

    # snowball entries like don't need SQL-quote doubling (the tokenizer
    # never EMITS apostrophes, so these IN-list rows are inert but must
    # still parse)
    stop = ", ".join(
        "'" + w.replace("'", "''") + "'" for w in sorted(ENGLISH_SNOWBALL_STOP)
    )
    return f"""
{tok_cte()}, agg AS (
  SELECT doc_id, count(*)::BIGINT AS n_tokens
  FROM tok WHERE term NOT IN ({stop}) GROUP BY doc_id
)
SELECT d.doc_id, coalesce(a.n_tokens, 0) AS n_tokens
FROM documents d LEFT JOIN agg a USING (doc_id)
"""


def lightstem_doclen(sf_dir: str) -> "ray.data.Dataset":
    """(doc_id, n_it, n_sv) per document through the italian_light and
    swedish_light analyzer chains (analysis/analyzer.py; reference chains
    it/ItalianAnalyzer.java:125 elision -> stop -> light stem and
    sv/SwedishAnalyzer.java stop -> light stem). The ORACLE-checkable
    half: stemming is 1:1, so surviving-token counts mirror exactly in
    SQL (unicode tokenizer + elision regex + snowball stop list); the
    stemmers themselves are golden-tested against the reference's 312K
    bundled vocabulary pairs (tests/test_stemmers.py). Pure map_batches,
    no shuffle."""
    from lucene_ray.analysis.analyzer import (
        ItalianLightAnalyzer,
        SwedishLightAnalyzer,
    )

    def stats(batch: pa.Table) -> pa.Table:
        doc_ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        n = batch.num_rows
        out = {"doc_id": pa.array(doc_ids, type=pa.int64())}
        for col, an in (("n_it", ItalianLightAnalyzer()),
                        ("n_sv", SwedishLightAnalyzer())):
            row_idx, _t, _p = an.tokenize_flat(
                batch.column("text").combine_chunks()
            )
            counts = np.bincount(row_idx, minlength=n).astype(np.int64)
            out[col] = pa.array(counts, type=pa.int64())
        return pa.table(out)

    return _docs(sf_dir).map_batches(stats, batch_format="pyarrow", batch_size=4096)


def lightstem_doclen_sql() -> str:
    from lucene_ray.analysis.analyzer import (
        ItalianLightAnalyzer,
        UnicodeAnalyzer,
    )
    from lucene_ray.analysis.stoplists import (
        ITALIAN_SNOWBALL_STOP,
        SWEDISH_SNOWBALL_STOP,
    )

    toks = UnicodeAnalyzer.sql_expr("text")
    arts = "|".join(ItalianLightAnalyzer.elision_articles)
    stop_it = ", ".join(
        "'" + w.replace("'", "''") + "'" for w in sorted(ITALIAN_SNOWBALL_STOP)
    )
    stop_sv = ", ".join(
        "'" + w.replace("'", "''") + "'" for w in sorted(SWEDISH_SNOWBALL_STOP)
    )
    return f"""
{tok_cte(toks)}, elided AS (
  SELECT doc_id,
         regexp_replace(term, '^(?:{arts})[''’]', '') AS t_it,
         term AS t_sv
  FROM tok
), agg AS (
  SELECT doc_id,
         count(*) FILTER (length(t_it) > 0 AND t_it NOT IN ({stop_it}))::BIGINT AS n_it,
         count(*) FILTER (t_sv NOT IN ({stop_sv}))::BIGINT AS n_sv
  FROM elided GROUP BY doc_id
)
SELECT d.doc_id, coalesce(a.n_it, 0) AS n_it, coalesce(a.n_sv, 0) AS n_sv
FROM documents d LEFT JOIN agg a USING (doc_id)
"""


def repetition_stats(sf_dir: str) -> "ray.data.Dataset":
    """(doc_id, total_ngrams, distinct_ngrams) over token 3-grams per doc —
    the C4/Gopher-style within-document repetition signal (duplicate-3gram
    fraction = 1 - distinct/total downstream; integers here so the oracle
    hashes exactly). Pure map_batches, no shuffle: each document's counts
    live inside its batch. Distinctness via lexsort + neighbor-diff (no
    composite-key overflow at any vocabulary size)."""

    def rep(batch: pa.Table) -> pa.Table:
        doc_ids, row_idx, terms = _tokenize_batch(batch)
        nb = batch.num_rows
        ids = (
            terms.dictionary_encode()
            .indices.to_numpy(zero_copy_only=False)
            .astype(np.int64)
        )
        total = np.zeros(nb, dtype=np.int64)
        distinct = np.zeros(nb, dtype=np.int64)
        if len(ids) >= 3:
            # token stream is (doc, position)-ordered: a trigram is three
            # consecutive stream entries in the same row
            same = row_idx[:-2] == row_idx[2:]
            r = row_idx[:-2][same]
            a, b, c = ids[:-2][same], ids[1:-1][same], ids[2:][same]
            total = np.bincount(r, minlength=nb).astype(np.int64)
            order = np.lexsort((c, b, a, r))
            rs, as_, bs, cs = r[order], a[order], b[order], c[order]
            if len(rs):
                is_new = np.empty(len(rs), dtype=bool)
                is_new[0] = True
                is_new[1:] = (
                    (rs[1:] != rs[:-1])
                    | (as_[1:] != as_[:-1])
                    | (bs[1:] != bs[:-1])
                    | (cs[1:] != cs[:-1])
                )
                distinct = np.bincount(rs[is_new], minlength=nb).astype(np.int64)
        return pa.table(
            {
                "doc_id": pa.array(doc_ids, type=pa.int64()),
                "total_ngrams": pa.array(total, type=pa.int64()),
                "distinct_ngrams": pa.array(distinct, type=pa.int64()),
            }
        )

    return _docs(sf_dir).map_batches(rep, batch_format="pyarrow", batch_size=4096)


def repetition_stats_sql() -> str:
    toks = tokenize_sql_expr("text")
    return f"""
WITH t AS (
  SELECT doc_id, {toks} AS l FROM documents
), tok AS (
  SELECT doc_id, unnest(l) AS term, generate_subscripts(l, 1) AS pos FROM t
), tri AS (
  SELECT a.doc_id, a.term || '|' || b.term || '|' || c.term AS g
  FROM tok a
  JOIN tok b ON b.doc_id = a.doc_id AND b.pos = a.pos + 1
  JOIN tok c ON c.doc_id = a.doc_id AND c.pos = a.pos + 2
), agg AS (
  SELECT doc_id, count(*)::BIGINT AS total_ngrams,
         count(DISTINCT g)::BIGINT AS distinct_ngrams
  FROM tri GROUP BY doc_id
)
SELECT d.doc_id, coalesce(a.total_ngrams, 0) AS total_ngrams,
       coalesce(a.distinct_ngrams, 0) AS distinct_ngrams
FROM documents d LEFT JOIN agg a USING (doc_id)
"""


def text_quality(sf_dir: str) -> "ray.data.Dataset":
    """Integer quality counters per doc (quality *scoring* downstream divides
    these; keeping raw counts makes the oracle comparison exact):
    (doc_id, n_chars, n_tokens, n_stopwords, n_alpha_chars, n_digit_chars)."""
    import pyarrow.compute as pc

    def quality(batch: pa.Table) -> pa.Table:
        text = batch.column("text").combine_chunks()
        doc_ids, row_idx, terms = _tokenize_batch(batch)
        n = batch.num_rows
        n_tokens = np.bincount(row_idx, minlength=n).astype(np.int64)
        stop_mask = pc.is_in(terms, value_set=pa.array(_STOP_ALL)).to_numpy(
            zero_copy_only=False
        )
        n_stop = (
            np.bincount(row_idx[stop_mask], minlength=n).astype(np.int64)
            if len(row_idx)
            else np.zeros(n, dtype=np.int64)
        )
        n_chars = pc.utf8_length(text).to_numpy(zero_copy_only=False).astype(np.int64)
        alpha = pc.utf8_length(
            pc.replace_substring_regex(text, pattern="[^A-Za-z]+", replacement="")
        ).to_numpy(zero_copy_only=False).astype(np.int64)
        digit = pc.utf8_length(
            pc.replace_substring_regex(text, pattern="[^0-9]+", replacement="")
        ).to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "doc_id": pa.array(doc_ids, type=pa.int64()),
                "n_chars": pa.array(n_chars),
                "n_tokens": pa.array(n_tokens),
                "n_stopwords": pa.array(n_stop),
                "n_alpha_chars": pa.array(alpha),
                "n_digit_chars": pa.array(digit),
            }
        )

    return _docs(sf_dir).map_batches(quality, batch_format="pyarrow", batch_size=4096)


def text_quality_sql() -> str:
    toks = tokenize_sql_expr("text")
    stop_list = ", ".join(f"'{w}'" for w in _STOP_ALL)
    return f"""
SELECT doc_id,
  length(text)::BIGINT AS n_chars,
  len({toks})::BIGINT AS n_tokens,
  len(list_filter({toks}, t -> t IN ({stop_list})))::BIGINT AS n_stopwords,
  length(regexp_replace(text, '[^A-Za-z]+', '', 'g'))::BIGINT AS n_alpha_chars,
  length(regexp_replace(text, '[^0-9]+', '', 'g'))::BIGINT AS n_digit_chars
FROM documents
"""


def lang_id(sf_dir: str) -> "ray.data.Dataset":
    """Stopword-overlap language ID (n-gram-free heuristic): per doc, count
    tokens in each language's stopword set; argmax, ties broken by language
    code ascending; no token hits at all -> 'und'."""
    import pyarrow.compute as pc

    langs = sorted(LANG_STOPWORDS)

    def lid(batch: pa.Table) -> pa.Table:
        doc_ids, row_idx, terms = _tokenize_batch(batch)
        n = batch.num_rows
        counts = np.zeros((n, len(langs)), dtype=np.int64)
        for j, lg in enumerate(langs):
            mask = pc.is_in(
                terms, value_set=pa.array(list(LANG_STOPWORDS[lg]))
            ).to_numpy(zero_copy_only=False)
            if len(row_idx):
                counts[:, j] = np.bincount(row_idx[mask], minlength=n)
        best = np.argmax(counts, axis=1)  # first max -> lexicographically
        # smallest language code because langs is sorted
        pred = np.array(langs, dtype=object)[best]
        pred[counts.max(axis=1) == 0] = "und"
        return pa.table(
            {
                "doc_id": pa.array(doc_ids, type=pa.int64()),
                "lang_pred": pa.array(pred.tolist(), type=pa.string()),
            }
        )

    return _docs(sf_dir).map_batches(lid, batch_format="pyarrow", batch_size=4096)


def lang_id_sql() -> str:
    toks = tokenize_sql_expr("text")
    langs = sorted(LANG_STOPWORDS)
    cnt_cols = ",\n  ".join(
        f"len(list_filter(toks, t -> t IN ({', '.join(repr(w) for w in LANG_STOPWORDS[lg])}))) AS c_{lg}"
        for lg in langs
    )
    # argmax with ties -> lexicographically smallest lang: CASE scans langs
    # in sorted order and the first equal-to-max wins
    g = "greatest(" + ", ".join(f"c_{lg}" for lg in langs) + ")"
    cases = " ".join(
        f"WHEN c_{lg} = {g} THEN '{lg}'" for lg in langs
    )
    return f"""
WITH t AS (
  SELECT doc_id, {toks} AS toks FROM documents
), c AS (
  SELECT doc_id, {cnt_cols} FROM t
)
SELECT doc_id,
  CASE WHEN {g} = 0 THEN 'und' {cases} END AS lang_pred
FROM c
"""


# GPT-2-style pre-tokenizer pattern, RE2-safe subset (no unicode categories
# beyond \p{L}/\p{N}, no lookahead): contractions, letter runs, digit runs,
# punctuation runs. Whitespace is NOT an alternative here: for counting,
# non-overlapping matching simply skips over whitespace gaps, and including
# a \s+ branch would swallow the single spaces that belong to ' ?\p{L}+'
# matches, corrupting the count.
BPE_SPLIT_PATTERN = r"'s|'t|'re|'ve|'m|'ll|'d| ?\p{L}+| ?\p{N}+| ?[^\s\p{L}\p{N}]+"


def bpe_token_count(sf_dir: str) -> "ray.data.Dataset":
    """(doc_id, n_bpe_tokens): LLM-token-count estimate = count of BPE
    pre-tokenizer matches (non-whitespace tokens). Pure vectorized
    map_batches — pyarrow and DuckDB both run RE2 with the same pattern, so
    the oracle is exact."""
    import pyarrow.compute as pc

    def count(batch: pa.Table) -> pa.Table:
        n = pc.fill_null(
            pc.count_substring_regex(batch.column("text"), BPE_SPLIT_PATTERN).cast(
                pa.int64()
            ),
            0,
        )
        return pa.table({"doc_id": batch.column("doc_id"), "n_bpe_tokens": n})

    return _docs(sf_dir).map_batches(count, batch_format="pyarrow", batch_size=65536)


def bpe_token_count_sql() -> str:
    pat = BPE_SPLIT_PATTERN.replace("'", "''")  # SQL string-literal quoting
    return f"""
SELECT doc_id,
  len(regexp_extract_all(text, '{pat}'))::BIGINT AS n_bpe_tokens
FROM documents
"""


_FP_P = np.uint64(1099511628211)


def _poly_powers(max_e: int) -> np.ndarray:
    with np.errstate(over="ignore"):  # uint64 wrap is the hash
        pows = np.empty(max_e + 1, dtype=np.uint64)
        pows[0] = np.uint64(1)
        for e in range(1, max_e + 1):
            pows[e] = pows[e - 1] * _FP_P
    return pows


def _poly_fingerprint(row_idx: np.ndarray, th: np.ndarray, n: int) -> np.ndarray:
    """Per-row polynomial hash h = Σ tok_i * P^(len-1-i) (mod 2^64), fully
    vectorized via positional powers. Returns uint64[n]."""
    out = np.zeros(n, dtype=np.uint64)
    if len(row_idx) == 0:
        return out
    counts = np.bincount(row_idx, minlength=n)
    offsets = np.concatenate(([0], np.cumsum(counts)))
    pos_in_row = np.arange(len(row_idx)) - offsets[row_idx]
    rev_pos = (counts[row_idx] - 1 - pos_in_row).astype(np.int64)
    pows = _poly_powers(int(rev_pos.max()) if len(rev_pos) else 0)
    with np.errstate(over="ignore"):
        contrib = th * pows[rev_pos]
        np.add.at(out, row_idx, contrib)
    return out


def fingerprint(sf_dir: str) -> "ray.data.Dataset":
    """Deterministic 64-bit document fingerprint: polynomial rolling hash of
    the token sequence (document-fingerprinting primitive for shift-tolerant
    dedup). Pure map_batches; int64 output (top bit cleared for SQL parity
    comfort). No SQL oracle for the raw values (DuckDB's hash() is a
    different function) — the kernel is gated by ``fingerprint_shift``."""

    def fp(batch: pa.Table) -> pa.Table:
        doc_ids, row_idx, terms = _tokenize_batch(batch)
        th = _stable_token_hash(terms) if len(row_idx) else np.array([], dtype=np.uint64)
        out = _poly_fingerprint(row_idx, th, batch.num_rows)
        signed = (out & np.uint64(0x7FFFFFFFFFFFFFFF)).astype(np.int64)
        return pa.table(
            {
                "doc_id": pa.array(doc_ids, type=pa.int64()),
                "fingerprint": pa.array(signed, type=pa.int64()),
            }
        )

    return _docs(sf_dir).map_batches(fp, batch_format="pyarrow", batch_size=4096)


def fingerprint_shift(sf_dir: str) -> "ray.data.Dataset":
    """(doc_id, ok): the fingerprint kernel's shift identity, checked per
    doc — h(tokens) == first_tok * P^(L-1) + h(tokens[1:]) where BOTH sides
    run the full vectorized kernel independently. A broken positional-power
    or scatter path breaks the identity; the SQL oracle is simply ``true``
    for every doc with >= 1 token, so the driver's hash-compare fails if
    any doc's identity does. Distributed: pure map_batches."""

    def check(batch: pa.Table) -> pa.Table:
        doc_ids, row_idx, terms = _tokenize_batch(batch)
        n = batch.num_rows
        if len(row_idx) == 0:
            return pa.table(
                {
                    "doc_id": pa.array([], type=pa.int64()),
                    "ok": pa.array([], type=pa.bool_()),
                }
            )
        th = _stable_token_hash(terms)
        full = _poly_fingerprint(row_idx, th, n)
        counts = np.bincount(row_idx, minlength=n)
        offsets = np.concatenate(([0], np.cumsum(counts)))
        pos_in_row = np.arange(len(row_idx)) - offsets[row_idx]
        rest_mask = pos_in_row > 0
        # re-run the kernel INDEPENDENTLY on the tail token sequences
        rest = _poly_fingerprint(row_idx[rest_mask], th[rest_mask], n)
        has_tok = counts > 0
        first_idx = offsets[:-1][has_tok]
        pows = _poly_powers(int(counts.max()) - 1 if has_tok.any() else 0)
        with np.errstate(over="ignore"):
            expect = th[first_idx] * pows[counts[has_tok] - 1] + rest[has_tok]
        ok = expect == full[has_tok]
        return pa.table(
            {
                "doc_id": pa.array(doc_ids[has_tok], type=pa.int64()),
                "ok": pa.array(ok, type=pa.bool_()),
            }
        )

    return _docs(sf_dir).map_batches(check, batch_format="pyarrow", batch_size=4096)


def fingerprint_shift_sql() -> str:
    toks = tokenize_sql_expr("text")
    return f"""
SELECT doc_id, true AS ok
FROM (SELECT doc_id, {toks} AS toks FROM documents)
WHERE len(toks) >= 1
"""


def _stable_token_hash(terms: pa.Array) -> np.ndarray:
    """Deterministic uint64 hash per token (FNV-1a over utf-8 bytes),
    vectorized over the dictionary (hash each unique term once)."""
    d = terms.dictionary_encode()
    vocab = d.dictionary.to_pylist()
    idx = d.indices.to_numpy(zero_copy_only=False).astype(np.int64)
    hs = np.empty(len(vocab), dtype=np.uint64)
    with np.errstate(over="ignore"):  # uint64 wrap-around is the hash
        for i, t in enumerate(vocab):
            h = np.uint64(14695981039346656037)
            for b in t.encode():
                h = (h ^ np.uint64(b)) * np.uint64(1099511628211)
            hs[i] = h
    return hs[idx]


# ------------------------------------------------------- deterministic sample

SAMPLE_NUM = 3   # keep-rate numerator
SAMPLE_DEN = 20  # keep-rate denominator (3/20 = 15% sample)


def _hash_prefix(texts: list) -> np.ndarray:
    """First-8-hex-chars sha256 key per text — THE deterministic sampling
    key, shared by sample_hash and stratified_sample (mirror:
    hash_prefix_sql_expr)."""
    import hashlib

    return np.array(
        [int(hashlib.sha256(t.encode()).hexdigest()[:8], 16) for t in texts],
        dtype=np.int64,
    )


def hash_prefix_sql_expr(col: str) -> str:
    return f"CAST(concat('0x', substr(sha256({col}), 1, 8)) AS UBIGINT)"


def sample_hash(
    sf_dir: str, num: int = SAMPLE_NUM, den: int = SAMPLE_DEN
) -> "ray.data.Dataset":
    """(doc_id,): deterministic content-hash sampling — keep a doc iff the
    first 8 hex chars of sha256(text), read as an integer, satisfy
    ``value % den < num``. The reproducible train/eval-split primitive for
    training-data pipelines: a pure map_batches filter (no shuffle, no
    state, no RNG), so the sample is identical across runs, cluster sizes
    and repartitionings — properties ds.random_sample() cannot give.
    (Sampling-role analog of the reference's
    facet/.../RandomSamplingFacetsCollector.java, content-keyed.)"""
    def pick(batch: pa.Table) -> pa.Table:
        h = _hash_prefix(batch.column("text").to_pylist())
        return batch.filter(pa.array(h % den < num)).select(["doc_id"])

    return _docs(sf_dir).map_batches(pick, batch_format="pyarrow", batch_size=4096)


def sample_hash_sql(num: int = SAMPLE_NUM, den: int = SAMPLE_DEN) -> str:
    return f"""
SELECT doc_id FROM documents
WHERE {hash_prefix_sql_expr('text')} % {den} < {num}
"""


STRAT_PER_KEY = 20  # docs kept per lang in the stratified sample


def stratified_sample(sf_dir: str, per_key: int = STRAT_PER_KEY) -> pa.Table:
    """(doc_id, lang): deterministic stratified sampling — the ``per_key``
    docs with the LOWEST content-hash rank within each lang (quota
    sampling per class, the class-balanced split primitive). Hash ranks
    are computed in map_batches (the same sha256-prefix key as
    sample_hash, so the sample is run/cluster-size invariant); only
    per-batch top-per_key candidates shuffle to the tiny final reduce."""
    def ranked(batch: pa.Table) -> pa.Table:
        import pandas as pd

        h = _hash_prefix(batch.column("text").to_pylist())
        df = pd.DataFrame(
            {
                "doc_id": batch.column("doc_id").to_numpy(zero_copy_only=False),
                "lang": batch.column("lang").to_pylist(),
                "h": h,
            }
        )
        # per-batch combiner: only each lang's local top-per_key survive
        df = df.sort_values(["lang", "h", "doc_id"]).groupby("lang").head(per_key)
        return pa.Table.from_pandas(df, preserve_index=False)

    import ray.data

    cand = (
        ray.data.read_parquet(
            f"{sf_dir}/documents.parquet", columns=["doc_id", "lang", "text"]
        )
        .map_batches(ranked, batch_format="pyarrow", batch_size=4096)
        .to_pandas()
    )
    out = (
        cand.sort_values(["lang", "h", "doc_id"])
        .groupby("lang")
        .head(per_key)
        .sort_values("doc_id")
    )
    return pa.table(
        {
            "doc_id": pa.array(out["doc_id"].astype("int64")),
            "lang": pa.array(out["lang"].astype(str)),
        }
    )


def stratified_sample_sql(per_key: int = STRAT_PER_KEY) -> str:
    return f"""
SELECT doc_id, lang FROM documents
QUALIFY row_number() OVER (
  PARTITION BY lang
  ORDER BY {hash_prefix_sql_expr('text')}, doc_id
) <= {per_key}
"""


# ------------------------------------- LM perplexity scoring (CCNet-style)

LM_EVAL_SPLIT = 50  # doc_id < LM_EVAL_SPLIT rows are scored (bounded output)


def lm_logprob(sf_dir: str) -> pa.Table:
    """(doc_id, pos, lnp): per-token log-probability of the EVAL split
    (doc_id < LM_EVAL_SPLIT) under the corpus 2-gram stupid-backoff LM —
    the CCNet/Wikipedia-LM perplexity-filter signal (quality = docs whose
    mean -lnp is low), emitted per position so the oracle needs NO
    order-sensitive float sums. Token 0 scores by unigram probability
    c(w)/tot; later tokens by c(prev,w)/c(prev) when the bigram exists,
    else ALPHA * c(w)/tot (FreeTextSuggester's backoff, reused as an LM).

    Scale shape: the vocab-scale model is built once (persisted freetext
    sidecars), broadcast via ray.put, and consulted inside map_batches
    over a row-pruned read of the eval split — the canonical
    broadcast-small-side + streamed-scoring pattern. ln goes through the
    libm unique-value LUT (similarity._ulog) for DuckDB bit-parity."""
    import json
    import os

    import pandas as pd

    from lucene_ray.search.similarity import _ulog

    d = _freetext_model_dir(sf_dir)
    with open(os.path.join(d, "meta.json")) as f:
        tot = float(json.load(f)["tot"])
    model = pq.read_table(os.path.join(d, "grams"), ignore_prefixes=["_", "."])
    mw1 = np.asarray(model.column("w1").to_pylist(), dtype=object)
    mw2 = np.asarray(model.column("w2").to_pylist(), dtype=object)
    mc = model.column("c").to_numpy(zero_copy_only=False).astype(np.float64)
    uni_mask = mw2 == ""
    uni = dict(zip(mw1[uni_mask], mc[uni_mask]))
    big = {
        (a, b): c
        for a, b, c in zip(mw1[~uni_mask], mw2[~uni_mask], mc[~uni_mask])
    }
    model_ref = ray.put((uni, big, tot))

    def score(batch: pa.Table) -> pa.Table:
        u, bg, t_tot = ray.get(model_ref)
        doc_ids, row_idx, terms = _tokenize_batch(batch)
        toks = terms.to_pylist()
        n = len(toks)
        p = np.empty(n, dtype=np.float64)
        first = np.empty(n, dtype=bool)
        if n:
            first[0] = True
            np.not_equal(row_idx[1:], row_idx[:-1], out=first[1:])
        for i in range(n):
            w = toks[i]
            if first[i]:
                p[i] = u[w] / t_tot
            else:
                prev = toks[i - 1]
                cb = bg.get((prev, w))
                if cb is not None:
                    p[i] = cb / u[prev]
                else:
                    p[i] = FREETEXT_ALPHA * (u[w] / t_tot)
        lnp = _ulog(p) if n else np.array([], dtype=np.float64)
        pos = np.arange(n, dtype=np.int64)
        if n:
            firsts = np.nonzero(first)[0]
            pos = pos - np.repeat(firsts, np.diff(np.append(firsts, n)))
        return pa.table(
            {
                "doc_id": pa.array(doc_ids[row_idx], type=pa.int64()),
                "pos": pa.array(pos, type=pa.int64()),
                "lnp": pa.array(lnp, type=pa.float64()),
            }
        )

    import pyarrow.dataset as pds

    tbl = (
        ray.data.read_parquet(
            f"{sf_dir}/documents.parquet",
            columns=["doc_id", "text"],
            filter=pds.field("doc_id") < LM_EVAL_SPLIT,
        )
        .map_batches(score, batch_format="pyarrow", batch_size=4096)
        .to_arrow_refs()
    )
    import pyarrow as _pa

    parts = [r for r in ray.get(tbl)]
    out = (
        _pa.concat_tables(parts)
        if parts
        else pa.table(
            {
                "doc_id": pa.array([], type=pa.int64()),
                "pos": pa.array([], type=pa.int64()),
                "lnp": pa.array([], type=pa.float64()),
            }
        )
    )
    return out


def lm_logprob_sql() -> str:
    toks = tokenize_sql_expr("text")
    return f"""
WITH t AS (
  SELECT doc_id, {toks} AS l FROM documents
), ptok AS (
  SELECT doc_id, unnest(l) AS term, generate_subscripts(l, 1) AS pos FROM t
), uni AS (
  SELECT term AS w1, count(*)::BIGINT AS c FROM ptok GROUP BY term
), tot AS (
  SELECT sum(c)::DOUBLE AS tot FROM uni
), big AS (
  SELECT a.term AS w1, b.term AS w2, count(*)::BIGINT AS c
  FROM ptok a JOIN ptok b
    ON b.doc_id = a.doc_id AND b.pos = a.pos + 1
  GROUP BY a.term, b.term
)
SELECT p.doc_id, (p.pos - 1)::BIGINT AS pos,
  CASE
    WHEN p.pos = 1 THEN ln(u.c::DOUBLE / t.tot)
    WHEN bg.c IS NOT NULL THEN ln(bg.c::DOUBLE / up.c::DOUBLE)
    ELSE ln({FREETEXT_ALPHA} * (u.c::DOUBLE / t.tot))
  END AS lnp
FROM ptok p
CROSS JOIN tot t
JOIN uni u ON u.w1 = p.term
LEFT JOIN ptok prev
  ON prev.doc_id = p.doc_id AND prev.pos = p.pos - 1
LEFT JOIN uni up ON up.w1 = prev.term
LEFT JOIN big bg ON bg.w1 = prev.term AND bg.w2 = p.term
WHERE p.doc_id < {LM_EVAL_SPLIT}
"""


# --------------------------------------- free-text (n-gram LM) suggester

FREETEXT_ALPHA = 0.4  # FreeTextSuggester.ALPHA (stupid-backoff multiplier)
FREETEXT_CONTEXTS: list[tuple[int, str]] = [(0, "merge"), (1, "batch"), (2, "stream")]
FREETEXT_K = 10


def _ngram_model(sf_dir: str) -> "ray.data.Dataset":
    """Distributed 2-gram + unigram counts over the corpus tokens — the
    FreeTextSuggester model build (suggest/.../FreeTextSuggester.java:117
    DEFAULT_GRAMS=2; the ShingleFilter+FST build becomes per-batch partial
    pair counts -> one groupby). Unigram rows carry w2 = '' (tokens are
    never empty). The shuffle moves vocab^2-BOUNDED partials, never the
    corpus; the model itself is vocab-scale, the analog of the reference's
    materialized FST."""

    def partial(batch: pa.Table) -> pa.Table:
        _d, row_idx, terms = _tokenize_batch(batch)
        t = terms.to_pandas().to_numpy()  # small: one batch's tokens
        same = row_idx[1:] == row_idx[:-1]
        w1 = np.concatenate((t[:-1][same], t))
        w2 = np.concatenate((t[1:][same], np.full(len(t), "", dtype=object)))
        import pandas as pd

        g = (
            pd.DataFrame({"w1": w1, "w2": w2})
            .groupby(["w1", "w2"], sort=False)
            .size()
            .reset_index(name="c")
        )
        return pa.table(
            {
                "w1": pa.array(g["w1"], type=pa.string()),
                "w2": pa.array(g["w2"], type=pa.string()),
                "c": pa.array(g["c"], type=pa.int64()),
            }
        )

    return (
        _docs(sf_dir)
        .map_batches(partial, batch_format="pyarrow", batch_size=4096)
        .groupby(["w1", "w2"])
        .aggregate(Sum("c", alias_name="c"))
    )


def _freetext_model_dir(sf_dir: str) -> str:
    """Build-once persisted FreeTextSuggester model (VERDICT r4 #9): the
    reference's materialized n-gram FST becomes TWO Parquet dirs under one
    root — ``grams/`` sorted by (w1, w2) so per-context lookups are
    row-group-pruned reads, and ``uni/`` with unigram rows sorted by
    (c desc, w1 asc) so the backoff candidate scan reads only a top-M
    prefix. ``meta.json`` carries the corpus token total. tmp dir +
    marker + atomic rename, as in ops/knn.py build_lsh_index."""
    import hashlib
    import json
    import os
    import shutil

    model_dir = os.path.join(
        "/tmp/lucene_ray_cache",
        "freetext_model_" + hashlib.sha1(sf_dir.encode()).hexdigest()[:12],
    )
    marker = os.path.join(model_dir, "_FREETEXT_DONE")
    if os.path.exists(marker):
        return model_dir
    tmp_dir = model_dir + ".build"
    shutil.rmtree(tmp_dir, ignore_errors=True)
    os.makedirs(os.path.join(tmp_dir, "grams"), exist_ok=True)
    model = _ngram_model(sf_dir)
    model.sort(["w1", "w2"]).write_parquet(os.path.join(tmp_dir, "grams"))

    def uni_only(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return batch.filter(pc.equal(batch.column("w2"), ""))

    uni = _ngram_model(sf_dir).map_batches(
        uni_only, batch_format="pyarrow", batch_size=65536
    )
    uni.sort(["c", "w1"], descending=[True, False]).write_parquet(
        os.path.join(tmp_dir, "uni")
    )
    tot = int(
        pq.read_table(os.path.join(tmp_dir, "uni"), columns=["c"])
        .column("c")
        .to_numpy(zero_copy_only=False)
        .sum()
    )
    with open(os.path.join(tmp_dir, "meta.json"), "w") as f:
        json.dump({"tot": tot}, f)
    with open(os.path.join(tmp_dir, "_FREETEXT_DONE"), "w") as f:
        f.write("ok")
    shutil.rmtree(model_dir, ignore_errors=True)
    os.rename(tmp_dir, model_dir)
    return model_dir


def _top_unigrams(uni_dir: str, m: int):
    """First ``m`` unigram rows in the persisted (c desc, w1 asc) global
    order — reads parquet fragments in written (block) order and stops as
    soon as m rows are in hand, so the scan is top-prefix-pruned."""
    import os

    import pyarrow.parquet as _pq

    files = sorted(
        os.path.join(uni_dir, f)
        for f in os.listdir(uni_dir)
        if f.endswith(".parquet")
    )
    parts, have = [], 0
    for f in files:
        t = _pq.read_table(f, columns=["w1", "c"])
        parts.append(t)
        have += t.num_rows
        if have >= m:
            break
    t = pa.concat_tables(parts) if parts else pa.table(
        {"w1": pa.array([], type=pa.string()), "c": pa.array([], type=pa.int64())}
    )
    return t.slice(0, m)


def freetext_suggest(sf_dir: str, k: int = FREETEXT_K) -> pa.Table:
    """(qid, rank, token, score): next-token suggestions per context token
    from the 2-gram stupid-backoff LM (FreeTextSuggester.java:93 model,
    :695 score = count * backoff / contextCount, :126 ALPHA=0.4): bigram
    candidates score count(ctx,w)/count(ctx); every unseen vocab token
    backs off to ALPHA * count(w)/totTokens. Ties break token-asc; exact
    float64 twin of the SQL oracle.

    Model reads are PRUNED against the persisted sidecars (VERDICT r4
    #9): bigrams by w1 filter, backoff candidates as the top
    (k + #bigram-candidates) unigrams — enough, since excluded unigrams
    score <= every included one and lose the token-asc tie-break to the
    included prefix of their tie group. No driver materialization of the
    vocab-scale model."""
    import json
    import os

    d = _freetext_model_dir(sf_dir)
    with open(os.path.join(d, "meta.json")) as f:
        tot = int(json.load(f)["tot"])
    out_q, out_r, out_t, out_s = [], [], [], []
    for qid, ctx in FREETEXT_CONTEXTS:
        rows = pq.read_table(
            os.path.join(d, "grams"),
            filters=[("w1", "==", ctx)],
            ignore_prefixes=["_", "."],
        )
        w2 = rows.column("w2").to_pylist()
        cc = rows.column("c").to_pylist()
        ctx_cnt = 0
        big: list[tuple[str, int]] = []
        for w, c in zip(w2, cc):
            if w == "":
                ctx_cnt = int(c)
            else:
                big.append((w, int(c)))
        cands: dict[str, float] = {}
        if ctx_cnt:
            for w, c in big:
                cands[w] = float(c) / float(ctx_cnt)
        top = _top_unigrams(os.path.join(d, "uni"), k + len(big))
        for w, c in zip(top.column("w1").to_pylist(), top.column("c").to_pylist()):
            if w not in cands:
                cands[w] = FREETEXT_ALPHA * (float(c) / float(tot))
        ranked = sorted(cands.items(), key=lambda kv: (-kv[1], kv[0]))[:k]
        for r, (w, s) in enumerate(ranked):
            out_q.append(qid)
            out_r.append(r)
            out_t.append(w)
            out_s.append(s)
    return pa.table(
        {
            "qid": pa.array(out_q, type=pa.int64()),
            "rank": pa.array(out_r, type=pa.int32()),
            "token": pa.array(out_t, type=pa.string()),
            "score": pa.array(out_s, type=pa.float64()),
        }
    )


def freetext_suggest_sql(k: int = FREETEXT_K) -> str:
    toks = tokenize_sql_expr("text")
    parts = []
    for qid, ctx in FREETEXT_CONTEXTS:
        parts.append(f"""
SELECT {qid} AS qid, token, score FROM (
  SELECT w2 AS token, c::DOUBLE / (SELECT c FROM uni WHERE w = '{ctx}') AS score
  FROM big WHERE w1 = '{ctx}'
  UNION ALL
  SELECT w AS token, {FREETEXT_ALPHA} * (c::DOUBLE / (SELECT tot FROM tot)) AS score
  FROM uni WHERE w NOT IN (SELECT w2 FROM big WHERE w1 = '{ctx}')
)""")
    union_all = "\nUNION ALL\n".join(parts)
    return f"""
WITH t AS (
  SELECT doc_id, {toks} AS toks FROM documents
), tok AS (
  SELECT doc_id, unnest(toks) AS term,
         generate_subscripts(toks, 1) AS pos
  FROM t
), big AS (
  SELECT a.term AS w1, b.term AS w2, count(*)::BIGINT AS c
  FROM tok a JOIN tok b ON b.doc_id = a.doc_id AND b.pos = a.pos + 1
  GROUP BY a.term, b.term
), uni AS (
  SELECT term AS w, count(*)::BIGINT AS c FROM tok GROUP BY term
), tot AS (
  SELECT sum(c)::BIGINT AS tot FROM uni
), cand AS (
{union_all}
)
SELECT qid, (row_number() OVER (
    PARTITION BY qid ORDER BY score DESC, token ASC) - 1)::INTEGER AS rank,
  token, score
FROM cand
QUALIFY rank < {k}
"""


# --------------------------------- gram/shingle analyzer stats gates

def _flat_stats(sf_dir: str, analyzer_name: str) -> "ray.data.Dataset":
    """(term, df, ttf) under any registry analyzer's tokenize_flat — the
    shared two-stage shape of term_stats."""
    from lucene_ray.analysis import get_analyzer

    def partial(batch: pa.Table) -> pa.Table:
        an = get_analyzer(analyzer_name)
        row_idx, terms, _pos = an.tokenize_flat(
            batch.column("text").combine_chunks()
        )
        return _partial_term_stats(row_idx, terms)

    return (
        _docs(sf_dir)
        .map_batches(partial, batch_format="pyarrow", batch_size=4096)
        .groupby("term")
        .aggregate(Sum("df", alias_name="df"), Sum("ttf", alias_name="ttf"))
    )


def ngram_stats(sf_dir: str) -> "ray.data.Dataset":
    """(term, df, ttf) of all 1-2 char grams (NGramTokenFilter defaults)."""
    return _flat_stats(sf_dir, "ngram")


def ngram_stats_sql() -> str:
    levels = []
    for g in (1, 2):
        levels.append(
            f"SELECT doc_id, substr(term, i::BIGINT, {g}) AS g FROM (\n"
            f"  SELECT doc_id, term,\n"
            f"         unnest(generate_series(1, length(term) - {g} + 1)) AS i\n"
            f"  FROM tok)"
        )
    grams = "\nUNION ALL\n".join(levels)
    return f"""
{tok_cte()}, grams AS (
{grams}
)
SELECT g AS term, count(DISTINCT doc_id)::BIGINT AS df,
       count(*)::BIGINT AS ttf
FROM grams GROUP BY g
"""


def edgengram_stats(sf_dir: str) -> "ray.data.Dataset":
    """(term, df, ttf) of 1-3 char PREFIX grams (EdgeNGramTokenFilter)."""
    return _flat_stats(sf_dir, "edgengram")


def edgengram_stats_sql() -> str:
    levels = [
        f"SELECT doc_id, substr(term, 1, {g}) AS g FROM tok"
        f" WHERE length(term) >= {g}"
        for g in (1, 2, 3)
    ]
    grams = "\nUNION ALL\n".join(levels)
    return f"""
{tok_cte()}, grams AS (
{grams}
)
SELECT g AS term, count(DISTINCT doc_id)::BIGINT AS df,
       count(*)::BIGINT AS ttf
FROM grams GROUP BY g
"""


def shingle_stats(sf_dir: str) -> "ray.data.Dataset":
    """(term, df, ttf) of word 2-shingles + unigrams (ShingleFilter.java:71
    defaults, separator ' ', outputUnigrams=true)."""
    return _flat_stats(sf_dir, "shingle")


def shingle_stats_sql() -> str:
    toks = tokenize_sql_expr("text")
    return f"""
WITH t AS (
  SELECT doc_id, {toks} AS toks FROM documents
), tok AS (
  SELECT doc_id, unnest(toks) AS term,
         generate_subscripts(toks, 1) AS pos
  FROM t
), grams AS (
  SELECT doc_id, term AS g FROM tok
  UNION ALL
  SELECT a.doc_id, a.term || ' ' || b.term AS g
  FROM tok a JOIN tok b ON b.doc_id = a.doc_id AND b.pos = a.pos + 1
)
SELECT g AS term, count(DISTINCT doc_id)::BIGINT AS df,
       count(*)::BIGINT AS ttf
FROM grams GROUP BY g
"""


def commongrams_stats(sf_dir: str) -> "ray.data.Dataset":
    """(term, df, ttf) under the CommonGramsFilter stream (commongrams/
    CommonGramsFilter.java: unigrams + '_'-joined bigrams for adjacent
    pairs touching a snowball-English common word; pinned index-side by
    the reference's TestCommonGramsFilter vectors in
    tests/test_commongrams.py)."""
    return _flat_stats(sf_dir, "commongrams")


def commongrams_stats_sql() -> str:
    from lucene_ray.analysis.stoplists import ENGLISH_SNOWBALL_STOP

    toks = tokenize_sql_expr("text")
    common = ", ".join(
        "'" + w.replace("'", "''") + "'" for w in sorted(ENGLISH_SNOWBALL_STOP)
    )
    return f"""
WITH t AS (
  SELECT doc_id, {toks} AS toks FROM documents
), tok AS (
  SELECT doc_id, unnest(toks) AS term,
         generate_subscripts(toks, 1) AS pos
  FROM t
), grams AS (
  SELECT doc_id, term AS g FROM tok
  UNION ALL
  SELECT a.doc_id, a.term || '_' || b.term AS g
  FROM tok a JOIN tok b ON b.doc_id = a.doc_id AND b.pos = a.pos + 1
  WHERE a.term IN ({common}) OR b.term IN ({common})
)
SELECT g AS term, count(DISTINCT doc_id)::BIGINT AS df,
       count(*)::BIGINT AS ttf
FROM grams GROUP BY g
"""


_EMOJI_SNIPPETS = (
    "\U0001F4A9 the #️⃣ tag",
    "\U0001F469‍❤️‍\U0001F469 flags "
    "\U0001F1FA\U0001F1F8\U0001F1FA\U0001F1F8",
    "poo\U0001F4A9poo 中文",
    "skin \U0001F468\U0001F3FC‍⚕️ tone 3️⃣",
    "no emoji here don't 3.14",
)


def emoji_stats(sf_dir: str) -> "ray.data.Dataset":
    """(doc_id, n_tokens, n_emoji) through the unicode_emoji analyzer
    (UAX#29 9.x emoji word-break lite — ZWJ sequences, flags, keycaps,
    modifiers; analysis/analyzer.py UnicodeEmojiAnalyzer, pinned by the
    reference's TestStandardAnalyzer emoji vectors). The corpus text has
    no emoji, so both sides append the same deterministic
    doc_id-keyed snippet (the pii_scrub synthetic-column pattern); the
    tokenizer's SQL mirror reproduces the stream exactly."""
    import pyarrow.compute as pc

    from lucene_ray.analysis import get_analyzer

    def stats(batch: pa.Table) -> pa.Table:
        an = get_analyzer("unicode_emoji")
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        txt = batch.column("text").to_pylist()
        aug = pa.array(
            [t + " " + _EMOJI_SNIPPETS[int(i) % 5] for t, i in zip(txt, ids)],
            type=pa.string(),
        )
        row_idx, terms, _pos = an.tokenize_flat(aug)
        n = batch.num_rows
        total = np.bincount(row_idx, minlength=n).astype(np.int64)
        is_emoji = pc.match_substring_regex(
            terms, _EMOJI_TOKEN_RE
        ).to_numpy(zero_copy_only=False)
        emo = np.bincount(
            row_idx[is_emoji], minlength=n
        ).astype(np.int64)
        return pa.table(
            {
                "doc_id": pa.array(ids, type=pa.int64()),
                "n_tokens": pa.array(total, type=pa.int64()),
                "n_emoji": pa.array(emo, type=pa.int64()),
            }
        )

    return _docs(sf_dir).map_batches(stats, batch_format="pyarrow", batch_size=4096)


_EMOJI_TOKEN_RE = (
    r"[\x{2600}-\x{27BF}\x{2B00}-\x{2BFF}\x{1F000}-\x{1F0FF}"
    r"\x{1F300}-\x{1F5FF}\x{1F600}-\x{1F64F}\x{1F680}-\x{1F6FF}"
    r"\x{1F900}-\x{1F9FF}\x{1FA70}-\x{1FAFF}\x{1F1E6}-\x{1F1FF}]"
    r"|^[#*0-9]\x{FE0F}?\x{20E3}"
)


def emoji_stats_sql() -> str:
    from lucene_ray.analysis.analyzer import UnicodeEmojiAnalyzer

    snippets = ", ".join("'" + s.replace("'", "''") + "'"
                         for s in _EMOJI_SNIPPETS)
    toks = UnicodeEmojiAnalyzer.sql_expr("aug")
    emoji_re = _EMOJI_TOKEN_RE.replace("'", "''")
    return f"""
WITH augd AS (
  SELECT doc_id,
         text || ' ' || ([{snippets}])[(doc_id % 5)::INTEGER + 1] AS aug
  FROM documents
), tok AS (
  SELECT doc_id, unnest({toks}) AS term FROM augd
), agg AS (
  SELECT doc_id, count(*)::BIGINT AS n_tokens,
         count(*) FILTER (regexp_matches(term, '{emoji_re}'))::BIGINT AS n_emoji
  FROM tok GROUP BY doc_id
)
SELECT d.doc_id, coalesce(a.n_tokens, 0) AS n_tokens,
       coalesce(a.n_emoji, 0) AS n_emoji
FROM documents d LEFT JOIN agg a USING (doc_id)
"""


_CJK_SNIPPETS = (
    "多くの学生が試験に落ちた",
    "한국어 형태소 분석 と ﾊﾟﾅｿﾆｯｸ",
    "ＴＥＳＴ ｶﾞｷﾞｸﾞ カタカナ・ｶﾀｶﾅ",
    "中文分词测试 ひらがな交じりのテキストー",
    "一 二三四 五六七八九 十",
)
_CJK_TOKEN_SQL_RE = (
    r"^[\p{Han}\p{Hiragana}\p{Katakana}\p{Hangul}\x{30FC}]"
)


def cjk_stats(sf_dir: str) -> "ray.data.Dataset":
    """(doc_id, n_tokens, n_bigrams) through the CJK analyzer
    (cjk/CJKAnalyzer.java: width fold -> lowercase -> script-run bigrams
    -> stop filter; analysis/analyzer.py CJKAnalyzer, pinned by the
    reference's TestCJKAnalyzer vectors). The corpus text has no CJK, so
    both sides append the same deterministic doc_id-keyed snippet (the
    emoji_stats pattern) — the snippets exercise halfwidth-katakana voice
    marks, fullwidth ASCII, all four scripts, and lone-char unigrams."""
    import pyarrow.compute as pc

    from lucene_ray.analysis import get_analyzer

    def stats(batch: pa.Table) -> pa.Table:
        an = get_analyzer("cjk")
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        txt = batch.column("text").to_pylist()
        aug = pa.array(
            [t + " " + _CJK_SNIPPETS[int(i) % 5] for t, i in zip(txt, ids)],
            type=pa.string(),
        )
        row_idx, terms, _pos = an.tokenize_flat(aug)
        n = batch.num_rows
        total = np.bincount(row_idx, minlength=n).astype(np.int64)
        is_cjk = pc.match_substring_regex(
            terms, _CJK_TOKEN_SQL_RE
        ).to_numpy(zero_copy_only=False)
        big = np.bincount(row_idx[is_cjk], minlength=n).astype(np.int64)
        return pa.table(
            {
                "doc_id": pa.array(ids, type=pa.int64()),
                "n_tokens": pa.array(total, type=pa.int64()),
                "n_bigrams": pa.array(big, type=pa.int64()),
            }
        )

    return _docs(sf_dir).map_batches(stats, batch_format="pyarrow", batch_size=4096)


def cjk_stats_sql() -> str:
    from lucene_ray.analysis.analyzer import CJKAnalyzer

    snippets = ", ".join("'" + s.replace("'", "''") + "'"
                         for s in _CJK_SNIPPETS)
    toks = CJKAnalyzer.sql_expr("aug")
    return f"""
WITH augd AS (
  SELECT doc_id,
         text || ' ' || ([{snippets}])[(doc_id % 5)::INTEGER + 1] AS aug
  FROM documents
), tok AS (
  SELECT doc_id, unnest({toks}) AS term FROM augd
), agg AS (
  SELECT doc_id, count(*)::BIGINT AS n_tokens,
         count(*) FILTER (regexp_matches(term, '{_CJK_TOKEN_SQL_RE}'))::BIGINT
           AS n_bigrams
  FROM tok GROUP BY doc_id
)
SELECT d.doc_id, coalesce(a.n_tokens, 0) AS n_tokens,
       coalesce(a.n_bigrams, 0) AS n_bigrams
FROM documents d LEFT JOIN agg a USING (doc_id)
"""


def fingerprint_stats(sf_dir: str) -> "ray.data.Dataset":
    """(doc_id, fingerprint) — FingerprintFilter over the code-analyzer
    token stream (miscellaneous/FingerprintFilter.java: unique terms
    sorted + space-joined, discarded whole when the joined size exceeds
    1024). The document-fingerprinting primitive for clustering-style
    dedup; NULL when no output token (empty doc or over-budget)."""
    from lucene_ray.analysis.analyzer import CodeAnalyzer
    from lucene_ray.analysis.filters import fingerprint_lists

    def stats(batch: pa.Table) -> pa.Table:
        an = CodeAnalyzer()
        toks = an.tokenize_array(batch.column("text").combine_chunks())
        fps = fingerprint_lists(toks)
        out = [row[0] if row else None for row in fps.to_pylist()]
        return pa.table(
            {
                "doc_id": batch.column("doc_id").cast(pa.int64()),
                "fingerprint": pa.array(out, type=pa.string()),
            }
        )

    return _docs(sf_dir).map_batches(stats, batch_format="pyarrow", batch_size=4096)


def fingerprint_stats_sql() -> str:
    toks = tokenize_sql_expr("text")
    return f"""
WITH f AS (
  SELECT doc_id,
         array_to_string(list_sort(list_distinct({toks})), ' ') AS joined,
         len(list_distinct({toks})) AS n
  FROM documents
)
SELECT doc_id,
       CASE WHEN n > 0 AND length(joined) <= 1024 THEN joined END
         AS fingerprint
FROM f
"""


def tokenfilters_stats(sf_dir: str) -> "ray.data.Dataset":
    """(doc_id, n_tokens, n_distinct) through a LengthFilter(2,10) ->
    TruncateTokenFilter(8) chain (miscellaneous/LengthFilter.java,
    TruncateTokenFilterFactory.java) over the code-analyzer stream —
    the filter-composition surface with an exact SQL mirror."""
    from lucene_ray.analysis.analyzer import CodeAnalyzer
    from lucene_ray.analysis.filters import length_filter_lists, truncate_lists

    def stats(batch: pa.Table) -> pa.Table:
        an = CodeAnalyzer()
        toks = an.tokenize_array(batch.column("text").combine_chunks())
        toks = truncate_lists(length_filter_lists(toks, 2, 10), 8)
        offs = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
        n_tok = np.diff(offs)
        nd = [len(set(row)) for row in toks.to_pylist()]
        return pa.table(
            {
                "doc_id": batch.column("doc_id").cast(pa.int64()),
                "n_tokens": pa.array(n_tok, type=pa.int64()),
                "n_distinct": pa.array(nd, type=pa.int64()),
            }
        )

    return _docs(sf_dir).map_batches(stats, batch_format="pyarrow", batch_size=4096)


def tokenfilters_stats_sql() -> str:
    toks = tokenize_sql_expr("text")
    chain = (
        f"list_transform(list_filter({toks}, "
        f"t -> length(t) BETWEEN 2 AND 10), t -> substr(t, 1, 8))"
    )
    return f"""
SELECT doc_id,
       len({chain})::BIGINT AS n_tokens,
       len(list_distinct({chain}))::BIGINT AS n_distinct
FROM documents
"""


_COMPOUND_SNIPPETS = (
    "Rindfleischüberwachungsgesetz im Test",
    "die Überwachungsaufgabe der Gesetzgebung",
    "Drahtschere und Aufgabenübertragung",
    "Fleischgesetz ohne Rind",
    "no compounds in this one",
)


def compound_stats(sf_dir: str) -> "ray.data.Dataset":
    """(doc_id, n_tokens, n_dict_hits) through the dictionary-compound
    analyzer (compound/DictionaryCompoundWordTokenFilter.java — original
    token kept, dictionary subwords injected as posInc-0 overlaps). The
    corpus has no German compounds, so both sides append a deterministic
    doc_id-keyed snippet (the emoji_stats pattern); n_dict_hits counts
    tokens that are dictionary members (subwords + standalone parts)."""
    import pyarrow.compute as pc

    from lucene_ray.analysis import get_analyzer

    def stats(batch: pa.Table) -> pa.Table:
        an = get_analyzer("compound")
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        txt = batch.column("text").to_pylist()
        aug = pa.array(
            [
                t + " " + _COMPOUND_SNIPPETS[int(i) % 5]
                for t, i in zip(txt, ids)
            ],
            type=pa.string(),
        )
        row_idx, terms, _pos = an.tokenize_flat(aug)
        n = batch.num_rows
        total = np.bincount(row_idx, minlength=n).astype(np.int64)
        hit = pc.is_in(
            terms, value_set=pa.array(sorted(an.dictionary))
        ).to_numpy(zero_copy_only=False)
        hits = np.bincount(row_idx[hit], minlength=n).astype(np.int64)
        return pa.table(
            {
                "doc_id": pa.array(ids, type=pa.int64()),
                "n_tokens": pa.array(total, type=pa.int64()),
                "n_dict_hits": pa.array(hits, type=pa.int64()),
            }
        )

    return _docs(sf_dir).map_batches(stats, batch_format="pyarrow", batch_size=4096)


def compound_stats_sql() -> str:
    from lucene_ray.analysis.filters import DictionaryCompoundAnalyzer

    snippets = ", ".join(
        "'" + s.replace("'", "''") + "'" for s in _COMPOUND_SNIPPETS
    )
    toks = DictionaryCompoundAnalyzer.sql_expr("aug")
    words = ", ".join(
        f"'{w}'" for w in sorted(DictionaryCompoundAnalyzer.dictionary)
    )
    return f"""
WITH augd AS (
  SELECT doc_id,
         text || ' ' || ([{snippets}])[(doc_id % 5)::INTEGER + 1] AS aug
  FROM documents
), tok AS (
  SELECT doc_id, unnest({toks}) AS term FROM augd
), agg AS (
  SELECT doc_id, count(*)::BIGINT AS n_tokens,
         count(*) FILTER (term IN ({words}))::BIGINT AS n_dict_hits
  FROM tok GROUP BY doc_id
)
SELECT d.doc_id, coalesce(a.n_tokens, 0) AS n_tokens,
       coalesce(a.n_dict_hits, 0) AS n_dict_hits
FROM documents d LEFT JOIN agg a USING (doc_id)
"""


def pattern_stats(sf_dir: str) -> "ray.data.Dataset":
    """(doc_id, n_tokens, n_distinct, n_captures) through the pattern
    package: PatternTokenizer split mode over lowered text +
    PatternReplaceFilter (digit runs -> '#') for the token counts, and a
    group-mode extraction ('([a-z]{3,})ing' group 1) for n_captures —
    pattern/PatternTokenizer.java, PatternReplaceFilter.java. Every
    pattern is RE2-safe so the DuckDB mirror is exact."""
    from lucene_ray.analysis.pattern import (
        PatternTokenizerAnalyzer,
        pattern_replace_lists,
        pattern_tokenize,
    )

    def stats(batch: pa.Table) -> pa.Table:
        an = PatternTokenizerAnalyzer(pattern=r"[^a-z0-9']+")
        txt = [t or "" for t in batch.column("text").to_pylist()]
        toks = an.tokenize_array(batch.column("text").combine_chunks())
        toks = pattern_replace_lists(toks, "[0-9]+", "#")
        rows = toks.to_pylist()
        caps = [
            len(pattern_tokenize(t.lower(), r"([a-z]{3,})ing", 1))
            for t in txt
        ]
        return pa.table(
            {
                "doc_id": batch.column("doc_id").cast(pa.int64()),
                "n_tokens": pa.array(
                    [len(r) for r in rows], type=pa.int64()
                ),
                "n_distinct": pa.array(
                    [len(set(r)) for r in rows], type=pa.int64()
                ),
                "n_captures": pa.array(caps, type=pa.int64()),
            }
        )

    return _docs(sf_dir).map_batches(stats, batch_format="pyarrow", batch_size=4096)


def pattern_stats_sql() -> str:
    chain = (
        "list_transform("
        "list_filter(string_split_regex(lower(text), '[^a-z0-9'']+'), "
        "t -> t <> ''), "
        "t -> regexp_replace(t, '[0-9]+', '#', 'g'))"
    )
    caps = (
        "len(list_filter("
        "regexp_extract_all(lower(text), '([a-z]{3,})ing', 1), "
        "t -> t <> ''))"
    )
    return f"""
SELECT doc_id,
       len({chain})::BIGINT AS n_tokens,
       len(list_distinct({chain}))::BIGINT AS n_distinct,
       {caps}::BIGINT AS n_captures
FROM documents
"""


_SR_SNIPPETS = (
    "Ђуро и Љиљана читају књигу",
    "čokolada je slatka ali zdrava nije",
    "ученик пише задатак сваки дан",
    "švedski jež đak pažljivo džem",
    "plain english filler words",
)


def srfold_stats(sf_dir: str) -> "ray.data.Dataset":
    """(doc_id, n_tokens, n_distinct) through the serbian_fold chain
    (sr/SerbianAnalyzer.java minus its Snowball stemmer: lowercase ->
    Latin+Cyrillic stop list -> SerbianNormalizationFilter bald-Latin
    fold with digraph expansion). Deterministic doc_id-keyed Serbian
    snippets appended on both sides (the emoji_stats pattern)."""
    from lucene_ray.analysis import get_analyzer

    def stats(batch: pa.Table) -> pa.Table:
        an = get_analyzer("serbian_fold")
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        txt = batch.column("text").to_pylist()
        aug = pa.array(
            [t + " " + _SR_SNIPPETS[int(i) % 5] for t, i in zip(txt, ids)],
            type=pa.string(),
        )
        row_idx, terms, _pos = an.tokenize_flat(aug)
        n = batch.num_rows
        total = np.bincount(row_idx, minlength=n).astype(np.int64)
        nd = np.zeros(n, dtype=np.int64)
        import pandas as pd

        if len(row_idx):
            g = pd.DataFrame(
                {"r": row_idx, "t": terms.to_pylist()}
            ).groupby("r")["t"].nunique()
            nd[g.index.to_numpy()] = g.to_numpy()
        return pa.table(
            {
                "doc_id": pa.array(ids, type=pa.int64()),
                "n_tokens": pa.array(total, type=pa.int64()),
                "n_distinct": pa.array(nd, type=pa.int64()),
            }
        )

    return _docs(sf_dir).map_batches(stats, batch_format="pyarrow", batch_size=4096)


def srfold_stats_sql() -> str:
    from lucene_ray.analysis.analyzer import UnicodeAnalyzer
    from lucene_ray.analysis.stoplists import SERBIAN_LUCENE_STOP

    snippets = ", ".join(
        "'" + s.replace("'", "''") + "'" for s in _SR_SNIPPETS
    )
    toks = UnicodeAnalyzer.sql_expr("aug")
    stops = ", ".join(f"'{w}'" for w in sorted(SERBIAN_LUCENE_STOP))
    # digraph replaces first (their sources are outside the 1:1 map)
    fold = "t"
    for a, b in (("ђ", "dj"), ("đ", "dj"), ("љ", "lj"), ("њ", "nj"),
                 ("џ", "dz")):
        fold = f"replace({fold}, '{a}', '{b}')"
    # 1:1 map kept in lockstep with stemmers2._SR_MAP
    one_from = "абвгдежзијклмнопрстћцчуфхшžčćš"
    one_to = "abvgdezzijklmnoprstcccufhszccs"
    fold = f"translate({fold}, '{one_from}', '{one_to}')"
    return f"""
WITH augd AS (
  SELECT doc_id,
         text || ' ' || ([{snippets}])[(doc_id % 5)::INTEGER + 1] AS aug
  FROM documents
), tok AS (
  SELECT doc_id,
         unnest(list_transform(list_filter({toks},
           t -> t NOT IN ({stops})), t -> {fold})) AS term
  FROM augd
), agg AS (
  SELECT doc_id, count(*)::BIGINT AS n_tokens,
         count(DISTINCT term)::BIGINT AS n_distinct
  FROM tok GROUP BY doc_id
)
SELECT d.doc_id, coalesce(a.n_tokens, 0) AS n_tokens,
       coalesce(a.n_distinct, 0) AS n_distinct
FROM documents d LEFT JOIN agg a USING (doc_id)
"""


_URLEMAIL_SNIPPETS = (
    "contact Admin.User+x@Example.COM now",
    "docs at https://lucene.apache.org/core?q=1#frag here",
    "mirror www.Example.org/path and ftp://files.example.com/a.txt",
    "no urls don't 3.14 example.com",
    "two mails a@b.io c.d@e-f.co.uk",
)


def urlemail_stats(sf_dir: str) -> "ray.data.Dataset":
    """(doc_id, n_tokens, n_url_email) through the UAX29URLEmailTokenizer-
    lite analyzer (email/UAX29URLEmailTokenizer.java as spec; whitespace-
    delimited URL/email spans kept whole + lowered, the documented
    subset). Deterministic doc_id-keyed snippets appended on both sides
    (the emoji_stats pattern)."""
    import pyarrow.compute as pc

    from lucene_ray.analysis import get_analyzer
    from lucene_ray.analysis.urlemail import URL_EMAIL_RE

    def stats(batch: pa.Table) -> pa.Table:
        an = get_analyzer("url_email")
        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        txt = batch.column("text").to_pylist()
        aug = pa.array(
            [
                t + " " + _URLEMAIL_SNIPPETS[int(i) % 5]
                for t, i in zip(txt, ids)
            ],
            type=pa.string(),
        )
        row_idx, terms, _pos = an.tokenize_flat(aug)
        n = batch.num_rows
        total = np.bincount(row_idx, minlength=n).astype(np.int64)
        hit = pc.match_substring_regex(terms, URL_EMAIL_RE).to_numpy(
            zero_copy_only=False
        )
        ue = np.bincount(row_idx[hit], minlength=n).astype(np.int64)
        return pa.table(
            {
                "doc_id": pa.array(ids, type=pa.int64()),
                "n_tokens": pa.array(total, type=pa.int64()),
                "n_url_email": pa.array(ue, type=pa.int64()),
            }
        )

    return _docs(sf_dir).map_batches(stats, batch_format="pyarrow", batch_size=4096)


def urlemail_stats_sql() -> str:
    from lucene_ray.analysis.urlemail import URL_EMAIL_RE, UrlEmailAnalyzer

    snippets = ", ".join(
        "'" + s.replace("'", "''") + "'" for s in _URLEMAIL_SNIPPETS
    )
    toks = UrlEmailAnalyzer.sql_expr("aug")
    pat = URL_EMAIL_RE.replace("'", "''")
    return f"""
WITH augd AS (
  SELECT doc_id,
         text || ' ' || ([{snippets}])[(doc_id % 5)::INTEGER + 1] AS aug
  FROM documents
), tok AS (
  SELECT doc_id, unnest({toks}) AS term FROM augd
), agg AS (
  SELECT doc_id, count(*)::BIGINT AS n_tokens,
         count(*) FILTER (regexp_matches(term, '{pat}'))::BIGINT
           AS n_url_email
  FROM tok GROUP BY doc_id
)
SELECT d.doc_id, coalesce(a.n_tokens, 0) AS n_tokens,
       coalesce(a.n_url_email, 0) AS n_url_email
FROM documents d LEFT JOIN agg a USING (doc_id)
"""


PACK_SEQ_LEN = 512  # tokens per packed training sequence


def pack_sequences(sf_dir: str) -> "ray.data.Dataset":
    """(doc_id, n_tokens, start_tok, start_seq, end_seq, n_boundaries):
    GPT-style sequence packing — documents concatenated in doc_id order
    and cut into fixed PACK_SEQ_LEN-token training sequences; each doc
    reports its global token offset, the sequences it touches, and how
    many sequence boundaries fall inside it. Two streaming passes (the
    _exact_topk shape): pass 1 emits ONE (first_doc_id, batch_tokens) row
    per batch so the driver holds O(batches) ints for the global prefix
    sum; pass 2 re-streams, adds the batch base to a batch-local cumsum
    and assigns sequences arithmetically. No shuffle, no driver-side doc
    rows; at 100 TB the doc->sequence map writes straight to parquet."""

    import pyarrow.parquet as pq

    path = f"{sf_dir}/documents.parquet"
    n_rg = pq.ParquetFile(path).metadata.num_row_groups
    # the chunking unit must be IDENTICAL across both passes — Ray Data
    # batch boundaries are not guaranteed stable, Parquet row groups are
    # (the builder's footer-planning pattern)
    specs = ray.data.from_items([{"rg": i} for i in range(n_rg)])

    def _rg_tokens(rg: int):
        an = CodeAnalyzer()
        t = pq.ParquetFile(path).read_row_group(rg, columns=["doc_id", "text"])
        row_idx, _t, _p = an.tokenize_flat(t.column("text").combine_chunks())
        tok = np.bincount(row_idx, minlength=t.num_rows).astype(np.int64)
        return t.column("doc_id").to_numpy(zero_copy_only=False), tok

    def counts(batch: pa.Table) -> pa.Table:
        out_rg, out_n = [], []
        for rg in batch.column("rg").to_pylist():
            _ids, tok = _rg_tokens(rg)
            out_rg.append(rg)
            out_n.append(int(tok.sum()))
        return pa.table(
            {
                "rg": pa.array(out_rg, type=pa.int64()),
                "rg_tokens": pa.array(out_n, type=pa.int64()),
            }
        )

    # pass 1: per-row-group token totals -> O(row groups) driver ints
    st = specs.map_batches(
        counts, batch_format="pyarrow", batch_size=4
    ).to_pandas().sort_values("rg")
    cum = st.rg_tokens.cumsum() - st.rg_tokens
    rg_base = dict(zip(st.rg.tolist(), cum.tolist()))

    def assign(batch: pa.Table) -> pa.Table:
        outs = []
        for rg in batch.column("rg").to_pylist():
            ids, tok = _rg_tokens(rg)
            start = rg_base[rg] + np.cumsum(tok) - tok
            end = start + np.maximum(tok, 1) - 1  # empty doc at its start
            start_seq = start // PACK_SEQ_LEN
            end_seq = end // PACK_SEQ_LEN
            outs.append(
                pa.table(
                    {
                        "doc_id": pa.array(ids, type=pa.int64()),
                        "n_tokens": pa.array(tok, type=pa.int64()),
                        "start_tok": pa.array(start, type=pa.int64()),
                        "start_seq": pa.array(start_seq, type=pa.int64()),
                        "end_seq": pa.array(end_seq, type=pa.int64()),
                        "n_boundaries": pa.array(
                            end_seq - start_seq, type=pa.int64()
                        ),
                    }
                )
            )
        return pa.concat_tables(outs)

    return specs.map_batches(assign, batch_format="pyarrow", batch_size=4)


def pack_sequences_sql() -> str:
    toks = tokenize_sql_expr("text")
    # the window sum is HUGEINT in DuckDB — cast back to BIGINT so the
    # dtype-sensitive schema check matches the engine's int64 columns
    return f"""
WITH counts AS (
  SELECT doc_id, CAST(len({toks}) AS BIGINT) AS n_tokens FROM documents
), offs AS (
  SELECT doc_id, n_tokens,
         CAST(sum(n_tokens) OVER (ORDER BY doc_id
            ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
          - n_tokens AS BIGINT) AS start_tok
  FROM counts
)
SELECT doc_id, n_tokens, start_tok,
       CAST(start_tok // {PACK_SEQ_LEN} AS BIGINT) AS start_seq,
       CAST((start_tok + greatest(n_tokens, 1) - 1) // {PACK_SEQ_LEN}
            AS BIGINT) AS end_seq,
       CAST((start_tok + greatest(n_tokens, 1) - 1) // {PACK_SEQ_LEN}
        - start_tok // {PACK_SEQ_LEN} AS BIGINT) AS n_boundaries
FROM offs
"""


# ----------------------------------------------- PII / URL scrub (quality)

_EMAIL_RE = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}"
_URL_RE = r"https?://[^\s]+"


def pii_scrub(sf_dir: str) -> "ray.data.Dataset":
    """(doc_id, n_emails, n_urls, scrubbed_sha): email/URL redaction — the
    training-data PII-scrub stage. The corpus text carries no PII, so both
    sides derive the same synthetic column (text + a doc-keyed email + a
    URL) and scrub it; redaction itself is pure vectorized RE2
    (pyarrow.compute replace/count_substring_regex — the same regex engine
    DuckDB uses, so the sha256 of the scrubbed text hashes exactly)."""
    import pyarrow.compute as pc

    def scrub(batch: pa.Table) -> pa.Table:
        import hashlib

        ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        text = batch.column("text").cast(pa.string())
        src = batch.column("source").cast(pa.string())
        withpii = pc.binary_join_element_wise(
            text,
            pa.array([f"contact: user{i}@example.com see" for i in ids]),
            src,
            " ",
        )
        n_em = pc.count_substring_regex(withpii, _EMAIL_RE).cast(pa.int64())
        n_url = pc.count_substring_regex(
            pc.replace_substring_regex(withpii, _EMAIL_RE, "<EMAIL>"),
            _URL_RE,
        ).cast(pa.int64())
        clean = pc.replace_substring_regex(
            pc.replace_substring_regex(withpii, _EMAIL_RE, "<EMAIL>"),
            _URL_RE,
            "<URL>",
        )
        sha = pa.array(
            [hashlib.sha256(s.encode()).hexdigest() for s in clean.to_pylist()]
        )
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_emails": n_em,
                "n_urls": n_url,
                "scrubbed_sha": sha,
            }
        )

    return _docs_with(sf_dir, ["doc_id", "text", "source"]).map_batches(
        scrub, batch_format="pyarrow", batch_size=4096
    )


def _docs_with(sf_dir: str, columns: list) -> "ray.data.Dataset":
    return ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=columns
    )


def pii_scrub_sql() -> str:
    return f"""
WITH withpii AS (
  SELECT doc_id,
         text || ' ' || 'contact: user' || doc_id ||
         '@example.com see' || ' ' || source AS t
  FROM documents
)
SELECT doc_id,
  length(regexp_extract_all(t, '{_EMAIL_RE}'))::BIGINT AS n_emails,
  length(regexp_extract_all(
      regexp_replace(t, '{_EMAIL_RE}', '<EMAIL>', 'g'), '{_URL_RE}'
  ))::BIGINT AS n_urls,
  sha256(regexp_replace(
      regexp_replace(t, '{_EMAIL_RE}', '<EMAIL>', 'g'),
      '{_URL_RE}', '<URL>', 'g'
  )) AS scrubbed_sha
FROM withpii
"""


def unicode_stats(sf_dir: str) -> "ray.data.Dataset":
    """(term, df, ttf) under the UnicodeAnalyzer (UAX#29-lite beyond ASCII:
    \\p{L}\\p{N} ALPHANUM runs, single-char Han/Hiragana tokens —
    analysis/standard/StandardTokenizerImpl.jflex:23-92), mirrored in SQL by
    the same RE2 passes. Golden Unicode conformance (CJK/kana/full-width)
    lives in tests/test_analyzer.py."""
    from lucene_ray.analysis.analyzer import UnicodeAnalyzer

    def partial(batch: pa.Table) -> pa.Table:
        an = UnicodeAnalyzer()
        row_idx, terms, _pos = an.tokenize_flat(
            batch.column("text").combine_chunks()
        )
        return _partial_term_stats(row_idx, terms)

    partials = _docs(sf_dir).map_batches(
        partial, batch_format="pyarrow", batch_size=4096
    )
    return partials.groupby("term").aggregate(
        Sum("df", alias_name="df"), Sum("ttf", alias_name="ttf")
    )


def unicode_stats_sql() -> str:
    from lucene_ray.analysis.analyzer import UnicodeAnalyzer

    toks = UnicodeAnalyzer.sql_expr("text")
    return f"""
{tok_cte(toks)}, per_doc AS (
  SELECT doc_id, term, count(*) AS tf FROM tok GROUP BY doc_id, term
)
SELECT term, count(*)::BIGINT AS df, sum(tf)::BIGINT AS ttf
FROM per_doc GROUP BY term
"""


def phonetic_doclen(sf_dir: str) -> "ray.data.Dataset":
    """(doc_id, n_dm, n_dms) per document through the phonetic_dmetaphone
    and phonetic_dmsoundex chains (analysis/analyzer.py
    MultiPhoneticAnalyzer — DoubleMetaphoneFilter.java /
    DaitchMokotoffSoundexFilter.java inject mode). The ORACLE-checkable
    half: injected codes are posInc-0 overlaps, so the count of DISTINCT
    POSITIONS per doc equals the plain code-tokenizer count (exact SQL
    mirror) for BOTH chains — witnessing that every original survives and
    every code lands on an occupied position. The code VALUES are covered
    by the encoder goldens (tests/test_phonetic.py), not SQL. Pure
    map_batches, no shuffle."""
    from lucene_ray.analysis.analyzer import (
        DaitchMokotoffAnalyzer,
        MultiPhoneticAnalyzer,
    )

    def stats(batch: pa.Table) -> pa.Table:
        doc_ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        text = batch.column("text").combine_chunks()
        n = batch.num_rows
        out = {"doc_id": pa.array(doc_ids, type=pa.int64())}
        for col, an in (
            ("n_dm", MultiPhoneticAnalyzer()),
            ("n_dms", DaitchMokotoffAnalyzer()),
        ):
            row_idx, _terms, pos = an.tokenize_flat(text)[:3]
            # distinct (row, position) pairs = non-overlap token count
            if len(row_idx):
                width = int(pos.max()) + 1
                key = row_idx.astype(np.int64) * width + pos.astype(np.int64)
                rows = (np.unique(key) // width).astype(np.int64)
                counts = np.bincount(rows, minlength=n).astype(np.int64)
            else:
                counts = np.zeros(n, np.int64)
            out[col] = pa.array(counts, type=pa.int64())
        return pa.table(out)

    return _docs(sf_dir).map_batches(stats, batch_format="pyarrow", batch_size=4096)


def phonetic_doclen_sql() -> str:
    return f"""
{tok_cte()}, agg AS (
  SELECT doc_id, count(*)::BIGINT AS n FROM tok GROUP BY doc_id
)
SELECT d.doc_id, coalesce(a.n, 0) AS n_dm, coalesce(a.n, 0) AS n_dms
FROM documents d LEFT JOIN agg a USING (doc_id)
"""


# ---------------------------------------------------------------------------
# DSIR-style importance weights (Data Selection via Importance Resampling,
# Xie et al. 2023, arXiv:2302.03169 — public method): rank raw documents by
# how target-like their hashed n-gram feature distribution is.

DSIR_BUCKETS = 9973  # prime feature-hash width
DSIR_TARGET_LANG = "en"


def _dsir_bucket(s: str) -> int:
    """Character-fold bucket hash — (h*31 + codepoint) % DSIR_BUCKETS, the
    SQL-reproducible stand-in for the paper's feature hash (DuckDB twin:
    list_reduce over string_split chars; parity pinned by the gate)."""
    h = 0
    for ch in s:
        h = (h * 31 + ord(ch)) % DSIR_BUCKETS
    return h


def _dsir_doc_features(tokens: list[str], cache: dict) -> list[int]:
    """Ordered feature sequence of one doc: unigram buckets in token
    order, then bigram buckets ('t1 t2') in position order — the fixed
    fold order the float oracle mirrors."""
    out = []
    for t in tokens:
        b = cache.get(t)
        if b is None:
            b = cache[t] = _dsir_bucket(t)
        out.append(b)
    for i in range(len(tokens) - 1):
        bg = tokens[i] + " " + tokens[i + 1]
        b = cache.get(bg)
        if b is None:
            b = cache[bg] = _dsir_bucket(bg)
        out.append(b)
    return out


def dsir_weights(sf_dir: str, target_lang: str = DSIR_TARGET_LANG):
    """(doc_id, weight): DSIR importance weight per document (see
    :func:`_dsir_weigher`)."""
    docs, weigh = _dsir_weigher(sf_dir, target_lang)
    return docs.map_batches(weigh, batch_format="pyarrow", batch_size=4096)


def _dsir_weigher(sf_dir: str, target_lang: str):
    """(documents dataset, weigh): ``weigh`` maps a documents batch to
    (doc_id, weight), the DSIR importance weight per document —
    weight(d) = sum over d's hashed unigram+bigram features of
    ln p_target(b) - ln p_raw(b), with add-one smoothing over
    DSIR_BUCKETS buckets; target = docs with lang == target_lang, raw =
    the whole corpus. High weight = looks like the target distribution;
    resampling takes the top fraction (or Gumbel-perturbed top-k — the
    paper's stochastic variant; deterministic ranking is the gate's
    observable).

    Shape at scale: pass 1 is map_batches partial bucket counts reduced
    by a groupby over at most DSIR_BUCKETS keys (corpus-size-independent
    driver state); pass 2 broadcasts the per-bucket ln-ratio LUT via
    ray.put and streams documents. The per-doc fold is LEFT-ASSOCIATIVE
    in feature order — the float-oracle protocol (a production variant
    may sum in any order; the gate's chain is the pinned spec)."""
    import math

    def partial_counts(batch: pa.Table) -> pa.Table:
        an = CodeAnalyzer()
        toks = an.tokenize_array(batch.column("text").combine_chunks())
        langs = batch.column("lang").to_pylist()
        cache: dict = {}
        ct = np.zeros(DSIR_BUCKETS, dtype=np.int64)
        cr = np.zeros(DSIR_BUCKETS, dtype=np.int64)
        for row, lang in zip(toks.to_pylist(), langs):
            for b in _dsir_doc_features(row, cache):
                cr[b] += 1
                if lang == target_lang:
                    ct[b] += 1
        nz = np.nonzero(cr)[0]
        return pa.table(
            {
                "bucket": pa.array(nz, type=pa.int64()),
                "ct": pa.array(ct[nz], type=pa.int64()),
                "cr": pa.array(cr[nz], type=pa.int64()),
            }
        )

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang", "text"]
    )
    counts = (
        ds.map_batches(partial_counts, batch_format="pyarrow", batch_size=4096)
        .groupby("bucket")
        .sum(["ct", "cr"])
        .to_pandas()  # <= DSIR_BUCKETS rows, corpus-size-independent
    )
    ct = np.zeros(DSIR_BUCKETS, dtype=np.int64)
    cr = np.zeros(DSIR_BUCKETS, dtype=np.int64)
    ct[counts["bucket"].to_numpy()] = counts["sum(ct)"].to_numpy()
    cr[counts["bucket"].to_numpy()] = counts["sum(cr)"].to_numpy()
    nt, nr = int(ct.sum()), int(cr.sum())
    lut = np.empty(DSIR_BUCKETS, dtype=np.float64)
    den_t, den_r = nt + DSIR_BUCKETS, nr + DSIR_BUCKETS
    for b in range(DSIR_BUCKETS):
        lut[b] = math.log((int(ct[b]) + 1) / den_t) - math.log(
            (int(cr[b]) + 1) / den_r
        )
    lut_ref = ray.put(lut)

    def weigh(batch: pa.Table) -> pa.Table:
        table = ray.get(lut_ref)
        an = CodeAnalyzer()
        toks = an.tokenize_array(batch.column("text").combine_chunks())
        cache: dict = {}
        out = []
        for row in toks.to_pylist():
            w = 0.0
            for b in _dsir_doc_features(row, cache):
                w += float(table[b])
            out.append(w)
        return pa.table(
            {
                "doc_id": batch.column("doc_id").cast(pa.int64()),
                "weight": pa.array(out, type=pa.float64()),
            }
        )

    return ds, weigh


def dsir_weights_sql() -> str:
    toks = tokenize_sql_expr("text")
    bucket = (
        "list_reduce(list_prepend(0, list_transform(string_split({s}, '')"
        ", c -> ord(c))), (a, c) -> (a * 31 + c) % {m})"
    )
    b_uni = bucket.format(s="term", m=DSIR_BUCKETS)
    b_big = bucket.format(s="t0.term || ' ' || t1.term", m=DSIR_BUCKETS)
    return f"""
WITH t AS (
  SELECT d.doc_id, d.lang, {toks} AS l FROM documents d
), tok AS (
  SELECT doc_id, lang, unnest(l) AS term,
         generate_subscripts(l, 1) - 1 AS pos, len(l) AS dl
  FROM t
), feat AS (
  SELECT doc_id, lang, pos AS ord, {b_uni} AS b FROM tok
  UNION ALL
  SELECT t0.doc_id, t0.lang, t0.dl + t0.pos AS ord, {b_big} AS b
  FROM tok t0 JOIN tok t1
    ON t1.doc_id = t0.doc_id AND t1.pos = t0.pos + 1
), counts AS (
  SELECT b,
         count(*) FILTER (lang = '{DSIR_TARGET_LANG}') AS ct,
         count(*) AS cr
  FROM feat GROUP BY b
), n AS (
  SELECT (SELECT sum(ct) FROM counts) AS nt,
         (SELECT sum(cr) FROM counts) AS nr
), contrib AS (
  SELECT f.doc_id, f.ord,
         ln((c.ct + 1)::DOUBLE / (n.nt + {DSIR_BUCKETS})::DOUBLE)
         - ln((c.cr + 1)::DOUBLE / (n.nr + {DSIR_BUCKETS})::DOUBLE) AS v
  FROM feat f JOIN counts c ON c.b = f.b CROSS JOIN n
), w AS (
  SELECT doc_id,
         list_reduce(list(v ORDER BY ord), (a, b) -> a + b) AS weight
  FROM contrib GROUP BY doc_id
)
SELECT d.doc_id, coalesce(w.weight, 0.0) AS weight
FROM documents d LEFT JOIN w ON w.doc_id = d.doc_id
"""


# ---------------------------------------------------------------------------
# CCNet-style boilerplate line/paragraph dedup (Wenzek et al. 2020,
# arXiv:1911.00359 — public method): drop text units repeated across many
# documents (nav chrome, license headers, templates).

LINEDEDUP_MIN_DOCS = 3  # a unit in >= this many DISTINCT docs is boilerplate
_LINEDEDUP_SEP = ". "   # literal separator (SQL string_split mirror)
_BOILER_HEAD = "BOILER NAV CHROME"     # injected on doc_id %% 2 == 0
_BOILER_FOOT = "COMMON LICENSE FOOTER"  # injected on doc_id %% 3 == 0


def _with_boilerplate(doc_id: int, text: str) -> str:
    """Deterministic boilerplate injection so the gate exercises removal
    on the boilerplate-free synthetic corpus (every natural sentence is
    unique there) — the same stance as the folding gate's accent
    injection; the SQL mirror concatenates the same literals."""
    t = text or ""
    if doc_id % 2 == 0:
        t = _BOILER_HEAD + _LINEDEDUP_SEP + t
    if doc_id % 3 == 0:
        t = t + _LINEDEDUP_SEP + _BOILER_FOOT
    return t


def line_dedup(sf_dir: str, min_docs: int = LINEDEDUP_MIN_DOCS):
    """(doc_id, kept, removed, clean_sha): remove sentence units that occur
    in >= ``min_docs`` distinct documents, keeping within-doc order.

    Shape at scale: pass 1 computes per-batch partial (unit, df) rows and
    reduces with ONE groupby — the frequent set is then the only thing the
    driver holds (boilerplate is small by nature: its size is bounded by
    corpus_bytes / min_docs, and the gate asserts the broadcast set, not
    the corpus, is collected); pass 2 broadcasts it via ray.put and
    streams documents, emitting integer counts + the sha256 of the
    rejoined text so the oracle compares exact strings without shipping
    them."""
    import hashlib

    def partial(batch: pa.Table) -> pa.Table:
        seen: dict = {}
        for did, text in zip(
            batch.column("doc_id").to_pylist(),
            batch.column("text").to_pylist(),
        ):
            for u in set(_with_boilerplate(int(did), text).split(_LINEDEDUP_SEP)):
                seen[u] = seen.get(u, 0) + 1
        return pa.table(
            {
                "unit": pa.array(list(seen), type=pa.string()),
                "df": pa.array(list(seen.values()), type=pa.int64()),
            }
        )

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )
    counts = (
        ds.map_batches(partial, batch_format="pyarrow", batch_size=4096)
        .groupby("unit")
        .sum("df")
    )
    freq_df = counts.filter(lambda r: r["sum(df)"] >= min_docs).to_pandas()
    # bounded: |frequent| <= corpus_bytes / (min_docs * unit_bytes)
    frequent = set(freq_df["unit"].tolist()) if len(freq_df) else set()
    freq_ref = ray.put(frequent)

    def scrub(batch: pa.Table) -> pa.Table:
        freq = ray.get(freq_ref)
        out = {"doc_id": [], "kept": [], "removed": [], "clean_sha": []}
        for did, text in zip(
            batch.column("doc_id").to_pylist(),
            batch.column("text").to_pylist(),
        ):
            units = _with_boilerplate(int(did), text).split(_LINEDEDUP_SEP)
            keep = [u for u in units if u not in freq]
            out["doc_id"].append(int(did))
            out["kept"].append(len(keep))
            out["removed"].append(len(units) - len(keep))
            out["clean_sha"].append(
                hashlib.sha256(_LINEDEDUP_SEP.join(keep).encode()).hexdigest()
            )
        return pa.table(
            {
                "doc_id": pa.array(out["doc_id"], type=pa.int64()),
                "kept": pa.array(out["kept"], type=pa.int64()),
                "removed": pa.array(out["removed"], type=pa.int64()),
                "clean_sha": pa.array(out["clean_sha"], type=pa.string()),
            }
        )

    return ds.map_batches(scrub, batch_format="pyarrow", batch_size=4096)


def line_dedup_sql(min_docs: int = LINEDEDUP_MIN_DOCS) -> str:
    return f"""
WITH src AS (
  SELECT doc_id,
         (CASE WHEN doc_id % 2 = 0
               THEN 'BOILER NAV CHROME. ' || text ELSE text END)
         || (CASE WHEN doc_id % 3 = 0
                  THEN '. COMMON LICENSE FOOTER' ELSE '' END) AS text
  FROM documents
), u AS (
  SELECT doc_id, string_split(text, '. ') AS l FROM src
), units AS (
  SELECT DISTINCT doc_id, unnest(l) AS unit FROM u
), freq AS (
  SELECT unit FROM units GROUP BY unit HAVING count(*) >= {min_docs}
), per AS (
  SELECT doc_id,
         unnest(generate_series(1, len(l))) AS ord,
         unnest(l) AS unit
  FROM u
), keepers AS (
  SELECT doc_id, ord, unit FROM per
  WHERE unit NOT IN (SELECT unit FROM freq)
), rebuilt AS (
  SELECT doc_id,
         coalesce(string_agg(unit, '. ' ORDER BY ord), '') AS clean,
         count(*) AS kept
  FROM keepers GROUP BY doc_id
)
SELECT d.doc_id,
       coalesce(r.kept, 0) AS kept,
       len(u.l) - coalesce(r.kept, 0) AS removed,
       sha256(coalesce(r.clean, '')) AS clean_sha
FROM src d
JOIN u ON u.doc_id = d.doc_id
LEFT JOIN rebuilt r ON r.doc_id = d.doc_id
"""


# ---------------------------------------------------------------------------
# end-to-end training-data cleaning pipeline: the composition gate — every
# stage is an already-gated op, chained as ONE streamed Ray pipeline.

CLEAN_TARGET_LANG = "en"
CLEAN_MIN_CHARS, CLEAN_MAX_CHARS = 100, 520
_CLEAN_DUP_TEXT = (
    "the duplicate seed document text that is shared between documents "
    "for the exact dedup stage of the cleaning pipeline and long enough "
    "to pass the quality filters"
)


def _clean_input_text(doc_id: int, text: str) -> str:
    """Deterministic exact-duplicate injection (doc_id % 25 == 7 docs share
    one text) so the dedup stage fires on the duplicate-free synthetic
    corpus — same stance as the boilerplate/accent injections; the SQL
    mirror CASEs the same literal."""
    return _CLEAN_DUP_TEXT if doc_id % 25 == 7 else (text or "")


def clean_corpus(sf_dir: str, target_lang: str = CLEAN_TARGET_LANG):
    """(doc_id, stage): the flagship LLM-data cleaning composition —
    language-ID filter (stopword-overlap heuristic == lang_id) ->
    quality filter (chars in [{CLEAN_MIN_CHARS},{CLEAN_MAX_CHARS}], alpha
    ratio >= 0.8 as 5*alpha >= 4*chars in ints) -> exact dedup (first doc
    per sha256 among survivors, docid order) -> DSIR target-likeness
    (keep weight > 0.0 — more target-like than the raw average). stage =
    the first failing stage ('lang' | 'quality' | 'dedup' | 'dsir') or
    'kept'.

    ONE streamed pass computes every per-doc signal (language votes,
    quality ints, sha, DSIR fold against the broadcast ln-ratio LUT);
    the only shuffle is the dedup groupby(sha); nothing corpus-scale
    touches the driver (the DSIR bucket reduce is DSIR_BUCKETS-bounded).
    Every float/integer op reuses the stage ops' gated kernels, so the
    composed oracle is exact."""
    import hashlib as _hl
    import math

    import pyarrow.compute as pc

    # DSIR LUT over the SAME injected input (one bounded reduce)
    def partial_counts(batch: pa.Table) -> pa.Table:
        an = CodeAnalyzer()
        texts = pa.array(
            [
                _clean_input_text(int(d), t)
                for d, t in zip(
                    batch.column("doc_id").to_pylist(),
                    batch.column("text").to_pylist(),
                )
            ],
            type=pa.string(),
        )
        toks = an.tokenize_array(texts)
        langs = batch.column("lang").to_pylist()
        cache: dict = {}
        ct = np.zeros(DSIR_BUCKETS, dtype=np.int64)
        cr = np.zeros(DSIR_BUCKETS, dtype=np.int64)
        for row, lang in zip(toks.to_pylist(), langs):
            for b in _dsir_doc_features(row, cache):
                cr[b] += 1
                if lang == target_lang:
                    ct[b] += 1
        nz = np.nonzero(cr)[0]
        return pa.table(
            {
                "bucket": pa.array(nz, type=pa.int64()),
                "ct": pa.array(ct[nz], type=pa.int64()),
                "cr": pa.array(cr[nz], type=pa.int64()),
            }
        )

    ds = ray.data.read_parquet(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "lang", "text"]
    )
    counts = (
        ds.map_batches(partial_counts, batch_format="pyarrow", batch_size=4096)
        .groupby("bucket")
        .sum(["ct", "cr"])
        .to_pandas()
    )
    ct = np.zeros(DSIR_BUCKETS, dtype=np.int64)
    cr = np.zeros(DSIR_BUCKETS, dtype=np.int64)
    ct[counts["bucket"].to_numpy()] = counts["sum(ct)"].to_numpy()
    cr[counts["bucket"].to_numpy()] = counts["sum(cr)"].to_numpy()
    nt, nr = int(ct.sum()), int(cr.sum())
    lut = np.empty(DSIR_BUCKETS, dtype=np.float64)
    den_t, den_r = nt + DSIR_BUCKETS, nr + DSIR_BUCKETS
    for b in range(DSIR_BUCKETS):
        lut[b] = math.log((int(ct[b]) + 1) / den_t) - math.log(
            (int(cr[b]) + 1) / den_r
        )
    lut_ref = ray.put(lut)
    lid_langs = sorted(LANG_STOPWORDS)

    def flags(batch: pa.Table) -> pa.Table:
        table = ray.get(lut_ref)
        an = CodeAnalyzer()
        dids = batch.column("doc_id").to_pylist()
        raw = batch.column("text").to_pylist()
        texts = [_clean_input_text(int(d), t) for d, t in zip(dids, raw)]
        arr = pa.array(texts, type=pa.string())
        row_idx, terms, _pos = an.tokenize_flat(arr)
        n = len(texts)
        votes = np.zeros((n, len(lid_langs)), dtype=np.int64)
        for j, lg in enumerate(lid_langs):
            mask = pc.is_in(
                terms, value_set=pa.array(list(LANG_STOPWORDS[lg]))
            ).to_numpy(zero_copy_only=False)
            if len(row_idx):
                votes[:, j] = np.bincount(row_idx[mask], minlength=n)
        best = np.argmax(votes, axis=1)
        pred = np.array(lid_langs, dtype=object)[best]
        pred[votes.max(axis=1) == 0] = "und"
        n_chars = pc.utf8_length(arr).to_numpy(zero_copy_only=False)
        alpha = pc.utf8_length(
            pc.replace_substring_regex(arr, pattern="[^A-Za-z]+", replacement="")
        ).to_numpy(zero_copy_only=False)
        toks = an.tokenize_array(arr)
        cache: dict = {}
        out = {"doc_id": [], "sha": [], "prefail": [], "weight": []}
        for i, (did, text) in enumerate(zip(dids, texts)):
            if pred[i] != target_lang:
                pf = "lang"
            elif not (
                CLEAN_MIN_CHARS <= int(n_chars[i]) <= CLEAN_MAX_CHARS
                and int(alpha[i]) * 5 >= int(n_chars[i]) * 4
            ):
                pf = "quality"
            else:
                pf = None
            w = 0.0
            for b in _dsir_doc_features(toks[i].as_py(), cache):
                w += float(table[b])
            out["doc_id"].append(int(did))
            out["sha"].append(_hl.sha256(text.encode()).hexdigest())
            out["prefail"].append(pf)
            out["weight"].append(w)
        return pa.table(
            {
                "doc_id": pa.array(out["doc_id"], type=pa.int64()),
                "sha": pa.array(out["sha"], type=pa.string()),
                "prefail": pa.array(out["prefail"], type=pa.string()),
                "weight": pa.array(out["weight"], type=pa.float64()),
            }
        )

    def dedup_group(df):
        import pandas as pd

        df = df.sort_values("doc_id")
        stages = []
        first_survivor = True
        for _i, row in df.iterrows():
            pf = row["prefail"]
            if isinstance(pf, str):
                stages.append(pf)           # failed before dedup
            elif not first_survivor:
                stages.append("dedup")      # later copy of this sha
            else:
                first_survivor = False
                stages.append("kept" if row["weight"] > 0.0 else "dsir")
        return pd.DataFrame(
            {"doc_id": df["doc_id"].to_numpy(), "stage": stages}
        )

    return (
        ds.map_batches(flags, batch_format="pyarrow", batch_size=4096)
        .groupby("sha")
        .map_groups(dedup_group)
    )


def clean_corpus_sql() -> str:
    toks = tokenize_sql_expr("text")
    langs = sorted(LANG_STOPWORDS)
    cnt_cols = ",\n  ".join(
        f"len(list_filter(toks, t -> t IN ({', '.join(repr(w) for w in LANG_STOPWORDS[lg])}))) AS c_{lg}"
        for lg in langs
    )
    g = "greatest(" + ", ".join(f"c_{lg}" for lg in langs) + ")"
    cases = " ".join(f"WHEN c_{lg} = {g} THEN '{lg}'" for lg in langs)
    bucket = (
        "list_reduce(list_prepend(0, list_transform(string_split({s}, '')"
        ", c -> ord(c))), (a, c) -> (a * 31 + c) % {m})"
    )
    b_uni = bucket.format(s="term", m=DSIR_BUCKETS)
    b_big = bucket.format(s="t0.term || ' ' || t1.term", m=DSIR_BUCKETS)
    return f"""
WITH src AS (
  SELECT doc_id, lang,
         CASE WHEN doc_id % 25 = 7 THEN '{_CLEAN_DUP_TEXT}'
              ELSE text END AS text
  FROM documents
), t AS (
  SELECT doc_id, lang, {toks} AS l, {toks} AS toks, text FROM src
), tok AS (
  SELECT doc_id, lang, unnest(l) AS term,
         generate_subscripts(l, 1) - 1 AS pos, len(l) AS dl
  FROM t
), feat AS (
  SELECT doc_id, lang, pos AS ord, {b_uni} AS b FROM tok
  UNION ALL
  SELECT t0.doc_id, t0.lang, t0.dl + t0.pos AS ord, {b_big} AS b
  FROM tok t0 JOIN tok t1
    ON t1.doc_id = t0.doc_id AND t1.pos = t0.pos + 1
), counts AS (
  SELECT b,
         count(*) FILTER (lang = '{CLEAN_TARGET_LANG}') AS ct,
         count(*) AS cr
  FROM feat GROUP BY b
), nn AS (
  SELECT (SELECT sum(ct) FROM counts) AS nt,
         (SELECT sum(cr) FROM counts) AS nr
), contrib AS (
  SELECT f.doc_id, f.ord,
         ln((c.ct + 1)::DOUBLE / (nn.nt + {DSIR_BUCKETS})::DOUBLE)
         - ln((c.cr + 1)::DOUBLE / (nn.nr + {DSIR_BUCKETS})::DOUBLE) AS v
  FROM feat f JOIN counts c ON c.b = f.b CROSS JOIN nn
), w AS (
  SELECT doc_id,
         list_reduce(list(v ORDER BY ord), (a, b) -> a + b) AS weight
  FROM contrib GROUP BY doc_id
), lp AS (
  SELECT doc_id, {cnt_cols} FROM t
), lid AS (
  SELECT doc_id, CASE WHEN {g} = 0 THEN 'und' {cases} END AS pred FROM lp
), pre AS (
  SELECT s.doc_id, sha256(s.text) AS sha,
         CASE WHEN lid.pred != '{CLEAN_TARGET_LANG}' THEN 'lang'
              WHEN NOT (length(s.text) BETWEEN {CLEAN_MIN_CHARS} AND {CLEAN_MAX_CHARS}
                        AND length(regexp_replace(s.text, '[^A-Za-z]+', '', 'g')) * 5
                            >= length(s.text) * 4)
                   THEN 'quality'
         END AS prefail,
         coalesce(wt.weight, 0.0) AS weight
  FROM src s JOIN lid ON lid.doc_id = s.doc_id
  LEFT JOIN w wt ON wt.doc_id = s.doc_id
), ranked AS (
  SELECT *, CASE WHEN prefail IS NULL THEN
              row_number() OVER (PARTITION BY sha, (prefail IS NULL)
                                 ORDER BY doc_id)
            END AS rn
  FROM pre
)
SELECT doc_id,
  CASE WHEN prefail IS NOT NULL THEN prefail
       WHEN rn > 1 THEN 'dedup'
       WHEN weight > 0.0 THEN 'kept'
       ELSE 'dsir' END AS stage
FROM ranked
"""


DSIR_RESAMPLE_K = 50


def dsir_resample(
    sf_dir: str,
    k: int = DSIR_RESAMPLE_K,
    target_lang: str = DSIR_TARGET_LANG,
) -> pa.Table:
    """(rank, doc_id): DSIR's Gumbel-top-k resampling step (Xie et al.
    2023 §2 — sampling without replacement ∝ exp(weight) == top-k of
    weight + Gumbel noise): noise is DETERMINISTIC, keyed by the doc's
    content sha (u = (first-8-hex-of-sha256 + 0.5) / 2^32, g =
    -ln(-ln(u)) — reproducible across runs and cluster sizes, the
    repo-wide content-keyed-randomness stance; the paper seeds an RNG).
    Per-batch top-k candidates + an O(batches*k) driver merge; every
    float op (ln chains, the Gumbel transform, the final compare) is
    mirrored exactly by the oracle."""
    import hashlib as _hl
    import math

    # per-doc importance weight (the gated dsir_weights kernel) and the
    # content-keyed u, both computed in the same per-batch pass
    docs, weigh = _dsir_weigher(sf_dir, target_lang)

    def score_topk(batch: pa.Table) -> pa.Table:
        weights = weigh(batch)
        scored = []
        for did, w, t in zip(
            weights.column("doc_id").to_pylist(),
            weights.column("weight").to_pylist(),
            batch.column("text").to_pylist(),
        ):
            h = int(_hl.sha256((t or "").encode()).hexdigest()[:8], 16)
            g = -math.log(-math.log((h + 0.5) / 4294967296.0))
            scored.append((w + g, int(did)))
        scored.sort(key=lambda sv: (-sv[0], sv[1]))
        top = scored[:k]
        return pa.table(
            {
                "doc_id": pa.array([d for _s, d in top], type=pa.int64()),
                "score": pa.array([s for s, _d in top], type=pa.float64()),
            }
        )

    cand = docs.map_batches(
        score_topk, batch_format="pyarrow", batch_size=4096
    ).to_pandas()  # O(batches * k)
    cand = cand.sort_values(
        ["score", "doc_id"], ascending=[False, True]
    ).head(k)
    return pa.table(
        {
            "rank": pa.array(range(len(cand)), type=pa.int32()),
            "doc_id": pa.array(cand["doc_id"].tolist(), type=pa.int64()),
        }
    )


def dsir_resample_sql(
    k: int = DSIR_RESAMPLE_K,
) -> str:
    w_sql = dsir_weights_sql()
    return f"""
WITH wt AS (
  SELECT * FROM ({w_sql})
), noise AS (
  SELECT d.doc_id,
         -ln(-ln((CAST(concat('0x', substr(sha256(d.text), 1, 8)) AS UBIGINT)::DOUBLE + 0.5)
                 / 4294967296.0)) AS g
  FROM documents d
)
SELECT (row_number() OVER (ORDER BY wt.weight + n.g DESC, wt.doc_id ASC)
        - 1)::INTEGER AS rank,
       wt.doc_id
FROM wt JOIN noise n ON n.doc_id = wt.doc_id
QUALIFY rank < {k}
"""

"""Seeded inputs for the benchmark: corpus files, query pool and stream, and
the document batches the NRT workload commits.

Everything here is a pure function of the seed. The program under test only
ever sees the generated rows and query strings.
"""

from __future__ import annotations

import string

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

# one (shape, k) template per entry of lucene_ray.pipelines.flagship.
# REFERENCE_QUERIES, in its order: a rare compound term, a hot term, a case
# variant, OR, AND, +/-, phrase, an absent term, a single term at k=1, OR at
# k=100, snake, digit, boost, prefix, fuzzy and wildcard. So k is 10 for 14
# templates, 1 for one and 100 for one, as there.
TEMPLATES = (
    ("rare", 10), ("hot", 10), ("camel", 10), ("or", 10), ("and", 10),
    ("plusminus", 10), ("phrase", 10), ("absent", 10), ("term", 1), ("or", 100),
    ("snake", 10), ("digit", 10), ("boost", 10), ("prefix", 10), ("fuzzy", 10),
    ("wildcard", 10),
)
# ids for documents the NRT workload adds: far above any corpus shard id,
# so every added doc has a path no corpus doc has
FRESH_SHARD_BASE = 1_000_000


def write_seeded_corpus(out_dir: str, n_docs: int, n_shards: int, seed: int) -> list[str]:
    """One row group per shard, so the build plans one segment per shard."""
    from lucene_ray.index.corpus import write_corpus

    per_shard = -(-n_docs // n_shards)
    return write_corpus(
        out_dir, n_docs=n_docs, n_shards=n_shards, seed=seed,
        row_group_size=per_shard,
    )


class Vocabulary:
    """Content terms ranked by document frequency, plus token sequences of
    a few documents (the source of phrase queries)."""

    def __init__(self, terms: np.ndarray, dfs: np.ndarray, docs: list[list[str]]):
        order = np.lexsort((terms, -dfs))  # df desc, then term asc
        self.terms = terms[order]
        self.dfs = dfs[order]
        self.docs = docs

    @classmethod
    def from_corpus(cls, paths: list[str], max_docs: int = 4000, phrase_docs: int = 64) -> "Vocabulary":
        """Tokenize up to ``max_docs`` corpus rows with the index's analyzer
        and count, per term, the rows that contain it."""
        import pyarrow.compute as pc

        from lucene_ray.analysis import get_analyzer

        texts = []
        for p in sorted(paths):
            texts.extend(pq.read_table(p, columns=["content"]).column("content").to_pylist())
            if len(texts) >= max_docs:
                break
        rows, terms, _pos = get_analyzer("code").tokenize_flat(pa.array(texts[:max_docs], pa.string()))
        tokens = pa.table({"row": pa.array(np.asarray(rows, dtype=np.int64)), "term": terms})
        df = tokens.group_by("term").aggregate([("row", "count_distinct")])
        head = tokens.filter(pc.less(tokens["row"], phrase_docs)).to_pydict()
        docs: list[list[str]] = [[] for _ in range(min(len(texts), phrase_docs))]
        for r, t in zip(head["row"], head["term"]):
            docs[r].append(t)
        return cls(
            np.asarray(df["term"].to_pylist(), dtype=object),
            df["row_count_distinct"].to_numpy().astype(np.int64),
            docs,
        )


def _zipf_weights(n: int, s: float = 1.1) -> np.ndarray:
    w = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** s
    return w / w.sum()


class QueryGenerator:
    """Queries in the REFERENCE_QUERIES templates with terms drawn
    Zipf-by-df from a vocabulary. ``pool`` builds (query, k) pairs per
    template; ``stream`` draws from the pool Zipf-by-rank, so popular queries
    repeat."""

    def __init__(self, vocab: Vocabulary, seed: int):
        self.vocab = vocab
        self.rng = np.random.default_rng(np.random.SeedSequence([seed, 7]))
        self._w = _zipf_weights(len(vocab.terms))
        alpha = np.array([t.isalpha() for t in vocab.terms])
        self._alpha = np.flatnonzero(alpha & (np.char.str_len(vocab.terms.astype(str)) >= 5))
        self._digits = np.flatnonzero([t.isdigit() for t in vocab.terms])
        self._rare = np.flatnonzero(vocab.dfs <= max(2, int(np.percentile(vocab.dfs, 10))))

    def _term(self) -> str:
        return str(self.vocab.terms[self.rng.choice(len(self._w), p=self._w)])

    def _long_term(self) -> str:
        w = self._w[self._alpha] / self._w[self._alpha].sum()
        return str(self.vocab.terms[self._alpha[self.rng.choice(len(w), p=w)]])

    def query(self, shape: str) -> str:
        r, t = self.rng, self._term
        if shape == "hot":
            return str(self.vocab.terms[r.integers(0, 5)])
        if shape == "rare":
            return str(self.vocab.terms[r.choice(self._rare)])
        if shape == "term":
            return t()
        if shape == "camel":
            return t() + t().capitalize()
        if shape == "snake":
            return f"{t()}_{t().capitalize()}"
        if shape == "digit":
            d = self.vocab.terms[r.choice(self._digits)] if len(self._digits) else "500"
            return f"{t()} {d}"
        if shape == "or":
            return f"{t()} {t()} {t()}"
        if shape == "and":
            return f"{t()} AND {t()} AND {t()}"
        if shape == "plusminus":
            return f"+{t()} -{t()} {t()}"
        if shape == "phrase":
            doc = self.vocab.docs[r.integers(0, len(self.vocab.docs))]
            i = int(r.integers(0, len(doc) - 1))
            return f'"{doc[i]} {doc[i + 1]}"'
        if shape == "boost":
            return f"{t()}^2 {t()}"
        if shape == "prefix":
            return self._long_term()[:3] + "*"
        if shape == "fuzzy":
            w = list(self._long_term())
            i = int(r.integers(1, len(w) - 1))
            w[i], w[i + 1] = w[i + 1], w[i]
            return "".join(w) + "~2"
        if shape == "wildcard":
            w = list(self._long_term())
            w[int(r.integers(1, len(w) - 1))] = "?"
            return "".join(w)
        if shape == "absent":
            return "zzq" + "".join(r.choice(list(string.ascii_lowercase), 6))
        raise ValueError(f"unknown shape {shape!r}")

    def pool(self, per_template: int) -> list[list[tuple[str, int]]]:
        """``per_template`` (query, k) entries for each of ``TEMPLATES``."""
        return [
            [(self.query(shape), k) for _ in range(per_template)] for shape, k in TEMPLATES
        ]

    def stream(self, pool: list[list[tuple[str, int]]], n: int) -> list[tuple[str, int]]:
        """Templates in turn, so every seed has the REFERENCE_QUERIES mix;
        within a template, entries drawn uniformly, so a seed's few most
        popular entries do not set the latency of its whole stream. Queries
        still repeat: a pool holds the hot terms many times."""
        picks = self.rng.integers(0, len(pool[0]), size=n)
        return [pool[i % len(pool)][j] for i, j in enumerate(picks)]


def distinct(pool: list[list[tuple[str, int]]]) -> list[tuple[str, int]]:
    return sorted({entry for entries in pool for entry in entries})


def doc_batch(seed: int, index: int, n_docs: int) -> pa.Table:
    """The ``index``-th corpus-schema batch a workload commits, built with a
    fresh ``generate_shard`` id."""
    from lucene_ray.index.corpus import generate_shard

    return generate_shard(FRESH_SHARD_BASE + index, n_docs, seed=seed)

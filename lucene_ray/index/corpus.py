"""Deterministic synthetic source-code corpus (the BASELINE.json input_hint
table) + adapters mapping other text tables into the same shape.

Schema (authoritative, BASELINE.json input_hint):
    (repo: string, path: string, commit: string, lang: string, content: string)

Content is seeded code-like text: language keywords, camelCase + snake_case
identifiers, digit-suffixed identifiers (``SD500``-style), punctuation,
string literals and comments, 50–400 tokens/doc with a Zipfian identifier
distribution — so some terms are df-hot (exercising salted/hot-term paths)
and some are singletons (exercising the SingletonDocID path). Mirrors the
reference demo's corpus role (demo/.../IndexFiles.java:206-277 walks a source
tree; here the Parquet table replaces the crawler).

Generation is vectorized (numpy RNG draws, one ``str.join`` per doc over
one token/glue list for the shard) and sharded:
``write_corpus`` writes one Parquet file per shard with deterministic
per-shard seeds, so the same (n_docs, n_shards, seed) always produces
byte-identical files regardless of parallelism.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

LANGS = ["java", "py", "rs", "go", "js", "c"]
_KEYWORDS = (
    "if else for while return class def fn func static void int long float "
    "double bool string public private final const let var new delete try "
    "catch throw import package struct enum match case break continue"
).split()

_ID_HEADS = (
    "get set read write parse build merge flush index search query token "
    "doc term score rank batch block sort filter map reduce hash count "
    "buffer stream codec norm stat field value item node tree list"
).split()
_ID_TAILS = (
    "Manager Builder Reader Writer Impl Factory Handler Context Config "
    "Util Helper State Cache Pool Entry Info Meta Spec Task Worker"
).split()
_PUNCT = np.array(["(", ");", " = ", ".", ", ", " { ", " } ", "[0]", " // ", " + "], dtype=object)


def _make_vocab(rng: np.ndarray) -> list[str]:
    """~2600 identifiers: camelCase, snake_case, and digit-suffixed."""
    vocab: list[str] = []
    for h in _ID_HEADS:
        for t in _ID_TAILS:
            vocab.append(h + t)  # camelCase-ish: getManager
    for h in _ID_HEADS:
        for t in _ID_HEADS[:20]:
            vocab.append(f"{h}_{t}")  # snake_case: get_set
    for h in _ID_HEADS[:30]:
        for d in (2, 64, 128, 500):
            vocab.append(f"{h}{d}")  # SD500-style
    return vocab


def generate_shard(
    shard_id: int, n_docs: int, seed: int = 42
) -> pa.Table:
    """Generate one deterministic corpus shard (pure function of args)."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, shard_id]))
    vocab = np.array(_make_vocab(rng) + _KEYWORDS)
    v = len(vocab)
    # Zipfian rank-frequency over the vocab
    ranks = np.arange(1, v + 1, dtype=np.float64)
    probs = 1.0 / ranks
    probs /= probs.sum()
    perm = rng.permutation(v)

    lang_w = np.array([0.3, 0.25, 0.1, 0.12, 0.15, 0.08])
    langs = np.array(LANGS)[rng.choice(6, size=n_docs, p=lang_w)]
    lengths = rng.integers(50, 401, size=n_docs)
    total = int(lengths.sum())
    token_ids = perm[rng.choice(v, size=total, p=probs)]
    glue_ids = rng.integers(0, len(_PUNCT), size=total)

    # token i then its glue, for every token of the shard: one list of
    # shared str objects, joined once per document slice
    parts = np.empty((total, 2), dtype=object)
    parts[:, 0] = vocab.astype(object)[token_ids]
    parts[:, 1] = _PUNCT[glue_ids]
    parts = parts.ravel().tolist()
    bounds = (2 * np.concatenate(([0], np.cumsum(lengths)))).tolist()
    contents = ["".join(parts[s:e]) for s, e in zip(bounds[:-1], bounds[1:])]

    repos = [f"org{i % 7}/proj{i % 23}" for i in range(n_docs)]
    commits = [
        hashlib.sha1(f"{seed}:{shard_id}:{i}".encode()).hexdigest()
        for i in range(n_docs)
    ]
    paths = [
        f"src/pkg{int(rng.integers(0, 40))}/File{shard_id}_{i}.{langs[i]}"
        for i in range(n_docs)
    ]
    return pa.table(
        {
            "repo": pa.array(repos, type=pa.string()),
            "path": pa.array(paths, type=pa.string()),
            "commit": pa.array(commits, type=pa.string()),
            "lang": pa.array(langs.tolist(), type=pa.string()),
            "content": pa.array(contents, type=pa.string()),
        }
    )


def write_corpus(
    out_dir: str,
    n_docs: int,
    n_shards: int = 8,
    seed: int = 42,
    overwrite: bool = False,
    row_group_size: int = 4096,
) -> list[str]:
    """Write the corpus as ``n_shards`` Parquet files. Idempotent: existing
    complete shards are kept (cheap resume for bench setup). Returns paths.

    ``row_group_size`` bounds the planner's segment-split granularity
    (plan_segments splits at row-group boundaries only)."""
    os.makedirs(out_dir, exist_ok=True)
    per = [n_docs // n_shards + (1 if i < n_docs % n_shards else 0) for i in range(n_shards)]
    paths = []
    todo = []
    for shard_id, n in enumerate(per):
        p = os.path.join(out_dir, f"corpus-{shard_id:05d}.parquet")
        paths.append(p)
        if os.path.exists(p) and not overwrite:
            continue
        todo.append((shard_id, n, p))

    def _write(shard_id: int, n: int, p: str) -> None:
        tmp = p + ".tmp"
        pq.write_table(generate_shard(shard_id, n, seed), tmp, row_group_size=row_group_size)
        os.replace(tmp, p)

    # generate shards in parallel when a Ray session exists (each shard is a
    # pure function of (seed, shard_id) -> identical bytes either way)
    import ray

    if todo and ray.is_initialized() and len(todo) > 1:
        gen = ray.remote(lambda s, n, p: _write(s, n, p))
        ray.get([gen.remote(s, n, p) for s, n, p in todo])
    else:
        for s, n, p in todo:
            _write(s, n, p)
    return paths


def documents_as_corpus(sf_dir: str) -> str:
    """Map the driver's ``documents`` table to the corpus schema, written to
    a deterministic /tmp location (one file). Used by oracle-checked
    pipelines so DuckDB sees the same logical rows via the ``documents``
    view."""
    src = os.path.join(sf_dir, "documents.parquet")
    out = os.path.join(
        "/tmp/lucene_ray_cache",
        "docs_corpus_" + hashlib.sha1(src.encode()).hexdigest()[:12] + ".parquet",
    )
    if os.path.exists(out):
        return out
    os.makedirs(os.path.dirname(out), exist_ok=True)
    t = pq.read_table(src)
    n = t.num_rows
    table = pa.table(
        {
            "repo": t.column("source").cast(pa.string()),
            "path": pa.array([f"doc/{i}" for i in t.column("doc_id").to_pylist()]),
            "commit": pa.array(["0" * 40] * n, type=pa.string()),
            "lang": t.column("lang").cast(pa.string()),
            "content": t.column("text").cast(pa.string()),
        }
    )
    tmp = out + ".tmp"
    pq.write_table(table, tmp, row_group_size=16384)
    os.replace(tmp, out)
    return out


def documents_as_corpus_dv(sf_dir: str) -> str:
    """documents_as_corpus plus a pass-through NUMERIC column ``src_id``
    (= doc_id): the source table for schema-driven doc-values builds
    (build_index dv_fields/sorted_dv_fields) — a non-derived numeric field
    the DV machinery cannot fake from content."""
    src = os.path.join(sf_dir, "documents.parquet")
    out = os.path.join(
        "/tmp/lucene_ray_cache",
        "docs_corpus_dv_" + hashlib.sha1(src.encode()).hexdigest()[:12] + ".parquet",
    )
    if os.path.exists(out):
        return out
    os.makedirs(os.path.dirname(out), exist_ok=True)
    t = pq.read_table(src)
    n = t.num_rows
    table = pa.table(
        {
            "repo": t.column("source").cast(pa.string()),
            "path": pa.array([f"doc/{i}" for i in t.column("doc_id").to_pylist()]),
            "commit": pa.array(["0" * 40] * n, type=pa.string()),
            "lang": t.column("lang").cast(pa.string()),
            "content": t.column("text").cast(pa.string()),
            "src_id": t.column("doc_id").cast(pa.int64()),
        }
    )
    tmp = out + ".tmp"
    pq.write_table(table, tmp, row_group_size=16384)
    os.replace(tmp, out)
    return out

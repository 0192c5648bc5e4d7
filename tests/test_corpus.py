"""The synthetic corpus is a pure function of (seed, shard_id, n_docs): its
content is pinned by digest, and ``write_corpus`` writes the same files
with and without a Ray session."""

import hashlib

import pytest

from lucene_ray.index.corpus import generate_shard, write_corpus

# sha256 (first 16 hex digits) of every column's values, in column order;
# shard ids past 1,000,000 are the ones perfbench's commit batches use
PINS = {
    (42, 0, 0): "4bf2737358ff2b31",
    (42, 0, 1): "f0d035db13256a2e",
    (7, 3, 150): "1d43d3b2b58075bc",
    (21, 1_000_005, 20): "e9920e1f2559860a",
    (42, 12, 6250): "5fced232bfa88dd6",
}


def digest(table) -> str:
    h = hashlib.sha256()
    for name in table.column_names:
        h.update(name.encode() + b"\x00")
        for v in table.column(name).to_pylist():
            h.update(v.encode() + b"\x00")
    return h.hexdigest()[:16]


@pytest.mark.parametrize("seed,shard_id,n_docs", list(PINS))
def test_generate_shard_pinned(seed, shard_id, n_docs):
    table = generate_shard(shard_id, n_docs, seed=seed)
    assert table.num_rows == n_docs
    assert digest(table) == PINS[seed, shard_id, n_docs]


def test_write_corpus_same_files_with_and_without_ray(tmp_path, monkeypatch, ray_session):
    import ray

    def files(d):
        paths = write_corpus(str(tmp_path / d), n_docs=250, n_shards=3, seed=11, row_group_size=64)
        return [open(p, "rb").read() for p in paths]

    with_ray = files("ray")
    monkeypatch.setattr(ray, "is_initialized", lambda: False)
    assert files("local") == with_ray

"""Smoke test of tools/decode_bench.py on a small index: every stream of
every live segment lands in one size bucket of the decode and the encode
pass, the whole-segment decode and encode are timed on the segment with the
most postings, and ``--against`` times a second checkout's kernels on the
same streams (here this checkout's own, so no stream's bytes differ)."""

import importlib.util
import json
import os

import pyarrow.compute as pc
import pyarrow.parquet as pq

from lucene_ray.index import segfiles
from lucene_ray.index.builder import build_index
from lucene_ray.index.corpus import write_corpus
from lucene_ray.index.manifest import read_manifest, segment_dir

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools",
                    "decode_bench.py")


def _tool():
    spec = importlib.util.spec_from_file_location("decode_bench", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_decode_bench_table(tmp_path, capsys, ray_session):
    paths = write_corpus(str(tmp_path / "corpus"), n_docs=400, n_shards=2, seed=5)
    index_dir = str(tmp_path / "ix")
    build_index(paths, index_dir, target_docs=200)
    root = os.path.dirname(os.path.dirname(TOOL))
    out = _tool().main([index_dir, "--reps", "1", "--against", root])
    assert json.loads(capsys.readouterr().out) == out

    # every non-empty stream blob of every live segment, counted once
    live = read_manifest(index_dir).live_segments
    streams, positions = 0, []
    for e in live:
        t = pq.read_table(segfiles.POSTINGS.path(segment_dir(index_dir, e.name)))
        positions.append(pc.sum(t.column("ttf")).as_py())
        for col, _count in _tool().STREAMS:
            streams += pc.sum(pc.greater(pc.binary_length(t.column(col)), 0)).as_py() or 0
    buckets = out["decode_stream"]
    assert list(buckets) == ["le_128", "129_1024", "1025_8192", "gt_8192"]
    assert out["segments"] == len(live) >= 2
    assert sum(b["streams"] for b in buckets.values()) == streams
    assert buckets["le_128"]["streams"] and buckets["129_1024"]["streams"]
    assert all(b["ms"] >= 0 and b["against_ms"] >= 0 for b in buckets.values())
    encode = out["encode_stream"]
    for name, b in encode.items():
        assert (b["streams"], b["values"]) == (buckets[name]["streams"], buckets[name]["values"])
        assert b["differ"] == 0 and b["ms"] >= 0 and b["against_ms"] >= 0
    pairs = out["decode_segment_pairs"]
    assert pairs["segment"] in {e.name for e in live}
    assert pairs["positions"] == max(positions)
    assert pairs["ms"] > 0
    seg = out["encode_segment"]
    assert seg["segment"] == pairs["segment"]
    assert seg["values"] >= pairs["positions"] and seg["blocks"] > 0
    assert seg["ms"] > 0 and seg["against_ms"] > 0

"""Smoke test of tools/ref_queries.py on a small index: it builds the
index into its cache, reuses it on the next call, and prints one row per
REFERENCE_QUERIES entry with both paths equal."""

import importlib.util
import json
import os

import pytest

from lucene_ray.pipelines.flagship import REFERENCE_QUERIES

TOOL = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "tools",
                    "ref_queries.py")


def _tool():
    spec = importlib.util.spec_from_file_location("ref_queries", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_ref_queries_table(tmp_path, capsys, ray_session):
    tool = _tool()
    argv = ["--docs", "800", "--shards", "4", "--target-docs", "100", "--reps", "1",
            "--cache", str(tmp_path)]
    out = tool.main(argv)
    assert json.loads(capsys.readouterr().out) == out
    assert out["docs"] == 800 and out["segments"] >= 1
    assert [r["qid"] for r in out["queries"]] == [qid for qid, _q, _k in REFERENCE_QUERIES]
    assert out["all_equal"]
    for r in out["queries"]:
        assert r["total_hits"] <= r["exhaustive_total_hits"], r
        if r["relation"] == "eq":
            assert r["total_hits"] == r["exhaustive_total_hits"], r
        assert r["pruned_ms"] >= 0 and r["exhaustive_ms"] >= 0
        assert r["prepare_ms"] >= 0
    assert out["prepare_sum_ms"] == pytest.approx(sum(r["prepare_ms"] for r in out["queries"]))
    index_dir = out["index"]
    mtime = os.path.getmtime(os.path.join(index_dir, "manifest.json"))
    assert tool.main(argv)["index"] == index_dir  # cached: not rebuilt
    assert os.path.getmtime(os.path.join(index_dir, "manifest.json")) == mtime

"""Driver-contract self-check: entry() smoke + every oracle_sql() entry has a
matching queries() entry, and a spot cross-check through the __ray_entry__
surface exactly as the driver would run it."""

import duckdb
import pandas as pd
import pytest

SF = "/root/testdata/sf0.001"
TABLES = [
    "region", "nation", "customer", "supplier", "part",
    "orders", "lineitem", "events", "documents", "embeddings",
]


@pytest.fixture(scope="module")
def con():
    c = duckdb.connect()
    for t in TABLES:
        c.execute(f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{SF}/{t}.parquet')")
    return c


@pytest.fixture(scope="module")
def mod(ray_session):
    import __ray_entry__

    return __ray_entry__


def test_oracle_keys_subset_of_queries(mod):
    q = set(mod.queries().keys())
    o = set(mod.oracle_sql().keys())
    assert o <= q, o - q


def test_driver_window_order(mod):
    """The driver records only the first 50 queries() entries: every one
    of them must be oracle-checked, and the rows-only gates sit last."""
    names = list(mod.queries())
    oracles = mod.oracle_sql()
    assert [n for n in names[:50] if n not in oracles] == []
    rows_only = [n for n in names if n not in oracles]
    assert set(rows_only) == {
        "perceptron_classify", "bp_reorder", "bm25_topk_engine",
    }
    assert names[-len(rows_only):] == rows_only


def test_entry_smoke(mod):
    df = mod.entry()
    assert len(df) > 0
    assert set(df.columns) == {"qid", "rank", "docid", "score"}
    # reference-query invariants: k=1 query returns exactly 1 row,
    # absent-term query returns none
    assert len(df[df.qid == 8]) == 1
    assert len(df[df.qid == 7]) == 0
    assert len(df[df.qid == 9]) == 100


def test_entry_deterministic(mod):
    a = mod.entry()
    b = mod.entry()
    pd.testing.assert_frame_equal(a, b)


@pytest.mark.parametrize("name", ["term_stats", "q1_pricing", "dedup_exact"])
def test_driver_style_compare(mod, con, name):
    import pyarrow as pa

    import ray.data

    res = mod.queries()[name](SF)
    if isinstance(res, ray.data.Dataset):
        got = res.to_pandas()
    elif isinstance(res, pa.Table):
        got = res.to_pandas()
    else:
        got = res
    want = con.execute(mod.oracle_sql()[name]).fetchdf()
    cols = sorted(got.columns)
    assert cols == sorted(want.columns)
    got = got[cols].sort_values(cols).reset_index(drop=True)
    want = want[cols].sort_values(cols).reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)

"""Local stand-in for the driver's correctness gate: run __ray_entry__
queries() and oracle_sql() side-by-side over an sf dir, sort columns by name
and rows by all columns, then compare row count, schema (dtype-sensitive —
this is what catches DuckDB HUGEINT vs engine int64) and a value hash.
Each record also carries the engine side's own value hash
(``engine_hash``) and its column dtypes as returned, before ``canon()``
widens integers (``engine_schema``), so two runs can be diffed gate by
gate.

Usage: python tools/check_correctness.py [sf_dir] [query ...]
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import duckdb
import numpy as np
import pandas as pd

TABLES = [
    "region", "nation", "customer", "supplier", "part", "orders",
    "lineitem", "events", "documents", "embeddings",
]


def to_pandas(res) -> pd.DataFrame:
    import pyarrow as pa
    import ray.data

    if isinstance(res, ray.data.Dataset):
        return res.to_pandas()
    if isinstance(res, pa.Table):
        return res.to_pandas()
    return res


def canon(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    # the driver's compare normalizes integer WIDTH (int32 qid vs int64 qid
    # passed in round 1) but not KIND (DuckDB HUGEINT -> object/float64
    # failed) — mirror that
    for c in df.columns:
        if df[c].dtype.kind in "iu":
            df[c] = df[c].astype("int64")
    if len(df):
        sortable = [
            c for c in df.columns
            if not df[c].map(lambda v: isinstance(v, (list, np.ndarray))).any()
        ]
        if sortable:
            df = df.sort_values(sortable, kind="mergesort").reset_index(drop=True)
    return df


def value_hash(df: pd.DataFrame) -> str:
    h = hashlib.sha256()
    for c in df.columns:
        h.update(c.encode())
        h.update(str(df[c].dtype).encode())
        h.update(pd.util.hash_pandas_object(df[c], index=False).values.tobytes())
    return h.hexdigest()[:16]


def main() -> None:
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])

    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 ignore_reinit_error=True)

    try:
        sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
        import __ray_entry__ as entrymod

        con = duckdb.connect()
        for t in TABLES:
            con.execute(
                f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf_dir}/{t}.parquet')"
            )

        qs = entrymod.queries()
        oracles = entrymod.oracle_sql()
        out = {}
        for name, fn in qs.items():
            if only and name not in only:
                continue
            rec: dict = {}
            try:
                raw = to_pandas(fn(sf_dir))
                # dtypes as returned: canon() widens every int to int64, so an
                # int32 -> int64 change would not show in engine_hash
                rec["engine_schema"] = ",".join(
                    f"{c}:{raw[c].dtype}" for c in raw.columns
                )
                mine = canon(raw)
                rec["spark_rows"] = len(mine)
                # engine-side hash: diff two runs' output to show a refactor
                # left every gate's result unchanged
                rec["engine_hash"] = value_hash(mine)
                sql = oracles.get(name)
                if sql is None:
                    rec["err"] = "no_oracle"
                else:
                    oracle = canon(con.execute(sql).fetchdf())
                    rec["oracle_rows"] = len(oracle)
                    rec["rows_match"] = len(mine) == len(oracle)
                    rec["schema_match"] = [str(mine[c].dtype) for c in mine.columns] == [
                        str(oracle[c].dtype) for c in oracle.columns
                    ] and list(mine.columns) == list(oracle.columns)
                    rec["hash_match"] = value_hash(mine) == value_hash(oracle)
                    if not rec["hash_match"]:
                        rec["my_dtypes"] = {c: str(mine[c].dtype) for c in mine.columns}
                        rec["or_dtypes"] = {c: str(oracle[c].dtype) for c in oracle.columns}
            except Exception as e:  # noqa: BLE001
                rec["err"] = f"{type(e).__name__}: {e}"
            out[name] = rec
            flag = "OK " if rec.get("hash_match") else ("--- " if rec.get("err") == "no_oracle" else "FAIL")
            shown = {k: v for k, v in rec.items() if k != "engine_schema"}
            print(flag, name, f"engine_schema={rec.get('engine_schema')}",
                  json.dumps(shown, default=str)[:240], flush=True)

        bad = [k for k, v in out.items() if v.get("hash_match") is False or
               (v.get("err") and v["err"] != "no_oracle")]
        print("\nFAILING:", bad if bad else "none")
    finally:
        ray.shutdown()


if __name__ == "__main__":
    main()

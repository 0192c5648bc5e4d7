"""DoublePoint/FloatPoint sortable encodings (search/floatpoint.py —
util/NumericUtils.java:47-82): bit-exactness, total order, nextUp/Down,
engine round trip."""

import math
import struct

import numpy as np
import pytest

from lucene_ray.search import floatpoint as fp

SF = "/root/testdata/sf0.001"


def _java_double_to_sortable(v: float) -> int:
    """Scalar reference: sortableDoubleBits(doubleToLongBits(v))."""
    bits = struct.unpack(">q", struct.pack(">d", v))[0]
    if bits < 0:
        bits ^= 0x7FFFFFFFFFFFFFFF
    return bits


def test_scalar_matches_java_reference():
    vals = [0.0, -0.0, 1.5, -1.5, math.pi, -math.pi, 1e308, -1e308,
            5e-324, -5e-324, math.inf, -math.inf]
    for v in vals:
        assert fp.double_to_sortable_long(v) == _java_double_to_sortable(v), v
        assert fp.sortable_long_to_double(fp.double_to_sortable_long(v)) == v or (
            v != v
        )


def test_sortable_preserves_total_order():
    rng = np.random.default_rng(51)
    vals = np.concatenate([
        rng.normal(0, 1e3, 2000),
        rng.normal(0, 1e-3, 2000),
        np.array([0.0, -0.0, np.inf, -np.inf]),
    ])
    enc = fp.double_to_sortable_long(vals)
    order_f = np.argsort(vals, kind="stable")
    order_e = np.argsort(enc, kind="stable")
    # -0.0 < 0.0 in sortable order while numpy sorts them equal: compare
    # the sorted VALUES, which agree everywhere (equal-key permutations)
    assert np.array_equal(vals[order_f], vals[order_e]) or np.array_equal(
        np.sort(vals), vals[order_e]
    )
    # strict monotonicity on distinct values
    s = np.sort(np.unique(vals))
    e = fp.double_to_sortable_long(s)
    assert (np.diff(e) > 0).all()
    # -0.0 strictly below 0.0 (the IEEE total order the reference uses)
    assert fp.double_to_sortable_long(-0.0) < fp.double_to_sortable_long(0.0)


def test_float32_encoding_roundtrip_and_order():
    vals = np.array([-3.5, -0.0, 0.0, 1.25, 7.5e4], dtype=np.float32)
    enc = fp.float_to_sortable_int(vals)
    back = fp.sortable_int_to_float(enc)
    assert np.array_equal(back, vals)
    s = np.array(sorted(set(vals.tolist()))[0:], dtype=np.float32)
    assert (np.diff(fp.float_to_sortable_int(s)) > 0).all()


def test_next_up_down():
    assert fp.next_up_double(1.0) == math.nextafter(1.0, math.inf)
    assert fp.next_down_double(1.0) == math.nextafter(1.0, -math.inf)
    assert fp.next_up_double(-0.0) == 0.0
    assert fp.next_down_double(0.0) == -0.0


def test_engine_ranges_match_bruteforce(ray_session):
    from lucene_ray.ops.bm25docs import _engine_index
    from lucene_ray.search.engine import IndexSearcher
    from lucene_ray.search.query import BooleanQuery

    import pyarrow.parquet as pq

    t = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "n_chars"])
    ids = t.column("doc_id").to_numpy().astype(np.int64)
    raw = (t.column("n_chars").to_numpy().astype(np.float64) - 500.0) * 0.1
    s = IndexSearcher(_engine_index(SF, dv_fields=("dscore", "fscore")))
    rng = np.random.default_rng(52)
    for _ in range(20):
        lo, hi = np.sort(rng.uniform(-60, 60, 2))
        q = fp.double_range_query("dscore", lo, hi)
        td = s.search(BooleanQuery(must=[q]), 1 << 20)
        want = np.sort(ids[(raw >= lo) & (raw <= hi)])
        assert np.array_equal(np.sort(td.docids), want), (lo, hi)
    # exclusive bounds via nextUp/nextDown (the DoublePoint doc pattern)
    v = float(raw[7])
    q = fp.double_range_query("dscore", fp.next_up_double(v), math.inf)
    td = s.search(BooleanQuery(must=[q]), 1 << 20)
    assert np.array_equal(np.sort(td.docids), np.sort(ids[raw > v]))

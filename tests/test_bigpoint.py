"""128-bit points (search/bigpoint.py — InetAddressPoint /
BigIntegerPoint): limb encoding, range decomposition vs brute force,
CIDR/set semantics, nextUp/nextDown, IP encode/decode, SQL-twin
lockstep, engine integration, distributed identity."""

import numpy as np
import pytest

from lucene_ray.search import bigpoint as bp

SF = "/root/testdata/sf0.001"


# ------------------------------------------------------------------ encoding


def test_limb_mapping_preserves_order():
    rng = np.random.default_rng(41)
    us = sorted(int(x) for x in rng.integers(0, 1 << 63, 200)) + [
        0, 1, (1 << 64) - 1, 1 << 63, (1 << 63) - 1,
    ]
    pairs = sorted((u, bp._limbs(u << 64 | u)[0]) for u in set(us))
    signed = [s for _, s in pairs]
    assert signed == sorted(signed)  # monotone limb map


def test_ip_encode_decode_roundtrip():
    # IPv4 maps into ::ffff:0:0/96 (InetAddressPoint.encode)
    v = bp.ip_to_u128("1.2.3.4")
    assert v == (0xFFFF << 32) | 0x01020304
    assert bp.u128_to_ip(v) == "1.2.3.4"
    v6 = bp.ip_to_u128("2001:db8::8a2e:370:7334")
    assert bp.u128_to_ip(v6) == "2001:db8::8a2e:370:7334"
    # IPv4 and its mapped-IPv6 spelling encode identically
    assert bp.ip_to_u128("::ffff:1.2.3.4") == bp.ip_to_u128("1.2.3.4")


def test_next_up_down():
    v = bp.ip_to_u128("10.0.0.255")
    assert bp.u128_to_ip(bp.next_up(v)) == "10.0.1.0"
    assert bp.u128_to_ip(bp.next_down(v)) == "10.0.0.254"
    with pytest.raises(OverflowError):
        bp.next_up((1 << 128) - 1)
    with pytest.raises(OverflowError):
        bp.next_down(0)


def test_synth_matches_sql(tmp_path):
    import duckdb
    import pyarrow as pa

    ids = np.arange(0, 500, dtype=np.int64)
    hi = bp.synth_ip_hi(None, ids)
    lo = bp.synth_ip_lo(None, ids)
    con = duckdb.connect()
    con.register("t", pa.table({"doc_id": ids}))
    got = con.execute(
        f"SELECT {bp.sql_hi()}::BIGINT AS h, {bp.sql_lo()}::BIGINT AS l "
        f"FROM t ORDER BY doc_id"
    ).fetchnumpy()
    assert np.array_equal(hi, got["h"])
    assert np.array_equal(lo, got["l"])
    # and the unsigned 128 view recombines the limbs
    for d in (0, 1, 7, 499):
        u = bp.synth_value128(d)
        assert bp._limbs(u) == (int(hi[d]), int(lo[d]))


# ------------------------------------------------------------------- engine


@pytest.fixture(scope="module")
def bigpoint_index(ray_session):
    from lucene_ray.ops.bm25docs import _engine_index

    return _engine_index(SF, dv_fields=("ip_hi", "ip_lo"))


def _truth():
    import pyarrow.parquet as pq

    ids = (
        pq.read_table(f"{SF}/documents.parquet", columns=["doc_id"])
        .column("doc_id")
        .to_numpy()
    )
    vals = np.array([bp.synth_value128(int(d)) for d in ids], dtype=object)
    return ids, vals


def test_random_ranges_match_bruteforce(bigpoint_index):
    from lucene_ray.search.engine import IndexSearcher
    from lucene_ray.search.query import BooleanQuery

    ids, vals = _truth()
    s = IndexSearcher(bigpoint_index)
    rng = np.random.default_rng(42)
    for _ in range(25):
        a = int(rng.integers(0, 1 << 62)) << int(rng.integers(0, 66))
        b = a + (int(rng.integers(1, 1 << 62)) << int(rng.integers(0, 64)))
        b = min(b, (1 << 128) - 1)
        q = bp.range_query_128("ip", a, b)
        td = s.search(BooleanQuery(must=[q]), 1_000_000)
        want = np.sort(ids[[a <= v <= b for v in vals]])
        assert np.array_equal(np.sort(td.docids), want), (a, b)


def test_prefix_and_set_match_bruteforce(bigpoint_index):
    from lucene_ray.search.engine import IndexSearcher
    from lucene_ray.search.query import BooleanQuery

    ids, vals = _truth()
    s = IndexSearcher(bigpoint_index)
    for plen in (0, 1, 3, 9, 64, 127, 128):
        v = bp.synth_value128(11)
        q = bp.prefix_query_128("ip", v, plen)
        td = s.search(BooleanQuery(must=[q]), 1_000_000)
        host = 128 - plen
        net = (v >> host) << host
        want = np.sort(ids[[net <= x <= (net | ((1 << host) - 1)) for x in vals]])
        assert np.array_equal(np.sort(td.docids), want), plen
    members = [bp.synth_value128(d) for d in (2, 4, 2, 400)] + [99]
    td = s.search(BooleanQuery(must=[bp.set_query_128("ip", members)]), 1 << 20)
    want = np.sort(ids[[v in set(members) for v in vals]])
    assert np.array_equal(np.sort(td.docids), want)


def test_bigint_signed_view(bigpoint_index):
    """BigIntegerPoint range with signed bounds equals the unsigned range
    over biased values (sortable encoding consistency)."""
    from lucene_ray.search.engine import IndexSearcher
    from lucene_ray.search.query import BooleanQuery

    ids, vals = _truth()
    s = IndexSearcher(bigpoint_index)
    lo_s, hi_s = -(1 << 125), (1 << 124)
    td = s.search(
        BooleanQuery(must=[bp.bigint_range_query("ip", lo_s, hi_s)]), 1 << 20
    )
    bias = 1 << 127
    want = np.sort(ids[[lo_s + bias <= v <= hi_s + bias for v in vals]])
    assert np.array_equal(np.sort(td.docids), want)
    with pytest.raises(ValueError):
        bp.bigint_to_u128(1 << 127)


def test_degenerate_and_errors(bigpoint_index):
    from lucene_ray.search.engine import IndexSearcher
    from lucene_ray.search.query import BooleanQuery

    s = IndexSearcher(bigpoint_index)
    td = s.search(BooleanQuery(must=[bp.range_query_128("ip", 5, 4)]), 100)
    assert len(td.docids) == 0
    with pytest.raises(ValueError):
        bp.prefix_query_128("ip", 0, 129)
    with pytest.raises(ValueError):
        bp._limbs(1 << 128)


def test_distributed_identity(bigpoint_index, ray_session):
    from lucene_ray.search.distributed import DistributedSearcher
    from lucene_ray.search.engine import IndexSearcher
    from lucene_ray.search.query import BooleanQuery

    from lucene_ray.ops.bm25docs import _bigpoint_queries

    local = IndexSearcher(bigpoint_index)
    dist = DistributedSearcher(bigpoint_index, n_shards=3, pruned=False)
    for qid, q, _ in _bigpoint_queries():
        bq = BooleanQuery(should=[q])
        a = sorted(local.search(bq, 1 << 20).docids.tolist())
        b = sorted(dist.search(bq, 1 << 20).docids.tolist())
        assert a == b, qid

"""2-D geo points (search/spatial.py, LatLonPoint analog): Morton/quadtree
kernels, engine box/distance vs brute force, BKD-style row-group pruning,
merge survival, delete interaction."""

import os

import numpy as np
import pyarrow as pa
import pytest

SF = "/root/testdata/sf0.001"


# ------------------------------------------------------------------ kernels


def test_morton_order_preserves_locality_and_ranges_cover():
    from lucene_ray.search import spatial as sp

    rng = np.random.default_rng(11)
    lat = rng.uniform(-90, 90, 5000)
    lon = rng.uniform(-180, 180, 5000)
    m = sp.morton(sp.quantize_lat(lat), sp.quantize_lon(lon))
    for _ in range(30):
        la, lb = np.sort(rng.uniform(-90, 90, 2))
        oa, ob = np.sort(rng.uniform(-180, 180, 2))
        inside = (lat >= la) & (lat <= lb) & (lon >= oa) & (lon <= ob)
        cov = np.zeros(len(m), bool)
        for lo, hi in sp.box_morton_ranges(la, lb, oa, ob):
            cov |= (m >= lo) & (m <= hi)
        # completeness: every matching point is inside a covering range
        assert (cov | ~inside).all()


def test_distance_box_contains_radius():
    from lucene_ray.search import spatial as sp

    rng = np.random.default_rng(12)
    lat = rng.uniform(-90, 90, 5000)
    lon = rng.uniform(-180, 180, 5000)
    for _ in range(100):
        qla = rng.uniform(-89, 89)
        qlo = rng.uniform(-180, 180)
        r = rng.uniform(1e3, 5e6)
        bla, blb, boa, bob = sp.distance_box(qla, qlo, r)
        inside = sp.haversine_m(lat, lon, qla, qlo) <= r
        inbox = (lat >= bla) & (lat <= blb) & (lon >= boa) & (lon <= bob)
        assert (inbox | ~inside).all()


def test_synth_field_matches_sql_formula():
    import duckdb

    from lucene_ray.search import spatial as sp

    ids = np.arange(5000, dtype=np.int64)
    con = duckdb.connect()
    con.execute("CREATE TABLE t AS SELECT unnest(range(5000)) AS doc_id")
    want = con.execute(
        f"SELECT {sp.synth_lat_sql()} AS lat, {sp.synth_lon_sql()} AS lon FROM t ORDER BY doc_id"
    ).fetchnumpy()
    # bit-identical: same integer arithmetic, same float64 ops in order
    assert np.array_equal(sp.synth_lat(ids), want["lat"])
    assert np.array_equal(sp.synth_lon(ids), want["lon"])


# ------------------------------------------------------------------- engine


@pytest.fixture(scope="module")
def geo_index(ray_session, tmp_path_factory):
    """Multi-segment geo index over the sf0.001 documents + a merge pass,
    so queries run against merged spatial sidecars."""
    from lucene_ray.index.builder import build_index
    from lucene_ray.index.corpus import documents_as_corpus
    from lucene_ray.index.merge import TieredMergePolicy, maybe_merge

    ix = str(tmp_path_factory.mktemp("geo") / "ix")
    corpus = documents_as_corpus(SF)
    build_index([corpus], ix, target_docs=128, point2d_fields=("loc",))
    maybe_merge(ix, TieredMergePolicy(), use_ray=False)
    return ix


def _truth(sf_dir):
    import pyarrow.parquet as pq

    from lucene_ray.search import spatial as sp

    ids = (
        pq.read_table(f"{sf_dir}/documents.parquet", columns=["doc_id"])
        .column("doc_id")
        .to_numpy()
    )
    return ids, sp.synth_lat(ids), sp.synth_lon(ids)


def test_box_query_matches_bruteforce(geo_index):
    from lucene_ray.search.engine import IndexSearcher
    from lucene_ray.search.query import BooleanQuery, LatLonBoxQuery

    ids, lat, lon = _truth(SF)
    s = IndexSearcher(geo_index)
    rng = np.random.default_rng(13)
    for _ in range(20):
        la, lb = np.sort(rng.uniform(-90, 90, 2))
        oa, ob = np.sort(rng.uniform(-180, 180, 2))
        td = s.search(BooleanQuery(must=[LatLonBoxQuery("loc", la, lb, oa, ob)]), 1_000_000)
        want = np.sort(ids[(lat >= la) & (lat <= lb) & (lon >= oa) & (lon <= ob)])
        assert np.array_equal(np.sort(td.docids), want)


def test_distance_query_matches_bruteforce(geo_index):
    from lucene_ray.search import spatial as sp
    from lucene_ray.search.engine import IndexSearcher
    from lucene_ray.search.query import BooleanQuery, LatLonDistanceQuery

    ids, lat, lon = _truth(SF)
    s = IndexSearcher(geo_index)
    rng = np.random.default_rng(14)
    for _ in range(20):
        qla = rng.uniform(-89, 89)
        qlo = rng.uniform(-180, 180)
        r = rng.uniform(1e5, 8e6)
        td = s.search(BooleanQuery(must=[LatLonDistanceQuery("loc", qla, qlo, r)]), 1_000_000)
        want = np.sort(ids[sp.haversine_m(lat, lon, qla, qlo) <= r])
        assert np.array_equal(np.sort(td.docids), want)


def test_row_group_pruning_reads_subset(tmp_path):
    """A selective box must read strictly fewer BKD-leaf row groups than
    the sidecar holds (the whole point of the Morton sort) — and the
    pruned read must still cover every matching row. 40k synthetic points
    -> ~79 leaf groups."""
    import pyarrow.parquet as pq

    from lucene_ray.search import spatial as sp

    n = 40_000
    ids = np.arange(n, dtype=np.int64)
    lat, lon = sp.synth_lat(ids), sp.synth_lon(ids)
    t = sp.build_spatial_table({"loc": (lat, lon, ids)})
    path = str(tmp_path / "spatial.parquet")
    pq.write_table(t, path, row_group_size=sp.SPATIAL_ROW_GROUP)
    pf = pq.ParquetFile(path)
    md = pf.metadata
    assert md.num_row_groups >= 16
    names = [md.schema.column(i).name for i in range(md.num_columns)]
    mi, fi = names.index("morton"), names.index("field")
    rg = []
    for g in range(md.num_row_groups):
        ms = md.row_group(g).column(mi).statistics
        fs = md.row_group(g).column(fi).statistics
        rg.append((ms.min, ms.max, fs.min, fs.max))
    box = (10.0, 14.0, 20.0, 28.0)
    ranges = sp.box_morton_ranges(*box)
    picked = sp.prune_row_groups(rg, "loc", ranges)
    assert 0 < len(picked) < md.num_row_groups / 2
    got = pf.read_row_groups(picked, columns=["lat", "lon", "docid"])
    glat = got.column("lat").to_numpy(zero_copy_only=False)
    glon = got.column("lon").to_numpy(zero_copy_only=False)
    m = (glat >= box[0]) & (glat <= box[1]) & (glon >= box[2]) & (glon <= box[3])
    want = ids[(lat >= box[0]) & (lat <= box[1]) & (lon >= box[2]) & (lon <= box[3])]
    assert np.array_equal(
        np.sort(got.column("docid").to_numpy(zero_copy_only=False)[m]), want
    )


def test_spatial_survives_merge_and_deletes(ray_session, tmp_path):
    """Build multi-segment, delete some docs, merge: spatial queries must
    drop tombstoned docs and keep everyone else (docids never renumber)."""
    from lucene_ray.index.builder import build_index
    from lucene_ray.index.corpus import documents_as_corpus
    from lucene_ray.index.merge import force_merge
    from lucene_ray.index.writer import delete_docs
    from lucene_ray.search.engine import IndexSearcher
    from lucene_ray.search.query import BooleanQuery, LatLonBoxQuery

    ix = str(tmp_path / "ix")
    build_index([documents_as_corpus(SF)], ix, target_docs=128, point2d_fields=("loc",))
    ids, lat, lon = _truth(SF)
    box = (-60.0, 60.0, -120.0, 120.0)
    want = ids[(lat >= box[0]) & (lat <= box[1]) & (lon >= box[2]) & (lon <= box[3])]
    victims = want[:5].tolist()
    delete_docs(ix, victims)
    force_merge(ix, use_ray=False)
    s = IndexSearcher(ix)
    td = s.search(BooleanQuery(must=[LatLonBoxQuery("loc", *box)]), 1_000_000)
    assert np.array_equal(
        np.sort(td.docids), np.sort(np.setdiff1d(want, victims))
    )


def test_polygon_query_matches_bruteforce(geo_index):
    """Random polygons (convex + star-shaped concave) through the engine
    equal the direct PNPOLY over the synthetic field — the bbox prune
    never drops a contained point (LatLonPoint.newPolygonQuery)."""
    from lucene_ray.search import spatial as sp
    from lucene_ray.search.engine import IndexSearcher
    from lucene_ray.search.query import BooleanQuery, LatLonPolygonQuery

    ids, lat, lon = _truth(SF)
    s = IndexSearcher(geo_index)
    rng = np.random.default_rng(17)
    for _ in range(12):
        # star-shaped ring around a random center: sorted angles, random
        # radii — yields valid simple polygons, often concave
        cx = rng.uniform(-60, 60)
        cy = rng.uniform(-120, 120)
        nv = int(rng.integers(3, 9))
        ang = np.sort(rng.uniform(0, 2 * np.pi, nv))
        rad = rng.uniform(10, 55, nv)
        sh_lat = tuple(np.clip(cx + rad * np.sin(ang), -89.9, 89.9))
        sh_lon = tuple(np.clip(cy + rad * np.cos(ang), -179.9, 179.9))
        q = LatLonPolygonQuery("loc", (sh_lat, sh_lon))
        td = s.search(BooleanQuery(must=[q]), 1_000_000)
        want = np.sort(ids[sp.point_in_polygon(lat, lon, (sh_lat, sh_lon))])
        assert np.array_equal(np.sort(td.docids), want)


def test_polygon_hole_excludes(geo_index):
    from lucene_ray.search import spatial as sp
    from lucene_ray.search.engine import IndexSearcher
    from lucene_ray.search.query import BooleanQuery, LatLonPolygonQuery

    ids, lat, lon = _truth(SF)
    s = IndexSearcher(geo_index)
    shell = ((-70.0, 70.0, 70.0, -70.0), (-150.0, -150.0, 150.0, 150.0))
    hole = ((-30.0, 30.0, 30.0, -30.0), (-60.0, -60.0, 60.0, 60.0))
    full = s.search(
        BooleanQuery(must=[LatLonPolygonQuery("loc", shell)]), 1_000_000
    )
    holed = s.search(
        BooleanQuery(must=[LatLonPolygonQuery("loc", shell, (hole,))]),
        1_000_000,
    )
    in_hole = set(ids[sp.point_in_ring(lat, lon, *hole)].tolist())
    assert set(holed.docids.tolist()) == set(full.docids.tolist()) - in_hole
    assert len(holed.docids) < len(full.docids)


def test_ring_sql_matches_numpy():
    """The unrolled per-edge SQL is bit-identical to point_in_ring on the
    synthetic field (DuckDB twin contract)."""
    import duckdb

    from lucene_ray.search import spatial as sp

    ids, lat, lon = _truth(SF)
    shell = ((-80.0, 5.0, 75.0, 30.0, -45.0), (-170.0, -30.0, 40.0, 160.0, 100.0))
    hole = ((-20.0, 25.0, 5.0), (-40.0, -10.0, 30.0))
    want = np.sort(ids[sp.point_in_polygon(lat, lon, shell, (hole,))])
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM '{SF}/documents.parquet'"
    )
    expr = sp.polygon_sql(
        sp.synth_lat_sql("doc_id"), sp.synth_lon_sql("doc_id"), shell, (hole,)
    )
    got = (
        con.execute(
            f"SELECT doc_id FROM documents WHERE {expr} ORDER BY doc_id"
        )
        .fetchnumpy()["doc_id"]
        .astype(np.int64)
    )
    assert np.array_equal(got, want)


@pytest.mark.usefixtures("ray_session")
class TestIndexedShapes:
    """LatLonShape-lite (document/LatLonShape.java): triangle sidecar,
    relation semantics, merge survival, SQL parity."""

    SF = "/root/testdata/sf0.001"

    def test_shape_gate_parity(self):
        import duckdb

        from lucene_ray.ops import bm25docs
        from tests.test_ops import assert_same

        con = duckdb.connect()
        con.execute(
            f"CREATE VIEW documents AS SELECT * FROM "
            f"read_parquet('{self.SF}/documents.parquet')"
        )
        assert_same(bm25docs.shape_engine(self.SF), con, bm25docs.shape_engine_sql())

    def test_relation_algebra(self):
        from lucene_ray.ops.bm25docs import _engine_index
        from lucene_ray.search.engine import IndexSearcher
        from lucene_ray.search.query import BooleanQuery, ShapeBoxQuery

        s = IndexSearcher(_engine_index(self.SF, shape_fields=("rect",)))
        n = s.reader.manifest.doc_count
        box = dict(min_lat=10.005, max_lat=40.005, min_lon=-60.005, max_lon=0.005)
        inter = set(s.search(BooleanQuery(should=[
            ShapeBoxQuery("rect", relation="intersects", **box)]), 1 << 20).docids.tolist())
        within = set(s.search(BooleanQuery(should=[
            ShapeBoxQuery("rect", relation="within", **box)]), 1 << 20).docids.tolist())
        disjoint = set(s.search(BooleanQuery(should=[
            ShapeBoxQuery("rect", relation="disjoint", **box)]), 1 << 20).docids.tolist())
        assert within <= inter
        assert inter.isdisjoint(disjoint)
        assert len(inter) + len(disjoint) == n
        # whole-world box: everything within
        world = s.search(BooleanQuery(should=[ShapeBoxQuery(
            "rect", -100.0, 100.0, -200.0, 200.0, relation="within")]), 1 << 20)
        assert len(world.docids) == n

    def test_box_contains(self):
        """Box CONTAINS (new in v9): a box inside doc 5's rect matches it;
        a box straddling the rect boundary does not; an unknown relation
        still raises."""
        from lucene_ray.ops.bm25docs import _engine_index
        from lucene_ray.search.engine import IndexSearcher
        from lucene_ray.search.query import BooleanQuery, ShapeBoxQuery

        s = IndexSearcher(_engine_index(self.SF, shape_fields=("rect",)))
        inside = s.search(BooleanQuery(should=[ShapeBoxQuery(
            "rect", -12.005, -11.705, 31.505, 32.005,
            relation="contains")]), 1 << 20).docids.tolist()
        assert 5 in inside
        straddle = s.search(BooleanQuery(should=[ShapeBoxQuery(
            "rect", -12.005, -11.705, 31.005, 32.005,
            relation="contains")]), 1 << 20).docids.tolist()
        assert 5 not in straddle
        with pytest.raises(ValueError, match="relation"):
            s.search(BooleanQuery(should=[ShapeBoxQuery(
                "rect", 0.0, 1.0, 0.0, 1.0, relation="overlaps")]), 10)


@pytest.mark.usefixtures("ray_session")
class TestShapePolygon:
    """Polygon queries over indexed shapes (LatLonShape.newPolygonQuery +
    QueryRelation.CONTAINS over the v9 edge-origin flags)."""

    SF = "/root/testdata/sf0.001"

    def test_polygon_gate_parity(self):
        import duckdb
        from lucene_ray.ops import bm25docs
        from tests.test_ops import assert_same

        con = duckdb.connect()
        con.execute(
            f"CREATE VIEW documents AS SELECT * FROM "
            f"read_parquet('{self.SF}/documents.parquet')"
        )
        assert_same(
            bm25docs.shape_polygon_engine(self.SF),
            con,
            bm25docs.shape_polygon_engine_sql(),
        )

    def test_contains_matches_planted_doc(self):
        from lucene_ray.ops.bm25docs import (
            _diamond,
            _engine_index,
            SHAPE_POLY_QUERIES,
        )
        from lucene_ray.search.engine import IndexSearcher
        from lucene_ray.search.query import BooleanQuery, ShapePolygonQuery

        s = IndexSearcher(_engine_index(self.SF, shape_fields=("rect",)))
        # queries 3 and 4 were seated inside doc 5's / doc 11's rects
        for qid, want_doc in ((3, 5), (4, 11)):
            _, rel, clat, clon, r = SHAPE_POLY_QUERIES[qid]
            assert rel == "contains"
            got = s.search(
                BooleanQuery(should=[ShapePolygonQuery(
                    "rect", _diamond(clat, clon, r), relation="contains")]),
                1 << 20,
            ).docids.tolist()
            assert want_doc in got

    def test_polygon_relation_algebra(self):
        from lucene_ray.ops.bm25docs import _diamond, _engine_index
        from lucene_ray.search.engine import IndexSearcher
        from lucene_ray.search.query import BooleanQuery, ShapePolygonQuery

        s = IndexSearcher(_engine_index(self.SF, shape_fields=("rect",)))
        n = s.reader.manifest.doc_count
        sh = _diamond(20.000025, -30.000025, 25.000037)

        def run(rel, shell=sh):
            return set(s.search(BooleanQuery(should=[ShapePolygonQuery(
                "rect", shell, relation=rel)]), 1 << 20).docids.tolist())

        inter, within, disjoint = run("intersects"), run("within"), run("disjoint")
        contains = run("contains")
        assert within <= inter
        assert contains <= inter
        assert inter.isdisjoint(disjoint)
        assert len(inter) + len(disjoint) == n
        # a diamond covering the whole globe: every rect within
        world = run("within", _diamond(0.000025, 0.000025, 720.000037))
        assert world == set(range(n))

    def test_edge_flags_survive_merge(self):
        """The v9 fab/fbc/fca columns rebase through merge with their rows:
        exactly one internal-diagonal edge per triangle, rect layout."""
        import numpy as np
        from lucene_ray.ops.bm25docs import _engine_index
        from lucene_ray.search.engine import IndexSearcher

        # built + merged
        s = IndexSearcher(_engine_index(self.SF, shape_fields=("rect",)))
        for reader in s.reader.all_readers():
            dd = reader.shape_triangles("rect")[0]
            fab, fbc, fca = reader.shape_edge_flags("rect")
            # every rect tessellation: 2 triangles/doc, each with exactly
            # one non-boundary edge, and bc is always a boundary side
            assert np.all(fbc)
            assert np.all(fab.astype(int) + fca.astype(int) == 1)
            assert len(dd) == 2 * len(np.unique(dd))

    def test_contains_rejects_partial_overlap(self):
        """A diamond straddling a rect boundary must NOT match (the
        boundary-flag crossing fires NOTWITHIN) even though it intersects."""
        import numpy as np
        from lucene_ray.ops.bm25docs import _diamond, _engine_index
        from lucene_ray.search.engine import IndexSearcher
        from lucene_ray.search.query import BooleanQuery, ShapePolygonQuery
        from lucene_ray.search.spatial import synth_rect

        s = IndexSearcher(_engine_index(self.SF, shape_fields=("rect",)))
        lat0, lat1, lon0, lon1 = (v[0] for v in synth_rect(np.array([5])))
        # centered on doc 5's LEFT edge: half in, half out
        sh = _diamond((lat0 + lat1) / 2 + 0.000025, lon0 + 0.000025, 0.125037)
        got = s.search(BooleanQuery(should=[ShapePolygonQuery(
            "rect", sh, relation="contains")]), 1 << 20).docids.tolist()
        assert 5 not in got
        inter = s.search(BooleanQuery(should=[ShapePolygonQuery(
            "rect", sh, relation="intersects")]), 1 << 20).docids.tolist()
        assert 5 in inter


@pytest.mark.usefixtures("ray_session")
class TestShapeLine:
    """Line queries over indexed shapes (LatLonShape.newLineQuery)."""

    SF = "/root/testdata/sf0.001"

    def test_line_gate_parity(self):
        import duckdb
        from lucene_ray.ops import bm25docs
        from tests.test_ops import assert_same

        con = duckdb.connect()
        con.execute(
            f"CREATE VIEW documents AS SELECT * FROM "
            f"read_parquet('{self.SF}/documents.parquet')"
        )
        assert_same(
            bm25docs.shape_line_engine(self.SF),
            con,
            bm25docs.shape_line_engine_sql(),
        )

    def test_line_relation_algebra(self):
        from lucene_ray.ops.bm25docs import _engine_index
        from lucene_ray.search.engine import IndexSearcher
        from lucene_ray.search.query import BooleanQuery, ShapeLineQuery

        s = IndexSearcher(_engine_index(self.SF, shape_fields=("rect",)))
        n = s.reader.manifest.doc_count
        lats, lons = (20.000025, 20.000025), (-60.000025, 0.000025)

        def run(rel):
            return set(s.search(BooleanQuery(should=[ShapeLineQuery(
                "rect", lats, lons, relation=rel)]), 1 << 20).docids.tolist())

        inter, disjoint = run("intersects"), run("disjoint")
        contains = run("contains")
        assert inter.isdisjoint(disjoint)
        assert len(inter) + len(disjoint) == n
        assert contains <= inter
        with pytest.raises(ValueError, match="WITHIN"):
            run("within")

    def test_contains_matches_planted_doc(self):
        import numpy as np
        from lucene_ray.ops.bm25docs import _engine_index
        from lucene_ray.search.engine import IndexSearcher
        from lucene_ray.search.query import BooleanQuery, ShapeLineQuery
        from lucene_ray.search.spatial import synth_rect

        s = IndexSearcher(_engine_index(self.SF, shape_fields=("rect",)))
        # segment inside doc 5's rect matches; one poking past the right
        # edge does not (the boundary-flag crossing fires)
        inside = s.search(BooleanQuery(should=[ShapeLineQuery(
            "rect", (-11.869475, -11.869475), (31.505025, 32.005025),
            relation="contains")]), 1 << 20).docids.tolist()
        assert 5 in inside
        lat0, lat1, lon0, lon1 = (v[0] for v in synth_rect(np.array([5])))
        poking = s.search(BooleanQuery(should=[ShapeLineQuery(
            "rect", (-11.869475, -11.869475), (31.505025, lon1 + 1.0),
            relation="contains")]), 1 << 20).docids.tolist()
        assert 5 not in poking


@pytest.mark.usefixtures("ray_session")
def test_shape_point_gate_and_checkindex():
    import duckdb
    from lucene_ray.index.checkindex import check_index
    from lucene_ray.ops import bm25docs
    from tests.test_ops import assert_same

    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM read_parquet('{SF}/documents.parquet')"
    )
    assert_same(
        bm25docs.shape_point_engine(SF), con, bm25docs.shape_point_engine_sql()
    )
    # the shape index (with v9 flags) passes CheckIndex incl. the
    # edge-flag invariants
    report = check_index(bm25docs._engine_index(SF, shape_fields=("rect",)))
    assert not report["problems"], report["problems"]


class TestNearest:
    """LatLonPointPrototypeQueries.nearest analog (spatial.nearest_topk)."""

    def test_matches_brute_force(self, tmp_path, ray_session):
        import pyarrow.parquet as pq_mod

        from lucene_ray.index.builder import build_index
        from lucene_ray.search.spatial import (
            haversine_m,
            nearest_topk,
            synth_lat,
            synth_lon,
        )

        n = 200
        tbl = pa.table(
            {
                "repo": ["r"] * n,
                "path": [f"f{i}.py" for i in range(n)],
                "commit": ["c"] * n,
                "lang": ["py"] * n,
                "content": ["alpha beta"] * n,
            }
        )
        cp = str(tmp_path / "c.parquet")
        pq_mod.write_table(tbl, cp, row_group_size=50)
        ix = str(tmp_path / "ix")
        build_index([cp], ix, point2d_fields=("loc",))
        ids = np.arange(n, dtype=np.int64)
        la, lo = synth_lat(ids), synth_lon(ids)
        for qlat, qlon, k in [(10.1, 20.2, 5), (-45.3, 170.9, 12), (0.0, 0.1, 1)]:
            d = haversine_m(la, lo, qlat, qlon)
            want = [int(i) for i in np.lexsort((ids, d))[:k]]
            got = [doc for doc, _ in nearest_topk(ix, "loc", qlat, qlon, k)]
            assert got == want, (qlat, qlon, k)

    def test_skips_deleted(self, tmp_path, ray_session):
        import pyarrow.parquet as pq_mod

        from lucene_ray.index.builder import build_index
        from lucene_ray.index.writer import delete_docs
        from lucene_ray.search.spatial import (
            haversine_m,
            nearest_topk,
            synth_lat,
            synth_lon,
        )

        n = 60
        tbl = pa.table(
            {
                "repo": ["r"] * n,
                "path": [f"f{i}.py" for i in range(n)],
                "commit": ["c"] * n,
                "lang": ["py"] * n,
                "content": ["alpha"] * n,
            }
        )
        cp = str(tmp_path / "c.parquet")
        pq_mod.write_table(tbl, cp)
        ix = str(tmp_path / "ix")
        build_index([cp], ix, point2d_fields=("loc",))
        ids = np.arange(n, dtype=np.int64)
        d = haversine_m(synth_lat(ids), synth_lon(ids), 5.5, 6.5)
        order = np.lexsort((ids, d))
        # delete the nearest doc: it must vanish from the result
        delete_docs(ix, [int(order[0])])
        got = [doc for doc, _ in nearest_topk(ix, "loc", 5.5, 6.5, 3)]
        assert int(order[0]) not in got
        assert got == [int(i) for i in order[1:4]]


def test_bbox_relations_cross_check(tmp_path, ray_session):
    """LatLonBoundingBoxQuery vs brute-force per-axis relation algebra
    over the synthetic rect lattice, incl. merge survival."""
    import pyarrow.parquet as pq_mod

    from lucene_ray.index.builder import (
        _synth_bbox_lat,
        _synth_bbox_lon,
        build_index,
    )
    from lucene_ray.index.merge import force_merge
    from lucene_ray.search.engine import IndexSearcher
    from lucene_ray.search.query import BooleanQuery, LatLonBoundingBoxQuery
    from lucene_ray.search.spatial import QUANT

    n = 150
    tbl = pa.table(
        {
            "repo": ["r"] * n,
            "path": [f"f{i}.py" for i in range(n)],
            "commit": ["c"] * n,
            "lang": ["py"] * n,
            "content": ["alpha"] * n,
        }
    )
    cp = str(tmp_path / "c.parquet")
    pq_mod.write_table(tbl, cp, row_group_size=50)
    ix = str(tmp_path / "ix")
    build_index([cp], ix, range_fields=("bbox_lat", "bbox_lon"))
    force_merge(ix)  # sidecar must survive the merge fold
    s = IndexSearcher(ix)

    ids = np.arange(n, dtype=np.int64)
    la_lo, la_hi = _synth_bbox_lat(None, ids)
    lo_lo, lo_hi = _synth_bbox_lon(None, ids)

    def brute(qla0, qlo0, qla1, qlo1, rel):
        ql_lat, qh_lat = round(qla0 * QUANT), round(qla1 * QUANT)
        ql_lon, qh_lon = round(qlo0 * QUANT), round(qlo1 * QUANT)

        def ax(rel_, lo, hi, ql, qh):
            if rel_ == "intersects":
                return (lo <= qh) & (hi >= ql)
            if rel_ == "within":
                return (lo >= ql) & (hi <= qh)
            return (lo <= ql) & (hi >= qh)

        def both(rel_):
            return ax(rel_, la_lo, la_hi, ql_lat, qh_lat) & ax(
                rel_, lo_lo, lo_hi, ql_lon, qh_lon
            )

        if rel == "crosses":
            m = both("intersects") & ~both("within") & ~both("contains")
        else:
            m = both(rel)
        return sorted(ids[m].tolist())

    box = (-20.0, -60.0, 42.1234, 95.5)
    for rel in ("intersects", "within", "contains", "crosses"):
        q = BooleanQuery(must=[LatLonBoundingBoxQuery("bbox", *box, rel)])
        got = sorted(s.search(q, 10_000).docids.tolist())
        assert got == brute(*box, rel), rel

"""2-D geo points: the LatLonPoint analog (document/LatLonPoint.java:63
box/distance factories; index layout per core/util/bkd/BKDWriter.java:61
— leaf-blocked, space-ordered points with per-block bounds for pruning).

Ray/Arrow re-expression: per segment a ``spatial.parquet`` sidecar holds
(field, morton, lat, lon, docid) sorted by Morton (Z-order) code of the
quantized (lat, lon) pair, written with SMALL ROW GROUPS (512 rows — the
BKD leaf analog). Parquet row-group statistics on the ``morton`` column
ARE the inner-node bounds: a box query decomposes into Z-order ranges
(quadtree walk, the BKD intersect recursion) and reads only row groups
whose [min, max] morton overlaps a range, then exact-filters on the raw
float64 lat/lon. Distance queries derive a bounding box (the
Rectangle.fromPointDistance pre-filter of LatLonPoint.newDistanceQuery)
and exact-filter by haversine.

Quantization (2^-4 degree-milliunits) is used ONLY for pruning; matching
is decided on the stored raw doubles, so the DuckDB oracle (same doubles,
same comparisons) is exact. floor() is monotonic, hence quantized prune
bounds [floor(lo), floor(hi)] can never exclude a matching doc.

The synthetic ``loc`` deriver assigns each doc a deterministic lat/lon
from its global docid via Knuth multiplicative hashes — integer-exact in
both numpy and DuckDB SQL, so the oracle reproduces the field from
doc_id alone (the corpus has no geo columns; this is the demo geo field).
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa

from lucene_ray.index.segfiles import SPATIAL_ROW_GROUP  # noqa: F401  (re-export)

QUANT = 10_000            # 1e-4 degree grid: qlat/qlon < 2^22
LAT_SPAN = 180 * QUANT    # 1_800_000
LON_SPAN = 360 * QUANT    # 3_600_000
MORTON_BITS = 22          # per axis
EARTH_RADIUS_M = 6_371_008.7714  # mean radius (GeoUtils.EARTH_MEAN_RADIUS)

_LAT_MULT = 2654435761    # Knuth 2^32 * phi
_LON_MULT = 2246822519


# ----------------------------------------------------------- synthetic field

def synth_lat(docids: np.ndarray) -> np.ndarray:
    return ((docids.astype(np.int64) * _LAT_MULT) % LAT_SPAN) / QUANT - 90.0


def synth_lon(docids: np.ndarray) -> np.ndarray:
    return ((docids.astype(np.int64) * _LON_MULT) % LON_SPAN) / QUANT - 180.0


def synth_lat_sql(col: str = "doc_id") -> str:
    return f"(({col} * {_LAT_MULT}) % {LAT_SPAN}) / {QUANT}.0 - 90.0"


def synth_lon_sql(col: str = "doc_id") -> str:
    return f"(({col} * {_LON_MULT}) % {LON_SPAN}) / {QUANT}.0 - 180.0"


def _synth_geo(table: pa.Table, global_docids: np.ndarray):
    return synth_lat(global_docids), synth_lon(global_docids)


# field name -> (table, global_docids) -> (lat, lon) float64 arrays.
# Real corpora register derivers that read table columns; the synthetic
# "loc" field is a pure function of docid so SQL oracles can mirror it.
POINT2D_DERIVERS = {"loc": _synth_geo}


# ------------------------------------------------------------------- encoding

def quantize_lat(lat: np.ndarray) -> np.ndarray:
    q = np.floor((np.asarray(lat, dtype=np.float64) + 90.0) * QUANT)
    return np.clip(q, 0, LAT_SPAN - 1).astype(np.uint64)


def quantize_lon(lon: np.ndarray) -> np.ndarray:
    q = np.floor((np.asarray(lon, dtype=np.float64) + 180.0) * QUANT)
    return np.clip(q, 0, LON_SPAN - 1).astype(np.uint64)


def _part1by1(x: np.ndarray) -> np.ndarray:
    """Spread the low 32 bits of x to the even bit positions."""
    x = x.astype(np.uint64) & np.uint64(0xFFFFFFFF)
    x = (x | (x << np.uint64(16))) & np.uint64(0x0000FFFF0000FFFF)
    x = (x | (x << np.uint64(8))) & np.uint64(0x00FF00FF00FF00FF)
    x = (x | (x << np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    x = (x | (x << np.uint64(2))) & np.uint64(0x3333333333333333)
    x = (x | (x << np.uint64(1))) & np.uint64(0x5555555555555555)
    return x


def morton(qlat: np.ndarray, qlon: np.ndarray) -> np.ndarray:
    """Interleave: even bits lat, odd bits lon (44 significant bits)."""
    return _part1by1(qlat) | (_part1by1(qlon) << np.uint64(1))


# ------------------------------------------------- quadtree range decomposition

def box_morton_ranges(
    lat_lo: float,
    lat_hi: float,
    lon_lo: float,
    lon_hi: float,
    max_depth: int = 11,
) -> list[tuple[int, int]]:
    """Decompose a quantized box into inclusive Morton-code ranges — the
    BKD intersect recursion (CELL_INSIDE_QUERY emits the whole subtree;
    CELL_CROSSES_QUERY recurses, bottoming out at max_depth). Returned
    ranges are sorted and adjacent-merged; pruning-only, so bottoming out
    early just reads a few extra row groups."""
    a_lo = int(quantize_lat(np.array([lat_lo]))[0])
    a_hi = int(quantize_lat(np.array([lat_hi]))[0])
    o_lo = int(quantize_lon(np.array([lon_lo]))[0])
    o_hi = int(quantize_lon(np.array([lon_hi]))[0])
    out: list[tuple[int, int]] = []
    full = (1 << (2 * MORTON_BITS)) - 1

    stack = [(0, 0, 0)]  # (depth, qlat_prefix, qlon_prefix)
    while stack:
        depth, pa_, po_ = stack.pop()
        side = MORTON_BITS - depth
        c_alo, c_ahi = pa_ << side, ((pa_ + 1) << side) - 1
        c_olo, c_ohi = po_ << side, ((po_ + 1) << side) - 1
        if c_ahi < a_lo or c_alo > a_hi or c_ohi < o_lo or c_olo > o_hi:
            continue  # CELL_OUTSIDE_QUERY
        inside = (
            c_alo >= a_lo and c_ahi <= a_hi and c_olo >= o_lo and c_ohi <= o_hi
        )
        if inside or depth >= max_depth:
            base = int(
                morton(
                    np.array([pa_ << side], dtype=np.uint64),
                    np.array([po_ << side], dtype=np.uint64),
                )[0]
            )
            span = (1 << (2 * side)) - 1
            out.append((base, base + span))
            continue
        for da in (0, 1):
            for do in (0, 1):
                stack.append((depth + 1, (pa_ << 1) | da, (po_ << 1) | do))
    out.sort()
    merged: list[tuple[int, int]] = []
    for lo, hi in out:
        if merged and lo <= merged[-1][1] + 1:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    return merged or [(0, full)]


# ----------------------------------------------------------------- distance

def haversine_m(
    lat1: np.ndarray, lon1: np.ndarray, lat2: float, lon2: float
) -> np.ndarray:
    """Great-circle metres (SloppyMath.haversinMeters spec, exact form)."""
    p1 = np.radians(np.asarray(lat1, dtype=np.float64))
    p2 = math.radians(lat2)
    dp = np.radians(np.asarray(lat1, dtype=np.float64) - lat2)
    dl = np.radians(np.asarray(lon1, dtype=np.float64) - lon2)
    a = np.sin(dp / 2) ** 2 + np.cos(p1) * math.cos(p2) * np.sin(dl / 2) ** 2
    return 2 * EARTH_RADIUS_M * np.arcsin(np.sqrt(np.clip(a, 0, 1)))


def haversine_sql(lat_expr: str, lon_expr: str, lat: float, lon: float) -> str:
    """DuckDB twin of haversine_m (same formula, float64 trig)."""
    return (
        f"2 * {EARTH_RADIUS_M!r} * asin(sqrt("
        f"pow(sin(radians(({lat_expr}) - ({lat!r})) / 2), 2) + "
        f"cos(radians({lat_expr})) * cos(radians({lat!r})) * "
        f"pow(sin(radians(({lon_expr}) - ({lon!r})) / 2), 2)))"
    )


def nearest_topk(
    index_dir: str, field: str, lat: float, lon: float, k: int
) -> list[tuple[int, float]]:
    """K nearest points to (lat, lon) as [(global_docid, metres)] sorted
    by (distance asc, docid asc) — LatLonPointPrototypeQueries.nearest /
    LatLonDocValuesField.newDistanceSort. Per segment, a growing-radius
    BKD prune replaces the reference's best-first cell queue: candidate
    boxes double in radius until the k-th candidate distance fits inside
    the verified radius (every point within r lies inside
    distance_box(r), so once kth_dist <= r no unseen point can beat it);
    segments then merge on the driver (k rows each). Deleted and
    soft-deleted docs are skipped."""
    from lucene_ray.search.reader import IndexReader

    rd = IndexReader(index_dir)
    cand: list[tuple[float, int]] = []
    for e in rd.segments:
        sr = rd.segment_reader(e.name)
        r = 10_000.0  # 10 km opening guess; doubles until verified
        while True:
            t = sr._spatial_candidates(field, *distance_box(lat, lon, r))
            full = r >= EARTH_RADIUS_M * math.pi
            if t is None:
                if full:
                    break
                r *= 2.0
                continue
            d = t.column("docid").to_numpy(zero_copy_only=False).astype(np.int64)
            if sr.live_mask is not None:
                keep = sr.live_mask[d]
                t = t.filter(pa.array(keep))
                d = d[keep]
            if len(d) == 0:
                if full:
                    break
                r *= 2.0
                continue
            dist = haversine_m(
                t.column("lat").to_numpy(zero_copy_only=False),
                t.column("lon").to_numpy(zero_copy_only=False),
                lat, lon,
            )
            if len(d) >= k:
                kth = np.partition(dist, k - 1)[k - 1]
                if kth <= r or full:
                    order = np.lexsort((d, dist))[:k]
                    cand.extend(
                        (float(dist[i]), int(d[i]) + sr.docid_base)
                        for i in order
                    )
                    break
            elif full:
                order = np.lexsort((d, dist))
                cand.extend(
                    (float(dist[i]), int(d[i]) + sr.docid_base)
                    for i in order
                )
                break
            r *= 2.0
    cand.sort()
    return [(doc, dist) for dist, doc in cand[:k]]


def distance_box(
    lat: float, lon: float, radius_m: float
) -> tuple[float, float, float, float]:
    """Bounding box containing the radius (Rectangle.fromPointDistance):
    lat span from the meridian arc; lon span widened by 1/cos(|lat|+span)
    with pole/antimeridian clamping to the full span (prune-only, so a
    conservative box is always safe)."""
    dlat = math.degrees(radius_m / EARTH_RADIUS_M)
    lat_lo, lat_hi = max(lat - dlat, -90.0), min(lat + dlat, 90.0)
    edge = min(abs(lat) + dlat, 89.9999)
    cosl = math.cos(math.radians(edge))
    if cosl <= 1e-9:
        return lat_lo, lat_hi, -180.0, 180.0
    dlon = math.degrees(radius_m / (EARTH_RADIUS_M * cosl))
    if dlon >= 180.0:
        return lat_lo, lat_hi, -180.0, 180.0
    lon_lo, lon_hi = lon - dlon, lon + dlon
    if lon_lo < -180.0 or lon_hi > 180.0:
        # antimeridian wrap: fall back to the full lon span (prune-only)
        return lat_lo, lat_hi, -180.0, 180.0
    return lat_lo, lat_hi, lon_lo, lon_hi


def point_in_ring(
    lat: np.ndarray, lon: np.ndarray, ring_lats: tuple, ring_lons: tuple
) -> np.ndarray:
    """Vectorized crossing-number (ray-casting) point-in-ring test — the
    Polygon2D.contains spec (geo/Polygon2D.java; GeoUtils PNPOLY form):
    an eastward ray from the point crosses edge (i, i+1) iff the edge
    straddles the point's latitude (strict > on both ends) and the
    crossing longitude lies strictly east. Boundary points follow the
    asymmetric PNPOLY convention exactly; the SQL twin unrolls the same
    per-edge float64 expression so both sides agree bit-for-bit."""
    lat = np.asarray(lat, dtype=np.float64)
    lon = np.asarray(lon, dtype=np.float64)
    inside = np.zeros(lat.shape, dtype=bool)
    n = len(ring_lats)
    for i in range(n):
        y1, x1 = float(ring_lats[i]), float(ring_lons[i])
        y2, x2 = float(ring_lats[(i + 1) % n]), float(ring_lons[(i + 1) % n])
        if y1 == y2:
            continue  # horizontal edge never straddles (matches the SQL)
        straddle = (y1 > lat) != (y2 > lat)
        with np.errstate(divide="ignore", invalid="ignore"):
            cross = lon < (x2 - x1) * (lat - y1) / (y2 - y1) + x1
        inside ^= straddle & cross
    return inside


def point_in_polygon(
    lat: np.ndarray,
    lon: np.ndarray,
    shell: tuple[tuple, tuple],
    holes: tuple = (),
) -> np.ndarray:
    """Inside the shell ring and not inside any hole ring
    (document/LatLonPoint.newPolygonQuery over geo/Polygon.java with
    holes)."""
    m = point_in_ring(lat, lon, shell[0], shell[1])
    for h_lats, h_lons in holes:
        m &= ~point_in_ring(lat, lon, h_lats, h_lons)
    return m


def ring_sql(lat_expr: str, lon_expr: str, ring_lats: tuple, ring_lons: tuple) -> str:
    """DuckDB twin of point_in_ring: the polygon is fixed at query time,
    so edges UNROLL into an XOR-chain (sum of per-edge crossing booleans,
    odd = inside) with the identical float64 arithmetic."""
    terms = []
    n = len(ring_lats)
    for i in range(n):
        y1, x1 = float(ring_lats[i]), float(ring_lons[i])
        y2, x2 = float(ring_lats[(i + 1) % n]), float(ring_lons[(i + 1) % n])
        if y1 == y2:
            continue
        terms.append(
            f"(CASE WHEN (({y1!r} > ({lat_expr})) != ({y2!r} > ({lat_expr}))) "
            f"AND (({lon_expr}) < ({x2!r} - {x1!r}) * (({lat_expr}) - {y1!r}) "
            f"/ ({y2!r} - {y1!r}) + {x1!r}) THEN 1 ELSE 0 END)"
        )
    if not terms:
        return "FALSE"
    return f"(({' + '.join(terms)}) % 2 = 1)"


def polygon_sql(
    lat_expr: str, lon_expr: str, shell: tuple[tuple, tuple], holes: tuple = ()
) -> str:
    parts = [ring_sql(lat_expr, lon_expr, *shell)]
    parts.extend(
        f"NOT {ring_sql(lat_expr, lon_expr, h_lats, h_lons)}"
        for h_lats, h_lons in holes
    )
    return "(" + " AND ".join(parts) + ")"



def prune_row_groups(
    rg_stats: list[tuple], field: str, ranges: list[tuple[int, int]]
) -> list[int]:
    """BKD inner-node walk over parquet row-group statistics: keep group g
    iff its field min/max admits ``field`` AND its morton [min, max]
    overlaps any covering Z-order range. ``rg_stats`` rows are
    (morton_min, morton_max, field_min, field_max)."""
    return [
        g
        for g, (mlo, mhi, flo, fhi) in enumerate(rg_stats)
        if flo <= field <= fhi
        and any(lo <= mhi and hi >= mlo for lo, hi in ranges)
    ]


def build_spatial_table(
    fields: dict[str, tuple[np.ndarray, np.ndarray, np.ndarray]],
) -> pa.Table:
    """(field, morton, lat, lon, docid) sorted by (field, morton, docid) —
    the segment build's writer. Write it through ``segfiles.SPATIAL`` (row
    groups of SPATIAL_ROW_GROUP) so the BKD-leaf pruning granularity is
    uniform. ``fields``: name -> (lat, lon, local_docid) arrays."""
    parts = []
    for fname in sorted(fields):
        lat, lon, docid = fields[fname]
        lat = np.asarray(lat, dtype=np.float64)
        lon = np.asarray(lon, dtype=np.float64)
        m = morton(quantize_lat(lat), quantize_lon(lon))
        o = np.lexsort((docid, m))
        parts.append(
            pa.table(
                {
                    "field": pa.array([fname] * len(lat), type=pa.string()),
                    "morton": pa.array(m[o], type=pa.uint64()),
                    "lat": pa.array(lat[o], type=pa.float64()),
                    "lon": pa.array(lon[o], type=pa.float64()),
                    "docid": pa.array(
                        np.asarray(docid)[o].astype(np.int64), type=pa.int64()
                    ),
                }
            )
        )
    return pa.concat_tables(parts)


# ------------------------------------------------------- indexed shapes
# LatLonShape (document/LatLonShape.java): shapes are tessellated into
# triangles at index time (geo/Tessellator.java) and queries evaluate a
# relation per component triangle (document/LatLonShapeQuery /
# ShapeQuery.java). Re-expression: per segment a ``shapes.parquet``
# sidecar holds one row per triangle (docid, ax..cy in lon/lat degrees,
# float64) plus the reference's per-edge ORIGIN flags (fab/fbc/fca,
# document/ShapeField.java encodeTriangle's ab/bc/ca bits: True = the
# triangle edge lies on the original shape's boundary, False = an internal
# tessellation diagonal). Relations implemented: INTERSECTS / WITHIN /
# DISJOINT / CONTAINS (QueryRelation.java) — CONTAINS aggregates Lucene's
# WithinRelation per triangle (Component2D.withinTriangle): a doc matches
# iff no query edge crosses a FLAGGED (boundary) edge of any of its
# triangles AND the query's reference vertex lies inside some triangle.

def synth_rect(docids: np.ndarray):
    """Deterministic per-doc rectangle anchored at the synthetic point:
    [lat, lat+h] x [lon, lon+w], h = 0.25 + (docid % 4) * 0.25,
    w = 0.25 + (docid % 3) * 0.5 — exact in float64 and SQL-mirrorable
    from doc_id alone (all quantities are quarter-multiples)."""
    d = np.asarray(docids, dtype=np.int64)
    lat0 = synth_lat(d)
    lon0 = synth_lon(d)
    h = 0.25 + (d % 4) * 0.25
    w = 0.25 + (d % 3) * 0.5
    return lat0, lat0 + h, lon0, lon0 + w


def synth_rect_sql(col: str = "doc_id"):
    """(lat0, lat1, lon0, lon1) SQL expressions mirroring synth_rect."""
    lat0 = synth_lat_sql(col)
    lon0 = synth_lon_sql(col)
    return (
        f"({lat0})",
        f"(({lat0}) + (0.25 + ({col} % 4) * 0.25))",
        f"({lon0})",
        f"(({lon0}) + (0.25 + ({col} % 3) * 0.5))",
    )


def rect_triangles(docids: np.ndarray):
    """Tessellate each doc's rect into 2 triangles (Tessellator shape);
    returns (docid_per_tri, ax, ay, bx, by, cx, cy, fab, fbc, fca) with
    x=lon, y=lat. The f* booleans are the reference's edge-origin bits
    (ShapeField.encodeTriangle): the rect's four sides are boundary edges,
    the shared diagonal (x0,y0)-(x1,y1) is internal."""
    lat0, lat1, lon0, lon1 = synth_rect(docids)
    d = np.asarray(docids, dtype=np.int64)
    n = len(d)
    # t1 = (x0,y0)-(x1,y0)-(x1,y1): ab=bottom, bc=right, ca=DIAGONAL
    # t2 = (x0,y0)-(x1,y1)-(x0,y1): ab=DIAGONAL, bc=top, ca=left
    dd = np.concatenate([d, d])
    ax = np.concatenate([lon0, lon0])
    ay = np.concatenate([lat0, lat0])
    bx = np.concatenate([lon1, lon1])
    by = np.concatenate([lat0, lat1])
    cx = np.concatenate([lon1, lon0])
    cy = np.concatenate([lat1, lat1])
    t = np.ones(n, dtype=bool)
    f = np.zeros(n, dtype=bool)
    fab = np.concatenate([t, f])
    fbc = np.concatenate([t, t])
    fca = np.concatenate([f, t])
    return dd, ax, ay, bx, by, cx, cy, fab, fbc, fca


SHAPE_DERIVERS = {"rect": rect_triangles}


def _point_in_tri(px, py, ax, ay, bx, by, cx, cy):
    """Vectorized point-in-triangle (boundary inclusive) via half-plane
    sign tests."""
    d1 = (px - bx) * (ay - by) - (ax - bx) * (py - by)
    d2 = (px - cx) * (by - cy) - (bx - cx) * (py - cy)
    d3 = (px - ax) * (cy - ay) - (cx - ax) * (py - ay)
    has_neg = (d1 < 0) | (d2 < 0) | (d3 < 0)
    has_pos = (d1 > 0) | (d2 > 0) | (d3 > 0)
    return ~(has_neg & has_pos)


def _segs_intersect(p1x, p1y, p2x, p2y, q1x, q1y, q2x, q2y):
    """Vectorized proper/improper segment intersection (orientation
    tests, touching counts)."""
    def orient(ax, ay, bx, by, cx, cy):
        return np.sign((bx - ax) * (cy - ay) - (by - ay) * (cx - ax))

    o1 = orient(p1x, p1y, p2x, p2y, q1x, q1y)
    o2 = orient(p1x, p1y, p2x, p2y, q2x, q2y)
    o3 = orient(q1x, q1y, q2x, q2y, p1x, p1y)
    o4 = orient(q1x, q1y, q2x, q2y, p2x, p2y)
    general = (o1 != o2) & (o3 != o4)

    def on_seg(ax, ay, bx, by, px, py, o):
        return (
            (o == 0)
            & (np.minimum(ax, bx) <= px) & (px <= np.maximum(ax, bx))
            & (np.minimum(ay, by) <= py) & (py <= np.maximum(ay, by))
        )

    col = (
        on_seg(p1x, p1y, p2x, p2y, q1x, q1y, o1)
        | on_seg(p1x, p1y, p2x, p2y, q2x, q2y, o2)
        | on_seg(q1x, q1y, q2x, q2y, p1x, p1y, o3)
        | on_seg(q1x, q1y, q2x, q2y, p2x, p2y, o4)
    )
    return general | col


def tri_box_relation(tris, min_lat, max_lat, min_lon, max_lon):
    """(intersects, within) boolean arrays per TRIANGLE for an axis-
    aligned box (lat = y, lon = x), boundary-inclusive — the per-
    component tests of LatLonShapeBoundingBoxQuery."""
    ax, ay, bx, by, cx, cy = tris
    x0, x1, y0, y1 = min_lon, max_lon, min_lat, max_lat

    def in_box(px, py):
        return (px >= x0) & (px <= x1) & (py >= y0) & (py <= y1)

    va, vb, vc = in_box(ax, ay), in_box(bx, by), in_box(cx, cy)
    within = va & vb & vc
    inter = va | vb | vc
    # any box corner inside the triangle
    for px, py in ((x0, y0), (x1, y0), (x1, y1), (x0, y1)):
        inter |= _point_in_tri(px, py, ax, ay, bx, by, cx, cy)
    # any triangle edge crossing any box edge
    tri_edges = ((ax, ay, bx, by), (bx, by, cx, cy), (cx, cy, ax, ay))
    box_edges = (
        (x0, y0, x1, y0), (x1, y0, x1, y1),
        (x1, y1, x0, y1), (x0, y1, x0, y0),
    )
    for e in tri_edges:
        for f in box_edges:
            inter |= _segs_intersect(*e, *f)
    return inter, within


def _ring_edges(ring_lats: tuple, ring_lons: tuple):
    """Closed-ring edges as ((x1, y1, x2, y2), ...) scalars, x=lon."""
    n = len(ring_lats)
    return tuple(
        (
            float(ring_lons[i]), float(ring_lats[i]),
            float(ring_lons[(i + 1) % n]), float(ring_lats[(i + 1) % n]),
        )
        for i in range(n)
    )


def tri_polygon_relation(tris, shell: tuple[tuple, tuple], holes: tuple = ()):
    """(intersects, within) boolean arrays per TRIANGLE for a query polygon
    (shell = (ring_lats, ring_lons), holes likewise) — the per-component
    tests of LatLonShapeQuery over geo/Polygon2D: a triangle intersects iff
    any of its vertices is inside the polygon, any polygon vertex is inside
    the triangle, or any edge pair crosses; it is within iff all three
    vertices are inside AND no edge crosses the polygon boundary (shell or
    hole rings)."""
    ax, ay, bx, by, cx, cy = tris
    va = point_in_polygon(ay, ax, shell, holes)
    vb = point_in_polygon(by, bx, shell, holes)
    vc = point_in_polygon(cy, cx, shell, holes)
    inter = va | vb | vc
    rings = (shell,) + tuple(holes)
    # any polygon vertex inside the triangle
    for r_lats, r_lons in rings:
        for px, py in zip(r_lons, r_lats):
            inter |= _point_in_tri(
                float(px), float(py), ax, ay, bx, by, cx, cy
            )
    # any triangle edge crossing any ring edge
    cross = np.zeros(ax.shape, dtype=bool)
    tri_edges = ((ax, ay, bx, by), (bx, by, cx, cy), (cx, cy, ax, ay))
    for r_lats, r_lons in rings:
        for f in _ring_edges(r_lats, r_lons):
            for e in tri_edges:
                cross |= _segs_intersect(*e, *f)
    inter |= cross
    within = va & vb & vc & ~cross
    return inter, within


def _line_edges(lats: tuple, lons: tuple):
    """OPEN polyline edges ((x1, y1, x2, y2), ...), x=lon — unlike
    _ring_edges there is no closing edge."""
    return tuple(
        (
            float(lons[i]), float(lats[i]),
            float(lons[i + 1]), float(lats[i + 1]),
        )
        for i in range(len(lats) - 1)
    )


def tri_line_relation(tris, lats: tuple, lons: tuple):
    """intersects boolean array per TRIANGLE for an open query polyline
    (LatLonShape.newLineQuery -> LatLonShapeLineQuery per-component
    tests): a triangle intersects iff any line vertex is inside it or any
    line segment crosses any triangle edge. (A 2-D shape is never WITHIN
    a line, so only INTERSECTS/DISJOINT/CONTAINS make sense doc-level.)"""
    ax, ay, bx, by, cx, cy = tris
    inter = np.zeros(ax.shape, dtype=bool)
    for px, py in zip(lons, lats):
        inter |= _point_in_tri(float(px), float(py), ax, ay, bx, by, cx, cy)
    tri_edges = ((ax, ay, bx, by), (bx, by, cx, cy), (cx, cy, ax, ay))
    for f in _line_edges(lats, lons):
        for e in tri_edges:
            inter |= _segs_intersect(*e, *f)
    return inter


def tri_line_contains(tris, flags, lats: tuple, lons: tuple):
    """(candidate, notwithin) per TRIANGLE for QueryRelation.CONTAINS over
    a query polyline — the WithinRelation protocol with open edges:
    NOTWITHIN when a line segment crosses a boundary-flagged triangle
    edge, CANDIDATE when the line's first vertex sits inside the
    triangle; doc-level 'some candidate and no notwithin' = the line runs
    inside the union of the doc's triangles (non-tangent configs)."""
    ax, ay, bx, by, cx, cy = tris
    fab, fbc, fca = flags
    notwithin = np.zeros(ax.shape, dtype=bool)
    for f in _line_edges(lats, lons):
        notwithin |= fab & _segs_intersect(ax, ay, bx, by, *f)
        notwithin |= fbc & _segs_intersect(bx, by, cx, cy, *f)
        notwithin |= fca & _segs_intersect(cx, cy, ax, ay, *f)
    candidate = _point_in_tri(
        float(lons[0]), float(lats[0]), ax, ay, bx, by, cx, cy
    )
    return candidate, notwithin


def tri_polygon_contains(
    tris, flags, shell: tuple[tuple, tuple], holes: tuple = ()
):
    """(candidate, notwithin) per TRIANGLE for QueryRelation.CONTAINS —
    Lucene's WithinRelation protocol (Component2D.withinTriangle /
    ShapeQuery's CONTAINS aggregation): ``notwithin`` fires when a query
    edge crosses a triangle edge FLAGGED as original shape boundary
    (crossing an internal tessellation diagonal is harmless);
    ``candidate`` fires when the query's reference vertex (shell vertex 0)
    lies inside the triangle. The doc-level rule — some candidate and no
    notwithin — is exactly 'the query shape sits inside the union of the
    doc's triangles' for non-tangent configurations."""
    ax, ay, bx, by, cx, cy = tris
    fab, fbc, fca = flags
    notwithin = np.zeros(ax.shape, dtype=bool)
    rings = (shell,) + tuple(holes)
    for r_lats, r_lons in rings:
        for f in _ring_edges(r_lats, r_lons):
            notwithin |= fab & _segs_intersect(ax, ay, bx, by, *f)
            notwithin |= fbc & _segs_intersect(bx, by, cx, cy, *f)
            notwithin |= fca & _segs_intersect(cx, cy, ax, ay, *f)
    candidate = _point_in_tri(
        float(shell[1][0]), float(shell[0][0]), ax, ay, bx, by, cx, cy
    )
    return candidate, notwithin

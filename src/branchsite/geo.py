"""Geometry primitives and the geometric kernels.

Two coordinate modes exist project-wide: ``planar`` (x/y in meters) and
``geodesic`` (x = longitude, y = latitude in degrees, distances on a sphere
of radius 6,371,000 m). Mixing modes is a caller error; every consumer takes
the mode explicitly. All types are immutable after construction.

Each geometric operation has exactly one implementation, a numpy kernel over
coordinate arrays: ``distances_to`` (many points to one point, in either
mode, as the ``axis_terms`` of the rows and the columns and their
``join_terms``) and ``points_in_polygons`` (ray crossing, boundary
inclusive, of a set of polygons over ascending grid axes, each polygon on
its own window of the grid). The other entry points are thin wrappers that
run a kernel: ``planar_distance`` takes two Points; ``points_in_polygon``
is the set kernel on one polygon with the whole grid as its window;
``contains_each`` tests point k against polygon k for every k in one call,
on the axes of the points' sorted coordinates with a 1x1 window each, and
``point_in_polygon`` is that call on one point. So a scalar check agrees bit
for bit with every raster, coverage matrix and extraction built from the
arrays. Planar distances are ``dx*dx + dy*dy`` under a correctly rounded
square root, the same IEEE operations as a scalar evaluation; geodesic
distances are one numpy haversine.

``points_in_polygons`` is the crossing-number test (E. Haines, "Point in
Polygon Strategies", Graphics Gems IV, 1994) on a set of polygons at once.
Every ring's edges are tagged by their polygon, and an edge's crossing x
depends only on the row: the crossings are found per (edge, row), over all
the polygons' windows placed end to end, at O(rows an edge spans) each.
One sort of the crossings gives the parity per polygon and per ring, and
each edge's exact boundary test runs on its bounding-box window, the boxes
of all edges at once. A call pays its fixed numpy cost once for the set,
not once per polygon. The crossings and cross products are the per-cell
test's IEEE expressions, so both give the same grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import DomainError

EARTH_RADIUS_M = 6_371_000.0

PLANAR = "planar"
GEODESIC = "geodesic"
MODES = (PLANAR, GEODESIC)


@dataclass(frozen=True)
class Point:
    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise DomainError(f"point coordinates must be finite, got ({self.x}, {self.y})")


def check_geodesic_range(xs, ys) -> None:
    """Raise DomainError naming the first point (xs[k], ys[k]), in flat
    order, outside lon [-180, 180] or lat [-90, 90]; any shapes that
    broadcast."""
    xs, ys = np.broadcast_arrays(xs, ys)
    bad = ~((-180.0 <= xs) & (xs <= 180.0) & (-90.0 <= ys) & (ys <= 90.0))
    if bad.any():
        k = int(np.argmax(bad))
        raise DomainError(
            f"geodesic coordinates out of range: lon={xs.flat[k]}, lat={ys.flat[k]} "
            "(expected lon in [-180, 180], lat in [-90, 90])"
        )


def distances_to(xs: np.ndarray, ys: np.ndarray, q: Point,
                 mode: str = PLANAR) -> np.ndarray:
    """Distance in meters from each point (xs[k], ys[k]) to q under the
    coordinate mode: Euclidean in planar mode, haversine in geodesic mode."""
    if mode == GEODESIC:
        check_geodesic_range(xs, ys)
        check_geodesic_range(q.x, q.y)
    return join_terms(*axis_terms(xs, ys, q.x, q.y, mode), mode)


def axis_terms(xs, ys, qx, qy, mode: str = PLANAR) -> tuple[tuple, np.ndarray]:
    """The terms of the distance from (xs, ys) to (qx, qy) that depend on
    the y coordinates alone and on the x coordinates alone, which
    ``join_terms`` joins: a tuple of the rows' terms, and the columns'
    term. They are (dy*dy,) and dx*dx in planar mode, and
    (sin(dlat/2)**2, cos(lat1)*cos(lat2)) and sin(dlon/2)**2 in geodesic
    mode. A grid of rows ys and columns xs then costs its rows' and its
    columns' terms plus one join per cell, and each cell goes through the
    IEEE operations of evaluating it on its own. No range is checked."""
    if mode == PLANAR:
        dx = xs - qx
        dy = ys - qy
        return (dy * dy,), dx * dx
    if mode != GEODESIC:
        raise DomainError(f"unknown coordinate mode: {mode!r}")
    lat1 = np.radians(ys)
    lat2 = np.radians(qy)
    dlat = np.radians(qy - ys)
    dlon = np.radians(qx - xs)
    return (np.sin(dlat / 2.0) ** 2, np.cos(lat1) * np.cos(lat2)), np.sin(dlon / 2.0) ** 2


def join_terms(rows, cols, mode: str = PLANAR) -> np.ndarray:
    """The distances of the ``axis_terms`` (rows, cols), where each
    ``rows[k]`` and ``cols`` broadcast."""
    if mode == PLANAR:
        return np.sqrt(cols + rows[0])
    h = rows[0] + rows[1] * cols
    return 2.0 * EARTH_RADIUS_M * np.arcsin(np.minimum(1.0, np.sqrt(h)))


def _coords(p: Point) -> tuple[np.ndarray, np.ndarray]:
    return np.array([p.x]), np.array([p.y])


def planar_distance(a: Point, b: Point) -> float:
    """Euclidean distance in meters between two planar points."""
    return float(distances_to(*_coords(a), b, PLANAR)[0])


def _orient(a: Point, b: Point, c: Point) -> float:
    return (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)


def _on_segment(a: Point, b: Point, p: Point) -> bool:
    """True iff p lies on the closed segment [a, b]."""
    cross = (b.x - a.x) * (p.y - a.y) - (b.y - a.y) * (p.x - a.x)
    if cross != 0.0:
        return False
    return (
        min(a.x, b.x) <= p.x <= max(a.x, b.x)
        and min(a.y, b.y) <= p.y <= max(a.y, b.y)
    )


def _segments_intersect(p1: Point, p2: Point, q1: Point, q2: Point) -> bool:
    d1 = _orient(q1, q2, p1)
    d2 = _orient(q1, q2, p2)
    d3 = _orient(p1, p2, q1)
    d4 = _orient(p1, p2, q2)
    if ((d1 > 0) != (d2 > 0) and d1 != 0 and d2 != 0) and (
        (d3 > 0) != (d4 > 0) and d3 != 0 and d4 != 0
    ):
        return True
    if d1 == 0 and _on_segment(q1, q2, p1):
        return True
    if d2 == 0 and _on_segment(q1, q2, p2):
        return True
    if d3 == 0 and _on_segment(p1, p2, q1):
        return True
    if d4 == 0 and _on_segment(p1, p2, q2):
        return True
    return False


def _normalize_ring(vertices: Sequence[Point]) -> tuple[Point, ...]:
    """Drop a duplicated closing vertex and validate the ring is usable."""
    pts = list(vertices)
    if len(pts) >= 2 and pts[0] == pts[-1]:
        pts = pts[:-1]
    if len(pts) < 3:
        raise DomainError("polygon ring needs at least 3 distinct vertices")
    if len(set((p.x, p.y) for p in pts)) != len(pts):
        raise DomainError("polygon ring has repeated vertices")
    return tuple(pts)


def _ring_area(ring: Sequence[Point]) -> float:
    """Signed shoelace area of a ring given without the closing vertex."""
    s = 0.0
    n = len(ring)
    for i in range(n):
        a = ring[i]
        b = ring[(i + 1) % n]
        s += a.x * b.y - b.x * a.y
    return 0.5 * s


def _ring_self_intersects(ring: Sequence[Point]) -> bool:
    """True iff two edges of the ring that share no endpoint meet.

    Edges whose bounding boxes are disjoint share no point, so a sweep over
    the edges' x-intervals in order of their left ends tests only the pairs
    whose boxes overlap: each edge meets the earlier edges whose x-interval
    still reaches it, and of those the ones whose y-interval overlaps its
    own. A convex ring costs O(n log n) instead of the O(n^2) of all pairs.
    """
    n = len(ring)
    ends = ring[1:] + ring[:1]
    boxes = []
    for k, a, b in zip(range(n), ring, ends):
        x0, x1 = (a.x, b.x) if a.x <= b.x else (b.x, a.x)
        y0, y1 = (a.y, b.y) if a.y <= b.y else (b.y, a.y)
        boxes.append((x0, x1, y0, y1, k))
    boxes.sort()
    active: list[tuple] = []
    for box in boxes:
        x0, _, y0, y1, j = box
        active = [other for other in active if other[1] >= x0]
        for _, _, v0, v1, i in active:
            if (v0 <= y1 and v1 >= y0 and (i - j) % n not in (1, n - 1)
                    and _segments_intersect(ring[i], ends[i], ring[j], ends[j])):
                return True
        active.append(box)
    return False


@dataclass(frozen=True)
class Polygon:
    """Simple polygon: one exterior ring plus optional hole rings.

    Rings are stored without the duplicated closing vertex; input rings may
    be given open or closed. The exterior must be non-self-intersecting with
    strictly positive area. The area and the bounds are computed once, at
    construction.
    """

    exterior: tuple[Point, ...]
    holes: tuple[tuple[Point, ...], ...] = field(default=())

    def __post_init__(self):
        ext = _normalize_ring(self.exterior)
        holes = tuple(_normalize_ring(h) for h in self.holes)
        object.__setattr__(self, "exterior", ext)
        object.__setattr__(self, "holes", holes)
        area = abs(_ring_area(ext))
        if area <= 0.0:
            raise DomainError("polygon area must be strictly positive")
        for ring in (ext,) + holes:
            if _ring_self_intersects(ring):
                raise DomainError("polygon ring is self-intersecting")
        for hole in holes:
            area -= abs(_ring_area(hole))
        xs, ys = [p.x for p in ext], [p.y for p in ext]
        object.__setattr__(self, "_area", area)
        object.__setattr__(self, "_bounds", (min(xs), min(ys), max(xs), max(ys)))

    @property
    def area(self) -> float:
        return self._area

    @property
    def bounds(self) -> tuple[float, float, float, float]:
        return self._bounds

    @property
    def centroid(self) -> Point:
        """Arithmetic mean of the exterior's distinct vertices."""
        n = len(self.exterior)
        return Point(
            sum(p.x for p in self.exterior) / n,
            sum(p.y for p in self.exterior) / n,
        )


def _widest_midpoint(poly: Polygon, mean: Point) -> Point:
    """The midpoint of the widest inside interval of the horizontal line
    through ``mean``, between two consecutive crossings of the rings; the
    first of equally wide ones, and ``mean`` if the line crosses none."""
    y = mean.y
    xs = sorted(a.x + (y - a.y) * (b.x - a.x) / (b.y - a.y)
                for ring in (poly.exterior, *poly.holes)
                for a, b in zip(ring, ring[1:] + ring[:1]) if (a.y > y) != (b.y > y))
    # the line enters the polygon at every even crossing and leaves it at
    # the next one
    x0, x1 = max(zip(xs[::2], xs[1::2]), key=lambda iv: iv[1] - iv[0],
                 default=(mean.x, mean.x))
    return Point(x0 + (x1 - x0) / 2, y)


def representative_points(polys: Sequence[Polygon],
                          given: Sequence[Point | None] | None = None) -> list[Point | None]:
    """A point inside each polygon (boundary included), or None where none
    is found. Where ``given[k]`` is a point, it is polygon k's one
    candidate; else the candidates are the vertex mean, then the midpoint
    of the widest inside interval of the horizontal line through it. The
    given points and the vertex means are tested in one kernel call."""
    given = [None] * len(polys) if given is None else given
    first = [poly.centroid if point is None else point for poly, point in zip(polys, given)]
    found = []
    for poly, point, own, inside in zip(polys, first, given, contains_each(first, polys)):
        if not inside and own is None:
            point = _widest_midpoint(poly, point)
            inside = point_in_polygon(point, poly)
        found.append(point if inside else None)
    return found


def bounds_windows(xs: np.ndarray, ys: np.ndarray, polys: Sequence[Polygon]) -> np.ndarray:
    """One (r0, r1, c0, c1) row per polygon: the rows r0..r1-1 and columns
    c0..c1-1 of the ascending axes whose values lie inside its bounds."""
    b = np.array([poly.bounds for poly in polys], dtype=float).reshape(-1, 4)
    return np.stack([ys.searchsorted(b[:, 1], "left"), ys.searchsorted(b[:, 3], "right"),
                     xs.searchsorted(b[:, 0], "left"), xs.searchsorted(b[:, 2], "right")],
                    axis=1)


def _ranges(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(k, v) of every v in lo[k]..hi[k]-1, in order of k, then of v; hi
    is not below lo."""
    n = hi - lo
    ends = n.cumsum()
    k = np.arange(len(n)).repeat(n)
    return k, np.arange(ends[-1] if len(n) else 0) + (lo - ends + n).repeat(n)


# The boundary test evaluates about this many (edge, cell) pairs at a time.
_BOUNDARY_CELLS = 1 << 16


def points_in_polygons(xs: np.ndarray, ys: np.ndarray, polys: Sequence[Polygon],
                       windows) -> list[np.ndarray]:
    """Ray-crossing containment of the grid points (xs[c], ys[r]) of
    ascending axes in each polygon, on the polygon's window: for
    ``windows[k] = (r0, r1, c0, c1)``, block k is the (r1 - r0, c1 - c0)
    bool grid of rows r0..r1-1 and columns c0..c1-1 of polygon k. Boundary
    points count as inside. The blocks are views of one array.

    Every ring's edges are tagged by their polygon and ring. An edge
    crosses the rows whose y lies in [min(ay, by), max(ay, by)), which
    ``searchsorted`` finds; its crossing x on such a row becomes a cut at
    the first column of the window not left of it. The rings' blocks lie
    end to end, the exteriors' first, so one sort of all the cuts gives
    every cell of every ring the parity of the crossings not right of it.
    Each edge's exact boundary test runs on its bounding-box window, the
    windows of all edges at once, a bounded number of cells at a time.
    """
    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    windows = np.asarray(windows, dtype=np.intp).reshape(-1, 4).tolist()
    # per ring: its polygon's window and column count, its block and its
    # polygon's (the exterior's) block; a hole ring's block follows the
    # exteriors' and is as large as its polygon's
    sizes = [(r1 - r0) * (c1 - c0) for r0, r1, c0, c1 in windows]
    rings, holes = [], []
    start, end = 0, sum(sizes)
    for poly, (r0, r1, c0, c1), size in zip(polys, windows, sizes):
        rings.append((r0, r1, c0, c1, c1 - c0, start, start))
        for _ in poly.holes:
            rings.append((r0, r1, c0, c1, c1 - c0, end, start))
            holes.append((start, end, size))
            end += size
        start += size
    if not rings:
        return []
    # (ax, ay, bx, by) of every edge, ring by ring, and its ring's entry
    all_rings = [ring for poly in polys for ring in (poly.exterior, *poly.holes)]
    ax, ay, bx, by = np.array([(a.x, a.y, b.x, b.y) for ring in all_rings
                               for a, b in zip(ring, ring[1:] + ring[:1])], dtype=float).T
    er0, er1, ec0, ec1, ew, eblock, eext = np.repeat(
        np.array(rings, dtype=np.intp), [len(ring) for ring in all_rings], axis=0).T
    y_hi = np.maximum(ay, by)
    top = ys.searchsorted(np.minimum(ay, by), "left").clip(er0, er1)

    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        dx, dy = bx - ax, by - ay
        e, row = _ranges(top, ys.searchsorted(y_hi, "left").clip(er0, er1))
        x_at = ax[e] + (ys[row] - ay[e]) * dx[e] / dy[e]
        # a ring crosses each row an even number of times, so a cell's
        # parity is also that of the crossings not right of it: those with
        # xs[c] >= x_at, and every NaN x_at (xs < NaN is False), which fmax
        # turns into -inf
        col = xs.searchsorted(np.fmax(x_at, -np.inf), "left").clip(ec0[e], ec1[e])
        cuts = np.empty(len(e) + 2, dtype=np.intp)
        cuts[0], cuts[-1] = 0, end
        cuts[1:-1] = eblock[e] + (row - er0[e]) * ew[e] + col - ec0[e]
        cuts[1:-1].sort()
        odd = np.zeros(len(cuts) - 1, dtype=bool)
        odd[1::2] = True
        inside = odd.repeat(cuts[1:] - cuts[:-1])
        for ext, hole, size in holes:
            inside[ext:ext + size] &= ~inside[hole:hole + size]

        # the boundary: the cells of each edge's bounding-box window whose
        # cross product is exactly zero, row by row of the window, in
        # batches of rows of about _BOUNDARY_CELLS cells
        left = xs.searchsorted(np.minimum(ax, bx), "left").clip(ec0, ec1)
        right = xs.searchsorted(np.maximum(ax, bx), "right").clip(ec0, ec1)
        keep = (left < right).nonzero()[0]
        e, row = _ranges(top[keep], ys.searchsorted(y_hi[keep], "right").clip(
            er0[keep], er1[keep]))
        e = keep[e]
        ends = (right[e] - left[e]).cumsum()
        cut = ends.searchsorted(np.arange(_BOUNDARY_CELLS, ends[-1] if len(e) else 0,
                                          _BOUNDARY_CELLS)).tolist()
        for a, b in zip([0, *cut], [*cut, len(e)]):
            if a == b:
                continue
            pair, col = _ranges(left[e[a:b]], right[e[a:b]])
            k, r = e[a:b][pair], row[a:b][pair]
            on = (dx[k] * (ys[r] - ay[k]) - dy[k] * (xs[col] - ax[k]) == 0.0).nonzero()[0]
            k, r, col = k[on], r[on], col[on]
            inside[eext[k] + (r - er0[k]) * ew[k] + col - ec0[k]] = True
    blocks, start = [], 0
    for (r0, r1, c0, c1), size in zip(windows, sizes):
        blocks.append(inside[start:start + size].reshape(r1 - r0, c1 - c0))
        start += size
    return blocks


def points_in_polygon(xs: np.ndarray, ys: np.ndarray, poly: Polygon) -> np.ndarray:
    """Ray-crossing containment of every grid point (xs[c], ys[r]) as a
    (len(ys), len(xs)) bool grid, for ascending axes; boundary points
    count as inside. The kernel on one polygon, with the whole grid as its
    window."""
    (inside,) = points_in_polygons(xs, ys, [poly], [(0, len(ys), 0, len(xs))])
    return inside


def contains_each(points: Sequence[Point], polys: Sequence[Polygon]) -> list[bool]:
    """Whether point k lies in polygon k (boundary included), for every k,
    in one kernel call: the axes are the points' sorted coordinates and
    polygon k's window is its point's 1x1 cell."""
    px = np.array([p.x for p in points], dtype=float)
    py = np.array([p.y for p in points], dtype=float)
    xs, ys = np.sort(px), np.sort(py)
    c, r = xs.searchsorted(px), ys.searchsorted(py)
    blocks = points_in_polygons(xs, ys, polys, np.stack([r, r + 1, c, c + 1], axis=1))
    return [bool(b[0, 0]) for b in blocks]


def point_in_polygon(p: Point, poly: Polygon) -> bool:
    """Ray-crossing containment test; boundary points count as inside."""
    (inside,) = contains_each([p], [poly])
    return inside

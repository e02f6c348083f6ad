"""Geometry primitives and the geometric kernels.

Two coordinate modes exist project-wide: ``planar`` (x/y in meters) and
``geodesic`` (x = longitude, y = latitude in degrees, distances on a sphere
of radius 6,371,000 m). Mixing modes is a caller error; every consumer takes
the mode explicitly. All types are immutable after construction.

Each geometric operation has exactly one implementation, a numpy kernel over
coordinate arrays: ``distances_to`` (many points to one point, in either
mode) and ``points_in_polygon`` (ray crossing, boundary inclusive, over the
grid of ascending x and y axes). The scalar functions ``planar_distance``
and ``point_in_polygon`` are thin wrappers that run the kernel on one point,
for ``point_in_polygon`` a 1x1 grid, so a scalar check agrees bit for bit
with every raster, coverage matrix and extraction built from the arrays.
Planar distances are ``dx*dx + dy*dy`` under a correctly rounded square
root, the same IEEE operations as a scalar evaluation; geodesic distances
are one numpy haversine.

``points_in_polygon`` is the crossing-number test (E. Haines, "Point in
Polygon Strategies", Graphics Gems IV, 1994) on a grid, where an edge's
crossing x depends only on the row: the crossings cost O(edges x rows),
the parity one pass over the grid, and each edge's exact boundary test
its bounding-box window, not O(edges x cells). The crossings and cross
products are the per-cell test's IEEE expressions, so both give the same
grid.
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
    if mode == PLANAR:
        dx = xs - q.x
        dy = ys - q.y
        return np.sqrt(dx * dx + dy * dy)
    if mode != GEODESIC:
        raise DomainError(f"unknown coordinate mode: {mode!r}")
    check_geodesic_range(xs, ys)
    check_geodesic_range(q.x, q.y)
    lat1 = np.radians(ys)
    lat2 = np.radians(q.y)
    dlat = np.radians(q.y - ys)
    dlon = np.radians(q.x - xs)
    h = np.sin(dlat / 2.0) ** 2 + np.cos(lat1) * np.cos(lat2) * np.sin(dlon / 2.0) ** 2
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
    strictly positive area.
    """

    exterior: tuple[Point, ...]
    holes: tuple[tuple[Point, ...], ...] = field(default=())

    def __post_init__(self):
        ext = _normalize_ring(self.exterior)
        holes = tuple(_normalize_ring(h) for h in self.holes)
        object.__setattr__(self, "exterior", ext)
        object.__setattr__(self, "holes", holes)
        if abs(_ring_area(ext)) <= 0.0:
            raise DomainError("polygon area must be strictly positive")
        for ring in (ext,) + holes:
            if _ring_self_intersects(ring):
                raise DomainError("polygon ring is self-intersecting")

    @property
    def area(self) -> float:
        a = abs(_ring_area(self.exterior))
        for hole in self.holes:
            a -= abs(_ring_area(hole))
        return a

    @property
    def centroid(self) -> Point:
        """Arithmetic mean of the exterior's distinct vertices."""
        n = len(self.exterior)
        return Point(
            sum(p.x for p in self.exterior) / n,
            sum(p.y for p in self.exterior) / n,
        )

    def representative_point(self) -> Point:
        """A point inside the polygon (boundary included): the vertex mean
        when it lies inside; else the midpoint of the widest inside interval
        of the horizontal line through it, between two consecutive crossings
        of the rings. The vertex mean if that fails too."""
        mean = self.centroid
        if point_in_polygon(mean, self):
            return mean
        y = mean.y
        xs = sorted(a.x + (y - a.y) * (b.x - a.x) / (b.y - a.y)
                    for ring in (self.exterior, *self.holes)
                    for a, b in zip(ring, ring[1:] + ring[:1]) if (a.y > y) != (b.y > y))
        # the line enters the polygon at every even crossing and leaves it
        # at the next one
        x0, x1 = max(zip(xs[::2], xs[1::2]), key=lambda iv: iv[1] - iv[0],
                     default=(mean.x, mean.x))
        point = Point(x0 + (x1 - x0) / 2, y)
        return point if point_in_polygon(point, self) else mean

    @property
    def bounds(self) -> tuple[float, float, float, float]:
        xs = [p.x for p in self.exterior]
        ys = [p.y for p in self.exterior]
        return min(xs), min(ys), max(xs), max(ys)


def points_in_polygon(xs: np.ndarray, ys: np.ndarray, poly: Polygon) -> np.ndarray:
    """Ray-crossing containment of every grid point (xs[c], ys[r]) as a
    (len(ys), len(xs)) bool grid, for ascending axes; boundary points
    count as inside."""

    def ring_arrays(ring):
        x, y = [p.x for p in ring], [p.y for p in ring]
        return np.array(x), np.array(y), np.array(x[1:] + x[:1]), np.array(y[1:] + y[:1])

    def crossings_odd(ax, ay, bx, by):
        edge, row = np.nonzero((ay[:, None] > ys) != (by[:, None] > ys))
        x_at = ax[edge] + (ys[row] - ay[edge]) * (bx - ax)[edge] / (by - ay)[edge]
        # a ring crosses each row an even number of times, so a cell's
        # parity is also that of the crossings not right of it: those with
        # xs[c] >= x_at, and every NaN x_at (xs < NaN is False)
        k = np.where(np.isnan(x_at), 0, xs.searchsorted(x_at, "left"))
        cuts = np.concatenate(([0], np.sort(row * len(xs) + k), [len(ys) * len(xs)]))
        odd = np.zeros(len(cuts) - 1, dtype=bool)
        odd[1::2] = True
        return np.repeat(odd, cuts[1:] - cuts[:-1]).reshape(len(ys), len(xs))

    def on_ring(ax, ay, bx, by, on):
        # the window holds the axis values inside the edge's bounding box
        c0 = xs.searchsorted(np.minimum(ax, bx), "left")
        c1 = xs.searchsorted(np.maximum(ax, bx), "right")
        r0 = ys.searchsorted(np.minimum(ay, by), "left")
        r1 = ys.searchsorted(np.maximum(ay, by), "right")
        for x, y, dx, dy, a, b, c, d in zip(
                ax.tolist(), ay.tolist(), (bx - ax).tolist(), (by - ay).tolist(),
                r0.tolist(), r1.tolist(), c0.tolist(), c1.tolist()):
            if a < b and c < d:
                on[a:b, c:d] |= dx * (ys[a:b, None] - y) - dy * (xs[c:d] - x) == 0.0

    xs, ys = np.asarray(xs, dtype=float), np.asarray(ys, dtype=float)
    rings = [ring_arrays(ring) for ring in (poly.exterior, *poly.holes)]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        inside = crossings_odd(*rings[0])
        for hole in rings[1:]:
            inside &= ~crossings_odd(*hole)
        for ring in rings:
            on_ring(*ring, inside)
    return inside


def point_in_polygon(p: Point, poly: Polygon) -> bool:
    """Ray-crossing containment test; boundary points count as inside."""
    return bool(points_in_polygon(*_coords(p), poly)[0, 0])

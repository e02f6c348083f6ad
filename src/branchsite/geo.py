"""Geometry primitives and the geometric kernels.

Two coordinate modes exist project-wide: ``planar`` (x/y in meters) and
``geodesic`` (x = longitude, y = latitude in degrees, distances on a sphere
of radius 6,371,000 m). Mixing modes is a caller error; every consumer takes
the mode explicitly. All types are immutable after construction. There is
no point type: a point is a pair of floats, and a set of points is an
n x 2 float64 array or a pair of coordinate arrays.

A polygon's rings are read-only n x 2 float64 arrays of their vertices
without the closing one, and polygons compare by identity. ``check_rings``
checks every ring of a layer in one array pass: the closing vertex, at
least 3 distinct vertices, the shoelace area and self-intersection, over
the edge pairs whose boxes overlap. ``polygons`` builds a layer's polygons
from that one pass and names the first that fails; the ``Polygon``
constructor is that call on one polygon.

Each geometric operation has exactly one implementation, a numpy kernel over
coordinate arrays: ``distances_to`` (many points to one point (qx, qy), in
either mode, as the ``axis_terms`` of the rows and the columns and their
``join_terms``) and ``points_in_polygons`` (ray crossing, boundary
inclusive, of a set of polygons over ascending grid axes, each polygon on
its own window of the grid). ``contains_each`` tests point k against
polygon k for every k in one call of the set kernel, on the axes of the
points' sorted coordinates with a 1x1 window each. So a test of one point
agrees bit for bit with every raster, coverage matrix and extraction built
from the arrays. Planar distances are ``dx*dx + dy*dy`` under a correctly
rounded square root, the same IEEE operations as a scalar evaluation;
geodesic distances are one numpy haversine.

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
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainError

EARTH_RADIUS_M = 6_371_000.0

PLANAR = "planar"
GEODESIC = "geodesic"
MODES = (PLANAR, GEODESIC)


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


def distances_to(xs: np.ndarray, ys: np.ndarray, qx: float, qy: float,
                 mode: str = PLANAR) -> np.ndarray:
    """Distance in meters from each point (xs[k], ys[k]) to (qx, qy) under
    the coordinate mode: Euclidean in planar mode, haversine in geodesic
    mode. A query off its mode's range raises DomainError: non-finite in
    planar mode, outside lon/lat in geodesic mode."""
    if mode == GEODESIC:
        check_geodesic_range(xs, ys)
        check_geodesic_range(qx, qy)
    elif not (math.isfinite(qx) and math.isfinite(qy)):
        raise DomainError(f"point coordinates must be finite, got ({qx}, {qy})")
    return join_terms(*axis_terms(xs, ys, qx, qy, mode), mode)


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


def _successors(sizes: np.ndarray) -> np.ndarray:
    """The index of the vertex after each one in its ring, for rings of
    ``sizes[r]`` vertices end to end; a ring's first follows its last."""
    ends = sizes.cumsum()
    nxt = np.arange(1, (ends[-1] if len(ends) else 0) + 1)
    full = sizes > 0
    nxt[ends[full] - 1] = (ends - sizes)[full]
    return nxt


def _edges(rings: Sequence[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """(a, b) of a nonempty list of rings: edge k, ring by ring, runs from
    vertex a[k] to vertex b[k]."""
    a = np.concatenate(rings)
    return a, a[_successors(np.array([len(ring) for ring in rings], dtype=np.intp))]


def _ring_sums(values: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The sum of each ring's run of ``values`` (rings of ``sizes[r]`` end
    to end) by the loop ``s = 0.0; s += v``: rings of one size are summed
    at once by ``cumsum``, which adds left to right, unlike ``sum``."""
    sums = np.zeros((len(sizes),) + values.shape[1:])
    starts = sizes.cumsum() - sizes
    for n in (np.flatnonzero(np.bincount(sizes)[1:]) + 1).tolist():
        k = np.flatnonzero(sizes == n)
        runs = np.zeros((len(k), n + 1) + values.shape[1:])
        runs[:, 1:] = values[starts[k, None] + np.arange(n)]
        sums[k] = runs.cumsum(axis=1)[:, -1]
    return sums


SHORT, REPEATED, CROSSED = 1, 2, 3
RING_FAULTS = {SHORT: "polygon ring needs at least 3 distinct vertices",
               REPEATED: "polygon ring has repeated vertices",
               CROSSED: "polygon ring is self-intersecting"}
NO_AREA = "polygon area must be strictly positive"


def check_rings(xy: np.ndarray, sizes) -> tuple[np.ndarray, ...]:
    """(xy, sizes, areas, faults) of rings of ``sizes[r]`` rows of the
    n x 2 float64 ``xy`` end to end, checked in one pass: each ring's
    rows, now read-only and without a closing vertex that repeats its
    first, its size, its signed shoelace area, and its fault, SHORT, else
    REPEATED, else CROSSED, or 0.

    Repeated vertices are found by one ``lexsort``. The areas are the
    shoelace loop's IEEE operations in its order. Edges whose boxes are
    disjoint share no point, so only pairs of edges whose boxes overlap
    are tested (M. I. Shamos and D. Hoey, "Geometric intersection
    problems", FOCS 1976): sorted by ring and left end, each edge is paired
    with the later edges of its ring that start left of its right end, the
    pairs of all rings at once. Two edges that share no endpoint meet
    where each crosses the other's line strictly, or where an endpoint of
    one lies on the other: its cross product is 0.0 and it is in the box."""
    sizes = np.asarray(sizes, dtype=np.intp)
    last = sizes.cumsum() - 1
    closed = sizes >= 2
    closed[closed] = (xy[last[closed] - sizes[closed] + 1] == xy[last[closed]]).all(axis=1)
    keep = np.ones(len(xy), dtype=bool)
    keep[last[closed]] = False
    xy, sizes = xy[keep], sizes - closed
    xy.flags.writeable = False
    ring = np.arange(len(sizes)).repeat(sizes)
    nxt = _successors(sizes)
    a, b = xy, xy[nxt]
    with np.errstate(over="ignore", invalid="ignore"):
        areas = 0.5 * _ring_sums(a[:, 0] * b[:, 1] - b[:, 0] * a[:, 1], sizes)
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        xs = np.sort(np.concatenate([lo[:, 0], hi[:, 0]]))  # x ranks: (ring, x) as one key
        keys = ring * len(xs) + xs.searchsorted(lo[:, 0])
        order = keys.argsort(kind="stable")
        reach = keys[order].searchsorted(
            ring[order] * len(xs) + xs.searchsorted(hi[order, 0]), "right")
        crossed = np.zeros(len(sizes), dtype=bool)
        for first, later in _range_batches(np.arange(1, len(order) + 1), reach):
            i, j = order[first], order[later]
            boxes = (lo[i, 1] <= hi[j, 1]) & (hi[i, 1] >= lo[j, 1]) & (j != nxt[i]) & (i != nxt[j])
            i, j = i[boxes], j[boxes]
            # the cross products of edge j with the ends of edge i, then of
            # edge i with the ends of edge j: (b - a) x (c - a)
            e, c = np.array([j, j, i, i]), np.array([i, nxt[i], j, nxt[j]])
            ea, eb, pc = a[e], b[e], a[c]
            d = ((eb[..., 0] - ea[..., 0]) * (pc[..., 1] - ea[..., 1])
                 - (eb[..., 1] - ea[..., 1]) * (pc[..., 0] - ea[..., 0]))
            side = d > 0
            meet = (((side[0] != side[1]) & (side[2] != side[3]) & (d != 0).all(axis=0))
                    | ((d == 0) & ((lo[e] <= pc) & (pc <= hi[e])).all(axis=2)).any(axis=0))
            crossed[ring[i[meet]]] = True
    by_xy = np.lexsort((xy[:, 1], xy[:, 0], ring))
    twice = by_xy[1:][(xy[by_xy[1:]] == xy[by_xy[:-1]]).all(axis=1)
                      & (ring[by_xy[1:]] == ring[by_xy[:-1]])]
    faults = np.where(crossed, CROSSED, 0)
    faults[ring[twice]] = REPEATED
    faults[sizes < 3] = SHORT
    return xy, sizes, areas, faults


def polygons(xy: np.ndarray, sizes, counts) -> tuple[list[Polygon], str | None]:
    """The polygons before the first that fails, and its fault or None, of
    the rings of ``sizes[r]`` rows of the n x 2 float64 ``xy`` end to end,
    in one ``check_rings`` call; polygon k is the next ``counts[k]`` rings,
    exterior first. A polygon's fault is its first SHORT or REPEATED
    ring's, else NO_AREA for an exterior of area 0.0, else CROSSED, else
    NO_AREA where the exterior's area less its holes' (each taken
    absolute, in ring order) is not above 0.0."""
    xy, sizes, areas, faults = check_rings(xy, sizes)
    counts = np.asarray(counts, dtype=np.intp)
    first = counts.cumsum() - counts
    ring_areas = np.abs(areas)
    areas = ring_areas[first]
    with np.errstate(invalid="ignore"):  # inf less inf
        for j in range(1, counts.max(initial=1)):
            k = np.flatnonzero(counts > j)
            areas[k] -= ring_areas[first[k] + j]
    bad = (ring_areas[first] <= 0.0) | (areas <= 0.0)
    bad[np.arange(len(counts)).repeat(counts)[faults > 0]] = True
    n = int(np.argmax(bad)) if bad.any() else len(counts)  # the polygons that pass
    fault = None
    if n < len(counts):
        own = faults[first[n]:first[n] + counts[n]].tolist()
        shape = [RING_FAULTS[f] for f in own if f in (SHORT, REPEATED)]
        fault = (shape[0] if shape else RING_FAULTS[CROSSED]
                 if CROSSED in own and not ring_areas[first[n]] <= 0.0 else NO_AREA)
    # the rings of the polygons that pass hold at least 3 vertices each
    sizes = sizes[:first[n] if n < len(counts) else len(sizes)]
    starts = sizes.cumsum() - sizes
    views = [xy[s:s + size] for s, size in zip(starts.tolist(), sizes.tolist())]
    box = xy[:sizes.sum()]
    bounds = (np.hstack([np.minimum.reduceat(box, starts), np.maximum.reduceat(box, starts)])
              if len(sizes) else np.zeros((0, 4))).tolist()
    out = []
    for r, c, area in zip(first[:n].tolist(), counts[:n].tolist(), areas[:n].tolist()):
        out.append(object.__new__(Polygon))
        vars(out[-1]).update(exterior=views[r], holes=tuple(views[r + 1:r + c]),
                             _area=area, _bounds=tuple(bounds[r]))
    return out, fault


@dataclass(frozen=True, eq=False)
class Polygon:
    """Simple polygon: one exterior ring plus optional hole rings, each a
    read-only n x 2 float64 array of its vertices without the closing one.

    The rings are given as (x, y) pairs, open or closed, and checked by
    ``polygons`` as a layer of one polygon. The area and the bounds are
    computed once, at construction. Polygons compare by identity.
    """

    exterior: np.ndarray
    holes: tuple[np.ndarray, ...] = ()

    def __post_init__(self):
        rings = [np.array(ring, dtype=np.float64).reshape(len(ring), 2)
                 for ring in (self.exterior, *self.holes)]
        xy = np.concatenate(rings)
        if not np.isfinite(xy).all():
            raise DomainError("polygon coordinates must be finite")
        built, fault = polygons(xy, [len(ring) for ring in rings], [len(rings)])
        if fault is not None:
            raise DomainError(fault)
        vars(self).update(vars(built[0]))

    @property
    def area(self) -> float:
        return self._area

    @property
    def bounds(self) -> tuple[float, float, float, float]:
        return self._bounds


def vertex_means(polys: Sequence[Polygon]) -> np.ndarray:
    """The mean of each polygon's exterior vertices, as the rows of an
    n x 2 array; the sums are taken left to right. Where a sum overflows,
    near the float maximum, that row is the sum of each vertex over n."""
    sizes = np.array([len(poly.exterior) for poly in polys], dtype=np.intp)
    xy = np.concatenate([poly.exterior for poly in polys]) if polys else np.zeros((0, 2))
    with np.errstate(over="ignore"):   # such rows are redone below
        means = _ring_sums(xy, sizes) / sizes[:, None]
    bad = ~np.isfinite(means).all(axis=1)
    if bad.any():
        n = sizes[bad]
        means[bad] = _ring_sums(xy[np.repeat(bad, sizes)] / np.repeat(n, n)[:, None], n)
    return means


def _widest_midpoint(poly: Polygon, x: float, y: float) -> tuple[float, float]:
    """The midpoint of the widest inside interval of the horizontal line
    through (x, y), between two consecutive crossings of the rings; the
    first of equally wide ones, and (x, y) if the line crosses none."""
    a, b = _edges([poly.exterior, *poly.holes])
    crossing = (a[:, 1] > y) != (b[:, 1] > y)
    a, b = a[crossing], b[crossing]
    with np.errstate(over="ignore", invalid="ignore"):
        xs = sorted((a[:, 0] + (y - a[:, 1]) * (b[:, 0] - a[:, 0]) / (b[:, 1] - a[:, 1])).tolist())
    # the line enters the polygon at every even crossing and leaves it at
    # the next one
    x0, x1 = max(zip(xs[::2], xs[1::2]), key=lambda iv: iv[1] - iv[0], default=(x, x))
    return x0 + (x1 - x0) / 2, y


def representative_points(polys: Sequence[Polygon], given: np.ndarray) -> np.ndarray:
    """A point inside each polygon (boundary included), as the rows of an
    n x 2 array, NaN where none is found. Where row k of the n x 2
    ``given`` is not NaN, it is polygon k's one candidate; else the
    candidates are the vertex mean, then the midpoint of the widest inside
    interval of the horizontal line through it. The given points and the
    vertex means are tested in one kernel call."""
    own = ~np.isnan(given[:, 0])
    found = np.where(own[:, None], given, vertex_means(polys))
    for k in np.flatnonzero(~np.array(contains_each(found, polys), dtype=bool)).tolist():
        point = None if own[k] else _widest_midpoint(polys[k], *found[k].tolist())
        found[k] = point if point is not None and contains_each([point], [polys[k]])[0] else np.nan
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


# The kernels evaluate about this many pairs, of (edge, cell) or of
# edges, at a time.
_BATCH = 1 << 16


def _range_batches(lo: np.ndarray, hi: np.ndarray):
    """``_ranges(lo, hi)`` in batches of about ``_BATCH`` pairs, each of
    whole ranges; k indexes lo and hi as in the one call."""
    ends = (hi - lo).cumsum()
    cut = ends.searchsorted(np.arange(_BATCH, ends[-1] if len(ends) else 0, _BATCH)).tolist()
    for a, b in zip([0, *cut], [*cut, len(lo)]):
        if a < b:
            k, v = _ranges(lo[a:b], hi[a:b])
            yield k + a, v


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
    a, b = _edges(all_rings)
    ax, ay = a.T
    bx, by = b.T
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
        # batches of rows of about _BATCH cells
        left = xs.searchsorted(np.minimum(ax, bx), "left").clip(ec0, ec1)
        right = xs.searchsorted(np.maximum(ax, bx), "right").clip(ec0, ec1)
        keep = (left < right).nonzero()[0]
        e, row = _ranges(top[keep], ys.searchsorted(y_hi[keep], "right").clip(
            er0[keep], er1[keep]))
        e = keep[e]
        for pair, col in _range_batches(left[e], right[e]):
            k, r = e[pair], row[pair]
            on = (dx[k] * (ys[r] - ay[k]) - dy[k] * (xs[col] - ax[k]) == 0.0).nonzero()[0]
            k, r, col = k[on], r[on], col[on]
            inside[eext[k] + (r - er0[k]) * ew[k] + col - ec0[k]] = True
    blocks, start = [], 0
    for (r0, r1, c0, c1), size in zip(windows, sizes):
        blocks.append(inside[start:start + size].reshape(r1 - r0, c1 - c0))
        start += size
    return blocks


def contains_each(xy: np.ndarray, polys: Sequence[Polygon]) -> list[bool]:
    """Whether the point of row k of the n x 2 ``xy`` lies in polygon k
    (boundary included), for every k, in one kernel call: the axes are the
    points' sorted coordinates and polygon k's window is its point's 1x1
    cell."""
    px, py = np.asarray(xy, dtype=float).reshape(-1, 2).T
    xs, ys = np.sort(px), np.sort(py)
    c, r = xs.searchsorted(px), ys.searchsorted(py)
    blocks = points_in_polygons(xs, ys, polys, np.stack([r, r + 1, c, c + 1], axis=1))
    return [bool(b[0, 0]) for b in blocks]

import dataclasses
import math
import random
import re
import time

import numpy as np
import pytest

from branchsite.errors import DomainError
from branchsite.geo import (
    EARTH_RADIUS_M,
    RING_FAULTS,
    Polygon,
    axis_terms,
    bounds_windows,
    check_rings,
    contains_each,
    distances_to,
    join_terms,
    points_in_polygons,
    polygons,
    vertex_means,
)

from helpers import (
    Point,
    _normalize_ring,
    _ring_area,
    distance,
    grid_inside,
    inside,
    polygon_from_coords,
    reference_points_in_polygon,
    reference_ring_self_intersects,
    ring_points,
)


def reference_haversine(lon1, lat1, lon2, lat2):
    """Independent haversine evaluation used as the test oracle."""
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dp = math.radians(lat2 - lat1)
    dl = math.radians(lon2 - lon1)
    a = math.sin(dp / 2) ** 2 + math.cos(p1) * math.cos(p2) * math.sin(dl / 2) ** 2
    return 2 * EARTH_RADIUS_M * math.atan2(math.sqrt(a), math.sqrt(1 - a))


def winding_number_inside(p, ring):
    """Winding-number containment oracle (nonzero rule) for simple rings."""
    ring = ring_points(ring)
    wn = 0
    n = len(ring)
    for i in range(n):
        a, b = ring[i], ring[(i + 1) % n]
        if a.y <= p.y:
            if b.y > p.y and _is_left(a, b, p) > 0:
                wn += 1
        elif b.y <= p.y and _is_left(a, b, p) < 0:
            wn -= 1
    return wn != 0


def _is_left(a, b, p):
    return (b.x - a.x) * (p.y - a.y) - (p.x - a.x) * (b.y - a.y)


def geodesic_distance(a, b):
    return distance(a, b, "geodesic")


class TestPlanarDistance:
    def test_identity(self):
        assert distance(Point(0, 0), Point(0, 0)) == 0.0

    def test_pythagorean_triple(self):
        assert distance(Point(0, 0), Point(3, 4)) == 5.0
        assert distances_to(np.array([0.0, 3.0, -3.0]), np.array([0.0, 4.0, 0.0]),
                            0.0, 4.0).tolist() == [4.0, 3.0, 5.0]

    def test_high_precision_reference(self):
        # sqrt(16.3^2 + 17.0^2) evaluated with 50-digit decimal arithmetic
        d = distance(Point(12.3, -7.1), Point(-4.0, 9.9))
        assert d == pytest.approx(23.551857676200406, abs=1e-12)

    @pytest.mark.parametrize("qx, qy", [(math.nan, 0.0), (0.0, math.inf), (-math.inf, 1.0)])
    def test_non_finite_query_rejected(self, qx, qy):
        message = re.escape(f"point coordinates must be finite, got ({qx}, {qy})")
        with pytest.raises(DomainError, match=message):
            distances_to(np.array([0.0]), np.array([0.0]), qx, qy)
        with pytest.raises(DomainError, match=message):
            distances_to(np.zeros(0), np.zeros(0), qx, qy, "planar")

    def test_symmetry_and_triangle_inequality(self):
        rng = random.Random(7)
        for _ in range(500):
            a = Point(rng.uniform(-1e4, 1e4), rng.uniform(-1e4, 1e4))
            b = Point(rng.uniform(-1e4, 1e4), rng.uniform(-1e4, 1e4))
            c = Point(rng.uniform(-1e4, 1e4), rng.uniform(-1e4, 1e4))
            ab = distance(a, b)
            assert ab == distance(b, a)
            assert ab >= 0.0
            assert ab <= distance(a, c) + distance(c, b) + 1e-9


class TestGeodesicDistance:
    def test_identity(self):
        p = Point(51.67, 32.65)
        assert geodesic_distance(p, p) == 0.0

    def test_antipodal_on_equator(self):
        d = geodesic_distance(Point(0, 0), Point(180, 0))
        assert d == pytest.approx(math.pi * EARTH_RADIUS_M, rel=1e-12)

    def test_against_reference_haversine(self):
        a = Point(51.67, 32.65)
        b = Point(51.68, 32.65)
        want = reference_haversine(a.x, a.y, b.x, b.y)
        assert geodesic_distance(a, b) == pytest.approx(want, rel=1e-6)
        assert geodesic_distance(a, b) == pytest.approx(936.2411669269036, rel=1e-6)

    def test_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            geodesic_distance(Point(181.0, 0.0), Point(0.0, 0.0))
        with pytest.raises(DomainError):
            geodesic_distance(Point(0.0, 0.0), Point(0.0, 91.0))
        # a 2-D coordinate array is named by its first bad cell
        xs, ys = np.array([[0.0, 10.0], [179.0, 181.0]]), np.full((2, 2), 5.0)
        with pytest.raises(DomainError, match="lon=181.0, lat=5.0"):
            distances_to(xs, ys, 0.0, 0.0, "geodesic")

    @pytest.mark.parametrize("mode", ["planar", "geodesic"])
    def test_axis_terms_of_a_batch_join_to_each_cell_alone(self, mode):
        """The terms of many points' rows and columns at once, joined per
        grid, give each cell the bits of the distance formula evaluated on
        that cell alone, as one expression."""

        def alone(x, y, q):
            xs, ys = np.array([x]), np.array([y])
            if mode == "planar":
                dx, dy = xs - q.x, ys - q.y
                return np.sqrt(dx * dx + dy * dy)[0]
            lat1, lat2 = np.radians(ys), np.radians(q.y)
            dlat, dlon = np.radians(q.y - ys), np.radians(q.x - xs)
            h = np.sin(dlat / 2.0) ** 2 + np.cos(lat1) * np.cos(lat2) * np.sin(dlon / 2.0) ** 2
            return (2.0 * EARTH_RADIUS_M * np.arcsin(np.minimum(1.0, np.sqrt(h))))[0]

        rng = np.random.default_rng(5)
        xs, ys = np.sort(rng.uniform(51.0, 52.0, 13)), np.sort(rng.uniform(32.0, 33.0, 11))
        qx, qy = rng.uniform(51.0, 52.0, 4), rng.uniform(32.0, 33.0, 4)
        rows, cols = axis_terms(xs[None, :], ys[None, :], qx[:, None], qy[:, None], mode)
        for k in range(4):
            q = Point(qx[k], qy[k])
            grid = join_terms([r[k, :, None] for r in rows], cols[k], mode)
            assert np.array_equal(grid, distances_to(xs[None, :], ys[:, None], *q, mode))
            for r in range(len(ys)):
                for c in range(len(xs)):
                    assert grid[r, c].tobytes() == alone(xs[c], ys[r], q).tobytes()

    def test_kernel_properties_random(self):
        rng = random.Random(11)
        for _ in range(300):
            a = Point(rng.uniform(-180, 180), rng.uniform(-89, 89))
            b = Point(rng.uniform(-180, 180), rng.uniform(-89, 89))
            c = Point(rng.uniform(-180, 180), rng.uniform(-89, 89))
            ab = geodesic_distance(a, b)
            ba = geodesic_distance(b, a)
            assert ab == pytest.approx(ba, rel=1e-9)
            assert ab >= 0.0
            ac = geodesic_distance(a, c)
            cb = geodesic_distance(c, b)
            assert ab <= ac + cb + 1e-9 * max(1.0, ab)


class TestPolygon:
    def test_closure_normalization(self):
        poly = polygon_from_coords([(0, 0), (4, 0), (4, 4), (0, 4), (0, 0)])
        assert len(poly.exterior) == 4
        assert poly.area == pytest.approx(16.0)
        assert vertex_means([poly]).tolist() == [[2.0, 2.0]]

    def test_area_and_bounds_are_computed_once(self):
        ring = [(0, 0), (4, 0), (4, 3), (0, 3)]
        poly = polygon_from_coords(ring, holes=[[(1, 1), (2, 1), (2, 2), (1, 2)]])
        assert poly.area == 11.0 and poly.bounds == (0.0, 0.0, 4.0, 3.0)
        # each read returns the value stored at construction
        assert poly.area is poly.area and poly.bounds is poly.bounds
        # the public fields are the rings alone, read-only arrays; polygons
        # compare and hash by identity
        assert [f.name for f in dataclasses.fields(Polygon)] == ["exterior", "holes"]
        assert poly.exterior.tolist() == [[0, 0], [4, 0], [4, 3], [0, 3]]
        assert not poly.exterior.flags.writeable and not poly.holes[0].flags.writeable
        same = polygon_from_coords(ring + ring[:1], holes=[[(1, 1), (2, 1), (2, 2), (1, 2)]])
        assert np.array_equal(same.exterior, poly.exterior)
        assert same != poly and poly == poly and len({poly, same, poly}) == 2
        assert polygon_from_coords(ring) != poly

    def test_degenerate_rejected(self):
        with pytest.raises(DomainError):
            polygon_from_coords([(0, 0), (1, 1)])
        with pytest.raises(DomainError):
            polygon_from_coords([(0, 0), (1, 0), (2, 0)])  # zero area

    def test_holes_that_leave_no_area_rejected(self):
        ext = [(0, 0), (4, 0), (4, 3), (0, 3)]
        assert polygon_from_coords(ext, [[(1, 1), (3, 1), (3, 2), (1, 2)]]).area == 10.0
        # a hole as large as the exterior, and one larger
        for hole in (ext, [(-1, -1), (30, -1), (30, 20), (-1, 20)]):
            with pytest.raises(DomainError, match="polygon area must be strictly positive"):
                polygon_from_coords(ext, [hole])

    def test_non_finite_coordinates_rejected(self):
        with pytest.raises(DomainError, match="must be finite"):
            polygon_from_coords([(0, 0), (1, 0), (1, float("nan"))])

    def test_self_intersecting_rejected(self):
        with pytest.raises(DomainError):
            polygon_from_coords([(0, 0), (4, 4), (4, 0), (0, 4)])  # bow-tie

    def test_touching_rings_rejected(self):
        # the vertex (5, 0) of two edges lies inside the bottom edge
        with pytest.raises(DomainError, match="self-intersecting"):
            polygon_from_coords([(0, 0), (10, 0), (10, 10), (5, 0), (0, 10)])
        # the same ring as a hole
        with pytest.raises(DomainError, match="self-intersecting"):
            polygon_from_coords([(-5, -5), (15, -5), (15, 15), (-5, 15)],
                                [[(0, 0), (10, 0), (10, 10), (5, 0), (0, 10)]])

    @staticmethod
    def _lattice_rectangle(width, height):
        """A rectangle with a vertex at every lattice point of its sides,
        counterclockwise from (0, 0)."""
        return ([(x, 0) for x in range(width)] + [(width, y) for y in range(height)]
                + [(x, height) for x in range(width, 0, -1)]
                + [(0, y) for y in range(height, 0, -1)])

    def test_large_rings_validate_fast(self):
        n = 1000
        convex = [(1000 * math.cos(2 * math.pi * k / n), 1000 * math.sin(2 * math.pi * k / n))
                  for k in range(n)]
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            polygon_from_coords(convex)
            best = min(best, time.perf_counter() - t0)
        assert best < 0.05
        # collinear neighbours along the sides are no intersection
        assert len(polygon_from_coords(self._lattice_rectangle(300, 200)).exterior) == 1000

    def test_large_rings_with_a_crossing_or_a_touch_rejected(self):
        ring = self._lattice_rectangle(300, 200)
        top = ring.index((150, 200))
        # a top vertex pulled onto the inside of a bottom edge, then through it
        for moved in ((150.5, 0), (150.5, -1)):
            bad = ring[:top] + [moved] + ring[top + 1:]
            with pytest.raises(DomainError, match="self-intersecting"):
                polygon_from_coords(bad)

    def test_one_check_matches_the_scalar_references(self):
        """Rings of every size through one ``check_rings`` call: each ring's
        fault and its area, bit for bit, are those of the scalar
        normalization, pair loop and shoelace loop; and one ``polygons``
        call gives each polygon with holes the loop's area less its holes'."""
        # small lattices make crossings, touches, collinear overlaps and
        # repeated vertices common; vertices in angle order around the
        # center make most rings star-shaped, so simple rings are common too
        rng = random.Random(83)
        rings = []
        for _ in range(3000):
            n = rng.randint(3, 14)
            side = rng.choice([3, 6, 40])
            ring = [(rng.randint(0, side), rng.randint(0, side)) for _ in range(n)]
            if rng.random() < 0.5:
                ring.sort(key=lambda p: math.atan2(p[1] - side / 2, p[0] - side / 2))
            if rng.random() < 0.25:
                ring.append(ring[0])
            rings.append(ring)
        # 1,000-vertex lattice rectangles: simple, touched and crossed
        rect = self._lattice_rectangle(300, 200)
        top = rect.index((150, 200))
        rings += [rect] + [rect[:top] + [moved] + rect[top + 1:]
                           for moved in ((150.5, 0), (150.5, -1))]
        # convex rings of inexact coordinates, whose shoelace sums round
        # differently in another order
        rings += [[(cx + r * math.cos(2 * math.pi * k / n), cy + r * math.sin(2 * math.pi * k / n))
                   for k in range(n)]
                  for n, cx, cy, r in ((300, 0.3, -0.7, 7.3), (297, -1.5, 2.5, 55.5),
                                       (100, 0.1, 0.2, 1.7))]
        # star-shaped polygons with holes, of inexact coordinates
        def star(cx, cy, r0, r1):
            n = rng.randint(3, 14)
            polar = [(rng.uniform(r0, r1), 2 * math.pi * (k + rng.random() / 2) / n)
                     for k in range(n)]
            return [(cx + r * math.cos(t), cy + r * math.sin(t)) for r, t in polar]

        groups = []
        for _ in range(300):
            cx, cy = rng.uniform(-50, 50), rng.uniform(-50, 50)
            groups.append([star(cx, cy, 5.0, 10.0)] + [
                star(cx + rng.uniform(-2, 2), cy + rng.uniform(-2, 2), 0.2, 1.0)
                for _ in range(rng.randint(0, 3))])
        rings += [ring for group in groups for ring in group]

        _, sizes, got_areas, got_faults = check_rings(
            np.array([v for ring in rings for v in ring], dtype=float),
            [len(ring) for ring in rings])
        assert len(sizes) == len(got_areas) == len(got_faults) == len(rings)
        faults, areas, ok = [], [], []
        for ring in rings:
            try:
                points = _normalize_ring(ring_points(ring))
            except DomainError as exc:
                faults.append(str(exc))
                continue
            faults.append("polygon ring is self-intersecting"
                          if reference_ring_self_intersects(points) else None)
            areas.append(_ring_area(points))
            ok.append(len(faults) - 1)
        assert [RING_FAULTS.get(f) for f in got_faults.tolist()] == faults
        assert {None, "polygon ring is self-intersecting", "polygon ring has repeated vertices",
                "polygon ring needs at least 3 distinct vertices"} <= set(faults)
        assert got_areas[ok].tobytes() == np.array(areas).tobytes()

        sizes = [len(ring) for group in groups for ring in group]
        built, fault = polygons(
            np.array([v for group in groups for ring in group for v in ring]), sizes,
            [len(group) for group in groups])
        assert fault is None and len(built) == len(groups)
        for poly, (ext, *holes) in zip(built, groups):
            area = abs(_ring_area(ring_points(ext)))
            for hole in holes:
                area -= abs(_ring_area(ring_points(hole)))
            assert poly.area.hex() == area.hex()
            assert len(poly.holes) == len(holes)


class TestPointInPolygon:
    def test_centroid_of_convex_inside(self):
        poly = polygon_from_coords([(0, 0), (10, 0), (12, 6), (5, 11), (-2, 5)])
        assert inside(vertex_means([poly])[0].tolist(), poly)

    def test_outside_bounding_box(self):
        poly = polygon_from_coords([(0, 0), (10, 0), (10, 10), (0, 10)])
        assert not inside((20, 20), poly)

    def test_boundary_counts_as_inside(self):
        poly = polygon_from_coords([(0, 0), (10, 0), (10, 10), (0, 10)])
        assert inside((5, 0), poly)   # on edge
        assert inside((10, 10), poly)  # on vertex
        assert inside((0, 5), poly)

    def test_hole_excluded_but_hole_boundary_inside(self):
        poly = polygon_from_coords(
            [(0, 0), (10, 0), (10, 10), (0, 10)],
            holes=[[(4, 4), (6, 4), (6, 6), (4, 6)]],
        )
        assert not inside((5, 5), poly)
        assert inside((4, 5), poly)  # on hole ring
        assert inside((2, 2), poly)

    def test_matches_winding_number_oracle_on_convex(self):
        rng = random.Random(3)
        for _ in range(20):
            # convex polygon: points on an ellipse, in angular order
            cx, cy = rng.uniform(-5, 5), rng.uniform(-5, 5)
            rx, ry = rng.uniform(2, 8), rng.uniform(2, 8)
            k = rng.randint(5, 12)
            angles = sorted(rng.uniform(0, 2 * math.pi) for _ in range(k))
            ring = [(cx + rx * math.cos(t), cy + ry * math.sin(t)) for t in angles]
            try:
                poly = polygon_from_coords(ring)
            except DomainError:
                continue  # nearly-collinear sample
            for _ in range(50):
                p = Point(rng.uniform(cx - 10, cx + 10), rng.uniform(cy - 10, cy + 10))
                assert inside(p, poly) == winding_number_inside(p, poly.exterior)

    def test_matches_winding_number_oracle_on_star_shaped(self):
        rng = random.Random(5)
        for _ in range(20):
            k = rng.randint(6, 14)
            radii = [rng.uniform(1.0, 8.0) for _ in range(k)]
            ring = [
                (r * math.cos(2 * math.pi * i / k), r * math.sin(2 * math.pi * i / k))
                for i, r in enumerate(radii)
            ]
            poly = polygon_from_coords(ring)
            for _ in range(50):
                p = Point(rng.uniform(-9, 9), rng.uniform(-9, 9))
                assert inside(p, poly) == winding_number_inside(p, poly.exterior)


def _lattice(hypothesis, data):
    """(polygon, axis) drawers on the lattice of a drawn scale: vertices on
    it and grid axes on its half lattice, so centers land on edges and
    vertices; at 1e300 the cross products overflow, and at 1.5e307 so does
    bx - ax; 0.1 is inexact, so a crossing can round onto a center off its
    edge."""
    st = hypothesis.strategies
    draw = data.draw
    scale = draw(st.sampled_from([1e-3, 0.1, 1.0, 37.5, 1e300, 1.5e307]))
    coord = st.integers(-8, 8).map(lambda k: k * scale)

    def ring(inside=None):
        if inside is not None:  # a rectangle within the bounds of ``inside``
            x0, y0, x1, y1 = inside.bounds
            share = st.integers(0, 8).map(lambda i: i / 8)
            xs = sorted({x0 + (x1 - x0) * draw(share) for _ in range(2)})
            ys = sorted({y0 + (y1 - y0) * draw(share) for _ in range(2)})
            hypothesis.assume(len(xs) == len(ys) == 2)
        elif draw(st.booleans()):  # horizontal and vertical edges
            xs = sorted(draw(st.lists(coord, min_size=2, max_size=2, unique=True)))
            ys = sorted(draw(st.lists(coord, min_size=2, max_size=2, unique=True)))
        else:
            xy = draw(st.lists(st.tuples(coord, coord), min_size=3, max_size=6, unique=True))
            mx = sum(x / len(xy) for x, _ in xy)
            my = sum(y / len(xy) for _, y in xy)
            return sorted(xy, key=lambda p: math.atan2(p[1] - my, p[0] - mx))
        (x0, x1), (y0, y1) = xs, ys
        return [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]

    def polygon(inside=None):
        try:
            return polygon_from_coords(ring(inside),
                                       [ring() for _ in range(draw(st.integers(0, 2)))])
        except DomainError:
            hypothesis.assume(False)

    def axis():
        # 1 to 6 values, equal neighbours allowed: 1x1, one-row and
        # one-column grids come up
        ks = draw(st.lists(st.integers(-18, 18), min_size=1, max_size=6))
        return np.array(sorted(ks), dtype=float) * (scale / 2.0)

    return polygon, axis


class TestGridKernel:
    def test_matches_per_cell_kernel(self):
        hypothesis = pytest.importorskip("hypothesis")

        @hypothesis.settings(max_examples=400, deadline=None)
        @hypothesis.given(data=hypothesis.strategies.data())
        def check(data):
            polygon, axis = _lattice(hypothesis, data)
            poly, xs, ys = polygon(), axis(), axis()
            got = grid_inside(xs, ys, poly)
            with np.errstate(all="ignore"):
                want = reference_points_in_polygon(*np.meshgrid(xs, ys), poly)
            assert got.shape == (len(ys), len(xs))
            assert np.array_equal(got, want)
            assert inside((xs[0], ys[0]), poly) == want[0, 0]

        check()

    def test_polygon_sets_match_per_cell_kernel(self):
        """One kernel call on a set of polygons (random, overlapping, nested
        in an earlier one's bounds, with holes) gives each polygon's window
        the per-cell kernel's answer; the windows are the bounds windows or
        any others, empty ones too."""
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=300, deadline=None)
        @hypothesis.given(data=st.data())
        def check(data):
            polygon, axis = _lattice(hypothesis, data)
            polys = [polygon()]
            for _ in range(data.draw(st.integers(0, 3))):
                polys.append(polygon(inside=data.draw(st.sampled_from(polys))
                                     if data.draw(st.booleans()) else None))
            xs, ys = axis(), axis()
            windows = bounds_windows(xs, ys, polys)
            for k in range(len(polys)):
                if data.draw(st.booleans()):
                    r0, r1 = sorted(data.draw(st.integers(0, len(ys))) for _ in range(2))
                    c0, c1 = sorted(data.draw(st.integers(0, len(xs))) for _ in range(2))
                    windows[k] = r0, r1, c0, c1
            blocks = points_in_polygons(xs, ys, polys, windows)
            assert len(blocks) == len(polys)
            for poly, (r0, r1, c0, c1), got in zip(polys, windows.tolist(), blocks):
                with np.errstate(all="ignore"):
                    want = reference_points_in_polygon(
                        *np.meshgrid(xs[c0:c1], ys[r0:r1]), poly)
                assert got.shape == (r1 - r0, c1 - c0)
                assert np.array_equal(got, want)
            # each polygon against a point of its own, in one call
            points = [(data.draw(st.sampled_from(xs.tolist())),
                       data.draw(st.sampled_from(ys.tolist()))) for _ in polys]
            with np.errstate(all="ignore"):
                want = [bool(reference_points_in_polygon(np.array([x]), np.array([y]), poly)[0])
                        for (x, y), poly in zip(points, polys)]
            assert contains_each(np.array(points), polys) == want

        check()

    def test_boundary_windows_larger_than_a_batch(self):
        """An edge whose window holds more cells than one boundary batch:
        the centers on the diagonal are on the boundary, so inside."""
        axis = np.arange(300.0)
        for ring in ([(0, 0), (299, 0), (299, 299)], [(0, 0), (299, 299), (0, 299)]):
            poly = polygon_from_coords(ring)
            got = grid_inside(axis, axis, poly)
            assert np.array_equal(got, reference_points_in_polygon(
                *np.meshgrid(axis, axis), poly))
            assert got.diagonal().all() and got.sum() == 300 * 301 // 2

    def test_bounds_windows_hold_the_cells_inside_the_bounds(self):
        square = polygon_from_coords([(1, 1), (3, 1), (3, 2), (1, 2)])
        far = polygon_from_coords([(10, 10), (11, 10), (11, 11)])
        xs = ys = np.array([0.0, 1.0, 2.0, 3.0, 4.0])
        assert bounds_windows(xs, ys, [square, far]).tolist() == [[1, 3, 1, 4], [5, 5, 5, 5]]
        inside, outside = points_in_polygons(xs, ys, [square, far],
                                             bounds_windows(xs, ys, [square, far]))
        assert inside.all() and inside.shape == (2, 3)
        assert outside.shape == (0, 0)
        assert points_in_polygons(xs, ys, [], np.zeros((0, 4), dtype=int)) == []

    def test_center_at_a_rounded_crossing(self):
        # the first edge's crossing x rounds onto the center while its cross
        # product is not 0.0: the center is off the boundary, and that
        # crossing does not lie right of it (xs < x_at is False)
        for ring, x, y, want in (
                ([(0.2, 0.9), (0.1, 0.4), (0.1, 0.7)], 0.16, 0.7, False),
                ([(0.4, 0.1), (0.5, 0.8), (0.6, 0.8)], 0.4285714285714286, 0.3, True)):
            poly = polygon_from_coords(ring)
            xs, ys = np.array([x]), np.array([y])
            assert reference_points_in_polygon(xs, ys, poly).tolist() == [want]
            assert grid_inside(xs, ys, poly).tolist() == [[want]]

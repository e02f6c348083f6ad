import math
import random
import time

import numpy as np
import pytest

from branchsite.errors import DomainError
from branchsite.geo import (
    EARTH_RADIUS_M,
    Point,
    _ring_self_intersects,
    distances_to,
    planar_distance,
    point_in_polygon,
    points_in_polygon,
)

from helpers import (
    geodesic_distance,
    polygon_from_coords,
    reference_points_in_polygon,
    reference_ring_self_intersects,
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


class TestPlanarDistance:
    def test_identity(self):
        assert planar_distance(Point(0, 0), Point(0, 0)) == 0.0

    def test_pythagorean_triple(self):
        assert planar_distance(Point(0, 0), Point(3, 4)) == 5.0

    def test_high_precision_reference(self):
        # sqrt(16.3^2 + 17.0^2) evaluated with 50-digit decimal arithmetic
        d = planar_distance(Point(12.3, -7.1), Point(-4.0, 9.9))
        assert d == pytest.approx(23.551857676200406, abs=1e-12)

    def test_symmetry_and_triangle_inequality(self):
        rng = random.Random(7)
        for _ in range(500):
            a = Point(rng.uniform(-1e4, 1e4), rng.uniform(-1e4, 1e4))
            b = Point(rng.uniform(-1e4, 1e4), rng.uniform(-1e4, 1e4))
            c = Point(rng.uniform(-1e4, 1e4), rng.uniform(-1e4, 1e4))
            ab = planar_distance(a, b)
            assert ab == planar_distance(b, a)
            assert ab >= 0.0
            assert ab <= planar_distance(a, c) + planar_distance(c, b) + 1e-9


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
            distances_to(xs, ys, Point(0.0, 0.0), "geodesic")

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


class TestPoint:
    def test_rejects_non_finite(self):
        with pytest.raises(DomainError):
            Point(float("nan"), 0.0)
        with pytest.raises(DomainError):
            Point(0.0, float("inf"))


class TestPolygon:
    def test_closure_normalization(self):
        poly = polygon_from_coords([(0, 0), (4, 0), (4, 4), (0, 4), (0, 0)])
        assert len(poly.exterior) == 4
        assert poly.area == pytest.approx(16.0)
        assert poly.centroid == Point(2.0, 2.0)

    def test_degenerate_rejected(self):
        with pytest.raises(DomainError):
            polygon_from_coords([(0, 0), (1, 1)])
        with pytest.raises(DomainError):
            polygon_from_coords([(0, 0), (1, 0), (2, 0)])  # zero area

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

    def test_sweep_matches_pair_loop(self):
        # small lattices make crossings, touches and collinear overlaps
        # common; vertices in angle order around the center make most rings
        # star-shaped, so simple rings are common too
        rng = random.Random(83)
        for _ in range(3000):
            n = rng.randint(3, 14)
            side = rng.choice([3, 6, 40])
            ring = [Point(rng.randint(0, side), rng.randint(0, side)) for _ in range(n)]
            if rng.random() < 0.5:
                ring.sort(key=lambda p: math.atan2(p.y - side / 2, p.x - side / 2))
            ring = tuple(ring)
            assert _ring_self_intersects(ring) == reference_ring_self_intersects(ring), ring


class TestPointInPolygon:
    def test_centroid_of_convex_inside(self):
        poly = polygon_from_coords([(0, 0), (10, 0), (12, 6), (5, 11), (-2, 5)])
        assert point_in_polygon(poly.centroid, poly)

    def test_outside_bounding_box(self):
        poly = polygon_from_coords([(0, 0), (10, 0), (10, 10), (0, 10)])
        assert not point_in_polygon(Point(20, 20), poly)

    def test_boundary_counts_as_inside(self):
        poly = polygon_from_coords([(0, 0), (10, 0), (10, 10), (0, 10)])
        assert point_in_polygon(Point(5, 0), poly)   # on edge
        assert point_in_polygon(Point(10, 10), poly)  # on vertex
        assert point_in_polygon(Point(0, 5), poly)

    def test_hole_excluded_but_hole_boundary_inside(self):
        poly = polygon_from_coords(
            [(0, 0), (10, 0), (10, 10), (0, 10)],
            holes=[[(4, 4), (6, 4), (6, 6), (4, 6)]],
        )
        assert not point_in_polygon(Point(5, 5), poly)
        assert point_in_polygon(Point(4, 5), poly)  # on hole ring
        assert point_in_polygon(Point(2, 2), poly)

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
                assert point_in_polygon(p, poly) == winding_number_inside(p, poly.exterior)

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
                assert point_in_polygon(p, poly) == winding_number_inside(p, poly.exterior)


class TestGridKernel:
    def test_matches_per_cell_kernel(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @st.composite
        def cases(draw):
            # vertices on the lattice of ``scale`` and grid axes on its half
            # lattice, so centers land on edges and vertices; at 1e300 the
            # cross products overflow, and at 1.5e307 so does bx - ax; 0.1
            # is inexact, so a crossing can round onto a center off its edge
            scale = draw(st.sampled_from([1e-3, 0.1, 1.0, 37.5, 1e300, 1.5e307]))
            coord = st.integers(-8, 8).map(lambda k: k * scale)

            def ring():
                if draw(st.booleans()):  # horizontal and vertical edges
                    x0, x1 = sorted(draw(st.lists(coord, min_size=2, max_size=2, unique=True)))
                    y0, y1 = sorted(draw(st.lists(coord, min_size=2, max_size=2, unique=True)))
                    return [(x0, y0), (x1, y0), (x1, y1), (x0, y1)]
                xy = draw(st.lists(st.tuples(coord, coord), min_size=3, max_size=6, unique=True))
                mx = sum(x / len(xy) for x, _ in xy)
                my = sum(y / len(xy) for _, y in xy)
                return sorted(xy, key=lambda p: math.atan2(p[1] - my, p[0] - mx))

            try:
                poly = polygon_from_coords(ring(), [ring() for _ in range(draw(st.integers(0, 2)))])
            except DomainError:
                hypothesis.assume(False)
            # 1 to 6 values, equal neighbours allowed: 1x1, one-row and
            # one-column grids come up
            axis = st.lists(st.integers(-18, 18), min_size=1, max_size=6).map(
                lambda ks: np.array(sorted(ks), dtype=float) * (scale / 2.0))
            return poly, draw(axis), draw(axis)

        @hypothesis.settings(max_examples=400, deadline=None)
        @hypothesis.given(case=cases())
        def check(case):
            poly, xs, ys = case
            got = points_in_polygon(xs, ys, poly)
            with np.errstate(all="ignore"):
                want = reference_points_in_polygon(*np.meshgrid(xs, ys), poly)
            assert got.shape == (len(ys), len(xs))
            assert np.array_equal(got, want)
            assert point_in_polygon(Point(xs[0], ys[0]), poly) == want[0, 0]

        check()

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
            assert points_in_polygon(xs, ys, poly).tolist() == [[want]]

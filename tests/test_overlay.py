import json
import math
import random
import re

import numpy as np
import pytest

from branchsite import overlay
from branchsite.criteria import (
    Band,
    CriterionSpec,
    ScoreScheme,
    SuitabilityClass,
    classify,
    validate_spec,
)
from branchsite.errors import BranchSiteError, DomainError, InputError
from branchsite.geo import EARTH_RADIUS_M, distances_to
from branchsite.overlay import (
    CombineMode,
    GridSpec,
    SuitabilityRaster,
    build_mask,
    combine,
    esri_ascii_text,
    json_text,
    rasterize,
    report_json_text,
    score_points_geojson,
)
from branchsite.weights import WeightVector

from helpers import (
    center_at,
    distance,
    grid_inside,
    inside,
    polygon_from_coords,
    random_score_rasters,
    read_esri_ascii,
    reference_build_mask,
    reference_combine,
    reference_esri_ascii_text,
    reference_rasterize,
    reference_score_points_geojson,
)

HIGH = SuitabilityClass.HIGH_SUITABLE
SUIT = SuitabilityClass.SUITABLE
NON = SuitabilityClass.NON_SUITABLE

SCHEME = ScoreScheme()

MEDICINE = validate_spec(CriterionSpec(
    id="medicine_center", kind="distance", direction="near_better",
    bands=(Band(0, 100, HIGH), Band(100, 500, SUIT), Band(500, None, NON)),
))

BUSINESS = validate_spec(CriterionSpec(
    id="business_center", kind="distance", direction="near_better",
    bands=(Band(0, 100, HIGH), Band(100, 250, SUIT), Band(250, None, NON)),
))

INCOME = validate_spec(CriterionSpec(
    id="income_level", kind="categorical",
    categories={"High": HIGH, "Middle": SUIT, "Low": NON},
))


def full_mask(grid):
    return np.ones(grid.shape, dtype=bool)


def xy(points):
    """The (x, y) pairs ``points`` as an n x 2 float64 array."""
    return np.array(points, dtype=float).reshape(-1, 2)


def make_raster(grid, cid, cell_scores, mask=None):
    values = np.array(cell_scores, dtype=float)
    m = full_mask(grid) if mask is None else mask
    values = values.copy()
    values[~m] = np.nan
    return SuitabilityRaster.from_values(grid, cid, values, m)


class TestRasterizeDistance:
    def test_cell_on_feature_point_scores_high(self):
        grid = GridSpec(0, 0, 100, 4, 4)
        hospital = center_at(grid, 2, 1)
        raster = rasterize(MEDICINE, xy([hospital]), grid, SCHEME)
        assert raster.values[2, 1] == 0.6

    def test_cell_400m_from_business_scores_zero(self):
        grid = GridSpec(0, 0, 100, 10, 1)
        # feature at the center of column 0; column 4 center is 400 m away
        raster = rasterize(BUSINESS, xy([center_at(grid, 0, 0)]), grid, SCHEME)
        assert raster.values[0, 4] == 0.0
        assert raster.values[0, 2] == 0.4  # 200 m -> suitable

    def test_matches_per_cell_linear_scan_oracle(self):
        rng = random.Random(41)
        grid = GridSpec(-250.0, 130.0, 37.5, 20, 20)
        points = [(rng.uniform(-300, 600), rng.uniform(0, 1000)) for _ in range(5)]
        raster = rasterize(MEDICINE, xy(points), grid, SCHEME)
        for row in range(grid.nrows):
            for col in range(grid.ncols):
                center = center_at(grid, row, col)
                nearest = min(distance(center, p) for p in points)
                want = SCHEME.value(classify(MEDICINE, nearest))
                assert raster.values[row, col] == want

    def test_insertion_order_irrelevant(self):
        rng = random.Random(43)
        grid = GridSpec(0, 0, 50, 15, 15)
        points = [(rng.uniform(0, 800), rng.uniform(0, 800)) for _ in range(12)]
        a = rasterize(MEDICINE, xy(points), grid, SCHEME)
        shuffled = points[:]
        rng.shuffle(shuffled)
        b = rasterize(MEDICINE, xy(shuffled), grid, SCHEME)
        assert np.array_equal(a.values, b.values)

    def test_empty_layer_rejected(self):
        grid = GridSpec(0, 0, 100, 2, 2)
        with pytest.raises(InputError, match="empty feature layer"):
            rasterize(MEDICINE, xy([]), grid, SCHEME)

    @pytest.mark.parametrize("features", [
        [(50.0, 50.0)], [[50.0, 50.0]], [], np.array([[50, 50]]), np.array([50.0, 50.0])])
    def test_points_other_than_a_float_array_rejected(self, features):
        """The points are an n x 2 float64 array; a list of pairs, an
        integer array and a flat array are not one."""
        grid = GridSpec(0, 0, 100, 2, 2)
        with pytest.raises(InputError, match="expects point features"):
            rasterize(MEDICINE, features, grid, SCHEME)

    def test_masked_cells_carry_no_score(self):
        grid = GridSpec(0, 0, 100, 3, 3)
        mask = full_mask(grid)
        mask[0, 0] = False
        raster = rasterize(MEDICINE, xy([center_at(grid, 1, 1)]), grid, SCHEME, mask=mask)
        assert math.isnan(raster.values[0, 0])

    def test_integer_mask_reads_as_bool(self):
        grid = GridSpec(0, 0, 100, 3, 3)
        mask = np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        points = xy([center_at(grid, 1, 1)])
        got = rasterize(MEDICINE, points, grid, SCHEME, mask=mask)
        want = rasterize(MEDICINE, points, grid, SCHEME, mask=mask.astype(bool))
        assert np.array_equal(got.values, want.values, equal_nan=True)
        assert np.array_equal(got.mask, want.mask)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_array_point_rejected(self, bad):
        """A non-finite point is refused as ``distances_to`` refuses a
        non-finite query, in planar mode; geodesic mode refuses it by its
        range check."""
        grid = GridSpec(0, 0, 100, 3, 3)
        xy = np.array([[150.0, 150.0], [bad, 0.0]])
        message = re.escape(f"point coordinates must be finite, got ({bad}, 0.0)")
        with pytest.raises(DomainError, match=message):
            rasterize(MEDICINE, xy, grid, SCHEME)
        with pytest.raises(DomainError, match=message):
            distances_to(np.zeros(1), np.zeros(1), bad, 0.0)
        degrees = GridSpec(51.0, 32.0, 0.001, 3, 3)
        lonlat = np.array([[51.0015, 32.0015], [bad, 32.0]])
        out_of_range = r"geodesic coordinates out of range: lon=-?(nan|inf)"
        with pytest.raises(DomainError, match=out_of_range):
            rasterize(MEDICINE, lonlat, degrees, SCHEME, mode="geodesic")


class TestRasterizeZones:
    def test_island_zone_beats_base_zone(self):
        grid = GridSpec(0, 0, 100, 4, 4)
        base = polygon_from_coords([(0, 0), (400, 0), (400, 400), (0, 400)])
        island = polygon_from_coords([(100, 100), (200, 100), (200, 200), (100, 200)])
        zones = [(base, "Middle"), (island, "High")]
        raster = rasterize(INCOME, zones, grid, SCHEME)
        assert raster.values[1, 1] == 0.6  # inside the island
        assert raster.values[3, 3] == 0.4  # base only
        # zone order must not matter: the smaller polygon wins
        flipped = rasterize(INCOME, list(reversed(zones)), grid, SCHEME)
        assert np.array_equal(raster.values, flipped.values)

    def test_uncovered_cell_named_in_error(self):
        grid = GridSpec(0, 0, 100, 4, 4)
        small = polygon_from_coords([(0, 0), (200, 0), (200, 200), (0, 200)])
        with pytest.raises(InputError, match=r"row=0, col=2"):
            rasterize(INCOME, [(small, "High")], grid, SCHEME)

    def test_density_zones_classify_numeric_attribute(self):
        density = validate_spec(CriterionSpec(
            id="population_density", kind="density", direction="far_better",
            bands=(Band(500, None, HIGH), Band(200, 500, SUIT), Band(0, 200, NON)),
        ))
        grid = GridSpec(0, 0, 100, 2, 2)
        left = polygon_from_coords([(0, 0), (100, 0), (100, 200), (0, 200)])
        right = polygon_from_coords([(100, 0), (200, 0), (200, 200), (100, 200)])
        raster = rasterize(density, [(left, 650), (right, 120)], grid, SCHEME)
        assert raster.values[0, 0] == 0.6
        assert raster.values[0, 1] == 0.0

    @pytest.mark.parametrize("bad, shown", [("junk", "'junk'"), (("x", 1), "('x', 1)")])
    def test_every_zone_item_is_type_checked(self, bad, shown):
        grid = GridSpec(0, 0, 100, 2, 2)
        zone = (polygon_from_coords([(0, 0), (200, 0), (200, 200), (0, 200)]), "High")
        with pytest.raises(InputError, match=re.escape(
                f"criterion 'income_level' expects (Polygon, attribute) zones, "
                f"got {shown} at index 1")):
            rasterize(INCOME, [zone, bad], grid, SCHEME)

    def test_equal_zones_go_to_the_earlier(self):
        grid = GridSpec(0, 0, 100, 3, 2)
        square = [(0, 0), (300, 0), (300, 200), (0, 200)]
        # the same cells and the same area, in other vertex orders
        first = polygon_from_coords(square)
        second = polygon_from_coords(square[1:] + square[:1])
        assert first.area == second.area
        for (a, b), want in ((("High", "Low"), 0.6), (("Low", "High"), 0.0)):
            zones = [(first, a), (second, b)]
            assert rasterize(INCOME, zones, grid, SCHEME).values.tolist() == [[want] * 3] * 2

    def test_zone_that_wins_no_cell_is_never_classified(self):
        grid = GridSpec(0, 0, 100, 3, 2)
        base = polygon_from_coords([(0, 0), (300, 0), (300, 200), (0, 200)])
        covered = polygon_from_coords([(0, 0), (400, 0), (400, 300), (0, 300)])
        outside = polygon_from_coords([(500, 500), (600, 500), (600, 600)])
        # "Unknown" is no category: classifying either zone would raise
        zones = [(covered, "Unknown"), (base, "Middle"), (outside, "Unknown")]
        raster = rasterize(INCOME, zones, grid, SCHEME)
        assert raster.values.tolist() == [[0.4] * 3] * 2
        with pytest.raises(InputError, match="category 'Unknown' not in"):
            rasterize(INCOME, [(base, "Unknown")], grid, SCHEME)


class TestGridSpec:
    def test_cell_cap_enforced(self):
        with pytest.raises(InputError, match="cap"):
            GridSpec(0, 0, 1, 2001, 2000)

    def test_bad_dimensions_rejected(self):
        with pytest.raises(InputError):
            GridSpec(0, 0, 0, 10, 10)
        with pytest.raises(InputError):
            GridSpec(0, 0, 10, 0, 10)

    def test_center_axes_match_scalar_centers(self):
        grid = GridSpec(-130.0, 42.5, 12.5, 7, 5)
        xs, ys = grid.center_axes()
        # the bits of evaluating each center on its own, in Python floats
        assert xs.tolist() == [-130.0 + (col + 0.5) * 12.5 for col in range(7)]
        assert ys.tolist() == [42.5 + (row + 0.5) * 12.5 for row in range(5)]


class TestGeodesicRasterize:
    def test_matches_scalar_kernel(self):
        spec = validate_spec(CriterionSpec(
            id="clinic", kind="distance", direction="near_better",
            bands=(Band(0, 500, HIGH), Band(500, 2000, SUIT), Band(2000, None, NON)),
        ))
        grid = GridSpec(51.60, 32.60, 0.01, 6, 6)  # degrees in geodesic mode
        points = [(51.63, 32.62), (51.61, 32.64)]
        raster = rasterize(spec, xy(points), grid, SCHEME, mode="geodesic")
        from branchsite.criteria import classify as cls_fn
        for row in range(6):
            for col in range(6):
                center = center_at(grid, row, col)
                raw = min(distance(center, p, "geodesic") for p in points)
                want = SCHEME.value(cls_fn(spec, raw))
                assert raster.values[row, col] == want


class TestBuildMask:
    def test_matches_per_point_containment(self):
        rng = random.Random(47)
        grid = GridSpec(-100, -100, 35, 12, 12)
        polys = []
        for _ in range(3):
            cx, cy = rng.uniform(-50, 300), rng.uniform(-50, 300)
            k = rng.randint(5, 9)
            radii = [rng.uniform(40, 160) for _ in range(k)]
            polys.append(polygon_from_coords([
                (cx + r * math.cos(2 * math.pi * i / k),
                 cy + r * math.sin(2 * math.pi * i / k))
                for i, r in enumerate(radii)
            ]))
        mask = build_mask(grid, polys)
        for row in range(grid.nrows):
            for col in range(grid.ncols):
                center = center_at(grid, row, col)
                want = any(inside(center, p) for p in polys)
                assert mask[row, col] == want

    def test_bulk_pip_boundary_inclusive(self):
        poly = polygon_from_coords([(0, 0), (10, 0), (10, 10), (0, 10)])
        xs = np.array([0.0, 5.0, 10.0, 20.0])
        ys = np.array([0.0, 5.0, 10.0])
        got = grid_inside(xs, ys, poly)
        assert got.shape == (3, 4)
        # (5, 0) and (0, 5) on edges, (20, 5) outside, (10, 10) on a vertex
        assert [got[0, 1], got[1, 0], got[1, 3], got[2, 2]] == [True, True, False, True]


def rect(x0, y0, x1, y1, holes=()):
    return polygon_from_coords([(x0, y0), (x1, y0), (x1, y1), (x0, y1)], holes)


def _outcome(fn, *args, **kwargs):
    """The function's result, or the type and text of the error it raised."""
    try:
        return fn(*args, **kwargs)
    except BranchSiteError as exc:
        return type(exc), str(exc)


def _bits(values):
    return np.ascontiguousarray(values).view(np.int64)


def _assert_raster_matches_reference(spec, features, grid, mask=None, mode="planar"):
    """rasterize gives the full-grid reference's array, or its error."""
    got = _outcome(rasterize, spec, features, grid, SCHEME, mask=mask, mode=mode)
    want = _outcome(reference_rasterize, spec, features, grid, SCHEME,
                    mask=mask, mode=mode)
    if isinstance(want, tuple):
        assert got == want
        return
    assert np.array_equal(_bits(got.values), _bits(want.values))
    assert np.array_equal(got.mask, want.mask)


def _assert_kernels_match_reference(grid, demand, zones, points, mode="planar",
                                    distance_spec=MEDICINE):
    """build_mask and rasterize give the full-grid references' arrays, or
    their errors; ``demand=None`` rasterizes without a mask."""
    mask = None
    if demand is not None:
        mask = build_mask(grid, demand)
        assert np.array_equal(mask, reference_build_mask(grid, demand))
    for spec, features in ((INCOME, zones), (distance_spec, points)):
        _assert_raster_matches_reference(spec, features, grid, mask, mode)


# 10 x 8 cells of 10 m: centers on x = 5, 15, ..., 95 and y = 5, 15, ..., 75.
KERNEL_GRID = GridSpec(0, 0, 10, 10, 8)
KERNEL_POINTS = xy([(12.5, 33.0), (95.0, 75.0), (-40.0, 10.0)])
GEO_DISTANCE = validate_spec(CriterionSpec(
    id="clinic", kind="distance", direction="near_better",
    bands=(Band(0, 500, HIGH), Band(500, 2000, SUIT), Band(2000, None, NON)),
))

KERNEL_CASES = {
    "nested_zones": dict(
        demand=[rect(0, 0, 70, 60), rect(40, 30, 100, 80)],
        zones=[(rect(-10, -10, 110, 90), "Low"), (rect(20, 20, 60, 60), "Middle"),
               (rect(30, 30, 50, 50), "High")]),
    "zone_with_hole": dict(
        demand=[rect(0, 0, 100, 80, holes=[[(30, 30), (70, 30), (70, 60), (30, 60)]])],
        zones=[(rect(-10, -10, 110, 90, holes=[[(25, 25), (75, 25), (75, 55), (25, 55)]]),
                "Middle"),
               (rect(25, 25, 75, 55), "High"),
               (rect(35, 35, 45, 45), "Low")]),
    "past_and_outside_grid": dict(
        demand=[rect(-50, -50, 55, 200), rect(500, 500, 600, 600),
                rect(90, -30, 400, 20)],
        zones=[(rect(-1000, -1000, 1000, 1000), "Middle"),
               (rect(500, 500, 510, 510), "Unknown"),
               (rect(-20, 60, 30, 150), "High")]),
    "centers_on_edges": dict(
        # edges and bounding boxes on the center lines x = 15, 55, 5, 65 and
        # y = 15, 45, 5, 65; the hypotenuse x + y = 70 runs through centers;
        # the last triangle's box touches y = 45 only away from the polygon
        demand=[rect(15, 15, 55, 45), polygon_from_coords([(5, 5), (65, 5), (5, 65)]),
                polygon_from_coords([(60, 0), (100, 0), (80, 45)])],
        zones=[(polygon_from_coords([(5, 5), (95, 5), (95, 75), (5, 75)]), "Low"),
               (polygon_from_coords([(5, 5), (65, 5), (5, 65)]), "High"),
               (rect(15, 15, 55, 45), "Middle")]),
    "empty_mask": dict(
        demand=[rect(200, 200, 300, 300)],
        zones=[(rect(0, 0, 10, 10), "Unknown")]),
    "no_mask": dict(
        demand=None,
        zones=[(rect(0, 0, 100, 80), "Low"), (rect(0, 0, 50, 40), "High")]),
    "uncovered_cell": dict(
        demand=[rect(0, 0, 100, 80)],
        zones=[(rect(0, 0, 100, 30), "Low"), (rect(0, 50, 100, 80), "High")]),
}


def banded_spec(direction, edges, classes):
    """Bands [0, e1], [e1, e2], ..., [ek, inf) with the given classes."""
    bounds = [0.0, *edges, None]
    return validate_spec(CriterionSpec(
        id="drawn", kind="distance", direction=direction,
        bands=tuple(Band(lo, hi, cls) for lo, hi, cls in zip(bounds, bounds[1:], classes)),
    ))


# reach 50 m; 50 m itself belongs to the more suitable side, so the top
# segment is [50, inf) when it is the best class and (50, inf) otherwise
REACH_50_TOP_CLOSED = banded_spec("far_better", [20, 50], [NON, SUIT, HIGH])
REACH_50_TOP_OPEN = banded_spec("near_better", [20, 50], [HIGH, SUIT, NON])
REACH_30 = banded_spec("near_better", [10, 30], [HIGH, SUIT, NON])
RING = banded_spec("band", [10, 30], [NON, HIGH, SUIT])
ONE_BAND = banded_spec("near_better", [], [SUIT])
WIDE = banded_spec("near_better", [1000, 5000], [HIGH, SUIT, NON])

# every third cell of KERNEL_GRID out of the study area, and a band of rows
# that leaves the mask's bounding box smaller than the grid
SPARSE_MASK = np.add.outer(np.arange(8), np.arange(10)) % 3 != 0
MIDDLE_ROWS = np.zeros((8, 10), dtype=bool)
MIDDLE_ROWS[2:5, 3:8] = True

# (45, 35) is a cell center: the centers 50 m from it lie at offsets (50, 0),
# (30, 40), (40, 30) and their reflections, e.g. (95, 35), (75, 75), (5, 5)
AT_REACH = xy([(45.0, 35.0)])

DISTANCE_CASES = {
    "at_reach_top_closed": dict(spec=REACH_50_TOP_CLOSED, points=AT_REACH),
    "at_reach_top_open": dict(spec=REACH_50_TOP_OPEN, points=AT_REACH),
    "at_reach_sparse_mask": dict(spec=REACH_50_TOP_OPEN, points=AT_REACH,
                                 mask=SPARSE_MASK),
    "point_beyond_reach": dict(spec=MEDICINE, points=xy([(1000.0, 40.0)])),
    "points_near_and_beyond_reach": dict(
        spec=REACH_30, points=xy([(-200.0, 40.0), (45.0, 35.0)])),
    "one_band_reach_0": dict(spec=ONE_BAND, points=KERNEL_POINTS),
    "reach_wider_than_grid": dict(spec=WIDE, points=xy([(3000.0, -2000.0)])),
    "points_off_each_side": dict(
        spec=REACH_30,
        points=xy([(-25.0, 40.0), (125.0, 20.0), (50.0, -35.0),
                   (30.0, 110.0), (-100.0, -100.0)])),
    "points_off_each_side_middle_rows": dict(
        spec=REACH_30, mask=MIDDLE_ROWS,
        points=xy([(10.0, 40.0), (95.0, 20.0), (50.0, 0.0), (30.0, 75.0)])),
    "far_better": dict(spec=REACH_50_TOP_CLOSED, points=KERNEL_POINTS,
                       mask=SPARSE_MASK),
    "band": dict(spec=RING, points=np.concatenate([KERNEL_POINTS, AT_REACH])),
    "empty_mask": dict(spec=REACH_30, points=KERNEL_POINTS,
                       mask=np.zeros((8, 10), dtype=bool)),
}

# 9 x 7 cells of 0.004 degrees; GEO_DISTANCE reaches 2,000 m, about 0.018
# degrees of latitude
GEO_GRID = GridSpec(51.60, 32.60, 0.004, 9, 7)
GEO_MASK = np.add.outer(np.arange(7), np.arange(9)) % 4 != 1

GEODESIC_CASES = {
    "near_and_far": dict(points=xy([(51.63, 32.62), (51.60, 33.50)])),
    "point_out_of_range_empty_window": dict(
        points=xy([(51.63, 32.62), (51.61, 95.0)])),
    "lon_out_of_range": dict(points=xy([(51.63, 32.62), (200.0, 32.61)])),
    "empty_mask_point_out_of_range": dict(
        points=xy([(51.63, 32.62), (51.61, -95.0)]),
        mask=np.zeros((7, 9), dtype=bool)),
    "unknown_mode": dict(points=xy([(51.63, 32.62)]), mode="spherical"),
}


class TestMaskedKernelsMatchReference:
    """The masked kernels give the full-grid kernels' arrays bit for bit."""

    @pytest.mark.parametrize("case", sorted(KERNEL_CASES))
    def test_named_cases(self, case):
        _assert_kernels_match_reference(KERNEL_GRID, points=KERNEL_POINTS,
                                        **KERNEL_CASES[case])

    @pytest.mark.parametrize("case", sorted(DISTANCE_CASES))
    def test_distance_windows(self, case):
        c = DISTANCE_CASES[case]
        _assert_raster_matches_reference(c["spec"], c["points"], KERNEL_GRID,
                                         mask=c.get("mask"))

    @pytest.mark.parametrize("case", sorted(GEODESIC_CASES))
    def test_geodesic_distance_windows(self, case):
        c = GEODESIC_CASES[case]
        _assert_raster_matches_reference(GEO_DISTANCE, c["points"], GEO_GRID,
                                         mask=c.get("mask", GEO_MASK),
                                         mode=c.get("mode", "geodesic"))

    def test_cells_at_reach_take_the_band_that_owns_reach(self):
        # the reference agreeing is not enough if both skipped the boundary
        closed = rasterize(REACH_50_TOP_CLOSED, AT_REACH, KERNEL_GRID, SCHEME)
        opened = rasterize(REACH_50_TOP_OPEN, AT_REACH, KERNEL_GRID, SCHEME)
        for row, col in [(3, 9), (7, 7), (7, 1), (6, 8), (6, 0), (0, 8), (0, 0)]:
            center = center_at(KERNEL_GRID, row, col)
            assert distance(center, AT_REACH[0]) == 50.0
            assert closed.values[row, col] == SCHEME.high
            assert opened.values[row, col] == SCHEME.mid

    def test_geodesic_window_stays_inside_the_mask_bounds(self):
        # columns past lon 180 lie outside the study area, so no kernel
        # measures them, as on the grid cut at lon 180
        wide = GridSpec(179.95, 10.0, 0.02, 6, 3)
        cut = GridSpec(179.95, 10.0, 0.02, 2, 3)
        mask = np.zeros(wide.shape, dtype=bool)
        mask[:, :2] = True
        points = xy([(179.97, 10.01), (-179.99, 10.03)])
        got = rasterize(GEO_DISTANCE, points, wide, SCHEME, mask=mask, mode="geodesic")
        want = rasterize(GEO_DISTANCE, points, cut, SCHEME, mode="geodesic")
        assert np.array_equal(_bits(got.values[:, :2]), _bits(want.values))
        assert np.isnan(got.values[:, 2:]).all()

    def test_drawn_distance_windows(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @st.composite
        def cases(draw):
            ncols, nrows = draw(st.integers(1, 10)), draw(st.integers(1, 10))
            mask = np.array(draw(st.lists(st.booleans(), min_size=ncols * nrows,
                                          max_size=ncols * nrows)), dtype=bool)
            if draw(st.booleans()):
                mode = "geodesic"
                cell = draw(st.sampled_from([0.001, 0.01, 0.25, 1.0]))
                x0 = draw(st.floats(-180.0, 180.0 - ncols * cell))
                y0 = draw(st.floats(-85.0, 85.0 - nrows * cell))
                meters = math.radians(cell) * EARTH_RADIUS_M  # a cell of latitude
            else:
                mode = "planar"
                cell = draw(st.sampled_from([2.5, 10.0, 25.0]))
                x0, y0 = (draw(st.integers(-5, 5)) * cell for _ in range(2))
                meters = cell
            # points on a half-cell lattice reaching a few cells past the grid,
            # so centers at exactly a band edge come up
            half = cell / 2.0
            xk = st.integers(-8, 2 * ncols + 8)
            yk = st.integers(-8, 2 * nrows + 8)
            points = draw(st.lists(st.builds(lambda i, j: (x0 + i * half, y0 + j * half),
                                             xk, yk), min_size=1, max_size=4))
            if mode == "geodesic":
                points = [(min(max(x, -180.0), 180.0), min(max(y, -90.0), 90.0))
                          for x, y in points]
            edges = sorted(draw(st.lists(st.integers(1, 24), max_size=3, unique=True)))
            classes = draw(st.lists(st.sampled_from([HIGH, SUIT, NON]),
                                    min_size=len(edges) + 1, max_size=len(edges) + 1))
            direction = draw(st.sampled_from(["near_better", "far_better", "band"]))
            if direction != "band":
                classes.sort(key=lambda c: c.rank, reverse=direction == "near_better")
            spec = banded_spec(direction, [k * meters / 2.0 for k in edges], classes)
            grid = GridSpec(x0, y0, cell, ncols, nrows)
            return spec, xy(points), grid, mask.reshape(grid.shape), mode

        @hypothesis.settings(max_examples=300, deadline=None)
        @hypothesis.given(case=cases())
        def check(case):
            spec, points, grid, mask, mode = case
            _assert_raster_matches_reference(spec, points, grid, mask, mode)

        check()

    def test_geodesic(self):
        grid = GridSpec(51.60, 32.60, 0.004, 9, 7)
        demand = [rect(51.61, 32.605, 51.628, 32.63),
                  polygon_from_coords([(51.62, 32.60), (51.64, 32.61), (51.62, 32.628)])]
        zones = [(rect(51.59, 32.59, 51.65, 32.64), "Middle"),
                 (rect(51.614, 32.61, 51.626, 32.62), "High")]
        points = xy([(51.63, 32.62), (51.61, 32.64)])
        _assert_kernels_match_reference(grid, demand, zones, points, mode="geodesic",
                                        distance_spec=GEO_DISTANCE)

    def test_drawn_polygons(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        # half-cell lattice coordinates put centers on edges and box edges often
        coord = st.integers(-4, 20).map(lambda k: k * 2.5)

        @st.composite
        def polygons(draw):
            if draw(st.booleans()):
                x0, x1 = sorted(draw(st.lists(coord, min_size=2, max_size=2, unique=True)))
                y0, y1 = sorted(draw(st.lists(coord, min_size=2, max_size=2, unique=True)))
                return rect(x0, y0, x1, y1)
            xy = draw(st.lists(st.tuples(coord, coord), min_size=3, max_size=3, unique=True))
            (ax, ay), (bx, by), (cx, cy) = xy
            hypothesis.assume((bx - ax) * (cy - ay) != (by - ay) * (cx - ax))
            return polygon_from_coords(xy)

        @hypothesis.settings(max_examples=200, deadline=None)
        @hypothesis.given(
            ncols=st.integers(1, 8), nrows=st.integers(1, 8),
            cell_size=st.sampled_from([2.5, 5.0]),
            demand=st.one_of(st.none(), st.lists(polygons(), min_size=1, max_size=3)),
            zones=st.lists(st.tuples(polygons(), st.sampled_from(["High", "Middle", "Low"])),
                           min_size=1, max_size=4),
            base=st.booleans(),
            points=st.lists(st.tuples(coord, coord), min_size=1, max_size=3))
        def check(ncols, nrows, cell_size, demand, zones, base, points):
            grid = GridSpec(0.0, 0.0, cell_size, ncols, nrows)
            if base:  # a zone under everything, so most draws score every cell
                zones = zones + [(rect(-20, -20, 60, 60), "Low")]
            _assert_kernels_match_reference(grid, demand, zones, xy(points))

        check()


class TestCombine:
    def test_single_raster_identity_all_modes(self):
        grid = GridSpec(0, 0, 10, 2, 2)
        r = make_raster(grid, "a", [[0.6, 0.4], [0.0, 0.6]])
        for mode in CombineMode:
            out = combine([r], [1.0], mode)
            assert np.array_equal(out.values, r.values)

    def test_zero_annihilates_products(self):
        grid = GridSpec(0, 0, 10, 2, 1)
        r1 = make_raster(grid, "a", [[0.6, 0.0]])
        r2 = make_raster(grid, "b", [[0.4, 0.6]])
        for mode in (CombineMode.LITERAL_PRODUCT, CombineMode.WEIGHTED_GEOMETRIC):
            out = combine([r1, r2], [0.5, 0.5], mode)
            assert out.values[0, 1] == 0.0

    def test_weighted_sum_hand_value(self):
        grid = GridSpec(0, 0, 10, 1, 1)
        r1 = make_raster(grid, "a", [[0.6]])
        r2 = make_raster(grid, "b", [[0.4]])
        out = combine([r1, r2], [0.7, 0.3], CombineMode.WEIGHTED_SUM)
        assert out.values[0, 0] == pytest.approx(0.7 * 0.6 + 0.3 * 0.4, abs=1e-15)

    def test_permutation_invariant_bitwise(self):
        rng = random.Random(53)
        grid = GridSpec(0, 0, 10, 6, 6)
        rasters = []
        for k in range(5):
            cells = [[rng.choice([0.0, 0.4, 0.6]) for _ in range(6)] for _ in range(6)]
            rasters.append(make_raster(grid, f"c{k}", cells))
        weights = [0.1, 0.15, 0.2, 0.25, 0.3]
        for mode in CombineMode:
            base = combine(rasters, weights, mode)
            perm = [3, 0, 4, 2, 1]
            out = combine([rasters[i] for i in perm], [weights[i] for i in perm], mode)
            assert np.array_equal(base.values, out.values, equal_nan=True)

    def test_literal_product_ranking_equals_unweighted_product(self):
        # exact-arithmetic oracle: distinct unweighted products differ by a
        # factor >= 1.5, so float noise can never flip their order; cells
        # whose exact products tie must stay within rounding noise of each
        # other under both orderings.
        from fractions import Fraction

        rng = random.Random(59)
        grid = GridSpec(0, 0, 10, 8, 8)
        frac = {0.0: Fraction(0), 0.4: Fraction(2, 5), 0.6: Fraction(3, 5)}
        for _ in range(5):
            cells = [
                [[rng.choice([0.0, 0.4, 0.6]) for _ in range(8)] for _ in range(8)]
                for _ in range(4)
            ]
            rasters = [make_raster(grid, f"c{k}", cells[k]) for k in range(4)]
            weights = [0.4, 0.3, 0.2, 0.1]
            weighted = combine(rasters, weights, CombineMode.LITERAL_PRODUCT).values.ravel()
            plain = np.ones(64)
            for r in rasters:
                plain = plain * r.values.ravel()
            exact = []
            for row in range(8):
                for col in range(8):
                    p = Fraction(1)
                    for k in range(4):
                        p *= frac[cells[k][row][col]]
                    exact.append(p)
            for i in range(64):
                for j in range(i + 1, 64):
                    if exact[i] == exact[j]:
                        assert abs(weighted[i] - weighted[j]) <= 1e-12
                        assert abs(plain[i] - plain[j]) <= 1e-12
                    elif exact[i] > exact[j]:
                        assert weighted[i] > weighted[j]
                        assert plain[i] > plain[j]
                    else:
                        assert weighted[i] < weighted[j]
                        assert plain[i] < plain[j]

    def test_weighted_sum_range_bound(self):
        rng = random.Random(61)
        grid = GridSpec(0, 0, 10, 10, 10)
        rasters = [
            make_raster(grid, f"c{k}",
                        [[rng.choice([0.0, 0.4, 0.6]) for _ in range(10)]
                         for _ in range(10)])
            for k in range(6)
        ]
        w = [rng.uniform(0.5, 1.0) for _ in range(6)]
        w = [x / sum(w) for x in w]
        out = combine(rasters, w, CombineMode.WEIGHTED_SUM)
        assert np.nanmin(out.values) >= SCHEME.non - 1e-12
        assert np.nanmax(out.values) <= SCHEME.high + 1e-12

    def test_weight_vector_alignment_by_id(self):
        grid = GridSpec(0, 0, 10, 1, 1)
        r1 = make_raster(grid, "a", [[0.6]])
        r2 = make_raster(grid, "b", [[0.4]])
        w = WeightVector(("b", "a"), (0.3, 0.7))
        out = combine([r1, r2], w, CombineMode.WEIGHTED_SUM)
        assert out.values[0, 0] == pytest.approx(0.7 * 0.6 + 0.3 * 0.4, abs=1e-15)

    def test_grid_mismatch_rejected(self):
        r1 = make_raster(GridSpec(0, 0, 10, 2, 2), "a", [[0.6, 0.4], [0.4, 0.6]])
        r2 = make_raster(GridSpec(0, 0, 20, 2, 2), "b", [[0.6, 0.4], [0.4, 0.6]])
        with pytest.raises(InputError, match="different grid"):
            combine([r1, r2], [0.5, 0.5], CombineMode.WEIGHTED_SUM)

    def test_weight_count_mismatch_rejected(self):
        grid = GridSpec(0, 0, 10, 1, 1)
        r1 = make_raster(grid, "a", [[0.6]])
        with pytest.raises(InputError, match="weights"):
            combine([r1], [0.5, 0.5], CombineMode.WEIGHTED_SUM)

    @pytest.mark.parametrize("mode", list(CombineMode))
    def test_nan_weight_rejected(self, mode):
        """A NaN weight would give an all-NaN surface."""
        grid = GridSpec(0, 0, 10, 2, 1)
        rasters = [make_raster(grid, "a", [[0.6, 0.4]]), make_raster(grid, "b", [[0.2, 0.4]])]
        with pytest.raises(InputError, match="weights must sum to 1, got nan"):
            combine(rasters, [math.nan, 1.0], mode)

    @pytest.mark.parametrize("mode", list(CombineMode))
    def test_negative_weight_rejected_in_both_forms(self, mode):
        """A list of weights is checked as a ``WeightVector`` is: a negative
        weight fails with the same error, before any arithmetic (it gave a
        negative surface or a division by zero)."""
        grid = GridSpec(0, 0, 10, 2, 1)
        rasters = [make_raster(grid, "a", [[0.6, 0.4]]), make_raster(grid, "b", [[0.2, 0.4]])]
        with pytest.raises(InputError, match="^weights must be non-negative$"):
            combine(rasters, [-1.0, 2.0], mode)
        with pytest.raises(InputError, match="^weights must be non-negative$"):
            combine(rasters, WeightVector(("a", "b"), (-1.0, 2.0)), mode)

    @staticmethod
    def _assert_matches_reference(rasters, weights, mode):
        got = _outcome(combine, rasters, weights, mode)
        want = _outcome(reference_combine, rasters, weights, mode)
        if isinstance(want, tuple):
            assert got == want
            return
        assert np.array_equal(_bits(got.values), _bits(want.values))
        assert np.array_equal(got.mask, want.mask)

    def test_masked_matches_full_grid_reference(self):
        # scores anywhere outside the mask, zeros under weighted_geometric,
        # zero weights, masks from empty to full, rasters in any order
        rng = np.random.default_rng(71)
        grid = GridSpec(0, 0, 10, 9, 7)
        palette = np.array([0.0, 0.4, 0.6, 0.123456789])
        for _ in range(60):
            mask = rng.random(grid.shape) < rng.choice([0.0, 0.3, 0.9, 1.0])
            n = int(rng.integers(1, 6))
            rasters = []
            for k in rng.permutation(n).tolist():
                values = rng.choice(palette, size=grid.shape)
                values[~mask & (rng.random(grid.shape) < 0.5)] = np.nan
                rasters.append(SuitabilityRaster.from_values(grid, f"c{k}", values, mask))
            weights = rng.random(n) * (rng.random(n) < 0.8)
            if not weights.sum():
                weights[0] = 1.0
            weights = (weights / weights.sum()).tolist()
            for mode in CombineMode:
                self._assert_matches_reference(rasters, weights, mode)
                self._assert_matches_reference(
                    rasters, WeightVector(tuple(r.criterion_id for r in rasters),
                                          tuple(weights)), mode)

    def test_masked_geometric_zero_scores(self):
        grid = GridSpec(0, 0, 10, 3, 2)
        mask = np.array([[True, True, False], [False, True, True]])
        r1 = make_raster(grid, "a", [[0.0, 0.6, 0.6], [0.4, 0.0, 0.4]], mask)
        r2 = make_raster(grid, "b", [[0.6, 0.0, 0.0], [0.0, 0.0, 0.6]], mask)
        for weights in ([0.5, 0.5], [1.0, 0.0], [0.0, 1.0]):
            self._assert_matches_reference([r1, r2], weights,
                                           CombineMode.WEIGHTED_GEOMETRIC)
        out = combine([r1, r2], [0.5, 0.5], CombineMode.WEIGHTED_GEOMETRIC)
        assert out.values[0, 0] == out.values[0, 1] == out.values[1, 1] == 0.0

    def test_masked_errors_match_full_grid_reference(self):
        grid = GridSpec(0, 0, 10, 2, 2)
        a = make_raster(grid, "a", [[0.6, 0.4], [0.0, 0.6]])
        b = make_raster(grid, "b", [[0.4, 0.4], [0.6, 0.0]])
        other_mask = make_raster(grid, "c", [[0.4, 0.4], [0.6, 0.0]],
                                 np.array([[True, False], [True, True]]))
        other_grid = make_raster(GridSpec(0, 0, 20, 2, 2), "d", [[0.6, 0.4], [0.4, 0.6]])
        for rasters, weights, mode in [
            ([], [], CombineMode.WEIGHTED_SUM),
            ([a, a], [0.5, 0.5], CombineMode.WEIGHTED_SUM),
            ([a, b], [0.5, 0.6], CombineMode.LITERAL_PRODUCT),
            ([a, b], [1.0], CombineMode.WEIGHTED_SUM),
            ([a, b], WeightVector(("a", "c"), (0.5, 0.5)), CombineMode.WEIGHTED_SUM),
            ([a, other_mask], [0.5, 0.5], CombineMode.WEIGHTED_GEOMETRIC),
            ([a, other_grid], [0.5, 0.5], CombineMode.WEIGHTED_SUM),
            ([a, b], [0.5, 0.5], "weighted_sum"),
        ]:
            self._assert_matches_reference(rasters, weights, mode)


class TestRasters:
    def test_constructors_leave_the_callers_arrays_writeable(self):
        grid = GridSpec(0, 0, 10, 2, 2)
        v = np.array([[0.6, 0.4], [0.0, 0.6]])
        m = np.ones(grid.shape, dtype=bool)
        codes = np.array([2, 1, 0, 2], dtype=np.uint8)
        table = np.array([0.0, 0.4, 0.6])
        rasters = [SuitabilityRaster.from_values(grid, "a", v, m),
                   SuitabilityRaster(grid, "b", m, codes, table)]
        rasters.append(combine(rasters[1:], [1.0], CombineMode.WEIGHTED_SUM))
        for arr in (v, m, codes, table):
            assert arr.flags.writeable
        v[0, 0], m[0, 0], codes[0], table[0] = 1.0, False, 0, 0.5
        for r in rasters:
            assert r.mask.all() and r.values[0, 0] == 0.6
            for arr in (r.mask, r.codes, r.table):
                assert not arr.flags.writeable
        assert rasters[1].codes[0] == 2 and rasters[1].table[0] == 0.0

    def test_constructors_keep_read_only_arrays(self):
        grid = GridSpec(0, 0, 10, 2, 1)
        v, m = np.array([[0.6, np.nan]]), np.array([[True, False]])
        codes, table = np.array([1], dtype=np.uint8), np.array([0.0, 0.6])
        for arr in (v, m, codes, table):
            arr.flags.writeable = False
        raster = SuitabilityRaster(grid, "a", m, codes, table)
        assert raster.mask is m and raster.codes is codes and raster.table is table
        assert _bits(raster.values).tolist() == _bits(v).tolist()
        coded = SuitabilityRaster.from_values(grid, "a", v, m)
        assert coded.mask is m
        assert _bits(coded.values).tolist() == _bits(v).tolist()
        # the combined surface shares its rasters' read-only mask
        score = combine([raster], [1.0], CombineMode.WEIGHTED_SUM)
        assert score.criterion_id == "score" and score.mask is m
        assert _bits(score.values).tolist() == _bits(v).tolist()

    def test_malformed_codes_rejected(self):
        grid = GridSpec(0, 0, 10, 2, 1)
        m = np.array([[True, False]])
        table = np.array([0.0, 0.6])
        for codes in (np.array([1, 0], dtype=np.uint8), np.array([1], dtype=np.int64),
                      np.array([2], dtype=np.uint8)):
            with pytest.raises(InputError, match="raster codes"):
                SuitabilityRaster(grid, "a", m, codes, table)
        with pytest.raises(InputError, match="raster mask"):
            SuitabilityRaster(grid, "a", m.astype(int), np.array([1], dtype=np.uint8), table)

    @pytest.mark.parametrize("distinct", [1, 4, 256, 257, 1000])
    def test_from_values_round_trips_the_bits(self, distinct):
        rng = np.random.default_rng(distinct)
        grid = GridSpec(0, 0, 10, 40, 30)
        palette = np.concatenate(([-0.0, 0.0, NAN_1, NEG_NAN, math.inf],
                                  rng.random(max(0, distinct - 5))))[:distinct]
        values = rng.choice(palette, size=grid.shape)
        values.flat[:distinct] = palette   # every palette entry is in the raster
        mask = np.ones(grid.shape, dtype=bool)
        mask[rng.random(grid.shape) < 0.2] = False
        mask.flat[:distinct] = True
        values[~mask] = np.nan
        raster = SuitabilityRaster.from_values(grid, "a", values, mask)
        assert len(raster.table) == distinct
        assert raster.codes.dtype == (np.uint8 if distinct <= 256 else np.uint16)
        assert np.array_equal(_bits(raster.values), _bits(values))
        # the cells outside the mask are NaN, whatever they held
        values[~mask] = 0.5
        again = SuitabilityRaster.from_values(grid, "a", values, mask)
        assert np.array_equal(_bits(again.values), _bits(raster.values))

    def test_from_values_of_an_empty_mask(self):
        grid = GridSpec(0, 0, 10, 2, 2)
        raster = SuitabilityRaster.from_values(grid, "a", np.zeros(grid.shape),
                                               np.zeros(grid.shape, dtype=bool))
        assert raster.codes.size == 0 and raster.table.size == 0
        assert np.isnan(raster.values).all()
        assert "".join(esri_ascii_text(raster)).endswith("-9999.0 -9999.0\n")


class TestExports:
    def test_esri_ascii_round_trip(self, tmp_path):
        grid = GridSpec(0, 0, 100, 3, 2)
        mask = full_mask(grid)
        mask[1, 2] = False
        r = make_raster(grid, "a", [[0.6, 0.4, 0.0], [0.4, 0.6, 0.6]], mask)
        path = tmp_path / "r.asc"
        path.write_text("".join(esri_ascii_text(r)))
        grid2, values = read_esri_ascii(path)
        assert grid2 == grid
        assert np.array_equal(values, r.values, equal_nan=True)

    def test_esri_ascii_bytes_deterministic(self):
        grid = GridSpec(10.5, -3.25, 12.5, 3, 3)
        cells = [[0.6, 0.4, 0.0], [0.0, 0.4, 0.6], [0.4, 0.4, 0.4]]
        a = "".join(esri_ascii_text(make_raster(grid, "a", cells)))
        b = "".join(esri_ascii_text(make_raster(grid, "a", cells)))
        assert a == b
        assert a.startswith("NCOLS 3\nNROWS 3\nXLLCORNER 10.5\n")

    def test_rasters_compare_by_identity(self):
        grid = GridSpec(0, 0, 100, 2, 1)
        a, b = (make_raster(grid, "a", [[0.6, 0.4]]) for _ in range(2))
        c, d = (_score_raster(grid, [[0.6, 0.4]]) for _ in range(2))
        assert a == a and a != b
        assert c == c and c != d

    def test_score_points_geojson_skips_masked(self):
        grid = GridSpec(0, 0, 100, 2, 1)
        mask = np.array([[True, False]])
        r = make_raster(grid, "a", [[0.6, 0.4]], mask)
        gj = json.loads("".join(score_points_geojson(r)))
        assert len(gj["features"]) == 1
        assert gj["features"][0]["geometry"]["coordinates"] == [50.0, 50.0]
        assert gj["features"][0]["properties"]["score"] == 0.6


NAN, INF = math.nan, math.inf
# NaNs with other payloads than math.nan's, and a negative one
NAN_1, NAN_2, NEG_NAN = np.array(
    [0x7FF8000000000001, 0x7FF8000000000002, -0x0008000000000000],
    dtype=np.int64).view(float).tolist()
# Values whose text is easy to get wrong: signed zeros, infinities, the
# smallest subnormal, exponent notation on both sides, a non-short repr,
# NaN payloads.
AWKWARD = [0.0, -0.0, INF, -INF, 5e-324, 1e16, 1e-5, 0.1 + 0.2, NAN, 0.6,
           NAN_1, NEG_NAN]

FORMATTER_CASES = {
    "signed_zeros": (GridSpec(0, 0, 10, 3, 2), [[0.0, -0.0, 0.0], [-0.0, NAN, 0.6]]),
    "awkward_floats": (GridSpec(-5, 7, 2.5, 3, 2),
                       [[INF, -INF, 5e-324], [1e16, 1e-5, 0.1 + 0.2]]),
    "all_nan": (GridSpec(0, 0, 1, 2, 2), [[NAN, NAN], [NAN, NAN]]),
    "single_cell": (GridSpec(3, 4, 100, 1, 1), [[0.6]]),
    "non_square_fractional_origin": (
        GridSpec(1234.567, -89.125, 0.3, 5, 2),
        [[0.4, NAN, 0.1 + 0.2, 0.6, 0.0], [NAN, 0.6, 0.4, -0.0, 1e-5]]),
    # the Esri grids and the report's raster are joined once per distinct row
    "repeated_rows": (GridSpec(0, 0, 10, 3, 5),
                      [[0.6, 0.4, NAN], [0.6, 0.4, NAN], [0.0, 0.4, 0.6],
                       [0.6, 0.4, NAN], [0.0, 0.4, 0.6]]),
    "all_nan_rows": (GridSpec(0, 0, 10, 3, 4),
                     [[NAN, NAN, NAN], [0.6, NAN, 0.4], [NAN, NAN, NAN],
                      [NAN, NAN, NAN]]),
    "rows_differ_in_zero_sign": (GridSpec(0, 0, 10, 2, 4),
                                 [[0.0, 0.6], [-0.0, 0.6], [0.0, 0.6], [-0.0, 0.6]]),
    "rows_differ_in_nan_payload": (GridSpec(0, 0, 10, 2, 4),
                                   [[NAN, 0.6], [NAN_1, 0.6], [NAN_2, 0.6],
                                    [NEG_NAN, 0.6]]),
    "single_row": (GridSpec(0, 0, 10, 4, 1), [[0.6, NAN, -0.0, 0.6]]),
    "single_column": (GridSpec(0, 0, 10, 1, 5), [[0.6], [-0.0], [0.6], [NAN], [0.0]]),
    # score_points.geojson is pieced from column, row and score texts, with
    # no separator before the first feature and the closing text after the
    # last one
    "single_masked_cell": (GridSpec(0, 0, 10, 3, 3),
                           [[NAN, NAN, NAN], [NAN, 0.4, NAN], [NAN, NAN, NAN]]),
    "only_first_cell": (GridSpec(0, 0, 10, 3, 2), [[0.6, NAN, NAN], [NAN, NAN, NAN]]),
    "only_last_cell": (GridSpec(0, 0, 10, 3, 2), [[NAN, NAN, NAN], [NAN, NAN, 0.6]]),
    "full_mask": (GridSpec(5, 5, 10, 3, 2), [[0.6, 0.4, 0.0], [0.4, 0.1 + 0.2, 0.6]]),
    "repeated_scores_and_negative_zero": (
        GridSpec(0, 0, 10, 4, 2), [[-0.0, 0.6, -0.0, 0.0], [0.6, 0.0, NAN, -0.0]]),
    "negative_fractional_origin": (GridSpec(-1234.567, -0.125, 0.3, 3, 3),
                                   [[0.4, NAN, 0.6], [NAN, -0.0, 0.4],
                                    [0.6, 0.4, NAN]]),
}
FORMATTER_METAS = [None, {"config_digest": "abc", "mode": "planar"},
                   {"mode": "g\u00e9od\u00e9sique \u0627\u0635\u0641\u0647\u0627\u0646",
                    "zz": ["\u00fc", 1]},
                   # the text each splice anchors on, inside string values
                   {"config_digest": '\n  "features": []',
                    "mode": '\n  "score_raster": {\n    "values": []'}]


def _score_raster(grid, cells):
    """The raster of ``cells`` as ``report`` reads it: the NaN cells lie
    outside the mask."""
    values = np.array(cells, dtype=float)
    return SuitabilityRaster.from_values(grid, "score", values, ~np.isnan(values))


def _assert_formatters_match_reference(grid, cells, meta):
    """Each formatter's chunks join to the reference text, with the NaN
    cells of ``cells`` outside the mask and, of any payload, in the table;
    every chunk but the last holds at least ``_CHUNK`` characters."""
    values = np.array(cells, dtype=float)
    # a run report holds the raster as rows of floats with NaN as None
    data = {**(meta or {}), "p_max": 3,
            "score_raster": {"values": np.where(np.isnan(values), None, values).tolist()}}
    esri = reference_esri_ascii_text(grid, values)
    masked = _score_raster(grid, values)
    points = json_text(reference_score_points_geojson(masked, meta=meta))
    in_table = SuitabilityRaster.from_values(grid, "c", values,
                                             np.ones(grid.shape, dtype=bool))
    for raster in (masked, in_table):
        for chunks, reference in [
                (esri_ascii_text(raster), esri),
                (score_points_geojson(raster, meta=meta), points),
                (report_json_text(data, raster), json_text(data))]:
            chunks = list(chunks)
            assert "".join(chunks) == reference
            assert all(len(c) >= overlay._CHUNK for c in chunks[:-1])


class TestFormattersMatchReference:
    """The array formatters give the per-cell loops' bytes exactly."""

    @pytest.mark.parametrize("meta", FORMATTER_METAS)
    @pytest.mark.parametrize("case", sorted(FORMATTER_CASES))
    def test_named_rasters(self, case, meta):
        grid, cells = FORMATTER_CASES[case]
        _assert_formatters_match_reference(grid, cells, meta)

    def test_drawn_rasters(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=150, deadline=None)
        @hypothesis.given(
            ncols=st.integers(1, 6), nrows=st.integers(1, 6),
            origin=st.sampled_from([0.0, -0.0, 1234.567, -89.125, 1e16, 5e-324]),
            cell_size=st.sampled_from([0.1 + 0.2, 1e-5, 2.5, 100.0]),
            data=st.data(), meta=st.sampled_from(FORMATTER_METAS))
        def check(ncols, nrows, origin, cell_size, data, meta):
            cells = data.draw(st.lists(st.sampled_from(AWKWARD),
                                       min_size=nrows * ncols, max_size=nrows * ncols))
            grid = GridSpec(origin, -origin, cell_size, ncols, nrows)
            _assert_formatters_match_reference(grid, np.reshape(cells, (nrows, ncols)), meta)

        check()

    def test_drawn_rasters_with_repeated_rows(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=150, deadline=None)
        @hypothesis.given(ncols=st.integers(1, 4), nrows=st.integers(1, 8),
                          data=st.data(), meta=st.sampled_from(FORMATTER_METAS))
        def check(ncols, nrows, data, meta):
            row = st.lists(st.sampled_from(AWKWARD), min_size=ncols, max_size=ncols)
            palette = data.draw(st.lists(row, min_size=1, max_size=3))
            picks = data.draw(st.lists(st.integers(0, len(palette) - 1),
                                       min_size=nrows, max_size=nrows))
            grid = GridSpec(0.0, 0.0, 2.5, ncols, nrows)
            _assert_formatters_match_reference(grid, [palette[k] for k in picks], meta)

        check()

    @pytest.mark.parametrize("chunk", [1, 7, 64])
    def test_chunk_boundaries(self, chunk, monkeypatch):
        """Chunks of 1, 7 and 64 characters split the texts inside rows,
        features and the fixed text around them; the chunks still join to
        the reference text."""
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        monkeypatch.setattr(overlay, "_CHUNK", chunk)

        @hypothesis.settings(max_examples=60, deadline=None)
        @hypothesis.given(ncols=st.integers(1, 5), nrows=st.integers(1, 8),
                          data=st.data(), meta=st.sampled_from(FORMATTER_METAS))
        def check(ncols, nrows, data, meta):
            # rows from a small palette repeat, next to each other or apart
            row = st.lists(st.sampled_from(AWKWARD), min_size=ncols, max_size=ncols)
            palette = data.draw(st.lists(row, min_size=1, max_size=3))
            picks = data.draw(st.lists(st.integers(0, len(palette) - 1),
                                       min_size=nrows, max_size=nrows))
            grid = GridSpec(-0.0, 12.5, 2.5, ncols, nrows)
            cells = [palette[k] for k in picks]
            _assert_formatters_match_reference(grid, cells, meta)
            raster = _score_raster(grid, cells)
            if chunk == 1:  # every row ends a chunk, and the tail is one more
                assert len(list(esri_ascii_text(raster))) > nrows

        check()

    def test_drawn_grids_and_masks(self):
        """score_points.geojson on random grids, masks and repeated scores."""
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False)

        @hypothesis.settings(max_examples=200, deadline=None)
        @hypothesis.given(
            ncols=st.integers(1, 9), nrows=st.integers(1, 9), x0=finite, y0=finite,
            cell_size=st.floats(1e-3, 1e3), data=st.data(),
            meta=st.sampled_from(FORMATTER_METAS))
        def check(ncols, nrows, x0, y0, cell_size, data, meta):
            n = nrows * ncols
            palette = data.draw(st.lists(st.sampled_from(AWKWARD) | finite,
                                         min_size=1, max_size=4))
            scores = data.draw(st.lists(st.sampled_from(palette), min_size=n, max_size=n))
            masked = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
            cells = np.where(masked, np.array(scores, dtype=float), NAN)
            raster = _score_raster(GridSpec(x0, y0, cell_size, ncols, nrows),
                                   cells.reshape(nrows, ncols))
            assert ("".join(score_points_geojson(raster, meta=meta))
                    == json_text(reference_score_points_geojson(raster, meta=meta)))

        check()


class TestGridRows:
    @pytest.mark.parametrize("north_first", [False, True])
    def test_equal_rows_share_one_text(self, north_first):
        """Rows A, A, B, A, south to north: every A row yields the one text
        joined for it, the repeat after B too, and each text is the join of
        the row's cell texts."""
        a, b = [0.5, NAN], [-0.0, 0.5]
        cells = [a, a, b, a]
        rows = list(overlay._grid_rows(_score_raster(GridSpec(0, 0, 10, 2, 4), cells),
                                       repr, "x", north_first, " "))
        order = cells[::-1] if north_first else cells
        assert rows == [" ".join("x" if math.isnan(v) else repr(v) for v in row)
                        for row in order]
        first_a = order.index(a)
        assert all((rows[k] is rows[first_a]) == (row is a) for k, row in enumerate(order))


class TestCodedSurface:
    """combine codes the surface by the bit patterns of its in-area scores."""

    def test_drawn_rasters(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=60, deadline=None)
        @hypothesis.given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 3),
                          distinct=st.sampled_from([0, 2, 40, 400]),
                          cover=st.sampled_from([0.0, 0.5, 1.0]),
                          mode=st.sampled_from(list(CombineMode)))
        def check(seed, n, distinct, cover, mode):
            rng = np.random.default_rng(seed)
            grid = GridSpec(0, 0, 10, 30, 30)
            mask = rng.random(grid.shape) < cover
            rasters = random_score_rasters(rng, grid, mask, n, distinct)
            weights = rng.random(n) + 0.01
            weights = (weights / weights.sum()).tolist()
            got = combine(rasters, weights, mode)
            want = reference_combine(rasters, weights, mode)
            values = want.values
            assert np.array_equal(_bits(got.values), _bits(values))
            # each distinct in-area bit pattern once, ascending, and each used
            keys = _bits(got.table)
            assert keys.tolist() == sorted(set(_bits(values[mask]).tolist()))
            assert np.bincount(got.codes, minlength=len(keys)).all()
            assert got.codes.dtype == np.min_scalar_type(max(len(keys) - 1, 0))
            # a NaN score inside the mask is NODATA, null, and no point
            data = {"score_raster": {
                "values": np.where(np.isnan(values), None, values).tolist()}}
            assert "".join(esri_ascii_text(got)) == reference_esri_ascii_text(grid, values)
            assert "".join(report_json_text(data, got)) == json_text(data)
            assert ("".join(score_points_geojson(got))
                    == json_text(reference_score_points_geojson(want)))

        check()

    def test_more_than_256_scores_take_two_byte_codes(self):
        rng = np.random.default_rng(5)
        grid = GridSpec(0, 0, 10, 30, 30)
        rasters = random_score_rasters(rng, grid, full_mask(grid), 2, 400)
        got = combine(rasters, [0.25, 0.75], CombineMode.WEIGHTED_SUM)
        want = reference_combine(rasters, [0.25, 0.75], CombineMode.WEIGHTED_SUM)
        assert len(got.table) > 256 and got.codes.dtype == np.uint16
        assert np.array_equal(_bits(got.values), _bits(want.values))

import json
import math
import random

import numpy as np
import pytest

from branchsite.criteria import (
    Band,
    CriterionSpec,
    ScoreScheme,
    SuitabilityClass,
    classify,
    score,
    validate_spec,
)
from branchsite.errors import BranchSiteError, InputError
from branchsite.geo import (
    Point,
    Polygon,
    planar_distance,
    point_in_polygon,
    points_in_polygon,
)
from branchsite.overlay import (
    CombineMode,
    GridSpec,
    ScoreRaster,
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
    read_esri_ascii,
    reference_build_mask,
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


def make_raster(grid, cid, cell_scores, mask=None):
    values = np.array(cell_scores, dtype=float)
    m = full_mask(grid) if mask is None else mask
    values = values.copy()
    values[~m] = np.nan
    return SuitabilityRaster(grid, cid, values, m)


class TestRasterizeDistance:
    def test_cell_on_feature_point_scores_high(self):
        grid = GridSpec(0, 0, 100, 4, 4)
        hospital = grid.cell_center(2, 1)
        raster = rasterize(MEDICINE, [hospital], grid, SCHEME)
        assert raster.values[2, 1] == 0.6

    def test_cell_400m_from_business_scores_zero(self):
        grid = GridSpec(0, 0, 100, 10, 1)
        # feature at the center of column 0; column 4 center is 400 m away
        raster = rasterize(BUSINESS, [grid.cell_center(0, 0)], grid, SCHEME)
        assert raster.values[0, 4] == 0.0
        assert raster.values[0, 2] == 0.4  # 200 m -> suitable

    def test_matches_per_cell_linear_scan_oracle(self):
        rng = random.Random(41)
        grid = GridSpec(-250.0, 130.0, 37.5, 20, 20)
        points = [Point(rng.uniform(-300, 600), rng.uniform(0, 1000)) for _ in range(5)]
        raster = rasterize(MEDICINE, points, grid, SCHEME)
        for row in range(grid.nrows):
            for col in range(grid.ncols):
                center = grid.cell_center(row, col)
                nearest = min(planar_distance(center, p) for p in points)
                want = score(classify(MEDICINE, nearest), SCHEME)
                assert raster.values[row, col] == want

    def test_insertion_order_irrelevant(self):
        rng = random.Random(43)
        grid = GridSpec(0, 0, 50, 15, 15)
        points = [Point(rng.uniform(0, 800), rng.uniform(0, 800)) for _ in range(12)]
        a = rasterize(MEDICINE, points, grid, SCHEME)
        shuffled = points[:]
        rng.shuffle(shuffled)
        b = rasterize(MEDICINE, shuffled, grid, SCHEME)
        assert np.array_equal(a.values, b.values)

    def test_empty_layer_rejected(self):
        grid = GridSpec(0, 0, 100, 2, 2)
        with pytest.raises(InputError, match="empty feature layer"):
            rasterize(MEDICINE, [], grid, SCHEME)

    def test_masked_cells_carry_no_score(self):
        grid = GridSpec(0, 0, 100, 3, 3)
        mask = full_mask(grid)
        mask[0, 0] = False
        raster = rasterize(MEDICINE, [grid.cell_center(1, 1)], grid, SCHEME, mask=mask)
        assert math.isnan(raster.values[0, 0])


class TestRasterizeZones:
    def test_island_zone_beats_base_zone(self):
        grid = GridSpec(0, 0, 100, 4, 4)
        base = Polygon.from_coords([(0, 0), (400, 0), (400, 400), (0, 400)])
        island = Polygon.from_coords([(100, 100), (200, 100), (200, 200), (100, 200)])
        zones = [(base, "Middle"), (island, "High")]
        raster = rasterize(INCOME, zones, grid, SCHEME)
        assert raster.values[1, 1] == 0.6  # inside the island
        assert raster.values[3, 3] == 0.4  # base only
        # zone order must not matter: the smaller polygon wins
        flipped = rasterize(INCOME, list(reversed(zones)), grid, SCHEME)
        assert np.array_equal(raster.values, flipped.values)

    def test_uncovered_cell_named_in_error(self):
        grid = GridSpec(0, 0, 100, 4, 4)
        small = Polygon.from_coords([(0, 0), (200, 0), (200, 200), (0, 200)])
        with pytest.raises(InputError, match=r"row=0, col=2"):
            rasterize(INCOME, [(small, "High")], grid, SCHEME)

    def test_density_zones_classify_numeric_attribute(self):
        density = validate_spec(CriterionSpec(
            id="population_density", kind="density", direction="far_better",
            bands=(Band(500, None, HIGH), Band(200, 500, SUIT), Band(0, 200, NON)),
        ))
        grid = GridSpec(0, 0, 100, 2, 2)
        left = Polygon.from_coords([(0, 0), (100, 0), (100, 200), (0, 200)])
        right = Polygon.from_coords([(100, 0), (200, 0), (200, 200), (100, 200)])
        raster = rasterize(density, [(left, 650), (right, 120)], grid, SCHEME)
        assert raster.values[0, 0] == 0.6
        assert raster.values[0, 1] == 0.0


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
        for row in range(5):
            for col in range(7):
                c = grid.cell_center(row, col)
                assert xs[col] == c.x
                assert ys[row] == c.y


class TestGeodesicRasterize:
    def test_matches_scalar_kernel(self):
        spec = validate_spec(CriterionSpec(
            id="clinic", kind="distance", direction="near_better",
            bands=(Band(0, 500, HIGH), Band(500, 2000, SUIT), Band(2000, None, NON)),
        ))
        grid = GridSpec(51.60, 32.60, 0.01, 6, 6)  # degrees in geodesic mode
        points = [Point(51.63, 32.62), Point(51.61, 32.64)]
        raster = rasterize(spec, points, grid, SCHEME, mode="geodesic")
        from branchsite.geo import geodesic_distance
        from branchsite.criteria import classify as cls_fn
        for row in range(6):
            for col in range(6):
                center = grid.cell_center(row, col)
                raw = min(geodesic_distance(center, p) for p in points)
                want = score(cls_fn(spec, raw), SCHEME)
                assert raster.values[row, col] == want


class TestBuildMask:
    def test_matches_scalar_point_in_polygon(self):
        rng = random.Random(47)
        grid = GridSpec(-100, -100, 35, 12, 12)
        polys = []
        for _ in range(3):
            cx, cy = rng.uniform(-50, 300), rng.uniform(-50, 300)
            k = rng.randint(5, 9)
            radii = [rng.uniform(40, 160) for _ in range(k)]
            polys.append(Polygon.from_coords([
                (cx + r * math.cos(2 * math.pi * i / k),
                 cy + r * math.sin(2 * math.pi * i / k))
                for i, r in enumerate(radii)
            ]))
        mask = build_mask(grid, polys)
        for row in range(grid.nrows):
            for col in range(grid.ncols):
                center = grid.cell_center(row, col)
                want = any(point_in_polygon(center, p) for p in polys)
                assert mask[row, col] == want

    def test_bulk_pip_boundary_inclusive(self):
        poly = Polygon.from_coords([(0, 0), (10, 0), (10, 10), (0, 10)])
        xs = np.array([5.0, 0.0, 20.0, 10.0])
        ys = np.array([0.0, 5.0, 5.0, 10.0])
        got = points_in_polygon(xs, ys, poly)
        assert got.tolist() == [True, True, False, True]


def rect(x0, y0, x1, y1, holes=()):
    return Polygon.from_coords([(x0, y0), (x1, y0), (x1, y1), (x0, y1)], holes)


def _outcome(fn, *args, **kwargs):
    """The function's result, or the type and text of the error it raised."""
    try:
        return fn(*args, **kwargs)
    except BranchSiteError as exc:
        return type(exc), str(exc)


def _bits(values):
    return np.ascontiguousarray(values).view(np.int64)


def _assert_kernels_match_reference(grid, demand, zones, points, mode="planar",
                                    distance_spec=MEDICINE):
    """build_mask and rasterize give the full-grid references' arrays, or
    their errors; ``demand=None`` rasterizes without a mask."""
    mask = None
    if demand is not None:
        mask = build_mask(grid, demand)
        assert np.array_equal(mask, reference_build_mask(grid, demand))
    for spec, features in ((INCOME, zones), (distance_spec, points)):
        got = _outcome(rasterize, spec, features, grid, SCHEME, mask=mask, mode=mode)
        want = _outcome(reference_rasterize, spec, features, grid, SCHEME,
                        mask=mask, mode=mode)
        if isinstance(want, tuple):
            assert got == want
            continue
        assert np.array_equal(_bits(got.values), _bits(want.values))
        assert np.array_equal(got.mask, want.mask)


# 10 x 8 cells of 10 m: centers on x = 5, 15, ..., 95 and y = 5, 15, ..., 75.
KERNEL_GRID = GridSpec(0, 0, 10, 10, 8)
KERNEL_POINTS = [Point(12.5, 33.0), Point(95.0, 75.0), Point(-40.0, 10.0)]
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
        demand=[rect(15, 15, 55, 45), Polygon.from_coords([(5, 5), (65, 5), (5, 65)]),
                Polygon.from_coords([(60, 0), (100, 0), (80, 45)])],
        zones=[(Polygon.from_coords([(5, 5), (95, 5), (95, 75), (5, 75)]), "Low"),
               (Polygon.from_coords([(5, 5), (65, 5), (5, 65)]), "High"),
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


class TestMaskedKernelsMatchReference:
    """The masked kernels give the full-grid kernels' arrays bit for bit."""

    @pytest.mark.parametrize("case", sorted(KERNEL_CASES))
    def test_named_cases(self, case):
        _assert_kernels_match_reference(KERNEL_GRID, points=KERNEL_POINTS,
                                        **KERNEL_CASES[case])

    def test_geodesic(self):
        grid = GridSpec(51.60, 32.60, 0.004, 9, 7)
        demand = [rect(51.61, 32.605, 51.628, 32.63),
                  Polygon.from_coords([(51.62, 32.60), (51.64, 32.61), (51.62, 32.628)])]
        zones = [(rect(51.59, 32.59, 51.65, 32.64), "Middle"),
                 (rect(51.614, 32.61, 51.626, 32.62), "High")]
        points = [Point(51.63, 32.62), Point(51.61, 32.64)]
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
            return Polygon.from_coords(xy)

        @hypothesis.settings(max_examples=200, deadline=None)
        @hypothesis.given(
            ncols=st.integers(1, 8), nrows=st.integers(1, 8),
            cell_size=st.sampled_from([2.5, 5.0]),
            demand=st.one_of(st.none(), st.lists(polygons(), min_size=1, max_size=3)),
            zones=st.lists(st.tuples(polygons(), st.sampled_from(["High", "Middle", "Low"])),
                           min_size=1, max_size=4),
            base=st.booleans(),
            points=st.lists(st.builds(Point, coord, coord), min_size=1, max_size=3))
        def check(ncols, nrows, cell_size, demand, zones, base, points):
            grid = GridSpec(0.0, 0.0, cell_size, ncols, nrows)
            if base:  # a zone under everything, so most draws score every cell
                zones = zones + [(rect(-20, -20, 60, 60), "Low")]
            _assert_kernels_match_reference(grid, demand, zones, points)

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


class TestExports:
    def test_esri_ascii_round_trip(self, tmp_path):
        grid = GridSpec(0, 0, 100, 3, 2)
        mask = full_mask(grid)
        mask[1, 2] = False
        r = make_raster(grid, "a", [[0.6, 0.4, 0.0], [0.4, 0.6, 0.6]], mask)
        path = tmp_path / "r.asc"
        path.write_text(esri_ascii_text(r.grid, r.values))
        grid2, values = read_esri_ascii(path)
        assert grid2 == grid
        assert np.array_equal(values, r.values, equal_nan=True)

    def test_esri_ascii_bytes_deterministic(self):
        grid = GridSpec(10.5, -3.25, 12.5, 3, 3)
        cells = [[0.6, 0.4, 0.0], [0.0, 0.4, 0.6], [0.4, 0.4, 0.4]]
        a = esri_ascii_text(grid, make_raster(grid, "a", cells).values)
        b = esri_ascii_text(grid, make_raster(grid, "a", cells).values)
        assert a == b
        assert a.startswith("NCOLS 3\nNROWS 3\nXLLCORNER 10.5\n")

    def test_score_points_geojson_skips_masked(self):
        grid = GridSpec(0, 0, 100, 2, 1)
        mask = np.array([[True, False]])
        r = make_raster(grid, "a", [[0.6, 0.4]], mask)
        gj = json.loads(score_points_geojson(r))
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
}
FORMATTER_METAS = [None, {"config_digest": "abc", "mode": "planar"},
                   {"mode": "g\u00e9od\u00e9sique \u0627\u0635\u0641\u0647\u0627\u0646",
                    "zz": ["\u00fc", 1]},
                   # the text each splice anchors on, inside string values
                   {"config_digest": '\n  "features": []',
                    "mode": '\n  "score_raster": {\n    "values": []'}]


def _score_raster(grid, cells):
    values = np.array(cells, dtype=float)
    return ScoreRaster(grid, values, ~np.isnan(values), CombineMode.WEIGHTED_SUM)


def _assert_formatters_match_reference(raster, meta):
    assert (esri_ascii_text(raster.grid, raster.values)
            == reference_esri_ascii_text(raster.grid, raster.values))
    assert (score_points_geojson(raster, meta=meta)
            == json_text(reference_score_points_geojson(raster, meta=meta)))
    # a run report holds the raster as rows of floats with NaN as None
    values = np.where(np.isnan(raster.values), None, raster.values).tolist()
    data = {**(meta or {}), "score_raster": {"values": values}, "p_max": 3}
    assert report_json_text(data, raster) == json_text(data)


class TestFormattersMatchReference:
    """The array formatters give the per-cell loops' bytes exactly."""

    @pytest.mark.parametrize("meta", FORMATTER_METAS)
    @pytest.mark.parametrize("case", sorted(FORMATTER_CASES))
    def test_named_rasters(self, case, meta):
        grid, cells = FORMATTER_CASES[case]
        _assert_formatters_match_reference(_score_raster(grid, cells), meta)

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
            raster = _score_raster(grid, np.reshape(cells, (nrows, ncols)))
            _assert_formatters_match_reference(raster, meta)

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
            _assert_formatters_match_reference(
                _score_raster(grid, [palette[k] for k in picks]), meta)

        check()

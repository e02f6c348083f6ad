"""The demo project's construction guarantees, re-derived from the constants
of ``branchsite.fixture``: the seed cells' spacing, their clearance from
existing branches and competitors, their demand areas, and the 90/96/100
coverage optima over the 23 merged candidates."""

import itertools

from branchsite.fixture import (
    ALL_PEAKS,
    COMPETITOR_OFFSET_M,
    COVERAGE_RADIUS_M,
    DEMAND_AREAS,
    EXISTING_BRANCHES,
    MIN_SEPARATION_M,
)
from branchsite.geo import Point, planar_distance

PEAKS = [Point(x, y) for x, y in ALL_PEAKS]


def test_seed_cells_are_separated():
    for i, a in enumerate(PEAKS):
        for b in PEAKS[i + 1:]:
            d = planar_distance(a, b)
            assert d >= MIN_SEPARATION_M, f"seed cells {i} only {d:.0f} m apart"


def test_no_existing_branch_within_1_km_of_a_seed_cell():
    for _, ex, ey in EXISTING_BRANCHES:
        for p in PEAKS:
            assert planar_distance(Point(ex, ey), p) >= 1000.0


def test_one_competitor_100_to_200_m_from_each_seed_cell():
    competitors = [(x + COMPETITOR_OFFSET_M, y) for x, y in ALL_PEAKS]
    for p in PEAKS:
        dists = sorted(planar_distance(p, Point(cx, cy)) for cx, cy in competitors)
        assert 100.0 < dists[0] < 200.0, "nearest competitor outside the 100..200 m band"
        assert not (len(dists) > 1 and dists[1] <= 200.0), \
            "second competitor too close to a seed cell"


def test_every_seed_cell_lies_in_a_demand_area():
    for px, py in ALL_PEAKS:
        assert any(
            x0 <= px <= x1 and y0 <= py <= y1
            for _aid, x0, y0, x1, y1, _pop in DEMAND_AREAS
        ), f"seed cell ({px}, {py}) outside every demand area"


def test_coverage_optima_by_full_enumeration():
    # over the 23 candidates: 14 seed cells and 9 existing branches
    centroids = {
        aid: ((x0 + x1) / 2.0, (y0 + y1) / 2.0)
        for aid, x0, y0, x1, y1, _pop in DEMAND_AREAS
    }
    pops = {aid: pop for aid, _x0, _y0, _x1, _y1, pop in DEMAND_AREAS}
    sites = PEAKS + [Point(x, y) for _id, x, y in EXISTING_BRANCHES]
    assert len(sites) == 23
    cover_sets = [
        frozenset(
            aid for aid, (cx, cy) in centroids.items()
            if planar_distance(site, Point(cx, cy)) <= COVERAGE_RADIUS_M
        )
        for site in sites
    ]
    total = sum(pops.values())
    expected = {1: 90.0, 2: 96.0, 3: 100.0}
    for p, want_pct in expected.items():
        best = 0
        for combo in itertools.combinations(range(len(sites)), p):
            z = sum(pops[a] for a in frozenset().union(*(cover_sets[j] for j in combo)))
            best = max(best, z)
        got_pct = 100.0 * best / total
        assert got_pct == want_pct, \
            f"enumeration gives {got_pct}% coverage for p={p}, expected {want_pct}%"

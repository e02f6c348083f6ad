"""The demo project's construction guarantees, re-derived from the constants
of ``branchsite.fixture``: the seed cells' spacing, their clearance from
existing branches and competitors, their demand areas, and the 90/96/100
coverage optima over the 23 merged candidates; the bytes of the files the
fixture writes at other seeds; and that it writes them all or nothing."""

import hashlib
import itertools
import math
import random

import pytest

from branchsite import cli
from branchsite.fixture import (
    ALL_PEAKS,
    CITY_BOUNDS,
    COMPETITOR_OFFSET_M,
    COVERAGE_RADIUS_M,
    DEMAND_AREAS,
    EXISTING_BRANCHES,
    MIN_SEPARATION_M,
    _jitter,
    write_fixture,
)

from helpers import distance


def test_seed_cells_are_separated():
    for i, a in enumerate(ALL_PEAKS):
        for b in ALL_PEAKS[i + 1:]:
            d = distance(a, b)
            assert d >= MIN_SEPARATION_M, f"seed cells {i} only {d:.0f} m apart"


def test_no_existing_branch_within_1_km_of_a_seed_cell():
    for _, ex, ey in EXISTING_BRANCHES:
        for p in ALL_PEAKS:
            assert distance((ex, ey), p) >= 1000.0


def test_one_competitor_100_to_200_m_from_each_seed_cell():
    competitors = [(x + COMPETITOR_OFFSET_M, y) for x, y in ALL_PEAKS]
    for p in ALL_PEAKS:
        dists = sorted(distance(p, c) for c in competitors)
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
    sites = list(ALL_PEAKS) + [(x, y) for _id, x, y in EXISTING_BRANCHES]
    assert len(sites) == 23
    cover_sets = [
        frozenset(
            aid for aid, centroid in centroids.items()
            if distance(site, centroid) <= COVERAGE_RADIUS_M
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

def reference_jitter(rng, pts, clearance_from=(), clearance=0.0):
    """``fixture._jitter`` as it was written with a scalar distance per
    protected location, in Python floats."""
    out = []
    x0, y0, x1, y1 = CITY_BOUNDS
    for px, py in pts:
        for _ in range(100):
            jx = px + rng.uniform(-120.0, 120.0)
            jy = py + rng.uniform(-120.0, 120.0)
            jx = min(max(jx, x0 + 10.0), x1 - 10.0)
            jy = min(max(jy, y0 + 10.0), y1 - 10.0)
            if all(math.sqrt((jx - cx) * (jx - cx) + (jy - cy) * (jy - cy)) >= clearance
                   for cx, cy in clearance_from):
                out.append((jx, jy))
                break
        else:
            out.append((px, py))
    return out


@pytest.mark.parametrize("clearance", [0.0, 100.0, 160.0, 1e4])
def test_jitter_matches_scalar_reference(clearance):
    """Jittering the seed cells clear of themselves rejects many draws (at
    1e4 m every draw, so each point stays where it was); the picks and the
    random stream match the scalar loop's."""
    got_rng, want_rng = random.Random(11), random.Random(11)
    got = _jitter(got_rng, ALL_PEAKS, clearance_from=ALL_PEAKS, clearance=clearance)
    assert got == reference_jitter(want_rng, ALL_PEAKS, ALL_PEAKS, clearance)
    assert got_rng.random() == want_rng.random()
    assert all(distance(q, c) >= clearance for q, p in zip(got, ALL_PEAKS) if q != p
               for c in ALL_PEAKS)


# sha256 of every file ``write_fixture`` writes at seeds 3 and 17, taken
# while the jitter measured its clearance with a scalar distance. The seed
# moves the cosmetic points only, so the layers it does not jitter match
# across seeds.
FIXTURE_DIGESTS = {
    3: {
        "layers/business_centers.geojson":
            "ed98754d53d953ce66e3e184e22446b9847895253b66552e36418ed7e5d31537",
        "layers/competitor_branches.geojson":
            "a72f0f0839e10b4609446e04d9ab885e920879db08d1adb97140ef4c2acb952a",
        "layers/cost_zones.geojson":
            "088e0a75db51dacd19baf99733d3260faf57a74947d6584c493c3b819abe4764",
        "layers/demand_areas.geojson":
            "2cf514eb73bce67e5ac5ebc83706b244b4719e73158143a7ffa700c8be040694",
        "layers/density_zones.geojson":
            "a7042661b00bbdd5f08faf4b585cdad9578f072140d2407ab044fcd095eefcc0",
        "layers/hotels.geojson":
            "9c5680f675df2a5558f7e079231070520859744d35cff382dee39d6b21e52bb1",
        "layers/income_zones.geojson":
            "d48f0253db17a5b94317932e560edee4a1742b7e5e4a4e6afcd9fff1ab7f8bc1",
        "layers/main_street.geojson":
            "52406e3a0c1bd6396c2462ec5dc8b95953e82b5e4baa0d4914b23b87d10cf2ac",
        "layers/medicine_centers.geojson":
            "5a7d344399fccc06bc3f236128c8df7d3adbb18427603c43cb7817e5f57ec3a7",
        "layers/offices.geojson":
            "27040d9e8beec1b1e0c495a6c901d29d6a36a0d3dd5eb69e31a32713adc39c81",
        "layers/own_branches.geojson":
            "02f32491e42a019c706056bd22d9f00729539be8bc9bdf7967f136d2acbd9953",
        "layers/parking.geojson":
            "9b4b139247a7eb35715d486ecf239ee5ec12c202777034a6952d1675b4cf27d8",
        "layers/transit_stops.geojson":
            "ffe1b85bd8d5d09152229f39f9fb38efae2ddcbf97a542c6340bb83df4e76e94",
        "matrices/goal.csv":
            "de067293974b365767b2d3dc4e30cec2059ca647258f38eca52ab5cfb699a37b",
        "matrices/population_profile.csv":
            "03dc59c0c1de2e6e468c401c05439d7735776056cff9aec3d41853146e9dc070",
        "matrices/transport_access.csv":
            "d215bdcdc1753e387231689230556b27096846b180bc1ca925e6ad7a529c24df",
        "matrices/urban_access.csv":
            "1907fa98908c86d91ab1034cf2c652d92cdfcae29cef98764356a9b1e82f4333",
        "project.json":
            "1099ffc7b1a7e3499c6cedf9f7c21c93a35a301ebcc3e5eb086a287cd5dbdbe2",
    },
    17: {
        "layers/business_centers.geojson":
            "f1ef8a4df24a7bf0e193daa3d7e53645662799bdd7bfb08448fac4d006c018bb",
        "layers/competitor_branches.geojson":
            "556e0bae71916c4aa812ea795e7c8dbd4588208c3a608a936a3ace7aff10efbf",
        "layers/cost_zones.geojson":
            "088e0a75db51dacd19baf99733d3260faf57a74947d6584c493c3b819abe4764",
        "layers/demand_areas.geojson":
            "2cf514eb73bce67e5ac5ebc83706b244b4719e73158143a7ffa700c8be040694",
        "layers/density_zones.geojson":
            "a7042661b00bbdd5f08faf4b585cdad9578f072140d2407ab044fcd095eefcc0",
        "layers/hotels.geojson":
            "00e013be9c1528a95aa653ce467ccb1f7abad5cc50945812a75e11b091bf49ce",
        "layers/income_zones.geojson":
            "d48f0253db17a5b94317932e560edee4a1742b7e5e4a4e6afcd9fff1ab7f8bc1",
        "layers/main_street.geojson":
            "52406e3a0c1bd6396c2462ec5dc8b95953e82b5e4baa0d4914b23b87d10cf2ac",
        "layers/medicine_centers.geojson":
            "170705764b91bb81cafc1d9e3a73166a623d9512e07e1c01ef72f8985ae74364",
        "layers/offices.geojson":
            "fc7fdb053bdcdd97aeba5dec173b5c5ccd0a63d97dfeeec45e992a0aedefe8e0",
        "layers/own_branches.geojson":
            "02f32491e42a019c706056bd22d9f00729539be8bc9bdf7967f136d2acbd9953",
        "layers/parking.geojson":
            "5be693dbd930e2a9a0ca75a88ae448221fedc624821f304ce19810822e30d46d",
        "layers/transit_stops.geojson":
            "7214f5fb9ebc5c38e174ee06d85c4c10dd754fa93079728b7d57809bc86649ff",
        "matrices/goal.csv":
            "de067293974b365767b2d3dc4e30cec2059ca647258f38eca52ab5cfb699a37b",
        "matrices/population_profile.csv":
            "03dc59c0c1de2e6e468c401c05439d7735776056cff9aec3d41853146e9dc070",
        "matrices/transport_access.csv":
            "d215bdcdc1753e387231689230556b27096846b180bc1ca925e6ad7a529c24df",
        "matrices/urban_access.csv":
            "1907fa98908c86d91ab1034cf2c652d92cdfcae29cef98764356a9b1e82f4333",
        "project.json":
            "1099ffc7b1a7e3499c6cedf9f7c21c93a35a301ebcc3e5eb086a287cd5dbdbe2",
    },
}


@pytest.mark.parametrize("seed", sorted(FIXTURE_DIGESTS))
def test_seeded_fixture_matches_golden_digests(tmp_path, seed):
    write_fixture(tmp_path, seed=seed)
    got = {str(p.relative_to(tmp_path)): hashlib.sha256(p.read_bytes()).hexdigest()
           for p in tmp_path.rglob("*") if p.is_file()}
    assert got == FIXTURE_DIGESTS[seed]


def test_fixture_replaces_no_file_when_a_later_target_is_a_directory(tmp_path):
    write_fixture(tmp_path)
    hotels = tmp_path / "layers" / "hotels.geojson"
    before = hotels.read_bytes()
    (tmp_path / "project.json").unlink()
    (tmp_path / "project.json").mkdir()
    assert cli.main(["--seed", "3", "--out", str(tmp_path), "fixture"]) == 4
    assert hotels.read_bytes() == before
    assert not list(tmp_path.rglob("*.tmp"))

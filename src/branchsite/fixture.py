"""Bundled synthetic demo project ("isfahan20").

A planar city of 20 demand areas in three clusters (a 14-area downtown plus
small north and south modules, far enough apart that no 2,500 m coverage
disk reaches two clusters), 12 criterion layers, consistent comparison
matrices, and 9 existing branches. The layout is constructed so that

  * exactly 14 cells clear the extraction threshold (5 scoring 0.6, then 5,
    then 4 at two lower levels, giving the 5/5/4 priority tiers), and
  * the maximal-coverage optima over the 23 merged candidates are exactly
    90% / 96% / 100% of the population for p = 1 / 2 / 3.

``tests/test_fixture.py`` re-derives those facts from the constants here, so
a drifting constant fails a test rather than skewing downstream results. The
seed only jitters cosmetic extra amenity points; the load-bearing geometry is
fixed.
"""

from __future__ import annotations

import random
from pathlib import Path

import numpy as np

from .fields import json_text, write_artifacts
from .geo import distances_to

GRID = {"origin": [0.0, 0.0], "cell_size": 100.0, "ncols": 60, "nrows": 195}

COVERAGE_RADIUS_M = 2500.0
MIN_SCORE = 0.55
MIN_SEPARATION_M = 400.0
MAX_PROPOSED = 14
P_MAX = 3

# demand areas: (id, x0, y0, x1, y1, population); populations total 100,000
DEMAND_AREAS = (
    # south module
    ("d01", 0, 0, 1500, 1500, 1500),
    ("d02", 1500, 0, 3000, 1500, 1400),
    ("d03", 3000, 0, 4500, 1500, 1100),
    # downtown, south row
    ("d04", 0, 7500, 960, 9000, 8200),
    ("d05", 960, 7500, 1920, 9000, 7400),
    ("d06", 1920, 7500, 2880, 9000, 9600),
    ("d07", 2880, 7500, 3840, 9000, 6800),
    ("d08", 3840, 7500, 4800, 9000, 5600),
    # downtown, middle row
    ("d09", 0, 9000, 960, 10500, 6900),
    ("d10", 960, 9000, 1920, 10500, 8800),
    ("d11", 1920, 9000, 2880, 10500, 7300),
    ("d12", 2880, 9000, 3840, 10500, 6100),
    ("d13", 3840, 9000, 4800, 10500, 5200),
    # downtown, north row
    ("d14", 0, 10500, 1200, 12000, 4700),
    ("d15", 1200, 10500, 2400, 12000, 5600),
    ("d16", 2400, 10500, 3600, 12000, 4200),
    ("d17", 3600, 10500, 4800, 12000, 3600),
    # north module
    ("d18", 0, 18000, 1500, 19500, 2300),
    ("d19", 1500, 18000, 3000, 19500, 2100),
    ("d20", 3000, 18000, 4500, 19500, 1600),
)

# candidate seed cells by surface level; all coordinates are cell centers.
# level 1 scores 0.6 (every criterion high suitable); level 2 drops the cost
# criterion to suitable; level 3 additionally drops income to suitable.
PEAKS_L1 = ((2250.0, 750.0), (1050.0, 8250.0), (3650.0, 8250.0),
            (2350.0, 9750.0), (2250.0, 18750.0))
PEAKS_L2 = ((3750.0, 750.0), (450.0, 9750.0), (1050.0, 11250.0),
            (3650.0, 11250.0), (750.0, 18750.0))
PEAKS_L3 = ((2350.0, 8250.0), (4250.0, 8250.0), (4250.0, 9750.0),
            (2350.0, 11250.0))
ALL_PEAKS = PEAKS_L1 + PEAKS_L2 + PEAKS_L3

EXISTING_BRANCHES = (
    ("e01", 5750.0, 9750.0),
    ("e02", 5750.0, 8250.0),
    ("e03", 5750.0, 11250.0),
    ("e04", 250.0, 7550.0),
    ("e05", 250.0, 11950.0),
    ("e06", 4650.0, 18750.0),
    ("e07", 250.0, 50.0),
    ("e08", 3050.0, 5050.0),
    ("e09", 2950.0, 14850.0),
)

# street axes as point chains (spacing = one cell); every peak lies on one
STREET_ROWS = (  # (y, x_start, x_end)
    (750.0, 50.0, 4450.0),
    (8250.0, 50.0, 4750.0),
    (9750.0, 50.0, 4750.0),
    (11250.0, 50.0, 4750.0),
    (18750.0, 50.0, 4450.0),
)
STREET_COLS = ((2250.0, 50.0, 19450.0),)  # the north-south arterial

# cosmetic extra amenity points; jittered by the seed, never load-bearing
EXTRA_POINTS = {
    "business_centers": ((5750, 9750), (5650, 8350), (5750, 11150),
                         (2950, 5050), (2950, 14850), (950, 2250)),
    "medicine_centers": ((5650, 9850), (250, 7650), (3050, 5150), (2850, 14750)),
    "offices": ((5750, 9650), (5550, 8250), (3150, 5050), (2250, 2950), (3050, 14850)),
    "hotels": ((2950, 4950), (3050, 14950), (5650, 9750)),
    "parking": ((5850, 9750), (250, 7450), (3050, 4950), (2250, 15050), (5550, 11250)),
    "transit_stops": ((2250, 2550), (2250, 4550), (2250, 6550), (2250, 12550),
                      (2250, 14550), (2250, 16550), (5750, 9850), (5650, 11250)),
    "competitor_branches": ((3050, 4850), (2850, 15050), (450, 2250), (5750, 9550)),
}

COMPETITOR_OFFSET_M = 150.0  # competitor planted east of each seed cell
EXTRA_COMPETITOR_CLEARANCE_M = 300.0

# hierarchy target weights (consistent matrices are generated from these)
CLUSTER_WEIGHTS = {
    "population_profile": 0.30,
    "acquisition_cost": 0.05,
    "urban_access": 0.30,
    "transport_access": 0.20,
    "competition": 0.07,
    "own_network": 0.08,
}
LOCAL_WEIGHTS = {
    "population_profile": (("population_density", 2.0 / 3.0), ("income_level", 1.0 / 3.0)),
    "urban_access": (("medicine_center", 0.30), ("business_center", 0.25),
                     ("office_company", 0.20), ("parking", 0.15), ("hotel_tourism", 0.10)),
    "transport_access": (("main_street", 0.60), ("transit_stop", 0.40)),
}
SINGLE_CHILD_CLUSTERS = {
    "acquisition_cost": "building_cost",
    "competition": "competitor_branch",
    "own_network": "own_branch_distance",
}

CITY_BOUNDS = (0.0, 0.0, 6000.0, 19500.0)

DENSITY_HIGH_VALUE = 650
DENSITY_BASE_VALUE = 320


def _street_points():
    pts = []
    for y, x0, x1 in STREET_ROWS:
        x = x0
        while x <= x1:
            pts.append((x, y))
            x += 100.0
    for x, y0, y1 in STREET_COLS:
        y = y0
        while y <= y1:
            pts.append((x, y))
            y += 100.0
    return pts


def _jitter(rng: random.Random, pts, clearance_from=(), clearance=0.0):
    """Seeded jitter of cosmetic points, kept clear of protected locations."""
    out = []
    x0, y0, x1, y1 = CITY_BOUNDS
    cx, cy = np.array(clearance_from, dtype=float).reshape(-1, 2).T
    for px, py in pts:
        for _ in range(100):
            jx = px + rng.uniform(-120.0, 120.0)
            jy = py + rng.uniform(-120.0, 120.0)
            jx = min(max(jx, x0 + 10.0), x1 - 10.0)
            jy = min(max(jy, y0 + 10.0), y1 - 10.0)
            if (distances_to(cx, cy, jx, jy) >= clearance).all():
                out.append((jx, jy))
                break
        else:
            out.append((px, py))
    return out


def _point_feature(coords, props=None):
    return {
        "type": "Feature",
        "geometry": {"type": "Point", "coordinates": [float(coords[0]), float(coords[1])]},
        "properties": props or {},
    }


def _rect_feature(x0, y0, x1, y1, props):
    ring = [[float(x0), float(y0)], [float(x1), float(y0)],
            [float(x1), float(y1)], [float(x0), float(y1)], [float(x0), float(y0)]]
    return {
        "type": "Feature",
        "geometry": {"type": "Polygon", "coordinates": [ring]},
        "properties": props,
    }


def _collection(features):
    return {"type": "FeatureCollection", "features": features}


def _island(px, py, level):
    return _rect_feature(px - 50.0, py - 50.0, px + 50.0, py + 50.0, {"level": level})


def _matrix_csv(items, weights) -> str:
    lines = [",".join(items)]
    for wi in weights:
        lines.append(",".join(repr(wi / wj) for wj in weights))
    return "\n".join(lines) + "\n"


def _near_better_bands(high_to, suit_to):
    return [
        {"min": 0, "max": high_to, "class": "high"},
        {"min": high_to, "max": suit_to, "class": "suitable"},
        {"min": suit_to, "max": None, "class": "non"},
    ]


def _criteria_config():
    return [
        {"id": "main_street", "kind": "distance", "direction": "near_better",
         "layer": "layers/main_street.geojson",
         "bands": _near_better_bands(100, 500)},
        {"id": "business_center", "kind": "distance", "direction": "near_better",
         "layer": "layers/business_centers.geojson",
         "bands": _near_better_bands(100, 250)},
        {"id": "hotel_tourism", "kind": "distance", "direction": "near_better",
         "layer": "layers/hotels.geojson",
         "bands": _near_better_bands(1000, 3000)},
        {"id": "office_company", "kind": "distance", "direction": "near_better",
         "layer": "layers/offices.geojson",
         "bands": [  # the stated table overlaps on 200..250; normalization repairs it
             {"min": 0, "max": 250, "class": "high"},
             {"min": 200, "max": 500, "class": "suitable"},
             {"min": 500, "max": None, "class": "non"},
         ]},
        {"id": "competitor_branch", "kind": "distance", "direction": "band",
         "layer": "layers/competitor_branches.geojson",
         "bands": [
             {"min": 100, "max": 200, "class": "high"},
             {"min": 200, "max": None, "class": "suitable"},
             {"min": 0, "max": 100, "class": "non"},
         ]},
        {"id": "own_branch_distance", "kind": "distance", "direction": "far_better",
         "layer": "layers/own_branches.geojson",
         "bands": [
             {"min": 1000, "max": None, "class": "high"},
             {"min": 500, "max": 1000, "class": "suitable"},
             {"min": 0, "max": 500, "class": "non"},
         ]},
        {"id": "income_level", "kind": "categorical",
         "layer": "layers/income_zones.geojson",
         "categories": {"High": "high", "Middle": "suitable", "Low": "non"}},
        {"id": "building_cost", "kind": "cost-level",
         "layer": "layers/cost_zones.geojson",
         "categories": {"Middle": "high", "High": "suitable", "Low": "non"}},
        {"id": "medicine_center", "kind": "distance", "direction": "near_better",
         "layer": "layers/medicine_centers.geojson",
         "bands": _near_better_bands(100, 500)},
        {"id": "population_density", "kind": "density", "direction": "far_better",
         "layer": "layers/density_zones.geojson",
         "bands": [
             {"min": 500, "max": None, "class": "high"},
             {"min": 200, "max": 500, "class": "suitable"},
             {"min": 0, "max": 200, "class": "non"},
         ]},
        {"id": "parking", "kind": "distance", "direction": "near_better",
         "layer": "layers/parking.geojson",
         "bands": _near_better_bands(500, 1500)},
        {"id": "transit_stop", "kind": "distance", "direction": "near_better",
         "layer": "layers/transit_stops.geojson",
         "bands": _near_better_bands(500, 1500)},
    ]


def _hierarchy_config():
    nodes = [{
        "id": "goal",
        "children": list(CLUSTER_WEIGHTS),
        "matrix": "matrices/goal.csv",
    }]
    for cluster, pairs in LOCAL_WEIGHTS.items():
        nodes.append({
            "id": cluster,
            "children": [cid for cid, _ in pairs],
            "matrix": f"matrices/{cluster}.csv",
        })
    for cluster, child in SINGLE_CHILD_CLUSTERS.items():
        nodes.append({"id": cluster, "children": [child], "matrix": None})
    return {"root": "goal", "cr_threshold": 0.1, "nodes": nodes}


def _project_config():
    return {
        "mode": "planar",
        "grid": dict(GRID),
        "scheme": {"high": 0.6, "mid": 0.4, "non": 0.0},
        "combine_mode": "weighted_geometric",
        "demand_areas": "layers/demand_areas.geojson",
        "existing_branches": "layers/own_branches.geojson",
        "criteria": _criteria_config(),
        "hierarchy": _hierarchy_config(),
        "extraction": {
            "min_score": MIN_SCORE,
            "min_separation": MIN_SEPARATION_M,
            "max_proposed": MAX_PROPOSED,
        },
        "standard": {"kind": "radius", "radius": COVERAGE_RADIUS_M},
        "p_max": P_MAX,
        "solver": "exact",
    }


def _fixture_files(seed: int):
    """The (name, text chunks) pairs of the demo project's files."""
    rng = random.Random(seed)
    peak_pts = [_point_feature(p) for p in ALL_PEAKS]

    def amenity_layer(name):
        extras = _jitter(rng, EXTRA_POINTS[name])
        return _collection(peak_pts + [_point_feature(p) for p in extras])

    competitors = [
        _point_feature((x + COMPETITOR_OFFSET_M, y)) for x, y in ALL_PEAKS
    ] + [
        _point_feature(p)
        for p in _jitter(rng, EXTRA_POINTS["competitor_branches"],
                         clearance_from=ALL_PEAKS,
                         clearance=EXTRA_COMPETITOR_CLEARANCE_M)
    ]

    files: dict[str, dict] = {
        "layers/main_street.geojson": _collection(
            [_point_feature(p) for p in _street_points()]),
        "layers/business_centers.geojson": amenity_layer("business_centers"),
        "layers/medicine_centers.geojson": amenity_layer("medicine_centers"),
        "layers/offices.geojson": amenity_layer("offices"),
        "layers/hotels.geojson": amenity_layer("hotels"),
        "layers/parking.geojson": amenity_layer("parking"),
        "layers/transit_stops.geojson": amenity_layer("transit_stops"),
        "layers/competitor_branches.geojson": _collection(competitors),
        "layers/own_branches.geojson": _collection([
            _point_feature((x, y), {"id": bid}) for bid, x, y in EXISTING_BRANCHES
        ]),
        "layers/income_zones.geojson": _collection(
            [_island(px, py, "High") for px, py in PEAKS_L1 + PEAKS_L2]
            + [_rect_feature(*CITY_BOUNDS, {"level": "Middle"})]),
        "layers/cost_zones.geojson": _collection(
            [_island(px, py, "Middle") for px, py in PEAKS_L1]
            + [_rect_feature(*CITY_BOUNDS, {"level": "High"})]),
        "layers/density_zones.geojson": _collection(
            [_island(px, py, DENSITY_HIGH_VALUE) for px, py in ALL_PEAKS]
            + [_rect_feature(*CITY_BOUNDS, {"level": DENSITY_BASE_VALUE})]),
        "layers/demand_areas.geojson": _collection([
            _rect_feature(x0, y0, x1, y1, {"id": aid, "population": pop})
            for aid, x0, y0, x1, y1, pop in DEMAND_AREAS
        ]),
    }

    for rel, payload in files.items():
        yield rel, [json_text(payload)]
    goal_items = list(CLUSTER_WEIGHTS)
    yield "matrices/goal.csv", [
        _matrix_csv(goal_items, [CLUSTER_WEIGHTS[c] for c in goal_items])]
    for cluster, pairs in LOCAL_WEIGHTS.items():
        yield f"matrices/{cluster}.csv", [
            _matrix_csv([cid for cid, _ in pairs], [w for _, w in pairs])]
    yield "project.json", [json_text(_project_config())]


def write_fixture(target_dir: str | Path, seed: int = 0) -> Path:
    """Write the demo project into target_dir, all or nothing, and return
    the config path."""
    return write_artifacts(target_dir, _fixture_files(seed))[-1]

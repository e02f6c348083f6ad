"""End-to-end pipeline over a small lon/lat project: distances via the
spherical kernel, thresholds still in meters."""

import json
import math
import shutil

import pytest

from branchsite.cli import main
from branchsite.errors import InputError
from branchsite.project import load_demand_layer, load_project, run_pipeline

from helpers import distance

# a ~2.2 km x 2.2 km patch around (51.66E, 32.64N); 0.002 deg cells
ORIGIN = (51.65, 32.63)
NCOLS = 12
NROWS = 10
CELL = 0.002


def rect(x0, y0, x1, y1):
    return [[[x0, y0], [x1, y0], [x1, y1], [x0, y1], [x0, y0]]]


def feature(geom_type, coords, props):
    return {"type": "Feature",
            "geometry": {"type": geom_type, "coordinates": coords},
            "properties": props}


def collection(features):
    return {"type": "FeatureCollection", "features": features}


@pytest.fixture(scope="module")
def geodesic_project(tmp_path_factory):
    base = tmp_path_factory.mktemp("geodesic")
    (base / "layers").mkdir()
    (base / "matrices").mkdir()

    x0, y0 = ORIGIN
    x1 = x0 + NCOLS * CELL
    y1 = y0 + NROWS * CELL
    mid_x = x0 + (NCOLS // 2) * CELL

    # two demand areas splitting the patch, populations 70/30
    (base / "layers" / "areas.geojson").write_text(json.dumps(collection([
        feature("Polygon", rect(x0, y0, mid_x, y1), {"id": "west", "population": 70}),
        feature("Polygon", rect(mid_x, y0, x1, y1), {"id": "east", "population": 30}),
    ])))

    # clinics: one point near the middle of each half
    west_pt = [x0 + 3 * CELL + CELL / 2, y0 + 5 * CELL + CELL / 2]
    east_pt = [x0 + 9 * CELL + CELL / 2, y0 + 4 * CELL + CELL / 2]
    (base / "layers" / "clinics.geojson").write_text(json.dumps(collection([
        feature("Point", west_pt, {}),
        feature("Point", east_pt, {}),
    ])))

    # zoning: east half High, west half Middle
    (base / "layers" / "zones.geojson").write_text(json.dumps(collection([
        feature("Polygon", rect(x0, y0, mid_x, y1), {"level": "Middle"}),
        feature("Polygon", rect(mid_x, y0, x1, y1), {"level": "High"}),
    ])))

    (base / "layers" / "branches.geojson").write_text(json.dumps(collection([
        feature("Point", [x0 + CELL / 2, y0 + CELL / 2], {"id": "b01"}),
    ])))

    (base / "matrices" / "root.csv").write_text(
        "clinic_distance,zone_level\n1.0,1.5\n" + repr(1 / 1.5) + ",1.0\n")

    config = {
        "mode": "geodesic",
        "grid": {"origin": [x0, y0], "cell_size": CELL,
                 "ncols": NCOLS, "nrows": NROWS},
        "scheme": {"high": 0.6, "mid": 0.4, "non": 0.0},
        "combine_mode": "weighted_sum",
        "demand_areas": "layers/areas.geojson",
        "existing_branches": "layers/branches.geojson",
        "criteria": [
            {"id": "clinic_distance", "kind": "distance", "direction": "near_better",
             "layer": "layers/clinics.geojson",
             "bands": [
                 {"min": 0, "max": 400, "class": "high"},
                 {"min": 400, "max": 1200, "class": "suitable"},
                 {"min": 1200, "max": None, "class": "non"},
             ]},
            {"id": "zone_level", "kind": "categorical",
             "layer": "layers/zones.geojson",
             "categories": {"High": "high", "Middle": "suitable", "Low": "non"}},
        ],
        "hierarchy": {"root": "goal", "cr_threshold": 0.1, "nodes": [
            {"id": "goal", "children": ["clinic_distance", "zone_level"],
             "matrix": "matrices/root.csv"},
        ]},
        "extraction": {"min_score": 0.5, "min_separation": 500.0, "max_proposed": 3},
        "standard": {"kind": "travel_time", "minutes": 4, "speed_kmh": 30},
        "p_max": 2,
        "solver": "exact",
    }
    path = base / "project.json"
    path.write_text(json.dumps(config, indent=2))
    return path


def test_geodesic_pipeline_runs_and_covers(geodesic_project):
    cfg = load_project(geodesic_project)
    assert cfg.mode == "geodesic"
    assert cfg.standard.effective_radius_m == 2000.0
    report = run_pipeline(cfg)
    data = report.data

    proposed = [c for c in data["candidates"] if c["origin"] == "proposed"]
    assert proposed, "extraction found no proposed sites"
    for a in proposed:
        for b in proposed:
            if a["id"] < b["id"]:
                d = distance(a["location"], b["location"], "geodesic")
                assert d >= 500.0

    # a 2 km standard spans the whole ~2 km patch from near-central sites
    rows = data["curve"]
    assert rows[-1]["coverage_pct"] == 100.0
    assert rows[0]["coverage_pct"] in (70.0, 100.0)

    # coverage matrix agrees with a direct haversine check
    inst = data["instance"]
    for i, area in enumerate(inst["areas"]):
        for j, cand in enumerate(inst["candidates"]):
            d = distance(area["centroid"], cand["location"], "geodesic")
            assert inst["matrix"][i][j] == int(d <= 2000.0)


def test_geodesic_rejects_out_of_range_layer(geodesic_project, tmp_path):
    base = geodesic_project.parent
    bad = base / "layers" / "bad.geojson"
    bad.write_text(json.dumps(collection([
        feature("Point", [200.0, 5.0], {}),
    ])))
    cfg = json.loads(geodesic_project.read_text())
    cfg["criteria"][0]["layer"] = "layers/bad.geojson"
    variant = base / "bad_project.json"
    variant.write_text(json.dumps(cfg))
    with pytest.raises(InputError, match="out of lon/lat range"):
        run_pipeline(load_project(variant))


@pytest.mark.parametrize("bad", ["vertex", "hole", "centroid"])
def test_geodesic_demand_layer_checks_every_position(tmp_path, bad):
    x0, y0 = ORIGIN
    ring = rect(x0, y0, x0 + 10 * CELL, y0 + 10 * CELL)
    props = {"population": 10}
    if bad == "vertex":
        ring[0][2] = [190.0, y0 + 10 * CELL]
    elif bad == "hole":
        ring.append([[x0 + CELL, y0 + CELL], [x0 + 2 * CELL, y0 + CELL], [x0 + CELL, 95.0]])
    else:
        props["centroid"] = [x0, -91.0]
    path = tmp_path / "areas.geojson"
    path.write_text(json.dumps(collection([
        feature("Polygon", rect(x0, y0, x0 + CELL, y0 + CELL), {"population": 1}),
        feature("Polygon", ring, props),
    ])))
    with pytest.raises(InputError, match="feature 1: coordinates .* out of lon/lat range"):
        load_demand_layer(path, "geodesic")


def test_geodesic_grid_past_antimeridian_exits_2(geodesic_project, tmp_path, capsys):
    # the demand areas stay in range; only cells outside the study area pass
    # lon 180, where no kernel that runs on the masked cells would see them
    cfg = json.loads(geodesic_project.read_text())
    cfg["grid"]["ncols"] = math.ceil((180.0 - ORIGIN[0]) / CELL) + 1
    root = tmp_path / "project"
    shutil.copytree(geodesic_project.parent, root)
    variant = root / "wide_grid_project.json"
    variant.write_text(json.dumps(cfg))
    code = main(["--config", str(variant), "--out", str(tmp_path / "o"), "pipeline"])
    assert code == 2
    err = capsys.readouterr().err
    assert "config field grid" in err and "out of range" in err

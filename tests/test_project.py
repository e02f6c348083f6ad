import collections
import copy
import fcntl
import hashlib
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from branchsite import geo, project, weights
from branchsite.cli import main
from branchsite.errors import ConfigError, GateError, InputError
from branchsite.geo import Polygon
from branchsite.overlay import json_text
from branchsite.project import (
    build_surface,
    build_candidate_set,
    load_demand_layer,
    load_point_layer,
    load_project,
    render_report,
    run_pipeline,
    write_artifacts,
    write_pipeline_artifacts,
)

from helpers import parse_coverage_table_csv


def load_config_json(config_path):
    return json.loads(Path(config_path).read_text())


def demo_copy(config_path, tmp_path):
    """The test's own copy of the demo project, at ``tmp_path / "project"``,
    so no test writes into the project that the session shares."""
    root = tmp_path / "project"
    if not root.exists():
        shutil.copytree(Path(config_path).parent, root)
    return root


def write_variant(config_path, tmp_path, mutate, name="variant.json"):
    """Write a mutated copy of the demo config into the test's copy of the
    demo project, so all relative layer/matrix paths keep working."""
    cfg = load_config_json(config_path)
    mutate(cfg)
    path = demo_copy(config_path, tmp_path) / name
    path.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")
    return path


class TestLoadProject:
    def test_demo_project_loads(self, demo_config_path):
        cfg = load_project(demo_config_path)
        assert cfg.mode == "planar"
        assert len(cfg.criteria) == 12
        assert cfg.extraction.max_proposed == 14
        assert cfg.standard.effective_radius_m == 2500.0
        assert cfg.p_max == 3
        assert set(cfg.hierarchy.leaves()) == {c.id for c in cfg.criteria}

    def test_undeclared_criterion_named_in_error(self, demo_config_path, tmp_path):
        def drop_one(cfg):
            cfg["criteria"] = [c for c in cfg["criteria"] if c["id"] != "parking"]
        path = write_variant(demo_config_path, tmp_path, drop_one, "undeclared.json")
        with pytest.raises(ConfigError, match="parking"):
            load_project(path)

    def test_unreferenced_criterion_rejected(self, demo_config_path, tmp_path):
        def drop_leaf(cfg):
            for node in cfg["hierarchy"]["nodes"]:
                if node["id"] == "transport_access":
                    node["children"] = ["main_street"]
            # transport matrix no longer matches: single child needs no matrix
            for node in cfg["hierarchy"]["nodes"]:
                if node["id"] == "transport_access":
                    node["matrix"] = None
        path = write_variant(demo_config_path, tmp_path, drop_leaf, "unreferenced.json")
        with pytest.raises(ConfigError, match="transit_stop"):
            load_project(path)

    def test_each_matrix_is_eigen_solved_once(self, demo_config_path, monkeypatch):
        """The load gates every matrix and the run synthesizes the weights
        and reports the gates: between them each matrix is power-iterated
        once."""
        solves = collections.Counter()
        power_iterate = weights._power_iterate

        def counting(matrix):
            solves[matrix.id] += 1
            return power_iterate(matrix)

        monkeypatch.setattr(weights, "_power_iterate", counting)
        cfg = load_project(demo_config_path)
        report = run_pipeline(cfg)
        assert [g.matrix_id for g in cfg.gates] == [m.id for m in cfg.hierarchy.matrices()]
        assert report.data["consistency"] == project._gate_rows(cfg.gates)
        assert dict(solves) == {m.id: 1 for m in cfg.hierarchy.matrices()}

    def test_inconsistent_matrix_fails_gate_at_load(self, demo_config_path, tmp_path):
        base = demo_copy(demo_config_path, tmp_path)
        rows = [r.split(",") for r in
                (base / "matrices" / "goal.csv").read_text().strip().splitlines()]
        header, data = rows[0], [[float(x) for x in r] for r in rows[1:]]
        data[1][0] *= 9.0
        data[0][1] /= 9.0
        # dense-eigenvalue check that this perturbation really breaks the gate
        lam = float(np.max(np.real(np.linalg.eigvals(np.array(data)))))
        assert ((lam - 6) / 5) / 1.24 >= 0.1
        bad = base / "matrices" / "goal_bad.csv"
        bad.write_text(",".join(header) + "\n"
                       + "\n".join(",".join(repr(v) for v in row) for row in data) + "\n")

        def swap_matrix(cfg):
            for node in cfg["hierarchy"]["nodes"]:
                if node["id"] == "goal":
                    node["matrix"] = "matrices/goal_bad.csv"
        path = write_variant(demo_config_path, tmp_path, swap_matrix, "badgate.json")
        with pytest.raises(GateError, match="goal_bad"):
            load_project(path)

    def test_missing_layer_file_rejected(self, demo_config_path, tmp_path):
        def break_layer(cfg):
            cfg["criteria"][0]["layer"] = "layers/nonexistent.geojson"
        path = write_variant(demo_config_path, tmp_path, break_layer, "missingfile.json")
        with pytest.raises(ConfigError, match="nonexistent"):
            load_project(path)

    def test_schema_violation_names_field(self, demo_config_path, tmp_path):
        def drop_grid(cfg):
            del cfg["grid"]
        path = write_variant(demo_config_path, tmp_path, drop_grid, "nogrid.json")
        with pytest.raises(ConfigError, match="grid"):
            load_project(path)


def _collection(features):
    return {"type": "FeatureCollection", "features": features}


def _point(coordinates, properties):
    return {"type": "Feature", "geometry": {"type": "Point", "coordinates": coordinates},
            "properties": properties}


def _area(ring, properties):
    return {"type": "Feature", "geometry": {"type": "Polygon", "coordinates": [ring]},
            "properties": properties}


class TestLoadLayers:
    def test_existing_branches_count_and_ids(self, demo_config_path):
        cfg = load_project(demo_config_path)
        proposed, merged = build_candidate_set(cfg, build_surface(cfg))
        sites = merged[len(proposed):]
        assert len(sites) == 9
        assert sites[0]["id"] == "e01"
        assert all(s["origin"] == "existing" for s in sites)
        assert all(s["score"] is None and s["tier"] is None for s in sites)

    def test_demand_layer_count_and_populations(self, demo_config_path):
        cfg = load_project(demo_config_path)
        demand = load_demand_layer(cfg.demand_path, cfg.mode)
        assert len(demand.ids) == 20
        assert demand.populations.sum() == 100_000
        assert demand.centroids.shape == (20, 2)
        assert all(isinstance(poly, Polygon) for poly in demand.polygons)
        assert len(demand.polygons) == 20

    def test_demand_layer_arrays_are_read_only(self, demo_config_path):
        cfg = load_project(demo_config_path)
        demand = load_demand_layer(cfg.demand_path, cfg.mode)
        assert demand.populations.dtype == demand.centroids.dtype == np.float64
        for column in (demand.populations, demand.centroids):
            assert not column.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                column[0] = 1.0

    def test_negative_population_rejected(self, tmp_path):
        square = [[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]]
        path = tmp_path / "areas.geojson"
        path.write_text(json.dumps(_collection([
            _area(square, {"id": "d01", "population": -1.0, "centroid": [0.5, 0.5]})])))
        with pytest.raises(InputError) as err:
            load_demand_layer(path, "planar")
        assert str(err.value) == "demand area 'd01': population must be a finite number >= 0"
        path.write_text(json.dumps(_collection([
            _area(square, {"id": "d01", "population": 0, "centroid": [0.5, 0.5]})])))
        assert load_demand_layer(path, "planar").populations.tolist() == [0.0]

    def test_bad_population_of_last_of_2000_areas_is_named(self, tmp_path):
        path = tmp_path / "areas.geojson"
        features = [_area([[i, 0], [i + 1, 0], [i + 1, 1], [i, 1], [i, 0]],
                          {"id": f"d{i}", "population": 10}) for i in range(2000)]
        features[1999]["properties"]["population"] = True
        path.write_text(json.dumps(_collection(features)))
        with pytest.raises(InputError) as err:
            load_demand_layer(path, "planar")
        assert str(err.value) == f"{path} feature 1999: 'population' must be a number, got True"

    def test_wrong_geometry_type_rejected(self, tmp_path):
        path = tmp_path / "bad.geojson"
        path.write_text(json.dumps({
            "type": "FeatureCollection",
            "features": [{
                "type": "Feature",
                "geometry": {"type": "Polygon",
                             "coordinates": [[[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]]]},
                "properties": {},
            }],
        }))
        with pytest.raises(InputError, match="expected Point"):
            load_point_layer(path, "planar")

    def test_missing_population_property_rejected(self, tmp_path):
        path = tmp_path / "areas.geojson"
        path.write_text(json.dumps({
            "type": "FeatureCollection",
            "features": [{
                "type": "Feature",
                "geometry": {"type": "Polygon",
                             "coordinates": [[[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]]]},
                "properties": {"id": "d01"},
            }],
        }))
        with pytest.raises(InputError, match="population"):
            load_demand_layer(path, "planar")

    @pytest.mark.parametrize("ring, centroid", [
        # a U: the vertex mean (1.5, 1.75) lies in the gap between the arms,
        # so the point is the midpoint of the first of the two widest inside
        # intervals of the line y = 1.75
        ([(0, 0), (3, 0), (3, 3), (2, 3), (2, 1), (1, 1), (1, 3), (0, 3)],
         (0.5, 1.75)),
        # an L whose vertex mean (10/6, 10/6) is outside: the line through
        # it holds one inside interval, [0, 1]
        ([(0, 0), (4, 0), (4, 1), (1, 1), (1, 4), (0, 4)], (0.5, 10 / 6)),
        # a convex area keeps its vertex mean
        ([(0, 0), (4, 0), (4, 4), (0, 4)], (2.0, 2.0)),
    ])
    def test_demand_area_without_centroid_gets_a_point_inside(self, tmp_path, ring,
                                                              centroid):
        path = tmp_path / "areas.geojson"
        path.write_text(json.dumps({
            "type": "FeatureCollection",
            "features": [{
                "type": "Feature",
                "geometry": {"type": "Polygon", "coordinates": [[*ring, ring[0]]]},
                "properties": {"id": "d01", "population": 10},
            }],
        }))
        demand = load_demand_layer(path, "planar")
        assert demand.centroids.tolist() == [list(centroid)]

    def test_area_near_the_float_maximum_gets_a_point_inside(self, tmp_path):
        """The square with corners (+-1e308, +-1e308): its vertex sums
        overflow left to right, so its mean is the sum of each vertex over
        4, (0, 0), which lies inside. (The overflowed mean was (0, -inf).)"""
        big = 1e308
        ring = [[-big, -big], [big, -big], [big, big], [-big, big], [-big, -big]]
        path = tmp_path / "areas.geojson"
        path.write_text(json.dumps(_collection([_area(ring, {"id": "d01", "population": 10})])))
        demand = load_demand_layer(path, "planar")
        assert demand.centroids.tolist() == [[0.0, 0.0]]
        assert geo.contains_each(demand.centroids, demand.polygons) == [True]

    def test_point_layer_reads_as_columns(self, tmp_path):
        path = tmp_path / "points.geojson"
        path.write_text(json.dumps(_collection([
            _point([1, 2.5], {"id": "a"}), _point([-3.0, 4, 99.0], {"id": 7}),
            _point([5, 6], None), _point([7, 8], {"name": "b"})])))
        layer = load_point_layer(path, "planar")
        assert layer.ids == ("a", "7", None, None)
        # a third coordinate is ignored
        assert layer.xy.dtype == np.float64
        assert layer.xy.tolist() == [[1.0, 2.5], [-3.0, 4.0], [5.0, 6.0], [7.0, 8.0]]
        assert not layer.xy.flags.writeable
        empty = tmp_path / "empty.geojson"
        empty.write_text(json.dumps(_collection([])))
        assert load_point_layer(empty, "planar").xy.shape == (0, 2)

    @pytest.mark.parametrize("mode, bad, message", [
        ("planar", [1999, "x"],
         "feature 1999: expected an [x, y] position of numbers, got [1999, 'x']"),
        ("planar", [1999], "feature 1999: expected an [x, y] position of numbers, got [1999]"),
        ("geodesic", [200.0, 5.0], "feature 1999: coordinates (200.0, 5.0) out of lon/lat range"),
    ])
    def test_bad_last_of_2000_points_is_named(self, tmp_path, mode, bad, message):
        """One position call fails for the whole layer; the walk names the feature."""
        path = tmp_path / "points.geojson"
        features = [_point([i / 100, 1.0, 3.0], {}) for i in range(1999)] + [_point(bad, {})]
        path.write_text(json.dumps(_collection(features)))
        with pytest.raises(InputError) as err:
            load_point_layer(path, mode)
        assert str(err.value) == f"{path} {message}"

    @pytest.mark.parametrize("features, message", [
        # a property fault names its feature before a bad position after it
        ([_point([0, 0], {}), _point([1, 1], [1]), _point([2, "x"], {})],
         "feature 1: properties must be an object, got [1]"),
        # a feature with both faults names the position
        ([_point([0, 0], {}), _point([1, "x"], [1])],
         "feature 1: expected an [x, y] position of numbers, got [1, 'x']"),
        # a wrong geometry type comes before a properties fault
        ([_point([0, 0], {}), _area([[0, 0], [1, 0], [1, 1], [0, 0]], [1])],
         "feature 1: expected Point geometry, got 'Polygon'"),
    ])
    def test_point_layer_error_precedence(self, tmp_path, features, message):
        path = tmp_path / "points.geojson"
        path.write_text(json.dumps(_collection(features)))
        with pytest.raises(InputError) as err:
            load_point_layer(path, "planar")
        assert str(err.value) == f"{path} {message}"

    def test_null_demand_id_counts_as_no_id(self, tmp_path):
        path = tmp_path / "areas.geojson"
        path.write_text(json.dumps(_collection([
            _area([[i, 0], [i + 1, 0], [i + 1, 1], [i, 1], [i, 0]],
                  {"id": None, "population": 10}) for i in range(2)])))
        assert load_demand_layer(path, "planar").ids == ("area01", "area02")

    def test_demand_centroids_are_tested_once(self, demo_config_path, tmp_path,
                                              monkeypatch):
        """Every centroid is tested in one kernel call; no fallback point is
        tested for the demo's areas, whose vertex means lie inside."""
        kernel_calls = []
        contains_each = geo.contains_each
        monkeypatch.setattr(geo, "contains_each",
                            lambda points, polys: kernel_calls.append(len(points))
                            or contains_each(points, polys))
        cfg = load_project(demo_config_path)
        demand = load_demand_layer(cfg.demand_path, cfg.mode)
        assert len(demand.ids) == 20 and kernel_calls == [20]
        # a given centroid is tested too
        monkeypatch.undo()
        path = tmp_path / "areas.geojson"
        path.write_text(json.dumps(_collection([
            _area([[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]],
                  {"id": "d1", "population": 1, "centroid": [2.0, 0.5]})])))
        with pytest.raises(InputError, match="'d1': centroid lies outside its geometry"):
            load_demand_layer(path, "planar")

    def test_first_bad_demand_area_is_named(self, tmp_path):
        """A given centroid outside its area in feature 1 is named before
        the bad ring of feature 2, as the feature walk meets them."""
        square = [[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]]
        features = [
            _area(square, {"id": "a", "population": 1}),
            _area(square, {"id": "b", "population": 2, "centroid": [5, 5]}),
            _area([[0, 0], [1, 0], [2, 0], [0, 0]], {"id": "c", "population": 3}),
        ]
        path = tmp_path / "areas.geojson"
        path.write_text(json.dumps(_collection(features)))
        with pytest.raises(InputError, match="demand area 'b': centroid lies outside"):
            load_demand_layer(path, "planar")
        features[1]["properties"]["centroid"] = [0.25, 0.75]
        path.write_text(json.dumps(_collection(features)))
        with pytest.raises(InputError, match="feature 2: polygon area must be strictly positive"):
            load_demand_layer(path, "planar")
        path.write_text(json.dumps(_collection(features[:2])))
        demand = load_demand_layer(path, "planar")
        assert demand.centroids.tolist() == [[0.5, 0.5], [0.25, 0.75]]
        assert demand.populations.tolist() == [1.0, 2.0]

    # a good feature's properties, and the error text of a missing one
    _LAYERS = {
        "zone": (project.load_zone_layer, {"level": 1},
                 "zone polygon is missing the 'level' property"),
        "demand": (load_demand_layer, {"population": 1},
                   "demand area is missing the 'population' property"),
    }

    @pytest.mark.parametrize("kind", ["zone", "demand"])
    def test_first_bad_feature_is_named_after_the_layer_check(self, tmp_path, kind):
        """The rings and the vertices of a layer are checked in one call
        after the walk, yet the feature named is the first bad one, and a
        feature's ring or vertex fault is named before its property fault."""
        load, props, missing = self._LAYERS[kind]
        square = [[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]]
        flat = [[0, 0], [1, 0], [2, 0], [0, 0]]
        bad_vertex = [[0, 0], [1, 0], [1, "x"], [0, 1], [0, 0]]
        ring_fault = "polygon area must be strictly positive"
        vertex_fault = "expected an [x, y] position of numbers, got [1, 'x']"
        path = tmp_path / "layer.geojson"
        for features, k, message in (
                # a ring fault at j before a property fault at k > j
                ([(square, props), (flat, props), (square, props), (square, {})], 1,
                 ring_fault),
                # both on one feature
                ([(square, props), (square, props), (flat, {})], 2, ring_fault),
                # a property fault before a later ring fault
                ([(square, props), (square, {}), (flat, props)], 1, missing),
                # the same for a vertex fault, which the walk of the vertices names
                ([(square, props), (bad_vertex, props), (square, {})], 1, vertex_fault),
                ([(bad_vertex, {}), (square, props)], 0, vertex_fault),
                ([(square, {}), (flat, props), (bad_vertex, props)], 0, missing),
                ([(flat, props), (bad_vertex, props)], 0, ring_fault)):
            path.write_text(json.dumps(_collection([_area(r, dict(p)) for r, p in features])))
            with pytest.raises(InputError) as err:
                load(path, "planar")
            assert str(err.value) == f"{path} feature {k}: {message}"

    @pytest.mark.parametrize("kind", ["zone", "demand"])
    def test_holes_that_leave_no_area_are_rejected(self, tmp_path, kind):
        load, props, _ = self._LAYERS[kind]
        ext = [[0, 0], [4, 0], [4, 3], [0, 3], [0, 0]]
        hole = [[1, 1], [2, 1], [2, 2], [1, 2], [1, 1]]
        path = tmp_path / "layer.geojson"
        features = [{"type": "Feature", "properties": dict(props),
                     "geometry": {"type": "Polygon", "coordinates": [ext, hole]}}]
        path.write_text(json.dumps(_collection(features)))
        load(path, "planar")  # the hole leaves an area
        for big in (ext, [[-1, -1], [30, -1], [30, 20], [-1, 20], [-1, -1]]):
            features[0]["geometry"]["coordinates"] = [ext, hole, big]
            path.write_text(json.dumps(_collection(features)))
            with pytest.raises(InputError) as err:
                load(path, "planar")
            assert str(err.value) == f"{path} feature 0: polygon area must be strictly positive"

    def test_empty_distance_layer_fails_at_rasterize_stage(self, demo_config_path, tmp_path):
        empty = demo_copy(demo_config_path, tmp_path) / "layers" / "empty.geojson"
        empty.write_text(json.dumps({"type": "FeatureCollection", "features": []}))

        def use_empty(cfg):
            for c in cfg["criteria"]:
                if c["id"] == "parking":
                    c["layer"] = "layers/empty.geojson"
        path = write_variant(demo_config_path, tmp_path, use_empty, "emptylayer.json")
        cfg = load_project(path)  # loads fine; the failure belongs to rasterize
        with pytest.raises(InputError, match=r"\[stage rasterize\].*empty feature layer"):
            run_pipeline(cfg)

    @pytest.mark.parametrize("case", ["empty layer", "grid elsewhere"])
    def test_empty_study_area_exits_2(self, demo_config_path, tmp_path, capsys, case):
        """An empty demand layer, or a grid whose cell centers miss every
        demand area, leaves no study area: the run stops at rasterize."""
        root = demo_copy(demo_config_path, tmp_path)
        demand = root / "layers" / "demand_areas.geojson"
        if case == "empty layer":
            demand.write_text(json.dumps(_collection([])))

        def move_grid(cfg):
            if case == "grid elsewhere":
                cfg["grid"]["origin"][0] += 1e6
        path = write_variant(demo_config_path, tmp_path, move_grid, "nostudy.json")
        code = main(["--config", str(path), "--out", str(tmp_path / "o"), "pipeline"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: [stage rasterize] demand layer {demand}: ")
        assert not (tmp_path / "o").exists()


class TestPipeline:
    def test_coverage_table_matches_construction(self, demo_report):
        rows = demo_report.data["curve"]
        assert [(r["p"], r["coverage_pct"]) for r in rows] == [
            (1, 90.0), (2, 96.0), (3, 100.0)]
        assert all(r["optimal"] for r in rows)

    def test_23_candidates_with_5_5_4_tiers(self, demo_report):
        cands = demo_report.data["candidates"]
        assert len(cands) == 23
        proposed = [c for c in cands if c["origin"] == "proposed"]
        assert len(proposed) == 14
        tiers = [c["tier"] for c in proposed]
        assert tiers.count("first") == 5
        assert tiers.count("second") == 5
        assert tiers.count("third") == 4
        assert all(c["tier"] is None for c in cands if c["origin"] == "existing")

    def test_report_text_is_json_text_of_data(self, demo_report):
        values = demo_report.score.values
        cells = np.where(np.isnan(values), None, values).tolist()
        data = {**demo_report.data, "score_raster": {"values": cells}}
        assert demo_report.to_json() == json_text(data)

    def test_rerun_is_byte_identical(self, demo_config_path, demo_report, tmp_path):
        cfg = load_project(demo_config_path)
        again = run_pipeline(cfg)
        assert again.to_json() == demo_report.to_json()
        out1, out2 = tmp_path / "a", tmp_path / "b"
        write_pipeline_artifacts(demo_report, out1)
        write_pipeline_artifacts(again, out2)
        files1 = sorted(p.relative_to(out1) for p in out1.rglob("*") if p.is_file())
        files2 = sorted(p.relative_to(out2) for p in out2.rglob("*") if p.is_file())
        assert files1 == files2
        for rel in files1:
            assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes(), rel

    def test_p_max_of_all_candidates_reaches_total_coverable(self, demo_config_path, tmp_path):
        def full_budget(cfg):
            cfg["p_max"] = 23
        path = write_variant(demo_config_path, tmp_path, full_budget, "pfull.json")
        report = run_pipeline(load_project(path))
        rows = report.data["curve"]
        assert len(rows) == 23
        assert rows[-1]["coverage_pct"] == 100.0
        pcts = [r["coverage_pct"] for r in rows]
        assert all(b >= a for a, b in zip(pcts, pcts[1:]))

    def test_greedy_swap_solver_matches_exact_here(self, demo_config_path, tmp_path):
        def heuristic(cfg):
            cfg["solver"] = "greedy+swap"
        path = write_variant(demo_config_path, tmp_path, heuristic, "heur.json")
        report = run_pipeline(load_project(path))
        assert [r["coverage_pct"] for r in report.data["curve"]] == [90.0, 96.0, 100.0]
        assert not any(r["optimal"] for r in report.data["curve"])

    def test_empty_extraction_noted_and_solving_skipped(self, demo_config_path, tmp_path):
        def impossible_threshold(cfg):
            cfg["extraction"]["min_score"] = 0.99
        path = write_variant(demo_config_path, tmp_path, impossible_threshold, "nopeaks.json")
        report = run_pipeline(load_project(path))
        assert report.data["extraction_empty"] is True
        assert report.data["curve"] is None
        assert report.data["instance"] is None
        out = tmp_path / "empty"
        written = render_report(json.loads(report.to_json()), out)
        names = {p.name for p in written}
        assert "coverage.csv" not in names
        assert "report.json" in names
        # only the 9 existing branches remain
        assert len(report.data["candidates"]) == 9

    def test_weights_and_consistency_in_report(self, demo_report):
        data = demo_report.data
        assert sum(data["weights"].values()) == pytest.approx(1.0, abs=1e-9)
        assert data["weights"]["population_density"] == pytest.approx(0.20, abs=1e-9)
        assert all(c["passed"] for c in data["consistency"])
        assert len(data["consistency"]) == 4

    def test_office_normalization_repair_reported(self, demo_report):
        entries = {c["id"]: c for c in demo_report.data["criteria"]}
        assert any("overlap" in r for r in entries["office_company"]["normalization_repairs"])


# sha256 of every file `pipeline` writes for the demo project (fixture seed
# 0), taken before the raster formatters worked from arrays.
GOLDEN_DIGESTS = {
    "candidates.geojson":
        "60c21474a2c5f1c03e5c41e3b80bd7ed45a6f7e35824cb5686a60883c4c8b86b",
    "coverage.csv":
        "4695d1ddad71b2ca28606a6cac04342f3634a5f75333dbdd833c7590c6a246e4",
    "instance.json":
        "12bcaf6a8fea9908ce4f074739739a0b61c062bdf9455ed18988322b5a33ed4a",
    "rasters/building_cost.asc":
        "2c9b3357efec2d4142ffe2e1c858a6869fbb9c7e6e8b3f0e327db0e1829f4063",
    "rasters/business_center.asc":
        "9d7c5bf30328ee49eedb57db1b3d19ca3e3aa132599cee07766427848bfae3ca",
    "rasters/competitor_branch.asc":
        "4064373eaf62139fbbae736566919c1297598a6920a296c2f5ef1c75b39ef4a3",
    "rasters/hotel_tourism.asc":
        "9033ff527192d0dda74c774695b56262f89038a63d9f156a46e84528719f625e",
    "rasters/income_level.asc":
        "4f950c38d761843ced0fc2b7320b83d1f39d608e2d54e7e17e58e745c1ec151e",
    "rasters/main_street.asc":
        "a57659cdbb74632d143e1aa8eafa451bf843cd6b7fe56d6c0d5335675c62664c",
    "rasters/medicine_center.asc":
        "0290b1384a9ea93a4fa90b57a81d95afeb8204230af5c99aa91ff1b45342c776",
    "rasters/office_company.asc":
        "b62f4323f4c7f7eb1f27af313ed399e2a438af0ea4b160a848079f2922d26888",
    "rasters/own_branch_distance.asc":
        "9c52d10081c74baa1a6bd7396e643f45fbd49d3c53937241909abaabdbc5c309",
    "rasters/parking.asc":
        "c02c1357a2f3c34917a018d4799413690d66e6d92b94cfd368706ae872b4cc06",
    "rasters/population_density.asc":
        "3377d2989800d7da7ac22f9362898ae22880afd733c934c7bcca23db0e340146",
    "rasters/transit_stop.asc":
        "d1f13b293f2cf8e595c7d6c04a05a3eb5710597a39311786c633dadb90f1a75a",
    "report.json":
        "4d8569f92335cd6b0e96786db1b915b954e3c43495738ef84f9ba8b87396b7ff",
    "score.asc":
        "1fda74b31df0aab72d907bb2d6640f5c2f16813d0352caef0d7140e86c827c8c",
    "score_points.geojson":
        "094a04f3a7d323cb5a15cea4e52436812e1d915a21f3ecca73e7e8ffbebce13f",
    "solutions.json":
        "57fd630da4ef2b69ed6ff669992b63a2250d2de696525b1494b0d74d4784fbab",
}


# sha256 of the surface files of the demo project with each other combine
# mode, taken while the combined surface was a float grid. The modes give
# 50 and 11 distinct scores, against the default's 12.
MODE_GOLDEN_DIGESTS = {
    "weighted_sum": {
        "report.json":
            "502eae61429c023180b6c35633d4074a2c62fd09d4bfae2144ec4e5778bae4c4",
        "score.asc":
            "cda8f32889dd776229895a31fe696bd32cdad69b8430606fddf204cd6043b812",
        "score_points.geojson":
            "1723e776f4d2b87319975576210498ca109772e10c10c5c41d5ce58071a72ec2",
    },
    "literal_product": {
        "report.json":
            "59bd57e7889ce0402a6a5153f1cefc80cd7119289ede3fa9c9a32fbed63d845e",
        "score.asc":
            "527048bb76a6f93ea47d84344a154fe2a2f73f062091413fc35cb1d6c4115c9c",
        "score_points.geojson":
            "a73406679aa3d8b767ca5c699d66793035de73f50c6c6bf3ef6878ee9936a7ef",
    },
}


@pytest.mark.parametrize("mode", sorted(MODE_GOLDEN_DIGESTS))
def test_other_combine_modes_match_golden_digests(demo_config_path, tmp_path, mode):
    path = write_variant(demo_config_path, tmp_path,
                         lambda cfg: cfg.update(combine_mode=mode))
    out = tmp_path / "out"
    write_pipeline_artifacts(run_pipeline(load_project(path)), out)
    got = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
           for name in MODE_GOLDEN_DIGESTS[mode]}
    assert got == MODE_GOLDEN_DIGESTS[mode]


@pytest.fixture(scope="module")
def artifact_dir(demo_report, tmp_path_factory):
    out = tmp_path_factory.mktemp("artifacts")
    write_pipeline_artifacts(demo_report, out)
    return out


class TestRenderedArtifacts:
    def test_coverage_csv_three_rows_round_trip(self, artifact_dir, demo_report):
        text = (artifact_dir / "coverage.csv").read_text()
        rows = parse_coverage_table_csv(text)
        assert len(rows) == 3
        for parsed, row in zip(rows, demo_report.data["curve"]):
            assert parsed[0] == row["p"]
            assert list(parsed[1]) == row["selected"]
            assert parsed[2] == row["coverage_pct"]

    def test_candidates_geojson_valid(self, artifact_dir):
        gj = json.loads((artifact_dir / "candidates.geojson").read_text())
        assert gj["type"] == "FeatureCollection"
        assert len(gj["features"]) == 23

    def test_score_raster_exports_consistent(self, artifact_dir, demo_report):
        from helpers import read_esri_ascii
        grid, values = read_esri_ascii(artifact_dir / "score.asc")
        assert grid.ncols == 60 and grid.nrows == 195
        embedded = json.loads(demo_report.to_json())["score_raster"]["values"]
        for row in range(grid.nrows):
            for col in range(grid.ncols):
                want = embedded[row][col]
                got = values[row, col]
                assert (want is None and math.isnan(got)) or got == want

    def test_per_criterion_rasters_written(self, artifact_dir):
        rasters = sorted(p.name for p in (artifact_dir / "rasters").glob("*.asc"))
        assert len(rasters) == 12
        assert "main_street.asc" in rasters

    def test_artifacts_match_golden_digests(self, artifact_dir):
        got = {str(p.relative_to(artifact_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
               for p in artifact_dir.rglob("*") if p.is_file()}
        assert got == GOLDEN_DIGESTS

    def test_report_rerender_is_byte_identical(self, artifact_dir, tmp_path):
        data = json.loads((artifact_dir / "report.json").read_text())
        out = tmp_path / "rerender"
        render_report(data, out)
        for name in ("report.json", "candidates.geojson", "score.asc",
                     "score_points.geojson", "coverage.csv", "solutions.json",
                     "instance.json"):
            assert (out / name).read_bytes() == (artifact_dir / name).read_bytes(), name

    def test_failed_write_leaves_previous_files(self, demo_report, tmp_path,
                                                monkeypatch):
        out = tmp_path / "out"
        write_pipeline_artifacts(demo_report, out)
        before = _dir_bytes(out)
        calls = []

        def failing_on_fourth_call(raster):
            calls.append(raster)
            if len(calls) == 4:
                raise OSError("disk full")
            return ["changed\n"]

        monkeypatch.setattr(project, "esri_ascii_text", failing_on_fourth_call)
        with pytest.raises(OSError, match="disk full"):
            write_pipeline_artifacts(demo_report, out)
        # same names (so no temporary is left) and the same bytes
        assert _dir_bytes(out) == before

    def test_failed_chunk_leaves_previous_files(self, tmp_path):
        out = tmp_path / "out"
        write_artifacts(out, [("a.txt", ["old a\n"]), ("sub/b.txt", ["old b\n"])])
        before = _dir_bytes(out)

        def failing_after_first_chunk():
            yield "new b, first chunk\n"
            raise OSError("disk full")

        with pytest.raises(OSError, match="disk full"):
            write_artifacts(out, [("a.txt", ["new a\n"]),
                                  ("sub/b.txt", failing_after_first_chunk())])
        # same names (so neither temporary is left, the partly written one
        # included) and the same bytes
        assert _dir_bytes(out) == before

    def test_writer_memory_is_bounded_by_a_chunk(self, demo_config_path, tmp_path):
        """At 25 m the writer's traced peak stays below half the largest
        artifact: no artifact's whole text is ever held."""
        def at_25_m(cfg):
            grid = cfg["grid"]
            grid.update(cell_size=25.0, ncols=grid["ncols"] * 4, nrows=grid["nrows"] * 4)
        report = run_pipeline(load_project(write_variant(demo_config_path, tmp_path,
                                                         at_25_m, "at25m.json")))
        tracemalloc.start()
        try:
            written = write_pipeline_artifacts(report, tmp_path / "out")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        largest = max(p.stat().st_size for p in written)
        assert largest > 10_000_000  # score_points.geojson spans many chunks
        assert peak < largest / 2


class TestSurfaceAt25m:
    """The criterion rasters of a run are class codes on its one mask."""

    @pytest.fixture(scope="class")
    def cfg_25m(self, demo_config_path, tmp_path_factory):
        cfg = load_config_json(demo_config_path)
        grid = cfg["grid"]
        grid.update(cell_size=25.0, ncols=grid["ncols"] * 4, nrows=grid["nrows"] * 4)
        root = tmp_path_factory.mktemp("at25m") / "project"
        shutil.copytree(Path(demo_config_path).parent, root)
        path = root / "at25m.json"
        path.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")
        return load_project(path)

    def test_rasters_share_one_mask_and_hold_a_byte_a_cell(self, cfg_25m):
        surface = build_surface(cfg_25m)
        mask = surface.score.mask
        cells = np.count_nonzero(mask)
        assert cells > 50_000 and not mask.flags.writeable
        assert len(surface.rasters) == 12
        scheme = cfg_25m.scheme
        for raster in surface.rasters:
            assert raster.mask is mask
            assert raster.codes.dtype == np.uint8 and raster.codes.nbytes == cells
            assert raster.table.tolist() == [scheme.non, scheme.mid, scheme.high]

    def test_traced_peak_of_the_surface(self, cfg_25m):
        build_surface(cfg_25m)   # the first call's imports and caches are not the surface's
        tracemalloc.start()
        try:
            build_surface(cfg_25m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 2.9 MB: no full-grid array per zone layer and none of distances
        assert peak <= 3_500_000


def _dir_bytes(root):
    return {p.relative_to(root): p.read_bytes() for p in root.rglob("*") if p.is_file()}


def _without_population(d):
    del d["areas"][1]["population"]
    return d


def _as_top_level_list(d):
    return [d]


def _with_ragged_matrix(d):
    d["matrix"][2] = [0]
    return d


def _with_text_population(d):
    d["areas"][0]["population"] = "x"
    return d


def _with_radius(radius):
    def mutate(d):
        d["standard"] = {"kind": "radius", "radius": radius}
        return d
    return mutate


def _with_value(value, *path):
    """Set the instance field at ``path`` (keys and list indices) to value."""
    def mutate(d):
        target = d
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        return d
    return mutate


def _with_geodesic_centroid_off_range(d):
    del d["matrix"]
    d["mode"] = "geodesic"
    d["standard"] = {"kind": "radius", "radius": 1000.0}
    d["areas"][0]["centroid"] = [200, 0]
    return d


def _huge_radius_solve_argv(tmp_path):
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({
        "standard": {"kind": "radius", "radius": 10 ** 400},
        "areas": [{"id": "d0", "population": 10, "centroid": [0, 0]}],
        "candidates": [{"id": "c0", "location": [0, 0]}]}))
    return ["--out", str(tmp_path / "o"), "solve", "--instance", str(path), "--p", "1"]


def _config_argv(mutate):
    def argv(config_path, tmp_path):
        path = write_variant(config_path, tmp_path, mutate, "malformed.json")
        return ["--config", str(path), "--out", str(tmp_path / "o"), "pipeline"]
    return argv


def _layer_argv(layer, mutate):
    """A pipeline run on a copy of the demo project whose ``layer`` file is
    ``mutate``d; ``mutate`` returns the new layer body."""
    def argv(config_path, tmp_path):
        root = demo_copy(config_path, tmp_path)
        path = root / "layers" / layer
        path.write_text(json.dumps(mutate(json.loads(path.read_text()))))
        return ["--config", str(root / Path(config_path).name),
                "--out", str(tmp_path / "o"), "pipeline"]
    return argv


def _appended_argv(rel, suffix):
    """A pipeline run on a copy of the demo project whose file ``rel``
    (relative to the project file) ends with the bytes ``suffix``."""
    def argv(config_path, tmp_path):
        root = demo_copy(config_path, tmp_path)
        with open(root / rel, "ab") as f:
            f.write(suffix)
        return ["--config", str(root / Path(config_path).name),
                "--out", str(tmp_path / "o"), "pipeline"]
    return argv


def _set_in_features(keys, value):
    """Mutation setting the item at the ``keys`` path under the layer's
    features list; a ``value`` of None deletes the item."""
    def mutate(layer):
        obj = layer["features"]
        for key in keys[:-1]:
            obj = obj[key]
        if value is None:
            del obj[keys[-1]]
        else:
            obj[keys[-1]] = value
        return layer
    return mutate


def _report_argv(text):
    def argv(config_path, tmp_path):
        path = tmp_path / "report.json"
        path.write_text(text)
        return ["--out", str(tmp_path / "o"), "report", "--report", str(path)]
    return argv


def _report_variant(**grid_and_cells):
    """A tiny valid report (2 x 1 grid) with some grid fields or the score
    cells replaced; the text is written as given, so ``1e400`` and ``NaN``
    stay literals."""
    grid = {"origin": "[0.0, 0.0]", "cell_size": "1.0", "ncols": "2", "nrows": "1",
            "values": "[[0.5, null]]"}
    grid.update(grid_and_cells)
    return ('{"config_digest": "0", "mode": "planar", "combine_mode": "weighted_sum", '
            '"candidates": [], "grid": {"origin": %(origin)s, "cell_size": %(cell_size)s, '
            '"ncols": %(ncols)s, "nrows": %(nrows)s}, '
            '"score_raster": {"values": %(values)s}}' % grid)


class TestCli:
    def test_pipeline_command(self, demo_config_path, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["--config", str(demo_config_path), "--out", str(out), "pipeline"])
        assert code == 0
        captured = capsys.readouterr()
        assert "p=1: 90%" in captured.out
        assert (out / "report.json").is_file()
        assert not (out / ".branchsite.lock").exists()

    def test_fixture_then_pipeline(self, tmp_path):
        proj = tmp_path / "proj"
        assert main(["--out", str(proj), "fixture"]) == 0
        out = tmp_path / "out"
        assert main(["--config", str(proj / "project.json"),
                     "--out", str(out), "pipeline"]) == 0
        assert (out / "coverage.csv").is_file()

    def test_weights_command(self, demo_config_path, tmp_path, capsys):
        out = tmp_path / "w"
        code = main(["--config", str(demo_config_path), "--out", str(out), "weights"])
        assert code == 0
        payload = json.loads((out / "weights.json").read_text())
        assert payload["weights"]["main_street"] == pytest.approx(0.12, abs=1e-9)
        assert all(row["passed"] for row in payload["consistency"])

    def test_score_command(self, demo_config_path, tmp_path):
        out = tmp_path / "s"
        assert main(["--config", str(demo_config_path), "--out", str(out), "score"]) == 0
        assert (out / "score.asc").is_file()
        assert len(list((out / "rasters").glob("*.asc"))) == 12

    def test_candidates_command(self, demo_config_path, tmp_path):
        out = tmp_path / "c"
        assert main(["--config", str(demo_config_path),
                     "--out", str(out), "candidates"]) == 0
        gj = json.loads((out / "candidates.geojson").read_text())
        assert len(gj["features"]) == 23

    def test_solve_command_from_instance(self, demo_report, tmp_path):
        out1 = tmp_path / "arts"
        write_pipeline_artifacts(demo_report, out1)
        out2 = tmp_path / "solved"
        code = main(["--out", str(out2), "solve",
                     "--instance", str(out1 / "instance.json"), "--p-max", "3"])
        assert code == 0
        rows = parse_coverage_table_csv((out2 / "coverage.csv").read_text())
        assert [r[2] for r in rows] == [90.0, 96.0, 100.0]

    def test_solve_single_p(self, demo_report, tmp_path):
        out1 = tmp_path / "arts"
        write_pipeline_artifacts(demo_report, out1)
        out2 = tmp_path / "single"
        code = main(["--out", str(out2), "solve",
                     "--instance", str(out1 / "instance.json"), "--p", "1"])
        assert code == 0
        sol = json.loads((out2 / "solution.json").read_text())
        assert sol["coverage_pct"] == 90.0
        assert sol["selected"] == ["p04"]

    def test_report_rerender_command(self, demo_report, tmp_path):
        out1 = tmp_path / "arts"
        write_pipeline_artifacts(demo_report, out1)
        out2 = tmp_path / "rr"
        code = main(["--out", str(out2), "report",
                     "--report", str(out1 / "report.json")])
        assert code == 0
        assert (out2 / "report.json").read_bytes() == (out1 / "report.json").read_bytes()

    def test_stage_commands_write_the_pipeline_bytes(self, demo_config_path, tmp_path):
        config = ["--config", str(demo_config_path)]
        pipe = tmp_path / "pipeline"
        assert main(config + ["--out", str(pipe), "pipeline"]) == 0
        for command in ("score", "candidates"):
            out = tmp_path / command
            assert main(config + ["--out", str(out), command]) == 0
            files = _dir_bytes(out)
            assert files == {rel: (pipe / rel).read_bytes() for rel in files}
        assert len(_dir_bytes(tmp_path / "score")) == 14  # 2 + 12 criterion rasters

        solved = tmp_path / "solve"
        assert main(["--out", str(solved), "solve", "--instance",
                     str(pipe / "instance.json"), "--p-max", "3"]) == 0
        assert (solved / "coverage.csv").read_bytes() == (pipe / "coverage.csv").read_bytes()
        rows = json.loads((pipe / "solutions.json").read_text())["rows"]
        assert json.loads((solved / "solutions.json").read_text()) == {"rows": rows}

        assert main(config + ["--out", str(tmp_path / "w"), "weights"]) == 0
        weights = json.loads((tmp_path / "w" / "weights.json").read_text())
        report = json.loads((pipe / "report.json").read_text())
        assert weights == {key: report[key] for key in
                           ("config_digest", "mode", "weights", "consistency")}

    def test_solve_writes_utf8_under_an_ascii_locale(self, demo_report, tmp_path):
        """A non-ASCII candidate id is written as UTF-8 whatever the
        locale's encoding."""
        arts = tmp_path / "arts"
        write_pipeline_artifacts(demo_report, arts)
        instance = json.loads((arts / "instance.json").read_text())
        instance["candidates"][0]["id"] = "شعبه"
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(instance, ensure_ascii=False), encoding="utf-8")
        env = {k: v for k, v in os.environ.items()
               if k not in ("PYTHONIOENCODING", "PYTHONUTF8")}
        env.update(LC_ALL="C", LANG="C", PYTHONCOERCECLOCALE="0",
                   PYTHONPATH=str(Path(project.__file__).parents[1]))
        out = tmp_path / "solved"
        run = subprocess.run(
            [sys.executable, "-X", "utf8=0", "-m", "branchsite.cli", "--out", str(out),
             "solve", "--instance", str(path), "--p-max", "3"],
            capture_output=True, env=env)
        assert run.returncode == 0, run.stderr.decode(errors="replace")
        rows = (out / "coverage.csv").read_bytes().decode("utf-8").splitlines()
        assert rows[-1] == "3,p04;p05;شعبه,100.0"

    def test_validation_error_exits_2(self, demo_config_path, tmp_path):
        path = write_variant(demo_config_path, tmp_path,
                             lambda cfg: cfg.__delitem__("grid"), "cli_bad.json")
        code = main(["--config", str(path), "--out", str(tmp_path / "x"), "pipeline"])
        assert code == 2

    def test_absolute_input_paths_keep_their_spelling(self, demo_config_path,
                                                      demo_report, tmp_path):
        """A layer, the demand areas and a matrix named by absolute paths:
        the pipeline exits 0 and the report keys each input digest by the
        path as the config wrote it."""
        root = demo_copy(demo_config_path, tmp_path)
        renamed = {}

        def absolute(entry, key):
            renamed[entry[key]] = entry[key] = str(root / entry[key])

        def use_absolute_paths(cfg):
            absolute(cfg["criteria"][0], "layer")
            absolute(cfg, "demand_areas")
            absolute(next(n for n in cfg["hierarchy"]["nodes"] if n.get("matrix")),
                     "matrix")

        path = write_variant(demo_config_path, tmp_path, use_absolute_paths,
                             "absolute.json")
        out = tmp_path / "o"
        assert main(["--config", str(path), "--out", str(out), "pipeline"]) == 0
        want = dict(demo_report.data["input_digests"])
        del want[Path(demo_config_path).name]
        want[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
        for rel, ref in renamed.items():
            want[ref] = want.pop(rel)
        assert len(renamed) == 3
        report = json.loads((out / "report.json").read_text())
        assert report["input_digests"] == want

    def test_solver_refusal_exits_3(self, tmp_path):
        instance = {
            "mode": "planar",
            "standard": {"kind": "radius", "radius": 100.0},
            "areas": [{"id": "d0", "population": 10, "centroid": [0, 0]}],
            "candidates": [
                {"id": f"c{j:02d}", "location": [float(j), 0.0], "fixed_open": False}
                for j in range(31)
            ],
        }
        path = tmp_path / "big.json"
        path.write_text(json.dumps(instance))
        code = main(["--out", str(tmp_path / "o"), "solve",
                     "--instance", str(path), "--p", "2", "--method", "exact"])
        assert code == 3

    @pytest.mark.parametrize("mutate, field", [
        (_without_population, "areas[1].population"),
        (_as_top_level_list, "JSON object"),
        (_with_ragged_matrix, "matrix"),
        (_with_text_population, "areas[0].population"),
        (_with_geodesic_centroid_off_range, "lon=200"),
        (_with_radius(True), "radius must be a finite positive number, got True"),
        (_with_radius(math.inf), "number Infinity is not finite"),
        (_with_radius("5"), "radius must be a finite positive number, got '5'"),
        (_with_value(1, "candidates", 0, "fixed_open"),
         "instance field candidates[0].fixed_open must be true or false, got 1"),
        (_with_value(None, "candidates", 0, "fixed_open"),
         "instance field candidates[0].fixed_open must be true or false, got None"),
        (_with_value(True, "areas", 1, "population"),
         "instance field areas[1].population must be a number, got True"),
        (_with_value("5", "areas", 1, "population"),
         "instance field areas[1].population must be a number, got '5'"),
        (_with_value(10 ** 400, "areas", 1, "population"),
         "instance field areas[1].population must be a number, got 1000000"),
        (_with_value("00", "areas", 0, "centroid"),
         "instance field areas[0].centroid must be [x, y], got '00'"),
        (_with_value([0, 0, 9], "areas", 0, "centroid"),
         "instance field areas[0].centroid must be [x, y], got [0, 0, 9]"),
        (_with_value([True, 0], "areas", 0, "centroid"),
         "instance field areas[0].centroid[0] must be a number, got True"),
        (_with_value([math.nan, 0], "areas", 0, "centroid"), "number NaN is not finite"),
        (_with_value([0, math.inf], "candidates", 1, "location"),
         "number Infinity is not finite"),
        (_with_value(7, "areas", 2, "id"),
         "instance field areas[2].id must be a string, got 7"),
        (_with_value(None, "candidates", 1, "id"),
         "instance field candidates[1].id must be a string, got None"),
        (_with_value([1, "x"], "matrix", 1),
         "instance field matrix[1] must be a list of 2 entries, each true, false, "
         "0 or 1, got [1, 'x']"),
        (_with_value([1, 2], "matrix", 1),
         "instance field matrix[1] must be a list of 2 entries, each true, false, "
         "0 or 1, got [1, 2]"),
        (_with_value([1, 0.5], "matrix", 1),
         "instance field matrix[1] must be a list of 2 entries, each true, false, "
         "0 or 1, got [1, 0.5]"),
        (_with_value(1e308, "areas", 1, "population"),
         "total population 1e+308 overflows"),
        # the mode is checked when the instance carries its matrix too
        (_with_value("foo", "mode"),
         "instance field mode must be one of ('planar', 'geodesic'), got 'foo'"),
        (lambda d: json.dumps(d).encode() + b"\xff",
         "bad.json: instance is not UTF-8: 'utf-8' codec can't decode byte 0xff"),
    ])
    def test_malformed_instance_exits_2(self, tmp_path, capsys, mutate, field):
        instance = {
            "mode": "planar",
            "areas": [{"id": f"d{i}", "population": 10, "centroid": [i, 0]}
                      for i in range(3)],
            "candidates": [{"id": "c0", "location": [0, 0]},
                           {"id": "c1", "location": [2, 0]}],
            "matrix": [[1, 0], [1, 1], [0, 1]],
        }
        path = tmp_path / "bad.json"
        body = mutate(instance)
        path.write_bytes(body if isinstance(body, bytes) else json.dumps(body).encode())
        code = main(["--out", str(tmp_path / "o"), "solve",
                     "--instance", str(path), "--p", "1"])
        assert code == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("argv, field", [
        (_config_argv(lambda cfg: cfg["grid"].update(ncols="abc")), "grid.ncols"),
        (_config_argv(lambda cfg: cfg["grid"].update(nrows=19.5)), "grid.nrows"),
        (_config_argv(lambda cfg: cfg["grid"].update(origin=5)), "grid.origin"),
        (_config_argv(lambda cfg: cfg.update(grid=5)), "grid must be an object"),
        (_config_argv(lambda cfg: cfg["extraction"].update(max_proposed="14")),
         "extraction.max_proposed"),
        (_config_argv(lambda cfg: cfg.update(p_max="3")), "p_max"),
        (_config_argv(lambda cfg: cfg.update(scheme={"high": 10 ** 400})),
         "config field scheme.high must be a number"),
        (_report_argv("{not json"), "not valid JSON"),
        (_report_argv("[1, 2]"), "JSON object"),
        (_report_argv("{}"), "config_digest"),
        (_config_argv(lambda cfg: cfg.update(scheme="x")), "field scheme must be an object"),
        (_config_argv(lambda cfg: cfg["criteria"][6].update(categories=["High"])),
         "criteria[6].categories"),
        (_config_argv(lambda cfg: cfg.update(hierarchy=5)),
         "field hierarchy must be an object"),
        (_config_argv(lambda cfg: cfg.update(standard="x")),
         "field standard must be an object"),
        (_report_argv(json.dumps({
            "config_digest": "0", "mode": "planar", "combine_mode": "weighted_sum",
            "grid": {"origin": [0, 0], "cell_size": 1, "ncols": 2, "nrows": 1},
            "score_raster": {"values": [[0.5, "high"]]}})),
         "could not convert string to float: 'high'"),
        (_report_argv(json.dumps({
            "config_digest": "0", "mode": "planar", "combine_mode": "weighted_sum",
            "grid": {"origin": [0, 0], "cell_size": 1, "ncols": 2, "nrows": 1},
            "score_raster": {"values": [[0.5, "0.5"]]}})),
         "score_raster.values holds a string cell"),
        (_report_argv(json.dumps({
            "config_digest": "0", "mode": "planar", "combine_mode": "weighted_sum",
            "grid": {"origin": [0, 0], "cell_size": 1, "ncols": 2, "nrows": 1},
            "score_raster": {"values": [[0.5, 10 ** 400]]}})),
         "int too large to convert to float"),
        (_report_argv(_report_variant(ncols="2.0")), "grid.ncols must be an integer, got 2.0"),
        (_report_argv(_report_variant(nrows="true")), "grid.nrows must be an integer, got True"),
        (_report_argv(_report_variant(origin="[0.0]")), "grid.origin must be [x, y]"),
        (_report_argv(_report_variant(origin='["0", 0]')),
         "grid.origin[0] must be a number"),
        (_report_argv(_report_variant(cell_size="false")),
         "grid.cell_size must be a number"),
        (_report_argv(_report_variant(values="[[true, null]]")), "values holds a bool cell"),
        # a report is strict JSON: non-finite numbers fail as it is parsed
        (_report_argv(_report_variant(values="[[1e400, null]]")), "number 1e400 is not finite"),
        (_report_argv(_report_variant(values="[[-Infinity, 0.5]]")),
         "number -Infinity is not finite"),
        (_report_argv(_report_variant(cell_size="NaN")), "number NaN is not finite"),
        # config numbers are finite, and the coverage radius a real number
        (_config_argv(lambda cfg: cfg["standard"].update(radius="5")),
         "radius must be a finite positive number, got '5'"),
        (_config_argv(lambda cfg: cfg["standard"].update(radius=True)),
         "radius must be a finite positive number, got True"),
        (_config_argv(lambda cfg: cfg["standard"].update(radius=math.inf)),
         "number Infinity is not finite"),
        (_config_argv(lambda cfg: cfg["extraction"].update(min_separation=math.nan)),
         "number NaN is not finite"),
        (_config_argv(lambda cfg: cfg["extraction"].update(min_score=math.nan)),
         "number NaN is not finite"),
        (_appended_argv("project.json", b"\xff"),
         "project.json is not UTF-8: 'utf-8' codec can't decode byte 0xff"),
        (_appended_argv("matrices/goal.csv", b"\xff"),
         "cannot read matrix file"),
        (_report_argv("[" * 100_000), "is not valid JSON: nested too deeply"),
        # every config field is typed
        (_config_argv(lambda cfg: cfg.update(criteria=5)),
         "config field criteria must be a list, got 5"),
        (_config_argv(lambda cfg: cfg["criteria"][0].update(bands=5)),
         "config field criteria[0].bands must be a list, got 5"),
        (_config_argv(lambda cfg: cfg["criteria"][0].update(kind=[1])),
         "config field criteria[0].kind must be a string, got [1]"),
        (_config_argv(lambda cfg: cfg["criteria"][0].update(layer=5)),
         "config field criteria[0].layer must be a string, got 5"),
        (_config_argv(lambda cfg: cfg["hierarchy"]["nodes"][0].update(children=5)),
         "config field hierarchy.nodes[0].children must be a list of strings, got 5"),
        (_config_argv(lambda cfg: cfg["hierarchy"]["nodes"][0].update(id=[1])),
         "config field hierarchy.nodes[0].id must be a string, got [1]"),
        (_config_argv(lambda cfg: cfg["hierarchy"].update(root=[1])),
         "config field hierarchy.root must be a string, got [1]"),
        (_config_argv(lambda cfg: cfg["hierarchy"]["nodes"][0].update(matrix=5)),
         "config field hierarchy.nodes[0].matrix must be a string, got 5"),
        (_config_argv(lambda cfg: cfg.update(demand_areas=5)),
         "config field demand_areas must be a string, got 5"),
        # the cell centers of this grid overflow to inf
        (_config_argv(lambda cfg: cfg["grid"].update(cell_size=1e308)),
         "far corner (inf, inf) must be finite"),
    ])
    def test_malformed_config_or_report_exits_2(self, demo_config_path, tmp_path,
                                                capsys, argv, field):
        code = main(argv(demo_config_path, tmp_path))
        assert code == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (_layer_argv("demand_areas.geojson", lambda layer: layer["features"]),
         "demand_areas.geojson is not a GeoJSON FeatureCollection"),
        (_layer_argv("main_street.geojson", _set_in_features([1], 5)),
         "main_street.geojson feature 1: feature must be an object"),
        (_layer_argv("hotels.geojson",
                     _set_in_features([0, "geometry", "coordinates"], None)),
         "hotels.geojson feature 0: Point geometry has no coordinates"),
        (_layer_argv("parking.geojson",
                     _set_in_features([2, "geometry", "coordinates"], "12")),
         "parking.geojson feature 2: expected an [x, y] position of numbers, got '12'"),
        (_layer_argv("demand_areas.geojson",
                     _set_in_features([3, "properties", "population"], "abc")),
         "demand_areas.geojson feature 3: 'population' must be a number, got 'abc'"),
        (_layer_argv("demand_areas.geojson",
                     _set_in_features([4, "properties", "centroid"], [1])),
         "demand_areas.geojson feature 4: expected an [x, y] position of numbers"),
        (_layer_argv("demand_areas.geojson",
                     _set_in_features([5, "properties", "population"], 10 ** 400)),
         "demand_areas.geojson feature 5: 'population' must be a number"),
        (_layer_argv("demand_areas.geojson",
                     _set_in_features([6, "geometry", "coordinates"],
                                      [[[0, 0], [1, 0], [2, 0], [0, 0]]])),
         "demand_areas.geojson feature 6: polygon area must be strictly positive"),
        # area d05 is the rectangle [960, 1920] x [7500, 9000]
        (_layer_argv("demand_areas.geojson",
                     _set_in_features([4, "properties", "centroid"], [100.0, 100.0])),
         "demand area 'd05': centroid lies outside its geometry"),
        # an integer level too large for a float is a bad raw value, not a crash
        (_layer_argv("density_zones.geojson",
                     _set_in_features([-1, "properties", "level"], 10 ** 400)),
         "criterion 'population_density': raw value 1000"),
        # a category that is no JSON string is not a category
        (_layer_argv("income_zones.geojson",
                     _set_in_features([0, "properties", "level"], ["High"])),
         "criterion 'income_level': category ['High'] not in"),
        (_appended_argv("layers/hotels.geojson", b"\xff"),
         "hotels.geojson is not UTF-8: 'utf-8' codec can't decode byte 0xff"),
        # existing ids come from the layer: one may equal a proposed id or
        # another existing one
        (_layer_argv("own_branches.geojson", _set_in_features([3, "properties", "id"], "p01")),
         "[stage candidates] duplicate candidate id 'p01' after merge"),
        (_layer_argv("own_branches.geojson", _set_in_features([5, "properties", "id"], "e02")),
         "[stage candidates] duplicate candidate id 'e02' after merge"),
    ])
    def test_malformed_layer_exits_2(self, demo_config_path, tmp_path, capsys,
                                     argv, message):
        code = main(argv(demo_config_path, tmp_path))
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (_layer_argv("demand_areas.geojson",
                     _set_in_features([5, "properties", "population"], 10 ** 400)),
         "demand_areas.geojson feature 5: 'population' must be a number, got 1000"),
        (lambda config_path, tmp_path: _huge_radius_solve_argv(tmp_path),
         "coverage standard: radius must be a finite positive number, got 1000"),
    ])
    def test_huge_number_is_shortened_in_the_message(self, demo_config_path, tmp_path,
                                                      capsys, argv, message):
        """A 401-digit number is printed abbreviated, not in full."""
        code = main(argv(demo_config_path, tmp_path))
        err = capsys.readouterr().err
        assert code == 2
        assert message in err
        assert "..." in err and len(err) < 300

    @pytest.mark.parametrize("argv, message", [
        (_layer_argv("hotels.geojson", _set_in_features([0], list(range(5000)))),
         "feature 0: feature must be an object, got [0, 1, 2, 3, 4, 5, ...]"),
        (_layer_argv("hotels.geojson", _set_in_features([0, "geometry", "type"], "x" * 5000)),
         "feature 0: expected Point geometry, got 'xxxxxxxxxxxx...xxxxxxxxxxxxx'"),
        (_layer_argv("hotels.geojson", _set_in_features([0, "properties"], list(range(5000)))),
         "feature 0: properties must be an object, got [0, 1, 2, 3, 4, 5, ...]"),
        (_layer_argv("hotels.geojson", _set_in_features([0, "geometry", "coordinates"],
                                                        [str(i) for i in range(5000)])),
         "feature 0: expected an [x, y] position of numbers, got "
         "['0', '1', '2', '3', '4', '5', ...]"),
        (_layer_argv("income_zones.geojson",
                     _set_in_features([0, "geometry", "coordinates"],
                                      [{str(i): i for i in range(5000)}])),
         "feature 0: polygon ring must be a list, got {'0': 0, '1': 1, '10': 10, '100': 100, ...}"),
    ])
    def test_large_layer_value_is_shortened_in_the_message(self, demo_config_path, tmp_path,
                                                           capsys, argv, message):
        """A layer value of 5,000 items is printed abbreviated, not in full."""
        code = main(argv(demo_config_path, tmp_path))
        err = capsys.readouterr().err
        assert code == 2
        assert message in err
        assert len(err.encode()) < 1000

    def test_locked_output_exits_4(self, demo_config_path, tmp_path):
        out = tmp_path / "locked"
        out.mkdir()
        fd = os.open(out, os.O_RDONLY)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            code = main(["--config", str(demo_config_path), "--out", str(out),
                         "pipeline"])
        finally:
            os.close(fd)
        assert code == 4

    @pytest.mark.parametrize("below, reason", [(False, "File exists"),
                                                (True, "Not a directory")])
    def test_output_path_through_a_file_exits_4(self, demo_config_path, tmp_path, capsys,
                                                 below, reason):
        """An --out that names a file, or a path below one, exits 4 with a
        message that names the output directory."""
        taken = tmp_path / "taken"
        taken.write_text("a file\n")
        out = taken / "sub" if below else taken
        code = main(["--config", str(demo_config_path), "--out", str(out), "weights"])
        assert code == 4
        assert capsys.readouterr().err == (
            f"error: cannot use output directory {out}: {reason}\n")
        assert taken.read_text() == "a file\n"

    @pytest.mark.parametrize("blocker, reason", [("rasters", "File exists"),
                                                 ("score_points.geojson", "Is a directory")])
    def test_target_of_the_wrong_type_exits_4(self, demo_config_path, tmp_path, capsys,
                                              blocker, reason):
        """A file where ``score`` puts its raster directory, or a directory
        where it puts a file, exits 4 naming the output directory and the
        path, before any file is replaced: the old score.asc survives and no
        temporary is left."""
        out = tmp_path / "w"
        out.mkdir()
        (out / "score.asc").write_bytes(b"old score\n")
        if blocker == "rasters":
            (out / blocker).write_text("a file\n")
        else:
            (out / blocker).mkdir()
        code = main(["--config", str(demo_config_path), "--out", str(out), "score"])
        assert code == 4
        assert capsys.readouterr().err == (
            f"error: cannot use output directory {out}: {out / blocker}: {reason}\n")
        assert (out / "score.asc").read_bytes() == b"old score\n"
        assert not [p for p in out.rglob("*") if p.name.endswith(".tmp")]

    def test_leftover_lock_file_does_not_block(self, demo_config_path, tmp_path):
        out = tmp_path / "stale"
        out.mkdir()
        (out / ".branchsite.lock").touch()
        code = main(["--config", str(demo_config_path), "--out", str(out), "weights"])
        assert code == 0

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["--out", str(tmp_path / "o"), "pipeline"]) == 2


def _renamed_criterion_project(config_path, root, new_id, old_id="building_cost"):
    """A copy of the demo project at ``root`` whose criterion ``old_id``, a
    single child with no matrix, is ``new_id`` in the criteria and in the
    hierarchy; returns the copy's project file."""
    shutil.copytree(Path(config_path).parent, root)
    path = root / Path(config_path).name
    cfg = load_config_json(path)
    for entry in cfg["criteria"]:
        if entry["id"] == old_id:
            entry["id"] = new_id
    for node in cfg["hierarchy"]["nodes"]:
        node["children"] = [new_id if c == old_id else c for c in node["children"]]
    path.write_text(json.dumps(cfg))
    return path


BAD_CRITERION_IDS = {"parent_escape": "../../escaped", "subdirectory": "a/b",
                     "backslash": "a\\b", "nul": "a\0b", "dot": ".", "dotdot": "..",
                     "empty": "", "number": 5, "null": None, "list": ["a"]}


class TestCriterionIds:
    """A criterion id names ``rasters/<id>.asc``, so it must be one file name."""

    @pytest.mark.parametrize("name", sorted(BAD_CRITERION_IDS))
    def test_bad_id_exits_2_and_writes_nothing(self, demo_config_path, tmp_path,
                                               capsys, name):
        cid = BAD_CRITERION_IDS[name]
        config = _renamed_criterion_project(demo_config_path, tmp_path / "project", cid)
        out = tmp_path / "project" / "o"
        code = main(["--config", str(config), "--out", str(out), "pipeline"])
        assert code == 2
        assert "criteria[7].id must be a file name" in capsys.readouterr().err
        assert not out.exists()
        assert not list(tmp_path.rglob("*.asc"))

    @pytest.mark.parametrize("cid", ["..a", "a.b", "a b", "été", "-x"])
    def test_unusual_file_names_pass(self, demo_config_path, tmp_path, cid):
        config = _renamed_criterion_project(demo_config_path, tmp_path / "project", cid)
        cfg = load_project(config)
        assert cfg.criteria[7].id == cid
        assert all(cfg.inputs[c.layer_ref].is_file() for c in cfg.criteria)

    def test_demo_ids_name_their_rasters(self, demo_config_path, tmp_path):
        cfg = load_project(demo_config_path)
        out = tmp_path / "o"
        assert main(["--config", str(demo_config_path), "--out", str(out), "score"]) == 0
        assert (sorted(p.name for p in (out / "rasters").iterdir())
                == sorted(f"{c.id}.asc" for c in cfg.criteria))


def _small_project(config_path, root):
    """A copy at ``root`` of the demo project re-gridded to 400 m cells
    (27 x 39 cells), which still proposes candidates and solves p = 1..3;
    returns its project file."""
    shutil.copytree(Path(config_path).parent, root)
    path = root / Path(config_path).name
    cfg = load_config_json(path)
    grid = cfg["grid"]
    scale = grid["cell_size"] / 400.0
    grid.update(cell_size=400.0, ncols=round(grid["ncols"] * scale),
                nrows=round(grid["nrows"] * scale))
    path.write_text(json.dumps(cfg))
    return path


def _small_report(config_path, root):
    """report.json text of the 400 m demo project."""
    return run_pipeline(load_project(_small_project(config_path, root))).to_json()


# What a fuzz mutation may put in place of a value.
FUZZ_VALUES = [None, True, False, 0, -1, 3, 2.5, -0.0, 1e308, 10 ** 400, -10 ** 400,
               math.inf, -math.inf, math.nan, "", "x", [], {}, [0, 0], [[0.5]],
               {"a": 1}]


def _retyped(st, value):
    """``value`` as other JSON types, the same number where it can be."""
    others = [str(value), [value]]
    if isinstance(value, bool):
        others.append(int(value))
    elif isinstance(value, (int, float)):
        others.append(bool(value))
        if isinstance(value, int) and abs(value) <= 2 ** 53:
            others.append(float(value))
        elif isinstance(value, float) and value.is_integer():
            others.append(int(value))
    return st.sampled_from(others)


def _walk(node, data, st):
    """(container, key) where a random walk down the objects and lists
    from ``node`` stops; (None, None) when ``node`` is empty or a scalar."""
    parent, key = None, None
    while isinstance(node, (dict, list)) and node:
        if parent is not None and data.draw(st.booleans()):
            break
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        parent, key = node, data.draw(st.sampled_from(list(keys)))
        node = parent[key]
    return parent, key


def _mutate_at(parent, key, data, st):
    """Delete, replace or retype ``parent[key]``."""
    if parent is None:
        return
    op = data.draw(st.sampled_from(["delete", "replace", "retype"]))
    if op == "delete":
        del parent[key]
    else:
        # a copy: a later mutation may edit a drawn list or dict
        parent[key] = copy.deepcopy(data.draw(
            st.sampled_from(FUZZ_VALUES) if op == "replace" else _retyped(st, parent[key])))


def _mutate(starts, data, st):
    """One or two mutations, each at the end of a walk from one of the
    nodes ``starts`` of a document."""
    for _ in range(data.draw(st.integers(1, 2))):
        _mutate_at(*_walk(data.draw(st.sampled_from(starts)), data, st), data, st)


def _no_constant(name):
    raise AssertionError(f"{name} written into a JSON artifact")


def _invoke_fuzzed(argv):
    """Run the CLI on ``argv``. It either raises a ``BranchSiteError`` with
    its documented exit code (3 for ``SolverRefused``, otherwise 2) and
    returns None, or succeeds and returns the click result."""
    from click.testing import CliRunner

    from branchsite.cli import _exit_code, cli
    from branchsite.errors import BranchSiteError, SolverRefused

    result = CliRunner().invoke(cli, argv, standalone_mode=False)
    exc = result.exception
    if exc is None:
        return result
    assert isinstance(exc, BranchSiteError), result.exc_info
    assert _exit_code(exc) == (3 if isinstance(exc, SolverRefused) else 2), exc
    return None


def _strict_json_files(out):
    """The parsed JSON artifacts under ``out``; NaN or Infinity in any
    fails the test."""
    return {p.name: json.loads(p.read_text(), parse_constant=_no_constant)
            for p in out.rglob("*.*json")}


class TestReportInput:
    @pytest.mark.parametrize("text, message", [
        (_report_variant(values="[[1e400, null]]"), "values holds a non-finite cell"),
        (_report_variant(values="[[NaN, 0.5]]"), "values holds a non-finite cell"),
        (_report_variant(origin="[0, -Infinity]"),
         "report field grid.origin[1] must be a number, got -inf"),
        (_report_variant(cell_size="1e400"),
         "report field grid.cell_size must be a number, got inf"),
        (_report_variant(cell_size="1e308"), "far corner (inf, 1e+308) must be finite"),
    ])
    def test_non_finite_grid_or_cell_rejected_by_render_report(self, tmp_path, text,
                                                               message):
        with pytest.raises(InputError, match=re.escape(message)):
            render_report(json.loads(text), tmp_path / "o")
        assert not (tmp_path / "o").exists()

    def test_unknown_combine_mode_exits_2(self, tmp_path, capsys):
        text = _report_variant().replace('"weighted_sum"', '"bogus"')
        assert main(_report_argv(text)(None, tmp_path)) == 2
        assert ("report is malformed: 'bogus' is not a valid CombineMode"
                in capsys.readouterr().err)
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("mutate, message", [
        (lambda d: d["candidates"][0].update(location="ab"),
         "report field candidates[0].location must be [x, y], got 'ab'"),
        (lambda d: d["candidates"][-1].update(location=[1.0, 2.0, 3.0]),
         "report field candidates[22].location must be [x, y], got [1.0, 2.0, 3.0]"),
        (lambda d: d.update(config_digest=5),
         "report field config_digest must be a string, got 5"),
        (lambda d: d.update(mode=5),
         "report field mode must be one of ('planar', 'geodesic'), got 5"),
        (lambda d: d.update(score_raster={"values": 5}),
         "report field score_raster.values must be a list, got 5"),
        (lambda d: d.update(score_raster=5),
         "report field score_raster must be an object, got 5"),
        (lambda d: d["candidates"][0].update(id=5),
         "report field candidates[0].id must be a string, got 5"),
        (lambda d: d["candidates"][1].update(tier=[1]),
         "report field candidates[1].tier must be one of ('first', 'second', 'third') "
         "or null, got [1]"),
        (lambda d: d["candidates"][2].update(origin={"a": 1}),
         "report field candidates[2].origin must be one of ('proposed', 'existing'), "
         "got {'a': 1}"),
        (lambda d: d["candidates"][3].update(fixed_open="yes"),
         "report field candidates[3].fixed_open must be true or false, got 'yes'"),
        (lambda d: d["candidates"][4].update(score="0.5"),
         "report field candidates[4].score must be a number or null, got '0.5'"),
        (lambda d: d["curve"][0].update(p="x"),
         "report field curve[0].p must be an integer, got 'x'"),
        (lambda d: d["curve"][-1].update(coverage_pct="x"),
         "report field curve[2].coverage_pct must be a number, got 'x'"),
        (lambda d: d["curve"][1].update(selected=5),
         "report field curve[1].selected must be a list of strings, got 5"),
        (lambda d: d.update(curve=5), "report field curve must be a list or null, got 5"),
        (lambda d: d.update(instance=5),
         "report field instance must be an object or null, got 5"),
    ], ids=["location_string", "location_triple", "config_digest", "mode",
            "score_raster_values", "score_raster", "candidate_id", "candidate_tier",
            "candidate_origin", "candidate_fixed_open", "candidate_score", "curve_p",
            "curve_coverage_pct", "curve_selected", "curve", "instance"])
    def test_mistyped_demo_report_field_exits_2(self, demo_report, tmp_path, capsys,
                                                 mutate, message):
        data = json.loads(demo_report.to_json())
        mutate(data)
        assert main(_report_argv(json.dumps(data))(None, tmp_path)) == 2
        assert f"error: {message}\n" == capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_valid_variant_renders(self, tmp_path):
        assert main(_report_argv(_report_variant())(None, tmp_path)) == 0
        assert (tmp_path / "o" / "score.asc").read_text().startswith("NCOLS 2\nNROWS 1\n")

    def test_fuzzed_report_succeeds_or_exits_2(self, demo_config_path, tmp_path):
        """Random deletions, type changes and non-finite or huge numbers in a
        pipeline report.json: ``report`` either raises a ``BranchSiteError``
        that exits 2, or succeeds with strict JSON artifacts, an Esri header
        with integer sizes and a report.json that reads back as its input."""
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        base = _small_report(demo_config_path, tmp_path / "project")

        def site(doc, data):
            """(container, key) of the value to mutate: where a walk from the
            top or from the grid stops, or a scored cell."""
            region = data.draw(st.sampled_from(["cell", "grid", "top"]))
            if region == "cell":
                try:
                    cells = [(row, j) for row in doc["score_raster"]["values"]
                             for j, v in enumerate(row) if isinstance(v, float)]
                except (KeyError, TypeError):
                    cells = []
                if cells:
                    return data.draw(st.sampled_from(cells))
            node = doc
            if region == "grid" and isinstance(doc.get("grid"), dict) and doc["grid"]:
                node = doc["grid"]
            return _walk(node, data, st)

        @hypothesis.settings(max_examples=200, deadline=None)
        @hypothesis.given(data=st.data())
        def check(data):
            doc = json.loads(base)
            for _ in range(data.draw(st.integers(1, 2))):
                _mutate_at(*site(doc, data), data, st)
            work = Path(tempfile.mkdtemp(dir=tmp_path))
            try:
                (work / "report.json").write_text(json.dumps(doc))
                result = _invoke_fuzzed(["--out", str(work / "o"), "report", "--report",
                                         str(work / "report.json")])
                if result is None:
                    return
                parsed = _strict_json_files(work / "o")
                asc = (work / "o" / "score.asc").read_text()
            finally:
                shutil.rmtree(work)
            assert _same_json(parsed["report.json"], doc)
            assert re.match(r"NCOLS \d+\nNROWS \d+\n", asc)

        check()


class TestInputFuzz:
    """Random deletions, type changes and non-finite or huge numbers in the
    400 m demo project's config, one of its layers, or its coverage
    instance: the command either raises a ``BranchSiteError`` with its
    documented exit code, or succeeds and writes strict JSON artifacts."""

    def test_fuzzed_config_succeeds_or_exits_2(self, demo_config_path, tmp_path):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        path = _small_project(demo_config_path, tmp_path / "project")
        base = path.read_text()
        fuzzed = path.with_name("fuzzed.json")  # beside it: layer paths resolve

        @hypothesis.settings(max_examples=100, deadline=None)
        @hypothesis.given(data=st.data())
        def check(data):
            cfg = json.loads(base)
            _mutate([cfg, cfg["grid"], cfg["criteria"], cfg["hierarchy"]["nodes"],
                     cfg["extraction"], cfg["standard"]], data, st)
            fuzzed.write_text(json.dumps(cfg))
            out = Path(tempfile.mkdtemp(dir=tmp_path))
            try:
                if _invoke_fuzzed(["--config", str(fuzzed), "--out", str(out),
                                   "pipeline"]):
                    assert "report.json" in _strict_json_files(out)
            finally:
                shutil.rmtree(out)

        check()

    def test_fuzzed_layer_succeeds_or_exits_2(self, demo_config_path, tmp_path):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        path = _small_project(demo_config_path, tmp_path / "project")
        cfg = load_project(path)
        layers = sorted({p for p in cfg.inputs.values() if p.suffix == ".geojson"})
        originals = {layer: layer.read_text() for layer in layers}

        @hypothesis.settings(max_examples=100, deadline=None)
        @hypothesis.given(data=st.data())
        def check(data):
            layer = data.draw(st.sampled_from(layers))
            doc = json.loads(originals[layer])
            feature = data.draw(st.sampled_from(doc["features"]))
            _mutate([doc, doc["features"], feature, feature["properties"],
                     feature["geometry"]], data, st)
            layer.write_text(json.dumps(doc))
            out = Path(tempfile.mkdtemp(dir=tmp_path))
            try:
                if _invoke_fuzzed(["--config", str(path), "--out", str(out),
                                   "pipeline"]):
                    assert "report.json" in _strict_json_files(out)
            finally:
                layer.write_text(originals[layer])
                shutil.rmtree(out)

        check()

    def test_fuzzed_instance_succeeds_or_exits_2(self, demo_config_path, tmp_path):
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies
        report = json.loads(_small_report(demo_config_path, tmp_path / "project"))
        base = json.dumps(report["instance"])

        @hypothesis.settings(max_examples=200, deadline=None)
        @hypothesis.given(data=st.data())
        def check(data):
            doc = json.loads(base)
            _mutate([doc, doc["areas"], doc["candidates"], doc["matrix"]], data, st)
            work = Path(tempfile.mkdtemp(dir=tmp_path))
            try:
                (work / "instance.json").write_text(json.dumps(doc))
                if _invoke_fuzzed(["--out", str(work / "o"), "solve", "--instance",
                                   str(work / "instance.json"), "--p-max", "2"]):
                    assert "solutions.json" in _strict_json_files(work / "o")
            finally:
                shutil.rmtree(work)

        check()


def _same_json(a, b) -> bool:
    """JSON equality where a bool equals only a bool (``1 == True`` in
    Python) and an int equals the float of its value."""
    if isinstance(a, bool) or isinstance(b, bool):
        return type(a) is type(b) and a == b
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same_json(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_same_json, a, b))
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return a == b
    return type(a) is type(b) and a == b

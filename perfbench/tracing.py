"""Outside-in tracing of branchsite's public functions.

The tracer rebinds each public function under the name its caller looks it
up by (a module global of ``branchsite.cli``, ``branchsite.project`` or
``branchsite.mclp``), so the package itself is not edited. Every call then
records a span: name, start, end, parent span and iteration id. Spans stay
in memory until the run ends. ``layer_metrics`` turns the spans of one
iteration into self times and counts; ``summarize`` averages them over the
traced iterations.
"""

from __future__ import annotations

import importlib
import json
import math
import time
from pathlib import Path

# The names each module's code calls through its own globals.
WRAPPED = {
    "branchsite.cli": (
        "load_project", "run_pipeline", "write_pipeline_artifacts",
        "instance_from_json", "coverage_curve",
    ),
    "branchsite.project": (
        "evaluate_weights", "build_surface", "build_candidate_set",
        "load_demand_layer", "load_zone_layer", "load_point_layer",
        "build_mask", "rasterize", "combine", "extract", "build_coverage",
        "coverage_curve", "esri_ascii_text", "score_points_geojson",
    ),
    "branchsite.mclp": (
        "build_coverage", "solve_exact", "solve_greedy", "improve_swap",
    ),
}

# Spans whose arguments or result feed a count; kept until the iteration ends.
_KEEP_CALL = {"overlay.rasterize", "overlay.build_mask", "candidates.extract",
              "mclp.build_coverage", "mclp.improve_swap", "mclp.solve_exact"}

ROOT = "cli.main"

# Per-iteration self times. Together they partition the traced wall time.
SELF_TIME_METRICS = (
    "overlay.build_mask_s", "overlay.rasterize_distance_s",
    "overlay.rasterize_zone_s", "overlay.combine_s",
    "overlay.esri_ascii_text_s", "overlay.score_points_geojson_s",
    "project.load_project_s", "project.load_layers_s", "weights.evaluate_s",
    "project.report_build_s", "project.write_self_s", "candidates.extract_s",
    "mclp.instance_from_json_s", "mclp.build_coverage_s",
    "mclp.solve_greedy_s", "mclp.improve_swap_s", "mclp.curve_self_s",
    "mclp.solve_exact_s", "cli.self_s", "trace.other_self_s",
)

# Metrics that count work; they must repeat exactly between runs.
COUNT_METRICS = (
    "overlay.distance_pairs", "overlay.pip_cell_edges",
    "project.artifact_bytes", "project.artifact_files", "mclp.matrix_pairs",
    "candidates.eligible_cells", "candidates.proposed",
    "mclp.swap_improved_frac",
)

# Self time of these spans goes to the named metric.
_SELF_OF = {
    "overlay.build_mask": "overlay.build_mask_s",
    "overlay.combine": "overlay.combine_s",
    "overlay.esri_ascii_text": "overlay.esri_ascii_text_s",
    "overlay.score_points_geojson": "overlay.score_points_geojson_s",
    "project.load_project": "project.load_project_s",
    "project.load_demand_layer": "project.load_layers_s",
    "project.load_zone_layer": "project.load_layers_s",
    "project.load_point_layer": "project.load_layers_s",
    "project.evaluate_weights": "weights.evaluate_s",
    "project.run_pipeline": "project.report_build_s",
    "project.write_pipeline_artifacts": "project.write_self_s",
    "candidates.extract": "candidates.extract_s",
    "mclp.instance_from_json": "mclp.instance_from_json_s",
    "mclp.build_coverage": "mclp.build_coverage_s",
    "mclp.solve_greedy": "mclp.solve_greedy_s",
    "mclp.improve_swap": "mclp.improve_swap_s",
    "mclp.coverage_curve": "mclp.curve_self_s",
    "mclp.solve_exact": "mclp.solve_exact_s",
    ROOT: "cli.self_s",
}

UNITS = {name: "s" for name in SELF_TIME_METRICS}
UNITS.update({
    "overlay.distance_pairs": "count",
    "overlay.ns_per_distance_pair": "ns",
    "overlay.pip_cell_edges": "count",
    "project.write_artifacts_s": "s",
    "project.artifact_bytes": "bytes",
    "project.artifact_files": "count",
    "candidates.eligible_cells": "count",
    "candidates.proposed": "count",
    "candidates.accept_ratio": "ratio",
    "mclp.matrix_pairs": "count",
    "mclp.matrix_density": "ratio",
    "mclp.swap_improved_frac": "ratio",
    "mclp.solve_exact_last_p_s": "s",
    "cli.cpu_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
})


def _span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    """Wraps the public functions while installed; restores them on exit."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent, iteration, call]
        self.iteration = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self):
        for module_name, names in WRAPPED.items():
            module = importlib.import_module(module_name)
            for name in names:
                fn = getattr(module, name)
                self._saved.append((module, name, fn))
                setattr(module, name, self._wrap(fn))
        return self

    def __exit__(self, *exc):
        for module, name, fn in reversed(self._saved):
            setattr(module, name, fn)
        self._saved.clear()
        return False

    def _wrap(self, fn, name: str | None = None):
        name = name or _span_name(fn)
        keep = name in _KEEP_CALL
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else None,
                   self.iteration, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
            if keep:
                rec[5] = (args, kwargs, result)
            return result

        return traced

    def run(self, iteration: int, main, argv) -> int:
        """One traced call of ``main`` as the iteration's root span."""
        self.iteration = iteration
        return self._wrap(main, ROOT)(argv)

    def end_iteration(self) -> dict:
        """Metrics of the current iteration; drops the kept call arguments."""
        positions = [k for k, s in enumerate(self.spans) if s[4] == self.iteration]
        metrics = layer_metrics(self.spans, positions)
        for k in positions:
            self.spans[k][5] = None
        return metrics

    def dump(self, path: Path) -> None:
        names = ("name", "start", "end", "parent", "iteration")
        path.write_text(json.dumps(
            [dict(zip(names, s[:5])) for s in self.spans]) + "\n")


def _ring_edges(poly) -> int:
    return len(poly.exterior) + sum(len(h) for h in poly.holes)


def layer_metrics(spans: list[list], positions: list[int]) -> dict:
    """Self times and counts of one iteration, from its span positions."""
    child_time = dict.fromkeys(positions, 0.0)
    for k in positions:
        parent = spans[k][3]
        if parent is not None:
            child_time[parent] += spans[k][2] - spans[k][1]

    m = dict.fromkeys(SELF_TIME_METRICS, 0.0)
    m.update(dict.fromkeys(COUNT_METRICS, 0))
    m.update({"project.write_artifacts_s": 0.0, "mclp.solve_exact_last_p_s": 0.0})
    covered_pairs = 0
    swaps = improved = 0
    last_p = 0
    for k in positions:
        name, start, end, _parent, _it, call = spans[k]
        self_s = end - start - child_time[k]
        if call is None and name in _KEEP_CALL:   # the call raised
            m["trace.other_self_s"] += self_s
            continue
        if name == "overlay.rasterize":
            spec, features, grid = call[0][:3]
            if spec.kind == "distance":
                m["overlay.rasterize_distance_s"] += self_s
                m["overlay.distance_pairs"] += grid.nrows * grid.ncols * len(features)
            else:
                m["overlay.rasterize_zone_s"] += self_s
                edges = sum(_ring_edges(poly) for poly, _ in features)
                m["overlay.pip_cell_edges"] += grid.nrows * grid.ncols * edges
        else:
            m[_SELF_OF.get(name, "trace.other_self_s")] += self_s
        if name == "overlay.build_mask":
            grid, polygons = call[0][:2]
            edges = sum(_ring_edges(poly) for poly in polygons)
            m["overlay.pip_cell_edges"] += grid.nrows * grid.ncols * edges
        elif name == "project.write_pipeline_artifacts":
            m["project.write_artifacts_s"] += end - start
        elif name == "candidates.extract":
            raster, cfg = call[0][:2]
            v = raster.values  # NaN cells compare False, so they drop out
            m["candidates.eligible_cells"] += int(
                ((v > 0.0) & (v >= cfg.min_score)).sum())
            m["candidates.proposed"] += len(call[2])
        elif name == "mclp.build_coverage":
            matrix = call[2].matrix
            m["mclp.matrix_pairs"] += matrix.size
            covered_pairs += int(matrix.sum())
        elif name == "mclp.improve_swap":
            swaps += 1
            improved += int(call[2].objective > call[0][1].objective)
        elif name == "mclp.solve_exact":
            p = call[0][1] if len(call[0]) > 1 else call[1]["p"]
            if p >= last_p:
                last_p = p
                m["mclp.solve_exact_last_p_s"] = end - start
    m["candidates.accept_ratio"] = _ratio(m["candidates.proposed"],
                                          m["candidates.eligible_cells"])
    m["mclp.matrix_density"] = _ratio(covered_pairs, m["mclp.matrix_pairs"])
    m["mclp.swap_improved_frac"] = _ratio(improved, swaps)
    return m


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def summarize(per_iteration: list[dict], traced_walls: list[float],
              untraced_walls: list[float], cpu: list[float]) -> dict:
    """Per-layer metrics of a traced run: times are means per iteration,
    counts and ratios are those of the first iteration (``counts_repeat``
    checks that the others agree)."""
    out = {}
    for name in per_iteration[0]:
        values = [it[name] for it in per_iteration]
        out[name] = _mean(values) if UNITS[name] == "s" else values[0]
    pairs_s = out["overlay.rasterize_distance_s"]
    out["overlay.ns_per_distance_pair"] = _ratio(
        pairs_s * 1e9, out["overlay.distance_pairs"])
    out["cli.cpu_s"] = _mean(cpu)
    out["trace.wall_s"] = _mean(traced_walls)
    out["trace.untraced_wall_s"] = _mean(untraced_walls)
    out["trace.overhead_s"] = out["trace.wall_s"] - out["trace.untraced_wall_s"]
    return out


def counts_repeat(per_iteration: list[dict]) -> bool:
    first = per_iteration[0]
    return all(it[n] == first[n] for it in per_iteration for n in COUNT_METRICS)


def _mean(values: list[float]) -> float:
    return math.fsum(values) / len(values)

"""Project configuration, GeoJSON ingestion, the end-to-end pipeline, and
report rendering.

A project is one JSON file declaring the coordinate mode, analysis grid,
score scheme, criterion specs with their layer files, the judgment-matrix
hierarchy, extraction and coverage parameters, and the solver. Loading is
fail-fast: schema problems, missing files, unnormalizable criteria, and
consistency-gate failures all abort before any computation starts.

The pipeline is a pure function of the config and its input files; two runs
produce byte-identical artifacts (no timestamps anywhere).
"""

from __future__ import annotations

import hashlib
import reprlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple

import numpy as np

from .candidates import (
    ORIGIN_EXISTING,
    ORIGIN_PROPOSED,
    TIERS,
    ExtractionConfig,
    candidates_geojson,
    extract,
    merge_existing,
)
from .criteria import (
    Band,
    CriterionSpec,
    KIND_CATEGORICAL,
    KIND_DENSITY,
    NormalizedCriterion,
    ScoreScheme,
    SuitabilityClass,
    validate_spec,
)
from .errors import (
    BranchSiteError,
    ConfigError,
    DomainError,
    InputError,
    StageError,
)
from .fields import (
    BOOL,
    INTEGER,
    LIST,
    MODE,
    NUMBER,
    OBJECT,
    STRING,
    XY,
    Chunks,
    Kind,
    get,
    is_int,
    is_number,
    json_text,
    one_of,
    positions,
    read_json,
    write_artifacts,
)
from .geo import (
    GEODESIC,
    Polygon,
    check_geodesic_range,
    polygons,
    representative_points,
)
from .mclp import (
    CoverageStandard,
    MclpInstance,
    METHODS,
    build_coverage,
    coverage_curve,
    curve_files,
)
from .overlay import (
    CombineMode,
    GridSpec,
    SuitabilityRaster,
    build_mask,
    combine,
    esri_ascii_text,
    parse_combine_mode,
    rasterize,
    report_json_text,
    score_points_geojson,
)
from .weights import (
    DEFAULT_CR_THRESHOLD,
    GateResult,
    Hierarchy,
    HierarchyNode,
    WeightVector,
    gate_hierarchy,
    load_matrix_csv,
    synthesize,
)


@dataclass(frozen=True)
class ProjectConfig:
    path: Path
    digest: str
    mode: str
    grid: GridSpec
    scheme: ScoreScheme
    combine_mode: CombineMode
    criteria: tuple[NormalizedCriterion, ...]
    # every file the pipeline reads, keyed by its path as the config wrote
    # it (the project file by its name)
    inputs: dict[str, Path]
    demand_path: Path
    existing_path: Path
    hierarchy: Hierarchy
    cr_threshold: float
    gates: tuple[GateResult, ...]  # one per matrix, computed at load
    extraction: ExtractionConfig
    standard: CoverageStandard
    p_max: int
    solver: str

    @property
    def meta(self) -> dict:
        """The keys that make each JSON artifact self-describing."""
        return {"config_digest": self.digest, "mode": self.mode}


def _grid(d: dict, source: str) -> GridSpec:
    """The ``grid`` of a config or a report. A report's values are
    re-rendered as they stand, so a float ``ncols`` would give an invalid
    Esri header."""
    g = get(d, "grid", OBJECT, source)
    origin_x, origin_y = get(g, "origin", XY, source, "grid")
    return GridSpec(origin_x=origin_x, origin_y=origin_y,
                    cell_size=get(g, "cell_size", NUMBER, source, "grid"),
                    ncols=get(g, "ncols", INTEGER, source, "grid"),
                    nrows=get(g, "nrows", INTEGER, source, "grid"))


_CLASS = one_of(tuple(c.value for c in SuitabilityClass))
_POSITIVE_INT = Kind("an integer >= 1", lambda v: v if is_int(v) and v >= 1 else None)


def _parse_bands(entries: list, path: str) -> tuple[Band, ...]:
    bands = []
    for i, entry in enumerate(entries):
        lo = get(entry, "min", NUMBER, "config", path, i)
        hi = (None if entry.get("max") is None
              else get(entry, "max", NUMBER, "config", path, i))
        cls = SuitabilityClass(get(entry, "class", _CLASS, "config", path, i))
        bands.append(Band(lo, hi, cls))
    return tuple(bands)


# A criterion id names its raster, ``rasters/<id>.asc``, so it must be one
# file-name component: a write may not leave the output directory.
_FILE_NAME = Kind(
    "a file name, not empty, '.' or '..' and without '/', '\\' or NUL",
    lambda v: (v if isinstance(v, str) and v not in ("", ".", "..")
               and not any(c in v for c in "/\\\0") else None))

_NAMES = Kind("a list of strings",
              lambda v: v if isinstance(v, list) and all(isinstance(c, str) for c in v)
              else None)


def _parse_criterion(entry: dict, idx: int, resolve: Callable) -> NormalizedCriterion:
    where = f"criteria[{idx}]"
    cid = get(entry, "id", _FILE_NAME, "config", "criteria", idx)
    kind = get(entry, "kind", STRING, "config", "criteria", idx)
    layer_rel = get(entry, "layer", STRING, "config", "criteria", idx)
    resolve(layer_rel, f"{where}.layer")
    if "categories" in entry:
        categories = get(entry, "categories", OBJECT, "config", "criteria", idx)
        spec = CriterionSpec(
            id=cid, kind=kind, layer_ref=layer_rel,
            categories={name: SuitabilityClass(get(categories, name, _CLASS, "config",
                                                   f"{where}.categories"))
                        for name in categories})
    else:
        bands = _parse_bands(get(entry, "bands", LIST, "config", "criteria", idx),
                             f"{where}.bands")
        spec = CriterionSpec(id=cid, kind=kind, bands=bands, layer_ref=layer_rel,
                             direction=get(entry, "direction", STRING, "config",
                                           "criteria", idx, default="band"))
    return validate_spec(spec)


def _parse_hierarchy(cfg: dict, resolve: Callable) -> tuple[Hierarchy, float]:
    hcfg = get(cfg, "hierarchy", OBJECT, "config")
    threshold = get(hcfg, "cr_threshold", NUMBER, "config", "hierarchy",
                    default=DEFAULT_CR_THRESHOLD)
    nodes = []
    for i, entry in enumerate(get(hcfg, "nodes", LIST, "config", "hierarchy")):
        node_id = get(entry, "id", STRING, "config", "hierarchy.nodes", i)
        children = tuple(get(entry, "children", _NAMES, "config", "hierarchy.nodes", i))
        matrix = None
        if entry.get("matrix") is not None:
            matrix_rel = get(entry, "matrix", STRING, "config", "hierarchy.nodes", i)
            # keep the config-relative path as the matrix id for reporting
            matrix = load_matrix_csv(resolve(matrix_rel), matrix_id=matrix_rel)
        nodes.append(HierarchyNode(node_id, children, matrix))
    root = get(hcfg, "root", STRING, "config", "hierarchy")
    return Hierarchy(nodes=tuple(nodes), root=root), threshold


def load_project(path: str | Path) -> ProjectConfig:
    """Parse and validate a project file; every gate and schema check runs now."""
    path = Path(path)
    raw, cfg = read_json(path, ConfigError, "config")
    digest = hashlib.sha256(raw).hexdigest()
    inputs = {path.name: path}

    def resolve(ref: str, field: str | None = None) -> Path:
        """The file ``ref`` names, entered in ``inputs``; given the config
        ``field`` that names it, it must exist."""
        file = inputs[ref] = path.parent / ref
        if field is not None and not file.is_file():
            raise ConfigError(f"{field}: file not found: {file}")
        return file

    mode = get(cfg, "mode", MODE, "config")
    grid = _grid(cfg, "config")
    if mode == GEODESIC:
        # the centers are monotone in row and column, so the first and the
        # last cell bound every cell, masked or not
        xs, ys = grid.center_axes()
        try:
            check_geodesic_range(xs[[0, -1]], ys[[0, -1]])
        except DomainError as exc:
            raise ConfigError(f"config field grid: {exc}") from None

    scfg = get(cfg, "scheme", OBJECT, "config", default={})
    scheme = ScoreScheme(
        high=get(scfg, "high", NUMBER, "config", "scheme", default=0.6),
        mid=get(scfg, "mid", NUMBER, "config", "scheme", default=0.4),
        non=get(scfg, "non", NUMBER, "config", "scheme", default=0.0),
    )

    combine_mode = parse_combine_mode(cfg.get("combine_mode", "weighted_geometric"))

    criteria = []
    declared: set[str] = set()
    for i, entry in enumerate(get(cfg, "criteria", LIST, "config")):
        spec = _parse_criterion(entry, i, resolve)
        if spec.id in declared:
            raise ConfigError(f"criteria[{i}]: duplicate criterion id {spec.id!r}")
        criteria.append(spec)
        declared.add(spec.id)

    hierarchy, cr_threshold = _parse_hierarchy(cfg, resolve)
    leaves = set(hierarchy.leaves())
    missing = leaves - declared
    if missing:
        raise ConfigError(
            f"hierarchy references undeclared criteria: {sorted(missing)}"
        )
    unused = declared - leaves
    if unused:
        raise ConfigError(
            f"criteria never referenced by the hierarchy: {sorted(unused)}"
        )

    gates = gate_hierarchy(hierarchy, cr_threshold)   # fail fast on inconsistent matrices
    demand_path, existing_path = (
        resolve(get(cfg, key, STRING, "config"), f"config.{key}")
        for key in ("demand_areas", "existing_branches"))

    ecfg = get(cfg, "extraction", OBJECT, "config")
    extraction = ExtractionConfig(
        min_score=get(ecfg, "min_score", NUMBER, "config", "extraction"),
        min_separation=get(ecfg, "min_separation", NUMBER, "config", "extraction"),
        max_proposed=get(ecfg, "max_proposed", INTEGER, "config", "extraction"),
    )

    standard = CoverageStandard.from_dict(get(cfg, "standard", OBJECT, "config"))
    p_max = get(cfg, "p_max", _POSITIVE_INT, "config")
    solver = get(cfg, "solver", one_of(METHODS), "config", default="exact")

    return ProjectConfig(
        path=path, digest=digest, mode=mode, grid=grid, scheme=scheme,
        combine_mode=combine_mode, criteria=tuple(criteria), inputs=inputs,
        demand_path=demand_path, existing_path=existing_path,
        hierarchy=hierarchy, cr_threshold=cr_threshold, gates=gates,
        extraction=extraction, standard=standard, p_max=p_max, solver=solver,
    )


def _feature_list(path: Path) -> list:
    """The features of the GeoJSON FeatureCollection at ``path``."""
    _, data = read_json(path, InputError, "layer")
    if (not isinstance(data, dict) or data.get("type") != "FeatureCollection"
            or not isinstance(data.get("features"), list)):
        raise InputError(f"layer {path} is not a GeoJSON FeatureCollection")
    return data["features"]


def _walk(path: Path, features: list) -> Iterator[tuple[int, str, dict]]:
    """(index, "<path> feature <index>", feature) for each feature, which
    must be an object."""
    for i, feat in enumerate(features):
        where = f"{path} feature {i}"
        if not isinstance(feat, dict):
            raise InputError(f"{where}: feature must be an object, got {reprlib.repr(feat)}")
        yield i, where, feat


def _coordinates(feat: dict, kind: str, where: str):
    geom = feat.get("geometry") or {}
    gtype = geom.get("type") if isinstance(geom, dict) else None
    if gtype != kind:
        raise InputError(f"{where}: expected {kind} geometry, got {reprlib.repr(gtype)}")
    if "coordinates" not in geom:
        raise InputError(f"{where}: {kind} geometry has no coordinates")
    return geom["coordinates"]


def _properties(feat: dict, where: str) -> dict:
    props = feat.get("properties") or {}
    if not isinstance(props, dict):
        raise InputError(f"{where}: properties must be an object, got {reprlib.repr(props)}")
    return props


def _position(value, where: str, mode: str) -> tuple[float, float]:
    """A GeoJSON position [x, y, ...] in the coordinate mode, as (x, y);
    coordinates past the second are ignored."""
    if (not isinstance(value, list) or len(value) < 2
            or not all(is_number(v) for v in value[:2])):
        raise InputError(
            f"{where}: expected an [x, y] position of numbers, got {reprlib.repr(value)}")
    x, y = float(value[0]), float(value[1])
    if mode == GEODESIC:
        try:
            check_geodesic_range(x, y)
        except DomainError:
            raise InputError(f"{where}: coordinates ({x}, {y}) out of lon/lat range") from None
    return x, y


def _positions(values: list, mode: str) -> np.ndarray | None:
    """``fields.positions`` of the values in the coordinate mode: None
    where ``_position`` would raise for one of them."""
    xy = positions(values)
    if xy is not None and mode == GEODESIC:
        try:
            check_geodesic_range(xy[:, 0], xy[:, 1])
        except DomainError:
            return None
    return xy


class PointLayer(NamedTuple):
    """A point layer as columns: each feature's ``id`` property as a string
    (None where it has none), and its position as a row of the read-only
    n x 2 float64 ``xy``."""

    ids: tuple
    xy: np.ndarray


def _layer(path: Path, mode: str, kind: str,
           read: Callable) -> tuple[np.ndarray | list, list, InputError | None]:
    """The shapes of the ``kind`` ("Point" or "Polygon") features of the
    layer at ``path`` and ``read(i, where, properties)`` of each, up to the
    first bad feature, and its error or None. A Point layer's shapes are
    the rows of one read-only n x 2 float64 array, a Polygon layer's are
    polygons. One walk reads each feature's geometry, then its properties;
    one ``fields.positions`` call types every position (a Point's, or each
    vertex of a Polygon's rings), and one ``geo.polygons`` call checks
    every ring. So a feature's geometry fault is named before its property
    fault, and the error is the first bad feature's. Positions are walked
    with ``_position`` only to name a bad one."""
    geoms, rows = [], []
    error = None
    try:
        for i, where, feat in _walk(path, _feature_list(path)):
            geom = _coordinates(feat, kind, where)
            if kind == "Polygon":
                if not isinstance(geom, list) or not geom:
                    raise InputError(f"{where}: polygon has no rings")
                for ring in geom:
                    if not isinstance(ring, list):
                        raise InputError(
                            f"{where}: polygon ring must be a list, got {reprlib.repr(ring)}")
            geoms.append(geom)
            rows.append(read(i, where, _properties(feat, where)))
    except InputError as exc:
        error = exc

    def vertices(coords: list) -> list:
        """The positions of the ``kind`` coordinates ``coords``, end to end."""
        if kind == "Point":
            return coords
        return [v for rings in coords for ring in rings for v in ring]

    xy = _positions(vertices(geoms), mode)
    if xy is None:
        for i, geom in enumerate(geoms):
            try:
                for v in vertices([geom]):
                    _position(v, f"{path} feature {i}", mode)
            except InputError as exc:
                error, geoms = exc, geoms[:i]
                break
        else:
            raise AssertionError(f"the positions of layer {path} failed but every one reads")
        xy = _positions(vertices(geoms), mode)
    if kind == "Point":
        xy.flags.writeable = False
        shapes = xy
    else:
        shapes, fault = polygons(xy, [len(ring) for rings in geoms for ring in rings],
                                 [len(rings) for rings in geoms])
        if fault is not None:
            error = InputError(f"{path} feature {len(shapes)}: {fault}")
    n = min(len(shapes), len(rows))  # the index of the bad feature
    return shapes[:n], rows[:n], error


def _id(props: dict) -> str | None:
    """A feature's ``id`` property as a string; None where it has none or
    it is null."""
    fid = props.get("id")
    return None if fid is None else str(fid)


def load_point_layer(path: Path, mode: str) -> PointLayer:
    """The Point features of the layer at ``path``."""
    xy, ids, error = _layer(path, mode, "Point", lambda i, where, props: _id(props))
    if error is not None:
        raise error
    return PointLayer(tuple(ids), xy)


def load_zone_layer(path: Path, mode: str) -> list[tuple[Polygon, object]]:
    def level(i, where, props):
        if "level" not in props:
            raise InputError(f"{where}: zone polygon is missing the 'level' property")
        return props["level"]

    polys, levels, error = _layer(path, mode, "Polygon", level)
    if error is not None:
        raise error
    return list(zip(polys, levels))


class DemandLayer(NamedTuple):
    """A demand layer as columns: the areas' ids, their populations as a
    read-only float64 array, their centroids (each a point inside its area)
    as a read-only n x 2 float64 array, and their polygons."""

    ids: tuple
    populations: np.ndarray
    centroids: np.ndarray
    polygons: tuple


def load_demand_layer(path: Path, mode: str) -> DemandLayer:
    """The demand areas of the layer at ``path``. An area without a
    ``centroid`` property gets a point inside it (see
    ``geo.representative_points``), and every centroid, given or not, is
    tested in one kernel call. A bad feature's error is raised only once
    the centroids of the features before it are found inside, so the error
    named is the first in feature order."""

    def area(i, where, props):
        if "population" not in props:
            raise InputError(f"{where}: demand area is missing the 'population' property")
        population = props["population"]
        if not is_number(population):
            raise InputError(
                f"{where}: 'population' must be a number, got {reprlib.repr(population)}")
        area_id = _id(props)
        if area_id is None:
            area_id = f"area{i + 1:02d}"
        centroid = props.get("centroid")
        xy = (np.nan, np.nan) if centroid is None else _position(centroid, where, mode)
        if population < 0:
            raise InputError(
                f"demand area {area_id!r}: population must be a finite number >= 0")
        return area_id, float(population), xy

    polys, rows, error = _layer(path, mode, "Polygon", area)
    ids = tuple(row[0] for row in rows)
    given = np.array([row[2] for row in rows], dtype=np.float64).reshape(-1, 2)
    centroids = representative_points(polys, given)
    outside = np.flatnonzero(np.isnan(centroids[:, 0]))
    if len(outside):
        raise InputError(f"demand area {ids[outside[0]]!r}: centroid lies outside its geometry")
    if error is not None:
        raise error
    if len(set(ids)) != len(ids):
        raise InputError(f"{path}: demand area ids are not unique")
    populations = np.array([row[1] for row in rows], dtype=np.float64)
    populations.flags.writeable = centroids.flags.writeable = False
    return DemandLayer(ids, populations, centroids, tuple(polys))


class _Stage:
    """Context manager labeling errors with the failing pipeline stage."""

    def __init__(self, name: str):
        self.name = name

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc is None:
            return False
        if isinstance(exc, BranchSiteError):
            exc.args = (f"[stage {self.name}] {exc}",)
            return False
        raise StageError(self.name, exc) from exc


@dataclass
class SurfaceResult:
    weights: WeightVector
    demand: DemandLayer
    rasters: tuple[SuitabilityRaster, ...]
    score: SuitabilityRaster


@dataclass
class RunReport:
    """Everything a run produced. ``data`` is the body of report.json
    without its ``score_raster``, which ``to_json`` encodes from ``score``;
    the parsed ``to_json()`` text alone re-renders every artifact."""

    data: dict
    rasters: tuple[SuitabilityRaster, ...]
    score: SuitabilityRaster

    def to_json(self) -> str:
        return "".join(report_json_text(self.data, self.score))


def _gate_rows(gates) -> list[dict]:
    return [{"matrix": g.matrix_id, "cr": g.cr, "threshold": g.threshold,
             "passed": g.passed} for g in gates]


def evaluate_weights(cfg: ProjectConfig) -> WeightVector:
    return synthesize(cfg.hierarchy, cfg.cr_threshold)


def build_surface(cfg: ProjectConfig) -> SurfaceResult:
    with _Stage("weights"):
        weights = evaluate_weights(cfg)

    with _Stage("layers"):
        demand = load_demand_layer(cfg.demand_path, cfg.mode)
        features = {}
        for spec in cfg.criteria:
            layer_path = cfg.inputs[spec.layer_ref]
            if spec.kind in (KIND_CATEGORICAL, KIND_DENSITY):
                features[spec.id] = load_zone_layer(layer_path, cfg.mode)
            else:
                features[spec.id] = load_point_layer(layer_path, cfg.mode).xy

    with _Stage("rasterize"):
        mask = build_mask(cfg.grid, demand.polygons)
        if not mask.any():
            raise InputError(f"demand layer {cfg.demand_path}: no grid cell center "
                             "lies inside a demand area, so the study area is empty")
        rasters = tuple(
            rasterize(spec, features[spec.id], cfg.grid, cfg.scheme,
                      mask=mask, mode=cfg.mode)
            for spec in cfg.criteria
        )

    with _Stage("combine"):
        score = combine(rasters, weights, cfg.combine_mode)

    return SurfaceResult(weights=weights, demand=demand, rasters=rasters, score=score)


def build_candidate_set(cfg: ProjectConfig, surface: SurfaceResult
                        ) -> tuple[list[dict], list[dict]]:
    """The proposed rows, tiered, and the merged rows: the proposed ones,
    then the existing branches'."""
    with _Stage("candidates"):
        proposed = extract(surface.score, cfg.extraction, mode=cfg.mode)
        existing = load_point_layer(cfg.existing_path, cfg.mode)
        merged = merge_existing(proposed, existing.ids, existing.xy)
    return proposed, merged


def run_pipeline(cfg: ProjectConfig) -> RunReport:
    """Weights -> rasters -> surface -> candidates -> coverage curve -> report."""
    surface = build_surface(cfg)
    proposed, merged = build_candidate_set(cfg, surface)
    extraction_empty = not proposed

    instance: MclpInstance | None = None
    curve = None
    if not extraction_empty:
        with _Stage("solve"):
            demand = surface.demand
            instance = build_coverage(
                demand.ids, demand.populations, demand.centroids,
                [c["id"] for c in merged], [c["location"] for c in merged],
                [False] * len(merged), cfg.standard, mode=cfg.mode)
            curve = coverage_curve(instance, cfg.p_max, method=cfg.solver)

    with _Stage("report"):
        digests = {
            name: hashlib.sha256(p.read_bytes()).hexdigest()
            for name, p in cfg.inputs.items()
        }
        data = {
            **cfg.meta,
            "input_digests": digests,
            "combine_mode": cfg.combine_mode.value,
            "scheme": {"high": cfg.scheme.high, "mid": cfg.scheme.mid,
                       "non": cfg.scheme.non},
            "grid": {"origin": [cfg.grid.origin_x, cfg.grid.origin_y],
                     "cell_size": cfg.grid.cell_size,
                     "ncols": cfg.grid.ncols, "nrows": cfg.grid.nrows},
            "weights": surface.weights.as_dict(),
            "consistency": _gate_rows(cfg.gates),
            "criteria": [
                {"id": spec.id, "kind": spec.kind,
                 "normalization_repairs": list(spec.repairs)}
                for spec in cfg.criteria
            ],
            "extraction_empty": extraction_empty,
            "candidates": merged,
            "solver": cfg.solver,
            "p_max": cfg.p_max,
            "curve": None if curve is None else [r.to_dict() for r in curve.rows],
            "instance": None if instance is None else instance.to_dict(),
        }
    return RunReport(data=data, rasters=surface.rasters, score=surface.score)


def _score_raster_from_report(data: dict) -> SuitabilityRaster:
    grid = _grid(data, "report")
    field = get(data, "score_raster", OBJECT, "report")
    cells = get(field, "values", LIST, "report", "score_raster")
    values = np.array(cells, dtype=float)  # None -> NaN
    CombineMode(data["combine_mode"])   # a report of an unknown mode is malformed
    score = SuitabilityRaster.from_values(grid, "score", values, ~np.isnan(values))
    # numpy parses "0.5" and true as floats, but report.json is re-encoded
    # from the floats, so a string or bool cell would silently change
    kinds = {type(v) for row in cells for v in row}
    for kind, name in ((str, "string"), (bool, "bool")):
        if kind in kinds:
            raise InputError(f"report field score_raster.values holds a {name} cell")
    # a null cell is NaN; any other NaN or infinity has no JSON text
    if np.count_nonzero(~np.isfinite(values)) != sum(row.count(None) for row in cells):
        raise InputError("report field score_raster.values holds a non-finite cell")
    return score


# One generator of (name, text chunks) pairs per stage; each artifact format
# lives in exactly one of them. A file's formatter runs when the writer
# reaches it, so one file's tables are alive at a time. ``meta`` (config
# digest and mode) makes each JSON file self-describing; the Esri grids and
# the CSV have no room for it.

def weights_files(meta: dict, weights: WeightVector, gates) -> Iterator[tuple[str, Chunks]]:
    yield "weights.json", [json_text(
        {**meta, "weights": weights.as_dict(), "consistency": _gate_rows(gates)})]


def surface_files(meta: dict, score: SuitabilityRaster,
                  rasters: Iterable[SuitabilityRaster]) -> Iterator[tuple[str, Chunks]]:
    yield "score.asc", esri_ascii_text(score)
    yield "score_points.geojson", score_points_geojson(score, meta=meta)
    for raster in rasters:
        yield f"rasters/{raster.criterion_id}.asc", esri_ascii_text(raster)


def candidate_files(meta: dict, rows: list[dict]) -> Iterator[tuple[str, Chunks]]:
    yield "candidates.geojson", [json_text(candidates_geojson(rows, meta=meta))]


def instance_files(meta: dict, instance: dict) -> Iterator[tuple[str, Chunks]]:
    yield "instance.json", [json_text({**meta, **instance})]


def _run_files(data: dict, meta: dict, score: SuitabilityRaster,
               rasters: Iterable[SuitabilityRaster]) -> Iterator[tuple[str, Chunks]]:
    yield "report.json", report_json_text(data, score)
    yield from candidate_files(meta, data["candidates"])
    yield from surface_files(meta, score, rasters)
    if data.get("curve"):
        yield from curve_files({**meta, "rows": data["curve"]})
    if data.get("instance") is not None:
        yield from instance_files(meta, data["instance"])


def _or_null(kind: Kind) -> Kind:
    """``kind`` or JSON null, for checks only: a null reads as True, since
    None means a value not of the kind."""
    return Kind(f"{kind.name} or null", lambda v: True if v is None else kind.read(v))


# the fields of a report's rows that its artifacts carry
_CANDIDATE = {"id": STRING, "location": XY, "score": _or_null(NUMBER),
              "origin": one_of((ORIGIN_PROPOSED, ORIGIN_EXISTING)),
              "tier": _or_null(one_of(TIERS)), "fixed_open": BOOL}
_CURVE_ROW = {"p": INTEGER, "selected": _NAMES, "coverage_pct": NUMBER}


def _check_rows(rows: list, kinds: dict[str, Kind], section: str) -> None:
    for i, row in enumerate(rows):
        for key, kind in kinds.items():
            get(row, key, kind, "report", section, i)


def _meta(data: dict) -> dict:
    return {"config_digest": get(data, "config_digest", STRING, "report"),
            "mode": get(data, "mode", MODE, "report")}


def render_report(data: dict, out_dir: str | Path) -> list[Path]:
    """Re-emit every artifact but the criterion rasters from a report body.

    A report with a missing or mistyped field raises ``InputError``. The
    fields are checked, not converted: each is written as it stands.
    """
    try:
        meta = _meta(data)
        score = _score_raster_from_report(data)
        _check_rows(get(data, "candidates", LIST, "report"), _CANDIDATE, "candidates")
        get(data, "curve", _or_null(LIST), "report", default=None)
        _check_rows(data.get("curve") or [], _CURVE_ROW, "curve")
        get(data, "instance", _or_null(OBJECT), "report", default=None)
        return write_artifacts(out_dir, _run_files(data, meta, score, ()))
    except KeyError as exc:
        raise InputError(f"report field {exc} is missing") from None
    except (AttributeError, IndexError, OverflowError, TypeError, ValueError) as exc:
        raise InputError(f"report is malformed: {exc}") from None


def write_pipeline_artifacts(report: RunReport, out_dir: str | Path) -> list[Path]:
    """Every artifact of a run, plus one Esri ASCII grid per criterion raster."""
    return write_artifacts(out_dir, _run_files(report.data, _meta(report.data),
                                               report.score, report.rasters))

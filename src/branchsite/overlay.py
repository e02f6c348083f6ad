"""Raster suitability surfaces: per-criterion rasterization and weighted
combination over a uniform analysis grid.

Cells are scored at their centers. Row 0 is the southernmost row; exports
write rows top-down as the Esri ASCII grid format expects. Only the cells
inside the study-area mask are scored and combined. The mask and the zone
criteria test each polygon with the grid kernel ``geo.points_in_polygon``
on the center axes inside its bounding box, at O(edges x rows) plus the
window's cells. A distance criterion measures each feature point only on
the cells within the criterion's reach (its largest finite band edge) plus
one cell; a cell farther than that from every point gets the score of the
top band, the one unbounded above, which is the score its exact distance
would get. The distances, and the attributes of the density zones that win
a cell, find their band through ``criteria.segment_index``, the one band
lookup, which ``classify`` also uses; the tests check it against the
per-segment comparison loop it replaced, kept in ``tests/helpers.py``.
Combination accumulates the masked cells in criterion-id order so the
result is bit-identical under any input permutation.

The Esri grids, ``score_points.geojson`` and ``report.json`` with its score
raster are formatted from arrays into chunks of text. Each formatter builds
its tables in its own call and returns an iterator that joins the text a
chunk of about 1 MiB (``_CHUNK``) at a time, so the writer holds one chunk,
not the file. Beyond it, the memory is the tables: the in-area cell indices
of ``score_points.geojson`` (8 bytes a cell), and copies of the bits a
table formats while it is built. Each distinct bit pattern of a float array
is formatted once into a table of strings, which the cells then look up, so
the text is the same as formatting every cell on its own. The grids and the
report's raster are joined once per distinct row: runs of equal adjacent
rows come from one comparison of the rows' bits, only the first row of each
run is hashed, and every later run of the same row (every row outside the
study area is the same) reuses its text. Each feature of
``score_points.geojson`` is a column's, a row's and a score's text; a chunk
joins those shared pieces for a slice of the in-area cells.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator, Sequence

import numpy as np

from .criteria import (
    KIND_CATEGORICAL,
    KIND_DENSITY,
    NormalizedCriterion,
    ScoreScheme,
    classify,
    segment_index,
)
from .errors import DomainError, InputError
from .geo import (
    EARTH_RADIUS_M,
    GEODESIC,
    PLANAR,
    Point,
    Polygon,
    check_geodesic_range,
    distances_to,
    points_in_polygon,
)
from .weights import WeightVector

MAX_CELLS = 4_000_000
NODATA = -9999.0


class CombineMode(str, Enum):
    WEIGHTED_SUM = "weighted_sum"
    LITERAL_PRODUCT = "literal_product"
    WEIGHTED_GEOMETRIC = "weighted_geometric"


def parse_combine_mode(name: str) -> CombineMode:
    try:
        return CombineMode(name)
    except ValueError:
        raise InputError(
            f"unknown combine mode {name!r} "
            f"(expected one of {[m.value for m in CombineMode]})"
        ) from None


@dataclass(frozen=True)
class GridSpec:
    """Uniform grid: origin at the lower-left corner, square cells.

    Coordinates follow the project mode: meters in planar mode, degrees
    (lon/lat) in geodesic mode.
    """

    origin_x: float
    origin_y: float
    cell_size: float
    ncols: int
    nrows: int

    def __post_init__(self):
        if self.cell_size <= 0:
            raise InputError(f"cell_size must be positive, got {self.cell_size}")
        if self.ncols < 1 or self.nrows < 1:
            raise InputError("grid must have at least one column and row")
        if self.ncols * self.nrows > MAX_CELLS:
            raise InputError(
                f"grid has {self.ncols * self.nrows} cells, above the cap of {MAX_CELLS}"
            )
        # the centers lie between the origin and the far corner
        far = (self.origin_x + self.ncols * self.cell_size,
               self.origin_y + self.nrows * self.cell_size)
        if not all(map(math.isfinite, (self.origin_x, self.origin_y, *far))):
            raise InputError(
                f"grid origin ({self.origin_x}, {self.origin_y}) and far corner "
                f"{far} must be finite")

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nrows, self.ncols)

    def cell_center(self, row: int, col: int) -> Point:
        return Point(
            self.origin_x + (col + 0.5) * self.cell_size,
            self.origin_y + (row + 0.5) * self.cell_size,
        )

    def center_axes(self) -> tuple[np.ndarray, np.ndarray]:
        """(column xs, row ys) of the cell centers; identical arithmetic to
        cell_center so scalar and vector paths agree bit for bit."""
        xs = self.origin_x + (np.arange(self.ncols, dtype=float) + 0.5) * self.cell_size
        ys = self.origin_y + (np.arange(self.nrows, dtype=float) + 0.5) * self.cell_size
        return xs, ys


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class SuitabilityRaster:
    """Per-criterion scores over the grid; NaN outside the study area.

    Rasters compare by identity: their arrays have no single truth value.
    """

    grid: GridSpec
    criterion_id: str
    values: np.ndarray
    mask: np.ndarray  # True where the cell is inside the study area

    def __post_init__(self):
        if self.values.shape != self.grid.shape or self.mask.shape != self.grid.shape:
            raise InputError("raster arrays must match the grid shape")
        _freeze(self.values)
        _freeze(self.mask)


@dataclass(frozen=True, eq=False)
class ScoreRaster:
    """Combined suitability surface; NaN outside the study area.

    Rasters compare by identity: their arrays have no single truth value.
    """

    grid: GridSpec
    values: np.ndarray
    mask: np.ndarray

    def __post_init__(self):
        if self.values.shape != self.grid.shape or self.mask.shape != self.grid.shape:
            raise InputError("raster arrays must match the grid shape")
        _freeze(self.values)
        _freeze(self.mask)


def _window(xs: np.ndarray, ys: np.ndarray, poly: Polygon) -> tuple[slice, slice]:
    """(rows, cols) slices of the grid points inside the polygon's bounds."""
    x0, y0, x1, y1 = poly.bounds
    return (slice(ys.searchsorted(y0, "left"), ys.searchsorted(y1, "right")),
            slice(xs.searchsorted(x0, "left"), xs.searchsorted(x1, "right")))


def build_mask(grid: GridSpec, polygons: Sequence[Polygon]) -> np.ndarray:
    """True where the cell center lies inside any of the polygons; each
    polygon is tested only on the cells whose center lies in its bounds."""
    xs, ys = grid.center_axes()
    mask = np.zeros(grid.shape, dtype=bool)
    for poly in polygons:
        rows, cols = _window(xs, ys, poly)
        mask[rows, cols] |= points_in_polygon(xs[cols], ys[rows], poly)
    return mask


def _nearest_distances(points: Sequence[Point], grid: GridSpec, mask: np.ndarray,
                       reach: float, mode: str) -> np.ndarray:
    """A grid of the distance from each masked cell center to the nearest
    point, or inf where every point is farther than ``reach``; the cells
    outside the mask hold any distance or inf.

    Each point is measured only on its window: the cells whose centers lie
    within ``reach`` plus one cell of it, cut to the bounding box of the
    mask. In geodesic mode the window is the rows within that latitude span,
    since the haversine distance is at least R * |dlat|. A window broadcasts
    the center axes, so every cell goes through the same IEEE operations as
    when it is measured on its own.
    """
    cx, cy = grid.center_axes()
    px = np.array([p.x for p in points])
    py = np.array([p.y for p in points])
    if mode == GEODESIC:
        # a point whose window is empty is never measured, so check them all
        xs, ys = np.broadcast_arrays(cx, cy[:, None])
        check_geodesic_range(xs[mask], ys[mask])
        check_geodesic_range(px, py)
    elif mode != PLANAR:
        raise DomainError(f"unknown coordinate mode: {mode!r}")
    best = np.full(grid.shape, np.inf)
    # the rows and columns of the mask's bounding box
    rows = np.flatnonzero(mask.any(axis=1))
    cols = np.flatnonzero(mask.any(axis=0))
    if not len(rows):
        return best
    if mode == PLANAR:
        pad = reach + grid.cell_size
        c0, c1 = np.searchsorted(cx, [px - pad, px + pad])
    else:
        pad = math.degrees(reach / EARTH_RADIUS_M) + grid.cell_size
        c0, c1 = np.zeros(px.shape, int), np.full(px.shape, grid.ncols)
    r0, r1 = np.clip(np.searchsorted(cy, [py - pad, py + pad]), rows[0], rows[-1] + 1)
    c0, c1 = np.clip([c0, c1], cols[0], cols[-1] + 1)
    for p, a, b, c, d in zip(points, r0.tolist(), r1.tolist(), c0.tolist(), c1.tolist()):
        if a < b and c < d:
            window = best[a:b, c:d]
            np.minimum(window, distances_to(cx[None, c:d], cy[a:b, None], p, mode),
                       out=window)
    return best


def rasterize(spec: NormalizedCriterion, features, grid: GridSpec,
              scheme: ScoreScheme, mask: np.ndarray | None = None,
              mode: str = PLANAR) -> SuitabilityRaster:
    """Score one criterion at every in-area cell center.

    ``features`` is a point sequence for distance criteria, or a sequence of
    (Polygon, attribute) zones for categorical/density criteria. Zones may
    nest; the smallest zone containing the center wins, so the result does
    not depend on feature order. Each zone is tested on the cells inside its
    bounds; the winning area and zone index grids are read at the in-area
    cells in row-major order, so an error names the first one uncovered.

    A distance criterion's bands tell distances apart only up to its reach,
    the largest finite band edge; every distance past it falls in the top
    segment, the one unbounded above. So each point is measured only on the
    window of cells within reach plus one cell of it, and an in-area cell
    that no window reaches gets the top segment's score. The scores are the
    ones of measuring every in-area cell against every point.
    """
    mask = np.ones(grid.shape, dtype=bool) if mask is None else np.asarray(mask, dtype=bool)
    if mask.shape != grid.shape:
        raise InputError("mask shape does not match the grid")

    if spec.kind in (KIND_CATEGORICAL, KIND_DENSITY):
        zones = list(features)
        if not zones:
            raise InputError(f"criterion {spec.id!r}: empty zone layer")
        if not _is_zone_layer(zones):
            raise InputError(
                f"criterion {spec.id!r} expects (Polygon, attribute) zones"
            )
        cx, cy = grid.center_axes()
        best_area = np.full(grid.shape, np.inf)
        zone_idx = np.full(grid.shape, -1)
        for k, (poly, _value) in enumerate(zones):
            rows, cols = window = _window(cx, cy, poly)
            area = poly.area
            take = points_in_polygon(cx[cols], cy[rows], poly) & (area < best_area[window])
            best_area[window][take] = area
            zone_idx[window][take] = k
        zone_idx = zone_idx[mask]
        missing = np.flatnonzero(zone_idx < 0)
        if len(missing):
            row, col = (int(v[missing[0]]) for v in np.nonzero(mask))
            center = grid.cell_center(row, col)
            raise InputError(
                f"criterion {spec.id!r}: cell (row={row}, col={col}) at "
                f"({center.x}, {center.y}) is covered by no zone polygon"
            )
        # a zone that wins no cell is never classified, so its attribute
        # cannot raise; the others are classified in zone order
        scores = np.full(len(zones), np.nan)
        for k in np.flatnonzero(np.bincount(zone_idx, minlength=len(zones))).tolist():
            scores[k] = scheme.value(classify(spec, zones[k][1]))
        values = np.full(grid.shape, np.nan)
        values[mask] = scores[zone_idx]
        return SuitabilityRaster(grid, spec.id, values, mask.copy())

    points = list(features)
    if not points:
        raise InputError(f"criterion {spec.id!r}: empty feature layer")
    if not all(isinstance(p, Point) for p in points):
        raise InputError(f"criterion {spec.id!r} expects point features")
    # the reach is the largest internal band edge, 0.0 with one segment; the
    # distance grid becomes the score grid, saving a fresh grid per raster
    values = _nearest_distances(points, grid, mask, spec.segments[-1].lo, mode)
    raws = values[mask]
    values.fill(np.nan)
    # a cell no window reached holds inf, which falls in the top segment
    scores = np.array([scheme.value(seg.cls) for seg in spec.segments])
    values[mask] = scores[segment_index(spec, raws)]
    return SuitabilityRaster(grid, spec.id, values, mask.copy())


def _is_zone_layer(features) -> bool:
    for item in features:
        return isinstance(item, tuple) and isinstance(item[0], Polygon)
    return False


def combine(rasters: Sequence[SuitabilityRaster], weights,
            mode: CombineMode) -> ScoreRaster:
    """Weighted per-cell combination of suitability rasters.

    weighted_sum:        sum_k w_k * s_k
    literal_product:     prod_k (w_k * s_k)
    weighted_geometric:  prod_k s_k ** w_k   (0 ** w = 0)
    """
    if not rasters:
        raise InputError("combine needs at least one raster")
    ids = [r.criterion_id for r in rasters]
    if len(set(ids)) != len(ids):
        raise InputError("combine: duplicate criterion ids")

    if isinstance(weights, WeightVector):
        if set(weights.items) != set(ids):
            raise InputError(
                f"combine: weight ids {sorted(weights.items)} do not match "
                f"raster ids {sorted(ids)}"
            )
        wmap = weights.as_dict()
        w_list = [wmap[i] for i in ids]
    else:
        w_list = [float(w) for w in weights]
        if len(w_list) != len(rasters):
            raise InputError(
                f"combine: {len(w_list)} weights for {len(rasters)} rasters"
            )
    if abs(sum(w_list) - 1.0) > 1e-9:
        raise InputError(f"combine: weights must sum to 1, got {sum(w_list)!r}")

    grid = rasters[0].grid
    mask = rasters[0].mask
    for r in rasters[1:]:
        if r.grid != grid:
            raise InputError(
                f"combine: raster {r.criterion_id!r} is on a different grid"
            )
        if not np.array_equal(r.mask, mask):
            raise InputError(
                f"combine: raster {r.criterion_id!r} has a different study-area mask"
            )

    # canonical order by criterion id: bit-identical under input permutation
    order = sorted(range(len(rasters)), key=lambda k: rasters[k].criterion_id)
    cells = int(mask.sum())
    if mode is CombineMode.WEIGHTED_SUM:
        acc = np.zeros(cells)
        for k in order:
            acc = acc + w_list[k] * rasters[k].values[mask]
    elif mode is CombineMode.LITERAL_PRODUCT:
        acc = np.ones(cells)
        for k in order:
            acc = acc * (w_list[k] * rasters[k].values[mask])
    elif mode is CombineMode.WEIGHTED_GEOMETRIC:
        acc = np.ones(cells)
        for k in order:
            acc = acc * np.power(rasters[k].values[mask], w_list[k])
    else:
        raise InputError(f"unknown combine mode: {mode!r}")
    values = np.full(grid.shape, np.nan)
    values[mask] = acc
    return ScoreRaster(grid, values, mask.copy())


def json_text(payload) -> str:
    """The one JSON encoding of every JSON artifact and of report.json."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


# The formatters yield an artifact's text in chunks of about this many
# characters, so the writer holds one chunk and not the whole file.
_CHUNK = 1 << 20


def _text_table(values, fmt, nan_text: str) -> tuple[np.ndarray, np.ndarray]:
    """The distinct bit patterns of the float ``values`` as ascending
    ``int64`` keys, and each key's text: ``fmt`` runs once per pattern (so
    ``-0.0`` and ``0.0`` keep their own text) and every NaN is ``nan_text``.
    """
    # a sort, not np.unique: its hash table (numpy 2.3 on) is several times slower
    keys = np.sort(np.asarray(values, dtype=float).view(np.int64), axis=None)
    keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    texts = np.array([nan_text if math.isnan(v) else fmt(v)
                      for v in keys.view(float).tolist()], dtype=object)
    return keys, texts


def _texts(table: tuple[np.ndarray, np.ndarray], values: np.ndarray) -> np.ndarray:
    """The ``_text_table`` strings of the float ``values``, as an object
    array of the same shape."""
    keys, texts = table
    return texts[keys.searchsorted(values.view(np.int64))]


def _drain(buf: list[str]) -> str:
    text = "".join(buf)
    buf.clear()
    return text


def _chunks(head: str, items: Iterable[str], sep: str, tail: str) -> Iterator[str]:
    """``head + sep.join(items) + tail`` in chunks of at least ``_CHUNK``
    characters, but the last. Each chunk's pieces are dropped before it is
    yielded, so the caller's chunk is the only one alive."""
    buf, size = [head], len(head)
    for k, item in enumerate(items):
        if k:
            buf.append(sep)
        buf.append(item)
        size += len(item) + len(sep)
        if size >= _CHUNK:
            yield _drain(buf)
            size = 0
    buf.append(tail)
    yield _drain(buf)


def _row_runs(bits: np.ndarray) -> tuple[list[tuple[int, int]], list[int]]:
    """The runs of equal adjacent rows of the 2-D ``int64`` ``bits``, as
    (slot, rows) pairs, and the first row of each slot.

    Runs whose rows have the same bytes share a slot; slots are numbered in
    order of first occurrence. Only each run's first row is hashed.
    """
    starts = np.flatnonzero(np.concatenate(([True], (bits[1:] != bits[:-1]).any(axis=1))))
    slot: dict[bytes, int] = {}
    runs, distinct = [], []
    for r, n in zip(starts.tolist(), np.diff(starts, append=len(bits)).tolist()):
        k = slot.setdefault(bits[r].tobytes(), len(slot))
        if k == len(distinct):
            distinct.append(r)
        runs.append((k, n))
    return runs, distinct


def _row_texts(values, fmt, nan_text: str, sep: str) -> Iterator[str]:
    """One text per row of the 2-D ``values``: its cells' ``_text_table``
    strings joined by ``sep``.

    The table and the runs of equal rows are found in this call; the texts
    are joined as the iterator reaches them, a batch of rows of about
    ``_CHUNK`` characters at a time. Rows are compared by their ``int64``
    bits, so rows that differ only in ``-0.0`` and ``0.0`` or in a NaN
    payload keep their own text. Each distinct row is joined once: its
    text is kept until the last run of equal rows that uses it.
    """
    values = np.asarray(values, dtype=float)
    runs, distinct = _row_runs(values.view(np.int64))
    last = {k: i for i, (k, _) in enumerate(runs)}
    table = _text_table(values[distinct], fmt, nan_text)
    width = (max(map(len, table[1].tolist())) + len(sep)) * values.shape[1]

    def texts():
        kept: dict[int, str] = {}
        for i, (k, n) in enumerate(runs):
            if k not in kept:
                # slots first occur in order, so k is the first not yet joined
                batch = distinct[k:k + max(1, _CHUNK // width)]
                for j, cells in enumerate(_texts(table, values[batch]).tolist(), k):
                    kept[j] = sep.join(cells)
            text = kept[k] if last[k] > i else kept.pop(k)
            for _ in range(n):
                yield text

    return texts()


def esri_ascii_text(grid: GridSpec, values: np.ndarray) -> Iterator[str]:
    """Esri ASCII grid text in chunks; rows written north to south."""
    header = "\n".join([
        f"NCOLS {grid.ncols}",
        f"NROWS {grid.nrows}",
        f"XLLCORNER {grid.origin_x!r}",
        f"YLLCORNER {grid.origin_y!r}",
        f"CELLSIZE {grid.cell_size!r}",
        f"NODATA_VALUE {NODATA!r}",
    ])
    rows = _row_texts(values[::-1], repr, repr(NODATA), " ")
    return _chunks(header + "\n", rows, "\n", "\n")


# One feature of score_points.geojson exactly as json_text indents it inside
# the top-level "features" list; the %s are x, y and the score.
_POINT_FEATURE = """\
    {
      "geometry": {
        "coordinates": [
          %s,
          %s
        ],
        "type": "Point"
      },
      "properties": {
        "score": %s
      },
      "type": "Feature"
    }"""
_HEAD, _MID, _MID2, _TAIL = _POINT_FEATURE.split("%s")


def _json_table(values, before: str, after: str) -> tuple[np.ndarray, np.ndarray]:
    """``_text_table`` of ``values`` as ``json.dumps`` text, each text
    between ``before`` and ``after``."""
    return _text_table(values, lambda v: before + json.dumps(v) + after,
                       before + "NaN" + after)


def score_points_geojson(raster, meta: dict | None = None) -> Iterator[str]:
    """GeoJSON FeatureCollection text of the in-area cell centers with their
    score, in row-major order and in chunks; the same text as ``json_text``
    of the dict.

    ``meta`` entries (config digest, mode, ...) are added as top-level
    foreign members so the file identifies the run that produced it.

    Each feature's text is three pieces: one per column (the separator and
    x), one per row (y) and one per distinct score. The pieces are
    formatted in this call; each chunk joins the pieces of the next slice
    of in-area cells, about ``_CHUNK`` characters of features.
    """
    # the anchor starts with a newline and two spaces, so inside json_text
    # only the top-level key can match: a string value escapes its newlines
    text = json_text({"type": "FeatureCollection", "features": [], **(meta or {})})
    head, tail = text.split('\n  "features": []', 1)
    values = raster.values.reshape(-1)
    cells = np.flatnonzero(~np.isnan(values))
    if not len(cells):
        return iter([text])
    xs, ys = raster.grid.center_axes()
    x_texts = _texts(_json_table(xs, ",\n" + _HEAD, _MID), xs)
    y_texts = _texts(_json_table(ys, "", _MID2), ys)
    scores = _json_table(values[cells], "", _TAIL)
    # every feature is longer than the template, so a full slice fills a chunk
    step = -(-_CHUNK // len(_POINT_FEATURE))

    def chunks():
        for a in range(0, len(cells), step):
            block = cells[a:a + step]
            rows, cols = np.divmod(block, raster.grid.ncols)
            pieces = np.empty((len(block), 3), dtype=object)
            pieces[:, 0] = x_texts[cols]
            pieces[:, 1] = y_texts[rows]
            pieces[:, 2] = _texts(scores, values[block])
            parts = pieces.ravel().tolist()
            if not a:  # no separator before the first feature
                parts[0] = head + '\n  "features": [\n' + parts[0][len(",\n"):]
            if a + step >= len(cells):
                parts.append("\n  ]" + tail)
            yield "".join(parts)

    return chunks()


def report_json_text(data: dict, score: ScoreRaster) -> Iterator[str]:
    """``json_text`` of the run report ``data`` with its ``score_raster``
    set to ``{"values": ...}``, in chunks. The raster holds ``score.values``
    as float rows with NaN as ``null``; its rows are encoded by
    ``_row_texts``, not cell by cell through the indenting encoder.
    """
    text = json_text({**data, "score_raster": {"values": []}})
    # a top-level key, as in score_points_geojson
    head, tail = text.split('\n  "score_raster": {\n    "values": []', 1)
    rows = _row_texts(score.values, json.dumps, "null", ",\n        ")
    return _chunks(head + '\n  "score_raster": {\n    "values": [\n      [\n        ',
                   rows, "\n      ],\n      [\n        ", "\n      ]\n    ]" + tail)

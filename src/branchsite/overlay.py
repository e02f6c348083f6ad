"""Raster suitability surfaces: per-criterion rasterization and weighted
combination over a uniform analysis grid.

Cells are scored at their centers, whose coordinates come only from the
grid's center axes: cell (row, col) is centered at (xs[col], ys[row]) of
``GridSpec.center_axes``. Row 0 is the southernmost row; exports write
rows top-down as the Esri ASCII grid format expects. Only the cells inside
the study-area mask are scored and combined. The mask and each zone
criterion make one call of the set kernel ``geo.points_in_polygons``: every
polygon of the set is tested on the center axes inside its bounding box,
and the callers read each polygon's block of the result as a view. A zone
criterion keeps its winners on the bounding box of the mask, a byte a
cell, and reads them at the in-area cells. A distance criterion takes its
points as one n x 2 float64 array and measures each point only on the
cells within the criterion's reach (its largest finite band edge) plus
one cell; a cell farther than that from every point gets the score of the
top band, the one unbounded above, which is the score its exact distance
would get. The distances, and the attributes of the density zones that win
a cell, find their band through ``criteria.segment_index``, the one band
lookup, which ``classify`` also uses; the tests check it against the
per-segment comparison loop it replaced, kept in ``tests/helpers.py``.

A criterion raster is the local operation of map algebra on a categorical
layer (Tomlin, Geographic Information Systems and Cartographic Modeling,
1990): it stores each in-area cell's class as a one-byte code, in
row-major order over the mask, and the scheme's scores as a table indexed
by the code. The rasters of a run share the one read-only mask of
``build_mask``. Combination weights each raster's table once and gathers
the weighted entries by code, in criterion-id order, so the result is
bit-identical under any input permutation and to weighting every cell,
wherever the scores are not NaN. Where two NaNs of different payloads
meet in a cell, numpy's loops keep one or the other by the cell's place in
the array. The pipeline's scheme scores are finite, so it never meets one.

The combined surface is a raster of the same kind: combination codes each
in-area cell by the bit pattern of its combined score, so the table holds
the surface's few distinct scores (Tomlin's local operation of several
categorical layers has only as many outcomes as their class combinations).

The Esri grids, ``score_points.geojson`` and ``report.json`` with its score
raster are formatted from a raster's codes into chunks of text. Each
formatter returns an iterator that joins the text a chunk of about 1 MiB
(``_CHUNK``) at a time, so the writer holds one chunk, not the file. Beyond
it, the memory is the tables: the in-area cell indices of
``score_points.geojson`` (8 bytes a cell) and the codes laid on the grid.
Each table entry is formatted once, so ``-0.0`` and ``0.0``, and NaNs of
other payloads, keep their own text, which is the text of formatting every
cell on its own. The Esri grids and the score raster of ``report.json``
take their rows from one generator, ``_grid_rows``, which joins each
distinct row once (every row outside the study area is the same). Each
feature of ``score_points.geojson`` is a column's, a row's and a score's
text; a chunk joins those shared pieces for a slice of the in-area cells.
The JSON formatters splice their texts into ``json_text``'s own text
around one top-level key (``_around``).
"""

from __future__ import annotations

import json
import math
import reprlib
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
from .fields import json_text
from .geo import (
    EARTH_RADIUS_M,
    GEODESIC,
    PLANAR,
    Polygon,
    axis_terms,
    bounds_windows,
    check_geodesic_range,
    join_terms,
    points_in_polygons,
)
from .weights import WeightVector

MAX_CELLS = 4_000_000
# The distance windows of this many points have their row and column
# terms computed at once.
_POINT_BATCH = 64
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

    def center_axes(self) -> tuple[np.ndarray, np.ndarray]:
        """(column xs, row ys) of the cell centers: cell (row, col) is
        centered at (xs[col], ys[row])."""
        xs = self.origin_x + (np.arange(self.ncols, dtype=float) + 0.5) * self.cell_size
        ys = self.origin_y + (np.arange(self.nrows, dtype=float) + 0.5) * self.cell_size
        return xs, ys


def _freeze(arr: np.ndarray) -> np.ndarray:
    """Make an array that no one else holds read-only, in place."""
    arr.flags.writeable = False
    return arr


def _read_only(arr: np.ndarray) -> np.ndarray:
    """``arr`` if it is read-only, else a read-only copy: a raster never
    changes the flags of an array its caller may still write."""
    return arr if not arr.flags.writeable else _freeze(arr.copy())


def _coded(scores: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(codes, table) of the float ``scores``: the table holds each distinct
    bit pattern once, ascending as ``int64``, and ``table[codes]`` has the
    bits of ``scores``. The codes are as wide as the table needs; both
    arrays are new and read-only."""
    bits = scores.view(np.int64)
    # a sort, not np.unique: its hash table (numpy 2.3 on) is several times
    # slower, and on first use it imports numpy.ma
    keys = np.sort(bits)
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    keys = keys[first]
    codes = keys.searchsorted(bits).astype(np.min_scalar_type(max(len(keys) - 1, 0)))
    return _freeze(codes), _freeze(keys.view(float))


@dataclass(frozen=True, eq=False)
class SuitabilityRaster:
    """Scores over the study area, as a class code per cell: one criterion's,
    or the combined surface's (id ``"score"``).

    ``codes`` holds one unsigned code per in-area cell, in row-major order,
    and ``table[code]`` is that cell's score. The pipeline's rasters share
    the one study-area ``mask`` of their run. A criterion raster holds one
    byte per cell and uses the scheme's ``table``, its scores indexed by
    class rank, with each cell's class rank as its code; the combined
    surface's table holds its distinct scores. ``from_values`` builds a
    raster of any float grid, and ``values`` gives the float grid back,
    with NaN outside the mask.

    The arrays are read-only: a writeable array is copied, never frozen in
    place. Rasters compare by identity: their arrays have no single truth
    value.
    """

    grid: GridSpec
    criterion_id: str
    mask: np.ndarray   # True where the cell is inside the study area
    codes: np.ndarray
    table: np.ndarray

    def __post_init__(self):
        if self.mask.shape != self.grid.shape or self.mask.dtype != bool:
            raise InputError("raster mask must be a bool array of the grid shape")
        if (self.codes.dtype.kind != "u"
                or self.codes.shape != (np.count_nonzero(self.mask),)):
            raise InputError("raster codes must be one unsigned code per in-area cell")
        if self.table.ndim != 1 or (self.codes.size and self.codes.max() >= len(self.table)):
            raise InputError("raster codes must index its score table")
        for name in ("mask", "codes", "table"):
            object.__setattr__(self, name, _read_only(getattr(self, name)))

    @classmethod
    def from_values(cls, grid: GridSpec, criterion_id: str, values,
                    mask) -> SuitabilityRaster:
        """The raster of the float grid ``values`` at the cells of ``mask``;
        the cells outside it are ignored. Each distinct bit pattern gets a
        code, so ``-0.0`` and ``0.0``, and NaNs of other payloads, keep
        their own bits; the codes are as wide as the patterns need."""
        values = np.asarray(values, dtype=float)
        mask = np.asarray(mask, dtype=bool)
        if values.shape != grid.shape or mask.shape != grid.shape:
            raise InputError("raster arrays must match the grid shape")
        return cls(grid, criterion_id, mask, *_coded(values[mask]))

    @property
    def values(self) -> np.ndarray:
        """A new float grid of the scores, NaN outside the mask."""
        values = np.full(self.grid.shape, np.nan)
        values[self.mask] = self.table[self.codes]
        return values


def build_mask(grid: GridSpec, polygons: Sequence[Polygon]) -> np.ndarray:
    """A read-only grid, True where the cell center lies inside any of the
    polygons; one kernel call tests each polygon on the cells whose center
    lies in its bounds. The rasters built on it share it."""
    xs, ys = grid.center_axes()
    windows = bounds_windows(xs, ys, polygons)
    mask = np.zeros(grid.shape, dtype=bool)
    for (r0, r1, c0, c1), inside in zip(windows.tolist(),
                                        points_in_polygons(xs, ys, polygons, windows)):
        mask[r0:r1, c0:c1] |= inside
    return _freeze(mask)


def _mask_box(mask: np.ndarray) -> tuple[int, int, int, int] | None:
    """(r0, r1, c0, c1) of the mask's bounding box, whose rows r0..r1-1 and
    columns c0..c1-1 hold every True cell; None for a mask without one."""
    rows = np.flatnonzero(mask.any(axis=1))
    cols = np.flatnonzero(mask.any(axis=0))
    if not len(rows):
        return None
    return int(rows[0]), int(rows[-1]) + 1, int(cols[0]), int(cols[-1]) + 1


def _nearest_distances(xy: np.ndarray, grid: GridSpec, mask: np.ndarray,
                       reach: float, mode: str) -> np.ndarray:
    """The distance from each masked cell center, in row-major order, to
    the nearest point of the n x 2 coordinates ``xy``, or inf where every
    point is farther than ``reach``.

    The distances are kept on the bounding box of the mask, and each point
    is measured only on its window: the cells of the box whose centers lie
    within ``reach`` plus one cell of it. In geodesic mode the window is
    the rows within that latitude span, since the haversine distance is at
    least R * |dlat|. The row and column terms of the windows
    (``geo.axis_terms``) are computed for a batch of points at once and
    joined per window, so every cell goes through the same IEEE operations
    as when it is measured on its own. In geodesic mode the masked cells
    and the points are range-checked, in planar mode the points are checked
    to be finite; the other cells are never read.
    """
    cx, cy = grid.center_axes()
    px, py = xy[:, 0], xy[:, 1]
    if mode == GEODESIC:
        # a point whose window is empty is never measured, so check them all
        xs, ys = np.broadcast_arrays(cx, cy[:, None])
        check_geodesic_range(xs[mask], ys[mask])
        check_geodesic_range(px, py)
    elif mode != PLANAR:
        raise DomainError(f"unknown coordinate mode: {mode!r}")
    elif not np.isfinite(xy).all():   # as ``distances_to`` of one would raise
        x, y = xy[~np.isfinite(xy).all(axis=1)][0].tolist()
        raise DomainError(f"point coordinates must be finite, got ({x}, {y})")
    box = _mask_box(mask)
    if box is None:
        return np.zeros(0)
    r0, r1, c0, c1 = box
    xs, ys = cx[c0:c1], cy[r0:r1]
    best = np.full((r1 - r0, c1 - c0), np.inf)
    if mode == PLANAR:
        pad = reach + grid.cell_size
        left, right = np.searchsorted(xs, [px - pad, px + pad])
    else:
        pad = math.degrees(reach / EARTH_RADIUS_M) + grid.cell_size
        left, right = np.zeros(px.shape, int), np.full(px.shape, len(xs))
    top, bottom = np.searchsorted(ys, [py - pad, py + pad])
    live = np.flatnonzero((top < bottom) & (left < right))
    for start in range(0, len(live), _POINT_BATCH):
        k = live[start:start + _POINT_BATCH]
        # the rows top..top+h-1 and columns left..left+w-1 of each point's
        # window, for the largest extents of the batch, clipped onto the
        # box: the terms of every row and column at once
        h, w = int((bottom - top)[k].max()), int((right - left)[k].max())
        rows = np.minimum(top[k, None] + np.arange(h), len(ys) - 1)
        cols = np.minimum(left[k, None] + np.arange(w), len(xs) - 1)
        row_terms, col_terms = axis_terms(xs[cols], ys[rows], px[k, None], py[k, None], mode)
        row_terms = np.stack(row_terms)
        for i, (a, b, c, d) in enumerate(zip(top[k].tolist(), bottom[k].tolist(),
                                             left[k].tolist(), right[k].tolist())):
            window = best[a:b, c:d]
            np.minimum(window, join_terms(row_terms[:, i, :b - a, None], col_terms[i, :d - c],
                                          mode), out=window)
    return best[mask[r0:r1, c0:c1]]


def rasterize(spec: NormalizedCriterion, features, grid: GridSpec,
              scheme: ScoreScheme, mask: np.ndarray | None = None,
              mode: str = PLANAR) -> SuitabilityRaster:
    """Classify one criterion at every in-area cell center: the raster holds
    each cell's class rank as its code and the scheme's scores as its table.

    ``features`` is the points of a distance criterion, as an n x 2 float64
    array of coordinates, or the (Polygon, attribute) zones of a
    categorical/density criterion. Zones may nest; the smallest zone
    containing the center wins, and of equal ones the earlier, so the
    result does not depend on the order of zones of distinct areas. One
    kernel call tests each zone on the cells of the mask's bounding box
    inside its bounds; the zones then claim their cells smallest first, a
    byte a cell over that box, and the claims are read at the in-area cells
    in row-major order, so an error names the first one uncovered.

    A distance criterion's bands tell distances apart only up to its reach,
    the largest finite band edge; every distance past it falls in the top
    segment, the one unbounded above. So each point is measured only on the
    window of cells within reach plus one cell of it, and an in-area cell
    that no window reaches gets the top segment's score. The scores are the
    ones of measuring every in-area cell against every point.
    """
    if mask is None:
        mask = _freeze(np.ones(grid.shape, dtype=bool))
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != grid.shape:
        raise InputError("mask shape does not match the grid")
    table = _freeze(np.array(scheme.table))

    if spec.kind in (KIND_CATEGORICAL, KIND_DENSITY):
        zones = list(features)
        if not zones:
            raise InputError(f"criterion {spec.id!r}: empty zone layer")
        for k, item in enumerate(zones):
            if not (isinstance(item, tuple) and len(item) == 2
                    and isinstance(item[0], Polygon)):
                raise InputError(
                    f"criterion {spec.id!r} expects (Polygon, attribute) zones, "
                    f"got {reprlib.repr(item)} at index {k}")
        zone_idx = _zone_winners([poly for poly, _ in zones], grid, mask)
        missing = np.flatnonzero(zone_idx == len(zones))
        if len(missing):
            row, col = (int(v[missing[0]]) for v in np.nonzero(mask))
            xs, ys = grid.center_axes()
            raise InputError(
                f"criterion {spec.id!r}: cell (row={row}, col={col}) at "
                f"({float(xs[col])}, {float(ys[row])}) is covered by no zone polygon"
            )
        # a zone that wins no cell is never classified, so its attribute
        # cannot raise; the others are classified in zone order
        classes = np.zeros(len(zones), dtype=np.uint8)
        for k in np.flatnonzero(np.bincount(zone_idx, minlength=len(zones))).tolist():
            classes[k] = classify(spec, zones[k][1]).rank
        return SuitabilityRaster(grid, spec.id, mask, _freeze(classes[zone_idx]), table)

    if not (isinstance(features, np.ndarray) and features.dtype == np.float64
            and features.shape[1:] == (2,)):
        raise InputError(f"criterion {spec.id!r} expects point features")
    if not len(features):
        raise InputError(f"criterion {spec.id!r}: empty feature layer")
    # the reach is the largest internal band edge, 0.0 with one segment
    raws = _nearest_distances(features, grid, mask, spec.segments[-1].lo, mode)
    # a cell no window reached holds inf, which falls in the top segment
    classes = np.array([seg.cls.rank for seg in spec.segments], dtype=np.uint8)
    codes = classes[segment_index(spec, raws)]
    return SuitabilityRaster(grid, spec.id, mask, _freeze(codes), table)


def _zone_winners(polys: list[Polygon], grid: GridSpec, mask: np.ndarray) -> np.ndarray:
    """The index of the zone that wins each in-area cell, in row-major
    order, or ``len(polys)`` where no zone holds the cell's center.

    The smallest zone wins, and of equal ones the earlier: the zones claim
    the cells still free in that order. A zone whose area is not below inf
    wins no cell."""
    none = len(polys)
    box = _mask_box(mask)
    if box is None:
        return np.zeros(0, dtype=np.min_scalar_type(none))
    r0, r1, c0, c1 = box
    cx, cy = grid.center_axes()
    xs, ys = cx[c0:c1], cy[r0:r1]
    windows = bounds_windows(xs, ys, polys)
    winner = np.full((r1 - r0, c1 - c0), none, dtype=np.min_scalar_type(none))
    blocks = points_in_polygons(xs, ys, polys, windows)
    for k in sorted((k for k, poly in enumerate(polys) if poly.area < math.inf),
                    key=lambda k: polys[k].area):
        a, b, c, d = windows[k].tolist()
        free = winner[a:b, c:d]
        free[blocks[k] & (free == none)] = k
    return winner[mask[r0:r1, c0:c1]]


def combine(rasters: Sequence[SuitabilityRaster], weights,
            mode: CombineMode) -> SuitabilityRaster:
    """Weighted per-cell combination of suitability rasters, as the raster
    ``"score"`` on their mask, coded by the bits of its distinct scores.

    weighted_sum:        sum_k w_k * s_k
    literal_product:     prod_k (w_k * s_k)
    weighted_geometric:  prod_k s_k ** w_k   (0 ** w = 0)

    Each weight meets its raster's score table once (``w * s`` or
    ``s ** w``), and every cell takes the entry of its code: the same IEEE
    operation on the same operands as weighting the cell's own score.
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
        if any(w < 0 for w in w_list):   # as ``WeightVector`` checks
            raise InputError("weights must be non-negative")
    if not abs(sum(w_list) - 1.0) <= 1e-9:  # NaN fails too
        raise InputError(f"combine: weights must sum to 1, got {sum(w_list)!r}")

    grid = rasters[0].grid
    mask = rasters[0].mask
    for r in rasters[1:]:
        if r.grid != grid:
            raise InputError(
                f"combine: raster {r.criterion_id!r} is on a different grid"
            )
        if r.mask is not mask and not np.array_equal(r.mask, mask):
            raise InputError(
                f"combine: raster {r.criterion_id!r} has a different study-area mask"
            )

    # canonical order by criterion id: bit-identical under input permutation
    order = sorted(range(len(rasters)), key=lambda k: rasters[k].criterion_id)
    if mode is CombineMode.WEIGHTED_SUM or mode is CombineMode.LITERAL_PRODUCT:
        tables = [w_list[k] * rasters[k].table for k in order]
    elif mode is CombineMode.WEIGHTED_GEOMETRIC:
        tables = [np.power(rasters[k].table, w_list[k]) for k in order]
    else:
        raise InputError(f"unknown combine mode: {mode!r}")
    cells = len(rasters[0].codes)
    acc = np.zeros(cells) if mode is CombineMode.WEIGHTED_SUM else np.ones(cells)
    term = np.empty(cells)
    for k, table in zip(order, tables):
        # every code indexes its table (``SuitabilityRaster`` checks it), so
        # nothing is clipped; the default mode="raise" buffers the output
        np.take(table, rasters[k].codes, out=term, mode="clip")
        if mode is CombineMode.WEIGHTED_SUM:
            acc += term
        else:
            acc *= term
    del term  # freed before the sort of the coding
    return SuitabilityRaster(grid, "score", mask, *_coded(acc))


# The formatters yield an artifact's text in chunks of about this many
# characters, so the writer holds one chunk and not the whole file.
_CHUNK = 1 << 20


def _format(values: np.ndarray, fmt, nan_text: str) -> list[str]:
    """``fmt`` of each float of ``values``, and ``nan_text`` for every NaN."""
    return [nan_text if math.isnan(v) else fmt(v) for v in values.tolist()]


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


def _around(payload: dict, key: str) -> tuple[str, str]:
    """The ``json_text`` of ``payload`` before and after the value of its
    top-level ``key``. The anchor starts with a newline and two spaces, so
    only the top-level key can match: a string value escapes its newlines,
    and a nested key is indented further."""
    anchor = f"\n  {json.dumps(key)}: "
    head, tail = json_text({**payload, key: None}).split(anchor + "null", 1)
    return head + anchor, tail


def _grid_rows(raster: SuitabilityRaster, fmt, nan_text: str, north_first: bool,
               sep: str) -> Iterator[str]:
    """The text of each row of ``raster``'s grid, north to south if
    ``north_first``, else south to north: the ``fmt`` of its cells' scores
    joined by ``sep``, with ``nan_text`` for NaN and the cells outside the
    mask, which get one more code when the codes are laid on the grid.

    Each table entry is formatted once. One comparison of the rows' codes
    finds the runs of equal adjacent rows, and only each run's first row is
    hashed: each distinct row is joined once, and its text is dropped after
    the last run that uses it.
    """
    outside = len(raster.table)
    laid = np.full(raster.grid.shape, outside, dtype=np.min_scalar_type(outside))
    laid[raster.mask] = raster.codes
    codes = laid[::-1] if north_first else laid
    texts = np.array(_format(raster.table, fmt, nan_text) + [nan_text], dtype=object)
    starts = np.flatnonzero(np.concatenate(([True], (codes[1:] != codes[:-1]).any(axis=1))))
    sizes = np.diff(starts, append=len(codes)).tolist()
    firsts = codes[starts]
    del laid, codes   # the first row of each run is all the iteration reads
    keys = [row.tobytes() for row in firsts]
    last = {key: i for i, key in enumerate(keys)}
    kept: dict[bytes, str] = {}
    for i, (key, n) in enumerate(zip(keys, sizes)):
        if key not in kept:
            kept[key] = sep.join(texts.take(firsts[i]).tolist())
        text = kept[key] if last[key] > i else kept.pop(key)
        for _ in range(n):
            yield text


def esri_ascii_text(raster: SuitabilityRaster) -> Iterator[str]:
    """Esri ASCII grid text of a raster in chunks; rows written north to
    south, each row formatted from its codes and its table's texts."""
    grid = raster.grid
    header = "\n".join([
        f"NCOLS {grid.ncols}",
        f"NROWS {grid.nrows}",
        f"XLLCORNER {grid.origin_x!r}",
        f"YLLCORNER {grid.origin_y!r}",
        f"CELLSIZE {grid.cell_size!r}",
        f"NODATA_VALUE {NODATA!r}",
    ])
    rows = _grid_rows(raster, repr, repr(NODATA), True, " ")
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


def _json_texts(values: np.ndarray, before: str, after: str) -> np.ndarray:
    """The ``json.dumps`` text of each float of ``values`` between
    ``before`` and ``after``, as an object array."""
    return np.array([before + json.dumps(v) + after for v in values.tolist()],
                    dtype=object)


def score_points_geojson(raster: SuitabilityRaster, meta: dict | None = None
                         ) -> Iterator[str]:
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
    head, tail = _around({"type": "FeatureCollection", **(meta or {})}, "features")
    # the in-area cells whose score is not NaN, and their codes
    keep = ~np.isnan(raster.table)[raster.codes]
    cells = np.flatnonzero(raster.mask)[keep]
    if not len(cells):
        return iter([head + "[]" + tail])
    codes = raster.codes[keep]
    xs, ys = raster.grid.center_axes()
    x_texts = _json_texts(xs, ",\n" + _HEAD, _MID)
    y_texts = _json_texts(ys, "", _MID2)
    score_texts = _json_texts(raster.table, "", _TAIL)
    # every feature is longer than the template, so a full slice fills a chunk
    step = -(-_CHUNK // len(_POINT_FEATURE))

    def chunks():
        for a in range(0, len(cells), step):
            block = cells[a:a + step]
            rows, cols = np.divmod(block, raster.grid.ncols)
            pieces = np.empty((len(block), 3), dtype=object)
            pieces[:, 0] = x_texts[cols]
            pieces[:, 1] = y_texts[rows]
            pieces[:, 2] = score_texts[codes[a:a + step]]
            parts = pieces.ravel().tolist()
            if not a:  # no separator before the first feature
                parts[0] = head + "[\n" + parts[0][len(",\n"):]
            if a + step >= len(cells):
                parts.append("\n  ]" + tail)
            yield "".join(parts)

    return chunks()


def report_json_text(data: dict, score: SuitabilityRaster) -> Iterator[str]:
    """``json_text`` of the run report ``data`` with its ``score_raster``
    set to ``{"values": ...}``, in chunks: the float rows of
    ``score.values``, south to north, with NaN as ``null``. Each row's text
    comes from ``_grid_rows``, indented as ``json_text`` indents it, and is
    spliced in after the text before the key; no cell goes through the
    indenting encoder.
    """
    head, tail = _around(data, "score_raster")
    rows = _grid_rows(score, json.dumps, "null", False, ",\n        ")
    return _chunks(head + '{\n    "values": [\n      [\n        ', rows,
                   "\n      ],\n      [\n        ", "\n      ]\n    ]\n  }" + tail)

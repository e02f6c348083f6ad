"""Candidate-site extraction, priority tiers, and merge with existing
branches.

A candidate is one row, ``{"id", "location", "score", "origin", "tier",
"fixed_open"}``, from extraction on: ``report.json`` lists the rows,
``candidates.geojson`` renders them, and the coverage instance takes its
candidate ids and locations from them.

Extraction is greedy non-maximum suppression over the combined score
surface: repeatedly take the best remaining cell (ties by row then column,
ascending), emit its center, and suppress everything closer than the
separation distance. The picks come in descending score order, so the
tiers are positional terciles of pick order, with remainders going to the
higher tiers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import InputError
from .geo import PLANAR, distances_to
from .overlay import SuitabilityRaster

ORIGIN_PROPOSED = "proposed"
ORIGIN_EXISTING = "existing"

TIERS = ("first", "second", "third")


@dataclass(frozen=True)
class ExtractionConfig:
    min_score: float
    min_separation: float
    max_proposed: int

    def __post_init__(self):
        # the comparisons are written so that NaN fails them
        if math.isnan(self.min_score):
            raise InputError("min_score must be a number, got nan")
        if not self.min_separation >= 0:
            raise InputError("min_separation must be >= 0")
        if not self.max_proposed >= 1:
            raise InputError("max_proposed must be >= 1")


def _row(site_id: str, location: list[float], score: float | None, origin: str,
         tier: str | None) -> dict:
    return {"id": site_id, "location": location, "score": score, "origin": origin,
            "tier": tier, "fixed_open": False}


def extract(raster: SuitabilityRaster, cfg: ExtractionConfig,
            mode: str = PLANAR) -> list[dict]:
    """Greedy peak extraction with non-maximum suppression.

    Returns the proposed sites as rows in pick order, ``p01``, ``p02``, ...,
    tiered by position: the first third ``first``, the next ``second``, the
    rest ``third``. Empty when no cell reaches min_score (an empty-result
    signal, not an error). Zero-score cells are never eligible. The eligible
    scores are chosen in the raster's table, and their cells among the
    in-area cells.
    """
    table = raster.table
    # NaN entries compare False, so they drop out with the non-positive ones
    eligible = ((table > 0.0) & (table >= cfg.min_score))[raster.codes]
    rows, cols = np.divmod(np.flatnonzero(raster.mask)[eligible], raster.grid.ncols)
    scores = table[raster.codes[eligible]]
    # the cells are row-major, so the stable sort orders by (score desc, row, col)
    order = np.argsort(-scores, kind="stable")

    picked: list[tuple[float, list[float]]] = []
    # coordinates of the picked sites, filled in pick order
    xy = np.empty((2, min(cfg.max_proposed, len(order))))
    cx, cy = raster.grid.center_axes()
    for k in order:
        n = len(picked)
        if n >= cfg.max_proposed:
            break
        x, y = float(cx[cols[k]]), float(cy[rows[k]])
        if (distances_to(xy[0, :n], xy[1, :n], x, y, mode) < cfg.min_separation).any():
            continue
        xy[:, n] = x, y
        picked.append((float(scores[k]), [x, y]))

    width = max(2, len(str(cfg.max_proposed)))
    base, rem = divmod(len(picked), 3)
    tiers = [tier for t, tier in enumerate(TIERS) for _ in range(base + (t < rem))]
    return [_row(f"p{i + 1:0{width}d}", loc, score, ORIGIN_PROPOSED, tier)
            for i, ((score, loc), tier) in enumerate(zip(picked, tiers))]


def merge_existing(proposed: list[dict], ids: Sequence[str | None],
                   xy: np.ndarray) -> list[dict]:
    """The proposed rows, then one row per existing branch: its id, or
    ``e01``, ``e02``, ... by position where it has none, its ``xy`` row as
    the location, and no score or tier.

    The proposed-proposed separation constraint does not bind across the
    merge; a proposed site may sit arbitrarily close to an existing branch.
    The existing ids come from an outside layer, so the first id met twice
    raises ``InputError``.
    """
    merged = proposed + [_row(fid or f"e{i + 1:02d}", loc, None, ORIGIN_EXISTING, None)
                         for i, (fid, loc) in enumerate(zip(ids, xy.tolist()))]
    seen: set[str] = set()
    for row in merged:
        if row["id"] in seen:
            raise InputError(f"duplicate candidate id {row['id']!r} after merge")
        seen.add(row["id"])
    return merged


def candidates_geojson(rows: Sequence[dict], meta: dict | None = None) -> dict:
    """GeoJSON FeatureCollection of candidate rows with
    id/score/origin/tier/fixed_open properties.

    ``meta`` entries are added as top-level foreign members so the file
    identifies the run that produced it.
    """
    features = []
    for c in rows:
        features.append({
            "type": "Feature",
            "geometry": {"type": "Point",
                         "coordinates": [c["location"][0], c["location"][1]]},
            "properties": {
                "id": c["id"],
                "score": None if c["score"] is None else float(c["score"]),
                "origin": c["origin"],
                "tier": c["tier"],
                "fixed_open": c["fixed_open"],
            },
        })
    payload = {"type": "FeatureCollection", "features": features}
    if meta:
        payload.update(meta)
    return payload

"""Candidate-site extraction, priority tiering, and merge with existing
branches.

Extraction is greedy non-maximum suppression over the combined score
surface: repeatedly take the best remaining cell (ties by row then column,
ascending), emit its center, and suppress everything closer than the
separation distance. Tiers are positional terciles of the score ordering,
with remainders going to the higher tiers.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .errors import InputError
from .geo import PLANAR, Point, distances_to
from .overlay import SuitabilityRaster

ORIGIN_PROPOSED = "proposed"
ORIGIN_EXISTING = "existing"

TIER_FIRST = "first"
TIER_SECOND = "second"
TIER_THIRD = "third"
TIERS = (TIER_FIRST, TIER_SECOND, TIER_THIRD)


@dataclass(frozen=True)
class CandidateSite:
    id: str
    location: Point
    score: float | None
    origin: str
    tier: str | None = None

    def __post_init__(self):
        if self.origin not in (ORIGIN_PROPOSED, ORIGIN_EXISTING):
            raise InputError(f"candidate {self.id!r}: unknown origin {self.origin!r}")
        if self.origin == ORIGIN_PROPOSED and not (self.score is not None and self.score > 0):
            raise InputError(f"candidate {self.id!r}: proposed sites need a positive score")
        if self.tier is not None and self.tier not in TIERS:
            raise InputError(f"candidate {self.id!r}: unknown tier {self.tier!r}")

    def to_dict(self) -> dict:
        return {"id": self.id, "location": [self.location.x, self.location.y],
                "score": self.score, "origin": self.origin, "tier": self.tier,
                "fixed_open": False}


@dataclass(frozen=True)
class ExtractionConfig:
    min_score: float
    min_separation: float
    max_proposed: int

    def __post_init__(self):
        if self.min_separation < 0:
            raise InputError("min_separation must be >= 0")
        if self.max_proposed < 1:
            raise InputError("max_proposed must be >= 1")


def extract(raster: SuitabilityRaster, cfg: ExtractionConfig,
            mode: str = PLANAR) -> list[CandidateSite]:
    """Greedy peak extraction with non-maximum suppression.

    Returns proposed candidates in pick order; empty when no cell reaches
    min_score (an empty-result signal, not an error). Zero-score cells are
    never eligible. The eligible scores are chosen in the raster's table,
    and their cells among the in-area cells.
    """
    table = raster.table
    # NaN entries compare False, so they drop out with the non-positive ones
    eligible = ((table > 0.0) & (table >= cfg.min_score))[raster.codes]
    rows, cols = np.divmod(np.flatnonzero(raster.mask)[eligible], raster.grid.ncols)
    scores = table[raster.codes[eligible]]
    # the cells are row-major, so the stable sort orders by (score desc, row, col)
    order = np.argsort(-scores, kind="stable")

    picked: list[tuple[float, Point]] = []
    # coordinates of the picked sites, filled in pick order
    xy = np.empty((2, min(cfg.max_proposed, len(order))))
    for k in order:
        n = len(picked)
        if n >= cfg.max_proposed:
            break
        center = raster.grid.cell_center(int(rows[k]), int(cols[k]))
        if (distances_to(xy[0, :n], xy[1, :n], center, mode) < cfg.min_separation).any():
            continue
        xy[:, n] = center.x, center.y
        picked.append((float(scores[k]), center))

    width = max(2, len(str(cfg.max_proposed)))
    return [
        CandidateSite(
            id=f"p{i + 1:0{width}d}",
            location=loc,
            score=v,
            origin=ORIGIN_PROPOSED,
        )
        for i, (v, loc) in enumerate(picked)
    ]


def tier_sizes(n: int) -> tuple[int, int, int]:
    """Tercile sizes; the remainder of an uneven split goes to higher tiers."""
    base, rem = divmod(n, 3)
    return tuple(base + (1 if i < rem else 0) for i in range(3))


def assign_tiers(sites: Sequence[CandidateSite]) -> list[CandidateSite]:
    """Score-ordered tercile split into first/second/third priority.

    The ordering is a stable sort on descending score, so equal-scored sites
    keep their given order and split positionally.
    """
    if not sites:
        return []
    for s in sites:
        if s.score is None:
            raise InputError(f"candidate {s.id!r} has no score; cannot tier")
    order = sorted(range(len(sites)), key=lambda i: (-sites[i].score, i))
    sizes = tier_sizes(len(sites))
    tier_of_position = []
    for tier, size in zip(TIERS, sizes):
        tier_of_position.extend([tier] * size)
    out: list[CandidateSite] = list(sites)
    for pos, idx in enumerate(order):
        out[idx] = replace(sites[idx], tier=tier_of_position[pos])
    return out


def merge(proposed: Sequence[CandidateSite],
          existing: Sequence[CandidateSite]) -> list[CandidateSite]:
    """Union of proposed and existing candidates, preserving origin labels.

    The proposed-proposed separation constraint does not bind across the
    merge; a proposed site may sit arbitrarily close to an existing branch.
    """
    merged = list(proposed) + list(existing)
    seen: set[str] = set()
    for site in merged:
        if site.id in seen:
            raise InputError(f"duplicate candidate id {site.id!r} after merge")
        seen.add(site.id)
    return merged


def candidates_geojson(rows: Sequence[dict], meta: dict | None = None) -> dict:
    """GeoJSON FeatureCollection of ``CandidateSite.to_dict`` rows with
    id/score/origin/tier properties.

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

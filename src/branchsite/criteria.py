"""Criterion specifications and the suitability classifier.

A criterion maps a raw attribute value (a distance in meters, a density, or
a categorical level) to one of three suitability classes, which carry the
numeric scores of the active scheme. Numeric band tables are normalized into
disjoint intervals covering [0, inf) before use, in one sweep over the sorted
band edges: each edge and each open stretch between two edges goes to the
most suitable class whose bands hold it, so overlaps and shared boundaries
go to the more suitable side. A gap is an open stretch that no band holds:
below the lowest edge and above the highest the nearest run is extended,
between runs of one class it is bridged, and between two classes it is split
at its midpoint. Every repair is recorded on the normalized spec. A -0.0
edge reads as 0.0, and a NaN bound is rejected.

``segment_index`` is the one rule for which segment holds a value: it
serves ``classify`` one value at a time and the raster overlay a whole
array at once.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, Sequence

import numpy as np

from .errors import InputError, SpecificationError
from .fields import is_number


class SuitabilityClass(Enum):
    HIGH_SUITABLE = "high"
    SUITABLE = "suitable"
    NON_SUITABLE = "non"

    @property
    def rank(self) -> int:
        return _RANK[self]


_RANK = {
    SuitabilityClass.HIGH_SUITABLE: 2,
    SuitabilityClass.SUITABLE: 1,
    SuitabilityClass.NON_SUITABLE: 0,
}

@dataclass(frozen=True)
class ScoreScheme:
    """Numeric scores for the three classes; defaults 0.6 / 0.4 / 0."""

    high: float = 0.6
    mid: float = 0.4
    non: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.non < self.mid < self.high <= 1.0):
            raise SpecificationError(
                f"score scheme must satisfy 0 <= non < mid < high <= 1, "
                f"got ({self.high}, {self.mid}, {self.non})"
            )

    @property
    def table(self) -> tuple[float, float, float]:
        """The scores indexed by class rank: ``table[cls.rank]`` is the
        score of ``cls``, so a class rank serves as a raster's class code."""
        return (self.non, self.mid, self.high)

    def value(self, cls: SuitabilityClass) -> float:
        return self.table[cls.rank]


# criterion kinds (aliases from config vocabularies map onto these)
KIND_DISTANCE = "distance"
KIND_DENSITY = "density"
KIND_CATEGORICAL = "categorical"

_KIND_ALIASES = {
    "distance": KIND_DISTANCE,
    "distance-to-features": KIND_DISTANCE,
    "density": KIND_DENSITY,
    "categorical": KIND_CATEGORICAL,
    "cost-level": KIND_CATEGORICAL,
}

DIRECTION_NEAR_BETTER = "near_better"
DIRECTION_FAR_BETTER = "far_better"
DIRECTION_BAND = "band"
_DIRECTIONS = (DIRECTION_NEAR_BETTER, DIRECTION_FAR_BETTER, DIRECTION_BAND)

CATEGORY_LEVELS = ("High", "Middle", "Low")


def parse_kind(kind: str) -> str:
    try:
        return _KIND_ALIASES[kind]
    except KeyError:
        raise SpecificationError(
            f"unknown criterion kind {kind!r} (expected one of {sorted(set(_KIND_ALIASES))})"
        ) from None


@dataclass(frozen=True)
class Band:
    """A stated band: the closed interval [lo, hi] mapping to one class.

    ``hi=None`` means unbounded above.
    """

    lo: float
    hi: float | None
    cls: SuitabilityClass


@dataclass(frozen=True)
class Segment:
    """A normalized piece of the value axis with explicit endpoint ownership."""

    lo: float
    lo_inc: bool
    hi: float
    hi_inc: bool
    cls: SuitabilityClass


@dataclass(frozen=True)
class CriterionSpec:
    """One decision criterion as declared in the project config."""

    id: str
    kind: str
    bands: tuple[Band, ...] = ()
    categories: Mapping[str, SuitabilityClass] | None = None
    direction: str = DIRECTION_BAND
    layer_ref: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "kind", parse_kind(self.kind))
        if self.direction not in _DIRECTIONS:
            raise SpecificationError(
                f"criterion {self.id!r}: unknown direction {self.direction!r}"
            )


@dataclass(frozen=True)
class NormalizedCriterion:
    """A criterion whose bands were rewritten into disjoint covering segments."""

    id: str
    kind: str
    direction: str
    segments: tuple[Segment, ...] = ()
    categories: tuple[tuple[str, SuitabilityClass], ...] = ()
    layer_ref: str | None = None
    repairs: tuple[str, ...] = field(default=(), compare=False)

    @property
    def category_map(self) -> dict[str, SuitabilityClass]:
        return dict(self.categories)


def _piece_str(lo: float, lo_inc: bool, hi: float, hi_inc: bool) -> str:
    left = "[" if lo_inc else "("
    right = "]" if hi_inc else ")"
    hi_s = "inf" if math.isinf(hi) else f"{hi:g}"
    return f"{left}{lo:g}, {hi_s}{right}"


_BY_RANK = sorted(SuitabilityClass, key=_RANK.get)  # _BY_RANK[cls.rank] is cls


def _normalize_numeric(spec: CriterionSpec) -> NormalizedCriterion:
    if not spec.bands:
        raise SpecificationError(f"criterion {spec.id!r}: no bands declared")

    bands: list[tuple[float, float, int]] = []
    for band in spec.bands:
        lo = float(band.lo) + 0.0  # + 0.0 reads a -0.0 edge as 0.0
        hi = math.inf if band.hi is None else float(band.hi) + 0.0
        if not math.isfinite(lo) or lo < 0:
            raise SpecificationError(
                f"criterion {spec.id!r}: band lower bound must be finite and >= 0, got {lo}"
            )
        if not hi >= lo:  # a NaN maximum fails here too
            raise SpecificationError(
                f"criterion {spec.id!r}: band [{lo}, {hi}] has hi < lo"
            )
        bands.append((lo, hi, band.cls.rank))

    # Cut [lowest edge, inf) into elementary pieces: each edge as a point,
    # then the open stretch up to the next edge. A band holds a piece when
    # it starts at or below the piece's low end and ends at or above its
    # high end; the piece goes to the most suitable class holding it, the
    # highest rank.
    edges = sorted({x for lo, hi, _ in bands for x in (lo, hi)} - {math.inf})
    cuts = []
    for a, b in zip(edges, edges[1:] + [math.inf]):
        for piece in ((a, True, a, True), (a, False, b, False)):
            claims = {rank for lo, hi, rank in bands if lo <= piece[0] and piece[2] <= hi}
            cuts.append((piece, max(claims, default=None), claims))

    def runs(key) -> list[list]:
        """[lo, lo_inc, hi, hi_inc, k] of each maximal run of consecutive
        pieces whose ``key`` is ``k``, runs keyed None left out."""
        out = []
        for k, group in itertools.groupby(cuts, key):
            if k is not None:
                pieces = [piece for piece, _, _ in group]
                out.append([*pieces[0][:2], *pieces[-1][2:], k])
        return out

    # the outranked class, then the owner, each most suitable first
    repairs: list[str] = []
    for low, high in ((1, 2), (0, 2), (0, 1)):
        for *part, _ in runs(lambda cut: cut[1] == high and low in cut[2] or None):
            kept = _BY_RANK[high].value
            repairs.append(f"overlap on {_piece_str(*part)} claimed by both "
                           f"{kept} and {_BY_RANK[low].value}; kept for {kept}")

    # Every edge belongs to a band that states it, so consecutive owned runs
    # either touch or leave one open stretch between two edges unowned.
    owned = [[*run[:4], _BY_RANK[run[4]]] for run in runs(lambda cut: cut[1])]
    first = owned[0]
    if first[0] > 0.0:
        repairs.append(f"gap below {_piece_str(*first[:4])}: extended {first[4].value} to 0")
        first[0] = 0.0
    filled = [first]
    for run in owned[1:]:
        prev = filled[-1]
        phi, lo, pcls, cls = prev[2], run[0], prev[4], run[4]
        if lo > phi:
            if pcls is cls:
                repairs.append(f"gap ({phi:g}, {lo:g}) between {cls.value} pieces: bridged")
                prev[2:4] = run[2:4]
                continue
            mid = phi + (lo - phi) / 2.0
            prev_owns_mid = pcls.rank > cls.rank
            repairs.append(
                f"gap ({phi:g}, {lo:g}): filled to midpoint {mid:g} "
                f"({pcls.value} left, {cls.value} right)"
            )
            prev[2:4] = mid, prev_owns_mid
            run[:2] = mid, not prev_owns_mid
        filled.append(run)
    last = filled[-1]
    if math.isfinite(last[2]):
        repairs.append(f"gap above {last[2]:g}: extended {last[4].value} to inf")
        last[2:4] = math.inf, False

    segments = tuple(Segment(*run) for run in filled)
    _check_partition(spec.id, segments)
    _check_direction(spec.id, spec.direction, segments)

    return NormalizedCriterion(
        id=spec.id,
        kind=spec.kind,
        direction=spec.direction,
        segments=segments,
        layer_ref=spec.layer_ref,
        repairs=tuple(repairs),
    )


def _check_partition(spec_id: str, segments: Sequence[Segment]) -> None:
    if not segments:
        raise SpecificationError(f"criterion {spec_id!r}: empty normalization result")
    first = segments[0]
    if first.lo != 0.0 or not first.lo_inc:
        raise SpecificationError(f"criterion {spec_id!r}: normalized bands do not start at 0")
    for prev, cur in zip(segments, segments[1:]):
        if prev.hi != cur.lo or prev.hi_inc == cur.lo_inc:
            raise SpecificationError(
                f"criterion {spec_id!r}: normalized bands not contiguous at {prev.hi:g}"
            )
    last = segments[-1]
    if not math.isinf(last.hi):
        raise SpecificationError(f"criterion {spec_id!r}: normalized bands do not reach inf")


def _check_direction(spec_id: str, direction: str, segments: Sequence[Segment]) -> None:
    ranks = [s.cls.rank for s in segments]
    if direction == DIRECTION_NEAR_BETTER and any(a < b for a, b in zip(ranks, ranks[1:])):
        raise SpecificationError(
            f"criterion {spec_id!r}: bands are not monotone for direction near_better"
        )
    if direction == DIRECTION_FAR_BETTER and any(a > b for a, b in zip(ranks, ranks[1:])):
        raise SpecificationError(
            f"criterion {spec_id!r}: bands are not monotone for direction far_better"
        )


def _normalize_categorical(spec: CriterionSpec) -> NormalizedCriterion:
    if not spec.categories:
        raise SpecificationError(f"criterion {spec.id!r}: no category mapping declared")
    cats = dict(spec.categories)
    if set(cats) != set(CATEGORY_LEVELS):
        raise SpecificationError(
            f"criterion {spec.id!r}: categories must be exactly {set(CATEGORY_LEVELS)}, "
            f"got {set(cats)}"
        )
    ordered = tuple((name, cats[name]) for name in CATEGORY_LEVELS)
    return NormalizedCriterion(
        id=spec.id,
        kind=spec.kind,
        direction=spec.direction,
        categories=ordered,
        layer_ref=spec.layer_ref,
    )


def validate_spec(spec: CriterionSpec | NormalizedCriterion) -> NormalizedCriterion:
    """Normalize a criterion spec; idempotent on already-normalized specs."""
    if isinstance(spec, NormalizedCriterion):
        return spec
    if spec.kind == KIND_CATEGORICAL:
        return _normalize_categorical(spec)
    return _normalize_numeric(spec)


def segment_index(spec: NormalizedCriterion, values):
    """Index into ``spec.segments`` of the segment holding each value, for a
    scalar or an array of values >= 0; ``inf`` falls in the top segment.

    An internal edge belongs to the segment below it when that segment is
    closed there (``hi_inc``), otherwise to the segment above it. So the
    index counts the edges below the value: the lower-owned edges ``< v``
    and the upper-owned ones ``<= v``, one comparison per edge. A scalar
    gives an ``int``, an array an ``intp`` array of its shape.
    """
    values = np.asarray(values)
    index = np.zeros(values.shape, dtype=np.intp)
    for seg in spec.segments[:-1]:
        index += values > seg.hi if seg.hi_inc else values >= seg.hi
    return int(index) if index.ndim == 0 else index


def classify(spec: NormalizedCriterion, raw) -> SuitabilityClass:
    """Class of the unique normalized band containing the raw value."""
    if spec.kind == KIND_CATEGORICAL:
        cats = spec.category_map
        if not isinstance(raw, str) or raw not in cats:
            raise InputError(
                f"criterion {spec.id!r}: category {raw!r} not in {sorted(cats)}"
            )
        return cats[raw]
    if not (is_number(raw) and raw >= 0):
        raise SpecificationError(
            f"criterion {spec.id!r}: raw value {raw!r} outside the normalized bands"
        )
    return spec.segments[segment_index(spec, float(raw))].cls

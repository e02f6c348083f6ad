"""Criterion specifications and the suitability classifier.

A criterion maps a raw attribute value (a distance in meters, a density, or
a categorical level) to one of three suitability classes, which carry the
numeric scores of the active scheme. Numeric band tables are normalized into
disjoint intervals covering [0, inf) before use: overlapping stated bands are
resolved in favor of the more suitable class, shared boundaries belong to the
more suitable side, and gaps are filled by extending both neighbors to the
gap midpoint. Every repair is recorded on the normalized spec.

``segment_index`` is the one rule for which segment holds a value: it
serves ``classify`` one value at a time and the raster overlay a whole
array at once.
"""

from __future__ import annotations

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


_Piece = tuple[float, bool, float, bool]  # lo, lo_inc, hi, hi_inc


def _piece_str(p: _Piece) -> str:
    lo, lo_inc, hi, hi_inc = p
    left = "[" if lo_inc else "("
    right = "]" if hi_inc else ")"
    hi_s = "inf" if math.isinf(hi) else f"{hi:g}"
    return f"{left}{lo:g}, {hi_s}{right}"


def _merge_closed(intervals: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Union of closed intervals, merged where they touch or overlap."""
    out: list[tuple[float, float]] = []
    for lo, hi in sorted(intervals):
        if out and lo <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return out


def _subtract_closed(pieces: list[_Piece], a: float, b: float) -> tuple[list[_Piece], list[_Piece]]:
    """Remove the closed interval [a, b] from a list of pieces.

    Returns the remaining pieces and the parts that were removed.
    """
    out: list[_Piece] = []
    removed: list[_Piece] = []
    for lo, lo_inc, hi, hi_inc in pieces:
        # disjoint cases (careful with endpoint ownership)
        if b < lo or (b == lo and not lo_inc):
            out.append((lo, lo_inc, hi, hi_inc))
            continue
        if a > hi or (a == hi and not hi_inc):
            out.append((lo, lo_inc, hi, hi_inc))
            continue
        r_lo, r_lo_inc = (a, True) if a > lo else (lo, lo_inc)
        r_hi, r_hi_inc = (b, True) if b < hi else (hi, hi_inc)
        removed.append((r_lo, r_lo_inc, r_hi, r_hi_inc))
        if lo < a:
            out.append((lo, lo_inc, a, False))
        if hi > b:
            out.append((b, False, hi, hi_inc))
    return out, removed


def _normalize_numeric(spec: CriterionSpec) -> NormalizedCriterion:
    if not spec.bands:
        raise SpecificationError(f"criterion {spec.id!r}: no bands declared")

    stated: dict[SuitabilityClass, list[tuple[float, float]]] = {}
    for band in spec.bands:
        lo = float(band.lo)
        hi = math.inf if band.hi is None else float(band.hi)
        if not math.isfinite(lo) or lo < 0:
            raise SpecificationError(
                f"criterion {spec.id!r}: band lower bound must be finite and >= 0, got {lo}"
            )
        if hi < lo:
            raise SpecificationError(
                f"criterion {spec.id!r}: band [{lo}, {hi}] has hi < lo"
            )
        stated.setdefault(band.cls, []).append((lo, hi))

    repairs: list[str] = []
    pieces: list[tuple[_Piece, SuitabilityClass]] = []
    classes_desc = sorted(stated, key=lambda c: c.rank, reverse=True)
    for idx, cls in enumerate(classes_desc):
        own: list[_Piece] = [
            (lo, True, hi, math.isfinite(hi)) for lo, hi in _merge_closed(stated[cls])
        ]
        for higher in classes_desc[:idx]:
            for a, b in _merge_closed(stated[higher]):
                own, removed = _subtract_closed(own, a, b)
                for part in removed:
                    repairs.append(
                        f"overlap on {_piece_str(part)} claimed by both "
                        f"{higher.value} and {cls.value}; kept for {higher.value}"
                    )
        pieces.extend((p, cls) for p in own)

    pieces.sort(key=lambda pc: (pc[0][0], not pc[0][1]))
    if not pieces:
        raise SpecificationError(f"criterion {spec.id!r}: bands normalize to nothing")

    # extend toward zero
    (lo, lo_inc, hi, hi_inc), cls = pieces[0]
    if lo > 0.0 or not lo_inc:
        repairs.append(f"gap below {_piece_str((lo, lo_inc, hi, hi_inc))}: extended {cls.value} to 0")
        pieces[0] = ((0.0, True, hi, hi_inc), cls)

    # fill interior gaps
    filled: list[tuple[_Piece, SuitabilityClass]] = [pieces[0]]
    for piece, cls in pieces[1:]:
        (plo, plo_inc, phi, phi_inc), pcls = filled[-1]
        lo, lo_inc, hi, hi_inc = piece
        if lo < phi or (lo == phi and lo_inc and phi_inc):
            raise SpecificationError(
                f"criterion {spec.id!r}: irreparable overlap between "
                f"{_piece_str((plo, plo_inc, phi, phi_inc))} and {_piece_str(piece)}"
            )
        if lo > phi:
            mid = phi + (lo - phi) / 2.0
            if pcls is cls:
                repairs.append(
                    f"gap ({phi:g}, {lo:g}) between {pcls.value} pieces: bridged"
                )
                filled[-1] = ((plo, plo_inc, lo, not lo_inc), pcls)
            else:
                prev_owns_mid = pcls.rank >= cls.rank
                repairs.append(
                    f"gap ({phi:g}, {lo:g}): filled to midpoint {mid:g} "
                    f"({pcls.value} left, {cls.value} right)"
                )
                filled[-1] = ((plo, plo_inc, mid, prev_owns_mid), pcls)
                piece = (mid, not prev_owns_mid, hi, hi_inc)
        elif lo == phi and not lo_inc and not phi_inc:
            # single uncovered point; give it to the more suitable side
            if pcls.rank >= cls.rank:
                filled[-1] = ((plo, plo_inc, phi, True), pcls)
            else:
                piece = (lo, True, hi, hi_inc)
            repairs.append(f"boundary {phi:g} unowned: assigned to the more suitable side")
        filled.append((piece, cls))

    # extend to infinity
    (lo, lo_inc, hi, hi_inc), cls = filled[-1]
    if math.isfinite(hi):
        repairs.append(f"gap above {hi:g}: extended {cls.value} to inf")
        filled[-1] = ((lo, lo_inc, math.inf, False), cls)

    # merge touching same-class neighbors
    merged: list[tuple[_Piece, SuitabilityClass]] = []
    for piece, cls in filled:
        if merged and merged[-1][1] is cls:
            (plo, plo_inc, phi, phi_inc), _ = merged[-1]
            lo, lo_inc, hi, hi_inc = piece
            if phi == lo and (phi_inc != lo_inc):
                merged[-1] = ((plo, plo_inc, hi, hi_inc), cls)
                continue
        merged.append((piece, cls))

    segments = tuple(
        Segment(lo, lo_inc, hi, hi_inc, cls) for (lo, lo_inc, hi, hi_inc), cls in merged
    )
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

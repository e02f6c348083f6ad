"""Shared test utilities: random instance generation, enumeration oracles,
solution checks, the per-field instance reader as a reference for the
column reader, a big-int bitmask reference for the heuristic solvers,
per-cell loop references for the raster formatters, per-segment comparison
references for the band lookup, the interval-subtraction band normalizer
as the reference for the one-sweep normalizer, the per-cell
point-in-polygon kernel and full-grid references for the overlay kernels,
the distance kernel and the containment kernels on one point, polygons
from coordinate pairs, the scalar ring checks as references for the
one-pass ring check, consistent judgment matrices, the recursive hierarchy
walk as the reference for the one-stack walk, and readers for the Esri
ASCII grids and the coverage table."""

import csv
import dataclasses
import io
import itertools
import math
import random
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from branchsite.criteria import (
    KIND_CATEGORICAL,
    KIND_DENSITY,
    Band,
    CriterionSpec,
    NormalizedCriterion,
    ScoreScheme,
    Segment,
    _check_direction,
    _check_partition,
    classify,
    validate_spec,
)
from branchsite.geo import (
    PLANAR,
    Polygon,
    contains_each,
    distances_to,
    points_in_polygons,
)
from branchsite.fields import BOOL, LIST, MODE, NUMBER, OBJECT, STRING, XY, get
from branchsite.mclp import (
    METHOD_GREEDY_SWAP,
    CoverageCurve,
    CoverageStandard,
    MclpInstance,
    MclpSolution,
    _finish_solution,
    _matrix,
    build_coverage,
)
from branchsite.errors import ConfigError, DomainError, InputError, SpecificationError
from branchsite.weights import (
    DEFAULT_CR_THRESHOLD,
    ComparisonMatrix,
    HierarchyNode,
    WeightVector,
    gate_hierarchy,
    principal_weights,
)
from branchsite.overlay import (
    NODATA,
    GridSpec,
    SuitabilityRaster,
    CombineMode,
)
from branchsite.weights import WeightVector


def line_instance(pops, matrix, fixed_open=None) -> MclpInstance:
    """The instance whose area i is ``d{i:02d}`` at (i, 0) with population
    ``pops[i]`` and whose candidate j is ``c{j:02d}`` at (j, 1), fixed open
    where ``fixed_open[j]`` holds (none by default): the columns of every
    random family."""
    n, m = matrix.shape
    centroids = np.column_stack([np.arange(n, dtype=float), np.zeros(n)])
    locations = np.column_stack([np.arange(m, dtype=float), np.ones(m)])
    return MclpInstance(tuple(f"d{i:02d}" for i in range(n)), pops, centroids,
                        tuple(f"c{j:02d}" for j in range(m)), locations,
                        [False] * m if fixed_open is None else fixed_open, matrix)


def random_instance(rng, max_areas=30, max_cands=12, density=0.4):
    """Random MCLP instance with integer populations (so float sums are exact)."""
    n_areas = rng.randint(3, max_areas)
    n_cands = rng.randint(2, max_cands)
    matrix = np.array(
        [[rng.random() < density for _ in range(n_cands)] for _ in range(n_areas)]
    )
    pops = [float(rng.randint(1, 1000)) for _ in range(n_areas)]
    return line_instance(pops, matrix)


def oracle_family():
    """The 200 (instance, p) pairs the acceptance solver criteria run on."""
    rng = random.Random(20240614)
    out = []
    for _ in range(200):
        inst = random_instance(rng, max_areas=30, max_cands=12)
        p = rng.randint(1, min(4, len(inst.candidate_ids)))
        out.append((inst, p))
    return out


def tie_heavy_family():
    """300 small instances where many subsets tie: populations in {0, 1, 2,
    3}, about 10% of the candidates fixed open; yields (instance, p) for
    every feasible p <= 6."""
    rng = random.Random(20261018)
    for _ in range(300):
        n_areas = rng.randint(5, 40)
        n_cands = rng.randint(3, 18)
        density = rng.choice((0.1, 0.2, 0.35))
        matrix = np.array(
            [[rng.random() < density for _ in range(n_cands)] for _ in range(n_areas)]
        )
        pops = [float(rng.randint(0, 3)) for _ in range(n_areas)]
        fixed_open = [rng.random() < 0.1 for _ in range(n_cands)]
        inst = line_instance(pops, matrix, fixed_open)
        n_fixed = sum(fixed_open)
        for p in range(max(1, n_fixed), min(6, n_cands) + 1):
            yield inst, p


def fractional_family(seed, count, max_areas, max_cands, density, choices):
    """``count`` small instances whose populations are drawn from the
    fractional ``choices``, so float sums of equal covers can round apart:
    5 to ``max_areas`` areas, 3 to ``max_cands`` candidates."""
    rng = random.Random(seed)
    for _ in range(count):
        n_areas, n_cands = rng.randint(5, max_areas), rng.randint(3, max_cands)
        pops = [rng.choice(choices) for _ in range(n_areas)]
        matrix = np.array(
            [[rng.random() < density for _ in range(n_cands)] for _ in range(n_areas)]
        )
        yield line_instance(pops, matrix)


# --- the kernels on one point ---------------------------------------------------


class Point(NamedTuple):
    """A coordinate pair of the reference geometry."""

    x: float
    y: float


def distance(a, b, mode: str = PLANAR) -> float:
    """The distance in meters between the (x, y) pairs a and b: the
    ``distances_to`` kernel run on one point."""
    return float(distances_to(np.array([a[0]]), np.array([a[1]]), b[0], b[1], mode)[0])


def inside(p, poly: Polygon) -> bool:
    """Whether the (x, y) pair p lies in the polygon, boundary included:
    ``contains_each`` on one point."""
    (got,) = contains_each(np.array([p], dtype=float), [poly])
    return got


def grid_inside(xs: np.ndarray, ys: np.ndarray, poly: Polygon) -> np.ndarray:
    """The (len(ys), len(xs)) containment grid of ascending axes in one
    polygon: ``points_in_polygons`` with the whole grid as its window."""
    (got,) = points_in_polygons(xs, ys, [poly], [(0, len(ys), 0, len(xs))])
    return got


def center_at(grid: GridSpec, row: int, col: int) -> Point:
    """The center of cell (row, col), read from ``grid.center_axes()``."""
    xs, ys = grid.center_axes()
    return Point(float(xs[col]), float(ys[row]))


def enumerate_optimum(inst, p):
    """Full enumeration of the p-sets that hold every fixed-open candidate:
    C(free, p - fixed) subsets of the free candidates, each with the fixed
    ones added; returns (z, lexicographically smallest optimal id set)."""
    pops = inst.populations
    ids = inst.candidate_ids
    id_order = sorted(range(len(ids)), key=lambda j: ids[j])
    fixed = [j for j in id_order if inst.fixed_open[j]]
    free = [j for j in id_order if not inst.fixed_open[j]]
    best_z = -1.0
    best_sel = None
    for extra in itertools.combinations(free, p - len(fixed)):
        subset = fixed + list(extra)
        covered = inst.matrix[:, subset].any(axis=1)
        z = float(pops[covered].sum())
        if z > best_z:
            best_z = z
            best_sel = tuple(sorted(ids[j] for j in subset))
    return best_z, best_sel


def optimal_sets(inst, p):
    """Every optimal p-set that holds the fixed-open candidates, as a set of
    ids, by full enumeration with the canonical objective."""
    ids, pops = inst.candidate_ids, inst.populations
    fixed = [j for j in range(len(ids)) if inst.fixed_open[j]]
    free = [j for j in range(len(ids)) if not inst.fixed_open[j]]
    sets = [fixed + list(extra) for extra in itertools.combinations(free, p - len(fixed))]
    zs = [float(pops[inst.matrix[:, s].any(axis=1)].sum()) for s in sets]
    z_star = max(zs)
    return [{ids[j] for j in s} for s, z in zip(sets, zs) if z == z_star]


def covering_candidates(inst: MclpInstance, area_index: int) -> list[str]:
    """N_i: ids of the candidates covering area i."""
    return [cid for cid, hit in zip(inst.candidate_ids, inst.matrix[area_index]) if hit]


def verify_solution(inst: MclpInstance, sol: MclpSolution) -> bool:
    """Re-evaluate feasibility and the coverage linkage from the raw matrix."""
    if len(sol.selected) != sol.p:
        return False
    idx = {cid: j for j, cid in enumerate(inst.candidate_ids)}
    if any(s not in idx for s in sol.selected):
        return False
    cols = [idx[s] for s in sol.selected]
    covered_rows = inst.matrix[:, cols].any(axis=1)
    covered_ids = {aid for aid, c in zip(inst.area_ids, covered_rows) if c}
    if covered_ids != set(sol.covered):
        return False
    z = float(inst.populations[covered_rows].sum())
    return z == sol.objective


# -- per-field instance reader ---------------------------------------------------
# The instance reader as it was written before the columns: three typed
# ``get`` calls per area and per candidate. ``MclpInstance.from_dict`` must
# return the same instance, or raise the same error, on any input.

def reference_instance_from_dict(d: dict) -> MclpInstance:
    mode = get(d, "mode", MODE, "instance", default=PLANAR)
    standard = None
    if d.get("standard") is not None:
        standard = CoverageStandard.from_dict(get(d, "standard", OBJECT, "instance"))
    areas = [
        (get(a, "id", STRING, "instance", "areas", i),
         get(a, "population", NUMBER, "instance", "areas", i),
         get(a, "centroid", XY, "instance", "areas", i))
        for i, a in enumerate(get(d, "areas", LIST, "instance", default=[]))
    ]
    cands = [
        (get(c, "id", STRING, "instance", "candidates", i),
         get(c, "location", XY, "instance", "candidates", i),
         get(c, "fixed_open", BOOL, "instance", "candidates", i, default=False))
        for i, c in enumerate(get(d, "candidates", LIST, "instance", default=[]))
    ]
    ids = tuple(a[0] for a in areas)
    pops = [a[1] for a in areas]
    centroids = np.array([a[2] for a in areas]).reshape(-1, 2)
    cids = tuple(c[0] for c in cands)
    locations = np.array([c[1] for c in cands]).reshape(-1, 2)
    fixed_open = [c[2] for c in cands]
    if d.get("matrix") is None:
        if standard is None:
            raise InputError("instance needs either a matrix or a coverage standard")
        return build_coverage(ids, pops, centroids, cids, locations, fixed_open,
                              standard, mode=mode)
    return MclpInstance(ids, pops, centroids, cids, locations, fixed_open,
                        _matrix(d, len(cands)), standard=standard, mode=mode)


# -- bitmask reference --------------------------------------------------------
# The greedy, swap and extension loops as they were written over per-candidate
# Python int bitmasks, scanning candidates one at a time in id order. The
# library's matrix-product solvers must return exactly what these return.

def candidate_area_masks(inst: MclpInstance) -> list[int]:
    """Per-candidate bitmask of covered area indices."""
    masks = []
    for j in range(len(inst.candidate_ids)):
        m = 0
        col = inst.matrix[:, j]
        for i in range(len(inst.area_ids)):
            if col[i]:
                m |= 1 << i
        masks.append(m)
    return masks


def _popcount_weight(mask: int, pops: Sequence[float]) -> float:
    total = 0.0
    i = 0
    while mask:
        if mask & 1:
            total += pops[i]
        mask >>= 1
        i += 1
    return total


def _prepare(inst: MclpInstance, p: int):
    n = len(inst.candidate_ids)
    if not 1 <= p <= n:
        raise InputError(f"p must be in [1, {n}], got {p}")
    order = sorted(range(n), key=lambda j: inst.candidate_ids[j])
    pops = inst.populations.tolist()
    masks = candidate_area_masks(inst)
    fixed = [j for j in order if inst.fixed_open[j]]
    if len(fixed) > p:
        raise InputError(
            f"{len(fixed)} candidates are fixed open but p={p}"
        )
    return order, pops, masks, fixed


def reference_solve_greedy(inst: MclpInstance, p: int) -> MclpSolution:
    order, pops, masks, fixed = _prepare(inst, p)
    chosen: list[int] = []
    covered = 0
    gains: list[float] = []
    for j in fixed:
        gains.append(_popcount_weight(masks[j] & ~covered, pops))
        covered |= masks[j]
        chosen.append(j)
    while len(chosen) < p:
        best_j = None
        best_gain = -1.0
        for j in order:
            if j in chosen:
                continue
            g = _popcount_weight(masks[j] & ~covered, pops)
            if g > best_gain:
                best_gain = g
                best_j = j
        chosen.append(best_j)
        covered |= masks[best_j]
        gains.append(best_gain)
    free_gains = gains[len(fixed):]
    if any(b > a + 1e-9 for a, b in zip(free_gains, free_gains[1:])):
        raise AssertionError("greedy marginal gains must be non-increasing")
    ids = [inst.candidate_ids[j] for j in chosen]
    return _finish_solution(inst, ids, METHOD_GREEDY_SWAP, optimal=False, gains=gains)


def reference_improve_swap(inst: MclpInstance, sol: MclpSolution) -> MclpSolution:
    order, pops, masks, _fixed = _prepare(inst, sol.p)
    id_to_idx = {cid: j for j, cid in enumerate(inst.candidate_ids)}
    fixed_ids = {cid for cid, fixed in zip(inst.candidate_ids, inst.fixed_open) if fixed}
    selected = sorted(sol.selected)
    z_cur = sol.objective
    improved = True
    while improved:
        improved = False
        best = None  # (z_new, out_id, in_id)
        sel_set = set(selected)
        for out_id in selected:
            if out_id in fixed_ids:
                continue
            keep = [id_to_idx[s] for s in selected if s != out_id]
            base_mask = 0
            for j in keep:
                base_mask |= masks[j]
            for j in order:  # candidates in id order: deterministic scan
                cand_id = inst.candidate_ids[j]
                if cand_id in sel_set:
                    continue
                z_new = _popcount_weight(base_mask | masks[j], pops)
                if z_new > z_cur and (best is None or z_new > best[0]):
                    best = (z_new, out_id, cand_id)
        if best is not None:
            _, out_id, in_id = best
            selected = sorted(set(selected) - {out_id} | {in_id})
            z_cur = best[0]
            improved = True
    out = _finish_solution(inst, selected, METHOD_GREEDY_SWAP, optimal=False,
                           gains=sol.marginal_gains)
    if out.objective < sol.objective:
        raise AssertionError("swap improvement must not lower the objective")
    return out


def reference_extend_by_best(inst: MclpInstance, prev: MclpSolution) -> MclpSolution:
    order, pops, masks, _ = _prepare(inst, prev.p + 1)
    id_to_idx = {cid: j for j, cid in enumerate(inst.candidate_ids)}
    covered = 0
    for s in prev.selected:
        covered |= masks[id_to_idx[s]]
    best_j = None
    best_gain = -1.0
    sel = set(prev.selected)
    for j in order:
        if inst.candidate_ids[j] in sel:
            continue
        g = _popcount_weight(masks[j] & ~covered, pops)
        if g > best_gain:
            best_gain = g
            best_j = j
    ids = list(prev.selected) + [inst.candidate_ids[best_j]]
    return _finish_solution(inst, ids, METHOD_GREEDY_SWAP, optimal=False,
                            gains=tuple(prev.marginal_gains) + (best_gain,))


def reference_greedy_curve(inst: MclpInstance, p_max: int) -> CoverageCurve:
    """coverage_curve(inst, p_max, "greedy+swap") over the reference loops."""
    rows: list[MclpSolution] = []
    for p in range(1, p_max + 1):
        sol = reference_improve_swap(inst, reference_solve_greedy(inst, p))
        if rows:
            ext = reference_extend_by_best(inst, rows[-1])
            if ext.objective > sol.objective:
                sol = ext
        rows.append(sol)
    return CoverageCurve(tuple(rows))


# --- per-cell loop references for the raster formatters --------------------
# The formatters as they were before they formatted each distinct value
# once, kept verbatim; overlay's array formatters must give the same text.


def reference_esri_ascii_text(grid: GridSpec, values: np.ndarray,
                              nodata: float = NODATA) -> str:
    """Esri ASCII grid body; rows written north to south."""
    lines = [
        f"NCOLS {grid.ncols}",
        f"NROWS {grid.nrows}",
        f"XLLCORNER {grid.origin_x!r}",
        f"YLLCORNER {grid.origin_y!r}",
        f"CELLSIZE {grid.cell_size!r}",
        f"NODATA_VALUE {nodata!r}",
    ]
    for row in range(grid.nrows - 1, -1, -1):
        cells = [
            repr(nodata) if math.isnan(v) else repr(float(v))
            for v in values[row, :]
        ]
        lines.append(" ".join(cells))
    return "\n".join(lines) + "\n"


def reference_score_points_geojson(raster, meta: dict | None = None) -> dict:
    """GeoJSON FeatureCollection of in-area cell centers with their score.

    ``meta`` entries (config digest, mode, ...) are added as top-level
    foreign members so the file identifies the run that produced it.
    """
    features = []
    grid = raster.grid
    values = raster.values
    for row in range(grid.nrows):
        for col in range(grid.ncols):
            v = values[row, col]
            if math.isnan(v):
                continue
            center = center_at(grid, row, col)
            features.append({
                "type": "Feature",
                "geometry": {"type": "Point", "coordinates": [center.x, center.y]},
                "properties": {"score": float(v)},
            })
    payload = {"type": "FeatureCollection", "features": features}
    if meta:
        payload.update(meta)
    return payload


# --- per-segment comparison references for the band lookup ------------------
# The band decision as it was written before criteria.segment_index: each
# segment tests both of its endpoints, the scalar rule as a segment method and
# the array rule in overlay. Kept verbatim apart from the score lookup, which
# goes through ScoreScheme.value since the criteria.score alias is gone.


def segment_contains(seg: Segment, v: float) -> bool:
    above = v > seg.lo or (seg.lo_inc and v == seg.lo)
    below = v < seg.hi or (seg.hi_inc and v == seg.hi)
    return above and below


def _classify_scores(spec: NormalizedCriterion, raws: np.ndarray,
                     scheme: ScoreScheme) -> np.ndarray:
    """Vectorized band lookup; comparisons mirror criteria.classify."""
    out = np.full(raws.shape, np.nan)
    assigned = np.zeros(raws.shape, dtype=bool)
    for seg in spec.segments:
        above = (raws > seg.lo) | (seg.lo_inc & (raws == seg.lo))
        below = (raws < seg.hi) | (seg.hi_inc & (raws == seg.hi))
        hit = above & below & ~assigned
        out[hit] = scheme.value(seg.cls)
        assigned |= hit
    if not assigned.all():
        bad = float(raws[~assigned].flat[0])
        raise InputError(f"criterion {spec.id!r}: raw value {bad} outside normalized bands")
    return out


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


def reference_normalize(spec: CriterionSpec) -> NormalizedCriterion:
    """The interval-subtraction normalizer ``validate_spec`` replaced: each
    class's merged bands less every more suitable class's, then the gap
    walk over the pieces left."""
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


def _normalized_outcome(normalize, spec: CriterionSpec):
    """The segments (bounds by ``repr``, so with their sign) and repairs
    ``normalize`` gives ``spec``, or the text of its SpecificationError."""
    try:
        norm = normalize(spec)
    except SpecificationError as exc:
        return str(exc)
    return ([(repr(s.lo), s.lo_inc, repr(s.hi), s.hi_inc, s.cls) for s in norm.segments],
            norm.repairs)


def _unsigned(x):
    return 0.0 if x == 0 else x


def has_empty_gap(spec: CriterionSpec) -> bool:
    """Whether two stated edges of ``spec`` are adjacent floats and no band
    holds the open stretch between them, which holds no value."""
    bands = [(b.lo, math.inf if b.hi is None else b.hi) for b in spec.bands]
    edges = sorted({x for band in bands for x in band} - {math.inf})
    return any(math.nextafter(a, math.inf) == b
               and not any(lo <= a and b <= hi for lo, hi in bands)
               for a, b in zip(edges, edges[1:]))


def check_normalizes_like_reference(spec: CriterionSpec):
    """Assert ``validate_spec`` gives ``spec`` the segments, repairs or
    error text ``reference_normalize`` gives it with its -0.0 edges read as
    0.0, and return that outcome. A table that normalizes and has an empty
    gap is not compared, and None returned: the reference repairs such a
    gap, ``validate_spec`` leaves each of its edges with its band."""
    got = _normalized_outcome(validate_spec, spec)
    if not isinstance(got, str) and has_empty_gap(spec):
        return None
    unsigned = dataclasses.replace(spec, bands=tuple(
        Band(_unsigned(b.lo), _unsigned(b.hi), b.cls) for b in spec.bands))
    want = _normalized_outcome(reference_normalize, unsigned)
    assert got == want, (spec, got, want)
    return got


# --- polygons from coordinate pairs -------------------------------------------


def polygon_from_coords(exterior: Iterable[tuple[float, float]],
                        holes: Iterable[Iterable[tuple[float, float]]] = ()) -> Polygon:
    return Polygon(list(exterior), tuple(list(ring) for ring in holes))


# --- the scalar ring checks ------------------------------------------------------
# geo's segment test, ring normalization and shoelace loop on Points as they
# were before every ring of a layer was checked in one array pass, kept
# verbatim, and geo._ring_self_intersects as it was before it swept the edges' bounding
# boxes: every pair of edges that share no endpoint. ``ring_points`` turns
# an n x 2 ring into the Points they take.


def ring_points(ring) -> tuple[Point, ...]:
    return tuple(Point(x, y) for x, y in np.asarray(ring, dtype=float).tolist())


def _orient(a: Point, b: Point, c: Point) -> float:
    return (b.x - a.x) * (c.y - a.y) - (b.y - a.y) * (c.x - a.x)


def _on_segment(a: Point, b: Point, p: Point) -> bool:
    """True iff p lies on the closed segment [a, b]."""
    cross = (b.x - a.x) * (p.y - a.y) - (b.y - a.y) * (p.x - a.x)
    if cross != 0.0:
        return False
    return (
        min(a.x, b.x) <= p.x <= max(a.x, b.x)
        and min(a.y, b.y) <= p.y <= max(a.y, b.y)
    )


def _segments_intersect(p1: Point, p2: Point, q1: Point, q2: Point) -> bool:
    d1 = _orient(q1, q2, p1)
    d2 = _orient(q1, q2, p2)
    d3 = _orient(p1, p2, q1)
    d4 = _orient(p1, p2, q2)
    if ((d1 > 0) != (d2 > 0) and d1 != 0 and d2 != 0) and (
        (d3 > 0) != (d4 > 0) and d3 != 0 and d4 != 0
    ):
        return True
    if d1 == 0 and _on_segment(q1, q2, p1):
        return True
    if d2 == 0 and _on_segment(q1, q2, p2):
        return True
    if d3 == 0 and _on_segment(p1, p2, q1):
        return True
    if d4 == 0 and _on_segment(p1, p2, q2):
        return True
    return False


def _normalize_ring(vertices: Sequence[Point]) -> tuple[Point, ...]:
    """Drop a duplicated closing vertex and validate the ring is usable."""
    pts = list(vertices)
    if len(pts) >= 2 and pts[0] == pts[-1]:
        pts = pts[:-1]
    if len(pts) < 3:
        raise DomainError("polygon ring needs at least 3 distinct vertices")
    if len(set((p.x, p.y) for p in pts)) != len(pts):
        raise DomainError("polygon ring has repeated vertices")
    return tuple(pts)


def _ring_area(ring: Sequence[Point]) -> float:
    """Signed shoelace area of a ring given without the closing vertex."""
    s = 0.0
    n = len(ring)
    for i in range(n):
        a = ring[i]
        b = ring[(i + 1) % n]
        s += a.x * b.y - b.x * a.y
    return 0.5 * s


def reference_ring_self_intersects(ring: Sequence[Point]) -> bool:
    n = len(ring)
    for i in range(n):
        a1, a2 = ring[i], ring[(i + 1) % n]
        for j in range(i + 1, n):
            # skip the segment itself and segments sharing an endpoint
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                continue
            b1, b2 = ring[j], ring[(j + 1) % n]
            if _segments_intersect(a1, a2, b1, b2):
                return True
    return False


# --- the per-cell point-in-polygon kernel -------------------------------------
# geo.points_in_polygon as it was before it became a kernel over grid axes,
# kept verbatim: about 20 full-array passes per polygon edge over the given
# points, which may have any shape and order.


def reference_points_in_polygon(xs: np.ndarray, ys: np.ndarray, poly: Polygon) -> np.ndarray:
    """Ray-crossing containment of each point (xs[k], ys[k]); boundary
    points count as inside."""

    def ring_arrays(ring):
        ax = np.array(ring[:, 0])
        ay = np.array(ring[:, 1])
        bx = np.roll(ax, -1)
        by = np.roll(ay, -1)
        return ax, ay, bx, by

    def crossings_odd(ring):
        ax, ay, bx, by = ring_arrays(ring)
        inside = np.zeros(xs.shape, dtype=bool)
        with np.errstate(divide="ignore", invalid="ignore"):
            for i in range(len(ax)):
                cond = (ay[i] > ys) != (by[i] > ys)
                if not cond.any():
                    continue
                x_at = ax[i] + (ys - ay[i]) * (bx[i] - ax[i]) / (by[i] - ay[i])
                inside ^= cond & (xs < x_at)
        return inside

    def on_ring(ring):
        ax, ay, bx, by = ring_arrays(ring)
        on = np.zeros(xs.shape, dtype=bool)
        for i in range(len(ax)):
            cross = (bx[i] - ax[i]) * (ys - ay[i]) - (by[i] - ay[i]) * (xs - ax[i])
            bbox = (
                (np.minimum(ax[i], bx[i]) <= xs) & (xs <= np.maximum(ax[i], bx[i]))
                & (np.minimum(ay[i], by[i]) <= ys) & (ys <= np.maximum(ay[i], by[i]))
            )
            on |= (cross == 0.0) & bbox
        return on

    boundary = on_ring(poly.exterior)
    for hole in poly.holes:
        boundary |= on_ring(hole)
    inside = crossings_odd(poly.exterior)
    for hole in poly.holes:
        inside &= ~crossings_odd(hole)
    return boundary | inside


# --- full-grid references for the overlay kernels ---------------------------
# build_mask, rasterize and combine as they were before they computed only
# the cells they keep, and before distances were measured only within a
# criterion's reach, kept verbatim apart from the full (nrows, ncols) center
# arrays, which the grid no longer builds; the masked kernels must give the
# same arrays and the same errors.


def _reference_center_arrays(grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """(xs, ys) arrays of shape (nrows, ncols), from center_axes."""
    xs, ys = grid.center_axes()
    return np.broadcast_to(xs, (grid.nrows, grid.ncols)).copy(), \
        np.broadcast_to(ys[:, None], (grid.nrows, grid.ncols)).copy()


def _min_distances(xs: np.ndarray, ys: np.ndarray, points: np.ndarray,
                   mode: str) -> np.ndarray:
    best = np.full(xs.shape, np.inf)
    for px, py in points.tolist():
        np.minimum(best, distances_to(xs, ys, px, py, mode), out=best)
    return best


# the zone-layer test of rasterize as it was: only the first item is checked
def _is_zone_layer(features) -> bool:
    for item in features:
        return isinstance(item, tuple) and isinstance(item[0], Polygon)
    return False


def reference_build_mask(grid: GridSpec, polygons: Sequence[Polygon]) -> np.ndarray:
    """True where the cell center lies inside any of the polygons."""
    xs, ys = _reference_center_arrays(grid)
    mask = np.zeros(grid.shape, dtype=bool)
    for poly in polygons:
        mask |= reference_points_in_polygon(xs, ys, poly)
    return mask


def reference_rasterize(spec: NormalizedCriterion, features, grid: GridSpec,
                        scheme: ScoreScheme, mask: np.ndarray | None = None,
                        mode: str = PLANAR) -> SuitabilityRaster:
    """Score one criterion at every in-area cell center.

    ``features`` is an n x 2 float64 point array for distance criteria, or
    a sequence of (Polygon, attribute) zones for categorical/density
    criteria. Zones may nest; the smallest zone containing the center wins,
    so the result does not depend on feature order.
    """
    if mask is None:
        mask = np.ones(grid.shape, dtype=bool)
    if mask.shape != grid.shape:
        raise InputError("mask shape does not match the grid")
    xs, ys = _reference_center_arrays(grid)
    values = np.full(grid.shape, np.nan)

    if spec.kind in (KIND_CATEGORICAL, KIND_DENSITY):
        zones = list(features)
        if not zones:
            raise InputError(f"criterion {spec.id!r}: empty zone layer")
        if not _is_zone_layer(zones):
            raise InputError(
                f"criterion {spec.id!r} expects (Polygon, attribute) zones"
            )
        best_area = np.full(grid.shape, np.inf)
        zone_idx = np.full(grid.shape, -1)
        for k, (poly, _value) in enumerate(zones):
            contains = reference_points_in_polygon(xs, ys, poly) & mask
            take = contains & (poly.area < best_area)
            best_area[take] = poly.area
            zone_idx[take] = k
        missing = mask & (zone_idx < 0)
        if missing.any():
            row, col = map(int, np.argwhere(missing)[0])
            center = center_at(grid, row, col)
            raise InputError(
                f"criterion {spec.id!r}: cell (row={row}, col={col}) at "
                f"({center.x}, {center.y}) is covered by no zone polygon"
            )
        for k, (_poly, value) in enumerate(zones):
            cells = zone_idx == k
            if cells.any():
                values[cells] = scheme.value(classify(spec, value))
        return SuitabilityRaster.from_values(grid, spec.id, values, mask)

    if not (isinstance(features, np.ndarray) and features.dtype == np.float64
            and features.shape[1:] == (2,)):
        raise InputError(f"criterion {spec.id!r} expects point features")
    if not len(features):
        raise InputError(f"criterion {spec.id!r}: empty feature layer")
    raws = _min_distances(xs, ys, features, mode)
    values[mask] = _classify_scores(spec, raws[mask], scheme)
    return SuitabilityRaster.from_values(grid, spec.id, values, mask)


def reference_combine(rasters: Sequence[SuitabilityRaster], weights,
                      mode: CombineMode) -> SuitabilityRaster:
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
    if mode is CombineMode.WEIGHTED_SUM:
        acc = np.zeros(grid.shape)
        for k in order:
            acc = acc + w_list[k] * rasters[k].values
    elif mode is CombineMode.LITERAL_PRODUCT:
        acc = np.ones(grid.shape)
        for k in order:
            acc = acc * (w_list[k] * rasters[k].values)
    elif mode is CombineMode.WEIGHTED_GEOMETRIC:
        acc = np.ones(grid.shape)
        for k in order:
            acc = acc * np.power(rasters[k].values, w_list[k])
    else:
        raise InputError(f"unknown combine mode: {mode!r}")
    return SuitabilityRaster.from_values(grid, "score", acc, mask.copy())


# Scores whose bits a coded raster must keep: the signed zeros, and NaNs of
# other payloads than math.nan's, one of them negative.
SIGNED_ZEROS = np.array([0.0, -0.0])
NAN_PAYLOADS = np.array([0x7FF8000000000001, -0x0008000000000000],
                        dtype=np.int64).view(float)


def random_score_rasters(rng: np.random.Generator, grid: GridSpec, mask: np.ndarray,
                         n: int, distinct: int) -> list[SuitabilityRaster]:
    """``n`` rasters ``c0``, ``c1``, ... on ``mask``, built by ``from_values``:
    each cell holds a signed zero or one of ``distinct`` random scores in
    [0, 1), and a cell of ``c0`` may hold one of ``NAN_PAYLOADS``.

    Only one raster holds NaNs: where two NaNs of other payloads meet in a
    sum or product, IEEE 754 leaves open whose payload the result keeps, and
    numpy's vector loops keep the first operand's but their scalar tails
    the second's, so the result would depend on the cell's place in the
    array."""
    rasters = []
    for k in range(n):
        specials = np.concatenate((SIGNED_ZEROS, NAN_PAYLOADS)) if k == 0 else SIGNED_ZEROS
        values = rng.choice(np.concatenate((specials, rng.random(distinct))), size=grid.shape)
        rasters.append(SuitabilityRaster.from_values(grid, f"c{k}", values, mask))
    return rasters


# --- Esri ASCII grid and coverage table readers -----------------------------
# Only the tests read the artifacts back; the package writes them.


def read_esri_ascii(path: str | Path) -> tuple[GridSpec, np.ndarray]:
    """Parse an Esri ASCII grid; nodata cells come back as NaN."""
    text = Path(path).read_text().strip().splitlines()
    header: dict[str, float] = {}
    data_lines = []
    for line in text:
        parts = line.split()
        if len(parts) == 2 and parts[0].upper() in (
            "NCOLS", "NROWS", "XLLCORNER", "YLLCORNER", "CELLSIZE", "NODATA_VALUE"
        ):
            header[parts[0].upper()] = float(parts[1])
        else:
            data_lines.append(parts)
    try:
        grid = GridSpec(
            origin_x=header["XLLCORNER"],
            origin_y=header["YLLCORNER"],
            cell_size=header["CELLSIZE"],
            ncols=int(header["NCOLS"]),
            nrows=int(header["NROWS"]),
        )
    except KeyError as exc:
        raise InputError(f"esri ascii grid missing header field {exc}") from None
    nodata = header.get("NODATA_VALUE", NODATA)
    rows = [[float(v) for v in line] for line in data_lines]
    if len(rows) != grid.nrows or any(len(r) != grid.ncols for r in rows):
        raise InputError("esri ascii grid body does not match NCOLS/NROWS")
    values = np.array(rows[::-1], dtype=float)  # back to row 0 = south
    values[values == nodata] = np.nan
    return grid, values


def parse_coverage_table_csv(text: str) -> list[tuple[int, tuple[str, ...], float]]:
    """The rows of a coverage.csv as (p, selected ids, covering percentage)."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    if header != ["p", "selected_ids", "covering_percentage"]:
        raise InputError(f"unexpected coverage table header: {header}")
    out = []
    for row in reader:
        if not row:
            continue
        out.append((int(row[0]), tuple(row[1].split(";")), float(row[2])))
    return out


# --- judgment matrices ---------------------------------------------------------


def consistent_matrix(matrix_id: str, items: Sequence[str],
                      weights: Iterable[float]) -> ComparisonMatrix:
    """Build the perfectly consistent matrix a[i][j] = w_i / w_j."""
    w = list(weights)
    rows = tuple(tuple(wi / wj for wj in w) for wi in w)
    return ComparisonMatrix(id=matrix_id, items=tuple(items), rows=rows)


# --- the recursive hierarchy walk ---------------------------------------------


@dataclasses.dataclass(frozen=True)
class _ReferenceHierarchy:
    """The hierarchy as ``weights.Hierarchy`` was before its walk took one
    explicit stack: validated, listed and synthesized by recursion."""

    nodes: tuple[HierarchyNode, ...]
    root: str
    node_index: dict = dataclasses.field(init=False, compare=False, repr=False)

    def __post_init__(self):
        index = {n.id: n for n in self.nodes}
        if len(index) != len(self.nodes):
            raise ConfigError("hierarchy node ids must be unique")
        if self.root not in index:
            raise ConfigError(f"hierarchy root {self.root!r} is not a declared node")
        object.__setattr__(self, "node_index", index)

        seen_children: set[str] = set()
        visited: set[str] = set()

        def rec(node_id: str, visiting: frozenset[str]):
            if node_id in visiting:
                raise ConfigError(f"hierarchy contains a cycle through {node_id!r}")
            node = index.get(node_id)
            if node is None:
                return  # a leaf (criterion id)
            visited.add(node_id)
            for child in node.children:
                if child in seen_children:
                    raise ConfigError(f"{child!r} appears under two hierarchy parents")
                seen_children.add(child)
                rec(child, visiting | {node_id})

        rec(self.root, frozenset())
        unreachable = set(index) - visited
        if unreachable:
            raise ConfigError(f"hierarchy nodes unreachable from root: {sorted(unreachable)}")

    def leaves(self) -> tuple[str, ...]:
        out: list[str] = []

        def rec(node_id: str):
            node = self.node_index.get(node_id)
            if node is None:
                out.append(node_id)
                return
            for child in node.children:
                rec(child)

        rec(self.root)
        return tuple(out)

    def matrices(self) -> tuple[ComparisonMatrix, ...]:
        return tuple(n.matrix for n in self.nodes if n.matrix is not None)


def _reference_synthesize(hierarchy: _ReferenceHierarchy,
                          threshold: float = DEFAULT_CR_THRESHOLD) -> WeightVector:
    gate_hierarchy(hierarchy, threshold)

    leaf_ids: list[str] = []
    leaf_weights: list[float] = []

    def rec(node_id: str, acc: float):
        node = hierarchy.node_index.get(node_id)
        if node is None:
            leaf_ids.append(node_id)
            leaf_weights.append(acc)
            return
        if node.matrix is None:
            local = {node.children[0]: 1.0}
        else:
            local = principal_weights(node.matrix).as_dict()
        for child in node.children:
            rec(child, acc * local[child])

    rec(hierarchy.root, 1.0)
    total = sum(leaf_weights)
    return WeightVector(tuple(leaf_ids), tuple(w / total for w in leaf_weights))


def reference_hierarchy(nodes: Sequence[HierarchyNode], root: str,
                        threshold: float = DEFAULT_CR_THRESHOLD
                        ) -> tuple[tuple[str, ...], WeightVector]:
    """The leaves and synthesized weights of the hierarchy, by the recursive
    walk; raises what that walk or the gate raises."""
    h = _ReferenceHierarchy(tuple(nodes), root)
    return h.leaves(), _reference_synthesize(h, threshold)

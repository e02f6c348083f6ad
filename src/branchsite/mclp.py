"""Maximal covering location problem: coverage matrix construction, an exact
branch-and-bound solver, a greedy heuristic with swap improvement, and
coverage curves over the facility budget.

An instance is demand areas I (each a weighted point: the area centroid),
candidates J, and the binary coverage matrix a[i][j] = 1 iff candidate j
lies within the coverage standard of centroid i. Choosing p candidates, the
objective is the total population of areas covered by at least one choice.
The areas are held as three columns (ids, float64 populations, n x 2
float64 centroids), the candidates as three more (ids, m x 2 float64
locations, bool fixed-open flags: every selection holds those sites). The
instance reader types each column at once (``fields.columns``).

The bool matrix is the solvers' only representation of coverage. They read
one float64 0/1 copy of it, taken once per instance, with the columns in
ascending id order; every marginal gain is one matrix-vector product of the
uncovered populations with those columns (``_gains``). Ties go to the first
maximum, the smallest id. Each instance keeps the greedy+swap rows made
so far, and only finished ones: the exact solver's incumbent for budget p
is the objective of row p, its search arrays are prepared once per
instance too, and the instance keeps the root multipliers of the budget
solved last, which start the next one.

Exactness: every comparison of two complete selections (a B&B leaf with
the incumbent, a swap with the current set) uses the canonical objective,
one numpy sum over the covered rows (``_objective``), which is what a
solution reports and what the oracle computes. Bounds are float sums in
other orders; they cut with no slack only when every population is an
integer and the total is below 2**53, so that every partial sum is exact.
Fractional populations are therefore solved exactly too.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import math
import reprlib
from dataclasses import dataclass, field
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from .errors import ConfigError, InputError, SolverRefused
from .fields import (
    BOOL,
    LIST,
    MODE,
    NUMBER,
    OBJECT,
    STRING,
    XY,
    Chunks,
    Kind,
    columns,
    get,
    is_number,
    json_text,
    mistyped,
    parse_json,
)
from .geo import PLANAR, distances_to

EXACT_SIZE_CAP = 30

METHOD_EXACT = "exact"
METHOD_GREEDY_SWAP = "greedy+swap"
METHODS = (METHOD_EXACT, METHOD_GREEDY_SWAP)


@dataclass(frozen=True)
class CoverageStandard:
    """Coverage rule: a straight radius, or a travel time at a fixed speed
    converted to the equivalent radius."""

    kind: str = "radius"
    radius: float | None = None
    minutes: float | None = None
    speed_kmh: float | None = None

    def __post_init__(self):
        if self.kind == "radius":
            names = ("radius",)
        elif self.kind == "travel_time":
            names = ("minutes", "speed_kmh")
        else:
            raise ConfigError(
                f"coverage standard: unknown kind {reprlib.repr(self.kind)}")
        for name in names:
            value = getattr(self, name)
            if not (is_number(value) and value > 0):
                raise ConfigError(f"coverage standard: {name} must be a finite "
                                  f"positive number, got {reprlib.repr(value)}")
        if not math.isfinite(self.effective_radius_m):
            raise ConfigError("coverage standard: travel time gives an infinite radius")

    @property
    def effective_radius_m(self) -> float:
        if self.kind == "radius":
            return float(self.radius)
        return float(self.speed_kmh) * 1000.0 / 60.0 * float(self.minutes)

    def to_dict(self) -> dict:
        if self.kind == "radius":
            return {"kind": "radius", "radius": self.radius}
        return {"kind": "travel_time", "minutes": self.minutes, "speed_kmh": self.speed_kmh}

    @classmethod
    def from_dict(cls, d: dict) -> "CoverageStandard":
        return cls(
            kind=d.get("kind", "radius"),
            radius=d.get("radius"),
            minutes=d.get("minutes"),
            speed_kmh=d.get("speed_kmh"),
        )


class _SolverView(NamedTuple):   # what the solvers read, once per instance
    ids: tuple[str, ...]        # candidate ids in ascending order: the columns
    position: dict[str, int]    # candidate id -> its column
    fixed: list[int]            # the columns of the fixed-open candidates
    cols: np.ndarray            # float64 0/1 coverage, read-only


class _Search(NamedTuple):      # what ``solve_exact`` reads, once per instance
    free: list[int]             # the columns that are not fixed open
    hit: np.ndarray             # bool coverage of the free columns
    reach: np.ndarray           # column k: what free columns k on can cover
    table: np.ndarray           # float64 [hit | reach]: one product, both gains
    covered: np.ndarray         # what the fixed-open sites cover
    z: float                    # their objective
    tol: float                  # 1e-9 of the total, or 1 if that is 0
    slack: float                # 0 when every bound is an exact sum, else tol


def _frozen(values, shape: tuple, name: str, dtype=np.float64) -> np.ndarray:
    """A read-only ``dtype`` copy of ``values``, which must have ``shape``."""
    a = np.array(values, dtype=dtype)
    if a.shape != shape:
        raise InputError(f"{name} must have shape {shape}, got {a.shape}")
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False)
class MclpInstance:
    """An MCLP instance as columns. Instances compare by identity: an
    array field has no single truth value to compare by."""

    area_ids: tuple[str, ...]
    populations: np.ndarray     # float64, |I|, read-only
    centroids: np.ndarray       # float64, |I| x 2, read-only
    candidate_ids: tuple[str, ...]
    locations: np.ndarray       # float64, |J| x 2, read-only
    fixed_open: np.ndarray      # bool, |J|, read-only
    matrix: np.ndarray          # bool, |I| x |J|, read-only
    standard: CoverageStandard | None = None
    mode: str = PLANAR

    def __post_init__(self):
        n, m = len(self.area_ids), len(self.candidate_ids)
        for name, shape, dtype in (("populations", (n,), float), ("centroids", (n, 2), float),
                                   ("locations", (m, 2), float), ("fixed_open", (m,), bool)):
            object.__setattr__(self, name, _frozen(getattr(self, name), shape, name, dtype))
        pops = self.populations
        bad = np.flatnonzero(~(np.isfinite(pops) & (pops >= 0)))
        if bad.size:
            raise InputError(f"demand area {self.area_ids[bad[0]]!r}: "
                             "population must be a finite number >= 0")
        if not np.isfinite(self.centroids).all():
            raise InputError("demand area centroids must be finite")
        if not np.isfinite(self.locations).all():
            raise InputError("candidate locations must be finite")
        if self.matrix.shape != (n, m):
            raise InputError("coverage matrix shape does not match areas x candidates")
        if len(set(self.area_ids)) != n:
            raise InputError("demand area ids must be unique")
        if len(set(self.candidate_ids)) != m:
            raise InputError("candidate ids must be unique")
        # 100 times the total, which bounds every objective, must be a float
        if not math.isfinite(100.0 * self.total_population):
            raise InputError(f"total population {self.total_population} overflows")
        m = self.matrix.astype(bool)
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    @functools.cached_property
    def total_population(self) -> float:
        with np.errstate(over="ignore"):   # inf, which __post_init__ refuses
            return float(self.populations.sum())

    @functools.cached_property
    def _view(self) -> _SolverView:
        # Python's str order: a numpy string sort would tie "c" and "c\x00"
        order = sorted(range(len(self.candidate_ids)), key=self.candidate_ids.__getitem__)
        ids = tuple(self.candidate_ids[j] for j in order)
        cols = self.matrix[:, order].astype(np.float64)
        cols.flags.writeable = False
        return _SolverView(ids, {c: k for k, c in enumerate(ids)},
                           np.flatnonzero(self.fixed_open[order]).tolist(), cols)

    @functools.cached_property
    def _search(self) -> _Search:
        pops, view = self.populations, self._view
        free = sorted(set(range(len(view.ids))) - set(view.fixed))
        hit = view.cols[:, free] > 0
        reach, table = _reach_table(hit)
        covered = (view.cols[:, view.fixed] > 0).any(axis=1)
        total = self.total_population
        tol = 1e-9 * total or 1.0
        exact = total < 2.0 ** 53 and (pops == np.floor(pops)).all()
        for a in (hit, reach, table, covered):   # every p's search reads them
            a.flags.writeable = False
        return _Search(free, hit, reach, table, covered, _objective(pops, covered),
                       tol, 0.0 if exact else tol)

    @functools.cached_property
    def _root_lam(self) -> list[np.ndarray]:
        return [self.populations / 2]   # the root multipliers of the last budget

    @functools.cached_property
    def _swap_rows(self) -> list["MclpSolution"]:
        return []   # the greedy+swap rows made so far, from the smallest p

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "standard": None if self.standard is None else self.standard.to_dict(),
            "areas": [
                {"id": aid, "population": pop, "centroid": xy}
                for aid, pop, xy in zip(self.area_ids, self.populations.tolist(),
                                        self.centroids.tolist())
            ],
            "candidates": [
                {"id": cid, "location": xy, "fixed_open": fixed}
                for cid, xy, fixed in zip(self.candidate_ids, self.locations.tolist(),
                                          self.fixed_open.tolist())
            ],
            "matrix": self.matrix.astype(np.uint8).tolist(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "MclpInstance":
        mode = get(d, "mode", MODE, "instance", default=PLANAR)
        standard = None
        if d.get("standard") is not None:
            standard = CoverageStandard.from_dict(get(d, "standard", OBJECT, "instance"))
        ids, pops, centroids = columns(
            get(d, "areas", LIST, "instance", default=[]),
            {"id": STRING, "population": NUMBER, "centroid": XY}, "instance", "areas")
        cands = columns(
            get(d, "candidates", LIST, "instance", default=[]),
            {"id": STRING, "location": XY, "fixed_open": BOOL}, "instance", "candidates",
            defaults={"fixed_open": False})
        if d.get("matrix") is None:
            if standard is None:
                raise InputError("instance needs either a matrix or a coverage standard")
            return build_coverage(ids, pops, centroids, *cands, standard, mode=mode)
        return cls(ids, pops, centroids, *cands, _matrix(d, len(cands[0])),
                   standard=standard, mode=mode)


def _reach_table(hit: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``reach``, whose column k is what the columns of ``hit`` from k on
    can cover, and the float64 table [hit | reach]: one product, both gains."""
    reach = np.logical_or.accumulate(hit[:, ::-1], axis=1)[:, ::-1]
    return reach, np.hstack([hit, reach]).astype(np.float64)


def _matrix(d: dict, width: int) -> np.ndarray:
    """The ``matrix`` of an instance: rows of ``width`` entries, each a JSON
    bool or the integer 0 or 1. numpy types the whole matrix at once; the
    rows are read one by one only to name the first bad one."""
    rows = get(d, "matrix", LIST, "instance")
    try:
        m = np.array(rows)
        if m.shape[1:] == (width,) and (m.dtype == bool or (
                m.dtype.kind in "iu" and not ((m != 0) & (m != 1)).any())):
            return m
    except ValueError:  # ragged rows
        pass
    row = Kind(f"a list of {width} entries, each true, false, 0 or 1",
               lambda r: r if (isinstance(r, list) and len(r) == width and all(
                   isinstance(v, int) and v in (0, 1) for v in r)) else None)
    for i, r in enumerate(rows):
        if row.read(r) is None:
            raise mistyped("instance", f"matrix[{i}]", row, r)
    # every row is valid, so the matrix has no entries: no rows, or width 0
    return np.zeros((len(rows), width), dtype=bool)


@dataclass(frozen=True)
class MclpSolution:
    p: int
    selected: tuple[str, ...]       # sorted candidate ids with x_j = 1
    covered: tuple[str, ...]        # area ids with y_i = 1
    objective: float                # persons covered
    coverage_pct: float             # 100 * objective / total population
    method: str
    optimal: bool
    # the gains of the greedy picks the row grew from, in pick order; on a
    # swap-improved row they are not gains of its own ``selected``, and an
    # exact row has none
    marginal_gains: tuple[float, ...] = field(default=(), compare=False)

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "selected": list(self.selected),
            "covered": list(self.covered),
            "objective": self.objective,
            "coverage_pct": self.coverage_pct,
            "method": self.method,
            "optimal": self.optimal,
            "marginal_gains": list(self.marginal_gains),
        }


@dataclass(frozen=True)
class CoverageCurve:
    rows: tuple[MclpSolution, ...]

    def __post_init__(self):
        pcts = [r.coverage_pct for r in self.rows]
        if any(b < a - 1e-9 for a, b in zip(pcts, pcts[1:])):
            raise InputError("coverage curve must be non-decreasing in p")

    def to_dict(self) -> dict:
        return {"rows": [r.to_dict() for r in self.rows]}


def build_coverage(area_ids: Sequence[str], populations, centroids,
                   candidate_ids: Sequence[str], locations, fixed_open,
                   standard: CoverageStandard, mode: str = PLANAR) -> MclpInstance:
    """The instance of the area columns (ids, populations, n x 2 centroids)
    and the candidate columns (ids, m x 2 locations, fixed-open flags), with
    the coverage matrix: a[i][j] = 1 iff candidate j is within the effective
    radius of centroid i (boundary inclusive)."""
    if not len(area_ids) or not len(candidate_ids):
        raise InputError("coverage needs at least one area and one candidate")
    radius = standard.effective_radius_m
    xs, ys = _frozen(centroids, (len(area_ids), 2), "centroids").T.copy()
    sites = _frozen(locations, (len(candidate_ids), 2), "locations").tolist()
    # one column per kernel call: an |I| x |J| float temporary would cost
    # more memory than the bool matrix it fills
    matrix = np.empty((len(xs), len(sites)), dtype=bool)
    for j, (x, y) in enumerate(sites):
        matrix[:, j] = distances_to(xs, ys, x, y, mode) <= radius
    return MclpInstance(tuple(area_ids), populations, centroids, tuple(candidate_ids),
                        locations, fixed_open, matrix, standard=standard, mode=mode)


def _objective(pops: np.ndarray, covered: np.ndarray) -> float:
    """The canonical objective of a selection: one numpy sum over its
    covered rows. Every comparison of two complete selections uses it."""
    return float(pops[covered].sum())


def _finish_solution(inst: MclpInstance, chosen_ids: Iterable[str], method: str,
                     optimal: bool, gains: Sequence[float] = ()) -> MclpSolution:
    """Build the solution record, with z the canonical objective."""
    selected = tuple(sorted(chosen_ids))
    view = inst._view
    covered_rows = view.cols[:, [view.position[s] for s in selected]].any(axis=1)
    z = _objective(inst.populations, covered_rows)
    total = inst.total_population
    pct = 100.0 * z / total if total > 0 else 0.0
    covered = tuple(itertools.compress(inst.area_ids, covered_rows.tolist()))
    return MclpSolution(
        p=len(selected), selected=selected, covered=covered,
        objective=z, coverage_pct=pct, method=method, optimal=optimal,
        marginal_gains=tuple(gains),
    )


def _prepare(inst: MclpInstance, p: int) -> _SolverView:
    """Check p; return the instance's solver view."""
    n = len(inst.candidate_ids)
    if not 1 <= p <= n:
        raise InputError(f"p must be in [1, {n}], got {p}")
    view = inst._view
    if len(view.fixed) > p:
        raise InputError(f"{len(view.fixed)} candidates are fixed open but p={p}")
    return view


def _gains(cols: np.ndarray, pops: np.ndarray, covered: np.ndarray) -> np.ndarray:
    """Population each column would newly cover: one matrix-vector product."""
    return np.where(covered, 0.0, pops) @ cols


def _best(cols: np.ndarray, pops: np.ndarray, covered: np.ndarray,
          taken: Sequence[int]) -> tuple[int, float]:
    """The column outside ``taken`` with the largest gain, ties to the first."""
    gains = _gains(cols, pops, covered)
    gains[list(taken)] = -np.inf    # a list: gains[()] would be every column
    k = int(np.argmax(gains))
    return k, float(gains[k])


def _greedy(view: _SolverView, pops: np.ndarray,
            p: int) -> tuple[list[int], list[float]]:
    """The first p greedy picks and their marginal gains: the fixed-open
    columns, then each round the largest marginal gain (ties to the
    smallest id)."""
    cols, fixed = view.cols, view.fixed
    picks: list[int] = []
    gains: list[float] = []
    covered = np.zeros(len(pops), dtype=bool)
    last = math.inf
    while len(picks) < p:
        if len(picks) < len(fixed):
            k = fixed[len(picks)]
            gain = float(_gains(cols[:, k], pops, covered))
        else:
            k, gain = _best(cols, pops, covered, picks)
            if gain > last + 1e-9:
                raise AssertionError("greedy marginal gains must be non-increasing")
            last = gain
        picks.append(k)
        gains.append(gain)
        covered |= cols[:, k] > 0
    return picks, gains


def solve_exact(inst: MclpInstance, p: int, override_cap: bool = False) -> MclpSolution:
    """Provably optimal solution by depth-first branch and bound.

    Candidates are explored in ascending id order with an include-first
    strategy, so subsets are enumerated in lexicographic order of their
    sorted ids. The search arrays (free columns, what each suffix of them
    can reach, the tolerances) do not depend on p: each instance prepares
    them once (``MclpInstance._search``). A node with covered areas C, free
    columns F (positions ``start`` on) and s open slots is pruned by two
    upper bounds on the best completion:

    * the submodular bound: current coverage plus the best s residual
      gains, capped by what F can reach at all;
    * when that fails and s > 1, the Lagrangian relaxation of Galvao &
      ReVelle (1996). For multipliers lambda_i in [0, w_i] on the uncovered
      areas, L(lambda) = sum_{i not in C} (w_i - lambda_i) + (the s largest
      c_j = sum_{i not in C} lambda_i a_ij over j in F) bounds the
      completion from above. Areas that are covered or that no column of F
      reaches drop out (lambda_i = w_i there). lambda is set by up to
      ``_LAGRANGE_STEPS`` projected subgradient steps (Fisher 1981):
      g_i = (how many of the s chosen columns cover i) - 1, zeroed where
      lambda_i sits on a box bound that g would push it past, deflected by
      the previous direction (Camerini, Fratta & Maffioli 1975), with a
      Polyak step toward the target ``best_z - z``. Each node starts from
      its parent's multipliers, the first from the root's.

    The root runs the same descent for up to ``_ROOT_STEPS`` steps, until
    its bound reaches the target or has not fallen for ``_PATIENCE`` steps.
    It starts from the root multipliers of the budget this instance solved
    last (``MclpInstance._root_lam``), or from w / 2 on the first. With the
    lowest bound L it met, it fixes out each free column j for which the
    bound with j forced in, L - c_(s) + c_j (c_(s) the s-th largest c), is
    cut (Fisher 1981). No column is fixed in. The search then runs on the
    kept columns only, with ``hit``, ``reach`` and ``table`` narrowed to
    them once per p.

    A node with one slot left evaluates its leaves in closed form, in place
    of a chain of one-slot nodes that each redo the gains and the sort: the
    columns j of F with ``z + gain_j + slack > best_z``, in ascending order.
    A leaf that fails this test cannot beat the incumbent, and the chain
    cuts no leaf that can, so the same leaves replace the incumbent in the
    same order and the tie-break below holds.

    A leaf is valued by the canonical objective and replaces the incumbent
    when ``z > best_z``. The incumbent starts at the objective of row p of
    the greedy+swap curve minus ``tol`` (1e-9 of the total population), so
    a leaf equal to that row replaces it. Each instance makes those rows
    once, for every p asked (``MclpInstance._swap_rows``), and the exact
    curve makes them to p_max before its second row, from one greedy run; a
    row is never below the greedy set, whose first p picks it swap-improves.
    A subtree is cut when ``bound + slack <= best_z``. The bounds are float
    sums in another order than the objective: ``slack`` is 0 when every
    population is an integer and the total is below 2**53, so that every sum
    is exact, and ``tol`` otherwise. The Lagrangian bound adds ``tol`` of its own for
    the rounding of the fractional multipliers. Both only ever weaken a cut.
    A column fixed out is in no optimal set, as every set that holds it is
    below the incumbent. As the DFS meets subsets in lexicographic order and
    never cuts a subtree holding a leaf above the incumbent, the first
    optimum it keeps is the lexicographically smallest optimal id set,
    whatever feasible set the incumbent came from.
    """
    n = len(inst.candidate_ids)
    if n > EXACT_SIZE_CAP and not override_cap:
        raise SolverRefused(
            f"instance has {n} candidates, above the exact-solver cap of {EXACT_SIZE_CAP}; "
            "use the greedy solver or override the cap"
        )
    view = _prepare(inst, p)
    pops, fixed = inst.populations, view.fixed
    free, hit, reach, table, covered, z, tol, slack = inst._search
    best_z = _greedy_swap_rows(inst, p)[-1].objective - tol
    best_sel: list[int] = []
    slots = p - len(fixed)

    def cut(bound):
        return bound + slack <= best_z

    kept = range(len(free))
    if slots > 1:
        kept = _root_kept(inst, slots, best_z - z, lambda bound: cut(z + bound + tol))
        hit = hit[:, kept]
        reach, table = _reach_table(hit)
    nfree = len(kept)

    def dfs(start: int, chosen: list[int], covered: np.ndarray, z: float,
            lam: np.ndarray):
        nonlocal best_z, best_sel
        slots = p - len(fixed) - len(chosen)
        if nfree - start < slots:
            return
        gains = _gains(table, pops, covered)
        if slots == 1:
            above = z + gains[start:nfree] + slack > best_z
            for j in (start + above.nonzero()[0]).tolist():
                leaf = _objective(pops, covered | hit[:, j])
                if leaf > best_z:
                    best_z, best_sel = leaf, chosen + [j]
            return
        residual = np.sort(gains[start:nfree])
        top = residual[residual.size - slots:].sum()
        if cut(z + min(top, gains[nfree + start])):
            return
        lam = _lagrange_cut(lam, ~covered & reach[:, start], pops,
                            table[:, start:nfree], slots, best_z - z,
                            lambda bound: cut(z + bound + tol))
        if lam is None:
            return
        dfs(start + 1, chosen + [start], covered | hit[:, start], z + gains[start],
            lam)
        dfs(start + 1, chosen, covered, z, lam)

    if slots > 0:   # else the fixed-open sites are the only p-set
        dfs(0, [], covered, z, inst._root_lam[0])
    del dfs   # it refers to itself: free the narrowed arrays now, not at a gc pass
    chosen_ids = [view.ids[k] for k in fixed + [free[kept[i]] for i in best_sel]]
    return _finish_solution(inst, chosen_ids, METHOD_EXACT, optimal=True)


_LAGRANGE_STEPS = 5     # subgradient steps at a node
_ROOT_STEPS = 300       # at most, at the root
_PATIENCE = 20          # steps without a lower bound that end a descent
_DEFLECTION = 1.5       # gamma of Camerini, Fratta & Maffioli (1975)


def _root_kept(inst: MclpInstance, slots: int, target: float, cut) -> list[int]:
    """The root of ``solve_exact``: the long descent, from the multipliers
    of the budget solved last, then the positions of the free columns that
    are not fixed out, ascending. ``cut`` is the Lagrangian cut of the root."""
    pops, search, warm = inst.populations, inst._search, inst._root_lam
    rows = ~search.covered & search.reach[:, 0]
    cols = search.table[:, :len(search.free)]
    warm[0] = _lagrange_cut(warm[0], rows, pops, cols, slots, target, cut, _ROOT_STEPS)
    mult = warm[0][rows]
    c = mult @ cols[rows]
    top = np.sort(c)[c.size - slots:]
    bound = float((pops[rows] - mult).sum() + top.sum())
    return np.flatnonzero(~cut(bound - top[0] + c)).tolist()


def _lagrange_cut(lam: np.ndarray, open_rows: np.ndarray, pops: np.ndarray,
                  cols: np.ndarray, slots: int, target: float,
                  cut, steps: int = _LAGRANGE_STEPS) -> np.ndarray | None:
    """Projected subgradient descent on the Lagrangian bound of a node.

    ``open_rows`` marks the areas still to cover that ``cols`` can reach,
    and ``lam`` holds the multipliers to start from. Returns None as soon
    as ``cut(L)`` holds for a bound L, else the multipliers of the lowest
    L met. It takes up to ``steps`` steps and stops early when L reaches
    ``target`` or has not fallen for ``_PATIENCE`` steps. g counts covers,
    so it is integral: where g > 0 the step lowers lambda_i and 0 bounds
    it, where g < 0 it raises lambda_i and w_i bounds it. A g at an obtuse
    angle to the previous direction d is deflected by d (Camerini, Fratta
    & Maffioli 1975), which damps the zigzag of plain subgradient steps."""
    rows = open_rows.nonzero()[0]
    w = pops[rows]
    sub = cols[rows]
    mult = best_mult = lam[rows]
    best, stale = math.inf, 0
    pick = np.zeros(sub.shape[1])
    d = np.zeros(rows.size)
    for _ in range(steps):
        c = mult @ sub
        top = c.argpartition(c.size - slots)[c.size - slots:]
        bound = float((w - mult).sum() + c[top].sum())
        if cut(bound):
            return None
        if bound < best:
            best, best_mult, stale = bound, mult, 0
        elif (stale := stale + 1) == _PATIENCE:
            break
        if bound <= target:
            break
        pick[:] = 0.0
        pick[top] = 1.0
        g = sub @ pick - 1.0
        g *= np.where(g > 0.0, mult > 0.0, mult < w)
        gd = float(g @ d)
        if gd < 0.0:
            g -= _DEFLECTION * gd / float(d @ d) * d
        norm = float(g @ g)
        if norm == 0.0:
            break
        mult = np.minimum(np.maximum(mult - (bound - target) / norm * g, 0.0), w)
        d = g
    lam = lam.copy()
    lam[rows] = best_mult
    return lam


def solve_greedy(inst: MclpInstance, p: int) -> MclpSolution:
    """Greedy heuristic: the fixed-open sites, then the largest marginal
    gain each round; its gains are non-increasing by submodularity."""
    view = _prepare(inst, p)
    picks, gains = _greedy(view, inst.populations, p)
    return _finish_solution(inst, [view.ids[k] for k in picks], METHOD_GREEDY_SWAP,
                            optimal=False, gains=gains)


def improve_swap(inst: MclpInstance, sol: MclpSolution) -> MclpSolution:
    """Best-improvement single swaps until no swap raises z.

    Dropping a site leaves covered the areas whose cover count stays
    positive; ``_best`` then picks the incoming candidate. The swap taken is
    the one whose set has the highest objective, if that is above the
    current set's. Ties go to the smallest dropped id, then the smallest
    added id."""
    view = _prepare(inst, sol.p)
    pops, cols, fixed = inst.populations, view.cols, view.fixed
    selected = sorted(view.position[s] for s in sol.selected)
    z_cur = sol.objective
    while True:
        count = cols[:, selected].sum(axis=1)
        best = None  # (z_new, dropped, added)
        for drop in selected:
            if drop in fixed:
                continue
            kept = count - cols[:, drop] > 0
            add, _ = _best(cols, pops, kept, selected)
            z_new = _objective(pops, kept | (cols[:, add] > 0))
            if z_new > (z_cur if best is None else best[0]):
                best = (z_new, drop, add)
        if best is None:
            break
        z_cur, drop, add = best
        selected = sorted(set(selected) - {drop} | {add})
    return _finish_solution(inst, [view.ids[k] for k in selected], METHOD_GREEDY_SWAP,
                            optimal=False, gains=sol.marginal_gains)


def coverage_curve(inst: MclpInstance, p_max: int,
                   method: str = METHOD_EXACT,
                   override_cap: bool = False) -> CoverageCurve:
    """Solve for every p in 1..p_max.

    The exact curve is monotone because any p-solution extends to p+1. It
    solves p = 1 first, so that the size cap and the fixed-open sites are
    checked before any heuristic work, then makes the greedy+swap rows to
    p_max from one greedy run: row p is the incumbent of p. The heuristic
    rows are those of ``solve_greedy_swap``, monotone by construction.
    """
    if method not in METHODS:
        raise InputError(f"unknown solver method {method!r}")
    n = len(inst.candidate_ids)
    if not 1 <= p_max <= n:
        raise InputError(f"p_max must be in [1, {n}], got {p_max}")
    if method == METHOD_EXACT:
        rows = [solve_exact(inst, 1, override_cap=override_cap)]
        _greedy_swap_rows(inst, p_max)
        rows += [solve_exact(inst, p, override_cap=override_cap) for p in range(2, p_max + 1)]
    else:
        _prepare(inst, 1)   # two or more fixed-open sites fail at the first row
        rows = _greedy_swap_rows(inst, p_max)
    return CoverageCurve(tuple(rows))


def solve_greedy_swap(inst: MclpInstance, p: int) -> MclpSolution:
    """Row p of the greedy+swap curve to p. With k > 1 fixed-open sites,
    where the curve has no row 1, the rows run from p = k."""
    return _greedy_swap_rows(inst, p)[-1]


def _greedy_swap_rows(inst: MclpInstance, p_max: int) -> list[MclpSolution]:
    """Each row swap-improves the first p greedy picks, is seeded with the
    previous row's selection plus its best extension too, and keeps the
    better, so z never falls from row to row. The rows run from p = max(1,
    number of fixed-open sites) to p_max. Row p does not depend on p_max,
    so the instance keeps the rows made so far (``MclpInstance._swap_rows``)
    and a larger p_max only adds rows, from one greedy run to p_max."""
    view = _prepare(inst, p_max)
    rows = inst._swap_rows
    first = max(1, len(view.fixed))
    if first + len(rows) <= p_max:
        order, gains = _greedy(view, inst.populations, p_max)
        picks = [view.ids[k] for k in order]
        for p in range(first + len(rows), p_max + 1):
            sol = improve_swap(inst, _finish_solution(
                inst, picks[:p], METHOD_GREEDY_SWAP, optimal=False, gains=gains[:p]))
            if rows:
                ext = _extend_by_best(inst, rows[-1])
                if ext.objective > sol.objective:
                    sol = ext
            rows.append(sol)
    return rows[:p_max - first + 1]


def _extend_by_best(inst: MclpInstance, prev: MclpSolution) -> MclpSolution:
    """prev's selection plus the candidate with the best marginal gain."""
    view = _prepare(inst, prev.p + 1)
    taken = [view.position[s] for s in prev.selected]
    covered = (view.cols[:, taken] > 0).any(axis=1)
    k, gain = _best(view.cols, inst.populations, covered, taken)
    return _finish_solution(inst, [*prev.selected, view.ids[k]], METHOD_GREEDY_SWAP,
                            optimal=False, gains=prev.marginal_gains + (gain,))


def instance_from_json(text: str | bytes) -> MclpInstance:
    return MclpInstance.from_dict(parse_json(text, InputError, "instance"))


def coverage_table_csv(rows: Sequence[dict]) -> str:
    """CSV mirror of the solution table (``MclpSolution.to_dict`` rows): p,
    selected ids, covering percentage."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["p", "selected_ids", "covering_percentage"])
    for row in rows:
        writer.writerow([row["p"], ";".join(row["selected"]), repr(row["coverage_pct"])])
    return buf.getvalue()


def curve_files(solutions: dict) -> Iterator[tuple[str, Chunks]]:
    """The (name, text chunks) pairs of a curve's files for ``write_artifacts``;
    ``solutions`` is ``{"rows": [solution dicts]}`` plus any meta keys."""
    yield "coverage.csv", [coverage_table_csv(solutions["rows"])]
    yield "solutions.json", [json_text(solutions)]

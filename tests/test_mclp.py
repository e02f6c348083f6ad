import ast
import dataclasses
import itertools
import json
import math
import random
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from helpers import (
    Point,
    covering_candidates,
    distance,
    enumerate_optimum,
    fractional_family,
    optimal_sets,
    oracle_family,
    parse_coverage_table_csv,
    random_instance,
    reference_greedy_curve,
    reference_instance_from_dict,
    reference_improve_swap,
    reference_solve_greedy,
    tie_heavy_family,
    verify_solution,
)

from branchsite import fields, mclp
from branchsite.cli import main
from branchsite.errors import ConfigError, DomainError, InputError, SolverRefused
from branchsite.mclp import (
    CoverageStandard,
    MclpInstance,
    build_coverage,
    coverage_curve,
    coverage_table_csv,
    improve_swap,
    instance_from_json,
    solve_exact,
    solve_greedy,
)

GREEDY_GUARANTEE = 1.0 - 1.0 / math.e


def tiny_instance(matrix_rows, pops, fixed_open=None):
    matrix = np.array(matrix_rows, dtype=bool)
    m = matrix.shape[1]
    return MclpInstance(tuple(f"d{i}" for i in range(len(pops))), pops,
                        [(float(i), 0.0) for i in range(len(pops))],
                        tuple(f"c{j}" for j in range(m)), [(float(j), 1.0) for j in range(m)],
                        [False] * m if fixed_open is None else fixed_open, matrix)


def points_instance(pops, points, sites, standard, mode="planar", fixed_open=None):
    """``build_coverage`` over areas ``d{i}`` with ``pops[i]`` at ``points[i]``
    and the candidates of ``sites`` (id -> location), none fixed open unless
    ``fixed_open`` says so."""
    return build_coverage(tuple(f"d{i}" for i in range(len(pops))), pops,
                          [(q.x, q.y) for q in points], tuple(sites),
                          [(q.x, q.y) for q in sites.values()],
                          [False] * len(sites) if fixed_open is None else fixed_open,
                          standard, mode=mode)


# frozen instance where greedy is strictly suboptimal and one swap recovers
# the enumeration optimum (found by randomized search, then pinned)
GREEDY_TRAP = tiny_instance(
    [
        [0, 0, 1, 0],
        [0, 0, 0, 0],
        [1, 0, 1, 0],
        [0, 1, 0, 0],
        [1, 0, 0, 0],
        [0, 0, 0, 0],
        [1, 1, 0, 0],
        [1, 0, 0, 1],
        [1, 1, 0, 0],
    ],
    [7, 1, 7, 7, 1, 3, 8, 2, 5],
)


class TestCoverageStandard:
    def test_travel_time_converts_to_radius(self):
        std = CoverageStandard(kind="travel_time", minutes=5, speed_kmh=30)
        assert std.effective_radius_m == 2500.0

    def test_radius_passthrough(self):
        assert CoverageStandard(radius=2500).effective_radius_m == 2500.0

    def test_non_positive_rejected(self):
        with pytest.raises(ConfigError):
            CoverageStandard(radius=0)
        with pytest.raises(ConfigError):
            CoverageStandard(kind="travel_time", minutes=5, speed_kmh=0)

    @pytest.mark.parametrize("value", [True, math.inf, math.nan, "5", 10 ** 400, [5]])
    def test_non_finite_bool_and_text_rejected(self, value):
        with pytest.raises(ConfigError, match="finite positive number"):
            CoverageStandard(radius=value)
        with pytest.raises(ConfigError, match="finite positive number"):
            CoverageStandard(kind="travel_time", minutes=5, speed_kmh=value)

    @pytest.mark.parametrize("name", ["kind", "radius", "minutes", "speed_kmh"])
    def test_huge_number_is_shortened_in_the_message(self, name):
        values = ({"radius": 5} if name == "radius"
                  else {"kind": "travel_time", "minutes": 5, "speed_kmh": 30})
        values[name] = 10 ** 400
        with pytest.raises(ConfigError) as info:
            CoverageStandard(**values)
        message = str(info.value)
        assert "got 1000" in message or "kind 1000" in message
        assert "..." in message and len(message) < 120

    def test_travel_time_overflowing_to_infinite_radius_rejected(self):
        with pytest.raises(ConfigError, match="infinite radius"):
            CoverageStandard(kind="travel_time", minutes=1e300, speed_kmh=1e300)


class TestBuildCoverage:
    def test_tiny_radius_all_zero(self):
        cands = {"c0": Point(50, 50)}
        inst = points_instance([10, 20], [Point(0, 0), Point(100, 0)], cands,
                               CoverageStandard(radius=1.0))
        assert not inst.matrix.any()

    def test_boundary_is_inclusive(self):
        cands = {"c0": Point(2500, 0)}
        inst = points_instance([10], [Point(0, 0)], cands, CoverageStandard(radius=2500.0))
        assert inst.matrix[0, 0]

    def test_matches_per_pair_distance_oracle(self):
        rng = random.Random(83)
        pops, points = [], []
        for _ in range(20):
            pops.append(rng.randint(1, 100))
            points.append(Point(rng.uniform(0, 5000), rng.uniform(0, 5000)))
        cands = {f"c{j}": Point(rng.uniform(0, 5000), rng.uniform(0, 5000))
                 for j in range(23)}
        std = CoverageStandard(radius=1500.0)
        inst = points_instance(pops, points, cands, std)
        for i, a in enumerate(points):
            for j, c in enumerate(cands.values()):
                d = math.sqrt((a.x - c.x) ** 2 + (a.y - c.y) ** 2)
                assert inst.matrix[i, j] == (d <= 1500.0)
        assert covering_candidates(inst, 0) == [
            f"c{j}" for j in range(23) if inst.matrix[0, j]
        ]

    @pytest.mark.parametrize("mode", ["planar", "geodesic"])
    def test_matches_distance_per_pair(self, mode):
        """Each matrix entry is the distance kernel run on its one pair."""
        rng = random.Random(89)
        if mode == "planar":
            # integer points 0..12 apart give many pairs exactly 5.0 apart
            # (3-4-5 and 0-5 triangles), on the boundary of a 5.0 radius
            def point(k):
                if k % 2:
                    return Point(rng.uniform(0, 12), rng.uniform(0, 12))
                return Point(rng.randint(0, 12), rng.randint(0, 12))
        else:
            def point(k):
                return Point(rng.uniform(51.60, 51.64), rng.uniform(32.60, 32.64))
        points = [point(i) for i in range(40)]
        cands = {f"c{j}": point(j) for j in range(30)}
        radius = 5.0 if mode == "planar" else distance(points[0], cands["c0"], mode)
        inst = points_instance([10] * 40, points, cands, CoverageStandard(radius=radius),
                               mode=mode)
        on_radius = 0
        for i, a in enumerate(points):
            for j, c in enumerate(cands.values()):
                d = distance(a, c, mode)
                on_radius += d == radius
                assert inst.matrix[i, j] == (d <= radius), (i, j)
        assert on_radius > 0

    def test_empty_inputs_rejected(self):
        with pytest.raises(InputError):
            build_coverage((), [], np.empty((0, 2)), ("c",), [(0, 0)], [False],
                           CoverageStandard(radius=1))

    @pytest.mark.parametrize("mode, message", [
        ("planar", r"point coordinates must be finite, got \(1.0, nan\)"),
        ("geodesic", "geodesic coordinates out of range: lon=1.0, lat=nan")])
    def test_non_finite_location_rejected(self, mode, message):
        """A candidate's distances are measured before the instance checks
        its columns, so the kernel names the bad location."""
        with pytest.raises(DomainError, match=message):
            build_coverage(("d0",), [1], [(0, 0)], ("c0", "c1"), [(0, 0), (1, math.nan)],
                           [False, False], CoverageStandard(radius=1), mode=mode)

    def test_instances_compare_by_identity(self):
        """Two instances of equal columns are different objects; comparing
        them must not ask a numpy array for its truth value."""
        def build():
            return build_coverage(("d0", "d1"), [10, 20], [(0, 0), (5, 0)], ("c0",),
                                  [(1, 0)], [False], CoverageStandard(radius=2.0))
        a, b = build(), build()
        assert a == a
        assert a != b
        assert len({a, b}) == 2


class TestCandidateColumns:
    @pytest.mark.parametrize("ids, locations, fixed_open, message", [
        (("c0", "c1"), [(0, 0), (1, math.inf)], [False, True],
         "candidate locations must be finite"),
        (("c0", "c1"), [(0, 0, 0), (1, 1, 1)], [False, True],
         r"locations must have shape \(2, 2\)"),
        (("c0", "c1"), [(0, 0), (1, 1)], [False], r"fixed_open must have shape \(2,\)"),
        (("c0", "c0"), [(0, 0), (1, 1)], [False, True], "candidate ids must be unique"),
    ])
    def test_bad_columns_rejected(self, ids, locations, fixed_open, message):
        with pytest.raises(InputError, match=message):
            MclpInstance(("d0",), [1], [(0, 0)], ids, locations, fixed_open,
                         np.ones((1, 2), bool))

    def test_overflowing_total_population_rejected_without_warning(self):
        """Two areas of 1e308 sum to inf: the typed error, and no numpy
        overflow warning before it."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match="total population inf overflows"):
                MclpInstance(("d0", "d1"), [1e308, 1e308], [(0, 0), (1, 0)], ("c0",),
                             [(0, 0)], [False], np.ones((2, 1), bool))

    def test_ids_sort_as_python_strings(self):
        """numpy's fixed-width strings drop trailing NULs, so "c" and
        "c\\x00" would tie there; the solvers order them as Python does."""
        inst = tiny_instance([[1, 1]], [7])
        inst = dataclasses.replace(inst, candidate_ids=("c\x00", "c"))
        assert solve_greedy(inst, 1).selected == ("c",)


class TestSolveExact:
    def test_p_equals_all_candidates_covers_everything_coverable(self):
        rng = random.Random(89)
        inst = random_instance(rng, max_areas=15, max_cands=8)
        n = len(inst.candidate_ids)
        sol = solve_exact(inst, n)
        coverable = inst.matrix.any(axis=1)
        want = float(inst.populations[coverable].sum())
        assert sol.objective == want

    def test_matches_enumeration_on_random_instances(self):
        rng = random.Random(97)
        for _ in range(60):
            inst = random_instance(rng)
            p = rng.randint(1, min(4, len(inst.candidate_ids)))
            sol = solve_exact(inst, p)
            z, sel = enumerate_optimum(inst, p)
            assert sol.objective == z
            assert sol.optimal
            assert verify_solution(inst, sol)

    def test_lexicographically_smallest_optimum_reported(self):
        rng = random.Random(101)
        for _ in range(40):
            inst = random_instance(rng, max_areas=12, max_cands=8)
            p = rng.randint(1, 3)
            sol = solve_exact(inst, p)
            _, sel = enumerate_optimum(inst, p)
            assert sol.selected == sel

    def test_tie_heavy_family_matches_enumeration(self):
        """Many equal-valued subsets and fixed-open sites: the Lagrangian cut
        must keep the lexicographically smallest optimum."""
        checked = 0
        for inst, p in tie_heavy_family():
            z, sel = enumerate_optimum(inst, p)
            sol = solve_exact(inst, p)
            assert (sol.selected, sol.objective) == (sel, z), (checked, p)
            checked += 1
        assert checked > 1000

    def test_lagrangian_bound_within_ulps_of_incumbent(self, monkeypatch):
        """Populations in eighths keep every coverage sum exact, so the
        fractional multipliers are the only rounding: the Lagrangian bound
        of a subtree that ties the incumbent lands a few ulp either side of
        it, and only the tolerance keeps that subtree. (Tenths would round
        the sums themselves, so two equal covers could compare unequal.)"""
        gaps = []
        lagrange_cut = mclp._lagrange_cut

        def spy(lam, open_rows, pops, cols, slots, target, cut, *steps):
            def seen(bound):
                gaps.append(abs(bound - target) / max(target, 1.0))
                return cut(bound)
            return lagrange_cut(lam, open_rows, pops, cols, slots, target, seen, *steps)

        monkeypatch.setattr(mclp, "_lagrange_cut", spy)
        rng = random.Random(7)
        for _ in range(200):
            n_areas, n_cands = rng.randint(5, 30), rng.randint(3, 14)
            matrix = [[rng.random() < 0.3 for _ in range(n_cands)]
                      for _ in range(n_areas)]
            pops = [rng.choice((0.125, 0.25, 0.375)) for _ in range(n_areas)]
            inst = tiny_instance(matrix, pops)
            for p in range(2, min(5, n_cands) + 1):
                sol = solve_exact(inst, p)
                assert (sol.selected, sol.objective) == enumerate_optimum(inst, p)[::-1]
        near = sum(gap <= 8 * 2.0 ** -52 for gap in gaps)
        assert near > 0

    def test_fractional_populations_match_enumeration(self):
        """Tenths make float sums of equal covers round apart; every
        comparison of two selections uses the one canonical sum, so the
        solver still returns the enumeration's set and objective."""
        solves = 0
        for inst in fractional_family(7, 200, 25, 12, 0.35, (0.1, 0.2, 0.3)):
            for p in range(2, min(5, len(inst.candidate_ids)) + 1):
                sol = solve_exact(inst, p)
                assert (sol.selected, sol.objective) == enumerate_optimum(inst, p)[::-1]
                solves += 1
        assert solves == 747

    def test_incumbent_is_the_greedy_swap_row(self, monkeypatch):
        """The exact solver seeds its incumbent with row p of the greedy+swap
        curve, the set ``solve_greedy_swap`` reports, fixed-open sites too;
        where the root runs the Lagrangian bound, its target is that row's
        objective minus the tolerance. One exact curve makes each row once:
        ``improve_swap`` runs at most p_max times, not once per row per p."""
        rows_seen, targets, swaps = [], [], []
        greedy_swap_rows, lagrange_cut = mclp._greedy_swap_rows, mclp._lagrange_cut
        swap = mclp.improve_swap

        def rows_spy(inst, p):
            rows = greedy_swap_rows(inst, p)
            rows_seen.append(rows[-1])
            return rows

        def lagrange_spy(lam, open_rows, pops, cols, slots, target, cut, *steps):
            targets.append((cols.shape[1], target))
            return lagrange_cut(lam, open_rows, pops, cols, slots, target, cut, *steps)

        def swap_spy(inst, sol):
            swaps.append(sol.p)
            return swap(inst, sol)

        monkeypatch.setattr(mclp, "_greedy_swap_rows", rows_spy)
        monkeypatch.setattr(mclp, "_lagrange_cut", lagrange_spy)
        monkeypatch.setattr(mclp, "improve_swap", swap_spy)
        roots = curves = 0
        for inst, p in itertools.islice(_reference_family(), 90):
            rows_seen.clear()
            targets.clear()
            solve_exact(inst, p)
            seeded = [(r.p, r.selected, r.objective) for r in rows_seen]
            want = mclp.solve_greedy_swap(inst, p)
            assert seeded == [(p, want.selected, want.objective)]
            nfree = len(inst.candidate_ids) - int(inst.fixed_open.sum())
            if targets and targets[0][0] == nfree:
                fixed = inst.matrix[:, inst.fixed_open].any(axis=1)
                start = float(inst.populations[fixed].sum())
                tol = 1e-9 * inst.total_population or 1.0
                assert targets[0][1] == (want.objective - tol) - start
                roots += 1
            if inst.fixed_open.sum() <= 1:
                swaps.clear()
                p_max = min(len(inst.candidate_ids), p + 2)
                coverage_curve(dataclasses.replace(inst), p_max, "exact")
                assert swaps == list(range(1, p_max + 1))
                curves += 1
        assert roots > 0 and curves > 0

    def test_search_work_on_a_planar_curve(self, monkeypatch):
        """The p <= 7 curve on a seeded 200 x 30 planar instance: bound
        evaluations (products with the search table, at any width: every
        product but the greedy and swap ones with the instance's columns)
        and Lagrangian calls. With the greedy set as incumbent and a node
        per last-slot leaf they were 1,816 and 1,109; the bounds leave room
        for a near-tie bound that another numpy build rounds the other way."""
        counts = {"bounds": 0, "lagrange": 0}
        inst = _seeded_planar_instance(1)
        gains, lagrange_cut = mclp._gains, mclp._lagrange_cut

        def gains_spy(cols, pops, covered):
            counts["bounds"] += cols.ndim == 2 and cols is not inst._view.cols
            return gains(cols, pops, covered)

        def lagrange_spy(*args):
            counts["lagrange"] += 1
            return lagrange_cut(*args)

        monkeypatch.setattr(mclp, "_gains", gains_spy)
        monkeypatch.setattr(mclp, "_lagrange_cut", lagrange_spy)
        curve = coverage_curve(inst, 7, "exact")
        assert curve.rows[-1].objective == 436170.0
        assert counts["bounds"] <= 640
        assert counts["lagrange"] <= 470

    def test_root_work_on_a_planar_curve(self, monkeypatch):
        """The same curve: subgradient steps, root and nodes together (one
        ``cut`` call each), and bound evaluations on the search table at any
        width, so that narrowing the table cannot hide work. Before the
        root ran its long descent and fixed columns out they were 952 and
        605; the ceilings are below half of that."""
        counts = {"steps": 0, "bounds": 0}
        inst = _seeded_planar_instance(1)
        gains, lagrange_cut = mclp._gains, mclp._lagrange_cut

        def gains_spy(cols, pops, covered):
            counts["bounds"] += cols.ndim == 2 and cols is not inst._view.cols
            return gains(cols, pops, covered)

        def lagrange_spy(lam, open_rows, pops, cols, slots, target, cut, *steps):
            def step(bound):
                counts["steps"] += 1
                return cut(bound)
            return lagrange_cut(lam, open_rows, pops, cols, slots, target, step, *steps)

        monkeypatch.setattr(mclp, "_gains", gains_spy)
        monkeypatch.setattr(mclp, "_lagrange_cut", lagrange_spy)
        curve = coverage_curve(inst, 7, "exact")
        assert curve.rows[-1].objective == 436170.0
        assert counts["steps"] <= 400
        assert counts["bounds"] <= 160

    def test_root_starts_from_the_last_budgets_multipliers(self, monkeypatch):
        """Each root descent starts from the multipliers that the root of the
        budget solved last on the instance returned; the first from w / 2."""
        roots = []
        lagrange_cut = mclp._lagrange_cut

        def spy(lam, *args):
            out = lagrange_cut(lam, *args)
            if len(args) == 7:   # the root passes its step count
                roots.append((lam, out))
            return out

        monkeypatch.setattr(mclp, "_lagrange_cut", spy)
        inst = _seeded_planar_instance(1)
        for p in (3, 7, 2, 5):
            solve_exact(inst, p)
        assert len(roots) == 4
        assert roots[0][0].tolist() == (inst.populations / 2).tolist()
        for (_, returned), (started, _) in zip(roots, roots[1:]):
            assert started is returned

    def test_root_fixes_out_no_column_of_an_optimal_set(self, monkeypatch):
        """Reduced-cost fixing is sound: on the enumeration oracle's 200
        instances, the fractional family and the tie-heavy family, no column
        that the root fixes out is in any optimal set."""
        root_kept, kept = mclp._root_kept, []

        def spy(inst, slots, target, cut):
            kept.append(root_kept(inst, slots, target, cut))
            return kept[-1]

        monkeypatch.setattr(mclp, "_root_kept", spy)
        fractional = ((inst, p)
                      for inst in fractional_family(7, 200, 25, 12, 0.35, (0.1, 0.2, 0.3))
                      for p in range(2, min(5, len(inst.candidate_ids)) + 1))
        roots = fixed_out = 0
        for inst, p in itertools.chain(oracle_family(), fractional, tie_heavy_family()):
            kept.clear()
            solve_exact(inst, p)
            if not kept:
                continue
            free, ids = inst._search.free, inst._view.ids
            out = {ids[free[k]] for k in range(len(free)) if k not in kept[0]}
            assert not any(out & s for s in optimal_sets(inst, p)), (inst, p, out)
            roots += 1
            fixed_out += len(out)
        # 136 + 747 + 1,086 roots; 4,531 of their 17,412 free columns
        # were fixed out when this was written
        assert roots == 1969 and fixed_out > 2000

    def test_last_slot_ties_one_ulp_apart(self):
        """Tenths: with c01 chosen, the leaves c03 and c04 have the same
        canonical objective, the optimum, but z + gain reads 2.1999999999999997
        for c03 and 2.2 for c04. The closed-form last slot must keep c03,
        the lexicographically smaller set."""
        inst = list(fractional_family(17, 159, 14, 8, 0.3, (0.1, 0.2, 0.3)))[158]
        search, pops = inst._search, inst.populations
        z = float(mclp._gains(search.table, pops, search.covered)[1])
        gains = mclp._gains(search.table, pops, search.covered | search.hit[:, 1])
        assert z + gains[3] < z + gains[4]
        leaves = [float(pops[search.hit[:, [1, j]].any(axis=1)].sum()) for j in (3, 4)]
        z_star, sel = enumerate_optimum(inst, 2)
        assert leaves == [z_star, z_star] and sel == ("c01", "c03")
        sol = solve_exact(inst, 2)
        assert (sol.selected, sol.objective) == (sel, z_star)

    def test_per_p_solves_equal_the_curve(self):
        """The prepared search and the greedy+swap rows are cached on the
        instance: solving each p alone, in a shuffled order, gives the rows
        of one curve on a fresh copy, fixed-open sites included."""
        rng = random.Random(151)
        checked, last = 0, None
        for inst, _p in tie_heavy_family():
            if inst is last or inst.fixed_open.sum() != 1 or checked == 50:
                continue
            last = inst
            p_top = min(6, len(inst.candidate_ids))
            order = rng.sample(range(1, p_top + 1), p_top)
            alone = {p: solve_exact(inst, p) for p in order}
            curve = coverage_curve(dataclasses.replace(inst), p_top, "exact")
            assert [alone[p].to_dict() for p in range(1, p_top + 1)] == [
                r.to_dict() for r in curve.rows]
            checked += 1
        assert checked == 50

    def test_swap_rows_survive_an_interrupted_pass(self, monkeypatch):
        """The instance keeps only finished rows, so after a curve that
        raised the next call makes the missing rows, not too few."""
        inst = dataclasses.replace(GREEDY_TRAP)
        swap = mclp.improve_swap

        def failing(inst, sol):
            if sol.p == 2:
                raise KeyboardInterrupt
            return swap(inst, sol)

        monkeypatch.setattr(mclp, "improve_swap", failing)
        with pytest.raises(KeyboardInterrupt):
            mclp.solve_greedy_swap(inst, 3)
        monkeypatch.setattr(mclp, "improve_swap", swap)
        got = [(r.p, r.selected) for r in coverage_curve(inst, 3, "greedy+swap").rows]
        want = coverage_curve(dataclasses.replace(GREEDY_TRAP), 3, "greedy+swap").rows
        assert got == [(r.p, r.selected) for r in want]

    def test_one_greedy_pass_per_exact_curve(self, monkeypatch):
        """The exact curve to 7 solves p = 1 (a greedy run to 1), then makes
        the greedy+swap rows to 7 from one greedy run to 7, which serve as
        the incumbents of p = 2..7; the rows equal one greedy+swap curve to
        7. The size cap (exit 3) and the fixed-open count (exit 2) refuse a
        curve before any greedy run."""
        passes = []
        greedy = mclp._greedy

        def greedy_spy(view, pops, p):
            passes.append(p)
            return greedy(view, pops, p)

        monkeypatch.setattr(mclp, "_greedy", greedy_spy)
        cands = {f"c{j:02d}": Point(j, 0) for j in range(31)}
        too_big = points_instance([10], [Point(0, 0)], cands, CoverageStandard(radius=50))
        with pytest.raises(SolverRefused):
            coverage_curve(too_big, 3, "exact")
        two_fixed = tiny_instance([[1, 0, 1], [0, 1, 0]], [5, 7], fixed_open=[True, True, False])
        with pytest.raises(InputError, match="fixed open"):
            coverage_curve(two_fixed, 3, "exact")
        assert passes == []
        inst = _seeded_planar_instance(1)
        curve = coverage_curve(inst, 7, "exact")
        assert passes == [1, 7]
        at_once = coverage_curve(_seeded_planar_instance(1), 7, "greedy+swap").rows
        assert [(r.selected, r.objective, r.marginal_gains) for r in inst._swap_rows] == [
            (r.selected, r.objective, r.marginal_gains) for r in at_once]
        assert curve.rows[-1].objective == 436170.0

    def test_greedy_pass_restarts_after_an_interrupt(self, monkeypatch):
        """A greedy run that raised leaves nothing on the instance: later
        solves give the picks and gains of a fresh instance, so no row gets
        too few sites."""
        inst, want = _seeded_planar_instance(2), _seeded_planar_instance(2)
        best, calls = mclp._best, []

        def failing(*args):
            calls.append(None)
            if len(calls) == 3:
                raise KeyboardInterrupt
            return best(*args)

        monkeypatch.setattr(mclp, "_best", failing)
        with pytest.raises(KeyboardInterrupt):
            solve_greedy(inst, 5)
        monkeypatch.setattr(mclp, "_best", best)
        for p in (2, 5):
            got, expected = solve_greedy(inst, p), solve_greedy(want, p)
            assert (got.selected, got.marginal_gains) == (
                expected.selected, expected.marginal_gains)

    def test_unpopulated_instance_picks_the_smallest_ids(self):
        """With every population 0 each p-set is optimal, so the first
        leaf must still replace the greedy incumbent."""
        inst = tiny_instance([[1, 0, 1], [0, 1, 0]], [0, 0])
        for p in (1, 2, 3):
            assert solve_exact(inst, p).selected == ("c0", "c1", "c2")[:p]

    def test_size_cap_refusal_mentions_greedy(self):
        cands = {f"c{j:02d}": Point(j, 0) for j in range(31)}
        inst = points_instance([10], [Point(0, 0)], cands, CoverageStandard(radius=50))
        with pytest.raises(SolverRefused, match="greedy"):
            solve_exact(inst, 2)
        assert solve_exact(inst, 2, override_cap=True).optimal

    def test_fixed_open_candidates_forced_into_solution(self):
        inst = tiny_instance([[1, 0], [0, 1]], [100, 1], fixed_open=[False, True])
        sol = solve_exact(inst, 1)
        assert sol.selected == ("c1",)
        assert sol.objective == 1.0

    def test_invalid_p_rejected(self):
        inst = GREEDY_TRAP
        with pytest.raises(InputError):
            solve_exact(inst, 0)
        with pytest.raises(InputError):
            solve_exact(inst, 5)


class TestSolveGreedy:
    def test_single_dominating_candidate_chosen_first(self):
        inst = tiny_instance([[1, 1], [1, 0], [1, 0]], [5, 5, 5])
        sol = solve_greedy(inst, 2)
        assert sol.selected[0] in ("c0",)
        assert sol.marginal_gains[0] == 15.0
        assert sol.marginal_gains[1] == 0.0  # later rounds still fill to p

    def test_guarantee_and_monotone_gains(self):
        rng = random.Random(103)
        for _ in range(60):
            inst = random_instance(rng)
            p = rng.randint(1, min(4, len(inst.candidate_ids)))
            g = solve_greedy(inst, p)
            z, _ = enumerate_optimum(inst, p)
            assert g.objective >= GREEDY_GUARANTEE * z - 1e-9
            gains = g.marginal_gains
            assert all(a >= b for a, b in zip(gains, gains[1:]))
            assert verify_solution(inst, g)

    def test_tie_breaks_to_smallest_id(self):
        inst = tiny_instance([[1, 1]], [7])
        sol = solve_greedy(inst, 1)
        assert sol.selected == ("c0",)


class TestImproveSwap:
    def test_already_optimal_unchanged(self):
        rng = random.Random(107)
        inst = random_instance(rng, max_areas=10, max_cands=6)
        p = 2
        opt = solve_exact(inst, p)
        fake_start = solve_greedy(inst, p)
        if fake_start.objective == opt.objective:
            out = improve_swap(inst, fake_start)
            assert out.objective == opt.objective

    def test_sandwich_between_greedy_and_exact(self):
        rng = random.Random(109)
        for _ in range(40):
            inst = random_instance(rng)
            p = rng.randint(1, min(4, len(inst.candidate_ids)))
            g = solve_greedy(inst, p)
            s = improve_swap(inst, g)
            z, _ = enumerate_optimum(inst, p)
            assert g.objective <= s.objective <= z
            assert verify_solution(inst, s)

    def test_fractional_populations_never_raise(self):
        """A swap is taken only when the swapped set's canonical objective
        is higher, so with fractional populations the result never falls
        below the greedy start."""
        solves = 0
        for inst in fractional_family(11, 3000, 40, 15, 0.3, (0.1, 0.2, 0.3, 0.7)):
            for p in range(1, min(6, len(inst.candidate_ids)) + 1):
                g = solve_greedy(inst, p)
                assert improve_swap(inst, g).objective >= g.objective
                solves += 1
        assert solves == 16549

    @pytest.mark.parametrize("budget", ["--p", "--p-max"])
    def test_fractional_instance_solves_from_the_cli(self, tmp_path, capsys, budget):
        """The first instance of the family above where the swap once
        lowered the objective (37 areas, 12 candidates, p = 5)."""
        inst = next(itertools.islice(
            fractional_family(11, 3000, 40, 15, 0.3, (0.1, 0.2, 0.3, 0.7)), 492, None))
        assert inst.matrix.shape == (37, 12)
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(inst.to_dict()))
        argv = ["--out", str(tmp_path / "o"), "solve", "--instance", str(path),
                "--method", "greedy+swap", budget, "5"]
        assert main(argv) == 0
        assert "p=5:" in capsys.readouterr().out

    def test_recovers_optimum_on_greedy_trap(self):
        g = solve_greedy(GREEDY_TRAP, 2)
        z, _ = enumerate_optimum(GREEDY_TRAP, 2)
        assert g.objective < z  # greedy really is suboptimal here
        s = improve_swap(GREEDY_TRAP, g)
        assert s.objective == z == 34.0
        assert solve_exact(GREEDY_TRAP, 2).objective == z


class TestCoverageCurve:
    def test_monotone_for_both_methods(self):
        rng = random.Random(113)
        for _ in range(25):
            inst = random_instance(rng, max_areas=20, max_cands=10)
            p_max = min(5, len(inst.candidate_ids))
            for method in ("exact", "greedy+swap"):
                curve = coverage_curve(inst, p_max, method=method)
                pcts = [r.coverage_pct for r in curve.rows]
                assert all(b >= a for a, b in zip(pcts, pcts[1:]))

    def test_final_point_is_total_coverable_share(self):
        rng = random.Random(127)
        inst = random_instance(rng, max_areas=15, max_cands=7)
        n = len(inst.candidate_ids)
        curve = coverage_curve(inst, n, method="exact")
        coverable = inst.matrix.any(axis=1)
        want = 100.0 * float(inst.populations[coverable].sum()) / inst.total_population
        assert curve.rows[-1].coverage_pct == want

    def test_unknown_method_rejected(self):
        with pytest.raises(InputError):
            coverage_curve(GREEDY_TRAP, 2, method="anneal")

    def test_exact_rows_marked_optimal(self):
        curve = coverage_curve(GREEDY_TRAP, 2, method="exact")
        assert all(r.optimal for r in curve.rows)
        heur = coverage_curve(GREEDY_TRAP, 2, method="greedy+swap")
        assert not any(r.optimal for r in heur.rows)

    def test_greedy_swap_curve_equals_per_p_solves(self):
        """One greedy pass to p_max gives the rows that greedy from scratch
        at every p gave, with fractional populations and fixed-open sites."""
        rng = random.Random(149)
        for case in range(50):
            n_cands = rng.randint(2, 14)
            pops, points = [], []
            for _ in range(rng.randint(5, 60)):
                pops.append(rng.randint(0, 50) / 10)
                points.append(Point(rng.uniform(0, 6000), rng.uniform(0, 6000)))
            fixed = rng.randrange(n_cands) if case % 3 == 0 else None
            cands = {f"c{j:02d}": Point(rng.uniform(0, 6000), rng.uniform(0, 6000))
                     for j in range(n_cands)}
            inst = points_instance(pops, points, cands, CoverageStandard(radius=1500.0),
                                   fixed_open=[j == fixed for j in range(n_cands)])
            p_max = n_cands if case % 2 else rng.randint(1, n_cands)
            want: list = []
            for p in range(1, p_max + 1):
                sol = improve_swap(inst, solve_greedy(inst, p))
                if want:
                    ext = mclp._extend_by_best(inst, want[-1])
                    if ext.objective > sol.objective:
                        sol = ext
                want.append(sol)
            got = coverage_curve(inst, p_max, method="greedy+swap").rows
            assert [r.p for r in got] == list(range(1, p_max + 1))
            for g, w in zip(got, want):
                _same(g, w)


# A 6 x 5 instance where greedy to p = 3 and its swaps reach 80.6% of the
# population (c0, c1, c2), but extending row 2 of the curve reaches 100%.
SIX_BY_FIVE = {
    "areas": [{"id": f"a{i}", "population": pop, "centroid": [0, 0]}
              for i, pop in enumerate([7, 1, 7, 6, 8, 7])],
    "candidates": [{"id": f"c{j}", "location": [0, 0]} for j in range(5)],
    "matrix": [[0, 0, 0, 0, 1], [1, 0, 0, 0, 0], [0, 1, 0, 1, 0], [1, 0, 0, 0, 0],
               [0, 0, 1, 1, 0], [1, 0, 1, 0, 0]],
}


class TestSingleBudgetIsCurveRow:
    """``solve --p k`` writes row k of ``solve --p-max k``, for both methods."""

    @staticmethod
    def _rows(tmp_path, instance, p_top):
        """{(method, k): (the --p k solution, the last row of --p-max k)}."""
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(instance))
        out = tmp_path / "o"
        rows = {}
        for method, k in itertools.product(("exact", "greedy+swap"), range(1, p_top + 1)):
            argv = ["--out", str(out), "solve", "--instance", str(path), "--method", method]
            assert main(argv + ["--p", str(k)]) == 0
            single = json.loads((out / "solution.json").read_text())
            assert main(argv + ["--p-max", str(k)]) == 0
            last = json.loads((out / "solutions.json").read_text())["rows"][-1]
            rows[method, k] = single, last
        return rows

    def test_six_by_five(self, tmp_path):
        rows = self._rows(tmp_path, SIX_BY_FIVE, 5)
        for single, last in rows.values():
            assert single == last
        single, _ = rows["greedy+swap", 3]
        assert single["selected"] == ["c0", "c3", "c4"]
        assert single["objective"] == 36.0

    def test_random_instances(self, tmp_path):
        # the 4 seeds below 400 where greedy+swap at p alone fell short of
        # the curve's row p, and 16 others
        for seed in [*range(16), 93, 244, 253, 351]:
            inst = random_instance(random.Random(seed))
            p_top = min(len(inst.candidate_ids), 6)
            for single, last in self._rows(tmp_path, inst.to_dict(), p_top).values():
                for key in ("p", "selected", "objective", "marginal_gains"):
                    assert single[key] == last[key]

    def test_fixed_open_rows_start_at_their_count(self, tmp_path):
        """With two or more fixed-open sites the curve has no row 1; --p k
        still solves, from rows that start at the number of those sites."""
        checked = 0
        for inst, p in tie_heavy_family():
            got = mclp.solve_greedy_swap(inst, p)
            fixed = {c for c, f in zip(inst.candidate_ids, inst.fixed_open) if f}
            if len(fixed) <= 1:
                _same(got, coverage_curve(inst, p, method="greedy+swap").rows[-1])
                continue
            assert fixed <= set(got.selected) and got.p == p
            assert got.objective >= improve_swap(inst, solve_greedy(inst, p)).objective
            checked += 1
        assert checked > 0
        instance = dict(SIX_BY_FIVE, candidates=[
            {"id": f"c{j}", "location": [0, 0], "fixed_open": j in (1, 2)} for j in range(5)])
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(instance))
        argv = ["--out", str(tmp_path / "o"), "solve", "--instance", str(path),
                "--method", "greedy+swap"]
        assert main(argv + ["--p-max", "4"]) == 2
        assert main(argv + ["--p", "4"]) == 0
        sol = json.loads((tmp_path / "o" / "solution.json").read_text())
        assert sol["selected"] == ["c0", "c1", "c2", "c4"]


class TestSolverViewReadOnly:
    def test_populations_and_columns_refuse_writes(self):
        view = mclp._prepare(GREEDY_TRAP, 1)
        assert GREEDY_TRAP.populations is GREEDY_TRAP.populations
        with pytest.raises(ValueError, match="read-only"):
            GREEDY_TRAP.populations[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            view.cols[0, 0] = 0.0
        assert mclp._prepare(GREEDY_TRAP, 2) is view
        search = GREEDY_TRAP._search
        for array in (search.hit, search.reach, search.table, search.covered):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    @pytest.mark.parametrize("with_matrix", [True, False])
    def test_read_instance_columns_refuse_writes(self, with_matrix):
        d = GREEDY_TRAP.to_dict()
        if not with_matrix:
            del d["matrix"]
            d["standard"] = {"kind": "radius", "radius": 1.0}
        inst = instance_from_json(json.dumps(d))
        for array in (inst.populations, inst.centroids, inst.locations, inst.fixed_open,
                      inst.matrix):
            assert not array.flags.writeable


def _instance_dicts(seed, count):
    """``count`` instance dicts as ``json.loads`` returns them: integer,
    fractional and near-``float_max`` populations, integer and float
    coordinates, fixed-open sites, a matrix or a radius or travel-time
    standard, planar or geodesic."""
    rng = random.Random(seed)
    top = sys.float_info.max / 1e3
    for case in range(count):
        n_areas, n_cands = rng.randint(1, 60), rng.randint(1, 10)
        geodesic = case % 4 == 3
        span = (51.6, 51.7) if geodesic else (0, 5000)

        def coord():
            v = rng.uniform(*span)
            return v if geodesic or rng.random() < 0.5 else round(v)

        def population():
            kind = rng.randrange(4)
            if kind == 0:
                return rng.randint(0, 10 ** 6)
            if kind == 1:
                return rng.random() * 1000
            if kind == 2:   # near the float limit, within the total's bound
                return rng.choice([top / n_areas, int(top) // n_areas, top / 7 / n_areas])
            return rng.choice([0, 0.0, 1e-300, 2 ** 53 + 1])

        d = {"mode": "geodesic" if geodesic else "planar",
             "areas": [{"id": f"d{i:02d}", "population": population(),
                        "centroid": [coord(), coord()]} for i in range(n_areas)],
             "candidates": [{"id": f"c{j:02d}", "location": [coord(), coord()],
                             "fixed_open": rng.random() < 0.2} for j in range(n_cands)]}
        if case % 3 == 0:
            d["matrix"] = [[rng.random() < 0.3 for _ in range(n_cands)]
                           for _ in range(n_areas)]
        elif case % 3 == 1:
            d["standard"] = {"kind": "radius", "radius": 10_000.0 if geodesic else 1500}
        else:
            d["standard"] = {"kind": "travel_time", "minutes": 3, "speed_kmh": 30}
        yield d


def _corrupt(d, section, key, value, rng):
    """``d`` with ``key`` of a random row of ``section`` set to ``value``
    (deleted, if the row has it, when it is ``_DELETE``; the whole row when
    ``key`` is None)."""
    d = json.loads(json.dumps(d))
    rows = d[section]
    i = rng.randrange(len(rows))
    if value is _DELETE:
        rows[i].pop(key, None)
    elif key is None:
        rows[i] = value
    else:
        rows[i][key] = value
    return d


_DELETE = object()

# one field of one row set to a bad value: each typed case of
# ``test_malformed_instance_exits_2``, plus rows that are no object and
# values only a dict built in Python can hold
_CORRUPTIONS = [
    ("areas", "population", _DELETE), ("areas", "population", "x"),
    ("areas", "population", True), ("areas", "population", "5"),
    ("areas", "population", 10 ** 400), ("areas", "population", 1e308),
    ("areas", "population", -1), ("areas", "population", math.nan),
    ("areas", "population", sys.float_info.max), ("areas", "population", None),
    ("areas", "population", int(sys.float_info.max) + 1),
    ("areas", "centroid", [0, -int(sys.float_info.max) - 1]),
    ("areas", "centroid", "00"), ("areas", "centroid", [0, 0, 9]),
    ("areas", "centroid", [True, 0]), ("areas", "centroid", [math.nan, 0]),
    ("areas", "centroid", [0, 10 ** 400]), ("areas", "centroid", [200, 0]),
    ("areas", "centroid", _DELETE), ("areas", "id", 7), ("areas", "id", None),
    ("areas", "id", "d000"), ("areas", None, 5), ("areas", None, ["d", 1, [0, 0]]),
    ("candidates", "fixed_open", 1), ("candidates", "fixed_open", None),
    ("candidates", "fixed_open", "true"), ("candidates", "fixed_open", 0),
    ("candidates", "fixed_open", _DELETE), ("candidates", "fixed_open", True),
    ("candidates", "location", [0, math.inf]), ("candidates", "location", _DELETE),
    ("candidates", "location", [True, 0]), ("candidates", "location", [0, 10 ** 400]),
    ("candidates", "id", None), ("candidates", "id", "c000"),
    ("candidates", None, 5), ("candidates", None, ["c", [0, 0]]),
    ("matrix", None, [0]), ("matrix", None, [1, "x"]), ("matrix", None, [1, 2]),
    ("matrix", None, [1, 0.5]),
]


def _read(reader, d):
    """(instance, None) or (None, (exception type, message))."""
    try:
        return reader(d), None
    except Exception as exc:
        return None, (type(exc), str(exc))


class TestColumnReader:
    """``MclpInstance.from_dict`` reads each area and candidate field as one
    column; it must return what the per-field reader of ``helpers``
    returned, and fail with the same error."""

    def _assert_same_instance(self, got, want):
        assert got.area_ids == want.area_ids
        assert got.populations.tobytes() == want.populations.tobytes()
        assert got.centroids.tobytes() == want.centroids.tobytes()
        assert got.candidate_ids == want.candidate_ids
        assert got.locations.tobytes() == want.locations.tobytes()
        assert got.fixed_open.tolist() == want.fixed_open.tolist()
        assert np.array_equal(got.matrix, want.matrix)
        assert json.dumps(got.to_dict()) == json.dumps(want.to_dict())

    def test_seeded_family_matches_the_per_field_reader(self):
        for d in _instance_dicts(2026, 120):
            got, got_error = _read(MclpInstance.from_dict, d)
            want, want_error = _read(reference_instance_from_dict, d)
            assert got_error == want_error is None
            self._assert_same_instance(got, want)

    @pytest.mark.parametrize("base", ["matrix", "geodesic standard"])
    def test_one_corrupt_field_raises_the_per_field_error(self, base):
        """500 areas and 300 candidates, so the bad row is seldom the first;
        every third candidate has no ``fixed_open``, which reads false."""
        rng = random.Random(61)
        d = {"mode": "planar",
             "areas": [{"id": f"d{i:03d}", "population": rng.randint(0, 5000),
                        "centroid": [rng.uniform(51.6, 51.7), rng.uniform(32.6, 32.7)]}
                       for i in range(500)],
             "candidates": [{"id": f"c{j:03d}",
                             "location": [rng.uniform(51.6, 51.7), rng.uniform(32.6, 32.7)]}
                            for j in range(300)]}
        for j, c in enumerate(d["candidates"]):
            if j % 3:
                c["fixed_open"] = rng.random() < 0.1
        if base == "matrix":
            d["matrix"] = [[rng.random() < 0.1 for _ in range(300)] for _ in range(500)]
        else:
            d["mode"] = "geodesic"
            d["standard"] = {"kind": "radius", "radius": 3000.0}
        inst = MclpInstance.from_dict(d)
        assert inst.fixed_open.tolist() == [
            c.get("fixed_open", False) for c in d["candidates"]]
        assert 0 < inst.fixed_open.sum() < 100
        for section, key, value in _CORRUPTIONS:
            if section == "matrix" and base != "matrix":
                continue
            bad = _corrupt(d, section, key, value, rng)
            got, got_error = _read(MclpInstance.from_dict, bad)
            want, want_error = _read(reference_instance_from_dict, bad)
            assert got_error == want_error, (section, key, value)
            if want_error is None:
                self._assert_same_instance(got, want)

    def test_valid_rows_are_not_read_one_by_one(self, monkeypatch):
        """The per-field ``get`` walk is only the error path, also for
        candidates that leave ``fixed_open`` to its default."""
        sections = []
        real_get = fields.get

        def spy(obj, key, kind, source, section="", index=None, **kw):
            sections.append(section)
            return real_get(obj, key, kind, source, section, index, **kw)

        monkeypatch.setattr(fields, "get", spy)
        d = next(_instance_dicts(5, 1))
        for c in d["candidates"][::2]:
            del c["fixed_open"]
        MclpInstance.from_dict(d)
        assert "areas" not in sections and "candidates" not in sections
        d["candidates"][-1]["fixed_open"] = 1
        with pytest.raises(InputError, match=r"candidates\[\d+\]\.fixed_open"):
            MclpInstance.from_dict(d)
        assert sections.count("candidates") == 3 * len(d["candidates"])
        d["areas"][-1]["population"] = "x"
        with pytest.raises(InputError, match=r"areas\[\d+\]\.population"):
            MclpInstance.from_dict(d)
        assert sections.count("areas") == 3 * len(d["areas"]) - 1


class TestImportGraph:
    def test_solver_imports_only_errors_fields_and_geo(self):
        """The solver layer loads none of the candidate and raster modules."""
        imported = set()
        for node in ast.walk(ast.parse(Path(mclp.__file__).read_text())):
            if isinstance(node, ast.ImportFrom) and node.level:
                imported |= {node.module} if node.module else {a.name for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module.startswith("branchsite"):
                imported.add(node.module)
            elif isinstance(node, ast.Import):
                imported |= {a.name for a in node.names if a.name.startswith("branchsite")}
        assert imported == {"errors", "fields", "geo"}


class TestScaleEquivariance:
    def test_populations_times_constant(self):
        rng = random.Random(131)
        for _ in range(10):
            inst = random_instance(rng, max_areas=15, max_cands=8)
            p = rng.randint(1, 3)
            scaled = dataclasses.replace(inst, populations=inst.populations * 7.0)
            base = solve_exact(inst, p)
            big = solve_exact(scaled, p)
            assert big.objective == 7.0 * base.objective
            assert big.selected == base.selected
            assert big.coverage_pct == pytest.approx(base.coverage_pct, abs=1e-9)


class TestSerialization:
    def test_instance_json_round_trip(self):
        rng = random.Random(137)
        inst = random_instance(rng, max_areas=8, max_cands=5)
        text = json.dumps(inst.to_dict())
        back = instance_from_json(text)
        assert np.array_equal(back.matrix, inst.matrix)
        assert back.area_ids == inst.area_ids
        assert back.to_dict() == inst.to_dict()

    def test_instance_matrix_rebuilt_from_standard(self):
        cands = {"c0": Point(30, 40)}
        inst = points_instance([10], [Point(0, 0)], cands, CoverageStandard(radius=50.0))
        d = inst.to_dict()
        del d["matrix"]
        rebuilt = MclpInstance.from_dict(d)
        assert np.array_equal(rebuilt.matrix, inst.matrix)

    def test_fixed_open_false_text_rejected(self, tmp_path, capsys):
        """Two areas, radius 1: c1 alone covers 62.5%; the text "false"
        must not force c2 open."""
        instance = {
            "standard": {"kind": "radius", "radius": 1.0},
            "areas": [{"id": "d0", "population": 5, "centroid": [0, 0]},
                      {"id": "d1", "population": 3, "centroid": [10, 0]}],
            "candidates": [{"id": "c1", "location": [0, 0], "fixed_open": False},
                           {"id": "c2", "location": [10, 0], "fixed_open": "false"}],
        }
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(instance))
        argv = ["--out", str(tmp_path / "o"), "solve", "--instance", str(path), "--p", "1"]
        assert main(argv) == 2
        assert ("instance field candidates[1].fixed_open must be true or false, "
                "got 'false'") in capsys.readouterr().err
        instance["candidates"][1]["fixed_open"] = False
        path.write_text(json.dumps(instance))
        assert main(argv) == 0
        assert "p=1: 62.5% covered by c1" in capsys.readouterr().out

    def test_coverage_table_round_trips_exactly(self):
        curve = coverage_curve(GREEDY_TRAP, 3, method="exact")
        text = coverage_table_csv([r.to_dict() for r in curve.rows])
        rows = parse_coverage_table_csv(text)
        assert len(rows) == 3
        for row, sol in zip(rows, curve.rows):
            assert row[0] == sol.p
            assert row[1] == sol.selected
            assert row[2] == sol.coverage_pct  # exact float round trip


def _with_fixed_open(inst, positions):
    return dataclasses.replace(
        inst, fixed_open=[j in positions for j in range(len(inst.candidate_ids))])


def _reference_family():
    """The oracle family, plus each instance with one and with two
    fixed-open candidates (p raised to at least the fixed count)."""
    rng = random.Random(139)
    for inst, p in oracle_family():
        yield inst, p
        for n_fixed in (1, 2):
            fixed = set(rng.sample(range(len(inst.candidate_ids)), n_fixed))
            yield _with_fixed_open(inst, fixed), max(p, n_fixed)


def _same(got, want):
    assert got.selected == want.selected
    assert got.objective == want.objective
    assert got.marginal_gains == want.marginal_gains


class TestBitmaskReference:
    """The matrix-product solvers pick exactly what the bitmask loops picked."""

    def test_greedy_and_swap_match(self):
        checked = 0
        for inst, p in _reference_family():
            g = solve_greedy(inst, p)
            _same(g, reference_solve_greedy(inst, p))
            _same(improve_swap(inst, g), reference_improve_swap(inst, g))
            checked += 1
        assert checked == 600

    def test_greedy_swap_curve_matches(self):
        for inst, _p in _reference_family():
            p_max = min(5, len(inst.candidate_ids))
            try:
                want = reference_greedy_curve(inst, p_max)
            except InputError:  # more fixed-open sites than p = 1 allows
                with pytest.raises(InputError, match="fixed open"):
                    coverage_curve(inst, p_max, method="greedy+swap")
                continue
            got = coverage_curve(inst, p_max, method="greedy+swap")
            assert len(got.rows) == len(want.rows)
            for g, w in zip(got.rows, want.rows):
                assert g.p == w.p
                _same(g, w)

    def test_greedy_swap_curve_matches_above_the_family(self, monkeypatch):
        """600 areas x 80 candidates to p = 8, past the 30-candidate family:
        rows 2-8 are swap-improved and rows 4, 6 and 8 are the previous
        row's best extension, so both ways of making a row are checked."""
        inst = _seeded_planar_instance(1, n_areas=600, n_cands=80)
        extend, extensions = mclp._extend_by_best, []

        def extend_spy(inst, prev):
            extensions.append(extend(inst, prev))
            return extensions[-1]

        monkeypatch.setattr(mclp, "_extend_by_best", extend_spy)
        got = coverage_curve(inst, 8, method="greedy+swap").rows
        want = reference_greedy_curve(inst, 8).rows
        assert [g.p for g in got] == [w.p for w in want] == list(range(1, 9))
        for g, w in zip(got, want):
            _same(g, w)
        swapped = [r.p for r in got if r.selected != solve_greedy(inst, r.p).selected]
        assert swapped == list(range(2, 9))
        assert [r.p for r in got if any(r is e for e in extensions)] == [4, 6, 8]


def _seeded_planar_instance(seed, n_areas=200, n_cands=30, side=12000.0):
    rng = random.Random(seed)
    pops, points = [], []
    for _ in range(n_areas):
        pops.append(float(rng.randint(100, 5000)))
        points.append((rng.uniform(0, side), rng.uniform(0, side)))
    locations = [(rng.uniform(0, side), rng.uniform(0, side)) for _ in range(n_cands)]
    return build_coverage(tuple(f"d{i:03d}" for i in range(n_areas)), pops, points,
                          tuple(f"c{j:02d}" for j in range(n_cands)), locations,
                          [False] * n_cands, CoverageStandard(radius=2500.0))


def _milp_optimum(inst, p):
    """Church-ReVelle ILP solved by HiGHS; the objective of its selection."""
    from scipy import optimize

    a = inst.matrix.astype(float)
    m, n = a.shape
    cost = np.concatenate([np.zeros(n), -inst.populations])
    link = optimize.LinearConstraint(np.hstack([-a, np.eye(m)]), -np.inf, 0.0)
    budget = optimize.LinearConstraint(
        np.concatenate([np.ones(n), np.zeros(m)])[None, :], p, p)
    res = optimize.milp(cost, constraints=[link, budget],
                        integrality=np.concatenate([np.ones(n), np.zeros(m)]),
                        bounds=optimize.Bounds(0, 1))
    assert res.success, res.message
    chosen = res.x[:n] > 0.5
    assert chosen.sum() == p
    return float(inst.populations[inst.matrix[:, chosen].any(axis=1)].sum())


class TestExactAgainstMilp:
    """Past the reach of enumeration: C(30, 12) is 86 million subsets."""

    @pytest.mark.parametrize("p", [10, 12])
    def test_matches_highs_optimum(self, p):
        pytest.importorskip("scipy")
        inst = _seeded_planar_instance(1)
        sol = solve_exact(inst, p)
        assert sol.objective == _milp_optimum(inst, p)
        assert verify_solution(inst, sol)

    @pytest.mark.parametrize("seed", [1, 2])
    def test_above_cap_matches_highs_optimum(self, seed):
        pytest.importorskip("scipy")
        inst = _seeded_planar_instance(seed, n_areas=300, n_cands=50)
        sol = solve_exact(inst, 8, override_cap=True)
        assert sol.objective == _milp_optimum(inst, 8)
        assert verify_solution(inst, sol)

"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``).

The demo project is the regression target for the end-to-end numbers; the
math criteria run against randomized families with independent oracles
(full enumeration, dense eigensolver, exact rational products).
"""

import dataclasses
import math
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from helpers import consistent_matrix, enumerate_optimum, random_instance

from branchsite.criteria import KIND_CATEGORICAL, ScoreScheme, classify
from branchsite.mclp import (
    MclpInstance,
    coverage_curve,
    solve_exact,
    solve_greedy,
)
from branchsite.overlay import CombineMode, GridSpec, SuitabilityRaster, combine
from branchsite.project import load_project, run_pipeline, write_pipeline_artifacts
from branchsite.weights import (
    RANDOM_INDEX,
    ComparisonMatrix,
    consistency_ratio,
    gate,
    principal_weights,
)

GREEDY_GUARANTEE = 1.0 - 1.0 / math.e


def report_line(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


@pytest.fixture(scope="module")
def oracle_instances():
    """The shared randomized family for the solver criteria (2, 3, 4)."""
    rng = random.Random(20240614)
    out = []
    for _ in range(200):
        inst = random_instance(rng, max_areas=30, max_cands=12)
        p = rng.randint(1, min(4, len(inst.candidate_ids)))
        out.append((inst, p))
    return out


def test_criterion_1_fixture_coverage_regression(demo_config_path, tmp_path):
    start = time.perf_counter()
    cfg = load_project(demo_config_path)
    report = run_pipeline(cfg)
    write_pipeline_artifacts(report, tmp_path / "out")
    elapsed = time.perf_counter() - start

    rows = report.data["curve"]
    got = [(r["p"], r["coverage_pct"]) for r in rows]
    assert got == [(1, 90.0), (2, 96.0), (3, 100.0)]
    assert [round(r["coverage_pct"]) for r in rows] == [90, 96, 100]
    assert all(r["optimal"] for r in rows)
    assert elapsed < 5.0, f"pipeline took {elapsed:.2f}s"
    report_line(1, f"coverage 90/96/100 for p=1/2/3 in {elapsed:.2f}s")


def test_criterion_2_exact_solver_equals_enumeration(oracle_instances):
    start = time.perf_counter()
    for inst, p in oracle_instances:
        sol = solve_exact(inst, p)
        z, sel = enumerate_optimum(inst, p)
        assert sol.objective == z
        assert sol.selected == sel
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"oracle sweep took {elapsed:.1f}s"
    report_line(2, f"{len(oracle_instances)} instances match full enumeration "
                   f"in {elapsed:.1f}s")


def test_criterion_3_greedy_guarantee_and_monotone_gains(oracle_instances):
    violations = 0
    for inst, p in oracle_instances:
        g = solve_greedy(inst, p)
        z, _ = enumerate_optimum(inst, p)
        if g.objective < GREEDY_GUARANTEE * z - 1e-9:
            violations += 1
        gains = g.marginal_gains
        assert all(a >= b for a, b in zip(gains, gains[1:])), "gains increased"
    assert violations == 0
    report_line(3, f"greedy >= (1-1/e)*optimum on {len(oracle_instances)} instances, "
                   "marginal gains non-increasing")


def test_criterion_4_coverage_curve_monotone(oracle_instances):
    checked = 0
    for inst, _p in oracle_instances[:60]:
        p_max = min(5, len(inst.candidate_ids))
        for method in ("exact", "greedy+swap"):
            curve = coverage_curve(inst, p_max, method=method)
            pcts = [r.coverage_pct for r in curve.rows]
            assert all(b >= a for a, b in zip(pcts, pcts[1:])), (method, pcts)
            checked += 1
    report_line(4, f"{checked} coverage curves non-decreasing in p (both methods)")


def test_criterion_5_consistency_machinery():
    rng = random.Random(77)
    # consistent families: CR vanishes and the weights are recovered
    count = 0
    for n in range(3, 10):
        for _ in range(15):
            raw = [rng.uniform(0.15, 1.0) for _ in range(n)]
            total = sum(raw)
            target = [x / total for x in raw]
            m = consistent_matrix("c", [f"i{k}" for k in range(n)], target)
            assert consistency_ratio(m) <= 1e-9
            got = principal_weights(m).values
            assert max(abs(g - t) for g, t in zip(got, target)) <= 1e-9
            count += 1
    assert count >= 100

    # perturbed 4x4 family against the dense-eigenvalue oracle
    base_w = [0.40, 0.28, 0.20, 0.12]
    for factor in (1.2, 1.5, 2.0, 2.5, 3.0, 3.9331193323138356, 5.755570334903554):
        rows = [[wi / wj for wj in base_w] for wi in base_w]
        rows[0][1] *= factor
        rows[1][0] /= factor
        m = ComparisonMatrix("f", ("a", "b", "c", "d"),
                             tuple(tuple(r) for r in rows))
        lam = float(np.max(np.real(np.linalg.eigvals(m.as_array()))))
        oracle = ((lam - 4) / 3) / RANDOM_INDEX[4]
        assert consistency_ratio(m) == pytest.approx(oracle, abs=1e-6)

    # the 0.1 gate: below passes, at-or-above fails
    passing = ComparisonMatrix("ok", ("a", "b", "c", "d"), _perturbed(3.9331193323138356))
    failing = ComparisonMatrix("bad", ("a", "b", "c", "d"), _perturbed(5.755570334903554))
    assert gate(passing, 0.1).passed
    assert not gate(failing, 0.1).passed
    report_line(5, f"{count} consistent matrices at CR<=1e-9 with 1e-9 recovery; "
                   "perturbed family matches eig oracle to 1e-6; 0.1 gate holds")


def _perturbed(factor):
    base_w = [0.40, 0.28, 0.20, 0.12]
    rows = [[wi / wj for wj in base_w] for wi in base_w]
    rows[0][1] *= factor
    rows[1][0] /= factor
    return tuple(tuple(r) for r in rows)


def test_criterion_6_classification_totality(demo_config_path):
    cfg = load_project(demo_config_path)
    assert len(cfg.criteria) == 12
    scheme = cfg.scheme
    assert (scheme.high, scheme.mid, scheme.non) == (0.6, 0.4, 0.0)

    rng = np.random.default_rng(2024)
    pyrng = random.Random(2024)
    for spec in cfg.criteria:
        if spec.kind == KIND_CATEGORICAL:
            levels = [name for name, _ in spec.categories]
            for _ in range(100_000):
                assert classify(spec, pyrng.choice(levels)) is not None
            continue
        raws = np.concatenate([
            rng.uniform(0.0, 50.0, 30_000),
            rng.uniform(0.0, 2_000.0, 40_000),
            rng.uniform(0.0, 1e6, 30_000),
        ])
        hits = np.zeros(raws.shape, dtype=int)
        for seg in spec.segments:
            above = (raws > seg.lo) | (seg.lo_inc & (raws == seg.lo))
            below = (raws < seg.hi) | (seg.hi_inc & (raws == seg.hi))
            hits += (above & below).astype(int)
        assert (hits == 1).all(), f"{spec.id}: some value hit {set(hits.tolist())} bands"
        # scalar classifier agrees on a sample, including stated boundaries
        for v in list(raws[:500]) + [0.0, 100.0, 200.0, 250.0, 500.0, 1000.0, 3000.0]:
            assert classify(spec, float(v)) is not None
    report_line(6, "12 normalized specs x 1e5 fuzzed values classify to exactly "
                   "one class; default scores are 0.6/0.4/0")


def test_criterion_7_overlay_correctness():
    rng = random.Random(4242)
    grid = GridSpec(0, 0, 10, 20, 20)
    scheme = ScoreScheme()
    frac = {0.0: Fraction(0), 0.4: Fraction(2, 5), 0.6: Fraction(3, 5)}
    for _trial in range(5):
        k = rng.randint(3, 6)
        cells = [
            [[rng.choice([0.0, 0.4, 0.6]) for _ in range(20)] for _ in range(20)]
            for _ in range(k)
        ]
        mask = np.ones(grid.shape, dtype=bool)
        rasters = [
            SuitabilityRaster.from_values(grid, f"c{i}", np.array(cells[i], dtype=float), mask)
            for i in range(k)
        ]
        weights = [rng.uniform(0.5, 1.0) for _ in range(k)]
        weights = [w / sum(weights) for w in weights]

        ws = combine(rasters, weights, CombineMode.WEIGHTED_SUM).values
        lp = combine(rasters, weights, CombineMode.LITERAL_PRODUCT).values
        wg = combine(rasters, weights, CombineMode.WEIGHTED_GEOMETRIC).values

        order = sorted(range(k), key=lambda i: rasters[i].criterion_id)
        for row in range(20):
            for col in range(20):
                s = [cells[i][row][col] for i in range(k)]
                want_ws = sum(weights[i] * s[i] for i in order)
                want_lp = 1.0
                want_wg = 1.0
                for i in order:
                    want_lp *= weights[i] * s[i]
                    want_wg *= s[i] ** weights[i]
                assert abs(ws[row, col] - want_ws) <= 1e-12
                assert abs(lp[row, col] - want_lp) <= 1e-12
                assert abs(wg[row, col] - want_wg) <= 1e-12
                if 0.0 in s:
                    assert lp[row, col] == 0.0 and wg[row, col] == 0.0

        # ranking under the literal product == ranking under the plain product
        exact = [
            math.prod((frac[cells[i][r][c]] for i in range(k)), start=Fraction(1))
            for r in range(20) for c in range(20)
        ]
        flat = lp.ravel()
        idx = sorted(range(400), key=lambda i: (exact[i], i))
        for a, b in zip(idx, idx[1:]):
            if exact[a] == exact[b]:
                assert abs(flat[a] - flat[b]) <= 1e-12
            else:
                assert flat[a] < flat[b]
    report_line(7, "combine matches per-cell recomputation to 1e-12; "
                   "literal-product ranking preserved; zeros annihilate")


def test_criterion_8_pipeline_determinism(demo_config_path, tmp_path):
    cfg1 = load_project(demo_config_path)
    cfg2 = load_project(demo_config_path)
    rep1 = run_pipeline(cfg1)
    rep2 = run_pipeline(cfg2)
    assert rep1.to_json() == rep2.to_json()
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    write_pipeline_artifacts(rep1, out1)
    write_pipeline_artifacts(rep2, out2)
    files1 = sorted(p.relative_to(out1) for p in out1.rglob("*") if p.is_file())
    files2 = sorted(p.relative_to(out2) for p in out2.rglob("*") if p.is_file())
    assert files1 == files2 and files1
    for rel in files1:
        assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes(), rel
    report_line(8, f"two runs produced byte-identical report and "
                   f"{len(files1)} artifact files")


def test_criterion_9_scale_equivariance(demo_report):
    inst = MclpInstance.from_dict(demo_report.data["instance"])
    scaled = dataclasses.replace(inst, populations=inst.populations * 7.0)
    for p in (1, 2, 3):
        base = solve_exact(inst, p)
        big = solve_exact(scaled, p)
        assert big.objective == 7.0 * base.objective
        assert big.selected == base.selected
    report_line(9, "populations x7 scale every optimum x7 with identical selections")

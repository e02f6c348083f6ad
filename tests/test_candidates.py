import math
import random

import numpy as np
import pytest

from branchsite.candidates import (
    CandidateSite,
    ExtractionConfig,
    assign_tiers,
    candidates_geojson,
    extract,
    merge,
    tier_sizes,
)
from branchsite.errors import InputError
from branchsite.geo import Point, planar_distance
from branchsite.overlay import CombineMode, GridSpec, SuitabilityRaster, combine

from helpers import random_score_rasters


def make_score_raster(grid, cells, mask=None):
    values = np.array(cells, dtype=float)
    m = np.ones(grid.shape, dtype=bool) if mask is None else mask
    return SuitabilityRaster.from_values(grid, "score", values, m)


def greedy_suppression_oracle(grid, values, min_score, min_separation, max_proposed):
    """Brute-force re-implementation of the extraction rule."""
    cells = []
    for row in range(grid.nrows):
        for col in range(grid.ncols):
            v = values[row, col]
            if not math.isnan(v) and v > 0 and v >= min_score:
                cells.append((v, row, col))
    cells.sort(key=lambda t: (-t[0], t[1], t[2]))
    chosen = []
    for v, row, col in cells:
        if len(chosen) >= max_proposed:
            break
        c = grid.cell_center(row, col)
        if all(planar_distance(c, q) >= min_separation for _, q in chosen):
            chosen.append((v, c))
    return chosen


class TestExtract:
    def test_single_nonzero_cell(self):
        grid = GridSpec(0, 0, 100, 3, 3)
        cells = [[0.0] * 3 for _ in range(3)]
        cells[1][2] = 0.5
        got = extract(make_score_raster(grid, cells), ExtractionConfig(0.1, 50, 10))
        assert len(got) == 1
        assert got[0].location == grid.cell_center(1, 2)
        assert got[0].score == 0.5
        assert got[0].origin == "proposed"

    def test_equal_cells_close_together_suppressed_to_lower_index(self):
        grid = GridSpec(0, 0, 10, 2, 1)  # two cells 10 m apart
        got = extract(make_score_raster(grid, [[0.6, 0.6]]),
                      ExtractionConfig(0.1, 500, 10))
        assert len(got) == 1
        assert got[0].location == grid.cell_center(0, 0)

    def test_no_cell_meets_min_score_gives_empty_result(self):
        grid = GridSpec(0, 0, 10, 2, 2)
        got = extract(make_score_raster(grid, [[0.1, 0.2], [0.1, 0.2]]),
                      ExtractionConfig(0.5, 10, 5))
        assert got == []

    def test_zero_score_cells_never_proposed(self):
        grid = GridSpec(0, 0, 10, 2, 1)
        got = extract(make_score_raster(grid, [[0.0, 0.3]]),
                      ExtractionConfig(0.0, 10, 5))
        assert len(got) == 1
        assert got[0].score == 0.3

    def test_matches_bruteforce_oracle_on_random_rasters(self):
        rng = random.Random(67)
        for trial in range(10):
            grid = GridSpec(0, 0, 40, 50, 50)
            values = [[round(rng.random(), 3) for _ in range(50)] for _ in range(50)]
            raster = make_score_raster(grid, values)
            cfg = ExtractionConfig(min_score=0.25, min_separation=130.0, max_proposed=14)
            got = extract(raster, cfg)
            want = greedy_suppression_oracle(
                grid, raster.values, cfg.min_score, cfg.min_separation, cfg.max_proposed)
            assert [(s.score, s.location) for s in got] == want

    def test_coded_surfaces_match_bruteforce_oracle(self):
        """A raster of -0.0, NaN payloads and more than 256 distinct scores,
        and the combined surface of such rasters."""
        hypothesis = pytest.importorskip("hypothesis")
        st = hypothesis.strategies

        @hypothesis.settings(max_examples=40, deadline=None)
        @hypothesis.given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 3),
                          distinct=st.sampled_from([0, 2, 40, 400]),
                          cover=st.sampled_from([0.0, 0.5, 1.0]),
                          mode=st.sampled_from(list(CombineMode)),
                          min_score=st.sampled_from([0.0, 0.2, 0.5]),
                          separation=st.sampled_from([0.0, 25.0, 130.0]),
                          max_proposed=st.integers(1, 20))
        def check(seed, n, distinct, cover, mode, min_score, separation, max_proposed):
            rng = np.random.default_rng(seed)
            grid = GridSpec(0, 0, 20, 30, 30)
            mask = rng.random(grid.shape) < cover
            rasters = random_score_rasters(rng, grid, mask, n, distinct)
            weights = rng.random(n) + 0.01
            surface = combine(rasters, (weights / weights.sum()).tolist(), mode)
            cfg = ExtractionConfig(min_score, separation, max_proposed)
            for raster in (rasters[0], surface):
                want = greedy_suppression_oracle(grid, raster.values, min_score,
                                                 separation, max_proposed)
                assert [(s.score, s.location) for s in extract(raster, cfg)] == want

        check()

    def test_pairwise_separation_respected(self):
        rng = random.Random(71)
        grid = GridSpec(0, 0, 25, 40, 40)
        values = [[rng.random() for _ in range(40)] for _ in range(40)]
        cfg = ExtractionConfig(0.2, 90.0, 30)
        got = extract(make_score_raster(grid, values), cfg)
        for i, a in enumerate(got):
            for b in got[i + 1:]:
                assert planar_distance(a.location, b.location) >= cfg.min_separation

    def test_deterministic_across_reruns(self):
        rng = random.Random(73)
        grid = GridSpec(0, 0, 30, 20, 20)
        values = [[rng.random() for _ in range(20)] for _ in range(20)]
        r = make_score_raster(grid, values)
        cfg = ExtractionConfig(0.3, 100.0, 8)
        assert extract(r, cfg) == extract(r, cfg)


class TestTier:
    def test_three_sites(self):
        sites = [
            CandidateSite("a", Point(0, 0), 0.9, "proposed"),
            CandidateSite("b", Point(1, 0), 0.5, "proposed"),
            CandidateSite("c", Point(2, 0), 0.1, "proposed"),
        ]
        tiers = [s.tier for s in assign_tiers(sites)]
        assert tiers == ["first", "second", "third"]

    def test_fourteen_sites_split_5_5_4(self):
        assert tier_sizes(14) == (5, 5, 4)
        sites = [
            CandidateSite(f"s{i:02d}", Point(i, 0), 1.0 - i * 0.01, "proposed")
            for i in range(14)
        ]
        tiered = assign_tiers(sites)
        counts = {t: sum(1 for s in tiered if s.tier == t) for t in ("first", "second", "third")}
        assert counts == {"first": 5, "second": 5, "third": 4}

    def test_equal_scores_still_split_positionally(self):
        sites = [CandidateSite(f"s{i}", Point(i, 0), 0.5, "proposed") for i in range(6)]
        tiered = assign_tiers(sites)
        assert [s.tier for s in tiered] == ["first", "first", "second", "second", "third", "third"]

    def test_monotone_no_lower_tier_outscores_higher(self):
        rng = random.Random(79)
        sites = [
            CandidateSite(f"s{i:02d}", Point(i, 0), round(rng.random(), 4) + 0.001, "proposed")
            for i in range(25)
        ]
        tiered = assign_tiers(sites)
        rank = {"first": 0, "second": 1, "third": 2}
        for a in tiered:
            for b in tiered:
                if rank[a.tier] < rank[b.tier]:
                    assert a.score >= b.score

    def test_empty_list(self):
        assert assign_tiers([]) == []


class TestMerge:
    def test_14_plus_9_makes_23(self):
        proposed = [
            CandidateSite(f"p{i:02d}", Point(i * 1000, 0), 0.6, "proposed")
            for i in range(14)
        ]
        existing = [CandidateSite(f"e{i:02d}", Point(i * 1000, 5000), None, "existing")
                    for i in range(9)]
        merged = merge(proposed, existing)
        assert len(merged) == 23
        assert sum(1 for s in merged if s.origin == "existing") == 9

    def test_empty_existing(self):
        proposed = [CandidateSite("p01", Point(0, 0), 0.6, "proposed")]
        assert merge(proposed, []) == proposed

    def test_proposed_near_existing_both_retained(self):
        proposed = [CandidateSite("p01", Point(0, 0), 0.6, "proposed")]
        existing = [CandidateSite("e01", Point(5, 0), None, "existing")]  # 5 m away
        assert len(merge(proposed, existing)) == 2

    def test_duplicate_id_rejected(self):
        a = [CandidateSite("x", Point(0, 0), 0.6, "proposed")]
        b = [CandidateSite("x", Point(1, 1), None, "existing")]
        with pytest.raises(InputError, match="duplicate candidate id"):
            merge(a, b)


class TestGeojson:
    def test_properties_rendered(self):
        sites = assign_tiers([CandidateSite("p01", Point(50, 50), 0.6, "proposed")])
        sites = merge(sites, [CandidateSite("e01", Point(10, 10), None, "existing")])
        gj = candidates_geojson([s.to_dict() for s in sites])
        assert gj["type"] == "FeatureCollection"
        props = [f["properties"] for f in gj["features"]]
        assert props[0] == {"id": "p01", "score": 0.6, "origin": "proposed",
                            "tier": "first", "fixed_open": False}
        assert props[1]["score"] is None
        assert props[1]["tier"] is None

import math
import random

import numpy as np
import pytest

from branchsite.candidates import (
    ExtractionConfig,
    candidates_geojson,
    extract,
    merge_existing,
)
from branchsite.errors import InputError
from branchsite.overlay import CombineMode, GridSpec, SuitabilityRaster, combine

from helpers import center_at, distance, random_score_rasters


def make_score_raster(grid, cells, mask=None):
    values = np.array(cells, dtype=float)
    m = np.ones(grid.shape, dtype=bool) if mask is None else mask
    return SuitabilityRaster.from_values(grid, "score", values, m)


def _scored_points(rows):
    return [(row["score"], tuple(row["location"])) for row in rows]


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
        c = center_at(grid, row, col)
        if all(distance(c, q) >= min_separation for _, q in chosen):
            chosen.append((v, c))
    return chosen


class TestExtractionConfig:
    @pytest.mark.parametrize("min_score, min_separation, max_proposed, message", [
        (math.nan, math.nan, 3, "min_score must be a number, got nan"),
        (math.nan, 100.0, 3, "min_score must be a number, got nan"),
        (0.5, math.nan, 3, "min_separation must be >= 0"),
        (0.5, -1.0, 3, "min_separation must be >= 0"),
        (0.5, 100.0, 0, "max_proposed must be >= 1"),
    ])
    def test_bad_parameters_rejected(self, min_score, min_separation, max_proposed, message):
        """A NaN separation would suppress nothing and a NaN min_score would
        extract nothing, so both are refused."""
        with pytest.raises(InputError, match=message):
            ExtractionConfig(min_score, min_separation, max_proposed)


class TestExtract:
    def test_single_nonzero_cell(self):
        grid = GridSpec(0, 0, 100, 3, 3)
        cells = [[0.0] * 3 for _ in range(3)]
        cells[1][2] = 0.5
        got = extract(make_score_raster(grid, cells), ExtractionConfig(0.1, 50, 10))
        assert len(got) == 1
        assert tuple(got[0]["location"]) == center_at(grid, 1, 2)
        assert got[0]["score"] == 0.5
        assert got[0]["origin"] == "proposed"

    def test_equal_cells_close_together_suppressed_to_lower_index(self):
        grid = GridSpec(0, 0, 10, 2, 1)  # two cells 10 m apart
        got = extract(make_score_raster(grid, [[0.6, 0.6]]),
                      ExtractionConfig(0.1, 500, 10))
        assert len(got) == 1
        assert tuple(got[0]["location"]) == center_at(grid, 0, 0)

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
        assert got[0]["score"] == 0.3

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
            assert _scored_points(got) == want

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
                assert _scored_points(extract(raster, cfg)) == want

        check()

    def test_pairwise_separation_respected(self):
        rng = random.Random(71)
        grid = GridSpec(0, 0, 25, 40, 40)
        values = [[rng.random() for _ in range(40)] for _ in range(40)]
        cfg = ExtractionConfig(0.2, 90.0, 30)
        got = extract(make_score_raster(grid, values), cfg)
        for i, a in enumerate(got):
            for b in got[i + 1:]:
                assert distance(a["location"], b["location"]) >= cfg.min_separation

    def test_deterministic_across_reruns(self):
        rng = random.Random(73)
        grid = GridSpec(0, 0, 30, 20, 20)
        values = [[rng.random() for _ in range(20)] for _ in range(20)]
        r = make_score_raster(grid, values)
        cfg = ExtractionConfig(0.3, 100.0, 8)
        assert extract(r, cfg) == extract(r, cfg)


def _tiers(rows):
    return [row["tier"] for row in rows]


class TestTier:
    """Tiers are positional terciles of pick order, which is descending
    score order, with the remainder of an uneven split to the higher tiers."""

    def test_three_sites(self):
        grid = GridSpec(0, 0, 100, 3, 1)
        got = extract(make_score_raster(grid, [[0.9, 0.5, 0.1]]),
                      ExtractionConfig(0.05, 50, 10))
        assert [row["score"] for row in got] == [0.9, 0.5, 0.1]
        assert _tiers(got) == ["first", "second", "third"]

    def test_fourteen_sites_split_5_5_4(self):
        grid = GridSpec(0, 0, 100, 14, 1)
        got = extract(make_score_raster(grid, [[1.0 - i * 0.01 for i in range(14)]]),
                      ExtractionConfig(0.1, 50, 14))
        assert len(got) == 14
        counts = {t: _tiers(got).count(t) for t in ("first", "second", "third")}
        assert counts == {"first": 5, "second": 5, "third": 4}
        assert _tiers(got) == ["first"] * 5 + ["second"] * 5 + ["third"] * 4

    def test_equal_scores_still_split_positionally(self):
        grid = GridSpec(0, 0, 100, 6, 1)
        got = extract(make_score_raster(grid, [[0.5] * 6]), ExtractionConfig(0.1, 50, 10))
        assert [row["id"] for row in got] == [f"p{i:02d}" for i in range(1, 7)]
        assert [tuple(row["location"]) for row in got] == [
            center_at(grid, 0, col) for col in range(6)]
        assert _tiers(got) == ["first", "first", "second", "second", "third", "third"]

    def test_monotone_no_lower_tier_outscores_higher(self):
        rng = random.Random(79)
        rank = {"first": 0, "second": 1, "third": 2}
        for trial in range(10):
            grid = GridSpec(0, 0, 40, 30, 30)
            values = [[round(rng.random(), 2) for _ in range(30)] for _ in range(30)]
            cfg = ExtractionConfig(rng.choice([0.0, 0.3]), rng.choice([0.0, 90.0]),
                                   rng.randint(1, 40))
            got = extract(make_score_raster(grid, values), cfg)
            assert got
            ranks = [rank[tier] for tier in _tiers(got)]
            assert ranks == sorted(ranks)
            for a in got:
                for b in got:
                    if rank[a["tier"]] < rank[b["tier"]]:
                        assert a["score"] >= b["score"]


def _existing(n):
    return [None] * n, np.array([[i * 1000.0, 5000.0] for i in range(n)]).reshape(-1, 2)


P01 = {"id": "p01", "location": [0.0, 0.0], "score": 0.6, "origin": "proposed",
       "tier": "first", "fixed_open": False}


class TestMerge:
    def test_14_plus_9_makes_23(self):
        grid = GridSpec(0, 0, 1000, 14, 1)
        proposed = extract(make_score_raster(grid, [[0.6] * 14]), ExtractionConfig(0.1, 50, 14))
        merged = merge_existing(proposed, *_existing(9))
        assert len(merged) == 23
        assert merged[:14] == proposed
        assert sum(1 for s in merged if s["origin"] == "existing") == 9
        assert [s["id"] for s in merged[14:]] == [f"e{i:02d}" for i in range(1, 10)]

    def test_empty_existing(self):
        assert merge_existing([P01], *_existing(0)) == [P01]

    def test_proposed_near_existing_both_retained(self):
        merged = merge_existing([P01], ["e01"], np.array([[5.0, 0.0]]))  # 5 m away
        assert len(merged) == 2

    def test_existing_ids_kept_and_missing_ids_numbered(self):
        merged = merge_existing([], ["b1", None, "b3"], np.array([[0.0, 1.0], [2.0, 3.0],
                                                                  [4.0, 5.0]]))
        assert merged == [
            {"id": "b1", "location": [0.0, 1.0], "score": None, "origin": "existing",
             "tier": None, "fixed_open": False},
            {"id": "e02", "location": [2.0, 3.0], "score": None, "origin": "existing",
             "tier": None, "fixed_open": False},
            {"id": "b3", "location": [4.0, 5.0], "score": None, "origin": "existing",
             "tier": None, "fixed_open": False},
        ]

    def test_duplicate_id_rejected(self):
        with pytest.raises(InputError, match="duplicate candidate id 'p01' after merge"):
            merge_existing([P01], ["p01"], np.array([[1.0, 1.0]]))


class TestGeojson:
    def test_properties_rendered(self):
        grid = GridSpec(0, 0, 100, 1, 1)
        sites = extract(make_score_raster(grid, [[0.6]]), ExtractionConfig(0.1, 50, 10))
        sites = merge_existing(sites, ["e01"], np.array([[10.0, 10.0]]))
        gj = candidates_geojson(sites)
        assert gj["type"] == "FeatureCollection"
        props = [f["properties"] for f in gj["features"]]
        assert props[0] == {"id": "p01", "score": 0.6, "origin": "proposed",
                            "tier": "first", "fixed_open": False}
        assert props[1]["score"] is None
        assert props[1]["tier"] is None
